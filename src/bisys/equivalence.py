"""Witness verification for the two matrix equivalences, bipartite splitting,
and the induced two-block conjugacy code.

A one-step witness is a family of rectangular matrices indexed 0, 1, 2, ...
with parity-dependent shapes; verification re-checks every stated equality as
an exact formal-sum identity and reports the first failure per family.  No
search for witnesses between arbitrary systems is attempted: the only
constructors are the self-witness and the bipartite split.

Within one verification or conversion, products and equation outcomes are
memoized by the identity of their operands.  Equal blocks are one object
where they are made, so a system whose blocks stabilize costs its distinct
blocks, not its depth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    Alphabet,
    BisysError,
    CoreError,
    Specification,
    SymbolicMatrix,
    by_identity,
    kappa_matrix,
    share,
    specified_equivalence_failure,
    symbolic_matrix_multiply,
    word_str,
)
from .smb import SymbolicMatrixBisystem, from_smb, validate_smb
from .bisystem import presented_words
from .subshift import BlockCode


class EquivalenceError(BisysError):
    pass


@dataclass(frozen=True)
class PsseWitness:
    """Matrices P, Q, X, Y indexed by half-levels, with the two symbol maps.

    The relation is symmetric: ``swapped()`` is the same witness read from
    N's side, so this module writes each M/N twin once, for the M side.

    ``_verified`` is the last ``verify_psse_1step`` result on this object,
    ``(s_m, s_n, depth, report)``; it is not a field, so it takes no part in
    ``==``, the hash or the documents, and ``replace`` and ``swapped`` start
    without it.
    """

    alphabet_c: Alphabet
    alphabet_d: Alphabet
    phi_m: Specification  # Sigma_M -> C.D
    phi_n: Specification  # Sigma_N -> D.C
    p_mats: tuple
    q_mats: tuple
    x_mats: tuple
    y_mats: tuple
    _verified = None

    def __post_init__(self):
        if not len(self.p_mats) == len(self.q_mats) == len(self.x_mats) == len(self.y_mats):
            raise EquivalenceError("P, Q, X and Y must have the same number of matrices")

    @property
    def levels(self) -> int:
        return len(self.p_mats)

    def swapped(self) -> "PsseWitness":
        """The same witness read from N to M: C and D, phi_m and phi_n, P and
        Q, and X and Y exchanged."""
        return PsseWitness(self.alphabet_d, self.alphabet_c, self.phi_n, self.phi_m,
                           self.q_mats, self.p_mats, self.y_mats, self.x_mats)


@dataclass(frozen=True)
class SseWitness:
    alphabet_c: Alphabet
    alphabet_d: Alphabet
    phi1: Specification  # Sigma_M^- . Sigma_M^+ -> C.D
    phi2: Specification  # Sigma_N^- . Sigma_N^+ -> D.C
    phi_c_plus: Specification   # Sigma_M^+ . C -> C . Sigma_N^+
    phi_d_plus: Specification   # Sigma_N^+ . D -> D . Sigma_M^+
    phi_c_minus: Specification  # Sigma_M^- . C -> C . Sigma_N^-
    phi_d_minus: Specification  # Sigma_N^- . D -> D . Sigma_M^-
    h_mats: tuple  # m(l) x n(l+1) over C
    k_mats: tuple  # n(l) x m(l+1) over D

    def __post_init__(self):
        if len(self.h_mats) != len(self.k_mats):
            raise EquivalenceError("H and K must have the same number of matrices")

    @property
    def levels(self) -> int:
        return len(self.h_mats)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    checked_levels: int
    failures: tuple = ()  # (family, level, message)

    def lines(self):
        head = "pass" if self.ok else "FAIL"
        out = [f"{head} (checked to witness level {self.checked_levels})"]
        for fam, lvl, msg in self.failures:
            out.append(f"  {fam} at level {lvl}: {msg}")
        return out


def verify_psse_1step(
    s_m: SymbolicMatrixBisystem,
    s_n: SymbolicMatrixBisystem,
    w: PsseWitness,
    depth: int | None = None,
) -> VerifyReport:
    """Check the four equation families to the stored depth.

    The report is kept on ``w`` for the same two systems (by identity) and
    depth, so a second call on them, such as ``conjugacy_block_map``'s,
    returns it without checking again.
    """
    depth = min(
        depth if depth is not None else s_m.depth, s_m.depth, s_n.depth
    )
    got = w._verified
    if got is not None and got[0] is s_m and got[1] is s_n and got[2] == depth:
        return got[3]
    rep = _verify_psse(s_m, s_n, w, depth)
    object.__setattr__(w, "_verified", (s_m, s_n, depth, rep))
    return rep


def _too_short(depth: int, have: int, need: int, unit: str) -> VerifyReport:
    """The report on a witness with fewer matrices per family than the depth
    needs; the failure is placed at the first missing index."""
    return VerifyReport(False, depth, (
        ("shape", have, f"witness covers {have} of the {need} {unit} depth {depth} needs"),
    ))


def _psse_equation_failure(lhs, rhs, spec):
    """None when lhs maps onto rhs under spec, or when spec is None and the
    kappa-exchange of lhs is rhs; else the reason."""
    if spec is not None:
        return specified_equivalence_failure(lhs, rhs, spec)
    if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
        return "shape mismatch"
    try:
        k = kappa_matrix(lhs)
    except CoreError as e:  # unfactorable product term
        return str(e)
    return None if k.same_entries(rhs) else "kappa-exchanged products differ"


def _verify_psse(s_m, s_n, w, depth) -> VerifyReport:
    if w.levels < 2 * depth:
        return _too_short(depth, w.levels, 2 * depth, "half-levels")
    failures = []
    # each side with its reading of the witness and the names of its P, X, Y
    sides = (("M", s_m, w, "PXY"), ("N", s_n, w.swapped(), "QYX"))

    # horizontal anchors of the witness shape chain
    for idx in range(0, 2 * depth, 2):
        for _, s, v, names in sides:
            rows = s.level_sizes[idx // 2]
            if v.p_mats[idx].rows != rows:
                failures.append(("shape", idx, f"{names[0]}_{idx} must have {rows} rows"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))

    mul = by_identity(symbolic_matrix_multiply)
    check = by_identity(_psse_equation_failure)

    def eq(family, level, lhs_fn, rhs_fn, spec=None):
        try:
            lhs, rhs = lhs_fn(), rhs_fn()
        except CoreError as e:  # inner-dimension mismatch in a product
            failures.append((family, level, str(e)))
            return
        msg = check(lhs, rhs, spec)
        if msg is not None:
            failures.append((family, level, msg))

    for side, s, v, names in sides:
        p, q, x, y = v.p_mats, v.q_mats, v.x_mats, v.y_mats
        kphi = v.phi_m.then_kappa(v.alphabet_c.word_length)
        for l in range(depth):
            eq(f"plus-factorisation({side})", l, lambda: s.plus[l],
               lambda: mul(p[2 * l], q[2 * l + 1]), v.phi_m)
            eq(f"minus-factorisation({side})", l, lambda: s.minus[l],
               lambda: mul(x[2 * l], y[2 * l + 1]), kphi)
        # Y and P commute up to kappa across odd half-levels, X and P across even
        for a in range(2 * depth - 1):
            z, name = (y, names[2]) if a % 2 else (x, names[1])
            eq(f"intertwine {name}{names[0]}", a, lambda: mul(z[a], p[a + 1]),
               lambda: mul(p[a], z[a + 1]))

    failures.sort(key=lambda t: (t[1], t[0]))
    return VerifyReport(not failures, depth, tuple(failures))


UNIT_SYMBOL = "1"


def trivial_psse_witness(s: SymbolicMatrixBisystem) -> PsseWitness:
    """Self-witness: C is the system's alphabet, D a single unit symbol."""
    if not validate_smb(s).ok:
        raise EquivalenceError("system fails validation")
    if s.sigma_minus.symbols != s.sigma_plus.symbols:
        raise EquivalenceError("self-witness needs a common alphabet")
    c = s.sigma_plus
    d = Alphabet.of(UNIT_SYMBOL)
    unit = (UNIT_SYMBOL,)
    phi_m = Specification.from_dict({w: w + unit for w in c.symbols})
    phi_n = Specification.from_dict({w: unit + w for w in c.symbols})
    sizes = s.level_sizes
    identity = {n: SymbolicMatrix.identity_pattern(n, unit, d) for n in set(sizes)}
    p_mats, q_mats, x_mats, y_mats = [], [], [], []
    for idx in range(2 * s.depth):
        l, odd = divmod(idx, 2)
        e = identity[sizes[l + 1] if odd else sizes[l]]
        p_mats.append(s.plus[l])
        q_mats.append(e)
        x_mats.append(e)
        y_mats.append(s.minus[l])
    return PsseWitness(c, d, phi_m, phi_n, tuple(p_mats), tuple(q_mats), tuple(x_mats), tuple(y_mats))


# ---------------------------------------------------------------------------
# bipartite structure


@dataclass(frozen=True)
class BipartiteStructure:
    alphabet_c: Alphabet
    alphabet_d: Alphabet
    vertex_c: tuple  # per level: sorted tuple of C-colored vertex indices
    vertex_d: tuple
    p_blocks: tuple  # per block l: P_{l,l+1} over C
    q_blocks: tuple
    x_blocks: tuple
    y_blocks: tuple


def detect_bipartite(s: SymbolicMatrixBisystem):
    """Symbol 2-coloring plus per-level vertex 2-coloring, or None.

    Every edge ties its symbol's colour to its ends' colours, the top vertex
    counting as both: a plus edge runs from its symbol's colour to the other,
    and a minus edge in block l keeps both ends in its symbol's colour when l
    is odd and in the other when l is even.  These parity equations are
    solved once over the expansion's edge index, for the least C-mask over
    the symbols in alphabet order with C and D both nonempty.
    """
    if s.sigma_minus.symbols != s.sigma_plus.symbols or not s.is_standard:
        return None
    symbols, sizes, adj = s.sigma_plus.symbols, s.level_sizes, s._expansion.adjacency
    # anchor[vertex] = (u, d): from its first edge end, the vertex has u's colour,
    # flipped if d; each end ties its symbol w to u as (w, u, 1 if they differ)
    anchor, ties = {}, set()
    for side in ("plus", "minus"):
        for l in range(s.depth):
            near, far = (0, 1) if side == "plus" else (1 - l % 2,) * 2
            for i, edges in enumerate(adj[side, "lower"][l]):
                for j, w in edges:
                    # from block 0 only the far end: the top vertex takes no colour
                    for key, differ in (((l, i), near), ((l + 1, j), far))[not l:]:
                        u, d = anchor.setdefault(key, (w, differ))
                        ties.add((w, u, differ ^ d))
        if side == "plus" and len(anchor) < sum(sizes) - 1:
            return None  # a vertex no plus edge reaches; reject rather than guess

    # each class of tied symbols grows from its last symbol, put in D (1):
    # the classes hold disjoint bits of the mask, so this gives the least mask
    links = {w: [] for w in symbols}
    for w, u, differ in ties | {(u, w, differ) for w, u, differ in ties}:
        links[w].append((u, differ))
    colour = {}
    for w in reversed(symbols):
        if w in colour:
            continue
        colour[w], grown = 1, [w]
        for u in grown:
            for other, differ in links[u]:
                want = colour[u] ^ differ
                if other not in colour:
                    colour[other] = want
                    grown.append(other)
                elif colour[other] != want:
                    return None
    if all(colour[w] for w in symbols):
        for u in grown:  # C is empty: move the last class grown, whose last symbol comes first
            colour[u] ^= 1
    if not any(colour[w] for w in symbols):
        return None

    # the uncoloured top vertex falls in both classes
    tone = {key: colour[w] ^ d for key, (w, d) in anchor.items()}
    vc, vd = (tuple(tuple(v for v in range(n) if tone.get((l, v), m) == m)
                    for l, n in enumerate(sizes)) for m in (0, 1))
    alpha_c, alpha_d = (Alphabet.from_words(w for w in symbols if colour[w] == m) for m in (0, 1))

    def sub(mat, rows, cols, alph):
        # the cells themselves: every term of a selected cell has alph's colour
        grid = tuple(tuple(mat.entries[i][j] for j in cols) for i in rows)
        return SymbolicMatrix(len(rows), len(cols), grid, alph)

    # per colour: its plus block (P for C, Q for D) runs from its own vertices to
    # the other's, its minus block (Y for C, X for D) stays among the other's on
    # even blocks and its own on odd ones; equal sub-blocks are shared by value
    blocks = []
    for own, other, alph in ((vc, vd, alpha_c), (vd, vc, alpha_d)):
        at = (other, own)
        blocks.append(share([sub(s.plus[l], own[l], other[l + 1], alph)
                             for l in range(s.depth)]))
        blocks.append(share([sub(s.minus[l], at[l % 2][l], at[l % 2][l + 1], alph)
                             for l in range(s.depth)]))
    p_blocks, y_blocks, q_blocks, x_blocks = map(tuple, blocks)
    return BipartiteStructure(alpha_c, alpha_d, vc, vd, p_blocks, q_blocks, x_blocks, y_blocks)


def bipartite_split(s: SymbolicMatrixBisystem, bip: BipartiteStructure):
    """The two half-depth systems and the one-step witness relating them.

    s_dc is built by the lines that build s_cd, read on the swapped witness.
    """
    half = s.depth // 2
    if half < 1:
        raise EquivalenceError("need depth >= 2 to split")
    # the symbol maps are the identities on the halves' symbols, set below
    w = PsseWitness(bip.alphabet_c, bip.alphabet_d, None, None,
                    bip.p_blocks, bip.q_blocks, bip.x_blocks, bip.y_blocks)
    systems = []
    for v in (w, w.swapped()):
        cd = Alphabet.product(v.alphabet_c, v.alphabet_d)
        plus_of = by_identity(lambda p, q: _cast(symbolic_matrix_multiply(p, q), cd))
        minus_of = by_identity(
            lambda x, y: _cast(kappa_matrix(symbolic_matrix_multiply(x, y)), cd)
        )
        plus = tuple(plus_of(v.p_mats[2 * l], v.q_mats[2 * l + 1]) for l in range(half))
        minus = tuple(minus_of(v.x_mats[2 * l], v.y_mats[2 * l + 1]) for l in range(half))
        systems.append(SymbolicMatrixBisystem(minus, plus, cd, cd))
    specs = []
    for sys in systems:
        rep = validate_smb(sys)
        if not rep.ok:
            raise EquivalenceError(
                "split produced an invalid system: "
                + "; ".join(c for _, v in rep.axioms for c in v.counterexamples[:2])
            )
        occurring = sorted(set().union(*[m.occurring() for m in sys.plus + sys.minus]))
        specs.append(Specification.identity_on(occurring))
    s_cd, s_dc = systems
    return s_cd, s_dc, replace(w, phi_m=specs[0], phi_n=specs[1])


# ---------------------------------------------------------------------------
# strong shift equivalence


def verify_sse_1step(
    s_m: SymbolicMatrixBisystem,
    s_n: SymbolicMatrixBisystem,
    w: SseWitness,
    depth: int | None = None,
) -> VerifyReport:
    """Check the six equation families to the stored depth.

    Each family is written once: for M with H, phi1 and the phi_c maps, and
    for N with K, phi2 and the phi_d maps.
    """
    depth = min(depth if depth is not None else s_m.depth, s_m.depth, s_n.depth)
    if w.levels < depth:
        return _too_short(depth, w.levels, depth, "levels")
    failures = []
    sides = (
        ("M", "H", s_m, s_n, w.h_mats, w.k_mats, w.phi1, w.phi_c_plus, w.phi_c_minus),
        ("N", "K", s_n, s_m, w.k_mats, w.h_mats, w.phi2, w.phi_d_plus, w.phi_d_minus),
    )

    for l in range(depth):
        for _, name, s, t, h, *_ in sides:
            rows, cols = s.level_sizes[l], t.level_sizes[l + 1]
            if (h[l].rows, h[l].cols) != (rows, cols):
                failures.append(("shape", l, f"{name}_{l} is not {rows}x{cols}"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))

    mul = by_identity(symbolic_matrix_multiply)
    check = by_identity(specified_equivalence_failure)

    def eq(family, level, lhs, rhs, spec):
        msg = check(lhs, rhs, spec)
        if msg is not None:
            failures.append((family, level, msg))

    for side, _, s, t, h, k, phi, phi_plus, phi_minus in sides:
        for l in range(depth - 1):
            eq(f"square-factorisation({side})", l,
               mul(s.minus[l], s.plus[l + 1]), mul(h[l], k[l + 1]), phi)
            eq(f"plus-intertwine({side})", l,
               mul(s.plus[l], h[l + 1]), mul(h[l], t.plus[l + 1]), phi_plus)
            eq(f"minus-intertwine({side})", l,
               mul(s.minus[l], h[l + 1]), mul(h[l], t.minus[l + 1]), phi_minus)

    failures.sort(key=lambda t: (t[1], t[0]))
    return VerifyReport(not failures, depth, tuple(failures))


def psse_to_sse(w: PsseWitness) -> SseWitness:
    """One-step conversion: H and K are the stated half-level products.

    The six symbol maps are computed from the witness maps by the middle
    exchanges that relate the corresponding four-factor products; a missing
    inverse image means the witness was not verifiable in the first place.
    K and its three maps are H and its maps read on the swapped witness.
    """
    if w.levels < 2:
        raise EquivalenceError("witness too short to convert")
    h_mats, c_sse, phi1, phi_c_plus, phi_c_minus = _sse_half(w)
    k_mats, d_sse, phi2, phi_d_plus, phi_d_minus = _sse_half(w.swapped())
    return SseWitness(
        c_sse, d_sse, phi1, phi2, phi_c_plus, phi_d_plus, phi_c_minus, phi_d_minus,
        h_mats, k_mats,
    )


def _sse_half(w: PsseWitness):
    """H_l = X_2l P_2l+1 over D.C, with phi1 (Sigma_M^- . Sigma_M^+ -> D.C.C.D),
    phi_c_plus (Sigma_M^+ . D.C -> D.C . Sigma_N^+) and phi_c_minus
    (Sigma_M^- . D.C -> D.C . Sigma_N^-)."""
    kc = w.alphabet_c.word_length
    kd = w.alphabet_d.word_length
    phi_m = w.phi_m.as_dict()  # images (c, d); kappa-exchanged (d, c)
    phi_n = w.phi_n.as_dict()  # images (d, c); kappa-exchanged (c, d)
    inv_phi_n = {v: s for s, v in phi_n.items()}
    inv_kphi_n = {v[kd:] + v[:kd]: s for s, v in phi_n.items()}

    c_sse = Alphabet.product(w.alphabet_d, w.alphabet_c)
    h = by_identity(lambda x, p: _cast(symbolic_matrix_multiply(x, p), c_sse))
    h_mats = tuple(h(w.x_mats[2 * l], w.p_mats[2 * l + 1]) for l in range(w.levels // 2))
    phi1 = {
        b + a: bw[kc:] + aw[:kc] + bw[:kc] + aw[kc:]
        for b, bw in phi_m.items()
        for a, aw in phi_m.items()
    }
    phi_plus, phi_minus = {}, {}
    for a, aw in phi_m.items():
        c_a, d_a = aw[:kc], aw[kc:]
        for h in c_sse.symbols:
            d, c = h[:kd], h[kd:]
            if d_a + c in inv_phi_n:
                phi_plus[a + h] = d + c_a + inv_phi_n[d_a + c]
            if c_a + d in inv_kphi_n:
                phi_minus[a + h] = d_a + c + inv_kphi_n[c_a + d]
    return (
        h_mats,
        c_sse,
        Specification.from_dict(phi1),
        Specification.from_dict(phi_plus),
        Specification.from_dict(phi_minus),
    )


def _cast(mat: SymbolicMatrix, alph: Alphabet) -> SymbolicMatrix:
    return SymbolicMatrix(mat.rows, mat.cols, mat.entries, alph)


# ---------------------------------------------------------------------------
# the induced two-block conjugacy code


def conjugacy_block_map(
    s_m: SymbolicMatrixBisystem,
    s_n: SymbolicMatrixBisystem,
    w: PsseWitness,
) -> BlockCode:
    """Two-block map on the presented language of the first system.

    For a passing witness, the pair (second half of the first symbol's image,
    first half of the next symbol's image) has a unique preimage symbol on the
    other side; failure of that uniqueness falsifies the witness and raises.
    """
    if not verify_psse_1step(s_m, s_n, w).ok:
        raise EquivalenceError("witness does not verify; no block code")
    cut = w.alphabet_c.word_length
    src_map = w.phi_m.as_dict()
    inv_dst = {v: s for s, v in w.phi_n.as_dict().items()}

    chunk = s_m.sigma_plus.word_length
    two_blocks = presented_words(from_smb(s_m), "plus", 2)
    mapping = {}
    for wrd in two_blocks:
        x1, x2 = wrd[:chunk], wrd[chunk:]
        if x1 not in src_map or x2 not in src_map:
            raise EquivalenceError(f"symbol map undefined on {word_str(x1)} or {word_str(x2)}")
        mid = src_map[x1][cut:] + src_map[x2][:cut]
        if mid not in inv_dst:
            raise EquivalenceError(
                f"no symbol on the other side presents {word_str(mid)}; witness falsified"
            )
        mapping[(x1, x2)] = inv_dst[mid]
    return BlockCode.from_dict(mapping, in_chunk=chunk, out_chunk=s_n.sigma_plus.word_length)
