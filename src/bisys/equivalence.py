"""Witness verification for the two matrix equivalences, bipartite splitting,
and the induced two-block conjugacy code.

A one-step witness is a family of rectangular matrices indexed 0, 1, 2, ...
with parity-dependent shapes; verification re-checks every stated equality as
an exact formal-sum identity and reports the first failure per family.  No
search for witnesses between arbitrary systems is attempted: the only
constructors are the self-witness and the bipartite split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Alphabet,
    CoreError,
    FormalSum,
    Specification,
    SymbolicMatrix,
    kappa_matrix,
    specified_equivalence_failure,
    symbolic_matrix_multiply,
    word_str,
)
from .smb import SymbolicMatrixBisystem, from_smb, validate_smb
from .bisystem import presented_words
from .subshift import BlockCode


class EquivalenceError(ValueError):
    pass


@dataclass(frozen=True)
class PsseWitness:
    """Matrices P, Q, X, Y indexed by half-levels, with the two symbol maps."""

    alphabet_c: Alphabet
    alphabet_d: Alphabet
    phi_m: Specification  # Sigma_M -> C.D
    phi_n: Specification  # Sigma_N -> D.C
    p_mats: tuple
    q_mats: tuple
    x_mats: tuple
    y_mats: tuple

    def __post_init__(self):
        if not len(self.p_mats) == len(self.q_mats) == len(self.x_mats) == len(self.y_mats):
            raise EquivalenceError("P, Q, X and Y must have the same number of matrices")

    @property
    def levels(self) -> int:
        return len(self.p_mats)


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


def _shape(m: SymbolicMatrix):
    return (m.rows, m.cols)


def verify_psse_1step(
    s_m: SymbolicMatrixBisystem,
    s_n: SymbolicMatrixBisystem,
    w: PsseWitness,
    depth: int | None = None,
) -> VerifyReport:
    """Check the four equation families to the stored depth."""
    depth = min(
        depth if depth is not None else s_m.depth, s_m.depth, s_n.depth
    )
    failures = []
    m_sizes, n_sizes = s_m.level_sizes, s_n.level_sizes

    # horizontal anchors of the witness shape chain
    for idx in range(min(w.levels, 2 * depth)):
        l, odd = divmod(idx, 2)
        if not odd:
            if _shape(w.p_mats[idx])[0] != m_sizes[l]:
                failures.append(("shape", idx, f"P_{idx} must have {m_sizes[l]} rows"))
            if _shape(w.q_mats[idx])[0] != n_sizes[l]:
                failures.append(("shape", idx, f"Q_{idx} must have {n_sizes[l]} rows"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))

    def eq(family, level, lhs_fn, rhs_fn, spec=None):
        try:
            lhs, rhs = lhs_fn(), rhs_fn()
        except CoreError as e:  # inner-dimension mismatch in a product
            failures.append((family, level, str(e)))
            return
        if spec is None:
            if _shape(lhs) != _shape(rhs):
                failures.append((family, level, "shape mismatch"))
                return
            try:
                k = kappa_matrix(lhs)
            except CoreError as e:  # unfactorable product term
                failures.append((family, level, str(e)))
                return
            if not k.same_entries(rhs):
                failures.append((family, level, "kappa-exchanged products differ"))
        else:
            msg = specified_equivalence_failure(lhs, rhs, spec)
            if msg is not None:
                failures.append((family, level, msg))

    kphi_m = w.phi_m.then_kappa(w.alphabet_c.word_length)
    kphi_n = w.phi_n.then_kappa(w.alphabet_d.word_length)

    mul = symbolic_matrix_multiply
    for l in range(depth):
        if 2 * l + 1 >= w.levels:
            break
        eq("plus-factorisation(M)", l, lambda l=l: s_m.plus[l],
           lambda l=l: mul(w.p_mats[2 * l], w.q_mats[2 * l + 1]), w.phi_m)
        eq("plus-factorisation(N)", l, lambda l=l: s_n.plus[l],
           lambda l=l: mul(w.q_mats[2 * l], w.p_mats[2 * l + 1]), w.phi_n)
        eq("minus-factorisation(M)", l, lambda l=l: s_m.minus[l],
           lambda l=l: mul(w.x_mats[2 * l], w.y_mats[2 * l + 1]), kphi_m)
        eq("minus-factorisation(N)", l, lambda l=l: s_n.minus[l],
           lambda l=l: mul(w.y_mats[2 * l], w.x_mats[2 * l + 1]), kphi_n)

    for idx in range(min(w.levels - 1, 2 * depth - 1)):
        a, b = idx, idx + 1
        if idx % 2 == 1:
            eq("intertwine YP", idx, lambda a=a, b=b: mul(w.y_mats[a], w.p_mats[b]),
               lambda a=a, b=b: mul(w.p_mats[a], w.y_mats[b]))
            eq("intertwine XQ", idx, lambda a=a, b=b: mul(w.x_mats[a], w.q_mats[b]),
               lambda a=a, b=b: mul(w.q_mats[a], w.x_mats[b]))
        else:
            eq("intertwine XP", idx, lambda a=a, b=b: mul(w.x_mats[a], w.p_mats[b]),
               lambda a=a, b=b: mul(w.p_mats[a], w.x_mats[b]))
            eq("intertwine YQ", idx, lambda a=a, b=b: mul(w.y_mats[a], w.q_mats[b]),
               lambda a=a, b=b: mul(w.q_mats[a], w.y_mats[b]))

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
    phi_m = Specification.from_dict(
        {w: w + unit for w in c.symbols}, source=c, target=Alphabet.product(c, d)
    )
    phi_n = Specification.from_dict(
        {w: unit + w for w in c.symbols}, source=c, target=Alphabet.product(d, c)
    )
    sizes = s.level_sizes
    p_mats, q_mats, x_mats, y_mats = [], [], [], []
    for idx in range(2 * s.depth):
        l, odd = divmod(idx, 2)
        e = SymbolicMatrix.identity_pattern(sizes[l + 1] if odd else sizes[l], unit, d)
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

    Vertex colors are forced by symbol occurrences in the plus blocks, so the
    search runs over symbol colorings only, smallest-first in symbol order.
    """
    if s.sigma_minus.symbols != s.sigma_plus.symbols:
        return None
    if not s.is_standard:
        return None
    symbols = list(s.sigma_plus.symbols)
    n_sym = len(symbols)
    sizes = s.level_sizes

    for mask in range(1, 2 ** n_sym - 1):
        cset = frozenset(symbols[i] for i in range(n_sym) if mask & (1 << i))
        dset = frozenset(symbols) - cset
        colors = [dict() for _ in range(s.depth + 1)]  # index -> "C"/"D"
        colors[0][0] = "CD"  # the top vertex counts as both
        ok = True
        for l in range(s.depth):
            mp = s.plus[l]
            for i in range(mp.rows):
                for j in range(mp.cols):
                    for w in mp.entry(i, j).support():
                        src, tgt = ("C", "D") if w in cset else ("D", "C")
                        if l > 0:
                            if colors[l].setdefault(i, src) != src:
                                ok = False
                        if colors[l + 1].setdefault(j, tgt) != tgt:
                            ok = False
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        if any(len(colors[l]) != sizes[l] for l in range(1, s.depth + 1)):
            continue  # some vertex never constrained; reject rather than guess

        # minus-edge parity rules
        def minus_ok():
            for l in range(s.depth):
                mm = s.minus[l]
                for i in range(mm.rows):
                    for j in range(mm.cols):
                        for w in mm.entry(i, j).support():
                            want = "C" if w in cset else "D"
                            if l % 2 == 0:
                                want_src = want_tgt = {"C": "D", "D": "C"}[want]
                            else:
                                want_src = want_tgt = want
                            src_col = colors[l + 1][j]
                            tgt_col = colors[l][i] if l > 0 else "CD"
                            if src_col != want_src:
                                return False
                            if l > 0 and tgt_col != want_tgt:
                                return False
            return True

        if not minus_ok():
            continue

        vc = tuple(
            tuple(sorted(i for i, col in colors[l].items() if col in ("C", "CD")))
            for l in range(s.depth + 1)
        )
        vd = tuple(
            tuple(sorted(i for i, col in colors[l].items() if col in ("D", "CD")))
            for l in range(s.depth + 1)
        )
        alpha_c = Alphabet.from_words(sorted(cset))
        alpha_d = Alphabet.from_words(sorted(dset))

        def sub(mat, rows, cols, keep, alph):
            cells = [
                [
                    FormalSum({w: c for w, c in mat.entry(i, j).items() if w in keep})
                    for j in cols
                ]
                for i in rows
            ]
            return SymbolicMatrix(
                len(rows), len(cols), tuple(tuple(r) for r in cells), alph
            )

        p_blocks, q_blocks, x_blocks, y_blocks = [], [], [], []
        for l in range(s.depth):
            mp, mm = s.plus[l], s.minus[l]
            p_blocks.append(sub(mp, vc[l], vd[l + 1], cset, alpha_c))
            q_blocks.append(sub(mp, vd[l], vc[l + 1], dset, alpha_d))
            if l % 2 == 0:
                x_blocks.append(sub(mm, vc[l], vc[l + 1], dset, alpha_d))
                y_blocks.append(sub(mm, vd[l], vd[l + 1], cset, alpha_c))
            else:
                x_blocks.append(sub(mm, vd[l], vd[l + 1], dset, alpha_d))
                y_blocks.append(sub(mm, vc[l], vc[l + 1], cset, alpha_c))

        # color propagation plus the parity rules force every nonzero entry
        # into its block, so the pattern is exact at this point
        return BipartiteStructure(
            alpha_c,
            alpha_d,
            vc,
            vd,
            tuple(p_blocks),
            tuple(q_blocks),
            tuple(x_blocks),
            tuple(y_blocks),
        )
    return None


def bipartite_split(s: SymbolicMatrixBisystem, bip: BipartiteStructure):
    """The two half-depth systems and the one-step witness relating them."""
    half = s.depth // 2
    if half < 1:
        raise EquivalenceError("need depth >= 2 to split")
    cd = Alphabet.product(bip.alphabet_c, bip.alphabet_d)
    dc = Alphabet.product(bip.alphabet_d, bip.alphabet_c)

    def cast(mat, alph):
        return SymbolicMatrix(mat.rows, mat.cols, mat.entries, alph)

    cd_plus, cd_minus, dc_plus, dc_minus = [], [], [], []
    for l in range(half):
        cd_plus.append(
            cast(symbolic_matrix_multiply(bip.p_blocks[2 * l], bip.q_blocks[2 * l + 1]), cd)
        )
        dc_plus.append(
            cast(symbolic_matrix_multiply(bip.q_blocks[2 * l], bip.p_blocks[2 * l + 1]), dc)
        )
        cd_minus.append(
            cast(
                kappa_matrix(
                    symbolic_matrix_multiply(bip.x_blocks[2 * l], bip.y_blocks[2 * l + 1])
                ),
                cd,
            )
        )
        dc_minus.append(
            cast(
                kappa_matrix(
                    symbolic_matrix_multiply(bip.y_blocks[2 * l], bip.x_blocks[2 * l + 1])
                ),
                dc,
            )
        )
    s_cd = SymbolicMatrixBisystem(tuple(cd_minus), tuple(cd_plus), cd, cd)
    s_dc = SymbolicMatrixBisystem(tuple(dc_minus), tuple(dc_plus), dc, dc)
    for sys in (s_cd, s_dc):
        rep = validate_smb(sys)
        if not rep.ok:
            raise EquivalenceError(
                "split produced an invalid system: "
                + "; ".join(c for _, v in rep.axioms for c in v.counterexamples[:2])
            )
    occurring_cd = sorted(set().union(*[m.occurring() for m in s_cd.plus + s_cd.minus]))
    occurring_dc = sorted(set().union(*[m.occurring() for m in s_dc.plus + s_dc.minus]))
    w = PsseWitness(
        bip.alphabet_c,
        bip.alphabet_d,
        Specification.identity_on(occurring_cd, cd),
        Specification.identity_on(occurring_dc, dc),
        tuple(bip.p_blocks),
        tuple(bip.q_blocks),
        tuple(bip.x_blocks),
        tuple(bip.y_blocks),
    )
    return s_cd, s_dc, w


# ---------------------------------------------------------------------------
# strong shift equivalence


def verify_sse_1step(
    s_m: SymbolicMatrixBisystem,
    s_n: SymbolicMatrixBisystem,
    w: SseWitness,
    depth: int | None = None,
) -> VerifyReport:
    """Check the six equation families to the stored depth."""
    depth = min(depth if depth is not None else s_m.depth, s_m.depth, s_n.depth)
    failures = []

    def eq(family, level, lhs, rhs, spec):
        msg = specified_equivalence_failure(lhs, rhs, spec)
        if msg is not None:
            failures.append((family, level, msg))

    m_sizes, n_sizes = s_m.level_sizes, s_n.level_sizes
    for l in range(min(w.levels, depth)):
        if _shape(w.h_mats[l]) != (m_sizes[l], n_sizes[l + 1]):
            failures.append(("shape", l, f"H_{l} is not {m_sizes[l]}x{n_sizes[l+1]}"))
        if _shape(w.k_mats[l]) != (n_sizes[l], m_sizes[l + 1]):
            failures.append(("shape", l, f"K_{l} is not {n_sizes[l]}x{m_sizes[l+1]}"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))

    for l in range(depth - 1):
        if l + 1 >= w.levels:
            break
        eq(
            "square-factorisation(M)",
            l,
            symbolic_matrix_multiply(s_m.minus[l], s_m.plus[l + 1]),
            symbolic_matrix_multiply(w.h_mats[l], w.k_mats[l + 1]),
            w.phi1,
        )
        eq(
            "square-factorisation(N)",
            l,
            symbolic_matrix_multiply(s_n.minus[l], s_n.plus[l + 1]),
            symbolic_matrix_multiply(w.k_mats[l], w.h_mats[l + 1]),
            w.phi2,
        )
        eq(
            "plus-intertwine(M)",
            l,
            symbolic_matrix_multiply(s_m.plus[l], w.h_mats[l + 1]),
            symbolic_matrix_multiply(w.h_mats[l], s_n.plus[l + 1]),
            w.phi_c_plus,
        )
        eq(
            "plus-intertwine(N)",
            l,
            symbolic_matrix_multiply(s_n.plus[l], w.k_mats[l + 1]),
            symbolic_matrix_multiply(w.k_mats[l], s_m.plus[l + 1]),
            w.phi_d_plus,
        )
        eq(
            "minus-intertwine(M)",
            l,
            symbolic_matrix_multiply(s_m.minus[l], w.h_mats[l + 1]),
            symbolic_matrix_multiply(w.h_mats[l], s_n.minus[l + 1]),
            w.phi_c_minus,
        )
        eq(
            "minus-intertwine(N)",
            l,
            symbolic_matrix_multiply(s_n.minus[l], w.k_mats[l + 1]),
            symbolic_matrix_multiply(w.k_mats[l], s_m.minus[l + 1]),
            w.phi_d_minus,
        )

    failures.sort(key=lambda t: (t[1], t[0]))
    return VerifyReport(not failures, depth, tuple(failures))


def psse_to_sse(w: PsseWitness) -> SseWitness:
    """One-step conversion: H and K are the stated half-level products.

    The six symbol maps are computed from the witness maps by the middle
    exchanges that relate the corresponding four-factor products; a missing
    inverse image means the witness was not verifiable in the first place.
    """
    kc = w.alphabet_c.word_length
    kd = w.alphabet_d.word_length
    phi_m = w.phi_m.as_dict()
    phi_n = w.phi_n.as_dict()
    kphi_m = {s: d[kc:] + d[:kc] for s, d in phi_m.items()}  # image in D.C
    kphi_n = {s: d[kd:] + d[:kd] for s, d in phi_n.items()}  # image in C.D
    inv_phi_m = {v: s for s, v in phi_m.items()}
    inv_phi_n = {v: s for s, v in phi_n.items()}
    inv_kphi_m = {v: s for s, v in kphi_m.items()}
    inv_kphi_n = {v: s for s, v in kphi_n.items()}

    c_sse = Alphabet.product(w.alphabet_d, w.alphabet_c)  # H-matrix alphabet
    d_sse = Alphabet.product(w.alphabet_c, w.alphabet_d)  # K-matrix alphabet

    if len(w.p_mats) < 2:
        raise EquivalenceError("witness too short to convert")
    h_mats = tuple(
        _cast(symbolic_matrix_multiply(w.x_mats[2 * l], w.p_mats[2 * l + 1]), c_sse)
        for l in range(len(w.p_mats) // 2)
    )
    k_mats = tuple(
        _cast(symbolic_matrix_multiply(w.y_mats[2 * l], w.q_mats[2 * l + 1]), d_sse)
        for l in range(len(w.p_mats) // 2)
    )

    phi1 = {}
    for b, bw in kphi_m.items():  # bw = (d_b, c_b)
        for a, aw in phi_m.items():  # aw = (c_a, d_a)
            d_b, c_b = bw[:kd], bw[kd:]
            c_a, d_a = aw[:kc], aw[kc:]
            phi1[b + a] = d_b + c_a + c_b + d_a
    phi2 = {}
    for b, bw in kphi_n.items():  # bw = (c1, d1)
        for a, aw in phi_n.items():  # aw = (d2, c2)
            c1, d1 = bw[:kc], bw[kc:]
            d2, c2 = aw[:kd], aw[kd:]
            phi2[b + a] = c1 + d2 + d1 + c2

    phi_c_plus = {}
    for a, aw in phi_m.items():  # aw = (c_a, d_a)
        c_a, d_a = aw[:kc], aw[kc:]
        for h in c_sse.symbols:  # h = (d, c)
            d, c = h[:kd], h[kd:]
            target = d_a + c
            if target in inv_phi_n:
                phi_c_plus[a + h] = d + c_a + inv_phi_n[target]
    phi_d_plus = {}
    for a, aw in phi_n.items():  # aw = (d_a, c_a)
        d_a, c_a = aw[:kd], aw[kd:]
        for k in d_sse.symbols:  # k = (c, d)
            c, d = k[:kc], k[kc:]
            target = c_a + d
            if target in inv_phi_m:
                phi_d_plus[a + k] = c + d_a + inv_phi_m[target]
    phi_c_minus = {}
    for b, bw in kphi_m.items():  # bw = (d_b, c_b)
        d_b, c_b = bw[:kd], bw[kd:]
        for h in c_sse.symbols:
            d, c = h[:kd], h[kd:]
            target = c_b + d
            if target in inv_kphi_n:
                phi_c_minus[b + h] = d_b + c + inv_kphi_n[target]
    phi_d_minus = {}
    for b, bw in kphi_n.items():  # bw = (c_b, d_b)
        c_b, d_b = bw[:kc], bw[kc:]
        for k in d_sse.symbols:
            c, d = k[:kc], k[kc:]
            target = d_b + c
            if target in inv_kphi_m:
                phi_d_minus[b + k] = c_b + d + inv_kphi_m[target]

    return SseWitness(
        c_sse,
        d_sse,
        Specification.from_dict(phi1),
        Specification.from_dict(phi2),
        Specification.from_dict(phi_c_plus),
        Specification.from_dict(phi_d_plus),
        Specification.from_dict(phi_c_minus),
        Specification.from_dict(phi_d_minus),
        h_mats,
        k_mats,
    )


def _cast(mat: SymbolicMatrix, alph: Alphabet) -> SymbolicMatrix:
    return SymbolicMatrix(mat.rows, mat.cols, mat.entries, alph)


# ---------------------------------------------------------------------------
# the induced two-block conjugacy code


def conjugacy_block_map(
    s_m: SymbolicMatrixBisystem,
    s_n: SymbolicMatrixBisystem,
    w: PsseWitness,
    reverse: bool = False,
) -> BlockCode:
    """Two-block map on the presented language of the first system.

    For a passing witness, the pair (second half of the first symbol's image,
    first half of the next symbol's image) has a unique preimage symbol on the
    other side; failure of that uniqueness falsifies the witness and raises.
    With ``reverse`` the roles of the two systems (and symbol maps) swap.
    """
    rep = verify_psse_1step(s_m, s_n, w)
    if not rep.ok:
        raise EquivalenceError("witness does not verify; no block code")
    kc = w.alphabet_c.word_length
    kd = w.alphabet_d.word_length
    if reverse:
        src, spec_src, spec_dst = s_n, w.phi_n, w.phi_m
        cut, out_chunk = kd, s_m.sigma_plus.word_length
    else:
        src, spec_src, spec_dst = s_m, w.phi_m, w.phi_n
        cut, out_chunk = kc, s_n.sigma_plus.word_length
    inv_dst = {v: s for s, v in spec_dst.as_dict().items()}
    src_map = spec_src.as_dict()

    chunk = src.sigma_plus.word_length
    b = from_smb(src)
    two_blocks = presented_words(b, "plus", 2)
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
    return BlockCode.from_dict(mapping, in_chunk=chunk, out_chunk=out_chunk)
