"""Two-sided leveled labeled-graph systems, truncated to a finite depth.

A bisystem stores vertex levels 0..L and, per level block l, the upward
(minus) edges V_{l+1} -> V_l and the downward (plus) edges V_l -> V_{l+1}.
Vertex indices are 0-based internally; reports render them 1-based.  Labels
are words (tuples of strings), length 1 unless the alphabet is a product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce
from itertools import islice
from operator import eq

from .core import Alphabet, WordDag, by_identity, depth_first, share, word_str


class BisystemError(ValueError):
    pass


@dataclass(frozen=True)
class LambdaGraphBisystem:
    level_sizes: tuple  # m(0..L)
    minus_edges: tuple  # per block l: tuple[(src in V_{l+1}, tgt in V_l, label), ...]
    plus_edges: tuple   # per block l: tuple[(src in V_l, tgt in V_{l+1}, label), ...]
    sigma_minus: Alphabet
    sigma_plus: Alphabet

    def __post_init__(self):
        L = self.depth
        if len(self.minus_edges) != L or len(self.plus_edges) != L:
            raise BisystemError("edge blocks must cover every consecutive level pair")
        sides = (("minus", self.sigma_minus.symbol_set, 1, 0),
                 ("plus", self.sigma_plus.symbol_set, 0, 1))

        def fault(minus, plus, *ends):
            """The first edge, minus block first, with an end off the levels of
            sizes ``ends`` (the block ends its text) or a label off the alphabet."""
            for (side, symbols, i, j), block in zip(sides, (minus, plus)):
                for (s, t, a) in block:
                    if not (0 <= s < ends[i] and 0 <= t < ends[j]):
                        return f"{side} edge {(s, t, a)} out of range at block ", True
                    if tuple(a) not in symbols:
                        return f"{side} label {a} outside the alphabet", False
            return None

        fault = by_identity(fault)
        sizes = self.level_sizes
        for l, key in enumerate(zip(self.minus_edges, self.plus_edges, sizes, sizes[1:])):
            if (found := fault(*key)) is not None:
                raise BisystemError(found[0] + str(l) if found[1] else found[0])

    @property
    def depth(self) -> int:
        return len(self.level_sizes) - 1

    @property
    def is_standard(self) -> bool:
        return self.level_sizes[0] == 1

    @property
    def has_common_alphabet(self) -> bool:
        return self.sigma_minus.symbols == self.sigma_plus.symbols

    def vertex_name(self, level: int, i: int) -> str:
        return f"v{i + 1}^{level}"

    @cached_property
    def adjacency(self) -> dict:
        """Edge index, built on first use: ``adjacency[side, end][l][v]``
        lists ``(w, label)`` in block order for each block-l edge of the side
        whose ``end`` is v, where the "lower" end lies at level l, the
        "upper" end at level l+1, and w is the other end.  Equal blocks
        between equal level sizes share their lists."""
        index = {}
        for side, blocks in (("minus", self.minus_edges), ("plus", self.plus_edges)):

            def lists(l):
                lo = [[] for _ in range(self.level_sizes[l])]
                up = [[] for _ in range(self.level_sizes[l + 1])]
                for (s, t, a) in blocks[l]:
                    i, j = (t, s) if side == "minus" else (s, t)
                    lo[i].append((j, tuple(a)))
                    up[j].append((i, tuple(a)))
                return lo, up

            pairs = share(list(zip(blocks, self.level_sizes, self.level_sizes[1:])), lists)
            index[side, "lower"] = [lo for lo, _ in pairs]
            index[side, "upper"] = [up for _, up in pairs]
        return index

    @cached_property
    def languages(self) -> tuple:
        """Word walk, made on first use: ``(dag, nodes)``, where
        ``nodes[side][l][v]`` is the node, in one word DAG over the letters
        of both alphabets, of the label words (letters flattened) of the
        side's paths between vertex v at level l and level 0: follower words
        on the minus side, whose labels join a word at its left end, and
        predecessor words on the plus side."""
        dag = WordDag(sorted({x for s in (*self.sigma_minus, *self.sigma_plus) for x in s}))
        nodes = {}
        for side, join in (("minus", dag.prepend), ("plus", lambda a, n: dag.append(n, a))):
            nodes[side] = levels = [(1,) * self.level_sizes[0]]
            for block in self.adjacency[side, "upper"]:
                below = levels[-1]
                levels.append(tuple(reduce(dag.union, (join(a, below[i]) for (i, a) in edges), 0)
                                    for edges in block))
        return dag, nodes

    @cached_property
    def _axioms(self) -> tuple:
        """``axiom_verdicts(self)``, computed on first use."""
        return axiom_verdicts(self)

    @cached_property
    def _fpcc(self) -> Verdict:
        """``_fpcc_verdict(self)``, computed on first use."""
        return _fpcc_verdict(self)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    counterexamples: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ValidationReport:
    depth: int
    axioms: tuple  # ((name, Verdict), ...) for i..v
    fpcc: Verdict | None = None  # with standard, None in a matrix bisystem's report
    standard: Verdict | None = None

    def axiom(self, name: str) -> Verdict:
        return dict(self.axioms)[name]

    @property
    def ok(self) -> bool:
        """Structurally valid to the stored depth (axioms only, not FPCC)."""
        return all(v.ok for _, v in self.axioms)

    def lines(self):
        out = [f"valid to depth {self.depth}: {'yes' if self.ok else 'NO'}"]
        for name, v in self.axioms:
            out.append(f"  axiom ({name}): {'pass' if v.ok else 'FAIL'}")
            for c in v.counterexamples[:5]:
                out.append(f"      {c}")
        if self.fpcc is None:
            return out
        out.append(f"  standard (single top vertex): {'yes' if self.standard.ok else 'no'}")
        out.append(f"  FPCC: {'yes' if self.fpcc.ok else 'no'}")
        for c in self.fpcc.counterexamples[:5]:
            out.append(f"      {c}")
        return out


def validate(b: LambdaGraphBisystem) -> ValidationReport:
    """Check the structural axioms to depth L; failures become verdicts."""
    standard = Verdict(b.is_standard, () if b.is_standard else ("|V_0| != 1",))
    return ValidationReport(depth=b.depth, axioms=b._axioms, fpcc=b._fpcc, standard=standard)


def axiom_verdicts(b: LambdaGraphBisystem) -> tuple:
    """((name, Verdict), ...) for axioms (i)-(v): validate without FPCC.

    Each adjacency list object is scanned once, and its faults are named at
    every level that holds it."""
    adj = b.adjacency
    name = b.vertex_name

    # (i)/(ii) finite leveled vertex and edge sets hold by construction
    v_i = Verdict(True)
    v_ii = Verdict(True)

    # (iii): the lower lists of block k are the vertices at level k, the upper
    # ones (up = 1) those at level k+1; each names the other level
    empty = by_identity(lambda lists: [i for i, e in enumerate(lists) if not e])
    bad3 = [
        f"{name(k + up, i)} has no {what} edge {way} level {k + 1 - up}"
        for side, end, up, what, way in (
            ("minus", "lower", 0, "incoming minus", "from"),
            ("minus", "upper", 1, "outgoing minus", "to"),
            ("plus", "lower", 0, "outgoing plus", "to"),
            ("plus", "upper", 1, "incoming plus", "from"),
        )
        for k, lists in enumerate(adj[side, end])
        for i in empty(lists)
    ]
    v_iii = Verdict(not bad3, tuple(sorted(bad3)))

    # (iv): labels at an upper vertex are distinct, minus edges leaving it
    # (right-resolving) and plus edges entering it (left-resolving)
    repeats = by_identity(_repeats)
    bad4 = [
        f"{side} not {how}-resolving: two {word_str(a)}-edges {at} {name(l + 1, j)}"
        if i0 != i else f"duplicate {side} edge {at} {name(l + 1, j)}"
        for side, how, at in (("minus", "right", "from"), ("plus", "left", "into"))
        for l, lists in enumerate(adj[side, "upper"])
        for j, a, i0, i in repeats(lists)
    ]
    v_iv = Verdict(not bad4, tuple(sorted(bad4)))

    # (v): minus-then-plus corners against plus-then-minus ones
    bad5 = [
        f"local property fails at ({name(l, u)},{name(l + 2, v)}): "
        f"{[f'{word_str(x)}|{word_str(y)}' for x, y in d]} vs "
        f"{[f'{word_str(x)}|{word_str(y)}' for x, y in w]}"
        for l, u, v, d, w in corner_faults(b)
    ]
    v_v = Verdict(not bad5, tuple(sorted(bad5)))

    return (("i", v_i), ("ii", v_ii), ("iii", v_iii), ("iv", v_iv), ("v", v_v))


def _repeats(lists) -> list:
    """``(j, label, i0, i)`` for each edge ``(i, label)`` of list j, in list
    order, whose label an earlier edge ``(i0, label)`` of the list has; i0 is
    the end of the last such edge."""
    out = []
    for j, edges in enumerate(lists):
        seen: dict = {}
        for (i, a) in edges:
            if a in seen:
                out.append((j, a, seen[a], i))
            seen[a] = i
    return out


def corner_faults(b: LambdaGraphBisystem) -> list:
    """``(l, u, v, down, up)`` for each corner from u at level l to v at level
    l+2 where axiom (v) fails (see ``_corners``), in (l, u, v) order.  The
    corners are scanned once per distinct quadruple of list objects."""
    adj = b.adjacency
    faults = by_identity(_corners)
    quadruples = zip(adj["minus", "upper"], adj["plus", "lower"][1:],
                     adj["plus", "upper"], adj["minus", "lower"][1:])
    return [(l, *fault) for l, lists in enumerate(quadruples) for fault in faults(*lists)]


def _corners(minus_upper, plus_lower, plus_upper, minus_lower) -> list:
    """The corners from u at level l to v at level l+2 through level l+1, read
    off the upper lists of block l and the lower lists of block l+1, as
    ``(u, v, down, up)`` sorted by (u, v) where ``down != up``: ``down`` lists
    the corners that go minus then plus and ``up`` those that go plus then
    minus, each a sorted list of (minus label, plus label) pairs."""
    down = sorted([(u, v, bm, ap) for mu, pl in zip(minus_upper, plus_lower)
                   for (u, bm) in mu for (v, ap) in pl])
    up = sorted([(u, v, bm, ap) for pu, ml in zip(plus_upper, minus_lower)
                 for (u, ap) in pu for (v, bm) in ml])
    if down == up:  # axiom (v) holds at every corner
        return []
    cells = ({}, {})
    for corners, cell in zip((down, up), cells):
        for (u, v, bm, ap) in corners:
            cell.setdefault((u, v), []).append((bm, ap))
    return [(u, v, d, w) for u, v in sorted(cells[0].keys() | cells[1].keys())
            if (d := cells[0].get((u, v), [])) != (w := cells[1].get((u, v), []))]


def _word_sets(b: LambdaGraphBisystem, side: str):
    """Per level, per vertex: the words of the side's nodes in
    ``b.languages``, in lexicographic order."""
    dag, nodes = b.languages
    return tuple(tuple(map(dag.words, level)) for level in nodes[side])


def _cut(b: LambdaGraphBisystem, depth: int) -> LambdaGraphBisystem:
    """b's first ``depth`` blocks, b itself at its stored depth.  The word
    sets and the ladder of level l read only the blocks below it, so a cut
    leaves them as they are."""
    if depth == b.depth:
        return b
    return replace(b, level_sizes=b.level_sizes[: depth + 1],
                   minus_edges=b.minus_edges[:depth], plus_edges=b.plus_edges[:depth])


def follower_sets(b: LambdaGraphBisystem):
    """Per level, per vertex: all downward minus label words to level 0,
    reading the topmost edge first, in lexicographic order."""
    return _word_sets(b, "minus")


def predecessor_sets(b: LambdaGraphBisystem):
    """Per level, per vertex: all upward plus label words from level 0, in
    lexicographic order."""
    return _word_sets(b, "plus")


def _fpcc_verdict(b: LambdaGraphBisystem) -> Verdict:
    """Follower against predecessor languages, vertex by vertex, as nodes of
    ``b.languages``; words are listed only for a vertex where they differ."""
    if not b.is_standard:
        return Verdict(False, ("not standard: |V_0| != 1",))
    if not b.has_common_alphabet:
        return Verdict(False, ("alphabets differ between the two sides",))
    dag, nodes = b.languages
    bad = [
        f"{b.vertex_name(l, i)}: follower words {sorted(map(word_str, dag.words(f)))} "
        f"!= predecessor words {sorted(map(word_str, dag.words(p)))}"
        for l, level in enumerate(zip(nodes["minus"], nodes["plus"]))
        for i, (f, p) in enumerate(zip(*level)) if f != p
    ]
    return Verdict(not bad, tuple(bad))


def fpcc_check(b: LambdaGraphBisystem) -> bool:
    return b._fpcc.ok


def presented_words(b: LambdaGraphBisystem, side: str, n: int):
    """Length-n label words on consecutive paths anywhere in the truncation."""
    if n < 0:
        raise BisystemError("length must be >= 0")
    if n == 0:
        return ((),)
    if n > b.depth:
        raise BisystemError(f"length {n} exceeds depth {b.depth}")
    if side not in ("minus", "plus"):
        raise BisystemError("side must be 'minus' or 'plus'")
    prepend = side == "minus"

    def walk(*run):
        """The words of the paths up through a run of lower lists, labels
        joined as in ``LambdaGraphBisystem.languages``."""
        frontier = {(i, ()) for i in range(len(run[0]))}
        for lists in run:
            frontier = {
                (j, a + w if prepend else w + a)
                for (i, w) in frontier for (j, a) in lists[i]
            }
        return {w for (_, w) in frontier}

    walk = by_identity(walk)  # once per distinct run of list objects
    lower = b.adjacency[side, "lower"]
    out = set()
    for m in range(b.depth - n + 1):  # every start level
        out |= walk(*lower[m : m + n])
    return tuple(sorted(out))


def transpose(b: LambdaGraphBisystem) -> LambdaGraphBisystem:
    """Reverse every edge and swap the two sides."""

    def reversed_blocks(blocks):
        return tuple(share(blocks, lambda l: tuple(sorted((t, s, a) for (s, t, a) in blocks[l]))))

    return LambdaGraphBisystem(
        b.level_sizes, reversed_blocks(b.plus_edges), reversed_blocks(b.minus_edges),
        b.sigma_plus, b.sigma_minus,
    )


# ---------------------------------------------------------------------------
# import from one-sided leveled systems


@dataclass(frozen=True)
class LambdaGraphSystem:
    """One-sided leveled labeled graph with a level-collapsing map iota."""

    level_sizes: tuple
    edges: tuple  # per block l: tuple[(src in V_l, tgt in V_{l+1}, label str), ...]
    iota: tuple   # per block l: tuple mapping V_{l+1} index -> V_l index
    alphabet: Alphabet

    @property
    def depth(self) -> int:
        return len(self.level_sizes) - 1


def validate_lambda_graph_system(lgs: LambdaGraphSystem):
    """List of defects; empty when the one-sided axioms hold to depth."""
    bad = []
    L = lgs.depth
    if len(lgs.edges) != L or len(lgs.iota) != L:
        return [
            f"{len(lgs.edges)} edge blocks and {len(lgs.iota)} iota blocks "
            f"for {L + 1} levels"
        ]
    broken = set()  # blocks whose iota cannot be read as a map V_{l+1} -> V_l
    for l in range(L):
        m, m1 = lgs.level_sizes[l], lgs.level_sizes[l + 1]
        if len(lgs.iota[l]) != m1:
            bad.append(f"iota block {l} has wrong length")
            broken.add(l)
            continue
        if any(not (0 <= v < m) for v in lgs.iota[l]):
            bad.append(f"iota block {l} leaves the level")
            broken.add(l)
        if set(lgs.iota[l]) != set(range(m)):
            bad.append(f"iota block {l} is not surjective")
        for (s, t, a) in lgs.edges[l]:
            if not (0 <= s < m and 0 <= t < m1):
                bad.append(f"edge {(s, t, a)} out of range at block {l}")
            if (a,) not in lgs.alphabet:
                bad.append(f"label {a} outside the alphabet")
        seen = set()
        for (s, t, a) in lgs.edges[l]:
            if (t, a) in seen:
                bad.append(f"not left-resolving: two {a}-edges into vertex {t+1} at level {l+1}")
            seen.add((t, a))
        outs = {s for (s, _, _) in lgs.edges[l]}
        for i in range(m):
            if i not in outs:
                bad.append(f"vertex {i+1} at level {l} has no successor")
        ins = {t for (_, t, _) in lgs.edges[l]}
        for j in range(m1):
            if j not in ins:
                bad.append(f"vertex {j+1} at level {l+1} has no predecessor")
    # local property: labels into v from iota-collapsed sources match labels
    # into iota(v) level-wise, as multisets; both blocks grouped once, and
    # skipped where either iota block is already reported broken
    for l in range(L - 1):
        if l in broken or l + 1 in broken:
            continue
        into = {}  # (iota(s), t) -> labels of the block-(l+1) edges s -> t
        for (s, t, a) in lgs.edges[l + 1]:
            if s in range(lgs.level_sizes[l + 1]) and t in range(lgs.level_sizes[l + 2]):
                into.setdefault((lgs.iota[l][s], t), []).append(a)
        out = {}  # s -> t -> labels of the block-l edges s -> t
        for (s, t, a) in lgs.edges[l]:
            out.setdefault(s, {}).setdefault(t, []).append(a)
        for u in range(lgs.level_sizes[l]):
            for v in range(lgs.level_sizes[l + 2]):
                upper = sorted(into.get((u, v), ()))
                lower = sorted(out[u].get(lgs.iota[l + 1][v], ())) if u in out else []
                if upper != lower:
                    bad.append(
                        f"one-sided local property fails at (v{u+1}^{l}, v{v+1}^{l+2}): "
                        f"{upper} vs {lower}"
                    )
    return bad


IOTA_SYMBOL = "iota"


def from_lambda_graph_system(lgs: LambdaGraphSystem) -> LambdaGraphBisystem:
    """Two-sided system: plus side is the graph, minus side one iota edge per
    collapse; rejects inputs that fail the one-sided axioms."""
    defects = validate_lambda_graph_system(lgs)
    if defects:
        raise BisystemError("not a lambda-graph system: " + "; ".join(defects[:3]))
    if not lgs.edges:
        raise BisystemError("a lambda-graph system of depth 0 has no edges to import")
    minus = share(lgs.iota, lambda l: tuple(
        (j, i, (IOTA_SYMBOL,)) for j, i in enumerate(lgs.iota[l])
    ))
    plus = share(lgs.edges, lambda l: tuple(sorted((s, t, (a,)) for (s, t, a) in lgs.edges[l])))
    b = LambdaGraphBisystem(
        lgs.level_sizes,
        tuple(minus),
        tuple(plus),
        Alphabet.of(IOTA_SYMBOL),
        Alphabet.from_words((a,) for a in sorted({a for bl in lgs.edges for (_, _, a) in bl})),
    )
    rep = validate(b)
    if not rep.ok:
        raise BisystemError("import produced an invalid bisystem: " + "; ".join(
            c for _, v in rep.axioms for c in v.counterexamples[:2]
        ))
    return b


def lgs_from_graph(graph_edges, n_states: int, depth: int) -> LambdaGraphSystem:
    """Constant-level system of a finite labeled graph, iota the identity.

    ``graph_edges`` are (src, tgt, label) with 0-based states; labels must make
    the graph left-resolving.
    """
    edges = tuple(tuple(sorted(graph_edges)) for _ in range(depth))
    iota = tuple(tuple(range(n_states)) for _ in range(depth))
    labels = sorted({a for (_, _, a) in graph_edges})
    return LambdaGraphSystem(
        tuple([n_states] * (depth + 1)), edges, iota, Alphabet.of(*labels)
    )


def lgs_from_matrix(matrix, depth: int) -> LambdaGraphSystem:
    """Finite-graph system from a nonnegative integer adjacency matrix.

    Entry (i, j) = k spawns k parallel edges with distinct labels, named
    a{i+1}{j+1} (suffixed when k > 1), so the labeling is left-resolving.
    """
    n = len(matrix)
    edges = []
    for i in range(n):
        for j in range(n):
            k = matrix[i][j]
            for r in range(k):
                edges.append((i, j, f"a{i+1}{j+1}" + (f"_{r+1}" if k > 1 else "")))
    return lgs_from_graph(tuple(edges), n, depth)


# ---------------------------------------------------------------------------
# finite-depth shift-distinctness witness search


@dataclass(frozen=True)
class SigmaIResult:
    """Three-valued outcome of the finite-depth distinctness search."""

    status: str  # "witness" | "absent" | "inconclusive"
    level: int
    bound: int
    assignments: tuple = ()  # ((vertex, follower word, alpha word, tail word), ...)

    @property
    def found(self) -> bool:
        return self.status == "witness"


def sigma_condition_I_witness(b: LambdaGraphBisystem, level: int, bound: int,
                              max_candidates: int = 4096) -> SigmaIResult:
    """Search for cylinder refinements certifying shift-distinctness.

    For each (vertex at the level, follower word) the search picks a window
    of horizontal width 2*bound: a forward symbol word, the added bottom
    labels, and the column of vertices after each step.  Windows are simulated
    column by column through the plus edges; two window points are certified
    distinct under n shifts when their visible symbol words or their columns
    (vertices or labels) disagree.  Outcomes are three-valued: a witness,
    absent at this depth (exhaustive failure over the window class), or
    inconclusive when the level is out of range, the candidate cap cut the
    enumeration short, or the backtracking compared more than max_candidates
    pairs of windows per item in all.
    """
    if not (1 <= bound <= level):
        raise BisystemError("need 1 <= bound <= level")
    if level > b.depth:
        return SigmaIResult("inconclusive", level, bound)
    width = 2 * bound
    lam = b.sigma_minus.word_length
    F = follower_sets(_cut(b, level))
    items = [(i, xi) for i in range(b.level_sizes[level]) for xi in F[level][i]]
    upper = b.adjacency["minus", "upper"]
    plus_lower = b.adjacency["plus", "lower"]

    @cache
    def column(top, labels):
        """Downward minus path from a top vertex with the given labels, or None."""
        path = [top]
        for lvl, a in zip(range(level - 1, -1, -1), labels):
            step = next((t for (t, lab) in upper[lvl][path[-1]] if lab == a), None)
            if step is None:
                return None
            path.append(step)
        return tuple(path)

    def steps(col):
        """The (plus symbol, bottom label, column) continuations of a column,
        in (plus symbol, bottom label, top vertex) order; the labels shift
        down one per step."""
        path, labels = col
        for alpha in b.sigma_plus.symbols:
            for bot in b.sigma_minus.symbols:
                labs = labels[1:] + (bot,)
                for top in range(b.level_sizes[level]):
                    new = column(top, labs)
                    # plus edges: the column's level j -> the new column's level j+1
                    if new is not None and all(
                        (new[level - j - 1], alpha) in plus_lower[j][path[level - j]]
                        for j in range(level)
                    ):
                        yield alpha, bot, (new, labs)

    def keyed(col, walk):
        """The window of a walk from a column: its plus symbols, bottom labels
        and columns, and for n = 1..bound its symbols and columns shifted by n
        and its heads of the same lengths: shift^n of window x differs from
        window y when x's n-th shift differs from y's n-th head."""
        alphas, bots, cols = zip(*walk)
        cols = (col,) + cols
        shifts = range(1, bound + 1)
        return (alphas, bots, cols, [(alphas[n:], cols[n:]) for n in shifts],
                [(alphas[: width - n], cols[: width - n + 1]) for n in shifts])

    cap = max(max_candidates, 1)  # the first window is always kept
    cands, capped = [], False
    for i, xi in items:
        labels = tuple(xi[p : p + lam] for p in range(0, len(xi), lam))
        col = (column(i, labels), labels)
        walks = depth_first(width, lambda _, walk: steps(walk[-1][2] if walk else col))
        cs = [keyed(col, walk) for walk in islice(walks, cap)]
        capped = capped or len(cs) == cap
        if not cs:
            return SigmaIResult("inconclusive" if capped else "absent", level, bound)
        cands.append(cs)

    budget = max_candidates * len(items)  # window comparisons the search may make

    def clear(k, chosen):
        """Item k's windows that clash with no chosen window, each compared
        with every chosen window and then with itself; a budget spent below
        0 ends every search level, and so the search."""
        nonlocal budget
        for win in cands[k]:
            for other in (*chosen, win):
                budget -= 1
                if budget < 0:
                    return
                if any(map(eq, win[3], other[4])) or any(map(eq, other[3], win[4])):
                    break
            else:
                yield win

    chosen = next(depth_first(len(items), clear), None)
    if chosen is None:
        return SigmaIResult("inconclusive" if capped or budget < 0 else "absent", level, bound)
    rows = tuple((b.vertex_name(level, i), xi, win[0], win[1])
                 for (i, xi), win in zip(items, chosen))
    return SigmaIResult("witness", level, bound, rows)
