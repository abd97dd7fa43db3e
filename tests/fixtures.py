"""Shared fixture builders: the worked examples everything is tested against."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from itertools import product as cartesian

from bisys.core import Alphabet, FormalSum, SymbolicMatrix
from bisys.bisystem import LambdaGraphBisystem, lgs_from_matrix
from bisys.canonical import canonical_smb
from bisys.equivalence import bipartite_split, detect_bipartite
from bisys.smb import from_smb
from bisys.subshift import LabeledGraph, SftMatrix, SubshiftPresentation


def build_bisystem(level_sizes, minus_1b, plus_1b, sigma_minus, sigma_plus):
    """Assemble from 1-based (src, tgt, label) triples as printed in figures."""
    minus = tuple(
        tuple(sorted((s - 1, t - 1, (a,)) for (s, t, a) in blk)) for blk in minus_1b
    )
    plus = tuple(
        tuple(sorted((s - 1, t - 1, (a,)) for (s, t, a) in blk)) for blk in plus_1b
    )
    return LambdaGraphBisystem(
        tuple(level_sizes), minus, plus,
        Alphabet.of(*sigma_minus), Alphabet.of(*sigma_plus),
    )


def golden_mean_pres() -> SubshiftPresentation:
    return SubshiftPresentation.from_sft(SftMatrix(((1, 1), (1, 0)), ("1", "2")))


def even_shift_pres() -> SubshiftPresentation:
    g = LabeledGraph(("1", "2"), (("1", "1", "a"), ("1", "2", "b"), ("2", "1", "b")))
    return SubshiftPresentation.from_graph(g)


def full_shift_pres(n: int) -> SubshiftPresentation:
    symbols = tuple(chr(ord("a") + i) for i in range(n))
    return SubshiftPresentation.from_forbidden(symbols, ())


def alternating_pres() -> SubshiftPresentation:
    g = LabeledGraph(("1", "2"), (("1", "2", "a"), ("2", "1", "b")))
    return SubshiftPresentation.from_graph(g)


def edge_shift_pres() -> SubshiftPresentation:
    """Golden-mean transition graph with distinct edge symbols."""
    g = LabeledGraph(("1", "2"), (("1", "1", "a"), ("1", "2", "b"), ("2", "1", "c")))
    return SubshiftPresentation.from_graph(g)


def two_power_split_bisystem() -> LambdaGraphBisystem:
    """A bisystem over product alphabets (every label has two letters): the
    C-D half of the bipartite split of the two-power golden-mean shift."""
    edges = []
    for (s, t, a) in (("1", "1", "1"), ("1", "2", "2"), ("2", "1", "1")):
        edges.append((s + "e", t + "o", a + "c"))
        edges.append((s + "o", t + "e", a + "d"))
    g = LabeledGraph(("1e", "1o", "2e", "2o"), tuple(edges))
    smb = canonical_smb(SubshiftPresentation.from_graph(g), 6)
    s_cd, _, _ = bipartite_split(smb, detect_bipartite(smb))
    return from_smb(s_cd)


def full_shift_bisystem(n: int, depth: int) -> LambdaGraphBisystem:
    """Single vertex per level, n upward and n downward loops (worked example)."""
    names = tuple(chr(ord("a") + i) for i in range(n))
    minus = [[(1, 1, s) for s in names]] * depth
    plus = [[(1, 1, s) for s in names]] * depth
    return build_bisystem([1] * (depth + 1), minus, plus, names, names)


def paper_golden_mean_bisystem(depth: int = 5,
                               sm=("am", "bm"), sp=("ap", "bp")) -> LambdaGraphBisystem:
    """The printed golden-mean example, with its two-sided alphabets."""
    a_m, b_m = sm
    a_p, b_p = sp
    minus = [
        [(1, 1, a_m), (2, 1, a_m), (1, 1, b_m)],
        [(1, 1, a_m), (3, 1, a_m), (2, 2, a_m), (4, 2, a_m), (1, 2, b_m), (2, 2, b_m)],
    ] + [
        [(1, 1, a_m), (3, 1, a_m), (2, 2, a_m), (4, 2, a_m), (1, 3, b_m), (2, 4, b_m)]
    ] * (depth - 2)
    plus = [
        [(1, 1, a_p), (1, 2, a_p), (1, 1, b_p)],
        [(1, 1, a_p), (1, 2, a_p), (2, 3, a_p), (2, 4, a_p), (2, 1, b_p), (2, 3, b_p)],
    ] + [
        [(1, 1, a_p), (1, 2, a_p), (3, 3, a_p), (3, 4, a_p), (2, 1, b_p), (4, 3, b_p)]
    ] * (depth - 2)
    sizes = [1, 2] + [4] * (depth - 1)
    return build_bisystem(sizes, minus, plus, set(sm), set(sp))


def paper_even_shift_bisystem(depth: int = 5) -> LambdaGraphBisystem:
    """The printed even-shift example, edge lists exactly as published.

    Kept verbatim as a record of the figure, not as a comparison target: it
    passes axioms (i)-(iv) but fails the local property (v) at two corners
    (pinned in test_bisystem), so it is not a bisystem.  The even-shift
    criterion compares against ``even_window_bisystem`` instead.
    """
    minus = [
        [(1, 1, "am"), (2, 1, "bm")],
        [(1, 1, "am"), (3, 1, "bm"), (2, 2, "bm")],
        [(1, 1, "am"), (2, 2, "am"), (3, 1, "bm"), (4, 2, "bm"), (1, 3, "bm")],
    ] + [
        [(1, 1, "am"), (2, 2, "am"), (3, 1, "bm"), (4, 2, "bm"), (1, 3, "bm"), (2, 4, "bm")]
    ] * (depth - 3)
    plus = [
        [(1, 1, "ap"), (1, 2, "bp")],
        [(1, 1, "ap"), (1, 2, "bp"), (2, 3, "bp")],
        [(1, 1, "ap"), (3, 3, "ap"), (1, 2, "bp"), (2, 1, "bp"), (3, 4, "bp")],
    ] + [
        [(1, 1, "ap"), (3, 3, "ap"), (1, 2, "bp"), (2, 1, "bp"), (3, 4, "bp"), (4, 3, "bp")]
    ] * (depth - 3)
    sizes = [1, 2, 3] + [4] * (depth - 2)
    return build_bisystem(sizes, minus, plus, ("am", "bm"), ("ap", "bp"))


def symbolic_2x2(names=("a", "b", "c", "d")) -> SymbolicMatrix:
    alph = Alphabet.of(*names)
    return SymbolicMatrix.build(
        2, 2, alph, lambda i, j: FormalSum.of(names[2 * i + j])
    )


def golden_mean_symbolic() -> SymbolicMatrix:
    """Edge-symbol matrix of the golden-mean graph (one zero cell)."""
    alph = Alphabet.of("a", "b", "c")
    cells = {(0, 0): "a", (0, 1): "b", (1, 0): "c"}
    return SymbolicMatrix.build(
        2, 2, alph,
        lambda i, j: FormalSum.of(cells[(i, j)]) if (i, j) in cells else FormalSum.zero(),
    )


def golden_mean_lgs(depth: int = 6):
    return lgs_from_matrix([[1, 1], [1, 0]], depth)


def full_n_lgs(n: int, depth: int = 6):
    return lgs_from_matrix([[n]], depth)


def random_irreducible_01(rng, n: int = 3):
    """Seeded irreducible non-permutation 0/1 matrix with unstranded states."""
    while True:
        a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if any(sum(row) == 0 for row in a):
            continue
        if any(sum(a[i][j] for i in range(n)) == 0 for j in range(n)):
            continue
        if all(sum(row) == 1 for row in a):
            continue  # permutation matrices are degenerate for this purpose
        try:
            g = LabeledGraph(
                tuple(str(i + 1) for i in range(n)),
                tuple(
                    (str(i + 1), str(j + 1), f"e{i+1}{j+1}")
                    for i in range(n)
                    for j in range(n)
                    if a[i][j]
                ),
            )
        except Exception:
            continue
        if g.is_irreducible():
            return a


def random_sofic_pres(rng, n: int) -> SubshiftPresentation:
    """Seeded irreducible n-state sofic presentation over the labels a, b.

    A cycle through every state in random order keeps the graph irreducible
    and unstranded; every other (source, target, label) edge is drawn with
    probability 0.12.
    """
    states = tuple(str(i + 1) for i in range(n))
    order = list(states)
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n], rng.choice("ab")) for i in range(n)}
    for s in states:
        for t in states:
            for a in "ab":
                if rng.random() < 0.12:
                    edges.add((s, t, a))
    return SubshiftPresentation.from_graph(LabeledGraph(states, tuple(sorted(edges))))


def random_sparse_sofic_pres(rng, n: int) -> SubshiftPresentation:
    """Seeded irreducible n-state sofic presentation shaped like the wide
    benchmark graphs: a cycle through every state in random order, then a
    second out-edge with a random target and label at each state with
    probability one half, redrawn until both labels a and b occur."""
    states = tuple(str(i + 1) for i in range(n))
    while True:
        order = rng.sample(states, n)
        edges = {(order[i], order[(i + 1) % n], rng.choice("ab")) for i in range(n)}
        for s in states:
            if rng.random() < 0.5:
                edges.add((s, rng.choice(states), rng.choice("ab")))
        if {a for (_, _, a) in edges} == {"a", "b"}:
            return SubshiftPresentation.from_graph(LabeledGraph(states, tuple(sorted(edges))))


def brute_language(allowed, length, window_ok):
    """All words over ``allowed`` passing a window predicate (filter oracle)."""
    return tuple(
        sorted(w for w in cartesian(allowed, repeat=length) if window_ok(w))
    )


def even_window_ok(w) -> bool:
    """Interior runs of b between two a's must have even length."""
    s = "".join(w)
    parts = s.split("a")
    return all(len(p) % 2 == 0 for p in parts[1:-1])


def even_window_bisystem(depth: int = 5) -> LambdaGraphBisystem:
    """Canonical even-shift bisystem, built from ``even_window_ok`` alone.

    A level-l vertex is a distinct nonempty set of length-l words m with
    ``even_window_ok(u + m + v)`` over admissible contexts u, v of length 4,
    ordered by (size, words).  A minus edge appends a letter to the left
    context, a plus edge prepends one to the right context.  Every context
    pair of a class must step to the same set, and a nonempty set must
    already be a vertex one level down (filter oracle).

    Length-4 contexts suffice: a finite context acts on fill-in words only
    through whether it holds an ``a`` and the parity of the b-run at its
    inner end, and length 4 already realizes all three kinds (no ``a``; an
    ``a`` then an even run; an ``a`` then an odd run) on either side.
    Contexts of length 6 give the identical system.
    """
    allowed = "ab"
    contexts = [c for c in cartesian(allowed, repeat=4) if even_window_ok(c)]

    def fill_in(u, v, l):
        return tuple(
            sorted(m for m in cartesian(allowed, repeat=l) if even_window_ok(u + m + v))
        )

    tables = []  # per level: fill-in word set -> realizing context pairs
    for l in range(depth + 1):
        table: dict = {}
        for u in contexts:
            for v in contexts:
                words = fill_in(u, v, l)
                if words:
                    table.setdefault(words, []).append((u, v))
        tables.append(table)
    classes = [sorted(t, key=lambda ws: (len(ws), ws)) for t in tables]
    index = [{ws: i for i, ws in enumerate(c)} for c in classes]

    def step(pairs, l, extend):
        results = {fill_in(*extend(u, v), l) for (u, v) in pairs}
        assert len(results) == 1, f"edge differs across the pairs of a class: {results}"
        words = results.pop()
        if not words:
            return None
        assert words in index[l], f"step leaves the level-{l} vertices: {words}"
        return index[l][words]

    minus, plus = [], []
    for l in range(depth):
        mblock, pblock = [], []
        for j, words in enumerate(classes[l + 1]):
            pairs = tables[l + 1][words]
            for a in allowed:
                t = step(pairs, l, lambda u, v: (u + (a,), v))
                if t is not None:
                    mblock.append((j, t, (a,)))
                s = step(pairs, l, lambda u, v: (u, (a,) + v))
                if s is not None:
                    pblock.append((s, j, (a,)))
        minus.append(tuple(sorted(mblock)))
        plus.append(tuple(sorted(pblock)))
    alphabet = Alphabet.of(*allowed)
    return LambdaGraphBisystem(
        tuple(len(c) for c in classes), tuple(minus), tuple(plus), alphabet, alphabet
    )


def golden_window_ok(w) -> bool:
    return "22" not in "".join(w)


def transition_tensors(b: LambdaGraphBisystem):
    """(minus, plus): per level block, the 0/1 tensor of b's edges on that
    side as a frozenset of (i at level l, label, j at level l+1) triples."""
    minus = tuple(frozenset((t, tuple(a), s) for (s, t, a) in block) for block in b.minus_edges)
    plus = tuple(frozenset((s, tuple(a), t) for (s, t, a) in block) for block in b.plus_edges)
    return minus, plus


# -- dense integer matrices, for the references the sparse paths are checked against


def dense(rows, width):
    """The list-of-lists matrix whose rows are the {column: value} dicts ``rows``."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def mat_mul(a, b):
    """Dense integer matrix product."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    assert not a or len(a[0]) == k, "inner dimensions disagree"
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            v = a[i][t]
            if v:
                bt, oi = b[t], out[i]
                for j in range(m):
                    oi[j] += v * bt[j]
    return out


# -- searches that must not take a stack frame per item


@contextmanager
def shallow_stack(frames: int = 150):
    """Lower the recursion limit to the caller's stack depth plus ``frames``,
    so a search that recurses once per item raises RecursionError."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)
