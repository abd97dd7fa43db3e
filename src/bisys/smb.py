"""Matrix presentations of bisystems and their validation/isomorphism calculus.

The block M^-_{l,l+1} is m(l) x m(l+1) but encodes edges from level l+1 down
to level l: entry (i, j) sums the labels of minus edges into v_i^l from
v_j^{l+1}.  That orientation is what makes the commutation identity of the
two one-step products literally well-typed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .core import (
    Alphabet,
    BisysError,
    FormalSum,
    Specification,
    SymbolicMatrix,
    by_identity,
    depth_first,
    find_specification_multi,
    repeat_fault,
    share,
    word_str,
)
from .bisystem import LambdaGraphBisystem, ValidationReport, Verdict, _repeats, corner_faults


class SmbError(BisysError):
    pass


@dataclass(frozen=True)
class SymbolicMatrixBisystem:
    minus: tuple  # per block l: SymbolicMatrix m(l) x m(l+1) over sigma_minus
    plus: tuple
    sigma_minus: Alphabet
    sigma_plus: Alphabet
    repeat_from: int | None = None  # block index whose matrices repeat from there on

    def __post_init__(self):
        if len(self.minus) != len(self.plus) or not self.minus:
            raise SmbError("need matching nonempty block sequences")
        for l, (mm, mp) in enumerate(zip(self.minus, self.plus)):
            if (mm.rows, mm.cols) != (mp.rows, mp.cols):
                raise SmbError(f"block {l}: minus and plus shapes differ")
            if l and self.minus[l - 1].cols != mm.rows:
                raise SmbError(f"block {l}: shape chain broken")
            if mm.alphabet != self.sigma_minus or mp.alphabet != self.sigma_plus:
                raise SmbError(f"block {l}: matrix alphabet differs from its side's")
        fault = repeat_fault(self.repeat_from, self.minus, self.plus)
        if fault:
            raise SmbError(fault)

    @property
    def depth(self) -> int:
        return len(self.minus)

    @property
    def level_sizes(self) -> tuple:
        return tuple([self.minus[0].rows] + [m.cols for m in self.minus])

    @property
    def is_standard(self) -> bool:
        return self.minus[0].rows == 1

    @cached_property
    def _expansion(self) -> LambdaGraphBisystem:
        """``_expand(self)``, made on first use."""
        return _expand(self)

    @cached_property
    def _report(self) -> ValidationReport:
        """``_matrix_report`` of the expansion, made on first use."""
        return _matrix_report(self._expansion)


def validate_smb(s: SymbolicMatrixBisystem) -> ValidationReport:
    """Shape, support, per-cell and per-column symbol discipline, commutation."""
    return s._report


def _expand(s: SymbolicMatrixBisystem) -> LambdaGraphBisystem:
    """The bisystem whose edges are the matrix terms, a term of multiplicity c
    making c edges.  Blocks are sorted, so each adjacency list of the result
    is sorted by (other end, label), and equal matrices give one edge block."""

    def edges(mats, minus):
        def block(l):
            out = []
            for i, row in enumerate(mats[l].entries):
                for j, cell in enumerate(row):
                    for w, c in cell._terms.items():
                        out.extend([(j, i, w) if minus else (i, j, w)] * c)
            return tuple(sorted(out))

        return tuple(share(mats, block))

    return LambdaGraphBisystem(
        s.level_sizes, edges(s.minus, True), edges(s.plus, False), s.sigma_minus, s.sigma_plus
    )


def _matrix_report(b: LambdaGraphBisystem) -> ValidationReport:
    """The matrix-side verdicts of an expansion, read off its edge index.

    In block l of either side, row i is the lower list of vertex i at level l
    and column j the upper list of vertex j at level l+1.  Axiom (iv) reports
    in the order of the upper lists, which ``_expand`` sorts by row and then
    by symbol.  Each pair of row and column list objects is scanned once,
    and its faults are named at every block that holds it.
    """

    def scan(rows, cols):
        """Zero rows, zero columns, cells with a repeated symbol, and a symbol
        in two rows of a column."""
        twice = [(i, j) for i, edges in enumerate(rows)
                 for j in sorted({j for (j, _), c in Counter(edges).items() if c > 1})]
        return ([i for i, e in enumerate(rows) if not e], [j for j, e in enumerate(cols) if not e],
                twice, [r for r in _repeats(cols) if r[2] != r[3]])

    scan = by_identity(scan)
    bad2, bad3, bad4 = [], [], []
    for l in range(b.depth):
        for side in ("minus", "plus"):
            zero_rows, zero_cols, twice, clashes = scan(
                b.adjacency[side, "lower"][l], b.adjacency[side, "upper"][l]
            )
            bad2 += [f"block {l} {side}: zero row {i + 1}" for i in zero_rows]
            bad2 += [f"block {l} {side}: zero column {j + 1}" for j in zero_cols]
            bad3 += [f"block {l} {side} cell ({i+1},{j+1}): repeated symbol" for i, j in twice]
            bad4 += [f"block {l} {side} column {j+1}: symbol {word_str(w)} in rows {i0+1} and {i+1}"
                     for j, w, i0, i in clashes]

    # cell (u, v) of M-_l M+_{l+1} sums the minus-then-plus corners, and of
    # kappa(M+_l M-_{l+1}) the plus-then-minus ones, each read minus label first
    bad5 = [
        f"commutation fails at blocks {l},{l+1} cell ({u+1},{v+1}): "
        f"{FormalSum(x + y for x, y in d)!r} vs {FormalSum(x + y for x, y in w)!r}"
        for l, u, v, d, w in corner_faults(b)
    ]

    verdicts = [Verdict(not bad, tuple(bad)) for bad in ([], bad2, bad3, bad4, bad5)]
    return ValidationReport(b.depth, tuple(zip(("i", "ii", "iii", "iv", "v"), verdicts)))


def to_smb(b: LambdaGraphBisystem, unchecked: bool = False) -> SymbolicMatrixBisystem:
    """Matrix presentation of a validated bisystem.

    ``unchecked`` skips the validation gate so that defective inputs can be
    presented and judged on the matrix side instead.  Blocks are made through
    ``share``, so a build whose blocks repeat costs the verifiers and the
    writer one block per distinct block.
    """
    if not unchecked and not all(v.ok for _, v in b._axioms):
        raise SmbError("bisystem fails validation; refusing to present")
    zero = FormalSum()
    blocks = {}
    for side, alphabet in (("minus", b.sigma_minus), ("plus", b.sigma_plus)):
        lower = b.adjacency[side, "lower"]

        def matrix(l):
            cols = b.level_sizes[l + 1]
            grid = []
            for edges in lower[l]:
                cells: dict = {}
                for (j, a) in edges:
                    cells.setdefault(j, []).append(a)
                grid.append(tuple(FormalSum(cells[j]) if j in cells else zero for j in range(cols)))
            return SymbolicMatrix(len(lower[l]), cols, tuple(grid), alphabet)

        blocks[side] = tuple(share(list(zip(lower, b.level_sizes[1:])), matrix))
    return SymbolicMatrixBisystem(blocks["minus"], blocks["plus"], b.sigma_minus, b.sigma_plus)


def from_smb(s: SymbolicMatrixBisystem) -> LambdaGraphBisystem:
    """Edge lists from a validated matrix presentation (inverse of to_smb)."""
    if not s._report.ok:
        raise SmbError("matrix bisystem fails validation; refusing to expand")
    return s._expansion


def sft_smb(a: SymbolicMatrix, identify: bool = False, depth: int = 3) -> SymbolicMatrixBisystem:
    """Standard matrix bisystem of a square symbolic matrix.

    Level 0 is the row vector of cell symbols restricted to the nonzero cells;
    from level 2 on the blocks are the constant square matrices built from the
    signed copies of the cell symbols.  With ``identify`` the two sides share
    one unsigned alphabet.
    """
    n = a.rows
    if a.rows != a.cols:
        raise SmbError("matrix must be square")
    cells: dict = {}
    for i in range(n):
        for j in range(n):
            e = a.entry(i, j)
            if e.is_zero:
                continue
            if e.term_count != 1:
                raise SmbError("each nonzero cell must hold exactly one symbol")
            (w, _), = e.items()
            if w in cells.values():
                raise SmbError("cell symbols must be pairwise distinct")
            cells[(i, j)] = w
    if depth < 2:
        raise SmbError("depth must be >= 2")

    live = sorted(cells)  # level-1 index pairs, row-major
    full = [(i, p) for i in range(n) for p in range(n)]  # levels >= 2
    sides = []
    for sign in "-+":

        def tagged(w):
            return w if identify else (w[0] + sign,) + w[1:]

        def cell(r, c):
            # minus: entry ((i,p),(j,q)) = copy of a(j, i) when p == q;
            # plus: entry ((i,p),(j,q)) = copy of a(p, q) when i == j
            (i, p), (j, q) = r, c
            at, on = ((j, i), p == q) if sign == "-" else ((p, q), i == j)
            return FormalSum.of(tagged(cells[at])) if on and at in cells else FormalSum.zero()

        alphabet = Alphabet.from_words(sorted(tagged(w) for w in cells.values()))
        top = SymbolicMatrix.build(1, len(live), alphabet,
                                   lambda _, j: FormalSum.of(tagged(cells[live[j]])))
        second = SymbolicMatrix.build(len(live), n * n, alphabet,
                                      lambda r, c: cell(live[r], full[c]))
        tail = SymbolicMatrix.build(n * n, n * n, alphabet, lambda r, c: cell(full[r], full[c]))
        sides.append(((top, second) + (tail,) * (depth - 2), alphabet))
    (minus, sigma_minus), (plus, sigma_plus) = sides
    return SymbolicMatrixBisystem(
        minus, plus, sigma_minus, sigma_plus, repeat_from=2 if depth > 2 else None
    )


@dataclass(frozen=True)
class SmbIsomorphism:
    """Level-wise vertex permutations plus one symbol bijection per side.

    ``perms[l][i]`` is the s1-vertex presented at slot i of s2's level l.
    """

    perms: tuple
    spec_minus: Specification
    spec_plus: Specification


def smb_isomorphic(s1: SymbolicMatrixBisystem, s2: SymbolicMatrixBisystem):
    """Witnessing permutations and specifications, or None.

    Places s1's vertices into s2's slots level by level and slot by slot,
    trying candidates in ascending order, and keeps a candidate only if its
    cells to the placed level above have the term counts of their images on
    both sides.  The symbol bijections are inferred once every level is
    placed, so the witness is the first in lexicographic order of the perms.
    """
    sizes = s1.level_sizes
    sides = [(getattr(s1, side), getattr(s2, side)) for side in ("minus", "plus")]
    joint = all(s.sigma_minus.symbols == s.sigma_plus.symbols for s in (s1, s2))
    perms: list = [[] for _ in sizes]
    counts = by_identity(lambda m: [[cell.term_count for cell in row] for row in m.entries])

    def profile(m):
        # sorted term counts of each row and each column; permuting keeps them
        grid = counts(m)
        return [sorted(sorted(line) for line in lines) for lines in (grid, zip(*grid))]

    if sizes != s2.level_sizes or any(
        profile(a[l]) != profile(b[l]) for a, b in sides for l in range(s1.depth)
    ):
        return None

    def fits(l, pos, cand):
        return not l or all(
            ga[row][cand] == gb[r][pos]
            for ga, gb in [(counts(a[l - 1]), counts(b[l - 1])) for a, b in sides]
            for r, row in enumerate(perms[l - 1])
        )

    def witness():
        minus, plus = (
            [(a[l].permute_rows(perms[l]).permute_cols(perms[l + 1]), b[l])
             for l in range(s1.depth)]
            for a, b in sides
        )
        # with a common alphabet one symbol bijection must serve both sides
        spec_m = find_specification_multi(minus + plus if joint else minus)
        spec_p = spec_m if joint or spec_m is None else find_specification_multi(plus)
        if spec_p is None:
            return None
        return SmbIsomorphism(tuple(map(tuple, perms)), spec_m, spec_p)

    slots = [l for l, size in enumerate(sizes) for _ in range(size)]

    def places(k, _):
        l, perm = slots[k], perms[slots[k]]
        for c in range(sizes[l]):
            if c not in perm and fits(l, len(perm), c):
                perm.append(c)
                yield c
                perm.pop()

    for _ in depth_first(len(slots), places):  # perms hold the placement
        found = witness()
        if found is not None:
            return found
    return None
