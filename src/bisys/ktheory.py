"""Exact K-group computation via integer level ladders and Smith normal form.

The basis at level l is the set of (vertex, follower word) pairs; the
refinement map iota and the symbol-summed transition map rho both land in the
level-(l+1) coordinates, and the two group towers are the cokernels and
kernels of their difference, carried along by iota.  All arithmetic is exact
over Python integers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from heapq import heapify, heappop, heappush

from .bisystem import LambdaGraphBisystem, _cut, _word_sets


class KtheoryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices as lists of lists (the ladder's are lists of row dicts)


def _identity(n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = 1
    return m


def smith_normal_form(a):
    """(U, D, V) with U a V = D, U and V unimodular, D a divisibility chain.

    Pivots are chosen by least absolute value to control entry growth; the
    whole computation stays in exact integers.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # least-absolute-value pivot in the trailing block; the first unit
        # found is that pivot, so the scan stops there
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        swap_rows(t, pi)
        swap_cols(t, pj)
        # clear the pivot row and column
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                q = d[i][t] // d[t][t]
                add_row(t, i, -q)
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if d[t][j]:
                q = d[t][j] // d[t][t]
                add_col(t, j, -q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders left; re-pick a smaller pivot
        # enforce divisibility of the remaining block by the pivot; a unit
        # divides everything
        if best > 1:
            p = d[t][t]
            offender = next(
                (i for i in range(t + 1, rows) if any(x % p for x in d[i][t + 1 :])), None
            )
            if offender is not None:
                add_row(offender, t, 1)
                continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v


@dataclass(frozen=True)
class FgAbelianGroup:
    """Canonical form: free rank plus invariant factors d1 | d2 | ... (> 1)."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for i, x in enumerate(self.torsion):
            if x <= 1:
                raise KtheoryError("invariant factors must exceed 1")
            if i and self.torsion[i] % self.torsion[i - 1]:
                raise KtheoryError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# level ladders


def _subtract(row, other, c=1):
    """row -= c * other, in place, for rows as {column: value} dicts without zeros."""
    for j, x in other.items():
        y = row.get(j, 0) - c * x
        if y:
            row[j] = y
        else:
            del row[j]


def _product(a, b):
    """The matrix product a b, both given by their rows as {column: value}
    dicts; for the ladder's matrices, whose entries are positive, so no sum
    cancels to a stored zero."""
    out = []
    for row in a:
        acc = {}
        for t, x in row.items():
            for j, y in b[t].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append(acc)
    return out


@dataclass(frozen=True)
class LevelLadder:
    side: str
    bases: tuple  # per level: tuple of (vertex index, word)
    iota: tuple   # per block l: d(l+1) rows, each a {column: value} dict over d(l) columns
    rho: tuple    # per block l: the same shape as iota

    @property
    def depth(self) -> int:
        return len(self.bases) - 1

    def theta(self, l: int):
        """The rows of iota_l - rho_l, in the same form."""
        out = []
        for irow, rrow in zip(self.iota[l], self.rho[l]):
            row = dict(irow)
            _subtract(row, rrow)
            out.append(row)
        return out


def build_ladder(b: LambdaGraphBisystem, side: str = "minus") -> LevelLadder:
    """Refinement and transition matrices on the (vertex, word) bases.

    Minus side: words are follower words, refined by prepending a minus label
    and transported by appending one, weighted by the number of plus labels
    between the vertices.  Plus side symmetric with the roles swapped: words
    are predecessor words, plus labels join them at the other end.  Each
    matrix is a list of rows, each row a {column: value} dict of its nonzero
    entries.
    """
    if side not in ("minus", "plus"):
        raise KtheoryError("side must be 'minus' or 'plus'")
    minus = side == "minus"
    words = _word_sets(b, side)
    own = b.adjacency[side, "lower"]
    across = b.adjacency["plus" if minus else "minus", "lower"]
    symbols = (b.sigma_minus if minus else b.sigma_plus).symbols
    bases = tuple(tuple((i, w) for i, ws in enumerate(level) for w in ws) for level in words)
    pos = [{key: idx for idx, key in enumerate(level)} for level in bases]

    iota_mats = []
    rho_mats = []
    for l in range(b.depth):
        up = pos[l + 1]
        iota_l = [{} for _ in bases[l + 1]]
        rho_l = [{} for _ in bases[l + 1]]
        # a vertex's edges are read once for all its words, a repeated edge
        # counted once; within one column every (vertex, word) key below is
        # distinct, so each cell is written once
        col = 0
        for i, ws in enumerate(words[l]):
            edges = set(own[l][i])
            counts = Counter(j for (j, _) in set(across[l][i])).items()
            for w in ws:
                for (j, a) in edges:
                    iota_l[up[(j, a + w if minus else w + a)]][col] = 1
                for j, count in counts:
                    for a in symbols:
                        row = up.get((j, w + a if minus else a + w))
                        if row is not None:
                            rho_l[row][col] = count
                col += 1
        iota_mats.append(iota_l)
        rho_mats.append(rho_l)
    return LevelLadder(side, bases, tuple(iota_mats), tuple(rho_mats))


def ladder_dimensions(b: LambdaGraphBisystem, side: str = "minus") -> list:
    """The dimension of each level of ``build_ladder(b, side)``: the word
    counts of the side's nodes in ``b.languages``; no word is listed."""
    dag, nodes = b.languages
    return [sum(dag.sizes[n] for n in level) for level in nodes[side]]


# ---------------------------------------------------------------------------
# tower computation


@dataclass(frozen=True)
class KResult:
    side: str
    levels: tuple  # per level l: (K0 approximant, K1 approximant)
    stabilized: bool
    stabilization_level: int | None
    intertwining_ok: bool
    connecting_iso: tuple  # per gap: (k0 map is iso, k1 map is iso)

    @property
    def k0(self) -> FgAbelianGroup:
        return self.levels[-1][0]

    @property
    def k1(self) -> FgAbelianGroup:
        return self.levels[-1][1]

    def lines(self):
        out = []
        for l, (g0, g1) in enumerate(self.levels):
            out.append(f"level {l}: K0 ~ {g0}, K1 ~ {g1}")
        if self.stabilized:
            out.append(f"stabilized at level <= {self.stabilization_level}")
        else:
            out.append("not stabilized within the computed depth")
        return out


class _Factored:
    """What the tower reads from one factorization U theta V = D of a level.

    ``coker`` is coker(theta) in canonical form and ``nullity`` the rank of
    ker(theta).  U is not kept.  ``kernel`` is a basis of ker(theta), built
    on first read from the eliminated rows and the V of the residual block's
    Smith normal form (the identity for a zero block), since most callers
    read only ``coker`` and ``nullity``.
    """

    def __init__(self, coker, nullity, rows, pivots, rest, block):
        self.coker = coker
        self.nullity = nullity
        self._rows = rows
        self._pivots = pivots
        self._rest = rest
        self._block = block  # (rank, V) of the residual block, V None for the identity

    @cached_property
    def kernel(self):
        rest, pivots, rows = self._rest, self._pivots, self._rows
        rank, v = self._block
        out = []
        for k in range(rank, len(rest)):
            x = [0] * (len(rest) + len(pivots))
            for m, j in enumerate(rest):
                x[j] = int(m == k) if v is None else v[m][k]
            for p, q, s in pivots:
                x[q] = -s * sum(a * x[j] for j, a in rows[p].items() if j != q)
            out.append(x)
        return out


def _factor(theta, cols) -> _Factored:
    """Sparse unit-pivot elimination of theta, then a Smith normal form of the rest.

    theta is given by its rows, {column: value} dicts over ``cols`` columns,
    and is not changed.  The rows are copied and indexed by column.  While an
    unpivoted row and an unpivoted column meet in a +-1, the one of least
    Markowitz cost (row nnz - 1) * (column nnz - 1), ties to the least (row,
    column), is the next pivot, and its column is cleared from every other
    row, earlier pivot rows included (Gauss-Jordan).

    The pivots come from a heap that holds, for each unpivoted row with a
    +-1, a key no greater than its least (cost, row, column).  A pivot
    recomputes the keys of the unpivoted rows it changed and lowers the keys
    of the rows with a +-1 in a column that lost an entry; a column that
    gained one only raises costs, so those keys are left low and recomputed
    when they come up.  The key on top is the pivot when it is still exact:
    every other row's key is a lower bound at least as large, and keys are
    unique by row.  A pivot (p, q) with sign s leaves row p reading
    s x_q + sum_f a_pf x_f over the unpivoted columns f; the unpivoted rows
    are zero outside those columns and form the residual block, the only part
    that goes to the dense ``smith_normal_form``, and only when it is not zero.
    """
    rows = len(theta)
    mat = [dict(row) for row in theta]
    holders = [set() for _ in range(cols)]  # column -> rows with an entry there
    for i, row in enumerate(mat):
        for j in row:
            holders[j].add(i)

    def least_unit(i):
        """The least (cost, i, column) over the +-1 entries of row i, or None."""
        row = mat[i]
        row_cost = len(row) - 1
        best = None
        for j, x in row.items():
            if x == 1 or x == -1:
                key = (row_cost * (len(holders[j]) - 1), i, j)
                if best is None or key < best:
                    best = key
        return best

    keys = [least_unit(i) for i in range(rows)]
    queue = [key for key in keys if key is not None]
    heapify(queue)
    pivots = []  # (row, column, sign)
    pivoted = [False] * rows
    while queue:
        key = heappop(queue)
        _, p, q = key
        if pivoted[p] or keys[p] != key:
            continue  # stale: the row became a pivot or got another key
        now = least_unit(p)
        if now != key:  # raised by fill-in since; an unchanged row keeps its units
            keys[p] = now
            heappush(queue, now)
            continue
        pivoted[p] = True
        prow = mat[p]
        s = prow[q]
        changed = []  # unpivoted rows the pivot changed
        shrunk = set()  # columns that lost a row
        for r in [r for r in holders[q] if r != p]:
            row = mat[r]
            c = row[q] * s
            for j, x in prow.items():
                y = row.get(j, 0) - c * x
                if y:
                    if j not in row:
                        holders[j].add(r)
                    row[j] = y
                else:
                    del row[j]
                    holders[j].discard(r)
                    shrunk.add(j)
            if not pivoted[r]:
                changed.append(r)
        pivots.append((p, q, s))
        for r in changed:
            key = least_unit(r)
            if key != keys[r]:
                keys[r] = key
                if key is not None:
                    heappush(queue, key)
        for j in shrunk:
            col_cost = len(holders[j]) - 1
            for r in holders[j]:
                x = mat[r][j]
                if (x == 1 or x == -1) and not pivoted[r]:
                    key = ((len(mat[r]) - 1) * col_cost, r, j)
                    if key < keys[r]:
                        keys[r] = key
                        heappush(queue, key)

    free = [i for i in range(rows) if not pivoted[i]]
    pivot_cols = {q for (_, q, _) in pivots}
    rest = [j for j in range(cols) if j not in pivot_cols]
    block = (0, None)
    torsion = ()
    if any(mat[i] for i in free):
        _, d, v = smith_normal_form([[mat[i].get(j, 0) for j in rest] for i in free])
        diag = [d[k][k] for k in range(min(len(free), len(rest)))]
        block = (sum(1 for f in diag if f), v)
        torsion = tuple(f for f in diag if f > 1)
    rank = len(pivots) + block[0]
    return _Factored(FgAbelianGroup(rows - rank, torsion), cols - rank, mat, pivots, rest, block)


def _cokernel_map_is_iso(a: _Factored, b: _Factored, iota, theta_b) -> bool:
    """Is the map coker(theta_a) -> coker(theta_b) induced by iota an isomorphism?

    iota and theta_b are given by their rows, one row per generator of
    coker(theta_b).  Finitely generated abelian groups are Hopfian, so
    between isomorphic groups a surjection is an isomorphism.  iota is onto
    when im(iota) + im(theta_b) is everything: when the sparse factorization
    of the rows of [theta_b | iota], theta_b's columns first, has a trivial
    cokernel.  This needs iota to carry im(theta_a) into im(theta_b), as it
    does where the ladder maps intertwine; elsewhere no map is induced and
    the verdict says only "equal groups, iota onto".
    """
    if a.coker != b.coker:
        return False
    width = 1 + max((j for row in (*theta_b, *iota) for j in row), default=-1)
    both = [{**brow, **{width + j: x for j, x in irow.items()}} for brow, irow in zip(theta_b, iota)]
    return _factor(both, 2 * width).coker.is_trivial


def _kernel_map_is_iso(a: _Factored, b: _Factored, t, theta_b) -> bool:
    """Does t restrict to an isomorphism ker(theta_a) -> ker(theta_b)?

    t and theta_b are given by their rows, t with n of them.  ker(theta_b)
    is saturated: a vector of Z^n lies in it when a nonzero multiple does.
    So t maps ker(theta_a) isomorphically onto it exactly when the two
    kernels have one rank k, theta_b t kills every basis vector of
    ker(theta_a), and their k images span a saturated lattice of rank k,
    which is when the n x k matrix of the images has cokernel Z^(n-k).
    """
    k = a.nullity
    if k != b.nullity:
        return False
    if not k:
        return True
    images = [[sum(x * v[j] for j, x in row.items()) for row in t] for v in a.kernel]
    if any(sum(x * image[j] for j, x in row.items()) for image in images for row in theta_b):
        return False
    n = len(t)
    image_rows = [{m: image[i] for m, image in enumerate(images) if image[i]} for i in range(n)]
    return _factor(image_rows, k).coker == FgAbelianGroup(n - k)


def k_groups(b: LambdaGraphBisystem, side: str = "minus", depth: int | None = None) -> KResult:
    """Level towers for the two groups, with a stabilization verdict.

    Each theta_l is factorized once; both groups of level l and the maps
    into level l+1 are read from those factorizations.  Stabilization
    requires the last three levels to agree in canonical form and the
    connecting maps between them to be isomorphisms on the computed
    presentations; anything less is reported as not stabilized.
    """
    depth = b.depth if depth is None else min(depth, b.depth)
    if depth < 1:
        raise KtheoryError("need depth >= 1")
    ladder = build_ladder(_cut(b, depth), side)

    iota, rho = ladder.iota, ladder.rho
    inter_ok = all(
        _product(iota[l + 1], rho[l]) == _product(rho[l + 1], iota[l]) for l in range(depth - 1)
    )

    levels = []
    connecting = []
    prev = None  # only two levels' factorizations are alive at a time
    for l in range(depth):
        width = len(ladder.bases[l])
        theta = ladder.theta(l)
        cur = _factor(theta, width)
        levels.append((cur.coker, FgAbelianGroup(cur.nullity)))
        if prev is not None:
            connecting.append((
                _cokernel_map_is_iso(prev, cur, iota[l], theta),
                _kernel_map_is_iso(prev, cur, iota[l - 1], theta),
            ))
        prev = cur

    stabilized = False
    stab_level = None
    if depth >= 3:
        for start in range(depth - 3, -1, -1):
            window = levels[start : start + 3]
            maps = connecting[start : start + 2]
            if (
                window[0] == window[1] == window[2]
                and all(c0 and c1 for (c0, c1) in maps)
            ):
                stabilized = True
                stab_level = start
            else:
                break
    return KResult(
        side,
        tuple(levels),
        stabilized and inter_ok,
        stab_level,
        inter_ok,
        tuple(connecting),
    )


def kernel_contains_constant(b: LambdaGraphBisystem, side: str, level: int) -> bool:
    """Does the all-ones vector lie in ker(iota - rho) at the given block?"""
    if not 0 <= level < b.depth:
        raise KtheoryError(f"level must be in 0..{b.depth - 1}, got {level}")
    return not any(sum(row.values()) for row in build_ladder(_cut(b, level + 1), side).theta(level))


def ck_oracle(a):
    """Cokernel/kernel pair of (I - A^t) for a nonnegative integer matrix.

    Independent cross-check for the minus-side tower of one-sided imports.
    The cokernel and, as n minus the rank, the kernel's rank are read from one
    dense Smith normal form, not the tower's sparse factorization.
    """
    n = len(a)
    m = [[(1 if i == j else 0) - a[j][i] for j in range(n)] for i in range(n)]
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(n) if d[i][i]]
    nullity = n - len(diag)
    return FgAbelianGroup(nullity, tuple(x for x in diag if x > 1)), FgAbelianGroup(nullity)
