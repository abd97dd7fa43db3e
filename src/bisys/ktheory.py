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

from .bisystem import LambdaGraphBisystem, follower_sets, predecessor_sets


class KtheoryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer matrices as lists of lists


def _mat(rows, cols, fill=0):
    return [[fill] * cols for _ in range(rows)]


def _identity(n):
    m = _mat(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise KtheoryError("inner dimensions disagree")
    out = _mat(n, m)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    oi[j] += v * bt[j]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def determinant(a):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


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


def smith_diagonal(a):
    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


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


def cokernel(theta, ambient_rank: int | None = None) -> FgAbelianGroup:
    """Z^rows / (column span of theta), in canonical form."""
    rows = len(theta) if theta else (ambient_rank or 0)
    if not theta or not theta[0]:
        return FgAbelianGroup(rows)
    diag = smith_diagonal(theta)
    return FgAbelianGroup(rows - len(diag), tuple(d for d in diag if d > 1))


def kernel_basis(theta):
    """Columns spanning the integer kernel of theta."""
    rows = len(theta)
    cols = len(theta[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [list(col) for col in _identity(cols)]
    _, d, v = smith_normal_form(theta)
    r = len([1 for i in range(min(rows, cols)) if d[i][i]])
    return [[v[i][j] for i in range(cols)] for j in range(r, cols)]


def solve(theta, b):
    """Some integer x with theta x = b, or None."""
    return _solve_factored(smith_normal_form(theta), b)


def _solve_factored(snf, b):
    """solve() against a factorization (U, D, V) of theta made once."""
    u, d, v = snf
    rows = len(d)
    cols = len(d[0]) if rows else 0
    ub = mat_vec(u, b)
    y = [0] * cols
    r = min(rows, cols)
    for i in range(rows):
        di = d[i][i] if i < r else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return mat_vec(v, y)


def is_unimodular(m) -> bool:
    return len(m) == len(m[0]) and abs(determinant(m)) == 1


# ---------------------------------------------------------------------------
# level ladders


@dataclass(frozen=True)
class LevelLadder:
    side: str
    bases: tuple  # per level: tuple of (vertex index, word)
    iota: tuple   # per block l: d(l+1) x d(l) integer matrix
    rho: tuple    # per block l: d(l+1) x d(l) integer matrix

    @property
    def depth(self) -> int:
        return len(self.bases) - 1

    def theta(self, l: int):
        return mat_sub(self.iota[l], self.rho[l])


def build_ladder(b: LambdaGraphBisystem, side: str = "minus") -> LevelLadder:
    """Refinement and transition matrices on the (vertex, word) bases.

    Minus side: words are follower words, refined by prepending a minus label
    and transported by appending one, weighted by the number of plus labels
    between the vertices.  Plus side symmetric with the roles swapped: words
    are predecessor words, plus labels join them at the other end.
    """
    if side not in ("minus", "plus"):
        raise KtheoryError("side must be 'minus' or 'plus'")
    minus = side == "minus"
    words = follower_sets(b) if minus else predecessor_sets(b)
    own = b.adjacency[side, "lower"]
    across = b.adjacency["plus" if minus else "minus", "lower"]
    symbols = (b.sigma_minus if minus else b.sigma_plus).symbols
    bases = tuple(
        tuple((i, w) for i in range(b.level_sizes[l]) for w in sorted(words[l][i]))
        for l in range(b.depth + 1)
    )
    pos = [
        {key: idx for idx, key in enumerate(level)} for level in bases
    ]

    iota_mats = []
    rho_mats = []
    for l in range(b.depth):
        dl, dl1 = len(bases[l]), len(bases[l + 1])
        iota_l = _mat(dl1, dl)
        rho_l = _mat(dl1, dl)
        # a repeated edge counts once, as in transition_matrices
        for col, (i, w) in enumerate(bases[l]):
            for (j, a) in set(own[l][i]):
                iota_l[pos[l + 1][(j, a + w if minus else w + a)]][col] += 1
            counts = Counter(j for (j, _) in set(across[l][i]))
            for j, count in counts.items():
                for a in symbols:
                    key = (j, w + a if minus else a + w)
                    if key in pos[l + 1]:
                        rho_l[pos[l + 1][key]][col] += count
        iota_mats.append(iota_l)
        rho_mats.append(rho_l)
    return LevelLadder(side, bases, tuple(iota_mats), tuple(rho_mats))


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


@dataclass(frozen=True)
class _Factored:
    """What the tower reads from one factorization U theta V = D of a level.

    ``coker`` is coker(theta) in canonical form.  ``coker_rows`` pairs every
    invariant factor f of theta that is not 1 (0 past the rank) with its row
    of U iota, iota the map the level was factorized with: coker(theta) is the
    sum of the Z/f, and the class of iota x has coordinates (row . x).
    ``kernel`` is a basis of ker(theta).
    """

    coker: FgAbelianGroup
    coker_rows: list | None
    kernel: list


def _factor(theta, iota=None) -> _Factored:
    """Sparse unit-pivot elimination of theta, then a Smith normal form of the rest.

    Rows are dicts with a column -> rows index.  While an unpivoted row and
    an unpivoted column meet in a +-1, the one of least Markowitz cost
    (row nnz - 1) * (column nnz - 1), ties to the least (row, column), is the
    next pivot, and its column is cleared from every other row, earlier pivot
    rows included (Gauss-Jordan).  The same row operations act on the rows of
    iota, so U iota is carried without U.  A pivot (p, q) with sign s leaves
    row p reading s x_q + sum_f a_pf x_f over the unpivoted columns f; the
    unpivoted rows are zero outside those columns and form the residual
    block, the only part that goes to the dense ``smith_normal_form``, and
    only when it is not zero.
    """
    rows = len(theta)
    cols = len(theta[0]) if rows else 0
    mat = [{j: x for j, x in enumerate(row) if x} for row in theta]
    carried = [{j: x for j, x in enumerate(row) if x} for row in iota or ()]
    holders = [set() for _ in range(cols)]  # column -> rows with an entry there
    for i, row in enumerate(mat):
        for j in row:
            holders[j].add(i)

    pivots = []  # (row, column, sign)
    free = list(range(rows))  # unpivoted rows, ascending
    while True:
        best = None
        for i in free:
            row = mat[i]
            row_cost = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    key = (row_cost * (len(holders[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[0] == 0:
                break  # later rows cannot beat a pivot without fill-in
        if best is None:
            break
        _, p, q = best
        prow = mat[p]
        pcarried = carried[p] if carried else None
        s = prow[q]
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
            if pcarried is not None:
                crow = carried[r]
                for j, x in pcarried.items():
                    y = crow.get(j, 0) - c * x
                    if y:
                        crow[j] = y
                    else:
                        del crow[j]
        pivots.append((p, q, s))
        free.remove(p)

    pivot_cols = {q for (_, q, _) in pivots}
    rest = [j for j in range(cols) if j not in pivot_cols]
    block = [[mat[i].get(j, 0) for j in rest] for i in free]
    if any(any(row) for row in block):
        u, d, v = smith_normal_form(block)
        diag = [d[k][k] if k < len(rest) else 0 for k in range(len(free))]
        mix = [[(m, x) for m, x in enumerate(row) if x] for row in u]
        block_rank = sum(1 for f in diag if f)
        residual_kernel = [[row[k] for row in v] for k in range(block_rank, len(rest))]
    else:  # a zero block: D = 0, and U and V are identities
        diag = [0] * len(free)
        mix = [[(k, 1)] for k in range(len(free))]
        residual_kernel = [[int(i == k) for i in range(len(rest))] for k in range(len(rest))]

    coker_rows = None
    if iota is not None:
        width = len(iota[0]) if iota else 0
        coker_rows = []
        for f, combo in zip(diag, mix):
            if f != 1:
                vec = [0] * width
                for m, x in combo:
                    for j, y in carried[free[m]].items():
                        vec[j] += x * y
                coker_rows.append((f, vec))

    kernel = []
    for z in residual_kernel:
        x = [0] * cols
        for j, value in zip(rest, z):
            x[j] = value
        for p, q, s in pivots:
            x[q] = -s * sum(a * x[j] for j, a in mat[p].items() if j != q)
        kernel.append(x)

    rank = len(pivots) + sum(1 for f in diag if f)
    return _Factored(
        FgAbelianGroup(rows - rank, tuple(f for f in diag if f > 1)), coker_rows, kernel
    )


def _cokernel_map_is_iso(a: _Factored, b: _Factored) -> bool:
    """Is the map coker(theta_a) -> coker(theta_b) induced by b's iota an isomorphism?

    Finitely generated abelian groups are Hopfian, so between isomorphic
    groups a surjection is an isomorphism.  iota is onto when its rows in
    ``b.coker_rows``, beside their invariant factors, span everything.  This
    needs iota to carry im(theta_a) into im(theta_b), as it does where the
    ladder maps intertwine; elsewhere no map is induced and the verdict says
    only "equal groups, iota onto".
    """
    if a.coker != b.coker:
        return False
    n = len(b.coker_rows)
    image = [
        row + [f if m == k else 0 for m in range(n)] for k, (f, row) in enumerate(b.coker_rows)
    ]
    return cokernel(image, n).is_trivial


def _kernel_map_is_iso(a: _Factored, b: _Factored, t) -> bool:
    """Does t restrict to an isomorphism ker(theta_a) -> ker(theta_b)?"""
    ka, kb = a.kernel, b.kernel
    if len(ka) != len(kb):
        return False
    if not ka:
        return True
    # coordinates of t * ka in the kb basis must form a unimodular matrix
    kb_mat = [[kb[j][i] for j in range(len(kb))] for i in range(len(kb[0]))]
    kb_snf = smith_normal_form(kb_mat)  # one factorization for every image
    coords = []
    for vec in ka:
        c = _solve_factored(kb_snf, mat_vec(t, vec))
        if c is None:
            return False
        coords.append(c)
    m = [[coords[j][i] for j in range(len(coords))] for i in range(len(coords[0]))]
    return is_unimodular(m)


def k_groups(b: LambdaGraphBisystem, side: str = "minus", depth: int | None = None) -> KResult:
    """Level towers for the two groups, with a stabilization verdict.

    Each theta_l is factorized once; both groups of level l and the maps
    into level l+1 are read from those factorizations.  Stabilization
    requires the last three levels to agree in canonical form and the
    connecting maps between them to be isomorphisms on the computed
    presentations; anything less is reported as not stabilized.
    """
    ladder = build_ladder(b, side)
    depth = min(depth if depth is not None else ladder.depth, ladder.depth)
    if depth < 1:
        raise KtheoryError("need depth >= 1")

    inter_ok = True
    for l in range(depth - 1):
        if mat_mul(ladder.iota[l + 1], ladder.rho[l]) != mat_mul(
            ladder.rho[l + 1], ladder.iota[l]
        ):
            inter_ok = False

    levels = []
    connecting = []
    prev = None  # only two levels' factorizations are alive at a time
    for l in range(depth):
        cur = _factor(ladder.theta(l), ladder.iota[l])
        levels.append((cur.coker, FgAbelianGroup(len(cur.kernel))))
        if prev is not None:
            connecting.append((
                _cokernel_map_is_iso(prev, cur),
                _kernel_map_is_iso(prev, cur, ladder.iota[l - 1]),
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
    ladder = build_ladder(b, side)
    theta = ladder.theta(level)
    one = [1] * len(ladder.bases[level])
    return not any(mat_vec(theta, one))


def ck_oracle(a):
    """Cokernel/kernel pair of (I - A^t) for a nonnegative integer matrix.

    Independent cross-check for the minus-side tower of one-sided imports.
    """
    n = len(a)
    m = [[(1 if i == j else 0) - a[j][i] for j in range(n)] for i in range(n)]
    coker = cokernel(m, n)
    ker = FgAbelianGroup(len(kernel_basis(m)))
    return coker, ker
