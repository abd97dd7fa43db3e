import functools
import math
import os
import random
from collections import Counter
from itertools import combinations

import pytest

from bisys.bisystem import (
    follower_sets,
    from_lambda_graph_system,
    lgs_from_matrix,
    predecessor_sets,
)
from bisys.canonical import canonical_bisystem
from bisys.cli.documents import load_document, parse_document
from bisys.ktheory import (
    FgAbelianGroup,
    KResult,
    KtheoryError,
    _cokernel_map_is_iso,
    _factor,
    _Factored,
    _kernel_map_is_iso,
    build_ladder,
    ck_oracle,
    k_groups,
    kernel_contains_constant,
    smith_normal_form,
)
from fixtures import (
    dense,
    even_shift_pres,
    full_n_lgs,
    full_shift_pres,
    golden_mean_lgs,
    golden_mean_pres,
    mat_mul,
    random_irreducible_01,
    two_power_split_bisystem,
)
import oracles
from oracles import cokernel, determinant, kernel_basis, mat_vec, smith_diagonal, solve


def minor_gcd_invariants(m):
    """Oracle: d_k = gcd(k-minors) / gcd((k-1)-minors)."""
    rows, cols = len(m), len(m[0])

    def minors(k):
        out = 0
        for rset in combinations(range(rows), k):
            for cset in combinations(range(cols), k):
                sub = [[m[i][j] for j in cset] for i in rset]
                out = math.gcd(out, determinant(sub))
        return out

    inv = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minors(k)
        if g == 0:
            break
        inv.append(g // prev)
        prev = g
    return inv


def test_smith_trivial_cases():
    u, d, v = smith_normal_form([[0, 0], [0, 0]])
    assert all(x == 0 for row in d for x in row)
    assert cokernel([[0, 0], [0, 0]]) == FgAbelianGroup(2)
    u, d, v = smith_normal_form([[1, 0], [0, 1]])
    assert smith_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert cokernel([[1, 0], [0, 1]]).is_trivial


def test_smith_matches_minor_gcd_oracle():
    rng = random.Random(13)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        nz = [x for x in diag if x]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        assert nz == minor_gcd_invariants(m)


def test_solve_and_kernel():
    m = [[2, 0], [0, 3]]
    assert solve(m, [4, 9]) == [2, 3]
    assert solve(m, [1, 0]) is None
    k = kernel_basis([[1, 1, 1]])
    assert len(k) == 2
    for vec in k:
        assert sum(vec) == 0


def test_ck_oracle_values():
    assert ck_oracle([[2]]) == (FgAbelianGroup(0), FgAbelianGroup(0))
    assert ck_oracle([[3]]) == (FgAbelianGroup(0, (2,)), FgAbelianGroup(0))
    assert ck_oracle([[1, 1], [1, 0]]) == (FgAbelianGroup(0), FgAbelianGroup(0))


def test_ck_oracle_matches_the_two_factorization_reading():
    """One Smith form of I - A^t gives what ``cokernel`` and ``kernel_basis``
    read off two, on random nonnegative matrices of sizes 1-5; permutations
    among them make I - A^t singular, and other draws give it torsion."""
    rng = random.Random(26)
    cases = [[[1]], [[0]], [[3]], [[1, 1], [0, 1]], [[0, 1], [1, 0]], [[2, 1], [1, 2]]]
    for n in range(1, 6):
        for _ in range(40):
            a = [[rng.choice((0, 0, 1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.3:  # a permutation: I - A^t kills the all-ones vector
                perm = rng.sample(range(n), n)
                a = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
            cases.append(a)
    singular = torsion = 0
    for a in cases:
        n = len(a)
        m = [[(1 if i == j else 0) - a[j][i] for j in range(n)] for i in range(n)]
        coker, ker = ck_oracle(a)
        assert (coker, ker) == (cokernel(m, n), FgAbelianGroup(len(kernel_basis(m)))), a
        singular += ker.free_rank > 0
        torsion += bool(coker.torsion)
    assert singular >= 50 and torsion >= 50


def test_import_towers_match_oracle():
    cases = [[[2]], [[3]], [[1, 1], [1, 0]]]
    rng = random.Random(23)
    cases.append(random_irreducible_01(rng))
    for a in cases:
        b = from_lambda_graph_system(lgs_from_matrix(a, depth=6))
        res = k_groups(b, "minus")
        assert res.intertwining_ok
        assert res.stabilized and res.stabilization_level is not None
        assert res.stabilization_level <= 3
        assert (res.k0, res.k1) == ck_oracle(a)


def test_import_ladder_structure():
    b = from_lambda_graph_system(golden_mean_lgs(4))
    lad = build_ladder(b, "minus")
    a = [[1, 1], [1, 0]]
    for l in range(lad.depth):
        assert dense(lad.iota[l], 2) == [[1, 0], [0, 1]]
        assert dense(lad.rho[l], 2) == [[a[j][i] for j in range(2)] for i in range(2)]


def test_plus_side_kernel_contains_constants():
    for a in ([[2]], [[3]], [[1, 1], [1, 0]]):
        b = from_lambda_graph_system(lgs_from_matrix(a, depth=5))
        for l in range(4):
            assert kernel_contains_constant(b, "plus", l)


def test_plus_side_k1_reports_free_summand():
    b = from_lambda_graph_system(golden_mean_lgs(5))
    res = k_groups(b, "plus", depth=4)
    for (_, g1) in res.levels:
        assert g1.free_rank >= 1


def test_full_shift_canonical_ladder_basis_growth():
    b = canonical_bisystem(full_shift_pres(2), 5).bisystem
    lad = build_ladder(b, "minus")
    assert [len(x) for x in lad.bases] == [1, 2, 4, 8, 16, 32]
    # each refined basis element has a unique coarse parent
    for l, mat in enumerate(lad.iota):
        for row in dense(mat, len(lad.bases[l])):
            assert sum(row) == 1 and all(x in (0, 1) for x in row)


def test_nonstabilized_tower_is_reported_honestly():
    b = canonical_bisystem(full_shift_pres(2), 5).bisystem
    res = k_groups(b, "minus")
    assert not res.stabilized
    assert res.intertwining_ok


def test_group_canonical_form_guards():
    with pytest.raises(KtheoryError):
        FgAbelianGroup(0, (1,))
    with pytest.raises(KtheoryError):
        FgAbelianGroup(0, (2, 3))
    assert str(FgAbelianGroup(1, (2, 4))) == "Z + Z/2 + Z/4"


# -- references for the tower: the full-scan SNF and per-query connecting maps


def full_scan_smith_normal_form(a):
    """Reference SNF: every step scans the whole trailing block for the
    least-|x| pivot and for an entry the pivot does not divide."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in d + v:
            r[dst] += c * r[src]

    t = 0
    while t < min(rows, cols):
        pivot, best = None, None
        for i in range(t, rows):
            for j in range(t, cols):
                x = d[i][j]
                if x and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        d[t], d[pi] = d[pi], d[t]
        u[t], u[pi] = u[pi], u[t]
        for r in d + v:
            r[t], r[pj] = r[pj], r[t]
        dirty = False
        for i in range(t + 1, rows):
            if d[i][t]:
                add_row(t, i, -(d[i][t] // d[t][t]))
                dirty = dirty or bool(d[i][t])
        for j in range(t + 1, cols):
            if d[t][j]:
                add_col(t, j, -(d[t][j] // d[t][t]))
                dirty = dirty or bool(d[t][j])
        if dirty:
            continue
        offender = next(
            (i for i in range(t + 1, rows) for j in range(t + 1, cols) if d[i][j] % d[t][t]),
            None,
        )
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return u, d, v


def reference_cokernel_map_is_iso(theta_a, theta_b, t):
    """Per query: t and theta_b span Z^rows_b, and t x in im(theta_b) forces
    x in im(theta_a), each decided by fresh Smith normal forms."""
    stacked = [trow + brow for trow, brow in zip(t, theta_b)]
    if not cokernel(stacked, len(theta_b)).is_trivial:
        return False
    cols_t = len(t[0]) if t else 0
    combined = [trow + [-x for x in brow] for trow, brow in zip(t, theta_b)]
    for vec in kernel_basis(combined):
        x = vec[:cols_t]
        if any(x) and solve(theta_a, x) is None:
            return False
    return True


def reference_kernel_map_is_iso(theta_a, theta_b, t):
    ka = kernel_basis(theta_a)
    kb = kernel_basis(theta_b)
    if len(ka) != len(kb):
        return False
    if not ka:
        return True
    kb_mat = [[kb[j][i] for j in range(len(kb))] for i in range(len(kb[0]))]
    coords = []
    for vec in ka:
        c = solve(kb_mat, [sum(x * y for x, y in zip(row, vec)) for row in t])
        if c is None:
            return False
        coords.append(c)
    return abs(determinant([list(col) for col in zip(*coords)])) == 1


@functools.cache
def dense_ladder(b, side):
    """The ladder as dense lists of lists: (bases, iota blocks, rho blocks),
    made once per (bisystem, side) and shared by the tests, which only read it."""
    minus = side == "minus"
    words = follower_sets(b) if minus else predecessor_sets(b)
    own = b.adjacency[side, "lower"]
    across = b.adjacency["plus" if minus else "minus", "lower"]
    symbols = (b.sigma_minus if minus else b.sigma_plus).symbols
    bases = tuple(
        tuple((i, w) for i in range(b.level_sizes[l]) for w in sorted(words[l][i]))
        for l in range(b.depth + 1)
    )
    pos = [{key: idx for idx, key in enumerate(level)} for level in bases]
    iotas, rhos = [], []
    for l in range(b.depth):
        dl, dl1 = len(bases[l]), len(bases[l + 1])
        iota_l = [[0] * dl for _ in range(dl1)]
        rho_l = [[0] * dl for _ in range(dl1)]
        for col, (i, w) in enumerate(bases[l]):
            for (j, a) in set(own[l][i]):
                iota_l[pos[l + 1][(j, a + w if minus else w + a)]][col] += 1
            counts = Counter(j for (j, _) in set(across[l][i]))
            for j, count in counts.items():
                for a in symbols:
                    key = (j, w + a if minus else a + w)
                    if key in pos[l + 1]:
                        rho_l[pos[l + 1][key]][col] += count
        iotas.append(iota_l)
        rhos.append(rho_l)
    return bases, iotas, rhos


def dense_theta(iota, rho):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(iota, rho)]


def rows_of(m):
    """The {column: value} rows of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def reference_k_groups(b, side, depth):
    """The tower with every group and connecting map computed on its own,
    from the dense ladder."""
    bases, iotas, rhos = dense_ladder(b, side)
    depth = min(depth, len(bases) - 1)
    thetas = [dense_theta(iotas[l], rhos[l]) for l in range(depth)]
    levels = tuple(
        (cokernel(th, len(bases[l + 1])), FgAbelianGroup(len(kernel_basis(th))))
        for l, th in enumerate(thetas)
    )
    inter_ok = all(
        mat_mul(iotas[l + 1], rhos[l]) == mat_mul(rhos[l + 1], iotas[l])
        for l in range(depth - 1)
    )
    connecting = tuple(
        (
            reference_cokernel_map_is_iso(thetas[l], thetas[l + 1], iotas[l + 1]),
            reference_kernel_map_is_iso(thetas[l], thetas[l + 1], iotas[l]),
        )
        for l in range(depth - 1)
    )
    stab_level = None
    for start in range(depth - 3, -1, -1):
        if levels[start] == levels[start + 1] == levels[start + 2] and all(
            c0 and c1 for (c0, c1) in connecting[start : start + 2]
        ):
            stab_level = start
        else:
            break
    return KResult(side, levels, stab_level is not None and inter_ok, stab_level,
                   inter_ok, connecting)


def test_smith_early_exit_matches_full_scan():
    rng = random.Random(41)
    entries = (0, 1, -1, 2, -2, 3, -4, 5)
    for _ in range(3000):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = [[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]
        assert smith_normal_form(m) == full_scan_smith_normal_form(m)


@functools.cache
def tower_cases():
    """The 25 bisystems of the tower tests, built once for the module."""
    rng = random.Random(43)
    cases = [
        ("golden", canonical_bisystem(golden_mean_pres(), 5).bisystem),
        ("even", canonical_bisystem(even_shift_pres(), 5).bisystem),
        ("full2", from_lambda_graph_system(full_n_lgs(2, 5))),
        ("full3", from_lambda_graph_system(full_n_lgs(3, 5))),
        ("two_power_split", two_power_split_bisystem()),
    ]
    for i in range(20):
        a = random_irreducible_01(rng, rng.choice((3, 4)))
        cases.append((f"random_{i}", from_lambda_graph_system(lgs_from_matrix(a, depth=5))))
    return tuple(cases)


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_build_ladder_matches_dense_ladder(side):
    for name, b in tower_cases():
        ladder = build_ladder(b, side)
        bases, iotas, rhos = dense_ladder(b, side)
        assert ladder.bases == bases, name
        assert len(ladder.iota) == len(ladder.rho) == len(iotas), name
        for l in range(len(iotas)):
            width = len(bases[l])
            for sparse, full in ((ladder.iota[l], iotas[l]), (ladder.rho[l], rhos[l]),
                                 (ladder.theta(l), dense_theta(iotas[l], rhos[l]))):
                assert len(sparse) == len(full) == len(bases[l + 1]), (name, l)
                # no stored zeros, no column past the width, every entry equal
                assert all(x and 0 <= j < width for row in sparse for j, x in row.items())
                assert dense(sparse, width) == full, (name, l)


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_k_groups_matches_per_query_reference(side):
    for name, b in tower_cases():
        # to depth 5, less where the ladder passes 100 basis words: the
        # reference's per-query SNFs on a 4x4 import's 763-word plus ladder
        # take tens of seconds
        dims = [len(basis) for basis in build_ladder(b, side).bases]
        depth = max(d for d in range(1, 6) if d < len(dims) and dims[d] <= 100)
        assert k_groups(b, side, depth) == reference_k_groups(b, side, depth), name


def factor(theta):
    return _factor(rows_of(theta), len(theta[0]))


def cokernel_verdict(theta_a, theta_b, t):
    return _cokernel_map_is_iso(factor(theta_a), factor(theta_b), rows_of(t), len(theta_a))


def test_cokernel_map_verdict_matches_reference():
    # (theta_a, theta_b, t) with t carrying im(theta_a) into im(theta_b)
    cases = [
        ([[0]], [[0]], [[2]]),   # Z -> Z by 2: equal groups, not onto
        ([[0]], [[2]], [[1]]),   # Z -> Z/2: onto, groups differ
        ([[2]], [[2]], [[2]]),   # Z/2 -> Z/2 by 0
        ([[2]], [[2]], [[3]]),   # Z/2 -> Z/2 by 1: an isomorphism
        ([[0]], [[0]], [[-1]]),  # Z -> Z by -1: an isomorphism
        ([[0], [0]], [[0]], [[1, 0]]),  # Z^2 -> Z, onto with a kernel
    ]
    rng = random.Random(47)
    while len(cases) < 400:
        ra, rb, ca = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        theta_a = [[rng.randint(-2, 2) for _ in range(ca)] for _ in range(ra)]
        t = [[rng.randint(-1, 2) for _ in range(ra)] for _ in range(rb)]
        k = rng.randint(0, 2)
        extra = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(rb)]
        image = mat_mul(t, theta_a)
        cases.append((theta_a, [x + y for x, y in zip(image, extra)], t))
    seen = Counter()
    for theta_a, theta_b, t in cases:
        expected = reference_cokernel_map_is_iso(theta_a, theta_b, t)
        assert cokernel_verdict(theta_a, theta_b, t) == expected, (theta_a, theta_b, t)
        same = cokernel(theta_a, len(theta_a)) == cokernel(theta_b, len(theta_b))
        onto = cokernel([x + y for x, y in zip(t, theta_b)], len(theta_b)).is_trivial
        seen[expected, same, onto] += 1
    # a verdict that checked only one half would fail on these
    assert seen[True, True, True] and seen[False, True, False] and seen[False, False, True]


def test_kernel_map_verdict_matches_reference(monkeypatch):
    import bisys.ktheory as kt

    factorized = []
    real_snf = kt.smith_normal_form
    monkeypatch.setattr(kt, "smith_normal_form", lambda m: factorized.append(m) or real_snf(m))
    rng = random.Random(59)
    seen = Counter()
    for _ in range(300):
        cols = rng.randint(3, 5)
        rows = rng.randint(1, cols - 2)
        theta_b = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        # theta_a = theta_b t, so t carries ker(theta_a) into ker(theta_b);
        # a t made of row operations is unimodular, a random one mostly not
        t = [[int(i == j) for j in range(cols)] for i in range(cols)]
        if rng.random() < 0.5:
            for _ in range(6):
                i, j = rng.sample(range(cols), 2)
                t[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(t[i], t[j])]
        else:
            t = [[rng.randint(-1, 2) for _ in range(cols)] for _ in range(cols)]
        theta_a = mat_mul(theta_b, t)
        a, b = factor(theta_a), factor(theta_b)
        factorized.clear()
        verdict = _kernel_map_is_iso(a, b, rows_of(t), rows_of(theta_b))
        # one factorization of the images, however many kernel vectors
        assert len(factorized) <= 1
        assert verdict == reference_kernel_map_is_iso(theta_a, theta_b, t), (theta_a, theta_b, t)
        seen[verdict, len(b.kernel) > 1] += 1
    assert seen[True, True] and seen[False, True]


def random_full_row_rank(rng, rows, cols):
    while True:
        m = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        if len(kernel_basis(m)) == cols - rows:
            return m


def test_kernel_map_verdict_on_kernels_of_rank_two_and_three(monkeypatch):
    import bisys.ktheory as kt

    factorized = []
    real_snf = kt.smith_normal_form
    monkeypatch.setattr(kt, "smith_normal_form", lambda m: factorized.append(m) or real_snf(m))
    rng = random.Random(67)
    seen = Counter()
    for n in range(240):
        rank = 2 + n % 2
        cols = rank + rng.randint(1, 3)
        theta_b = random_full_row_rank(rng, cols - rank, cols)
        t = [[int(i == j) for j in range(cols)] for i in range(cols)]
        kind = n % 3
        if kind == 0:  # row operations: unimodular, so an isomorphism
            for _ in range(cols):
                i, j = rng.sample(range(cols), 2)
                t[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(t[i], t[j])]
        else:  # random: the images mostly have coordinates of det other than +-1
            t = [[rng.randint(-1, 2) for _ in range(cols)] for _ in range(cols)]
        # kinds 0 and 1 carry ker(theta_a) into ker(theta_b); kind 2 takes an
        # unrelated theta_a, whose kernel t mostly does not carry there
        theta_a = mat_mul(theta_b, t) if kind < 2 else random_full_row_rank(rng, cols - rank, cols)
        a, b = factor(theta_a), factor(theta_b)
        assert len(b.kernel) == rank
        factorized.clear()
        verdict = _kernel_map_is_iso(a, b, rows_of(t), rows_of(theta_b))
        if len(a.kernel) == rank:
            # no dense SNF wider than the rank: only the images' residual block
            assert all(len(m[0]) <= rank for m in factorized), factorized
        assert verdict == reference_kernel_map_is_iso(theta_a, theta_b, t), (theta_a, theta_b, t)
        kb_mat = [list(row) for row in zip(*kernel_basis(theta_b))]
        images = [[sum(x * y for x, y in zip(row, v)) for row in t] for v in kernel_basis(theta_a)]
        solvable = all(solve(kb_mat, image) is not None for image in images)
        seen[verdict, solvable, rank] += 1
    for rank in (2, 3):
        # isomorphisms, images outside the lattice, and coordinates not unimodular
        assert seen[True, True, rank] and seen[False, False, rank] and seen[False, True, rank], seen


HERE = os.path.dirname(__file__)


@functools.cache
def ktower_bisystems():
    """(bisystem, side) for every job of the bench's K-tower workload, seed 1;
    the caller puts ``bench/`` on the path."""
    import workloads

    out = []
    for job in workloads.make_jobs("ktower", 1):
        obj = parse_document(job.doc)[2]
        if job.matrix is None:
            out.append((canonical_bisystem(obj, job.depth).bisystem, job.side))
        else:
            out.append((from_lambda_graph_system(obj), job.side))
    return tuple(out)


def tower_kernel_verdicts(b, side):
    """(saturation verdict, solver verdict) for every kernel map of b's tower."""
    ladder = build_ladder(b, side)
    thetas = [ladder.theta(l) for l in range(ladder.depth)]
    factors = [_factor(theta, len(ladder.bases[l])) for l, theta in enumerate(thetas)]
    return [
        (_kernel_map_is_iso(factors[l - 1], factors[l], ladder.iota[l - 1], thetas[l]),
         oracles.kernel_map_is_iso(factors[l - 1], factors[l], ladder.iota[l - 1]))
        for l in range(1, ladder.depth)
    ]


def test_kernel_verdict_matches_the_solver_route(monkeypatch):
    """Seeded: the saturation check gives the verdict of the route that
    solved for coordinates in a kernel basis and took their determinant, on
    random triples, on maps that leave ker(theta_b), on images that span a
    proper sublattice of it (t = 2I among them), on every connecting map of
    the bench's K-tower jobs and on the full 3-shift's plus ladder."""
    rng = random.Random(73)
    seen = Counter()
    for n in range(480):
        cols = rng.randint(2, 6)
        theta_b = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rng.randint(1, cols - 1))]
        kind = n % 3
        t = [[2 * int(i == j) for j in range(cols)] for i in range(cols)]
        if kind == 0:  # row operations: unimodular
            t = [[int(i == j) for j in range(cols)] for i in range(cols)]
            for _ in range(cols):
                i, j = rng.sample(range(cols), 2)
                t[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(t[i], t[j])]
        elif kind == 1:
            t = [[rng.randint(-1, 2) for _ in range(cols)] for _ in range(cols)]
        # theta_b t carries ker(theta_a) into ker(theta_b); an unrelated
        # theta_a of the same shape mostly does not
        if n % 4:
            theta_a = mat_mul(theta_b, t)
        else:
            theta_a = [[rng.randint(-2, 2) for _ in range(cols)] for _ in theta_b]
        a, b = factor(theta_a), factor(theta_b)
        verdict = _kernel_map_is_iso(a, b, rows_of(t), rows_of(theta_b))
        assert verdict == oracles.kernel_map_is_iso(a, b, rows_of(t)), (theta_a, theta_b, t)
        images = [mat_vec(t, v) for v in a.kernel]
        into = all(not any(mat_vec(theta_b, x)) for x in images)
        seen[verdict, into, len(a.kernel) == len(b.kernel) > 0] += 1
    # isomorphisms, maps that leave the kernel, and proper sublattices
    assert seen[True, True, True] and seen[False, False, True] and seen[False, True, True], seen

    monkeypatch.syspath_prepend(os.path.join(HERE, "..", "bench"))
    towers = [tower_kernel_verdicts(b, side) for b, side in ktower_bisystems()]
    full3 = from_lambda_graph_system(
        load_document(os.path.join(HERE, "..", "docs", "examples", "full3.lgs.json"), 6)[2])
    towers.append(tower_kernel_verdicts(full3, "plus"))
    pairs = [pair for tower in towers for pair in tower]
    assert all(new == old for new, old in pairs), towers
    assert len(pairs) == 129 and {new for new, _ in pairs} == {True, False}, Counter(pairs)


# -- the sparse factorization against the dense one it replaced


def dense_factor(theta):
    """One dense Smith normal form with U carried whole: (U, diagonal, coker, kernel)."""
    rows = len(theta)
    cols = len(theta[0]) if rows else 0
    u, d, v = smith_normal_form(theta)
    diag = [d[i][i] if i < cols else 0 for i in range(rows)]
    rank = sum(1 for x in diag if x)
    coker = FgAbelianGroup(rows - rank, tuple(x for x in diag if x > 1))
    return u, diag, coker, [[v[i][j] for i in range(cols)] for j in range(rank, cols)]


def dense_cokernel_verdict(theta_a, theta_b, t):
    """The connecting-map verdict read from U t, the rows of U t whose factor is not 1."""
    u, diag, coker_b, _ = dense_factor(theta_b)
    if dense_factor(theta_a)[2] != coker_b:
        return False
    keep = [i for i, x in enumerate(diag) if x != 1]
    image = mat_mul([u[i] for i in keep], t)
    for k, i in enumerate(keep):
        image[k] += [diag[i] if m == k else 0 for m in range(len(keep))]
    return cokernel(image, len(keep)).is_trivial


def parent_factor(theta, iota):
    """The sparse factorization as it was before the recorded row operations:
    dense theta and iota, with U iota carried through every step.  Returns
    (coker, coker rows, kernel)."""
    rows = len(theta)
    cols = len(theta[0]) if rows else 0
    mat = rows_of(theta)
    carried = rows_of(iota)
    holders = [set() for _ in range(cols)]
    for i, row in enumerate(mat):
        for j in row:
            holders[j].add(i)
    pivots = []
    free = list(range(rows))
    while True:
        best = None
        for i in free:
            row = mat[i]
            for j, x in row.items():
                if x == 1 or x == -1:
                    key = ((len(row) - 1) * (len(holders[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, p, q = best
        prow, pcarried = mat[p], carried[p]
        s = prow[q]
        for r in [r for r in holders[q] if r != p]:
            row, crow = mat[r], carried[r]
            c = row[q] * s
            for j, x in prow.items():
                y = row.get(j, 0) - c * x
                if y:
                    holders[j].add(r)
                    row[j] = y
                else:
                    del row[j]
                    holders[j].discard(r)
            for j, x in pcarried.items():
                y = crow.get(j, 0) - c * x
                if y:
                    crow[j] = y
                else:
                    del crow[j]
        pivots.append((p, q, s))
        free.remove(p)
    rest = [j for j in range(cols) if j not in {q for (_, q, _) in pivots}]
    block = [[mat[i].get(j, 0) for j in rest] for i in free]
    if any(any(row) for row in block):
        u, d, v = smith_normal_form(block)
        diag = [d[k][k] if k < len(rest) else 0 for k in range(len(free))]
        mix = [[(m, x) for m, x in enumerate(row) if x] for row in u]
        block_rank = sum(1 for f in diag if f)
        residual_kernel = [[row[k] for row in v] for k in range(block_rank, len(rest))]
    else:
        diag = [0] * len(free)
        mix = [[(k, 1)] for k in range(len(free))]
        residual_kernel = [[int(i == k) for i in range(len(rest))] for k in range(len(rest))]
    coker_rows = []
    for f, combo in zip(diag, mix):
        if f != 1:
            vec = [0] * len(iota[0])
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
    coker = FgAbelianGroup(rows - rank, tuple(f for f in diag if f > 1))
    return coker, coker_rows, kernel


def coordinates_are_unimodular(basis, other):
    """Does every vector of basis lie in the lattice spanned by other, with a
    unimodular coordinate matrix?"""
    if len(basis) != len(other):
        return False
    if not basis:
        return True
    other_mat = [list(row) for row in zip(*other)]
    coords = [solve(other_mat, vec) for vec in basis]
    return None not in coords and abs(determinant(coords)) == 1


def random_factor_cases(rng, count):
    entries = (0, 0, 0, 1, -1, 2, -2, 3, -4)
    no_unit = (0, 0, 2, -2, 3, -4)
    for n in range(count):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        m = [[rng.choice(no_unit if n % 4 == 0 else entries) for _ in range(cols)]
             for _ in range(rows)]
        if n % 4 == 1:  # a trailing block with no unit entry
            r0, c0 = rng.randrange(rows), rng.randrange(cols)
            for i in range(r0, rows):
                for j in range(c0, cols):
                    m[i][j] = rng.choice(no_unit)
        if n % 3 == 2:  # a zero row and a zero column
            m[rng.randrange(rows)] = [0] * cols
            j = rng.randrange(cols)
            for row in m:
                row[j] = 0
        yield m


def test_sparse_factor_matches_dense_factor(monkeypatch):
    import bisys.ktheory as kt

    residual_snfs = []
    real_snf = kt.smith_normal_form
    monkeypatch.setattr(kt, "smith_normal_form", lambda m: residual_snfs.append(m) or real_snf(m))
    rng = random.Random(61)
    seen = Counter()
    for theta_a in random_factor_cases(rng, 160):
        rows = len(theta_a)
        # theta_b = t theta_a beside some extra columns, so t carries
        # im(theta_a) into im(theta_b); a t made of row operations is
        # unimodular, a random one mostly not
        t = [[int(i == j) for j in range(rows)] for i in range(rows)]
        if rng.random() < 0.5:
            for _ in range(rows):
                if rows > 1:
                    i, j = rng.sample(range(rows), 2)
                    t[i] = [x + rng.choice((-1, 1)) * y for x, y in zip(t[i], t[j])]
        else:
            t = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(rows)] for _ in range(rows)]
        extra = rng.choice((0, 0, 1, 2))
        theta_b = [
            row + [rng.choice((0, 1, -2, 3)) for _ in range(extra)]
            for row in mat_mul(t, theta_a)
        ]
        for theta in (theta_a, theta_b):
            residual_snfs.clear()
            sparse = factor(theta)
            took_residual = bool(residual_snfs)
            # the same pivots and the same arithmetic as before: equal, not
            # only equivalent
            assert isinstance(sparse, _Factored)
            assert (sparse.coker, sparse.coker_rows(rows_of(t), rows), sparse.kernel) == (
                parent_factor(theta, t)), theta
            _, _, coker, kernel = dense_factor(theta)
            assert sparse.coker == coker, theta
            assert len(sparse.kernel) == len(kernel), theta
            assert all(not any(mat_vec(theta, x)) for x in sparse.kernel), theta
            assert coordinates_are_unimodular(sparse.kernel, kernel), theta
            assert coordinates_are_unimodular(kernel, sparse.kernel), theta
            seen["residual" if took_residual else "units only"] += 1
        verdict = cokernel_verdict(theta_a, theta_b, t)
        assert verdict == dense_cokernel_verdict(theta_a, theta_b, t), (theta_a, theta_b, t)
        assert verdict == reference_cokernel_map_is_iso(theta_a, theta_b, t), (theta_a, theta_b, t)
        seen[verdict] += 1
    # both elimination paths and both verdicts occur
    assert seen["residual"] and seen["units only"] and seen[True] and seen[False], seen


# -- the pivot queue against the scan it replaced


def assert_factor_matches_scan(theta, cols):
    new, old = _factor(theta, cols), oracles.scan_factor(theta, cols)
    assert new.coker == old.coker, theta
    assert new.nullity == len(old.kernel), theta
    assert new.ops == old.ops, theta
    assert new.residual == old.residual, theta
    assert new.kernel == old.kernel, theta
    return len(new.ops)


def random_sparse_rows(rng, rows, cols):
    """Rows of a sparse matrix with many units, so pivots fill in and cancel."""
    return [
        {j: rng.choice((1, -1, 1, -1, 2, -3)) for j in range(cols) if rng.random() < 0.15}
        for _ in range(rows)
    ]


def test_pivot_queue_matches_the_scan(monkeypatch):
    """Seeded: every field of the factorization equals the one made by the
    scan for the least-cost unit pivot, on random matrices (blocks with no
    unit, zero rows and columns, larger sparse ones), on every factorization
    the bench's K-tower jobs make, on the full 3-shift's plus ladder and on
    the 3x3 all-ones import's plus ladder.  A K-tower pass builds a kernel
    only for the kernel verdicts that read one, never for an image matrix,
    and makes at most 15 dense Smith normal forms."""
    import bisys.ktheory as kt

    rng = random.Random(83)
    pivots = 0
    for m in random_factor_cases(rng, 240):
        pivots += assert_factor_matches_scan(rows_of(m), len(m[0]))
    for _ in range(60):
        rows, cols = rng.randint(1, 40), rng.randint(1, 40)
        pivots += assert_factor_matches_scan(random_sparse_rows(rng, rows, cols), cols)
    assert pivots > 1000, pivots

    made = []  # (theta, cols, factorization, made inside a verdict) for every call
    inside = []

    def recorded(theta, cols):
        made.append((theta, cols, real_factor(theta, cols), bool(inside)))
        return made[-1][2]

    def verdict(fn):
        def call(*args):
            inside.append(True)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return call

    real_factor = kt._factor
    monkeypatch.setattr(kt, "_factor", recorded)
    for name in ("_cokernel_map_is_iso", "_kernel_map_is_iso"):
        monkeypatch.setattr(kt, name, verdict(getattr(kt, name)))
    dense_snfs = []
    real_snf = kt.smith_normal_form
    monkeypatch.setattr(kt, "smith_normal_form", lambda m: dense_snfs.append(m) or real_snf(m))
    monkeypatch.syspath_prepend(os.path.join(HERE, "..", "bench"))
    gaps = verdicts = 0
    calls = []
    for b, side in ktower_bisystems():
        made.clear()
        res = k_groups(b, side)
        ladder = [f for _, _, f, in_verdict in made if not in_verdict]
        assert [f.nullity for f in ladder] == [g1.free_rank for _, g1 in res.levels]
        # a kernel is built for a kernel verdict whose two ranks are equal
        # and positive, and for nothing else
        read = [lo.nullity == hi.nullity > 0 for lo, hi in zip(ladder, ladder[1:])]
        assert ["kernel" in vars(f) for f in ladder] == read + [False], side
        assert not any("kernel" in vars(f) for _, _, f, in_verdict in made if in_verdict)
        gaps += len(read)
        verdicts += sum(read)
        calls += made
    assert (gaps, verdicts, len(calls)) == (124, 40, 230) and len(dense_snfs) <= 15, (
        gaps, verdicts, len(calls), len(dense_snfs))
    for theta, cols, _, _ in calls:
        assert_factor_matches_scan(theta, cols)

    full3 = from_lambda_graph_system(
        load_document(os.path.join(HERE, "..", "docs", "examples", "full3.lgs.json"), 6)[2])
    ones = from_lambda_graph_system(lgs_from_matrix([[1, 1, 1]] * 3, depth=5))
    for b in (full3, ones):
        ladder = build_ladder(b, "plus")
        for l in range(ladder.depth):
            assert_factor_matches_scan(ladder.theta(l), len(ladder.bases[l]))
