import math
import random
from collections import Counter
from itertools import combinations

import pytest

from bisys.bisystem import from_lambda_graph_system, lgs_from_matrix
from bisys.canonical import canonical_bisystem
from bisys.ktheory import (
    FgAbelianGroup,
    KResult,
    KtheoryError,
    _cokernel_map_is_iso,
    _factor,
    _kernel_map_is_iso,
    build_ladder,
    ck_oracle,
    cokernel,
    determinant,
    k_groups,
    kernel_basis,
    kernel_contains_constant,
    mat_mul,
    mat_vec,
    smith_diagonal,
    smith_normal_form,
    solve,
)
from fixtures import (
    even_shift_pres,
    full_n_lgs,
    full_shift_pres,
    golden_mean_lgs,
    golden_mean_pres,
    random_irreducible_01,
    two_power_split_bisystem,
)


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
        assert lad.iota[l] == [[1, 0], [0, 1]]
        assert lad.rho[l] == [[a[j][i] for j in range(2)] for i in range(2)]


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
    for mat in lad.iota:
        for row in mat:
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


def reference_k_groups(b, side, depth):
    """The tower with every group and connecting map computed on its own."""
    ladder = build_ladder(b, side)
    depth = min(depth, ladder.depth)
    thetas = [ladder.theta(l) for l in range(depth)]
    levels = tuple(
        (cokernel(th, len(ladder.bases[l + 1])), FgAbelianGroup(len(kernel_basis(th))))
        for l, th in enumerate(thetas)
    )
    inter_ok = all(
        mat_mul(ladder.iota[l + 1], ladder.rho[l]) == mat_mul(ladder.rho[l + 1], ladder.iota[l])
        for l in range(depth - 1)
    )
    connecting = tuple(
        (
            reference_cokernel_map_is_iso(thetas[l], thetas[l + 1], ladder.iota[l + 1]),
            reference_kernel_map_is_iso(thetas[l], thetas[l + 1], ladder.iota[l]),
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


def tower_cases():
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
    return cases


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_k_groups_matches_per_query_reference(side):
    for name, b in tower_cases():
        # to depth 5, less where the ladder passes 100 basis words: the
        # reference's per-query SNFs on a 4x4 import's 763-word plus ladder
        # take tens of seconds
        dims = [len(basis) for basis in build_ladder(b, side).bases]
        depth = max(d for d in range(1, 6) if d < len(dims) and dims[d] <= 100)
        assert k_groups(b, side, depth) == reference_k_groups(b, side, depth), name


def cokernel_verdict(theta_a, theta_b, t):
    return _cokernel_map_is_iso(_factor(theta_a), _factor(theta_b, t))


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
        a, b = _factor(theta_a), _factor(theta_b)
        factorized.clear()
        verdict = _kernel_map_is_iso(a, b, t)
        # one factorization of the kernel basis, however many kernel vectors
        assert len(factorized) <= 1
        assert verdict == reference_kernel_map_is_iso(theta_a, theta_b, t), (theta_a, theta_b, t)
        seen[verdict, len(b.kernel) > 1] += 1
    assert seen[True, True] and seen[False, True]


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
            sparse = _factor(theta, t)
            took_residual = bool(residual_snfs)
            _, _, coker, kernel = dense_factor(theta)
            assert sparse.coker == coker, theta
            assert len(sparse.kernel) == len(kernel), theta
            assert all(not any(mat_vec(theta, x)) for x in sparse.kernel), theta
            assert coordinates_are_unimodular(sparse.kernel, kernel), theta
            assert coordinates_are_unimodular(kernel, sparse.kernel), theta
            seen["residual" if took_residual else "units only"] += 1
        verdict = _cokernel_map_is_iso(_factor(theta_a), _factor(theta_b, t))
        assert verdict == dense_cokernel_verdict(theta_a, theta_b, t), (theta_a, theta_b, t)
        assert verdict == reference_cokernel_map_is_iso(theta_a, theta_b, t), (theta_a, theta_b, t)
        seen[verdict] += 1
    # both elimination paths and both verdicts occur
    assert seen["residual"] and seen["units only"] and seen[True] and seen[False], seen
