import functools
import random
from collections import Counter
from dataclasses import replace

import pytest

from bisys.core import (
    Alphabet,
    CoreError,
    FormalSum,
    Specification,
    SymbolicMatrix,
    kappa_matrix,
    specified_equivalence_failure,
    symbolic_matrix_multiply,
)
from bisys.bisystem import presented_words
from bisys.canonical import canonical_smb
from bisys.cli.documents import dump_document
from bisys.equivalence import (
    EquivalenceError,
    PsseWitness,
    SseWitness,
    VerifyReport,
    bipartite_split,
    conjugacy_block_map,
    detect_bipartite,
    psse_to_sse,
    trivial_psse_witness,
    verify_psse_1step,
    verify_sse_1step,
)
from bisys.smb import SymbolicMatrixBisystem, from_smb
from bisys.subshift import LabeledGraph, SubshiftPresentation, apply_block_code
from fixtures import (
    alternating_pres,
    even_shift_pres,
    full_shift_pres,
    golden_mean_pres,
)
import oracles


def fixture_systems():
    return {
        "golden": canonical_smb(golden_mean_pres(), 5),
        "even": canonical_smb(even_shift_pres(), 5),
        "full2": canonical_smb(full_shift_pres(2), 5),
    }


def test_trivial_witness_verifies_everywhere():
    for name, s in fixture_systems().items():
        w = trivial_psse_witness(s)
        rep = verify_psse_1step(s, s, w)
        assert rep.ok, (name, rep.failures)


def test_corrupted_witness_fails_at_named_level():
    s = canonical_smb(golden_mean_pres(), 5)
    w = trivial_psse_witness(s)
    bad_x = list(w.x_mats)
    m = bad_x[4]
    grid = [list(row) for row in m.entries]
    grid[0][0] = FormalSum.zero()
    bad_x[4] = SymbolicMatrix(m.rows, m.cols, tuple(tuple(r) for r in grid), m.alphabet)
    broken = PsseWitness(
        w.alphabet_c, w.alphabet_d, w.phi_m, w.phi_n,
        w.p_mats, w.q_mats, tuple(bad_x), w.y_mats,
    )
    rep = verify_psse_1step(s, s, broken)
    assert not rep.ok
    assert any(lvl in (2, 3, 4) for (_, lvl, _) in rep.failures)


def test_detect_bipartite_alternating():
    s = canonical_smb(alternating_pres(), 6)
    bip = detect_bipartite(s)
    assert bip is not None
    assert bip.alphabet_c.symbols == (("a",),)
    assert bip.alphabet_d.symbols == (("b",),)


def test_detect_bipartite_absent_for_golden_mean():
    assert detect_bipartite(canonical_smb(golden_mean_pres(), 5)) is None


def two_power(states, edges):
    """The graph doubled into even and odd copies, labels marked c on
    even-to-odd edges and d on odd-to-even ones."""
    doubled = tuple(s + p for s in states for p in "eo")
    return SubshiftPresentation.from_graph(LabeledGraph(doubled, tuple(
        (s + p, t + q, a + m) for (s, t, a) in edges for p, q, m in (("e", "o", "c"), ("o", "e", "d"))
    )))


def two_power_alternation_pres():
    """The two-power alternation of the golden-mean graph."""
    return two_power(("1", "2"), (("1", "1", "1"), ("1", "2", "2"), ("2", "1", "1")))


def alternating_graph_pres(a_labels, b_labels):
    """Two states; the labels a_labels go from 1 to 2, b_labels back."""
    edges = [("1", "2", a) for a in a_labels] + [("2", "1", b) for b in b_labels]
    return SubshiftPresentation.from_graph(LabeledGraph(("1", "2"), tuple(edges)))


def random_graph(rng, labels):
    """Seeded 1-3 state graph: a cycle through every state, then each
    (source, target, label) edge with probability 1/5."""
    states = tuple(str(i + 1) for i in range(rng.randint(1, 3)))
    order = rng.sample(states, len(states))
    edges = {(s, order[(k + 1) % len(order)], rng.choice(labels)) for k, s in enumerate(order)}
    edges |= {(s, t, a) for s in states for t in states for a in labels if rng.random() < 0.2}
    return states, tuple(sorted(edges))


def planted_system(rng):
    """Seeded matrix system whose terms obey a planted symbol and vertex
    colouring, with multiplicities, unused symbols and unreached vertices;
    some get stray terms that break the colouring, a second top vertex or
    a minus alphabet of their own."""
    symbols = [(f"s{k}",) for k in range(rng.randint(1, 6))]
    tone = {w: rng.randint(0, 1) for w in symbols}
    depth = rng.randint(1, 4)
    sizes = [2 if rng.random() < 0.05 else 1] + [rng.randint(1, 3) for _ in range(depth)]
    tones = [[rng.randint(0, 1) for _ in range(n)] for n in sizes]
    density, stray = rng.choice((0.3, 0.6, 0.9)), rng.choice((0, 0, 0, 0.05, 0.2))
    sigma = Alphabet(tuple(symbols))
    sigma_minus = Alphabet(tuple(symbols) + (("t",),)) if rng.random() < 0.03 else sigma

    def block(l, plus):
        # a plus term runs from its symbol's colour to the other; a minus term
        # stays in its symbol's colour on odd blocks and in the other on even ones
        near, far = (0, 1) if plus else (1 - l % 2,) * 2

        def cell(i, j):
            def fits(t):
                return (not l or tones[l][i] == t ^ near) and tones[l + 1][j] == t ^ far
            return FormalSum({w: rng.choice((1, 1, 1, 2)) for w in symbols
                              if rng.random() < (density if fits(tone[w]) else stray)})
        return SymbolicMatrix.build(sizes[l], sizes[l + 1], sigma if plus else sigma_minus, cell)

    minus = tuple(block(l, False) for l in range(depth))
    plus = tuple(block(l, True) for l in range(depth))
    return SymbolicMatrixBisystem(minus, plus, sigma_minus, sigma)


@functools.cache
def bipartite_cases():
    """The systems of the differential test, built once for the module:
    canonical builds of random graphs over 1-5 labels and of the two-power
    doubles of some, alternating shifts, and planted matrix systems."""
    rng = random.Random(29)
    cases = []
    for _ in range(32):
        g = random_graph(rng, "abcde"[: rng.randint(1, 5)])
        depth = 2 if len(g[0]) == 3 else 3  # 3 states at depth 3 reach about 50 vertices a level
        cases.append(canonical_smb(SubshiftPresentation.from_graph(LabeledGraph(*g)), depth))
        if len(g[1]) <= 5 and len({a for (_, _, a) in g[1]}) <= 3:
            cases.append(canonical_smb(two_power(*g), rng.randint(2, 3)))
    for m in range(1, 4):
        for n in range(1, 4):
            cases.append(canonical_smb(alternating_graph_pres("abc"[:m], "xyz"[:n]), m + n))
    cases += [planted_system(rng) for _ in range(345)]
    return tuple(cases)


def test_detect_bipartite_matches_mask_search_oracle():
    found = []
    for k, s in enumerate(bipartite_cases()):
        want = oracles.detect_bipartite(s)
        assert detect_bipartite(s) == want, k
        found.append(want is not None)
    assert len(found) >= 400 and sum(found) >= 80, (len(found), sum(found))


def test_detect_bipartite_wide_alphabets():
    # the mask search would try 2^18 - 2 colourings here
    assert detect_bipartite(canonical_smb(full_shift_pres(18), 3)) is None
    a_letters = [f"a{k:02}" for k in range(12)]
    s = canonical_smb(alternating_graph_pres(a_letters, [f"b{k:02}" for k in range(12)]), 3)
    bip = detect_bipartite(s)
    assert bip.alphabet_c.symbols == tuple((a,) for a in a_letters)


def test_detect_bipartite_two_power_alternation():
    s = canonical_smb(two_power_alternation_pres(), 6)
    bip = detect_bipartite(s)
    assert bip is not None
    s_cd, s_dc, w = bipartite_split(s, bip)
    assert verify_psse_1step(s_cd, s_dc, w).ok


def test_bipartite_split_alternating_gives_full_one_shifts():
    s = canonical_smb(alternating_pres(), 6)
    s_cd, s_dc, w = bipartite_split(s, detect_bipartite(s))
    for sysm, word in ((s_cd, ("a", "b")), (s_dc, ("b", "a"))):
        assert sysm.level_sizes == (1, 1, 1, 1)
        for m in sysm.minus + sysm.plus:
            assert m.entry(0, 0) == FormalSum.of(word)
    assert verify_psse_1step(s_cd, s_dc, w).ok


def test_split_blocks_satisfy_block_intertwinings():
    s = canonical_smb(alternating_pres(), 6)
    bip = detect_bipartite(s)
    for l in range(1, s.depth - 1, 2):  # odd parent levels
        lhs = symbolic_matrix_multiply(bip.y_blocks[l], bip.p_blocks[l + 1])
        rhs = symbolic_matrix_multiply(bip.p_blocks[l], bip.y_blocks[l + 1])
        assert kappa_matrix(lhs).same_entries(rhs)
        lhs = symbolic_matrix_multiply(bip.x_blocks[l], bip.q_blocks[l + 1])
        rhs = symbolic_matrix_multiply(bip.q_blocks[l], bip.x_blocks[l + 1])
        assert kappa_matrix(lhs).same_entries(rhs)
    for l in range(0, s.depth - 1, 2):  # even parent levels
        lhs = symbolic_matrix_multiply(bip.x_blocks[l], bip.p_blocks[l + 1])
        rhs = symbolic_matrix_multiply(bip.p_blocks[l], bip.x_blocks[l + 1])
        assert kappa_matrix(lhs).same_entries(rhs)
        lhs = symbolic_matrix_multiply(bip.y_blocks[l], bip.q_blocks[l + 1])
        rhs = symbolic_matrix_multiply(bip.q_blocks[l], bip.y_blocks[l + 1])
        assert kappa_matrix(lhs).same_entries(rhs)


def test_psse_to_sse_shapes_and_verification():
    s = canonical_smb(golden_mean_pres(), 5)
    w = trivial_psse_witness(s)
    sw = psse_to_sse(w)
    sizes = s.level_sizes
    for l, h in enumerate(sw.h_mats):
        assert (h.rows, h.cols) == (sizes[l], sizes[l + 1])
    assert verify_sse_1step(s, s, sw).ok

    s_alt = canonical_smb(alternating_pres(), 6)
    s_cd, s_dc, w2 = bipartite_split(s_alt, detect_bipartite(s_alt))
    assert verify_sse_1step(s_cd, s_dc, psse_to_sse(w2)).ok


def test_sse_corrupted_h_fails_with_level():
    s = canonical_smb(golden_mean_pres(), 5)
    sw = psse_to_sse(trivial_psse_witness(s))
    bad_h = list(sw.h_mats)
    m = bad_h[2]
    grid = [list(row) for row in m.entries]
    spots = [
        (i, j) for i in range(m.rows) for j in range(m.cols)
        if not m.entry(i, j).is_zero
    ]
    i0, j0 = spots[0]
    grid[i0][j0] = FormalSum.zero()
    bad_h[2] = SymbolicMatrix(m.rows, m.cols, tuple(tuple(r) for r in grid), m.alphabet)
    from bisys.equivalence import SseWitness

    broken = SseWitness(
        sw.alphabet_c, sw.alphabet_d, sw.phi1, sw.phi2,
        sw.phi_c_plus, sw.phi_d_plus, sw.phi_c_minus, sw.phi_d_minus,
        tuple(bad_h), sw.k_mats,
    )
    rep = verify_sse_1step(s, s, broken)
    assert not rep.ok
    assert any(lvl in (1, 2) for (_, lvl, _) in rep.failures)


def test_block_code_trivial_witness_drops_a_letter():
    s = canonical_smb(golden_mean_pres(), 5)
    w = trivial_psse_witness(s)
    code = conjugacy_block_map(s, s, w)
    b = from_smb(s)
    for n in range(2, 6):
        for word in presented_words(b, "plus", n):
            assert apply_block_code(code, word) == word[1:]


def test_block_code_images_admissible():
    s_alt = canonical_smb(alternating_pres(), 6)
    s_cd, s_dc, w = bipartite_split(s_alt, detect_bipartite(s_alt))
    code = conjugacy_block_map(s_cd, s_dc, w)
    b_cd, b_dc = from_smb(s_cd), from_smb(s_dc)
    for n in range(2, 4):
        langn = presented_words(b_cd, "plus", n)
        target = set(presented_words(b_dc, "plus", n - 1))
        for word in langn:
            assert apply_block_code(code, word) in target


def test_block_code_round_composition_is_shift():
    s_alt = canonical_smb(alternating_pres(), 6)
    s_cd, s_dc, w = bipartite_split(s_alt, detect_bipartite(s_alt))
    fwd = conjugacy_block_map(s_cd, s_dc, w)
    back = conjugacy_block_map(s_dc, s_cd, w.swapped())
    b_cd = from_smb(s_cd)
    for word in presented_words(b_cd, "plus", 3):
        image = apply_block_code(fwd, word)
        again = apply_block_code(back, image)
        assert again == word[2:-2]  # one chunk trimmed at each end


def test_block_code_requires_verified_witness():
    s = canonical_smb(golden_mean_pres(), 5)
    w = trivial_psse_witness(s)
    bad_q = list(w.q_mats)
    m = bad_q[1]
    grid = [list(row) for row in m.entries]
    grid[0][0] = FormalSum.zero()
    bad_q[1] = SymbolicMatrix(m.rows, m.cols, tuple(tuple(r) for r in grid), m.alphabet)
    broken = PsseWitness(
        w.alphabet_c, w.alphabet_d, w.phi_m, w.phi_n,
        w.p_mats, tuple(bad_q), w.x_mats, w.y_mats,
    )
    with pytest.raises(EquivalenceError):
        conjugacy_block_map(s, s, broken)


def test_conversion_after_corrupt_then_repair():
    s = canonical_smb(golden_mean_pres(), 5)
    w = trivial_psse_witness(s)
    grid = [list(row) for row in w.y_mats[2].entries]
    original = grid[0][0]
    grid[0][0] = FormalSum.zero()
    damaged = list(w.y_mats)
    damaged[2] = SymbolicMatrix(
        w.y_mats[2].rows, w.y_mats[2].cols, tuple(tuple(r) for r in grid),
        w.y_mats[2].alphabet,
    )
    broken = PsseWitness(
        w.alphabet_c, w.alphabet_d, w.phi_m, w.phi_n,
        w.p_mats, w.q_mats, w.x_mats, tuple(damaged),
    )
    assert not verify_psse_1step(s, s, broken).ok
    grid[0][0] = original
    repaired = list(w.y_mats)
    repaired[2] = SymbolicMatrix(
        w.y_mats[2].rows, w.y_mats[2].cols, tuple(tuple(r) for r in grid),
        w.y_mats[2].alphabet,
    )
    fixed = PsseWitness(
        w.alphabet_c, w.alphabet_d, w.phi_m, w.phi_n,
        w.p_mats, w.q_mats, w.x_mats, tuple(repaired),
    )
    assert verify_psse_1step(s, s, fixed).ok
    assert verify_sse_1step(s, s, psse_to_sse(fixed)).ok


# -- the verifiers and the conversion with every M/N twin written out by hand,
# kept as the oracle for the versions that derive the N side from the M side


def oracle_verify_psse_1step(s_m, s_n, w, depth=None):
    depth = min(depth if depth is not None else s_m.depth, s_m.depth, s_n.depth)
    if len(w.p_mats) < 2 * depth:
        return VerifyReport(False, depth, (("shape", len(w.p_mats), (
            f"witness covers {len(w.p_mats)} of the {2 * depth} half-levels depth {depth} needs"
        )),))
    failures = []
    m_sizes, n_sizes = s_m.level_sizes, s_n.level_sizes
    for idx in range(min(w.levels, 2 * depth)):
        l, odd = divmod(idx, 2)
        if not odd:
            if w.p_mats[idx].rows != m_sizes[l]:
                failures.append(("shape", idx, f"P_{idx} must have {m_sizes[l]} rows"))
            if w.q_mats[idx].rows != n_sizes[l]:
                failures.append(("shape", idx, f"Q_{idx} must have {n_sizes[l]} rows"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))

    def eq(family, level, lhs_fn, rhs_fn, spec=None):
        try:
            lhs, rhs = lhs_fn(), rhs_fn()
        except CoreError as e:
            failures.append((family, level, str(e)))
            return
        if spec is None:
            if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
                failures.append((family, level, "shape mismatch"))
                return
            try:
                k = kappa_matrix(lhs)
            except CoreError as e:
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
    P, Q, X, Y = w.p_mats, w.q_mats, w.x_mats, w.y_mats
    for l in range(depth):
        if 2 * l + 1 >= w.levels:
            break
        a, b = 2 * l, 2 * l + 1
        eq("plus-factorisation(M)", l, lambda: s_m.plus[l], lambda: mul(P[a], Q[b]), w.phi_m)
        eq("plus-factorisation(N)", l, lambda: s_n.plus[l], lambda: mul(Q[a], P[b]), w.phi_n)
        eq("minus-factorisation(M)", l, lambda: s_m.minus[l], lambda: mul(X[a], Y[b]), kphi_m)
        eq("minus-factorisation(N)", l, lambda: s_n.minus[l], lambda: mul(Y[a], X[b]), kphi_n)
    for a in range(min(w.levels - 1, 2 * depth - 1)):
        b = a + 1
        if a % 2 == 1:
            eq("intertwine YP", a, lambda: mul(Y[a], P[b]), lambda: mul(P[a], Y[b]))
            eq("intertwine XQ", a, lambda: mul(X[a], Q[b]), lambda: mul(Q[a], X[b]))
        else:
            eq("intertwine XP", a, lambda: mul(X[a], P[b]), lambda: mul(P[a], X[b]))
            eq("intertwine YQ", a, lambda: mul(Y[a], Q[b]), lambda: mul(Q[a], Y[b]))
    failures.sort(key=lambda t: (t[1], t[0]))
    return VerifyReport(not failures, depth, tuple(failures))


def oracle_verify_sse_1step(s_m, s_n, w, depth=None):
    depth = min(depth if depth is not None else s_m.depth, s_m.depth, s_n.depth)
    if len(w.h_mats) < depth:
        return VerifyReport(False, depth, (("shape", len(w.h_mats), (
            f"witness covers {len(w.h_mats)} of the {depth} levels depth {depth} needs"
        )),))
    failures = []
    m_sizes, n_sizes = s_m.level_sizes, s_n.level_sizes
    for l in range(min(w.levels, depth)):
        h, k = w.h_mats[l], w.k_mats[l]
        if (h.rows, h.cols) != (m_sizes[l], n_sizes[l + 1]):
            failures.append(("shape", l, f"H_{l} is not {m_sizes[l]}x{n_sizes[l+1]}"))
        if (k.rows, k.cols) != (n_sizes[l], m_sizes[l + 1]):
            failures.append(("shape", l, f"K_{l} is not {n_sizes[l]}x{m_sizes[l+1]}"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))
    mul = symbolic_matrix_multiply
    H, K = w.h_mats, w.k_mats
    for l in range(depth - 1):
        if l + 1 >= w.levels:
            break
        for family, lhs, rhs, spec in (
            ("square-factorisation(M)", mul(s_m.minus[l], s_m.plus[l + 1]),
             mul(H[l], K[l + 1]), w.phi1),
            ("square-factorisation(N)", mul(s_n.minus[l], s_n.plus[l + 1]),
             mul(K[l], H[l + 1]), w.phi2),
            ("plus-intertwine(M)", mul(s_m.plus[l], H[l + 1]),
             mul(H[l], s_n.plus[l + 1]), w.phi_c_plus),
            ("plus-intertwine(N)", mul(s_n.plus[l], K[l + 1]),
             mul(K[l], s_m.plus[l + 1]), w.phi_d_plus),
            ("minus-intertwine(M)", mul(s_m.minus[l], H[l + 1]),
             mul(H[l], s_n.minus[l + 1]), w.phi_c_minus),
            ("minus-intertwine(N)", mul(s_n.minus[l], K[l + 1]),
             mul(K[l], s_m.minus[l + 1]), w.phi_d_minus),
        ):
            msg = specified_equivalence_failure(lhs, rhs, spec)
            if msg is not None:
                failures.append((family, l, msg))
    failures.sort(key=lambda t: (t[1], t[0]))
    return VerifyReport(not failures, depth, tuple(failures))


def oracle_psse_to_sse(w):
    kc, kd = w.alphabet_c.word_length, w.alphabet_d.word_length
    phi_m, phi_n = w.phi_m.as_dict(), w.phi_n.as_dict()
    kphi_m = {s: d[kc:] + d[:kc] for s, d in phi_m.items()}
    kphi_n = {s: d[kd:] + d[:kd] for s, d in phi_n.items()}
    inv_phi_m = {v: s for s, v in phi_m.items()}
    inv_phi_n = {v: s for s, v in phi_n.items()}
    inv_kphi_m = {v: s for s, v in kphi_m.items()}
    inv_kphi_n = {v: s for s, v in kphi_n.items()}
    c_sse = Alphabet.product(w.alphabet_d, w.alphabet_c)
    d_sse = Alphabet.product(w.alphabet_c, w.alphabet_d)
    if len(w.p_mats) < 2:
        raise EquivalenceError("witness too short to convert")

    def cast(m, alph):
        return SymbolicMatrix(m.rows, m.cols, m.entries, alph)

    half = range(len(w.p_mats) // 2)
    mul = symbolic_matrix_multiply
    h_mats = tuple(cast(mul(w.x_mats[2 * l], w.p_mats[2 * l + 1]), c_sse) for l in half)
    k_mats = tuple(cast(mul(w.y_mats[2 * l], w.q_mats[2 * l + 1]), d_sse) for l in half)
    phi1, phi2 = {}, {}
    for b, bw in kphi_m.items():
        for a, aw in phi_m.items():
            phi1[b + a] = bw[:kd] + aw[:kc] + bw[kd:] + aw[kc:]
    for b, bw in kphi_n.items():
        for a, aw in phi_n.items():
            phi2[b + a] = bw[:kc] + aw[:kd] + bw[kc:] + aw[kd:]
    phi_c_plus, phi_d_plus, phi_c_minus, phi_d_minus = {}, {}, {}, {}
    for a, aw in phi_m.items():
        for h in c_sse.symbols:
            if aw[kc:] + h[kd:] in inv_phi_n:
                phi_c_plus[a + h] = h[:kd] + aw[:kc] + inv_phi_n[aw[kc:] + h[kd:]]
    for a, aw in phi_n.items():
        for k in d_sse.symbols:
            if aw[kd:] + k[kc:] in inv_phi_m:
                phi_d_plus[a + k] = k[:kc] + aw[:kd] + inv_phi_m[aw[kd:] + k[kc:]]
    for b, bw in kphi_m.items():
        for h in c_sse.symbols:
            if bw[kd:] + h[:kd] in inv_kphi_n:
                phi_c_minus[b + h] = bw[:kd] + h[kd:] + inv_kphi_n[bw[kd:] + h[:kd]]
    for b, bw in kphi_n.items():
        for k in d_sse.symbols:
            if bw[kc:] + k[:kc] in inv_kphi_m:
                phi_d_minus[b + k] = bw[:kc] + k[kc:] + inv_kphi_m[bw[kc:] + k[:kc]]
    spec = Specification.from_dict
    return SseWitness(c_sse, d_sse, spec(phi1), spec(phi2), spec(phi_c_plus),
                      spec(phi_d_plus), spec(phi_c_minus), spec(phi_d_minus), h_mats, k_mats)


def mutant_matrix(m, rng):
    """m with one term of one cell dropped, duplicated or replaced, or with its
    last row or column cut off."""
    grid = [list(row) for row in m.entries]
    op = rng.choice(("drop", "duplicate", "replace", "replace", "cut"))
    if op == "cut":
        if m.rows > 1 and rng.random() < 0.5:
            return SymbolicMatrix(m.rows - 1, m.cols, tuple(map(tuple, grid[:-1])), m.alphabet)
        if m.cols > 1:
            return SymbolicMatrix(m.rows, m.cols - 1, tuple(tuple(r[:-1]) for r in grid),
                                  m.alphabet)
    cells = [(i, j) for i in range(m.rows) for j in range(m.cols)]
    i, j = rng.choice([c for c in cells if not m.entry(*c).is_zero] or cells)
    terms = [w for w, c in grid[i][j].items() for _ in range(c)]
    k = rng.randrange(len(terms)) if terms else 0
    if op == "drop" and terms:
        del terms[k]
    elif op == "duplicate" and terms:
        terms.append(terms[k])
    else:
        terms[k:k + 1] = [rng.choice(m.alphabet.symbols)]
    grid[i][j] = FormalSum(terms)
    return SymbolicMatrix(m.rows, m.cols, tuple(map(tuple, grid)), m.alphabet)


def mutant_witness(w, families, rng):
    """w with one matrix of one of its families replaced by a mutant."""
    fam = rng.choice(families)
    mats = list(getattr(w, fam))
    k = rng.randrange(len(mats))
    mats[k] = mutant_matrix(mats[k], rng)
    return replace(w, **{fam: tuple(mats)})


def witness_cases():
    """(s_m, s_n, w): self-witnesses of the fixture systems and the witnesses
    of bipartite splits."""
    cases = []
    for pres, depth in ((golden_mean_pres(), 4), (even_shift_pres(), 3), (full_shift_pres(2), 4)):
        s = canonical_smb(pres, depth)
        cases.append((s, s, trivial_psse_witness(s)))
    for pres in (alternating_pres(), two_power_alternation_pres()):
        s = canonical_smb(pres, 6)
        cases.append(bipartite_split(s, detect_bipartite(s)))
    return cases


PSSE_FAMILIES = ("p_mats", "q_mats", "x_mats", "y_mats")
SSE_FAMILIES = ("h_mats", "k_mats")


def truncated(w, families, k):
    """w with only the first k matrices of each family."""
    return replace(w, **{fam: getattr(w, fam)[:k] for fam in families})


def test_verifiers_and_conversion_match_the_hand_mirrored_oracle():
    rng = random.Random(5)
    failed = set()
    for s_m, s_n, w in witness_cases():
        for v in [w] + [mutant_witness(w, PSSE_FAMILIES, rng) for _ in range(6)]:
            rep = verify_psse_1step(s_m, s_n, v)
            assert rep == oracle_verify_psse_1step(s_m, s_n, v)
            assert dump_document("sse_witness", "v", psse_to_sse(v)) == dump_document(
                "sse_witness", "v", oracle_psse_to_sse(v))
            failed |= {fam for fam, _, _ in rep.failures}
        assert verify_psse_1step(s_m, s_n, w, 2) == oracle_verify_psse_1step(s_m, s_n, w, 2)
        sw = psse_to_sse(w)
        for v in [sw] + [mutant_witness(sw, SSE_FAMILIES, rng) for _ in range(4)]:
            rep = verify_sse_1step(s_m, s_n, v)
            assert rep == oracle_verify_sse_1step(s_m, s_n, v)
            failed |= {fam for fam, _, _ in rep.failures}
        # witnesses shorter than the depth fail; a short one passes at depth 1
        for depth in (None, 1):
            for k in (0, 1, 2, w.levels - 1):
                v = truncated(w, PSSE_FAMILIES, k)
                rep = verify_psse_1step(s_m, s_n, v, depth)
                assert rep == oracle_verify_psse_1step(s_m, s_n, v, depth)
                assert rep.ok == (depth == 1 and k >= 2)
            for k in (0, 1, sw.levels - 1):
                v = truncated(sw, SSE_FAMILIES, k)
                rep = verify_sse_1step(s_m, s_n, v, depth)
                assert rep == oracle_verify_sse_1step(s_m, s_n, v, depth)
                assert rep.ok == (depth == 1 and k >= 1)
    assert len(failed) == 15, failed  # shape and all four plus six equation families


SWAP = str.maketrans("MNPQXY", "NMQPYX")


def test_swapped_witness_gives_the_renamed_failures():
    rng = random.Random(3)
    for s_m, s_n, w in witness_cases():
        for v in [w] + [mutant_witness(w, ("p_mats", "q_mats", "x_mats", "y_mats"), rng)
                        for _ in range(3)]:
            rep = verify_psse_1step(s_m, s_n, v)
            back = verify_psse_1step(s_n, s_m, v.swapped())
            assert v.swapped().swapped() == v
            assert (back.ok, back.checked_levels) == (rep.ok, rep.checked_levels)
            assert sorted(
                (lvl, fam.translate(SWAP), msg.translate(SWAP) if fam == "shape" else msg)
                for fam, lvl, msg in back.failures
            ) == sorted((lvl, fam, msg) for fam, lvl, msg in rep.failures)


def test_a_witness_shorter_than_the_depth_fails_and_gives_no_block_code():
    golden, even = canonical_smb(golden_mean_pres(), 6), canonical_smb(even_shift_pres(), 6)
    empty = truncated(trivial_psse_witness(golden), PSSE_FAMILIES, 0)
    rep = verify_psse_1step(golden, even, empty)
    assert rep.lines() == [
        "FAIL (checked to witness level 6)",
        "  shape at level 0: witness covers 0 of the 12 half-levels depth 6 needs",
    ]
    with pytest.raises(EquivalenceError):
        conjugacy_block_map(golden, even, empty)
    short = truncated(psse_to_sse(trivial_psse_witness(golden)), SSE_FAMILIES, 2)
    assert verify_sse_1step(golden, golden, short).failures == (
        ("shape", 2, "witness covers 2 of the 6 levels depth 6 needs"),
    )


def late_defect(w):
    """w with one cell of its last Y matrix changed, which only the checks at
    the full depth read."""
    m = w.y_mats[-1]
    grid = [list(row) for row in m.entries]
    i, j = next((i, j) for i in range(m.rows) for j in range(m.cols) if not grid[i][j].is_zero)
    grid[i][j] = FormalSum.zero()
    return replace(w, y_mats=w.y_mats[:-1] + (replace(m, entries=tuple(map(tuple, grid))),))


def test_the_verdict_cache_is_sound():
    s, e = canonical_smb(golden_mean_pres(), 4), canonical_smb(even_shift_pres(), 4)
    w = trivial_psse_witness(s)
    assert verify_psse_1step(s, s, w).ok
    # other systems, a copy of the same system, another depth: checked again
    assert not verify_psse_1step(s, e, w).ok
    with pytest.raises(EquivalenceError):
        conjugacy_block_map(s, e, w)
    assert verify_psse_1step(s, s, w).ok
    assert verify_psse_1step(s, s, w, 2).checked_levels == 2
    copy = canonical_smb(golden_mean_pres(), 4)
    assert verify_psse_1step(copy, copy, w) == verify_psse_1step(s, s, w)
    # new witnesses start without a verdict
    assert w._verified is not None
    assert replace(w)._verified is None and w.swapped()._verified is None
    assert replace(w) == w and hash(replace(w)) == hash(w)
    bad = late_defect(w)
    assert not verify_psse_1step(s, s, bad).ok
    assert verify_psse_1step(s, s, bad, 3).ok
    assert not verify_psse_1step(s, s, bad).ok
    back = verify_psse_1step(s, s, w.swapped())
    assert back == oracle_verify_psse_1step(s, s, w.swapped())


def test_a_block_map_after_verification_checks_nothing_again(monkeypatch):
    import bisys.equivalence as equivalence
    import bisys.smb as smb

    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counting(equivalence, "symbolic_matrix_multiply")
    counting(smb, "_expand")
    s = canonical_smb(golden_mean_pres(), 5)
    w = trivial_psse_witness(s)
    assert verify_psse_1step(s, s, w).ok
    assert calls["symbolic_matrix_multiply"] > 0 and calls["_expand"] == 1
    calls.clear()
    code = conjugacy_block_map(s, s, w)
    assert code.mapping and calls == Counter()


# -- the per-call product and equation memo against the verifiers without it


def dropped_term(m):
    """m with one term dropped from its first nonzero cell."""
    grid = [list(row) for row in m.entries]
    i, j = next((i, j) for i in range(m.rows) for j in range(m.cols) if not grid[i][j].is_zero)
    terms = [w for w, c in grid[i][j].items() for _ in range(c)]
    grid[i][j] = FormalSum(terms[1:])
    return SymbolicMatrix(m.rows, m.cols, tuple(map(tuple, grid)), m.alphabet)


def shared_block_replaced(w, family):
    """w with the block object that most indices of ``family`` share replaced,
    at each of them, by one wrong block; and those indices."""
    mats = getattr(w, family)
    block = max(mats, key=lambda m: sum(x is m for x in mats))
    at = [k for k, m in enumerate(mats) if m is block]
    bad = dropped_term(block)
    return replace(w, **{family: tuple(bad if m is block else m for m in mats)}), at


def with_matrix(w, family, k, m):
    mats = list(getattr(w, family))
    mats[k] = m
    return replace(w, **{family: tuple(mats)})


def cut(m, rows=0, cols=0):
    """m without its last ``rows`` rows and last ``cols`` columns."""
    grid = tuple(row[:m.cols - cols] for row in m.entries[:m.rows - rows])
    return SymbolicMatrix(m.rows - rows, m.cols - cols, grid, m.alphabet)


def wrong_images(spec):
    """spec with the images of its first two symbols exchanged, or with the
    image of its only symbol reversed."""
    pairs = list(spec.pairs)
    if len(pairs) == 1:
        return Specification(((pairs[0][0], pairs[0][1][::-1]),))
    (a, x), (b, y) = pairs[:2]
    pairs[:2] = [(a, y), (b, x)]
    return Specification(tuple(pairs))


def psse_variants(w):
    """w and wrong readings of it: shared blocks replaced, wrong and partial
    symbol maps, a P with the wrong row count, an X whose intertwining
    products differ in shape, a Q whose product with P is undefined, and
    Q and X that are P and Y."""
    yield w
    for family in PSSE_FAMILIES:
        yield shared_block_replaced(w, family)[0]
    yield replace(w, phi_m=wrong_images(w.phi_m))
    yield replace(w, phi_n=Specification(w.phi_n.pairs[1:]))
    yield with_matrix(w, "p_mats", 2, cut(w.p_mats[2], rows=1))
    yield with_matrix(w, "x_mats", 3, cut(w.x_mats[3], cols=1))
    yield with_matrix(w, "q_mats", 1, cut(w.q_mats[1], rows=1))
    # the N side then makes the M side's products, under its own symbol maps
    yield replace(w, q_mats=w.p_mats, x_mats=w.y_mats)


def sse_variants(sw):
    yield sw
    for family in SSE_FAMILIES:
        yield shared_block_replaced(sw, family)[0]
    yield replace(sw, phi1=wrong_images(sw.phi1))
    yield replace(sw, phi_c_minus=Specification(sw.phi_c_minus.pairs[1:]))
    yield with_matrix(sw, "k_mats", 1, cut(sw.k_mats[1], cols=1))
    yield replace(sw, k_mats=sw.h_mats)


def test_verifiers_match_the_memo_free_oracle():
    """Whole reports, failures in order, of the memoized verifiers and of the
    ones that make every product at every level (``tests/oracles.py``)."""
    failed = set()
    for s_m, s_n, w in witness_cases():
        for v in psse_variants(w):
            for depth in (None, 2) if v is w else (None,):
                rep = verify_psse_1step(s_m, s_n, v, depth)
                assert rep == oracles.verify_psse_1step(s_m, s_n, v, depth)
                failed |= {msg.split(" ")[0] for _, _, msg in rep.failures}
        for v in sse_variants(psse_to_sse(w)):
            rep = verify_sse_1step(s_m, s_n, v)
            assert rep == oracles.verify_sse_1step(s_m, s_n, v)
            failed |= {msg.split(" ")[0] for _, _, msg in rep.failures}
    # every kind of failure message occurs: unmapped symbols, wrong cells,
    # shapes, kappa mismatches and undefined products
    assert {"not", "cell", "shape", "P_2", "kappa-exchanged", "inner"} <= failed, failed


def test_a_wrong_shared_block_fails_at_every_level_that_reads_it():
    s = canonical_smb(golden_mean_pres(), 8)
    w = trivial_psse_witness(s)
    v, at = shared_block_replaced(w, "p_mats")
    assert len(at) > 2
    rep = verify_psse_1step(s, s, v)
    # plus-factorisation(M) at level l reads P_2l, and only there
    assert sorted(l for fam, l, _ in rep.failures if fam == "plus-factorisation(M)") == [
        k // 2 for k in at if k % 2 == 0
    ]
    assert rep == oracles.verify_psse_1step(s, s, v)
    sv, at = shared_block_replaced(psse_to_sse(w), "h_mats")
    assert len(at) > 2
    rep = verify_sse_1step(s, s, sv)
    # square-factorisation(M) at level l reads H_l, for each level below the last
    assert sorted(l for fam, l, _ in rep.failures if fam == "square-factorisation(M)") == [
        l for l in at if l < s.depth - 1
    ]
    assert rep == oracles.verify_sse_1step(s, s, sv)


def test_verification_costs_distinct_blocks_not_depth(monkeypatch):
    """The golden-mean self-witness stabilizes from block 2 on, so the
    verifiers and the conversion make no more products at depth 8 than at
    depth 4 (20 and 33 products in the verifiers, against 44 and 36 at depth
    4 and 92 and 84 at depth 8 without the memo).  The alternating build
    repeats with period 2, and its bipartite split is one object per
    distinct block too: the split, its PSSE check and its SSE conversion
    plus check make 4, 12 and 14 products at depth 4 and at depth 12 (24, 68
    and 72 at depth 12 when only a block equal to the one before it was
    shared)."""
    import bisys.equivalence as equivalence

    calls = []
    real = equivalence.symbolic_matrix_multiply

    def counting(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(equivalence, "symbolic_matrix_multiply", counting)
    made = {}
    for depth in (4, 8):
        s = canonical_smb(golden_mean_pres(), depth)
        w = trivial_psse_witness(s)
        counts = []
        for step in (lambda: verify_psse_1step(s, s, w).ok, lambda: psse_to_sse(w),
                     lambda: verify_sse_1step(s, s, psse_to_sse(w)).ok):
            del calls[:]
            assert step()
            counts.append(len(calls))
        counts[2] -= counts[1]  # the conversion inside the last step
        made[depth] = counts
    assert made[8] == made[4], made
    split = {}
    for depth in (4, 12):
        s = canonical_smb(alternating_pres(), depth)
        del calls[:]
        s_cd, s_dc, v = bipartite_split(s, detect_bipartite(s))
        counts = [len(calls)]
        for step in (lambda: verify_psse_1step(s_cd, s_dc, v).ok,
                     lambda: verify_sse_1step(s_cd, s_dc, psse_to_sse(v)).ok):
            del calls[:]
            assert step()
            counts.append(len(calls))
        split[depth] = counts
    assert split[12] == split[4], split
