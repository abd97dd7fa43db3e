import os
import random
import time
from itertools import cycle, product as cartesian

import pytest

from bisys.bisystem import (
    BisystemError,
    LambdaGraphBisystem,
    fpcc_check,
    follower_sets,
    from_lambda_graph_system,
    lgs_from_matrix,
    predecessor_sets,
    presented_words,
    sigma_condition_I_witness,
    transpose,
    validate,
    validate_lambda_graph_system,
)
from bisys.canonical import canonical_bisystem
from bisys.cli.documents import load_document
from bisys.ktheory import build_ladder
from bisys.smb import to_smb, validate_smb
from fixtures import (
    alternating_pres,
    dense,
    even_shift_pres,
    full_n_lgs,
    full_shift_bisystem,
    full_shift_pres,
    golden_mean_lgs,
    golden_mean_pres,
    paper_even_shift_bisystem,
    paper_golden_mean_bisystem,
    random_irreducible_01,
    random_sofic_pres,
    shallow_stack,
    transition_tensors,
    two_power_split_bisystem,
)
import oracles
from oracles import fpcc_verdict as oracle_fpcc
from oracles import sigma_condition_I_witness as oracle_sigma


def drop_edge(b, side, block, idx):
    blocks = list(getattr(b, side + "_edges"))
    blk = list(blocks[block])
    del blk[idx]
    blocks[block] = tuple(blk)
    kw = {side + "_edges": tuple(blocks)}
    other = "plus" if side == "minus" else "minus"
    kw[other + "_edges"] = getattr(b, other + "_edges")
    return LambdaGraphBisystem(
        b.level_sizes, kw["minus_edges"], kw["plus_edges"], b.sigma_minus, b.sigma_plus
    )


def test_validate_full_shift():
    for n in (2, 3):
        rep = validate(full_shift_bisystem(n, 5))
        assert rep.ok and rep.fpcc.ok


def test_validate_paper_golden_mean():
    rep = validate(paper_golden_mean_bisystem(5))
    assert rep.ok
    # common-alphabet version satisfies the follower/predecessor condition
    common = paper_golden_mean_bisystem(5, sm=("a", "b"), sp=("a", "b"))
    assert fpcc_check(common)


def test_validate_paper_even_shift_fails_local_property():
    # the printed even-shift figure is defective: exactly two corners
    # between levels 0 and 2 break (v)
    rep = validate(paper_even_shift_bisystem(5))
    assert all(rep.axiom(k).ok for k in ("i", "ii", "iii", "iv"))
    assert not rep.axiom("v").ok
    assert rep.axiom("v").counterexamples == (
        "local property fails at (v1^0,v2^2): ['am|bp'] vs ['bm|bp']",
        "local property fails at (v1^0,v3^2): ['bm|bp'] vs ['bm|ap']",
    )


def test_validate_pins_stranded_vertex_counterexamples():
    # full 2-shift with an extra vertex at levels 0, 2 and 4; the one at
    # level 2 keeps a single minus edge down to level 1
    b = full_shift_bisystem(2, 4)
    minus = list(b.minus_edges)
    minus[1] += ((1, 0, ("a",)),)
    stranded = LambdaGraphBisystem(
        (2, 1, 2, 1, 2), tuple(minus), b.plus_edges, b.sigma_minus, b.sigma_plus
    )
    rep = validate(stranded)
    assert [name for name, v in rep.axioms if not v.ok] == ["iii", "v"]
    assert rep.axiom("iii").counterexamples == (
        "v2^0 has no incoming minus edge from level 1",
        "v2^0 has no outgoing plus edge to level 1",
        "v2^2 has no incoming minus edge from level 3",
        "v2^2 has no incoming plus edge from level 1",
        "v2^2 has no outgoing plus edge to level 3",
        "v2^4 has no incoming plus edge from level 3",
        "v2^4 has no outgoing minus edge to level 3",
    )
    assert rep.axiom("v").counterexamples == (
        "local property fails at (v1^0,v2^2): [] vs ['a|a', 'a|b']",
    )


def test_validate_mutation_breaks_local_property():
    b = paper_golden_mean_bisystem(5)
    # remove the beta-plus edge v_2^1 -> v_1^2 (v_2^1 keeps other out-edges)
    block = list(b.plus_edges[1])
    victim = block.index((1, 0, ("bp",)))
    mutated = drop_edge(b, "plus", 1, victim)
    rep = validate(mutated)
    assert not rep.ok
    assert not rep.axiom("v").ok
    assert any("local property fails" in c for c in rep.axiom("v").counterexamples)


def enumerate_followers(b, level, i):
    """Path-enumeration oracle for the level-DP computation."""
    if level == 0:
        return {()}
    out = set()
    for (s, t, a) in b.minus_edges[level - 1]:
        if s == i:
            out |= {tuple(a) + w for w in enumerate_followers(b, level - 1, t)}
    return out


def test_follower_sets_match_enumeration_oracle():
    b = paper_golden_mean_bisystem(5)
    F = follower_sets(b)
    for l in range(b.depth + 1):
        for i in range(b.level_sizes[l]):
            assert F[l][i] == tuple(sorted(enumerate_followers(b, l, i)))


def test_word_sets_match_the_frozenset_walk():
    """Seeded differential check: the listed nodes of the word walk are the
    reference's frozensets in lexicographic order, on both sides of random
    canonical builds, one-sided imports and two-letter product labels."""
    rng = random.Random(34)
    cases = [canonical_bisystem(random_sofic_pres(rng, rng.randint(3, 7)), rng.randint(3, 6))
             .bisystem for _ in range(12)]
    cases += [from_lambda_graph_system(lgs_from_matrix(random_irreducible_01(rng, n), 4))
              for n in (2, 3, 3, 4)]
    cases.append(two_power_split_bisystem())
    for b in cases:
        for side, got in (("minus", follower_sets(b)), ("plus", predecessor_sets(b))):
            want = oracles.word_sets(b, side)
            assert got == tuple(tuple(tuple(sorted(ws)) for ws in level) for level in want)


def test_full_shift_follower_set_is_everything():
    b = full_shift_bisystem(2, 5)
    assert follower_sets(b)[3][0] == tuple(cartesian(("a", "b"), repeat=3))


def test_golden_mean_beta_edge_family_into_v3():
    # the beta-minus edge v_1^{l+1} -> v_3^l injects beta-prefixed words of
    # F(v_3^l) into F(v_1^{l+1}); v_3^l itself only continues downward by alpha
    b = paper_golden_mean_bisystem(5)
    F = follower_sets(b)
    for l in range(2, 5):
        f3 = F[l][2]  # v_3^l
        f1_up = F[l + 1][0] if l + 1 <= b.depth else None
        assert all(w[0] == "am" for w in f3)
        if f1_up is not None:
            assert {("bm",) + w for w in f3} <= set(f1_up)


def test_fpcc_examples():
    assert fpcc_check(full_shift_bisystem(2, 5))
    assert fpcc_check(canonical_bisystem(golden_mean_pres(), 5).bisystem)
    imported = from_lambda_graph_system(golden_mean_lgs(4))
    assert not fpcc_check(imported)


def relabeled(b, rng):
    """b with one random edge given another label of its side's alphabet."""
    side = rng.choice(("minus", "plus"))
    blocks = list(getattr(b, side + "_edges"))
    l = rng.randrange(len(blocks))
    block = list(blocks[l])
    k = rng.randrange(len(block))
    s, t, a = block[k]
    alphabet = b.sigma_minus if side == "minus" else b.sigma_plus
    block[k] = (s, t, rng.choice([x for x in alphabet.symbols if x != tuple(a)]))
    blocks[l] = tuple(sorted(block))
    edges = {"minus": b.minus_edges, "plus": b.plus_edges, side: tuple(blocks)}
    return LambdaGraphBisystem(
        b.level_sizes, edges["minus"], edges["plus"], b.sigma_minus, b.sigma_plus
    )


def fpcc_differential_cases():
    """(name, bisystem) pairs: canonical builds, one-sided imports, their
    transposes, single-edge relabelings that break FPCC, and two-letter
    product labels."""
    rng = random.Random(14)
    builds = [
        ("golden", canonical_bisystem(golden_mean_pres(), 5).bisystem),
        ("even", canonical_bisystem(even_shift_pres(), 5).bisystem),
        ("full3", canonical_bisystem(full_shift_pres(3), 4).bisystem),
    ]
    for i in range(6):
        pres = random_sofic_pres(rng, rng.randint(3, 6))
        builds.append((f"random{i}", canonical_bisystem(pres, 4).bisystem))
    imports = [
        ("import_golden", from_lambda_graph_system(golden_mean_lgs(4))),
        ("import_full2", from_lambda_graph_system(full_n_lgs(2, 4))),
    ]
    product = [("two_power_split", two_power_split_bisystem())]
    cases = builds + imports + product
    cases += [(f"transpose_{name}", transpose(b)) for name, b in cases]
    for name, b in builds + product:
        for k in range(3):
            while True:
                broken = relabeled(b, rng)
                if not oracle_fpcc(broken).ok:
                    break
            cases.append((f"relabeled_{name}_{k}", broken))
    return cases


def test_fpcc_dag_verdict_matches_word_set_oracle():
    """Seeded differential check of the DAG verdict against the explicit
    follower and predecessor word sets: ok and every counterexample text."""
    import bisys.bisystem as bs

    failing = 0
    for name, b in fpcc_differential_cases():
        want = oracle_fpcc(b)
        assert bs._fpcc_verdict(b) == want, name
        failing += not want.ok
    assert failing >= 30


def test_presented_words():
    gm = canonical_bisystem(golden_mean_pres(), 5).bisystem
    assert presented_words(gm, "plus", 2) == (
        ("1", "1"), ("1", "2"), ("2", "1"),
    )
    for n in range(1, 5):
        assert presented_words(gm, "minus", n) == presented_words(gm, "plus", n)
    full = full_shift_bisystem(3, 4)
    assert len(presented_words(full, "plus", 3)) == 27
    b = paper_golden_mean_bisystem(5)
    assert presented_words(b, "plus", 2) == (
        ("ap", "ap"), ("ap", "bp"), ("bp", "ap"),
    )


def test_transpose_involution_and_swap():
    b = paper_golden_mean_bisystem(5)
    t = transpose(b)
    assert validate(t).ok
    tt = transpose(t)
    norm = LambdaGraphBisystem(
        b.level_sizes,
        tuple(tuple(sorted(x)) for x in b.minus_edges),
        tuple(tuple(sorted(x)) for x in b.plus_edges),
        b.sigma_minus,
        b.sigma_plus,
    )
    assert tt == norm
    # the plus side is the minus side of the transpose with its label chunks
    # read in reverse order; two-letter labels tell chunks from letters
    for b in (paper_golden_mean_bisystem(5), two_power_split_bisystem()):
        t = transpose(b)
        k = b.sigma_plus.word_length

        def rev(w):
            return tuple(x for p in range(len(w) - k, -1, -k) for x in w[p : p + k])

        P = predecessor_sets(b)
        Ft = follower_sets(t)
        for l in range(b.depth + 1):
            for i in range(b.level_sizes[l]):
                assert P[l][i] == tuple(sorted(map(rev, Ft[l][i])))
        for n in range(b.depth + 1):
            assert presented_words(b, "plus", n) == tuple(
                sorted(map(rev, presented_words(t, "minus", n)))
            )
        lad, lad_t = build_ladder(b, "plus"), build_ladder(t, "minus")
        pos_t = [{(i, rev(w)): r for r, (i, w) in enumerate(basis)} for basis in lad_t.bases]
        for l, basis in enumerate(lad.bases):
            assert sorted(basis) == sorted(pos_t[l])
        for l in range(b.depth):
            width = len(lad.bases[l])
            iota, rho = dense(lad.iota[l], width), dense(lad.rho[l], width)
            iota_t, rho_t = dense(lad_t.iota[l], width), dense(lad_t.rho[l], width)
            for r, key_r in enumerate(lad.bases[l + 1]):
                for c, key_c in enumerate(lad.bases[l]):
                    rt, ct = pos_t[l + 1][key_r], pos_t[l][key_c]
                    assert iota[r][c] == iota_t[rt][ct]
                    assert rho[r][c] == rho_t[rt][ct]
    # transpose of an FPCC system: status recomputed, not assumed
    common = paper_golden_mean_bisystem(5, sm=("a", "b"), sp=("a", "b"))
    assert isinstance(fpcc_check(transpose(common)), bool)


def test_lgs_import():
    lgs = golden_mean_lgs(4)
    b = from_lambda_graph_system(lgs)
    rep = validate(b)
    assert rep.ok
    # one iota edge per upper vertex
    minus, plus = transition_tensors(b)
    for block in minus:
        sources = [j for (_, _, j) in block]
        assert sorted(sources) == list(range(len(sources)))
    for l in range(1, b.depth + 1):
        for i in range(b.level_sizes[l]):
            # the labels of the minus edges leaving the vertex downward
            labels = frozenset(a for (_, a) in b.adjacency["minus", "upper"][l - 1][i])
            assert labels == frozenset({("iota",)})
    a_plus = plus[1]
    assert (0, ("a11",), 0) in a_plus and (0, ("a12",), 1) in a_plus
    assert (1, ("a21",), 0) in a_plus


def test_lgs_rejects_broken_local_property():
    lgs = golden_mean_lgs(4)
    bad_iota = list(lgs.iota)
    bad_iota[2] = (1, 1)  # not surjective
    from bisys.bisystem import LambdaGraphSystem

    broken = LambdaGraphSystem(lgs.level_sizes, lgs.edges, tuple(bad_iota), lgs.alphabet)
    assert validate_lambda_graph_system(broken)
    with pytest.raises(BisystemError):
        from_lambda_graph_system(broken)


def test_malformed_iota_and_edge_blocks_are_reported_not_raised():
    from bisys.bisystem import LambdaGraphSystem, lgs_from_matrix

    rng = random.Random(53)
    bases = [
        golden_mean_lgs(4),
        full_n_lgs(2, 4),
        lgs_from_matrix([[1, 1, 0], [0, 0, 1], [1, 1, 1]], 4),
    ]
    for _ in range(300):
        lgs = rng.choice(bases)
        iota = [list(block) for block in lgs.iota]
        edges = [list(block) for block in lgs.edges]
        l = rng.randrange(lgs.depth)
        kind = rng.choice(("short", "long", "range", "edge", "blocks"))
        if kind == "short":
            del iota[l][rng.randrange(len(iota[l])):]
            expected = f"iota block {l} has wrong length"
        elif kind == "long":
            iota[l] += [0] * rng.randint(1, 3)
            expected = f"iota block {l} has wrong length"
        elif kind == "range":
            out_of_range = rng.choice((-1, lgs.level_sizes[l] + rng.randint(0, 2)))
            iota[l][rng.randrange(len(iota[l]))] = out_of_range
            expected = f"iota block {l} leaves the level"
        elif kind == "edge":
            s, t, a = edges[l][rng.randrange(len(edges[l]))]
            edges[l].append((lgs.level_sizes[l] + rng.randint(0, 2), t, a))
            expected = "out of range at block"
        else:
            del (iota if rng.random() < 0.5 else edges)[rng.randrange(lgs.depth):]
            expected = "iota blocks for"
        broken = LambdaGraphSystem(
            lgs.level_sizes, tuple(map(tuple, edges)), tuple(map(tuple, iota)), lgs.alphabet
        )
        defects = validate_lambda_graph_system(broken)
        assert any(expected in d for d in defects), (kind, defects)
        with pytest.raises(BisystemError):
            from_lambda_graph_system(broken)
    # every edge out of one vertex, or into one, dropped
    for lgs in bases:
        for l in range(lgs.depth):
            s, t, _ = lgs.edges[l][0]
            for drop, expected in (
                (lambda e: e[0] == s, f"vertex {s + 1} at level {l} has no successor"),
                (lambda e: e[1] == t, f"vertex {t + 1} at level {l + 1} has no predecessor"),
            ):
                edges = list(lgs.edges)
                edges[l] = tuple(e for e in edges[l] if not drop(e))
                broken = LambdaGraphSystem(lgs.level_sizes, tuple(edges), lgs.iota, lgs.alphabet)
                assert expected in validate_lambda_graph_system(broken), (l, expected)
                with pytest.raises(BisystemError):
                    from_lambda_graph_system(broken)


def test_tensor_round_trip():
    b = canonical_bisystem(golden_mean_pres(), 4).bisystem
    minus, plus = transition_tensors(b)
    # resolving properties make the (i, label, j) triples a round trip
    back = LambdaGraphBisystem(
        b.level_sizes,
        tuple(tuple(sorted((j, i, a) for (i, a, j) in block)) for block in minus),
        tuple(tuple(sorted((i, j, a) for (i, a, j) in block)) for block in plus),
        b.sigma_minus,
        b.sigma_plus,
    )
    norm = LambdaGraphBisystem(
        b.level_sizes,
        tuple(tuple(sorted(x)) for x in b.minus_edges),
        tuple(tuple(sorted(x)) for x in b.plus_edges),
        b.sigma_minus,
        b.sigma_plus,
    )
    assert back == norm


def test_sigma_condition_witness():
    full2 = canonical_bisystem(full_shift_pres(2), 6).bisystem
    assert sigma_condition_I_witness(full2, 2, 2).found

    full1 = canonical_bisystem(full_shift_pres(1), 6).bisystem
    assert sigma_condition_I_witness(full1, 2, 2).status == "absent"

    gm = canonical_bisystem(golden_mean_pres(), 6).bisystem
    assert sigma_condition_I_witness(gm, 3, 2).found

    assert sigma_condition_I_witness(gm, 7, 2).status == "inconclusive"
    with pytest.raises(BisystemError):
        sigma_condition_I_witness(gm, 2, 3)


def test_sigma_condition_search_is_bounded():
    # the backtracking tries at most max_candidates windows per item, and
    # a search cut short by that budget is inconclusive, never absent
    gm = canonical_bisystem(golden_mean_pres(), 4).bisystem
    start = time.perf_counter()
    assert sigma_condition_I_witness(gm, 1, 1, max_candidates=200).found
    assert time.perf_counter() - start < 1.0
    even = canonical_bisystem(even_shift_pres(), 6).bisystem
    start = time.perf_counter()
    assert sigma_condition_I_witness(even, 3, 1, max_candidates=200).status == "inconclusive"
    assert time.perf_counter() - start < 1.0


def test_sigma_condition_budget_counts_every_window_comparison():
    # each window is compared with every chosen one, and each comparison is
    # charged, so the default budget ends these searches within seconds
    even = canonical_bisystem(even_shift_pres(), 6).bisystem
    for level in (3, 4):
        start = time.perf_counter()
        assert sigma_condition_I_witness(even, level, 1).status != "absent"
        assert time.perf_counter() - start < 2.0, level


def test_sigma_search_walks_windows_without_recursion():
    """A window of width 2*bound must not take a stack frame per step."""
    full1 = canonical_bisystem(full_shift_pres(1), 200).bisystem
    with shallow_stack():
        assert sigma_condition_I_witness(full1, 200, 200).status == "absent"


def test_sigma_search_builds_word_sets_to_its_level(monkeypatch):
    import bisys.bisystem as bs

    built = []
    real = bs._word_sets
    monkeypatch.setattr(bs, "_word_sets", lambda b, side: built.append(real(b, side)) or built[-1])
    gm = canonical_bisystem(golden_mean_pres(), 22).bisystem
    assert sigma_condition_I_witness(gm, 3, 2).found
    assert [len(sets) for sets in built] == [4]


def truncated(b, depth):
    """The first depth edge blocks of a bisystem."""
    return LambdaGraphBisystem(b.level_sizes[: depth + 1], b.minus_edges[:depth],
                               b.plus_edges[:depth], b.sigma_minus, b.sigma_plus)


def test_sigma_search_matches_the_reference():
    # depth 2 where the search stays cheap, depth 1 for the wider systems
    rng = random.Random(7)
    systems = [canonical_bisystem(p, 2).bisystem
               for p in (golden_mean_pres(), full_shift_pres(1), full_shift_pres(2))]
    systems += [paper_golden_mean_bisystem(2),
                from_lambda_graph_system(golden_mean_lgs(2)),
                truncated(two_power_split_bisystem(), 1)]
    systems += [canonical_bisystem(p, 1).bisystem for p in (
        even_shift_pres(), full_shift_pres(3), *(random_sofic_pres(rng, 3) for _ in range(3)))]
    statuses = set()
    for b in systems + [transpose(b) for b in systems]:
        for level in range(1, b.depth + 2):
            for bound in range(1, min(level, 2) + 1):
                for budget in (1, 3, 20, 200):
                    case = (b, level, bound, budget)
                    got = sigma_condition_I_witness(*case)
                    assert got == oracle_sigma(*case), (b.level_sizes, level, bound, budget)
                    statuses.add((got.status, level > b.depth))
    # "inconclusive" within the depth comes only from a cut-off search
    assert statuses >= {("witness", False), ("absent", False),
                        ("inconclusive", False), ("inconclusive", True)}


def random_single_edge_mutations(b, rng, count):
    """Mutations that keep the edge grid well-typed: move one endpoint."""
    out = []
    for _ in range(count):
        side = rng.choice(("minus", "plus"))
        blocks = [list(map(list, blk)) for blk in getattr(b, side + "_edges")]
        l = rng.randrange(len(blocks))
        if not blocks[l]:
            continue
        k = rng.randrange(len(blocks[l]))
        which = rng.choice((0, 1))
        hi = b.level_sizes[l + 1] if (side == "minus") == (which == 0) else b.level_sizes[l]
        blocks[l][k][which] = rng.randrange(hi)
        fixed = tuple(tuple((s, t, tuple(a)) for (s, t, a) in blk) for blk in blocks)
        kwargs = dict(
            level_sizes=b.level_sizes,
            minus_edges=b.minus_edges,
            plus_edges=b.plus_edges,
            sigma_minus=b.sigma_minus,
            sigma_plus=b.sigma_plus,
        )
        kwargs[side + "_edges"] = fixed
        try:
            out.append(LambdaGraphBisystem(**kwargs))
        except BisystemError:
            continue
    return out


def test_validate_agrees_with_matrix_validation():
    rng = random.Random(11)
    fixtures = [
        paper_golden_mean_bisystem(4),
        full_shift_bisystem(2, 4),
        canonical_bisystem(alternating_pres(), 4).bisystem,
    ]
    cases = list(fixtures)
    for f in fixtures:
        cases.extend(random_single_edge_mutations(f, rng, 14))
    assert len(cases) >= 20
    for b in cases:
        assert validate(b).ok == validate_smb(to_smb(b, unchecked=True)).ok


def test_transition_tensor_entries_match_fixture_edges():
    b = paper_golden_mean_bisystem(5)
    minus, _ = transition_tensors(b)
    # level 2 -> 3 block of the printed example
    want = {
        (0, ("am",), 0), (0, ("am",), 2),
        (1, ("am",), 1), (1, ("am",), 3),
        (2, ("bm",), 0), (3, ("bm",), 1),
    }
    assert minus[2] == frozenset(want)
    assert (0, ("am",), 0) in minus[2] and (2, ("bm",), 0) in minus[2]
    assert (0, ("bm",), 0) not in minus[2]


def test_lgs_local_property_messages_are_pinned():
    lgs = golden_mean_lgs(4)
    from bisys.bisystem import LambdaGraphSystem

    iota = list(lgs.iota)
    iota[1] = (1, 0)
    edges = [list(block) for block in lgs.edges]
    edges[1].append((0, 0, "a12"))
    edges[2][0] = (0, 0, "a21")
    broken = LambdaGraphSystem(
        lgs.level_sizes, tuple(map(tuple, edges)), tuple(iota), lgs.alphabet
    )
    assert validate_lambda_graph_system(broken) == [
        "not left-resolving: two a21-edges into vertex 1 at level 3",
        "one-sided local property fails at (v1^0, v1^2): ['a11', 'a12'] vs ['a12']",
        "one-sided local property fails at (v1^0, v2^2): ['a12'] vs ['a11']",
        "one-sided local property fails at (v2^0, v1^2): ['a21'] vs []",
        "one-sided local property fails at (v2^0, v2^2): [] vs ['a21']",
        "one-sided local property fails at (v1^1, v1^3): ['a21'] vs ['a11', 'a12']",
        "one-sided local property fails at (v1^1, v2^3): [] vs ['a12']",
        "one-sided local property fails at (v2^1, v2^3): ['a12'] vs []",
        "one-sided local property fails at (v1^2, v1^4): ['a11'] vs ['a21']",
    ]


FIELDS = ("level_sizes", "minus_edges", "plus_edges", "sigma_minus", "sigma_plus")
FULL3_LGS = os.path.join(os.path.dirname(__file__), "..", "docs", "examples", "full3.lgs.json")


def with_blocks(b, side, blocks):
    """The fields of b, with the given blocks on one side."""
    fields = {name: getattr(b, name) for name in FIELDS}
    fields[side + "_edges"] = tuple(blocks)
    return fields


def shared_block_mutants(b, rng):
    """Fields that change one edge of each block object b holds at several
    levels: at every level that holds it, and at one of them only; and
    fields that give such an object an end off its level or a label off the
    alphabet, at every level that holds it."""
    out = []
    kinds = cycle(range(5))
    for side in ("minus", "plus"):
        blocks = getattr(b, side + "_edges")
        symbols = getattr(b, "sigma_" + side).symbols
        held = {}
        for l, block in enumerate(blocks):
            held.setdefault(id(block), []).append(l)
        for levels in held.values():
            if len(levels) < 2 or not blocks[levels[0]]:
                continue
            l = levels[0]
            ends = (b.level_sizes[l + 1], b.level_sizes[l])  # sizes of a minus edge's ends
            src, tgt = ends if side == "minus" else ends[::-1]
            edges = list(blocks[l])
            k = rng.randrange(len(edges))
            s, t, a = edges[k]
            kind = next(kinds)
            if kind == 0:
                edges[k] = (rng.randrange(src), t, a)
            elif kind == 1:
                edges[k] = (s, rng.randrange(tgt), a)
            elif kind == 2:
                edges[k] = (s, t, rng.choice([x for x in symbols if x != a] or [a]))
            elif kind == 3:
                edges.append(edges[k])
            else:
                del edges[k]
            changed = tuple(sorted(edges))
            off_level = blocks[l][:k] + ((src, t, a),) + blocks[l][k + 1:]
            off_alphabet = blocks[l][:k] + ((s, t, ("zz",)),) + blocks[l][k + 1:]
            one = rng.choice(levels)
            for bad, where in ((changed, levels), (changed, [one]), (off_level, levels),
                               (off_alphabet, levels)):
                out.append(with_blocks(b, side, [
                    bad if i in where else block for i, block in enumerate(blocks)
                ]))
    return out


def error_text(make, fields):
    try:
        make(*(fields[name] for name in FIELDS))
    except BisystemError as e:
        return str(e)
    return None


def test_per_object_checks_match_the_per_level_oracles():
    """The checks that run once per block object give the per-level oracles'
    verdicts, texts and words, a fault in a shared block named at every
    level that holds it."""
    rng = random.Random(24)
    builds = [canonical_bisystem(p, 8).bisystem
              for p in (golden_mean_pres(), even_shift_pres(), full_shift_pres(2),
                        alternating_pres())]
    bases = builds + [transpose(b) for b in builds]
    bases.append(from_lambda_graph_system(load_document(FULL3_LGS, 8)[2]))
    cases = [{name: getattr(b, name) for name in FIELDS} for b in bases]
    for b in bases:
        cases += shared_block_mutants(b, rng)
    failed, rejected = set(), set()
    for fields in cases:
        error = error_text(LambdaGraphBisystem, fields)
        assert error == error_text(oracles.range_fault, fields)
        if error is not None:
            rejected.add(error.split()[1])
            continue
        b = LambdaGraphBisystem(**fields)
        axioms = validate(b).axioms
        assert axioms == oracles.axiom_verdicts(b)
        s = to_smb(b, unchecked=True)
        report = validate_smb(s)
        assert report == oracles.matrix_report(s._expansion)
        for side, n in cartesian(("minus", "plus"), (1, 3)):
            assert presented_words(b, side, n) == oracles.presented_words(b, side, n)
        failed |= {("axiom", name) for name, v in axioms if not v.ok}
        failed |= {("matrix", name) for name, v in report.axioms if not v.ok}
        levels = {c.split("^")[1].split(",")[0] for c in dict(axioms)["v"].counterexamples}
        failed |= {"one fault at several levels"} if len(levels) > 1 else set()
    assert len(cases) > 80
    assert rejected == {"edge", "label"}
    assert failed >= {("axiom", "iii"), ("axiom", "iv"), ("axiom", "v"), ("matrix", "ii"),
                      ("matrix", "iii"), ("matrix", "iv"), ("matrix", "v"),
                      "one fault at several levels"}


def test_corners_are_scanned_once_per_distinct_quadruple(monkeypatch):
    """The even shift at depth 13 has 12 corner levels but 4 distinct
    quadruples of adjacency lists; axiom (v) scans each once."""
    import bisys.bisystem

    scans = []
    scan = bisys.bisystem._corners
    monkeypatch.setattr(bisys.bisystem, "_corners", lambda *lists: (
        scans.append(tuple(map(id, lists))) or scan(*lists)
    ))
    b = canonical_bisystem(even_shift_pres(), 13).bisystem
    assert b.depth - 1 == 12
    assert len(scans) == len(set(scans)) == 4
