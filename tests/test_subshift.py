import random
from itertools import product as cartesian

import pytest

from bisys.subshift import (
    BlockCode,
    LabeledGraph,
    SftMatrix,
    SubshiftError,
    SubshiftPresentation,
    admissible_words,
    apply_block_code,
    higher_block_recode,
    _successors,
    realizable_future_sets,
    realizable_past_sets,
)
from fixtures import (
    brute_language,
    even_shift_pres,
    even_window_ok,
    full_shift_pres,
    golden_mean_pres,
    golden_window_ok,
    random_sofic_pres,
    random_sparse_sofic_pres,
)
from oracles import (
    fill_in_words,
    past_state_set,
    past_state_stable,
    ranges_on_constant_cycles,
    ray_sets,
)


def test_full_shift_words():
    ws = admissible_words(full_shift_pres(2), 2)
    assert ws == (("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    assert admissible_words(full_shift_pres(2), 0) == ((),)


def test_golden_mean_words():
    assert admissible_words(golden_mean_pres(), 2) == (
        ("1", "1"), ("1", "2"), ("2", "1"),
    )
    for n in range(1, 7):
        assert admissible_words(golden_mean_pres(), n) == brute_language(
            "12", n, golden_window_ok
        )


def test_even_shift_words_vs_filter_oracle():
    for n in range(1, 6):
        assert admissible_words(even_shift_pres(), n) == brute_language(
            "ab", n, even_window_ok
        )


def test_language_extends():
    for pres in (golden_mean_pres(), even_shift_pres()):
        prev = admissible_words(pres, 1)
        for n in range(2, 7):
            cur = admissible_words(pres, n)
            assert len(cur) >= len(prev)
            # every word extends on both sides
            assert {w[1:] for w in cur} >= set(prev)
            assert {w[:-1] for w in cur} >= set(prev)
            prev = cur


def test_recode_forbid_22():
    m = higher_block_recode(("1", "2"), (("2", "2"),))
    assert m.symbols == ("1", "2")
    assert m.entries == ((1, 1), (1, 0))


def test_recode_forbid_nothing():
    pres = SubshiftPresentation.from_forbidden(("1", "2"), ())
    assert pres.sft.entries == ((1, 1), (1, 1))


def test_recode_forbid_121():
    m = higher_block_recode(("1", "2"), (("1", "2", "1"),))
    assert len(m.symbols) == 4
    pres = SubshiftPresentation.from_forbidden(("1", "2"), (("1", "2", "1"),))
    # block words of length n project to letter words of length n + 1
    for n in range(1, 5):
        blocks = admissible_words(pres, n)
        projected = sorted(
            {tuple(w[0][0]) + tuple(b[-1] for b in w) for w in blocks}
        )
        want = [
            tuple(w)
            for w in brute_language("12", n + 1, lambda v: "121" not in "".join(v))
        ]
        assert projected == sorted(want)


def test_recode_everything_forbidden():
    with pytest.raises(SubshiftError):
        higher_block_recode(("1",), (("1", "1"),))


def test_past_state_sets():
    single = LabeledGraph(("s",), (("s", "s", "a"), ("s", "s", "b")))
    assert past_state_set(single, ("a",)) == frozenset(single.states)

    gm = golden_mean_pres().graph
    assert past_state_set(gm, ("2",)) == frozenset({"2"})
    assert past_state_stable(gm, ("2",))
    with pytest.raises(SubshiftError):
        past_state_set(gm, ("2", "2"))


def brute_past(g, w, depth):
    """Endpoints of w-paths surviving every left extension length <= depth."""
    out = set()
    for q in past_state_set(g, w):
        ok = True
        for n in range(1, depth + 1):
            found = False
            for ext in cartesian(g.labels, repeat=n):
                try:
                    ends = past_state_set(g, ext + tuple(w))
                except SubshiftError:
                    continue
                if q in ends:
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            out.add(q)
    return frozenset(out)


def test_even_shift_past_sets_vs_deep_oracle():
    g = even_shift_pres().graph
    for w in (("a", "b"), ("a", "b", "b")):
        assert past_state_set(g, w) == brute_past(g, w, 10)
    assert past_state_set(g, ("a", "b")) == frozenset({"2"})
    assert past_state_set(g, ("a", "b", "b")) == frozenset({"1"})


def test_past_sets_shrink_monotonically():
    g = even_shift_pres().graph
    for w in admissible_words(even_shift_pres(), 3):
        base = past_state_set(g, w)
        for a in g.labels:
            try:
                ext = past_state_set(g, (a,) + w)
            except SubshiftError:
                continue
            assert ext <= base


def test_fill_in_words():
    gm = golden_mean_pres()
    g = gm.graph
    allstates = frozenset(g.states)
    for n in range(0, 5):
        assert fill_in_words(g, allstates, allstates, n) == admissible_words(gm, n)
    # from every state to every state, the walk over the per-label edge lists
    # (``_edges_by_label``) lists the language that the successor index does
    rng = random.Random(26)
    for k in range(36):
        make = random_sofic_pres if k % 2 else random_sparse_sofic_pres
        g = make(rng, 1 + k % 6).graph
        if k % 3 == 0:  # relabel over four letters
            g = LabeledGraph(g.states, tuple(sorted({(s, t, rng.choice("abcd")) for (s, t, _) in g.edges})))
        pres = SubshiftPresentation.from_graph(g)
        states = frozenset(g.states)
        for n in range(0, 7):
            assert fill_in_words(g, states, states, n) == admissible_words(pres, n), k
    assert fill_in_words(g, frozenset(), allstates, 2) == ()
    assert fill_in_words(g, allstates, frozenset(), 2) == ()
    got = fill_in_words(g, frozenset({"2"}), frozenset({"2"}), 2)
    # oracle: enumerate length-2 paths directly
    paths = []
    for (s1, t1, a1) in g.edges:
        for (s2, t2, a2) in g.edges:
            if s1 == "2" and t1 == s2 and t2 == "2":
                paths.append((a1, a2))
    assert got == tuple(sorted(set(paths)))


def test_fill_in_subset_of_language():
    ev = even_shift_pres()
    g = ev.graph
    for p in realizable_past_sets(g):
        for f in realizable_future_sets(g):
            for n in range(0, 4):
                assert set(fill_in_words(g, p, f, n)) <= set(admissible_words(ev, n))


def test_realizable_sets_even_shift():
    g = even_shift_pres().graph
    assert set(realizable_past_sets(g)) == {
        frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"}),
    }
    assert set(realizable_future_sets(g)) == {
        frozenset({"1"}), frozenset({"2"}), frozenset({"1", "2"}),
    }
    gm = golden_mean_pres().graph
    assert set(realizable_past_sets(gm)) == {frozenset({"1"}), frozenset({"2"})}
    assert set(realizable_future_sets(gm)) == {
        frozenset({"1"}), frozenset({"1", "2"}),
    }


def reference_ray_sets(g, side):
    """The two relation walks the library ran before the future sets were
    read off the reversed graph: prepended symbols composed on the left of
    each word relation for the past sets (their ranges), appended symbols
    composed on the right for the future sets (their domains).  Both share
    the oracle's copy of the cycle search."""
    by = {a: {} for a in g.labels}
    for (s, t, a) in g.edges:
        if side == "past":
            by[a].setdefault(t, []).append(s)
        else:
            by[a].setdefault(s, []).append(t)
    steps = [by[a] for a in g.labels]

    def step(rel):
        if side == "past":
            return [frozenset((s, q) for (p, q) in rel for s in m.get(p, ())) for m in steps]
        return [frozenset((p, t) for (p, q) in rel for t in m.get(q, ())) for m in steps]

    def value(rel):
        return frozenset(q if side == "past" else p for (p, q) in rel)

    ident = frozenset((q, q) for q in g.states)
    seen, succ, stack = {ident}, {}, [ident]
    while stack:
        rel = stack.pop()
        succ[rel] = [nxt for nxt in step(rel) if nxt]
        for nxt in succ[rel]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return ranges_on_constant_cycles(seen, succ, value)


def test_ray_sets_match_both_reference_walks_on_random_graphs():
    rng = random.Random(31)
    for i in range(300):
        g = random_sofic_pres(rng, rng.randint(2, 4)).graph
        assert g.reversed().reversed() == g
        pred = {a: {} for a in g.labels}
        for (s, t, a) in g.edges:
            pred[a].setdefault(t, []).append(s)
        assert _successors(g.reversed()) == pred, i
        assert realizable_past_sets(g) == reference_ray_sets(g, "past"), i
        assert realizable_future_sets(g) == reference_ray_sets(g, "future"), i


def test_bitmask_ray_sets_match_the_pair_set_walk():
    # 24 graphs shaped like the wide benchmark's, of 6-9 states, then one each
    # of 10 and 12 states, both sides.  The pair-set walk's time is heavy
    # tailed in the seed: 0.07-1.1 s over seeds 1-20 on a shared Xeon host,
    # and 0.13 s for this one, which keeps the test well under 0.5 s.
    rng = random.Random(16)
    sizes = [rng.randint(6, 9) for _ in range(24)] + [10, 12]
    for i, n in enumerate(sizes):
        g = random_sparse_sofic_pres(rng, n).graph
        assert realizable_past_sets(g) == ray_sets(g), i
        assert realizable_future_sets(g) == ray_sets(g.reversed()), i


def test_block_code_edges():
    code = BlockCode.from_dict(
        {(("a",), ("a",)): ("a",), (("a",), ("b",)): ("a",),
         (("b",), ("a",)): ("b",), (("b",), ("b",)): ("b",)}
    )
    assert apply_block_code(code, ("a",)) == ()
    assert apply_block_code(code, ()) == ()
    # first-letter projection drops the last letter
    assert apply_block_code(code, ("a", "b", "a")) == ("a", "b")
    with pytest.raises(SubshiftError):
        apply_block_code(code, ("a", "c"))


def test_graph_invariants():
    with pytest.raises(SubshiftError):
        LabeledGraph(("1", "2"), (("1", "2", "a"),))  # state 1 has no incoming
    with pytest.raises(SubshiftError):
        SftMatrix(((1, 0), (1, 0)), ("1", "2"))  # zero column
