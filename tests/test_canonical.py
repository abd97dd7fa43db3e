import functools
import random
from itertools import product as cartesian

import pytest

from bisys.bisystem import fpcc_check, presented_words, validate
from bisys.canonical import CanonicalError, canonical_bisystem, canonical_smb
from bisys.core import WordDag
from bisys.smb import smb_isomorphic, to_smb
from bisys.subshift import (
    LabeledGraph,
    SubshiftPresentation,
    admissible_words,
    realizable_past_sets,
)
from fixtures import (
    even_shift_pres,
    even_window_ok,
    full_shift_bisystem,
    full_shift_pres,
    golden_mean_pres,
    golden_window_ok,
    paper_golden_mean_bisystem,
    random_sofic_pres,
    shallow_stack,
)
from oracles import central_classes, fill_in_words, reference_classes, step_past


def window_oracle_classes(allowed, window_ok, gap, pad=9):
    """Distinct fill-in word sets over long finite contexts (filter oracle).
    The padding words are filtered once per call."""
    pads = [w for w in cartesian(allowed, repeat=pad) if window_ok(w)]
    classes = set()
    for u in pads:
        for v in pads:
            words = frozenset(
                m for m in cartesian(allowed, repeat=gap) if window_ok(u + m + v)
            )
            if words:
                classes.add(words)
    return classes


def test_full_shift_single_class():
    for l in range(0, 5):
        assert len(central_classes(full_shift_pres(2), l)) == 1


def test_golden_mean_class_counts():
    assert len(central_classes(golden_mean_pres(), 1)) == 2
    for l in (2, 3, 4):
        assert len(central_classes(golden_mean_pres(), l)) == 4


def test_golden_mean_classes_match_window_oracle():
    for gap in (1, 2, 3):
        got = {frozenset(c.words) for c in central_classes(golden_mean_pres(), gap)}
        want = window_oracle_classes("12", golden_window_ok, gap)
        assert got == want


def test_even_shift_classes_match_window_oracle():
    for gap in (1, 2, 3):
        got = {frozenset(c.words) for c in central_classes(even_shift_pres(), gap)}
        want = window_oracle_classes("ab", even_window_ok, gap)
        assert got == want


def test_canonical_golden_mean_matches_printed_example():
    build = canonical_bisystem(golden_mean_pres(), 5)
    assert build.bisystem.level_sizes == (1, 2, 4, 4, 4, 4)
    iso = smb_isomorphic(to_smb(build.bisystem), to_smb(paper_golden_mean_bisystem(5)))
    assert iso is not None


def test_canonical_full_shift_structure():
    build = canonical_bisystem(full_shift_pres(3), 4)
    b = build.bisystem
    assert b.level_sizes == (1, 1, 1, 1, 1)
    for block in b.minus_edges:
        assert len(block) == 3
    for block in b.plus_edges:
        assert len(block) == 3
    assert smb_isomorphic(to_smb(b), to_smb(full_shift_bisystem(3, 4))) is not None


def test_every_build_is_valid_and_compatible():
    for pres in (golden_mean_pres(), even_shift_pres(), full_shift_pres(2)):
        build = canonical_bisystem(pres, 5)
        rep = validate(build.bisystem)
        assert rep.ok
        assert fpcc_check(build.bisystem)


def test_presented_language_equals_admissible():
    for pres in (golden_mean_pres(), even_shift_pres(), full_shift_pres(2)):
        b = canonical_bisystem(pres, 5).bisystem
        for n in range(1, 5):
            ws = admissible_words(pres, n)
            assert presented_words(b, "minus", n) == ws
            assert presented_words(b, "plus", n) == ws


def test_edge_wellformedness_across_all_pairs():
    """The left/right step gives one answer per class, over every pair."""
    pres = golden_mean_pres()
    g = pres.graph
    for l in (1, 2, 3):
        for cls in central_classes(pres, l + 1):
            for a in g.labels:
                left = {
                    fill_in_words(g, step_past(g, frozenset(p), a), frozenset(f), l)
                    for (p, f) in cls.pairs
                }
                right = {
                    fill_in_words(g, frozenset(p), step_past(g.reversed(), frozenset(f), a), l)
                    for (p, f) in cls.pairs
                }
                assert len(left) == 1 and len(right) == 1


def test_reducible_presentation_is_flagged():
    g = LabeledGraph(
        ("p", "q"), (("p", "p", "x"), ("q", "q", "y"))
    )
    build = canonical_bisystem(SubshiftPresentation.from_graph(g), 3)
    assert not build.irreducible
    assert build.warnings
    assert validate(build.bisystem).ok


def test_class_table_and_vertex_order_agree():
    build = canonical_bisystem(golden_mean_pres(), 4)
    for l, classes in enumerate(build.class_table):
        assert len(classes) == build.bisystem.level_sizes[l]
        assert list(classes) == sorted(classes, key=lambda c: (len(c.words), c.words))


def test_depth_validation():
    with pytest.raises(CanonicalError):
        canonical_bisystem(golden_mean_pres(), 0)
    with pytest.raises(CanonicalError):
        central_classes(golden_mean_pres(), -1)


def test_canonical_smb_is_validated_presentation():
    s = canonical_smb(even_shift_pres(), 4)
    assert s.level_sizes == (1, 3, 9, 9, 9)


def test_canonical_of_recoded_forbidden_input():
    pres = SubshiftPresentation.from_forbidden(("1", "2"), (("1", "2", "1"),))
    build = canonical_bisystem(pres, 4)
    b = build.bisystem
    assert validate(b).ok and fpcc_check(b)
    for n in range(1, 4):
        assert presented_words(b, "plus", n) == admissible_words(pres, n)


def reference_edges(g, classes, level):
    """Minus and plus block into ``level`` from every pair of every class above."""
    index = {cls.words: i for i, cls in enumerate(classes[level])}
    fill = functools.lru_cache(maxsize=None)(lambda p, f: fill_in_words(g, p, f, level))
    minus, plus = set(), set()
    for j, cls in enumerate(classes[level + 1]):
        for (p, f) in cls.pairs:
            p, f = frozenset(p), frozenset(f)
            for a in g.labels:
                p2 = step_past(g, p, a)
                words = fill(p2, f) if p2 else ()
                if words:
                    minus.add((j, index[words], (a,)))
                f2 = step_past(g.reversed(), f, a)
                words = fill(p, f2) if f2 else ()
                if words:
                    plus.add((index[words], j, (a,)))
    return tuple(sorted(minus)), tuple(sorted(plus))


def differential_cases():
    cases = [
        pytest.param(golden_mean_pres(), 5, id="golden_mean"),
        pytest.param(even_shift_pres(), 5, id="even"),
        pytest.param(full_shift_pres(2), 5, id="full2"),
        pytest.param(full_shift_pres(3), 5, id="full3"),
        pytest.param(
            SubshiftPresentation.from_forbidden(("1", "2"), (("1", "2", "1"),)), 5,
            id="no_121",
        ),
    ]
    rng = random.Random(0)
    for i in range(20):
        n = rng.randint(3, 6)
        depth = rng.choice((4, 5))
        cases.append(pytest.param(random_sofic_pres(rng, n), depth, id=f"random{i}_{n}states"))
    return cases


@pytest.mark.parametrize("pres,depth", differential_cases())
def test_sweep_matches_per_pair_fill_in_reference(pres, depth):
    """Seeded differential check of the sweep against the enumeration it
    replaces: class words and pairs, and every edge from every pair."""
    g = pres.graph
    build = canonical_bisystem(pres, depth)
    b = build.bisystem
    for level, classes in enumerate(build.class_table):
        assert [(c.words, c.pairs) for c in classes] == reference_classes(g, level)
    for level in range(depth):
        assert (b.minus_edges[level], b.plus_edges[level]) == reference_edges(
            g, build.class_table, level
        )
    assert central_classes(pres, depth) == build.class_table[depth]


def test_interned_nodes_grow_linearly_with_depth(monkeypatch):
    """A full shift has one vertex per level but |alphabet|^depth fill-in
    words.  The build and its FPCC check intern a fixed number of new word
    DAG nodes per level, and no class lists its words."""
    import bisys.bisystem as bs
    import bisys.canonical as cn

    made = []

    class Recorded(WordDag):
        def __init__(self, letters):
            super().__init__(letters)
            made.append(self)

    monkeypatch.setattr(bs, "WordDag", Recorded)
    monkeypatch.setattr(cn, "WordDag", Recorded)
    for n, top in ((2, 20), (3, 12)):
        counts = []
        for depth in range(1, top + 1):
            made.clear()
            build = canonical_bisystem(full_shift_pres(n), depth)
            assert len(made) == 2  # the build's DAG and the FPCC check's
            assert not any("words" in vars(c) for level in build.class_table for c in level)
            counts.append(sum(len(dag.nodes) for dag in made))
        assert len({b - a for a, b in zip(counts, counts[1:])}) == 1, counts


def test_build_lists_no_words(monkeypatch):
    """The class order, the edges and FPCC read the word DAG; none lists a
    class's words."""
    def listed(self, n, prefix=()):
        raise AssertionError("the build listed words")

    monkeypatch.setattr(WordDag, "words", listed)
    no_121 = SubshiftPresentation.from_forbidden(("1", "2"), (("1", "2", "1"),))
    for pres in (even_shift_pres(), no_121):
        canonical_bisystem(pres, 30)


def test_deep_word_lists_take_no_stack_frame_per_letter():
    """A class's words, and == between two classes, list a language of
    depth-400 words with no stack frame per letter."""
    n = 400
    one, other = (canonical_bisystem(full_shift_pres(1), n).class_table[n][0] for _ in range(2))
    with shallow_stack():
        assert one.words == (("a",) * n,)
        assert one == other and one is not other


def test_class_order_matches_a_sort_of_listed_words():
    """Each level's order, read off the level below, is the (size, words)
    order of a sort that lists every class's words: 5 752 classes, 4 218 of
    them next to one of their own size."""
    rng = random.Random(1)
    for _ in range(15):
        pres = random_sofic_pres(rng, rng.randint(6, 9))
        for classes in canonical_bisystem(pres, rng.randint(6, 8)).class_table:
            assert list(classes) == sorted(classes, key=lambda c: (len(c.words), c.words))


def test_a_child_outside_the_level_below_is_a_canonical_error(monkeypatch):
    """Past sets not closed under steps give a class a child that is no class
    of the level below; the order ranks it last and the edge check names it."""
    import bisys.canonical as cn

    pasts = realizable_past_sets(golden_mean_pres().graph)
    monkeypatch.setattr(cn, "realizable_past_sets", lambda g: pasts[1:])
    with pytest.raises(CanonicalError) as exc:
        canonical_bisystem(golden_mean_pres(), 3)
    assert str(exc.value) == "left step left the class table at level 1: (('1',), ('2',))"


def test_verdicts_are_computed_once_per_bisystem(monkeypatch):
    import bisys.bisystem as bs

    calls = {"axioms": 0, "fpcc": 0}
    real_axioms, real_fpcc = bs.axiom_verdicts, bs._fpcc_verdict

    def axioms(b):
        calls["axioms"] += 1
        return real_axioms(b)

    def fpcc(b):
        calls["fpcc"] += 1
        return real_fpcc(b)

    monkeypatch.setattr(bs, "axiom_verdicts", axioms)
    monkeypatch.setattr(bs, "_fpcc_verdict", fpcc)
    b = canonical_bisystem(even_shift_pres(), 4).bisystem  # gates on validate
    rep = validate(b)
    to_smb(b)  # gates on the axioms
    assert calls == {"axioms": 1, "fpcc": 1}
    assert rep.axioms == real_axioms(b) and rep.fpcc == real_fpcc(b)
