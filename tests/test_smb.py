import hashlib
import os
import random
import sys
from contextlib import contextmanager

import pytest

from bisys.core import (
    Alphabet,
    FormalSum,
    SymbolicMatrix,
    kappa_matrix,
    symbolic_matrix_multiply,
    word_str,
)
from bisys.bisystem import (
    LambdaGraphBisystem,
    ValidationReport,
    Verdict,
    fpcc_check,
    from_lambda_graph_system,
    transpose,
    validate,
)
from bisys.canonical import canonical_bisystem, canonical_smb
from bisys.cli.documents import dump_document, load_document, parse_document
import bisys.smb as smb_module
from bisys.smb import (
    SmbError,
    SymbolicMatrixBisystem,
    from_smb,
    sft_smb,
    smb_isomorphic,
    to_smb,
    validate_smb,
)
from fixtures import (
    alternating_pres,
    edge_shift_pres,
    even_shift_pres,
    even_window_bisystem,
    full_shift_bisystem,
    full_shift_pres,
    golden_mean_lgs,
    golden_mean_pres,
    golden_mean_symbolic,
    paper_golden_mean_bisystem,
    random_sofic_pres,
    symbolic_2x2,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def test_sft_smb_validates_for_any_2x2():
    for mat in (symbolic_2x2(), golden_mean_symbolic()):
        s = sft_smb(mat, depth=4)
        assert validate_smb(s).ok


def test_corrupt_symbol_breaks_commutation_with_cell_report():
    s = sft_smb(symbolic_2x2(), depth=4)
    bad_plus = list(s.plus)
    m = bad_plus[2]
    grid = [list(row) for row in m.entries]
    grid[0][0] = FormalSum.of(("d+",))  # was a+
    bad_plus[2] = SymbolicMatrix(m.rows, m.cols, tuple(tuple(r) for r in grid), m.alphabet)
    broken = SymbolicMatrixBisystem(s.minus, tuple(bad_plus), s.sigma_minus, s.sigma_plus)
    rep = validate_smb(broken)
    assert not rep.axiom("v").ok
    assert any("cell" in c for c in rep.axiom("v").counterexamples)


def test_import_smb_is_identity_pattern_commutation():
    b = from_lambda_graph_system(golden_mean_lgs(4))
    s = to_smb(b)
    rep = validate_smb(s)
    assert rep.ok
    # the minus blocks are identity patterns over the single collapse symbol
    for m in s.minus:
        for i in range(m.rows):
            for j in range(m.cols):
                cell = m.entry(i, j)
                assert cell.is_zero or cell == FormalSum.of(("iota",))


def test_to_smb_entries_match_edge_list():
    b = paper_golden_mean_bisystem(5)
    s = to_smb(b)
    assert s.minus[1].entry(0, 0) == FormalSum.of(("am",))
    assert s.minus[1].entry(1, 1) == FormalSum.of(("am",), ("bm",))
    assert s.minus[0].entry(0, 0) == FormalSum.of(("am",), ("bm",))
    assert s.plus[0].entry(0, 0) == FormalSum.of(("ap",), ("bp",))


def test_full_shift_smb_is_sum_row():
    s = to_smb(full_shift_bisystem(3, 4))
    for m in s.minus + s.plus:
        assert (m.rows, m.cols) == (1, 1)
        assert m.entry(0, 0).term_count == 3


def test_round_trip():
    for b in (paper_golden_mean_bisystem(4), full_shift_bisystem(2, 4)):
        s = to_smb(b)
        back = from_smb(s)
        assert to_smb(back).minus == s.minus
        assert to_smb(back).plus == s.plus


def shared_where_equal(blocks):
    """Whether each block is the object of the block one, and two, before it;
    asserted to be exactly where it equals that block."""
    same = [[blocks[l] is blocks[l + k] for l in range(len(blocks) - k)] for k in (1, 2)]
    assert same == [[blocks[l] == blocks[l + k] for l in range(len(blocks) - k)] for k in (1, 2)]
    return same


def test_equal_blocks_are_one_object():
    """The golden-mean build stabilizes from block 2 on; there each block of
    the matrix presentation, and of the parse of its document, is the object
    before it, and a block is that object only where it equals it.  So are
    the alternating build's plus blocks, which repeat with period 2, the
    even-shift build's edge blocks and a one-sided import's edge blocks."""
    s = to_smb(canonical_bisystem(golden_mean_pres(), 8).bisystem)
    parsed = parse_document(dump_document("smb", "gm", s))[2]
    assert parsed == s
    for t in (s, parsed):
        for blocks in (t.minus, t.plus):
            assert shared_where_equal(blocks)[0] == [False, False] + [True] * 5
    alt = to_smb(canonical_bisystem(alternating_pres(), 12).bisystem)
    for t in (alt, parse_document(dump_document("smb", "alt", alt))[2]):
        assert shared_where_equal(t.plus) == [[False] * 11, [False] + [True] * 9]
        assert shared_where_equal(t.minus)[0] == [False] + [True] * 10
    even = canonical_bisystem(even_shift_pres(), 8).bisystem
    for b in (even, parse_document(dump_document("bisystem", "even", even))[2]):
        for blocks in (b.minus_edges, b.plus_edges):
            assert shared_where_equal(blocks)[0] == [False] * 3 + [True] * 4
    lgs = load_document(os.path.join(EXAMPLES, "full3.lgs.json"), 6)[2]
    imported = from_lambda_graph_system(lgs)
    for blocks in (imported.minus_edges, imported.plus_edges):
        assert shared_where_equal(blocks)[0] == [True] * 5
    # equal rows over a wider upper level are another block
    a = Alphabet.of("a")
    edges = (((0, 0, ("a",)),), ((0, 0, ("a",)),))
    wide = to_smb(LambdaGraphBisystem((1, 1, 2), edges, edges, a, a), unchecked=True)
    assert wide.level_sizes == (1, 1, 2)


def test_sft_smb_eq42_entries():
    s = sft_smb(symbolic_2x2(), depth=3)
    minus_expect = [
        ["a-", 0, "c-", 0],
        [0, "a-", 0, "c-"],
        ["b-", 0, "d-", 0],
        [0, "b-", 0, "d-"],
    ]
    plus_expect = [
        ["a+", "b+", 0, 0],
        ["c+", "d+", 0, 0],
        [0, 0, "a+", "b+"],
        [0, 0, "c+", "d+"],
    ]
    for grid, mat in ((minus_expect, s.minus[2]), (plus_expect, s.plus[2])):
        for i in range(4):
            for j in range(4):
                want = grid[i][j]
                if want == 0:
                    assert mat.entry(i, j).is_zero
                else:
                    assert mat.entry(i, j) == FormalSum.of((want,))
    assert s.minus[0].rows == 1 and s.minus[0].cols == 4
    assert [w for w, _ in s.minus[0].entry(0, 0).items()] == [("a-",)]


def test_sft_smb_identified_satisfies_fpcc():
    s = sft_smb(symbolic_2x2(), identify=True, depth=4)
    assert validate_smb(s).ok
    assert fpcc_check(from_smb(s))


def test_sft_smb_rejects_bad_cells():
    alph = Alphabet.of("a", "b")
    dup = SymbolicMatrix.build(2, 2, alph, lambda i, j: FormalSum.of("a"))
    with pytest.raises(SmbError):
        sft_smb(dup)
    two = SymbolicMatrix.build(
        2, 2, Alphabet.of("a", "b"), lambda i, j: FormalSum.of("a", "b")
    )
    with pytest.raises(SmbError):
        sft_smb(two)


def test_isomorphic_reflexive():
    s = canonical_smb(golden_mean_pres(), 4)
    iso = smb_isomorphic(s, s)
    assert iso is not None
    assert all(tuple(p) == tuple(range(len(p))) for p in iso.perms)
    assert all(a == b for a, b in iso.spec_minus.pairs)


def test_isomorphic_recovers_planted_permutation():
    s = canonical_smb(golden_mean_pres(), 4)
    perm = (2, 0, 3, 1)
    inv = tuple(perm.index(i) for i in range(4))

    def scramble(mats, level):
        out = list(mats)
        out[level - 1] = out[level - 1].permute_cols(perm)
        out[level] = out[level].permute_rows(perm)
        return tuple(out)

    s2 = SymbolicMatrixBisystem(
        scramble(s.minus, 2), scramble(s.plus, 2), s.sigma_minus, s.sigma_plus
    )
    assert validate_smb(s2).ok
    iso = smb_isomorphic(s, s2)
    assert iso is not None
    assert iso.perms[2] == perm or iso.perms[2] == inv


def test_isomorphic_canonical_vs_paper_fixture():
    cs = canonical_smb(golden_mean_pres(), 5)
    fs = to_smb(paper_golden_mean_bisystem(5))
    iso = smb_isomorphic(cs, fs)
    assert iso is not None
    assert iso.spec_minus.as_dict() == {("1",): ("am",), ("2",): ("bm",)}
    assert iso.spec_plus.as_dict() == {("1",): ("ap",), ("2",): ("bp",)}


def test_isomorphism_is_equivalence_on_concrete_triple():
    s1 = canonical_smb(golden_mean_pres(), 4)
    s2 = to_smb(paper_golden_mean_bisystem(4))
    s3 = to_smb(paper_golden_mean_bisystem(4, sm=("x", "y"), sp=("u", "v")))
    assert smb_isomorphic(s1, s1) is not None
    assert smb_isomorphic(s1, s2) is not None and smb_isomorphic(s2, s1) is not None
    assert smb_isomorphic(s2, s3) is not None
    assert smb_isomorphic(s1, s3) is not None


def test_isomorphic_rejects_different_sizes():
    s1 = canonical_smb(golden_mean_pres(), 4)
    s2 = canonical_smb(full_shift_pres(2), 4)
    assert smb_isomorphic(s1, s2) is None


def test_canonical_vs_sft_construction_above_level_one():
    ce = canonical_smb(edge_shift_pres(), 5)
    gs = sft_smb(golden_mean_symbolic(), depth=5)
    # both with their first block dropped
    ce1, gs1 = (SymbolicMatrixBisystem(s.minus[1:], s.plus[1:], s.sigma_minus, s.sigma_plus)
                for s in (ce, gs))
    assert smb_isomorphic(ce1, gs1) is not None


def test_validate_matches_bisystem_validation():
    b = paper_golden_mean_bisystem(4)
    assert validate(b).ok == validate_smb(to_smb(b)).ok


def test_block_alphabet_must_be_its_sides():
    s = sft_smb(symbolic_2x2(), depth=3)
    other = Alphabet.of("a+", "b+", "c+", "d+", "e+")
    wider = SymbolicMatrix(s.plus[1].rows, s.plus[1].cols, s.plus[1].entries, other)
    plus = (s.plus[0], wider) + s.plus[2:]
    with pytest.raises(SmbError, match="block 1: matrix alphabet differs"):
        SymbolicMatrixBisystem(s.minus, plus, s.sigma_minus, s.sigma_plus)
    with pytest.raises(SmbError, match="block 0: matrix alphabet differs"):
        SymbolicMatrixBisystem(s.minus, s.minus, s.sigma_minus, s.sigma_plus)


def test_repeat_from_follows_the_readers_rule():
    """A marker from which the blocks differ is refused where the system is
    made, not only when its document is read back; a null marker and one on
    the last block are taken, and sft_smb's markers re-parse."""
    s = canonical_smb(golden_mean_pres(), 3)

    def marked(marker):
        return SymbolicMatrixBisystem(s.minus, s.plus, s.sigma_minus, s.sigma_plus, marker)

    with pytest.raises(SmbError, match="the blocks from repeat_from 0 on are not all equal"):
        marked(0)
    for marker in (None, s.depth - 1):
        text = dump_document("smb", "gm", marked(marker))
        assert dump_document(*parse_document(text)) == text
    for depth in (2, 3, 5):
        t = sft_smb(golden_mean_symbolic(), depth=depth)
        text = dump_document("smb", "gm", t)
        assert parse_document(text)[2].repeat_from == t.repeat_from
        assert dump_document(*parse_document(text)) == text


# -- reference: the matrix-side validator as dense scans and symbolic products


def product_validate_smb(s):
    """Reference validator: dense cell scans for (ii)-(iv), and (v) as the two
    one-step products compared cell by cell after the factor exchange."""
    bad2 = []
    for l in range(s.depth):
        for mat, name in ((s.minus[l], "minus"), (s.plus[l], "plus")):
            for i in range(mat.rows):
                if all(mat.entry(i, j).is_zero for j in range(mat.cols)):
                    bad2.append(f"block {l} {name}: zero row {i + 1}")
            for j in range(mat.cols):
                if all(mat.entry(i, j).is_zero for i in range(mat.rows)):
                    bad2.append(f"block {l} {name}: zero column {j + 1}")

    bad3 = []
    for l in range(s.depth):
        for mat, name in ((s.minus[l], "minus"), (s.plus[l], "plus")):
            for i in range(mat.rows):
                for j in range(mat.cols):
                    if any(c > 1 for c in mat.entry(i, j)._terms.values()):
                        bad3.append(f"block {l} {name} cell ({i+1},{j+1}): repeated symbol")

    bad4 = []
    for l in range(s.depth):
        for mat, name in ((s.minus[l], "minus"), (s.plus[l], "plus")):
            for j in range(mat.cols):
                seen = {}
                for i in range(mat.rows):
                    for w in sorted(mat.entry(i, j).support()):
                        if w in seen and seen[w] != i:
                            bad4.append(
                                f"block {l} {name} column {j+1}: symbol "
                                f"{word_str(w)} in rows {seen[w]+1} and {i+1}"
                            )
                        seen[w] = i

    bad5 = []
    for l in range(s.depth - 1):
        lhs = symbolic_matrix_multiply(s.minus[l], s.plus[l + 1])
        rhs = kappa_matrix(symbolic_matrix_multiply(s.plus[l], s.minus[l + 1]))
        for i in range(lhs.rows):
            for j in range(lhs.cols):
                if lhs.entry(i, j) != rhs.entry(i, j):
                    bad5.append(
                        f"commutation fails at blocks {l},{l+1} cell ({i+1},{j+1}): "
                        f"{lhs.entry(i, j)!r} vs {rhs.entry(i, j)!r}"
                    )

    verdicts = [Verdict(True)] + [Verdict(not b, tuple(b)) for b in (bad2, bad3, bad4, bad5)]
    return ValidationReport(s.depth, tuple(zip(("i", "ii", "iii", "iv", "v"), verdicts)))


def single_cell_mutant(s, rng):
    """s with one term of one cell dropped, duplicated, replaced by another
    symbol of the side, or moved to another cell of the same block."""
    side = rng.choice(("minus", "plus"))
    blocks = list(getattr(s, side))
    l = rng.randrange(len(blocks))
    m = blocks[l]
    grid = [list(row) for row in m.entries]
    cells = [(i, j) for i in range(m.rows) for j in range(m.cols)]
    i, j = rng.choice([c for c in cells if not m.entry(*c).is_zero] or cells)
    terms = [w for w, c in grid[i][j].items() for _ in range(c)]
    op = rng.choice(("drop", "duplicate", "replace", "move")) if terms else "replace"
    k = rng.randrange(len(terms)) if terms else 0
    if op == "drop":
        del terms[k]
    elif op == "duplicate":
        terms.append(terms[k])
    elif op == "replace":
        terms[k:k + 1] = [rng.choice(m.alphabet.symbols)]
    else:
        moved = terms.pop(k)
    grid[i][j] = FormalSum(terms)
    if op == "move":
        i2, j2 = rng.choice(cells)
        grid[i2][j2] += FormalSum([moved])
    blocks[l] = SymbolicMatrix(m.rows, m.cols, tuple(map(tuple, grid)), m.alphabet)
    other = "plus" if side == "minus" else "minus"
    parts = {side: tuple(blocks), other: getattr(s, other)}
    return SymbolicMatrixBisystem(parts["minus"], parts["plus"], s.sigma_minus, s.sigma_plus)


def test_validate_smb_report_matches_product_oracle():
    rng = random.Random(7)
    builds = [canonical_bisystem(p, 4).bisystem for p in (
        golden_mean_pres(), even_shift_pres(), alternating_pres(), full_shift_pres(2)
    )]
    valid = [to_smb(b) for b in builds] + [to_smb(transpose(b)) for b in builds] + [
        to_smb(paper_golden_mean_bisystem(4)),
        to_smb(full_shift_bisystem(3, 3)),
        sft_smb(symbolic_2x2(), depth=4),
        sft_smb(golden_mean_symbolic(), identify=True, depth=4),
    ]
    alph = Alphabet.of("a", "b")
    shared = SymbolicMatrix.build(3, 1, alph, lambda i, j: FormalSum.of("a", "b"))
    cases = valid + [single_cell_mutant(rng.choice(valid), rng) for _ in range(300)] + [
        SymbolicMatrixBisystem((shared,), (shared,), alph, alph),  # one symbol in three rows
    ]
    failed = set()
    for s in cases:
        rep = validate_smb(s)
        assert rep == product_validate_smb(s)
        failed |= {name for name, v in rep.axioms if not v.ok}
    assert all(validate_smb(s).ok for s in valid)
    assert failed == {"ii", "iii", "iv", "v"}


# -- the isomorphism search, pinned to the level-at-a-time search it replaced


def scramble(s, rng):
    """s with the vertices of every level shuffled at random."""
    perms = [rng.sample(range(n), n) for n in s.level_sizes]

    def side(mats):
        return tuple(m.permute_rows(perms[l]).permute_cols(perms[l + 1])
                     for l, m in enumerate(mats))

    return SymbolicMatrixBisystem(side(s.minus), side(s.plus), s.sigma_minus, s.sigma_plus)


def isomorphism_pairs():
    """315 seeded (s1, s2) pairs over 21 depth-3 systems: canonical builds and
    their transposes, paper fixtures and sft_smb systems.  Each system is
    paired with itself, six scrambles of itself and six single-cell mutants
    against scrambles, and with a scramble of every other system of its level
    sizes."""
    rng = random.Random(5)
    pres = [golden_mean_pres(), even_shift_pres(), alternating_pres(), full_shift_pres(2),
            edge_shift_pres(), random_sofic_pres(rng, 3), random_sofic_pres(rng, 4)]
    builds = [canonical_bisystem(p, 3).bisystem for p in pres]
    systems = [to_smb(b) for b in builds] + [to_smb(transpose(b)) for b in builds] + [
        to_smb(paper_golden_mean_bisystem(3)),
        to_smb(paper_golden_mean_bisystem(3, sm=("x", "y"), sp=("u", "v"))),
        to_smb(even_window_bisystem(3)),
        to_smb(full_shift_bisystem(2, 3)),
        sft_smb(symbolic_2x2(), depth=3),
        sft_smb(golden_mean_symbolic(), depth=3),
        sft_smb(golden_mean_symbolic(), identify=True, depth=3),
    ]
    rng = random.Random(17)
    pairs = []
    for s in systems:
        pairs.append((s, s))
        for _ in range(6):
            pairs.append((s, scramble(s, rng)))
            pairs.append((scramble(s, rng), single_cell_mutant(s, rng)))
    for a in systems:
        for b in systems:
            if a is not b and a.level_sizes == b.level_sizes:
                pairs.append((a, scramble(b, rng)))
    return pairs


# One token per pair of isomorphism_pairs(), in order: "-" for None, else the
# sha256 prefix of repr((perms, spec_minus.pairs, spec_plus.pairs)).  Recorded
# from the search that placed whole levels and checked per-vertex signatures.
PINNED_ISOMORPHISMS = """
    1cb3de7520 b90f89ed30 - 6b6f4ba5e5 - 826223ca72 -
    8d8bb0622a - 030bce8de3 - 6dad799bec - c563e11205
    ec8e143d2b 0f434884e3 06037324fa 7ab55a674e dd39a7de9b - 6326e45e85
    - 08addadf27 - f8861240d9 - 424c8f6f27 273a856e5b
    - 1787046c0a - 273a856e5b - 77bbfc5983 -
    424c8f6f27 - d3e4e7571e d836d3d97a 773f6b4cbb 773f6b4cbb -
    773f6b4cbb 773f6b4cbb 773f6b4cbb - 773f6b4cbb 773f6b4cbb 773f6b4cbb
    773f6b4cbb 773f6b4cbb - c3690d8604 94b219dbc5 - 95a9aa3d65
    - fb57dad985 - ac8da6a6db - 307cc41296 1743e68ada
    ac9ebb79e6 - b26a18a784 00b11bf542 - dd53aec4d4 -
    2f9b621bde - ecfaf3f33c - b9525e42fb - c4e48915e1
    - efe0d7d245 f240bbd092 - b7638c7d05 - 6d8fe5f5f0
    - 2d22f8f52c - 3410dca35d - d3ed350049 -
    1cb3de7520 abe6c7d458 - e7215551de - 9b069d9e7a 4ba9379797
    9df43f3d12 09590da964 76af20a14a - 32b853726c - c563e11205
    ae293c5430 - 061ae98226 - ab62693ab2 - 070951ebad
    - a201025e67 bfa49d516e ea4a97a017 - 424c8f6f27 273a856e5b
    - 273a856e5b d3e4e7571e d3e4e7571e d3e4e7571e 273a856e5b -
    273a856e5b - 77bbfc5983 - 773f6b4cbb 773f6b4cbb 773f6b4cbb
    773f6b4cbb 773f6b4cbb 773f6b4cbb - 773f6b4cbb 773f6b4cbb 773f6b4cbb
    773f6b4cbb 773f6b4cbb - c3690d8604 86b71645c3 - 73b111c7d1
    - 33477631d5 - 7da8d29d02 - fd18ee8d10 -
    f91efd54ad - b26a18a784 bda03d2fac - c94cf990db -
    61a8d93fc6 - b585be0e5a - 9c72efd4b8 - 84c18283bf
    3a61436471 efe0d7d245 3fbbbabcc6 - dabf1c4136 - af69813033
    - af10ac7c7d - bb783ce0e3 - fab2f76fca -
    f736938e72 b8753458b8 - af876578d3 - 769c897548 -
    81ab3c9b5b - 6cc143666f - a63a8168a9 - d983f19ee5
    859db335c7 - de6b6f7356 8c333922cf f138462553 - 38c424a717
    704f391719 37e86324d1 - 8020e94146 - c563e11205 81f7fa3ed2
    - 038a190c49 - 0a3d53e573 - 52acb898b8 0ce076f878
    897ee9acf2 0162de9de9 9de5147138 - 773f6b4cbb 773f6b4cbb -
    773f6b4cbb - 773f6b4cbb - 773f6b4cbb - 773f6b4cbb
    - 773f6b4cbb 773f6b4cbb ea8e6f9464 e0fe3aecbe - 1fe3f576e7
    - 9d13497678 - ebdf336b95 - d3e4038a45 -
    34066a4168 - 39f58603be 363ac0ae68 - 4f7660a817 -
    0d25940362 - cfce3359e2 - bd0d09735c - a776ad5943
    - c3690d8604 0664d9d8d9 - ff48ffd5cc - fd03fb2eff
    - 74e3951b04 - 037cb6dfb7 - 8a638a9a6f -
    c3dac75251 465e621275 9313e10db3 79f957c393 c2018cde8e 9b97667b19 773f6b4cbb
    773f6b4cbb 9940ab7185 559986918c f187d11f9e ffc9cc23d0 - a0d6ef4522
    fa3ae81bc6 adc159c4df 35306a9542 d519a2f692 d836d3d97a 773f6b4cbb 773f6b4cbb
    74acf32409 96ecd4781c a9caccf45d 24c890b8b0 - a3c231039a 8b9bdf5321
    540ad2d922 8e452cdb61 e9439e481a 791d8106b6 b396e6416f 681e14e316 773f6b4cbb
    773f6b4cbb 02cb733496 b6e609f2c4 0196dcebb0 efec338078 16b8dba69d 4c7e932e51
""".split()


def isomorphism_token(iso):
    if iso is None:
        return "-"
    value = (iso.perms, iso.spec_minus.pairs, iso.spec_plus.pairs)
    return hashlib.sha256(repr(value).encode()).hexdigest()[:10]


def test_isomorphism_search_keeps_the_pinned_witnesses():
    got = [isomorphism_token(smb_isomorphic(a, b)) for a, b in isomorphism_pairs()]
    assert len(got) == len(PINNED_ISOMORPHISMS) == 315
    assert [k for k, (g, w) in enumerate(zip(got, PINNED_ISOMORPHISMS)) if g != w] == []
    assert sum(t != "-" for t in got) == 209


@contextmanager
def forward_checks_at_most(limit):
    """Raise once the search's forward check, the closure ``fits`` in
    ``smb_isomorphic`` that compares a candidate slot's cells with the placed
    rows above it, has run more than ``limit`` times.  The check reads a
    term-count grid made once per block, so counting cell reads would not
    see it."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "fits" and code.co_filename == smb_module.__file__:
            calls += 1
            if calls > limit:
                raise RuntimeError(f"more than {limit} forward checks")

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield
    finally:
        sys.setprofile(before)


def test_isomorphism_search_checks_cells_slot_by_slot():
    """A scramble of a depth-3 build with level sizes 1, 3, 12, 27 is found in
    about 300 forward checks.  The limit keeps the tenfold margin of the
    earlier limit of 50 000 cell reads, against 4 736 made; a search that
    places a whole level before it checks any cell made more than 50 000 cell
    reads without finding it."""
    s = to_smb(canonical_bisystem(random_sofic_pres(random.Random(0), 6), 3).bisystem)
    s2 = scramble(s, random.Random(1))
    assert s.level_sizes == (1, 3, 12, 27)
    with forward_checks_at_most(3_000):
        iso = smb_isomorphic(s, s2)
    assert iso is not None


def test_isomorphism_search_rejects_term_count_mismatch_up_front():
    """Every level-1 cell of a 4x4 sft build holds one term, so the slot checks
    prune nothing there; a term dropped from the last plus block must be
    caught before the 16! orders of level 1 are tried."""
    names = [f"x{k}" for k in range(16)]
    a = SymbolicMatrix.build(4, 4, Alphabet.of(*names), lambda i, j: FormalSum.of(names[4 * i + j]))
    s = sft_smb(a, depth=3)
    plus = list(s.plus)
    m = plus[-1]
    i, j = next((i, j) for i in range(m.rows) for j in range(m.cols) if not m.entry(i, j).is_zero)
    grid = [list(row) for row in m.entries]
    grid[i][j] = FormalSum.zero()
    plus[-1] = SymbolicMatrix(m.rows, m.cols, tuple(map(tuple, grid)), m.alphabet)
    dropped = SymbolicMatrixBisystem(s.minus, tuple(plus), s.sigma_minus, s.sigma_plus)
    with forward_checks_at_most(0):
        assert smb_isomorphic(s, dropped) is None
        assert smb_isomorphic(dropped, s) is None


def test_isomorphism_search_places_slots_without_recursion():
    """A 4x4 sft build at depth 20 has 321 vertex slots; the search must not
    take a stack frame per slot."""
    names = [f"x{k}" for k in range(16)]
    a = SymbolicMatrix.build(4, 4, Alphabet.of(*names), lambda i, j: FormalSum.of(names[4 * i + j]))
    s = sft_smb(a, depth=20)
    assert sum(s.level_sizes) == 321
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        iso = smb_isomorphic(s, s)
    finally:
        sys.setrecursionlimit(limit)
    assert iso is not None
