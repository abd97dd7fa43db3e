import random

import pytest

from bisys.core import (
    Alphabet,
    FormalSum,
    SymbolicMatrix,
    kappa_matrix,
    symbolic_matrix_multiply,
    word_str,
)
from bisys.bisystem import Verdict, from_lambda_graph_system, fpcc_check, transpose, validate
from bisys.canonical import canonical_bisystem, canonical_smb
from bisys.smb import (
    SmbError,
    SmbValidationReport,
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
    full_shift_bisystem,
    full_shift_pres,
    golden_mean_lgs,
    golden_mean_pres,
    golden_mean_symbolic,
    paper_golden_mean_bisystem,
    symbolic_2x2,
)


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
    assert smb_isomorphic(ce.shift(1), gs.shift(1)) is not None


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
    return SmbValidationReport(s.depth, tuple(zip(("i", "ii", "iii", "iv", "v"), verdicts)))


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
