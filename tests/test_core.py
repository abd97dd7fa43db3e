import random
from collections import Counter
from itertools import permutations

import pytest

from bisys.core import (
    Alphabet,
    CoreError,
    FormalSum,
    Specification,
    SymbolicMatrix,
    depth_first,
    find_specification_multi,
    kappa_matrix,
    specified_equivalence_failure,
    symbolic_matrix_multiply,
)
from fixtures import shallow_stack, symbolic_2x2
import oracles


def fs(*names):
    return FormalSum.of(*[(n,) for n in names])


def test_product_distributes():
    x = fs("a", "b")
    y = fs("x")
    assert x.product(y) == FormalSum.of(("a", "x"), ("b", "x"))


def test_zero_annihilates():
    assert FormalSum.zero().product(fs("x", "y")).is_zero
    assert fs("x").product(FormalSum.zero()).is_zero


def test_product_matches_pairwise_oracle():
    rng = random.Random(1)
    letters = ["a", "b", "c"]
    for _ in range(50):
        x = FormalSum((rng.choice(letters),) for _ in range(rng.randint(0, 4)))
        y = FormalSum((rng.choice(letters),) for _ in range(rng.randint(0, 4)))
        expected = {}
        for u, cu in x.items():
            for v, cv in y.items():
                expected[u + v] = expected.get(u + v, 0) + cu * cv
        assert x.product(y) == FormalSum(expected)


def test_product_keeps_multiplicities():
    x = FormalSum([("a",), ("a",)])
    y = fs("x")
    assert x.product(y).multiplicity(("a", "x")) == 2


def random_matrix(rng, rows, cols, alphabet, max_terms=2):
    return SymbolicMatrix.build(
        rows,
        cols,
        alphabet,
        lambda i, j: FormalSum(
            rng.choice(alphabet.symbols) for _ in range(rng.randint(0, max_terms))
        ),
    )


def dense_matrix_multiply(a, b):
    """The dense product: every cell summed over every k, zeros included."""

    def cell(i, j):
        acc = FormalSum.zero()
        for k in range(a.cols):
            acc = acc + a.entry(i, k).product(b.entry(k, j))
        return acc

    return SymbolicMatrix.build(
        a.rows, b.cols, Alphabet.product(a.alphabet, b.alphabet), cell
    )


def assert_same_product(a, b):
    got, want = symbolic_matrix_multiply(a, b), dense_matrix_multiply(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.alphabet == want.alphabet
    for i in range(want.rows):
        for j in range(want.cols):
            assert got.entry(i, j).items() == want.entry(i, j).items(), (i, j)


def test_matrix_multiply_matches_triple_loop():
    rng = random.Random(2)
    for _ in range(60):
        alph_a = Alphabet.of("a", "b", "c")
        alph_b = Alphabet.of("x", "y", "z")
        n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        assert_same_product(random_matrix(rng, n, k, alph_a), random_matrix(rng, k, m, alph_b))


def sparse_matrix(rng, rows, cols, alphabet, density, zero_rows=(), zero_cols=()):
    """Cells nonzero with probability density, of up to three terms, each
    repeated up to three times, some words drawn twice."""

    def cell(i, j):
        if i in zero_rows or j in zero_cols or rng.random() >= density:
            return FormalSum.zero()
        words = [rng.choice(alphabet.symbols) for _ in range(rng.randint(1, 3))]
        return FormalSum([w for w in words for _ in range(rng.randint(1, 3))])

    return SymbolicMatrix.build(rows, cols, alphabet, cell)


def test_sparse_product_matches_dense_oracle():
    rng = random.Random(47)
    base_a = Alphabet.of("a", "b", "c")
    base_b = Alphabet.of("x", "y")
    alphabets = (base_a, base_b, Alphabet.product(base_a, base_b), Alphabet.product(base_b, base_b))
    for _ in range(400):
        n, k, m = (rng.randint(1, 8) for _ in range(3))
        density = rng.uniform(0.1, 0.6)
        a = sparse_matrix(
            rng, n, k, rng.choice(alphabets), density,
            zero_rows=rng.sample(range(n), rng.randint(0, n)),
            zero_cols=rng.sample(range(k), rng.randint(0, k // 2)),
        )
        b = sparse_matrix(
            rng, k, m, rng.choice(alphabets), density,
            zero_rows=rng.sample(range(k), rng.randint(0, k // 2)),
            zero_cols=rng.sample(range(m), rng.randint(0, m)),
        )
        assert_same_product(a, b)


def test_matrix_multiply_dimension_error():
    alph = Alphabet.of("a")
    a = SymbolicMatrix.build(2, 3, alph, lambda i, j: fs("a"))
    b = SymbolicMatrix.build(2, 2, alph, lambda i, j: fs("a"))
    with pytest.raises(CoreError):
        symbolic_matrix_multiply(a, b)


def test_identity_pattern_prefixes():
    e_alph = Alphabet.of("e")
    b_alph = Alphabet.of("x", "y")
    ident = SymbolicMatrix.identity_pattern(2, ("e",), e_alph)
    b = SymbolicMatrix.build(2, 2, b_alph, lambda i, j: fs("x") if i == j else fs("y"))
    prod = symbolic_matrix_multiply(ident, b)
    for i in range(2):
        for j in range(2):
            for w, _ in prod.entry(i, j).items():
                assert w[0] == "e"


def test_kappa_definitional_and_involution():
    x = FormalSum([("a", "x"), ("a", "y")])
    assert x.kappa() == FormalSum([("x", "a"), ("y", "a")])
    rng = random.Random(3)
    for _ in range(100):
        terms = [
            (rng.choice("abc"), rng.choice("xyz")) for _ in range(rng.randint(0, 5))
        ]
        s = FormalSum(terms)
        assert s.kappa().kappa() == s


def test_kappa_requires_factorable_terms():
    with pytest.raises(CoreError):
        FormalSum([("a",)]).kappa()


def test_kappa_on_sft_products():
    # the two one-step products of the square construction agree under exchange
    a = symbolic_2x2()
    from bisys.smb import sft_smb

    s = sft_smb(a, depth=4)
    lhs = symbolic_matrix_multiply(s.minus[2], s.plus[3])
    rhs = symbolic_matrix_multiply(s.plus[2], s.minus[3])
    assert kappa_matrix(lhs).same_entries(rhs)
    # and the (i,j) block of minus*plus carries the transposed-index prefix
    assert lhs.entry(0, 1) == FormalSum([("a-", "b+")])
    assert lhs.entry(2, 1) == FormalSum([("b-", "b+")])


def test_specified_equivalent_direct():
    alph1 = Alphabet.of("a", "b")
    alph2 = Alphabet.of("x", "y")
    a = SymbolicMatrix.build(1, 1, alph1, lambda i, j: fs("a", "b"))
    b = SymbolicMatrix.build(1, 1, alph2, lambda i, j: fs("x", "y"))
    phi = Specification.from_dict({("a",): ("x",), ("b",): ("y",)})
    assert specified_equivalence_failure(a, b, phi) is None


def test_specified_equivalent_term_count_mismatch():
    alph1 = Alphabet.of("a", "b")
    alph2 = Alphabet.of("x")
    a = SymbolicMatrix.build(1, 1, alph1, lambda i, j: fs("a", "b"))
    b = SymbolicMatrix.build(1, 1, alph2, lambda i, j: fs("x"))
    phi = Specification.from_dict({("a",): ("x",)})
    assert specified_equivalence_failure(a, b, phi) is not None


def test_specified_equivalent_unmapped_symbol_reported():
    alph = Alphabet.of("a", "b")
    a = SymbolicMatrix.build(1, 1, alph, lambda i, j: fs("a", "b"))
    phi = Specification.from_dict({("a",): ("a",)})
    msg = specified_equivalence_failure(a, a, phi)
    assert msg is not None and "b" in msg and "not equivalent" in msg


def mapped(x, images):
    """The formal sum x with each word w replaced by images[w]."""
    return FormalSum([images[w] for w, c in x.items() for _ in range(c)])


def test_specified_equivalent_reflexive_and_inverse():
    rng = random.Random(4)
    alph = Alphabet.of("a", "b", "c")
    for _ in range(20):
        a = random_matrix(rng, 2, 2, alph)
        occurring = sorted(a.occurring())
        ident = Specification.identity_on(occurring)
        assert specified_equivalence_failure(a, a, ident) is None
        phi = Specification.from_dict(
            {("a",): ("x",), ("b",): ("y",), ("c",): ("z",)}
        )
        b = a.map_entries(lambda x: mapped(x, phi.as_dict()), Alphabet.of("x", "y", "z"))
        assert specified_equivalence_failure(a, b, phi) is None
        assert specified_equivalence_failure(b, a, phi.inverse()) is None


def perturbed(m, rng):
    """m with one cell, one multiplicity or its shape changed, or m itself."""
    grid = [list(row) for row in m.entries]
    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
    terms = [w for w, c in grid[i][j].items() for _ in range(c)]
    op = rng.choice(("same", "same", "drop", "add", "add", "zero", "row", "col"))
    if op == "row":
        grid.append([FormalSum.zero()] * m.cols)
    elif op == "col":
        grid = [row + [FormalSum.zero()] for row in grid]
    elif op == "zero":
        grid[i][j] = FormalSum.zero()
    elif op == "drop" and terms:
        grid[i][j] = FormalSum(terms[1:])
    elif op == "add":  # a new symbol, or one more of a present one
        grid[i][j] = FormalSum(terms + [rng.choice(terms or m.alphabet.symbols)])
    return SymbolicMatrix(len(grid), len(grid[0]), tuple(map(tuple, grid)), m.alphabet)


def test_cell_check_matches_the_formal_sum_oracle():
    """Seeded: the dict-level cell check returns exactly what the check that
    built a FormalSum per cell returned, on passes, unmapped symbols (several
    in one cell among them), multiplicity and zero-vs-nonzero mismatches, and
    shape mismatches."""
    rng = random.Random(11)
    src = Alphabet.of("a", "b", "c", "d")
    dst = Alphabet.product(Alphabet.of("u", "x", "y", "z"), Alphabet.of("1"))
    seen = Counter()
    for _ in range(400):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3), src, max_terms=3)
        images = dict(zip(src.symbols, rng.sample(dst.symbols, len(dst))))
        spec = Specification.from_dict({s: v for s, v in images.items() if rng.random() < 0.8})
        b = perturbed(a.map_entries(lambda x: mapped(x, images), dst), rng)
        want = oracles.specified_equivalence_failure(a, b, spec)
        assert specified_equivalence_failure(a, b, spec) == want
        unmapped = [w for row in a.entries for c in row for w in c.support()
                    if w not in spec.as_dict()]
        seen["pass" if want is None else want.split(" ")[0]] += 1
        seen["several unmapped"] += want is not None and "unmapped" in want and len(unmapped) > 1
        seen["zero vs nonzero"] += want is not None and (": 0 != " in want or want.endswith(" 0"))
        seen["multiplicity"] += want is not None and "cell" in want and "2" in want.split(":")[1]
    assert all(seen[k] >= 10 for k in (
        "pass", "shape", "not", "cell", "several unmapped", "zero vs nonzero", "multiplicity",
    )), seen


def exhaustive_specification_search(a, b):
    """Oracle: try every bijection between the occurring symbol sets."""
    sa, sb = sorted(a.occurring()), sorted(b.occurring())
    if len(sa) != len(sb):
        return None
    for perm in permutations(sb):
        phi = Specification.from_dict(dict(zip(sa, perm)))
        if specified_equivalence_failure(a, b, phi) is None:
            return phi
    return None


def test_find_specification_examples():
    alph1, alph2 = Alphabet.of("a"), Alphabet.of("x")
    a = SymbolicMatrix.build(1, 1, alph1, lambda i, j: fs("a"))
    b = SymbolicMatrix.build(1, 1, alph2, lambda i, j: fs("x"))
    phi = find_specification_multi([(a, b)])
    assert phi is not None and phi.as_dict() == {("a",): ("x",)}

    # same symbol forced onto two distinct images: no specification exists
    alph_ab, alph_xy = Alphabet.of("a"), Alphabet.of("x", "y")
    a2 = SymbolicMatrix.build(1, 2, alph_ab, lambda i, j: fs("a"))
    b2 = SymbolicMatrix.build(
        1, 2, alph_xy, lambda i, j: fs("x") if j == 0 else fs("y")
    )
    assert find_specification_multi([(a2, b2)]) is None

    a3 = SymbolicMatrix.build(1, 1, Alphabet.of("a", "b"), lambda i, j: fs("a", "b"))
    assert find_specification_multi([(a3, a3)]) is not None


def test_find_specification_matches_exhaustive_oracle():
    rng = random.Random(5)
    alph = Alphabet.of("a", "b", "c")
    alph2 = Alphabet.of("x", "y", "z")
    for _ in range(40):
        a = random_matrix(rng, 2, 2, alph)
        b = random_matrix(rng, 2, 2, alph2)
        got = find_specification_multi([(a, b)])
        want = exhaustive_specification_search(a, b)
        assert (got is None) == (want is None)
        if got is not None:
            assert specified_equivalence_failure(a, b, got) is None


def test_find_specification_deterministic():
    alph = Alphabet.of("a", "b")
    a = SymbolicMatrix.build(1, 1, alph, lambda i, j: fs("a", "b"))
    b = SymbolicMatrix.build(1, 1, Alphabet.of("x", "y"), lambda i, j: fs("x", "y"))
    first = find_specification_multi([(a, b)])
    for _ in range(5):
        assert find_specification_multi([(a, b)]) == first


def test_alphabet_invariants():
    with pytest.raises(CoreError):
        Alphabet.of()
    with pytest.raises(CoreError):
        Alphabet((("a",), ("a",)), 1)
    prod = Alphabet.product(Alphabet.of("a", "b"), Alphabet.of("x"))
    assert prod.word_length == 2 and len(prod) == 2


def test_public_api_is_pinned():
    """``bisys.__all__`` is exactly this list, without the submodules, so a
    change to the public API shows up as a change to this test."""
    import bisys

    assert sorted(bisys.__all__) == [
        "Alphabet", "BisystemError", "BlockCode", "CanonicalBuild", "CanonicalError", "CentralClass",
        "CoreError", "EquivalenceError", "FgAbelianGroup", "FormalSum", "KResult", "LabeledGraph",
        "LambdaGraphBisystem", "LambdaGraphSystem", "PsseWitness", "SftMatrix", "SmbError",
        "Specification", "SseWitness", "SubshiftError", "SubshiftPresentation", "SymbolicMatrix",
        "SymbolicMatrixBisystem", "ValidationReport", "admissible_words", "apply_block_code",
        "bipartite_split", "build_ladder", "canonical_bisystem", "canonical_smb", "ck_oracle",
        "conjugacy_block_map", "detect_bipartite", "fpcc_check", "from_lambda_graph_system", "from_smb",
        "higher_block_recode", "k_groups", "kappa_matrix", "kernel_contains_constant",
        "presented_words", "psse_to_sse", "sft_smb", "sigma_condition_I_witness", "smb_isomorphic",
        "smith_normal_form", "symbolic_matrix_multiply", "to_smb", "transpose", "trivial_psse_witness",
        "validate", "validate_smb", "verify_psse_1step", "verify_sse_1step",
    ]
    assert all(hasattr(bisys, name) for name in bisys.__all__)


# which lazy layers have run, at each step of a fresh interpreter; a layer
# not yet run is still of the lazy module type, which type() reads without
# running it
_FIRST_USE = """
import json, sys, types

def ran():
    return [name for name in ("equivalence", "ktheory")
            if type(sys.modules["bisys." + name]) is types.ModuleType]

import bisys, bisys.cli.documents, bisys.cli.main
steps = [ran()]
bisys.k_groups
steps.append(ran())
witness = bisys.cli.documents.parse_document(sys.stdin.read())[2]
steps.append(ran())
names = {}
exec("from bisys import *", names)
del names["__builtins__"]
print(json.dumps({
    "steps": steps,
    "witness": type(witness) is sys.modules["bisys.equivalence"].PsseWitness,
    "names": sorted(names),
    "own": sorted(name for name, value in names.items()
                  if getattr(sys.modules[value.__module__], name) is value),
}))
"""


def test_equivalence_and_ktheory_run_on_first_use():
    """Importing the package and the CLI runs neither layer; ``bisys.k_groups``
    runs K-theory alone, a witness document runs equivalence, and ``import *``
    binds every public name as the object its module defines."""
    import json
    import os
    import subprocess
    import sys

    import bisys
    from bisys.cli.documents import dump_document
    from fixtures import golden_mean_pres

    s = bisys.canonical_smb(golden_mean_pres(), 2)
    text = dump_document("psse_witness", "self", bisys.trivial_psse_witness(s))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    run = subprocess.run([sys.executable, "-S", "-c", _FIRST_USE], input=text,
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert got["steps"] == [[], ["ktheory"], ["equivalence", "ktheory"]]
    assert got["witness"]
    assert got["names"] == got["own"] == sorted(bisys.__all__)
    assert len(got["names"]) == 54


def test_depth_first_yields_every_tuple_in_order():
    # item k is any letter up to the last one placed: nonincreasing words
    def down(k, prefix):
        return "abc"[: "abc".index(prefix[-1]) + 1] if prefix else "abc"

    got = ["".join(t) for t in depth_first(3, down)]
    assert got == sorted(got) and len(got) == 10 and got[0] == "aaa" and got[-1] == "ccc"
    assert list(depth_first(0, down)) == [()]
    assert list(depth_first(2, lambda k, prefix: [])) == []


def test_find_specification_without_recursion():
    """One cell of 300 distinct symbols against itself: the identity, with no
    stack frame per symbol."""
    names = [f"s{k:03d}" for k in range(300)]
    m = SymbolicMatrix.build(1, 1, Alphabet.of(*names), lambda i, j: fs(*names))
    with shallow_stack():
        spec = find_specification_multi([(m, m)])
    assert spec == Specification.identity_on((n,) for n in names)


def test_find_specification_of_zero_cells_is_empty():
    z = SymbolicMatrix.build(2, 2, Alphabet.of("a"), lambda i, j: FormalSum.zero())
    assert find_specification_multi([(z, z)]) == Specification(pairs=())
