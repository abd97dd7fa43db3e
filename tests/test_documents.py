"""The document writer against ``json.dumps(indent=2, sort_keys=True)``.

``_write`` walks each SymbolicMatrix in place; ``expanded`` below is the
tree json.dumps needs instead, each matrix spelled out as a list of rows of
term lists, as documents were written before the writer existed.
``plain_bisystem`` is a bisystem payload with each edge block spelled out at
each level, which the writer writes once per block object.
"""

import collections
import json
import os
import random

from bisys.bisystem import LambdaGraphBisystem
from bisys.canonical import canonical_bisystem, canonical_smb
from bisys.cli.documents import _write, dump_document, load_document, parse_document
from bisys.core import Alphabet, FormalSum, SymbolicMatrix
from bisys.equivalence import psse_to_sse, trivial_psse_witness
from bisys.smb import sft_smb, to_smb
from fixtures import (
    alternating_pres,
    full_shift_pres,
    golden_mean_lgs,
    golden_mean_pres,
    symbolic_2x2,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")

# ASCII, non-ASCII, astral, quote, backslash, slash and control characters
CHARS = "ab1 é中\U0001f600\"\\/\n\t\x00\x1f\x7f"
LEAVES = (
    None, True, False, 0, 1, -1, 7, -12, 2**70, -(2**65),
    0.5, -2.25, 1e300, 1e-7, 3.0, float("nan"), float("inf"), float("-inf"),
)


def expanded(x):
    if isinstance(x, SymbolicMatrix):
        return [
            [[w[0] if len(w) == 1 else list(w) for w, c in cell.items() for _ in range(c)]
             for cell in row]
            for row in x.entries
        ]
    if isinstance(x, dict):
        return {k: expanded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [expanded(v) for v in x]
    return x


def oracle(doc):
    return json.dumps(expanded(doc), indent=2, sort_keys=True) + "\n"


def random_string(rng, least=0):
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(least, 4)))


def random_matrix(rng, seen):
    """A matrix over base or product symbols, with empty cells and repeated terms."""
    width = rng.choice((1, 2))
    words = {tuple(random_string(rng, 1) for _ in range(width)) for _ in range(rng.randint(1, 4))}
    rows, cols = rng.randint(0, 3), rng.randint(0, 3)
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            chosen = rng.sample(sorted(words), rng.randint(0, len(words)))  # unsorted order
            counts = {w: rng.choice((1, 1, 2, 3)) for w in chosen}
            seen["empty cell"] |= not counts
            seen["repeated term"] |= any(c > 1 for c in counts.values())
            seen["product term"] |= bool(counts) and width == 2
            row.append(FormalSum(counts))
        grid.append(tuple(row))
    return SymbolicMatrix(rows, cols, tuple(grid), Alphabet.from_words(words))


def random_value(rng, seen, depth=0):
    pick = rng.randrange(6 if depth < 4 else 2)
    if pick == 0:
        return rng.choice(LEAVES)
    if pick == 1:
        return random_string(rng)
    if pick == 2:
        return [random_value(rng, seen, depth + 1) for _ in range(rng.randint(0, 3))]
    if pick == 3:
        return tuple(random_value(rng, seen, depth + 1) for _ in range(rng.randint(0, 3)))
    if pick == 4:
        return {random_string(rng): random_value(rng, seen, depth + 1)
                for _ in range(rng.randint(0, 3))}
    return random_matrix(rng, seen)


def random_document(rng, seen):
    """A document tree; one matrix object may stand at several places, at one
    depth in ``minus`` and ``P`` and at deeper ones under ``shared``."""
    repeat = rng.choice((None, rng.randint(0, 5)))
    seen["repeat_from null"] |= repeat is None
    seen["repeat_from int"] |= repeat is not None
    shared = random_matrix(rng, seen)
    minus = [rng.choice((shared, random_matrix(rng, seen))) for _ in range(rng.randint(0, 3))]
    deeper = rng.choice((None, shared, [shared, {"again": shared}]))
    places = sum(m is shared for m in minus)
    seen["one matrix at several places"] |= places > 1
    seen["one matrix at several depths"] |= places > 0 and deeper is not None
    return {
        "schema_version": 1,
        "kind": rng.choice(("smb", "psse_witness", "sse_witness")),
        "name": random_value(rng, seen),
        "payload": {
            "level_sizes": [rng.randint(1, 4) for _ in range(rng.randint(0, 4))],
            "minus": minus,
            "P": tuple(rng.choice((shared, random_matrix(rng, seen)))
                       for _ in range(rng.randint(0, 2))),
            "shared": deeper,
            "repeat_from": repeat,
            random_string(rng): random_value(rng, seen),
        },
    }


def test_writer_matches_json_dumps_on_random_documents():
    rng = random.Random(20)
    seen = dict.fromkeys(
        ("empty cell", "repeated term", "product term", "repeat_from null", "repeat_from int",
         "one matrix at several places", "one matrix at several depths"),
        False,
    )
    for _ in range(400):
        doc = random_document(rng, seen)
        assert _write(doc) == oracle(doc)
    assert all(seen.values()), seen
    for leaf in LEAVES + ("", '"\\\n\x00é\U0001f600', [], {}, ()):
        assert _write(leaf) == oracle(leaf)


def plain_bisystem(b):
    """A bisystem payload as plain JSON values: each edge block at each level
    its own sorted list of 1-based [src, tgt, label] rows."""

    def word(w):
        return w[0] if len(w) == 1 else list(w)

    def alphabet(a):
        if a.factors is not None:
            return {"product": [alphabet(f) for f in a.factors]}
        return {"symbols": [word(s) for s in a.symbols]}

    def edges(blocks):
        return [sorted([s + 1, t + 1, word(a)] for (s, t, a) in block) for block in blocks]

    return {
        "depth": b.depth, "level_sizes": list(b.level_sizes),
        "sigma_minus": alphabet(b.sigma_minus), "sigma_plus": alphabet(b.sigma_plus),
        "minus_edges": edges(b.minus_edges), "plus_edges": edges(b.plus_edges),
        "repeat_from": None,
    }


def hand_built_bisystem():
    """Unsorted blocks over product labels, one block object at two levels
    of each side, and an empty block on each side."""
    sigma = Alphabet.product(Alphabet.of("a", "b"), Alphabet.of("1", "é"))
    loop = ((1, 0, ("b", "é")), (0, 1, ("a", "1")), (0, 0, ("b", "1")))
    return LambdaGraphBisystem(
        (1, 2, 2, 2, 2),
        (((1, 0, ("a", "1")), (0, 0, ("b", "é"))), loop, loop, ()),
        (((0, 1, ("a", "é")), (0, 0, ("a", "1"))), (), loop, loop),
        sigma, sigma,
    )


def test_emitted_documents_are_json_dumps_fixed_points():
    s = canonical_smb(golden_mean_pres(), 4)
    w = trivial_psse_witness(s)
    cases = [
        ("bisystem", canonical_bisystem(golden_mean_pres(), 4).bisystem),
        ("bisystem", canonical_bisystem(full_shift_pres(2), 8).bisystem),  # period 1
        ("bisystem", canonical_bisystem(alternating_pres(), 8).bisystem),  # period 2
        ("bisystem", hand_built_bisystem()),
        ("lambda_graph_system", golden_mean_lgs(4)),
        ("smb", s),
        ("smb", to_smb(canonical_bisystem(golden_mean_pres(), 3).bisystem)),
        ("psse_witness", w),
        ("sse_witness", psse_to_sse(w)),
    ]
    rng = random.Random(21)
    seen = collections.defaultdict(bool)
    for kind, obj in cases:
        for name in ("gm", float("nan"), -(2**70), random_value(rng, seen), random_string(rng)):
            text = dump_document(kind, name, obj)
            assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
            if kind == "bisystem":
                plain = {"schema_version": 1, "kind": kind, "name": name,
                         "payload": plain_bisystem(obj)}
                assert text == oracle(plain)


def test_sft_smb_documents_re_parse():
    """``sft_smb`` marks its repeating block only where it stores one."""
    for depth in (2, 3, 5):
        s = sft_smb(symbolic_2x2(), depth=depth)
        text = dump_document("smb", "s", s)
        assert dump_document(*parse_document(text)) == text
        assert json.loads(text)["payload"]["repeat_from"] == (2 if depth > 2 else None)


def test_every_example_is_a_dump_parse_dump_fixed_point():
    names = sorted(os.listdir(EXAMPLES))
    assert names
    for name in names:
        text = dump_document(*load_document(os.path.join(EXAMPLES, name)))
        assert dump_document(*parse_document(text)) == text, name


def test_parsed_cells_keep_every_term_and_multiplicity():
    rng = random.Random(22)
    node = json.loads(dump_document("smb", "gm", canonical_smb(golden_mean_pres(), 3)))
    for _ in range(20):
        for block in node["payload"]["minus"]:
            for row in block:
                for j in range(len(row)):
                    row[j] = [rng.choice(("1", "2")) for _ in range(rng.randint(0, 4))]
        text = dump_document(*parse_document(json.dumps(node)))
        for block, again in zip(node["payload"]["minus"], json.loads(text)["payload"]["minus"]):
            assert again == [[sorted(cell) for cell in row] for row in block]
