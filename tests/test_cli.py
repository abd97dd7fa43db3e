import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from bisys.bisystem import transpose
from bisys.canonical import canonical_bisystem, canonical_smb
from bisys.cli.documents import (
    DocumentError,
    dump_document,
    load_document,
    parse_document,
)
from bisys.cli.main import main
from bisys.equivalence import (
    bipartite_split,
    detect_bipartite,
    psse_to_sse,
    trivial_psse_witness,
)
from bisys.smb import to_smb
from fixtures import (
    alternating_pres,
    full_shift_bisystem,
    golden_mean_lgs,
    golden_mean_pres,
    paper_golden_mean_bisystem,
)


def doc(kind, name, payload):
    return json.dumps(
        {"schema_version": 1, "kind": kind, "name": name, "payload": payload}
    )


GM_SUBSHIFT = doc(
    "subshift", "golden-mean",
    {"variant": "sft", "symbols": ["1", "2"], "matrix": [[1, 1], [1, 0]]},
)

FULL3_LGS = doc(
    "lambda_graph_system", "full3",
    {
        "depth": 2,
        "level_sizes": [1, 1, 1],
        "alphabet": ["x", "y", "z"],
        "edges": [[[1, 1, "x"], [1, 1, "y"], [1, 1, "z"]]] * 2,
        "iota": [[1]] * 2,
        "repeat_from": 1,
    },
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_round_trip_every_kind(tmp_path):
    b = canonical_bisystem(golden_mean_pres(), 4).bisystem
    s = to_smb(b)
    lgs = golden_mean_lgs(3)
    alt = canonical_smb(alternating_pres(), 6)
    bip = detect_bipartite(alt)
    _, _, w = bipartite_split(alt, bip)
    sw = trivial_psse_witness(s)
    from bisys.equivalence import psse_to_sse

    cases = [
        ("subshift", golden_mean_pres()),
        ("bisystem", b),
        ("smb", s),
        ("lambda_graph_system", lgs),
        ("psse_witness", w),
        ("psse_witness", sw),
        ("sse_witness", psse_to_sse(sw)),
    ]
    for kind, obj in cases:
        text = dump_document(kind, "case", obj)
        kind2, name2, obj2 = parse_document(text)
        assert kind2 == kind
        assert dump_document(kind, "case", obj2) == text


def test_emitted_documents_are_deterministic():
    b = canonical_bisystem(golden_mean_pres(), 4).bisystem
    assert dump_document("bisystem", "x", b) == dump_document("bisystem", "x", b)


def test_parse_errors_have_locations():
    with pytest.raises(DocumentError) as exc:
        parse_document("{not json")
    assert "line" in str(exc.value)
    for kind in ("nope", ["smb"], {"smb": 1}, None):
        with pytest.raises(DocumentError) as exc:
            parse_document(json.dumps({"schema_version": 1, "kind": kind, "payload": {}}))
        assert str(exc.value) == f"$.kind: unknown kind {kind!r}"
    # an empty payload of every kind names what it misses first, and where
    expected = {
        "subshift": "$.payload.variant: unknown variant None",
        "bisystem": "$.payload: missing field 'level_sizes'",
        "lambda_graph_system": "$.payload: missing field 'level_sizes'",
        "smb": "$.payload: missing field 'level_sizes'",
        "psse_witness": "$.payload: missing field 'C'",
        "sse_witness": "$.payload: missing field 'C'",
    }
    for kind, message in expected.items():
        with pytest.raises(DocumentError) as exc:
            parse_document(doc(kind, "empty", {}))
        assert str(exc.value) == message


def _set_cell(value):
    def mutate(block):
        block[0][0] = value
    return mutate


def _drop_row(block):
    block.pop()


def _drop_column(block):
    block[1].pop()


# faults in block 1 of one matrix family, with the exact error each raises
MATRIX_FAULTS = {
    "smb": ("minus", ["validate"], {
        "cell not a list": (
            _set_cell("1"), "$.payload.minus[1][0][0]: cell must be a list of terms"),
        "int term": (
            _set_cell([7]),
            "$.payload.minus[1][0][0]: symbol must be a string or list of strings"),
        "list term with a non-string": (
            _set_cell([["1", 7]]),
            "$.payload.minus[1][0][0]: symbol must be a string or list of strings"),
        "symbol outside the alphabet": (
            _set_cell(["zz"]), "$.payload.minus[1][0][0]: symbol zz not in matrix alphabet"),
        "wrong row count": (_drop_row, "$.payload.minus[1]: expected 2 rows"),
        "wrong column count": (_drop_column, "$.payload.minus[1][1]: expected 4 columns"),
    }),
    "psse_witness": ("X", ["check-equivalence", "{s}", "{s}"], {
        "cell not a list": (
            _set_cell("1"), "$.payload.X[1][0][0]: cell must be a list of terms"),
        "int term": (
            _set_cell([7]),
            "$.payload.X[1][0][0]: symbol must be a string or list of strings"),
        "list term with a non-string": (
            _set_cell([["1", 7]]),
            "$.payload.X[1][0][0]: symbol must be a string or list of strings"),
        "symbol outside the alphabet": (
            _set_cell(["zz"]), "$.payload.X[1][0][0]: symbol zz not in matrix alphabet"),
        "wrong column count": (_drop_column, "$.payload.X[1][1]: expected 2 columns"),
    }),
}


def test_matrix_cell_errors_are_pinned(tmp_path, capsys):
    s = canonical_smb(golden_mean_pres(), 3)
    sf = write(tmp_path, "s.json", dump_document("smb", "gm", s))
    nodes = {
        "smb": json.loads(dump_document("smb", "gm", s)),
        "psse_witness": json.loads(
            dump_document("psse_witness", "w", trivial_psse_witness(s))),
    }
    bad = str(tmp_path / "bad.json")
    for kind, (family, command, faults) in MATRIX_FAULTS.items():
        for fault, (mutate, message) in faults.items():
            node = json.loads(json.dumps(nodes[kind]))
            mutate(node["payload"][family][1])
            text = json.dumps(node)
            with pytest.raises(DocumentError) as exc:
                parse_document(text)
            assert str(exc.value) == message, (kind, fault)
            write(tmp_path, "bad.json", text)
            assert main([arg.format(s=sf) for arg in command] + [bad]) == 2, (kind, fault)
            captured = capsys.readouterr()
            assert captured.err == f"error: {bad}: {message}\n" and captured.out == ""
    # a witness matrix takes its shape from the file, so a missing row is a
    # shape mismatch the verifier reports, not a parse error
    node = json.loads(json.dumps(nodes["psse_witness"]))
    _drop_row(node["payload"]["X"][1])
    parse_document(json.dumps(node))
    write(tmp_path, "bad.json", json.dumps(node))
    assert main(["check-equivalence", sf, sf, bad, "--depth", "3"]) == 1
    assert "inner dimensions disagree: 2 vs 1" in capsys.readouterr().out


def test_list_fields_and_repeat_from_are_type_checked(tmp_path, capsys):
    """A string or a number where a list belongs, a repeat_from marker that
    is neither null nor an integer, and an integer marker that names no
    stored block or one from which the blocks differ, exit 2 with the
    field's location."""
    bisystem = json.loads(dump_document(
        "bisystem", "gm", canonical_bisystem(golden_mean_pres(), 2).bisystem))["payload"]
    smb = json.loads(dump_document("smb", "gm", canonical_smb(golden_mean_pres(), 2)))
    lgs = json.loads(FULL3_LGS)["payload"]
    sft = json.loads(GM_SUBSHIFT)["payload"]
    forbidden = {"variant": "forbidden", "symbols": ["1", "2"], "words": [["2", "2"]]}
    cases = []
    leveled = (("bisystem", bisystem, "minus_edges"), ("smb", smb["payload"], "minus"),
               ("lambda_graph_system", lgs, "edges"))
    for kind, payload, family in leveled:
        for value in (True, False, 1.5, "1", [1], {}):
            cases.append((kind, dict(payload, repeat_from=value), "$.payload.repeat_from",
                          "repeat_from must be null or an integer"))
        stored = len(payload[family])
        assert stored == 2
        for value in (None, stored - 1):
            cases.append((kind, dict(payload, repeat_from=value), None, None))
        for value in (2, -3):
            cases.append((kind, dict(payload, repeat_from=value), "$.payload.repeat_from",
                          f"repeat_from {value} is not one of the 2 stored blocks"))
    # marker 0: the full 3-shift's two blocks are equal, the golden mean's are not
    cases.append(("lambda_graph_system", dict(lgs, repeat_from=0), None, None))
    for kind, payload, _ in leveled[:2]:
        cases.append((kind, dict(payload, repeat_from=0), "$.payload.repeat_from",
                      "the blocks from repeat_from 0 on are not all equal"))
    for key in ("sigma_minus", "sigma_plus"):
        for value in ("12", 12):
            cases.append(("bisystem", dict(bisystem, **{key: {"symbols": value}}),
                          f"$.payload.{key}.symbols", "symbols must be a list"))
    for payload, keys in ((sft, ("symbols", "matrix")), (forbidden, ("symbols", "words"))):
        cases.append(("subshift", payload, None, None))
        for key in keys:
            cases.append(("subshift", dict(payload, **{key: "12"}), f"$.payload.{key}",
                          f"{key} must be a list"))
    for kind, payload, loc, message in cases:
        path = write(tmp_path, "doc.json", doc(kind, "f", payload))
        code = main(["validate", path])
        err = capsys.readouterr().err
        if loc is None:
            assert code in (0, 1) and err == "", (kind, payload)
        else:
            assert code == 2 and err == f"error: {path}: {loc}: {message}\n", (kind, payload)


def test_validate_command_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "gm.json", GM_SUBSHIFT)
    assert main(["validate", good]) == 0

    b = paper_golden_mean_bisystem(4)
    text = dump_document("bisystem", "gm", b)
    node = json.loads(text)
    # drop one plus edge: the local property must fail and be named
    node["payload"]["plus_edges"][1] = node["payload"]["plus_edges"][1][:-1]
    bad = write(tmp_path, "bad.json", json.dumps(node))
    assert main(["validate", bad]) == 1
    out = capsys.readouterr().out
    assert "axiom (v): FAIL" in out and "local property fails" in out

    broken = write(tmp_path, "broken.json", "{oops")
    assert main(["validate", broken]) == 2


def test_canonical_and_words_commands(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    out_smb = str(tmp_path / "gm.smb.json")
    assert main(["canonical", gm, "--depth", "4", "--emit", "smb", "-o", out_smb]) == 0
    kind, _, s = load_document(out_smb)
    assert kind == "smb" and s.level_sizes == (1, 2, 4, 4, 4)

    assert main(["words", gm, "-n", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1.1.1", "1.1.2", "1.2.1", "2.1.1", "2.1.2"]

    out_dot = str(tmp_path / "gm.dot")
    assert main(["canonical", gm, "--depth", "4", "--emit", "dot", "-o", out_dot]) == 0
    text = open(out_dot).read()
    assert text.startswith("digraph") and "cluster_minus" in text

    # a length the document cannot have is an input error, not a verdict
    shallow = write(tmp_path, "d1.json", dump_document("bisystem", "full2", full_shift_bisystem(2, 1)))
    assert main(["words", shallow, "-n", "5"]) == 2
    assert "length 5 exceeds depth 1" in capsys.readouterr().err
    assert main(["words", shallow, "-n", "-1"]) == 2
    assert main(["words", gm, "-n", "-1"]) == 2


def test_words_of_an_invalid_smb_is_an_input_error(tmp_path, capsys):
    node = json.loads(dump_document("smb", "gm", canonical_smb(golden_mean_pres(), 3)))
    node["payload"]["plus"][0] = [[[] for _ in row] for row in node["payload"]["plus"][0]]
    bad = write(tmp_path, "bad.json", json.dumps(node))
    assert main(["validate", bad]) == 1  # a verdict on the document
    capsys.readouterr()
    assert main(["words", bad, "-n", "2"]) == 2  # no words to list: unusable input
    assert "refusing to expand" in capsys.readouterr().err


def test_duplicate_sft_symbols_are_an_input_error(tmp_path, capsys):
    dup = write(tmp_path, "dup.json", doc(
        "subshift", "dup", {"variant": "sft", "symbols": ["a", "a"], "matrix": [[1, 1], [1, 1]]}
    ))
    for command in ("validate", "canonical"):
        assert main([command, dup]) == 2
        assert "$.payload: duplicate state symbols" in capsys.readouterr().err


def test_invariants_command(tmp_path, capsys):
    lgs = write(tmp_path, "full3.json", FULL3_LGS)
    assert main(["invariants", lgs, "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert "K0 ~ Z/2" in out and "stabilized at level <= 0" in out
    assert "cross-check" in out

    assert main(["invariants", lgs, "--side", "plus", "--depth", "3"]) == 0
    out = capsys.readouterr().out
    assert "K1 ~ Z" in out


def test_check_equivalence_command(tmp_path, capsys):
    s = canonical_smb(golden_mean_pres(), 4)
    w = trivial_psse_witness(s)
    sf = write(tmp_path, "s.json", dump_document("smb", "gm", s))
    wf = write(tmp_path, "w.json", dump_document("psse_witness", "trivial", w))
    conv = str(tmp_path / "conv.json")
    assert main(
        ["check-equivalence", sf, sf, wf, "--mode", "psse", "--depth", "4",
         "--convert", conv]
    ) == 0
    assert os.path.exists(conv)
    kind, _, sw = load_document(conv)
    assert kind == "sse_witness"
    swf = write(tmp_path, "sw.json", dump_document("sse_witness", "conv", sw))
    assert main(["check-equivalence", sf, sf, swf, "--mode", "sse", "--depth", "4"]) == 0

    node = json.loads(dump_document("psse_witness", "broken", w))
    node["payload"]["X"][4][0][0] = []
    brokenf = write(tmp_path, "broken.json", json.dumps(node))
    assert main(["check-equivalence", sf, sf, brokenf, "--mode", "psse"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_a_document_of_the_wrong_kind_is_an_input_error(tmp_path, capsys):
    s = canonical_smb(golden_mean_pres(), 3)
    files = {
        "subshift": write(tmp_path, "gm.json", GM_SUBSHIFT),
        "bisystem": write(tmp_path, "gm.b.json", dump_document(
            "bisystem", "gm", canonical_bisystem(golden_mean_pres(), 3).bisystem)),
        "smb": write(tmp_path, "gm.smb.json", dump_document("smb", "gm", s)),
        "psse": write(tmp_path, "w.json", dump_document(
            "psse_witness", "w", trivial_psse_witness(s))),
    }
    b, sm, w = files["bisystem"], files["smb"], files["psse"]
    cases = [
        (["validate", w], "validate does not apply to kind 'psse_witness'"),
        (["canonical", b], "canonical needs a subshift document"),
        (["invariants", sm], "invariants needs a leveled system"),
        (["check-equivalence", b, b, w], "check-equivalence needs smb systems"),
        (["check-equivalence", sm, b, w], "check-equivalence needs smb systems"),
        (["check-equivalence", sm, sm, w, "--mode", "sse"],
         "witness kind does not match --mode sse"),
        (["check-equivalence", sm, sm, sm], "witness kind does not match --mode psse"),
        (["bipartite", b], "bipartite needs an smb document"),
        (["transpose", sm], "transpose needs a bisystem document"),
        (["words", w], "words needs a subshift, bisystem or smb document"),
        (["from-lgs", b], "from-lgs needs a lambda_graph_system document"),
    ]
    for command, message in cases:
        assert main(command) == 2, command
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == "", command


def test_smb_level_sizes_are_one_more_than_the_blocks(tmp_path, capsys):
    node = json.loads(dump_document("smb", "gm", canonical_smb(golden_mean_pres(), 3)))
    for sizes, message in (
        ([1, 2, 4, 4, 99], "expected 4 entries (one more than the minus blocks), got 5"),
        ([1, 2, 4], "expected 4 entries (one more than the minus blocks), got 3"),
    ):
        node["payload"]["level_sizes"] = sizes
        bad = write(tmp_path, "bad.json", json.dumps(node))
        assert main(["validate", bad]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: $.payload.level_sizes: {message}\n"
        assert captured.out == ""


def test_witness_families_of_unequal_length_are_input_errors(tmp_path, capsys):
    s = canonical_smb(golden_mean_pres(), 4)
    w = trivial_psse_witness(s)
    sf = write(tmp_path, "s.json", dump_document("smb", "gm", s))
    from bisys.equivalence import psse_to_sse

    for kind, mode, w, family in (
        ("psse_witness", "psse", w, "Q"),
        ("psse_witness", "psse", w, "Y"),
        ("sse_witness", "sse", psse_to_sse(w), "K"),
    ):
        node = json.loads(dump_document(kind, "short", w))
        node["payload"][family].pop()
        wf = write(tmp_path, f"short_{family}.json", json.dumps(node))
        assert main(["check-equivalence", sf, sf, wf, "--mode", mode]) == 2, family
        captured = capsys.readouterr()
        assert "same number of matrices" in captured.err and captured.out == ""


def test_a_witness_too_short_for_the_depth_fails_and_is_not_converted(tmp_path, capsys):
    s = canonical_smb(golden_mean_pres(), 3)
    sf = write(tmp_path, "s.json", dump_document("smb", "gm", s))
    node = json.loads(dump_document("psse_witness", "one-level", trivial_psse_witness(s)))
    for family in "PQXY":
        del node["payload"][family][1:]
    wf = write(tmp_path, "w.json", json.dumps(node))
    conv = tmp_path / "conv.json"
    assert main(["check-equivalence", sf, sf, wf, "--depth", "3", "--convert", str(conv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        "FAIL (checked to witness level 3)\n"
        "  shape at level 1: witness covers 1 of the 6 half-levels depth 3 needs\n"
    )
    assert captured.err == ""
    assert not conv.exists()


def test_invalid_lambda_graph_system_is_an_input_error(tmp_path, capsys):
    node = json.loads(FULL3_LGS)
    node["payload"]["level_sizes"] = [2, 1, 1]
    node["payload"]["edges"][0] = [[1, 1, "x"], [2, 1, "y"]]
    node["payload"]["iota"][0] = [1]  # level-0 vertex 2 is never hit
    bad = write(tmp_path, "bad.json", json.dumps(node))
    assert main(["validate", bad]) == 1  # a verdict on the document
    capsys.readouterr()
    for command in (["invariants", bad, "--depth", "2"], ["from-lgs", bad]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert "iota block 0 is not surjective" in captured.err and captured.out == ""


def test_wrong_length_iota_is_a_verdict_and_an_input_error(tmp_path, capsys):
    examples = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")
    with open(os.path.join(examples, "golden_mean.lgs.json")) as fh:
        node = json.load(fh)
    node["payload"]["iota"][0] = []
    bad = write(tmp_path, "bad.json", json.dumps(node))
    assert main(["validate", bad]) == 1
    assert capsys.readouterr().out == (
        "one-sided system: INVALID\n  iota block 0 has wrong length\n"
    )
    for command in (["invariants", bad], ["from-lgs", bad]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert "iota block 0 has wrong length" in captured.err and captured.out == ""


def test_non_string_lgs_labels_are_input_errors(tmp_path, capsys):
    examples = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")
    with open(os.path.join(examples, "golden_mean.lgs.json")) as fh:
        good = json.load(fh)
    for label in (["a12"], 7):
        node = json.loads(json.dumps(good))
        node["payload"]["edges"][0][1][2] = label
        bad = write(tmp_path, "bad.json", json.dumps(node))
        for command in (["validate", bad], ["invariants", bad], ["from-lgs", bad]):
            assert main(command) == 2, (label, command)
            assert capsys.readouterr().err == (
                f"error: {bad}: $.payload.edges[0][1]: label must be a string\n"
            )
    node = json.loads(json.dumps(good))
    node["payload"]["alphabet"][2] = 7
    bad = write(tmp_path, "bad.json", json.dumps(node))
    assert main(["validate", bad]) == 2
    assert capsys.readouterr().err == f"error: {bad}: $.payload.alphabet[2]: symbol must be a string\n"


def test_lgs_edge_end_past_its_level_is_an_input_error(tmp_path, capsys):
    examples = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")
    with open(os.path.join(examples, "golden_mean.lgs.json")) as fh:
        node = json.load(fh)
    node["payload"]["edges"][0][0] = [99, 1, "a11"]
    bad = write(tmp_path, "bad.json", json.dumps(node))
    for command in (["invariants", bad], ["from-lgs", bad]):
        assert main(command) == 2, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(
            "error: not a lambda-graph system: edge (98, 0, 'a11') out of range"
        ), command


def test_non_string_subshift_labels_are_input_errors(tmp_path, capsys):
    examples = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")
    with open(os.path.join(examples, "even_shift.subshift.json")) as fh:
        good = json.load(fh)
    for label in (1, True, ["a"], {"x": 1}):
        node = json.loads(json.dumps(good))
        node["payload"]["edges"][0][2] = label
        bad = write(tmp_path, "bad.json", json.dumps(node))
        for command in (["canonical", bad], ["words", bad]):
            assert main(command) == 2, (label, command)
            assert capsys.readouterr().err == (
                f"error: {bad}: $.payload.edges[0]: edge must be [state, state, label] strings\n"
            )


def test_forbidden_words_must_be_lists_of_the_symbols(tmp_path, capsys):
    with open(os.path.join(EXAMPLES, "no_121.subshift.json")) as fh:
        good = json.load(fh)
    word = "forbidden word must be a list of strings from symbols"
    cases = (
        ("words", ["12"], f"$.payload.words[0]: {word}"),
        ("words", [[1, 2]], f"$.payload.words[0]: {word}"),
        ("words", [["1", "2", "1"], ["1", "3"]], f"$.payload.words[1]: {word}"),
        ("symbols", ["1", 2], "$.payload.symbols[1]: symbol must be a string"),
        ("words", [["1"]], "$.payload.words[0]: forbidden word must have length >= 2"),
        ("words", [[]], "$.payload.words[0]: forbidden word must have length >= 2"),
    )
    for key, value, error in cases:
        node = json.loads(json.dumps(good))
        node["payload"][key] = value
        bad = write(tmp_path, "bad.json", json.dumps(node))
        for command in (["canonical", bad, "--depth", "3"], ["words", bad], ["validate", bad]):
            assert main(command) == 2, (value, command)
            assert capsys.readouterr().err == f"error: {bad}: {error}\n"


def test_more_blocks_than_levels_is_a_verdict_and_an_input_error(tmp_path, capsys):
    examples = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")
    with open(os.path.join(examples, "golden_mean.lgs.json")) as fh:
        node = json.load(fh)
    node["payload"]["level_sizes"] = [2, 2]  # two blocks for two levels
    bad = write(tmp_path, "bad.json", json.dumps(node))
    assert main(["validate", bad]) == 1
    assert capsys.readouterr().out == (
        "one-sided system: INVALID\n  2 edge blocks and 2 iota blocks for 2 levels\n"
    )
    for command in (["invariants", bad], ["from-lgs", bad]):
        assert main(command) == 2
        captured = capsys.readouterr()
        assert "iota blocks for" in captured.err and captured.out == ""


def test_internal_error_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    import bisys.cli.main as cli

    def broken(args):
        print("partial output")
        raise IndexError("tuple index out of range")

    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    monkeypatch.setattr(cli, "cmd_validate", broken)
    monkeypatch.delenv("BISYS_DEBUG", raising=False)
    assert main(["validate", gm]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: IndexError: tuple index out of range\n"
    monkeypatch.setenv("BISYS_DEBUG", "1")
    assert main(["validate", gm]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: IndexError")
    assert "Traceback" in captured.err and "in broken" in captured.err


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    out = str(tmp_path / "missing" / "out.json")
    assert main(["canonical", gm, "--depth", "3", "-o", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_smb_column_report_order_is_independent_of_the_hash_seed(tmp_path):
    # two rows of one column share four symbols: four axiom (iv) messages a side
    symbols = ["a", "b", "c", "d"]
    block = [[symbols], [symbols]]
    smb = write(tmp_path, "shared.json", doc("smb", "shared", {
        "depth": 1, "level_sizes": [2, 1],
        "sigma_minus": {"symbols": symbols}, "sigma_plus": {"symbols": symbols},
        "minus": [block], "plus": [block], "repeat_from": None,
    }))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-m", "bisys.cli.main", "validate", smb, "--json"],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 1, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["axioms"]["iv"]["counterexamples"] == [
        f"block 0 {side} column 1: symbol {w} in rows 1 and 2"
        for side in ("minus", "plus") for w in symbols
    ]


def test_bipartite_command(tmp_path, capsys):
    s = canonical_smb(alternating_pres(), 6)
    sf = write(tmp_path, "alt.json", dump_document("smb", "alt", s))
    prefix = str(tmp_path / "split")
    assert main(["bipartite", sf, "--out-prefix", prefix]) == 0
    for suffix in (".cd.json", ".dc.json", ".witness.json"):
        assert os.path.exists(prefix + suffix)
    gm = canonical_smb(golden_mean_pres(), 4)
    gmf = write(tmp_path, "gm.json", dump_document("smb", "gm", gm))
    assert main(["bipartite", gmf]) == 1


def test_invariants_of_a_depth_0_bisystem_is_an_input_error(tmp_path, capsys):
    b0 = write(tmp_path, "b0.json", dump_document("bisystem", "b0", full_shift_bisystem(2, 0)))
    assert main(["validate", b0]) == 0
    capsys.readouterr()
    assert main(["invariants", b0]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invariants needs depth >= 1, the document has depth 0\n"


def test_a_depth_0_lambda_graph_system_is_valid_but_not_importable(tmp_path, capsys):
    lgs = write(tmp_path, "d0.json", doc("lambda_graph_system", "d0", {
        "depth": 0, "level_sizes": [1], "alphabet": ["a"], "edges": [], "iota": [],
        "repeat_from": None,
    }))
    assert main(["validate", lgs]) == 0
    assert capsys.readouterr().out == "one-sided system: valid\n"
    for command in (["from-lgs", lgs], ["invariants", lgs]):
        assert main(command) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a lambda-graph system of depth 0 has no edges to import\n"


def test_bipartite_split_of_a_depth_1_smb_is_an_input_error(tmp_path, capsys):
    alt = write(tmp_path, "alt.json", dump_document("smb", "alt", canonical_smb(alternating_pres(), 1)))
    assert main(["bipartite", alt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bipartite needs depth >= 2 to split, the document has depth 1\n"
    # a depth-1 system without a bipartite structure keeps its verdict
    gm = write(tmp_path, "gm.json", dump_document("smb", "gm", canonical_smb(golden_mean_pres(), 1)))
    assert main(["bipartite", gm]) == 1
    assert capsys.readouterr().out == "no bipartite structure\n"


def test_transpose_command_round_trip(tmp_path):
    b = canonical_bisystem(golden_mean_pres(), 4).bisystem
    bf = write(tmp_path, "b.json", dump_document("bisystem", "gm", b))
    t1 = str(tmp_path / "t1.json")
    t2 = str(tmp_path / "t2.json")
    assert main(["transpose", bf, "-o", t1]) == 0
    assert main(["transpose", t1, "-o", t2]) == 0
    _, _, back = load_document(t2)
    assert dump_document("bisystem", "x", back) == dump_document("bisystem", "x", b)


def test_from_lgs_command(tmp_path):
    lgs = write(tmp_path, "full3.json", FULL3_LGS)
    out = str(tmp_path / "imported.json")
    assert main(["from-lgs", lgs, "--depth", "5", "-o", out]) == 0
    kind, _, b = load_document(out)
    assert kind == "bisystem" and b.depth == 5
    assert b.sigma_minus.symbols == (("iota",),)


def test_depth_env_cap(tmp_path, monkeypatch, capsys):
    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    monkeypatch.setenv("BISYS_MAX_DEPTH", "3")
    assert main(["canonical", gm, "--depth", "8", "--emit", "json", "-o",
                 str(tmp_path / "out.json")]) == 0
    _, _, b = load_document(str(tmp_path / "out.json"))
    assert b.depth == 3


def test_bad_depth_is_an_input_error(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    assert main(["canonical", gm, "--depth", "0"]) == 2
    assert "--depth must be >= 1" in capsys.readouterr().err
    assert main(["invariants", gm, "--depth", "-1"]) == 2


@pytest.mark.parametrize("cap", ["abc", "0", ""])
def test_malformed_depth_cap_is_an_input_error(tmp_path, monkeypatch, capsys, cap):
    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    monkeypatch.setenv("BISYS_MAX_DEPTH", cap)
    assert main(["canonical", gm, "--depth", "3"]) == 2
    captured = capsys.readouterr()
    assert "BISYS_MAX_DEPTH" in captured.err and captured.out == ""


def test_dot_output_is_byte_identical_across_runs(tmp_path):
    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    d1, d2 = str(tmp_path / "a.dot"), str(tmp_path / "b.dot")
    assert main(["canonical", gm, "--depth", "4", "--emit", "dot", "-o", d1]) == 0
    assert main(["canonical", gm, "--depth", "4", "--emit", "dot", "-o", d2]) == 0
    assert open(d1, "rb").read() == open(d2, "rb").read()


def test_validate_json_report(tmp_path, capsys):
    gm = write(tmp_path, "gm.json", GM_SUBSHIFT)
    assert main(["validate", gm, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema_version"] == 1 and rep["irreducible"] is True

    b = paper_golden_mean_bisystem(4)
    bf = write(tmp_path, "b.json", dump_document("bisystem", "gm", b))
    assert main(["validate", bf, "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] is True and set(rep["axioms"]) == {"i", "ii", "iii", "iv", "v"}


# stdout of `invariants --depth 4` for every file under docs/examples, as first
# recorded: a change to the tower code must leave it byte-identical
INVARIANTS_DEPTH_4 = {
    ("even_shift.subshift.json", "minus"): (
        "side: minus\n"
        "level 0: K0 ~ Z^3, K1 ~ 0\n"
        "level 1: K0 ~ Z^15, K1 ~ 0\n"
        "level 2: K0 ~ Z^13, K1 ~ Z\n"
        "level 3: K0 ~ Z^21, K1 ~ Z\n"
        "not stabilized within the computed depth\n"
    ),
    ("even_shift.subshift.json", "plus"): (
        "side: plus\n"
        "level 0: K0 ~ Z^3, K1 ~ 0\n"
        "level 1: K0 ~ Z^15, K1 ~ 0\n"
        "level 2: K0 ~ Z^13, K1 ~ Z\n"
        "level 3: K0 ~ Z^21, K1 ~ Z\n"
        "not stabilized within the computed depth\n"
    ),
    ("full3.lgs.json", "minus"): (
        "side: minus\n"
        "level 0: K0 ~ Z/2, K1 ~ 0\n"
        "level 1: K0 ~ Z/2, K1 ~ 0\n"
        "level 2: K0 ~ Z/2, K1 ~ 0\n"
        "level 3: K0 ~ Z/2, K1 ~ 0\n"
        "stabilized at level <= 0\n"
        "cross-check (I - A^t): K0 = Z/2, K1 = 0\n"
    ),
    ("full3.lgs.json", "plus"): (
        "side: plus\n"
        "level 0: K0 ~ Z^3, K1 ~ Z\n"
        "level 1: K0 ~ Z^7, K1 ~ Z\n"
        "level 2: K0 ~ Z^19, K1 ~ Z\n"
        "level 3: K0 ~ Z^55, K1 ~ Z\n"
        "not stabilized within the computed depth\n"
    ),
    ("golden_mean.lgs.json", "minus"): (
        "side: minus\n"
        "level 0: K0 ~ 0, K1 ~ 0\n"
        "level 1: K0 ~ 0, K1 ~ 0\n"
        "level 2: K0 ~ 0, K1 ~ 0\n"
        "level 3: K0 ~ 0, K1 ~ 0\n"
        "stabilized at level <= 0\n"
        "cross-check (I - A^t): K0 = 0, K1 = 0\n"
    ),
    ("golden_mean.lgs.json", "plus"): (
        "side: plus\n"
        "level 0: K0 ~ Z^2, K1 ~ Z\n"
        "level 1: K0 ~ Z^3, K1 ~ Z\n"
        "level 2: K0 ~ Z^4, K1 ~ Z\n"
        "level 3: K0 ~ Z^6, K1 ~ Z\n"
        "not stabilized within the computed depth\n"
    ),
    ("golden_mean.subshift.json", "minus"): (
        "side: minus\n"
        "level 0: K0 ~ Z^2, K1 ~ 0\n"
        "level 1: K0 ~ Z^5, K1 ~ 0\n"
        "level 2: K0 ~ Z^5, K1 ~ 0\n"
        "level 3: K0 ~ Z^8, K1 ~ 0\n"
        "not stabilized within the computed depth\n"
    ),
    ("golden_mean.subshift.json", "plus"): (
        "side: plus\n"
        "level 0: K0 ~ Z^2, K1 ~ 0\n"
        "level 1: K0 ~ Z^5, K1 ~ 0\n"
        "level 2: K0 ~ Z^5, K1 ~ 0\n"
        "level 3: K0 ~ Z^8, K1 ~ 0\n"
        "not stabilized within the computed depth\n"
    ),
    ("no_121.subshift.json", "minus"): (
        "side: minus\n"
        "level 0: K0 ~ Z^4, K1 ~ Z\n"
        "level 1: K0 ~ Z^7, K1 ~ Z\n"
        "level 2: K0 ~ Z^12, K1 ~ Z\n"
        "level 3: K0 ~ Z^17, K1 ~ Z\n"
        "not stabilized within the computed depth\n"
    ),
    ("no_121.subshift.json", "plus"): (
        "side: plus\n"
        "level 0: K0 ~ Z^4, K1 ~ Z\n"
        "level 1: K0 ~ Z^7, K1 ~ Z\n"
        "level 2: K0 ~ Z^12, K1 ~ Z\n"
        "level 3: K0 ~ Z^17, K1 ~ Z\n"
        "not stabilized within the computed depth\n"
    ),
}


def test_invariants_output_is_pinned_on_every_example(capsys):
    examples = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")
    names = sorted(os.listdir(examples))
    assert sorted({name for name, _ in INVARIANTS_DEPTH_4}) == names
    for (name, side), expected in INVARIANTS_DEPTH_4.items():
        path = os.path.join(examples, name)
        assert main(["invariants", path, "--side", side, "--depth", "4"]) == 0
        assert capsys.readouterr().out == expected, (name, side)


def test_full3_plus_tower_at_the_default_depth_is_pinned(monkeypatch, capsys):
    # depth 6: theta_5 is 729 x 243, factorized by sparse unit-pivot elimination
    monkeypatch.delenv("BISYS_MAX_DEPTH", raising=False)
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "examples", "full3.lgs.json")
    assert main(["invariants", path, "--side", "plus"]) == 0
    assert capsys.readouterr().out == (
        "side: plus\n"
        "level 0: K0 ~ Z^3, K1 ~ Z\n"
        "level 1: K0 ~ Z^7, K1 ~ Z\n"
        "level 2: K0 ~ Z^19, K1 ~ Z\n"
        "level 3: K0 ~ Z^55, K1 ~ Z\n"
        "level 4: K0 ~ Z^163, K1 ~ Z\n"
        "level 5: K0 ~ Z^487, K1 ~ Z\n"
        "not stabilized within the computed depth\n"
    )


# -- stdout pinned across the caching of verdicts and smb expansions ----------

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "docs", "examples")


def pinned_outcomes(tmp_path, monkeypatch, capsys):
    """name -> (stdout sha256 prefix, exit code) of each pinned CLI run, and
    name -> sha256 prefix of each document those runs write.

    The runs: ``check-equivalence --mode psse --convert`` and then
    ``--mode sse --convert`` on the converted witness, for the canonical smb
    and self-witness of every example subshift at depths 3 and 6; each of
    those witnesses checked against the transposed system, which fails cell by
    cell, and the golden-mean witnesses against the no-121 systems, which fail
    on shapes; and ``bipartite`` on the alternating shift.  They run in ``tmp_path`` with
    relative paths, so the paths they print do not vary.
    """
    monkeypatch.chdir(tmp_path)

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    runs = []
    for depth in (3, 6):
        for stem in ("even_shift", "golden_mean", "no_121"):
            pres = load_document(os.path.join(EXAMPLES, f"{stem}.subshift.json"))[2]
            tag = f"{stem}_d{depth}"
            b = canonical_bisystem(pres, depth).bisystem
            s = to_smb(b)
            write(tmp_path, f"{tag}.smb.json", dump_document("smb", tag, s))
            write(tmp_path, f"{tag}.t.smb.json", dump_document("smb", tag, to_smb(transpose(b))))
            write(tmp_path, f"{tag}.psse.json",
                  dump_document("psse_witness", tag, trivial_psse_witness(s)))
            common = ["check-equivalence", f"{tag}.smb.json", f"{tag}.smb.json"]
            runs.append((f"{tag} psse", common + [
                f"{tag}.psse.json", "--mode", "psse", "--depth", str(depth),
                "--convert", f"{tag}.sse.json"]))
            runs.append((f"{tag} sse", common + [
                f"{tag}.sse.json", "--mode", "sse", "--depth", str(depth),
                "--convert", f"{tag}.unused.json"]))
            for mode in ("psse", "sse"):  # cell by cell failures
                runs.append((f"{tag} vs transpose {mode}", [
                    "check-equivalence", f"{tag}.smb.json", f"{tag}.t.smb.json",
                    f"{tag}.{mode}.json", "--mode", mode, "--depth", str(depth)]))
        for mode in ("psse", "sse"):  # shape failures
            runs.append((f"golden_mean vs no_121 d{depth} {mode}", [
                "check-equivalence", f"golden_mean_d{depth}.smb.json", f"no_121_d{depth}.smb.json",
                f"golden_mean_d{depth}.{mode}.json", "--mode", mode, "--depth", str(depth)]))
    write(tmp_path, "alt.smb.json",
          dump_document("smb", "alt", canonical_smb(alternating_pres(), 6)))
    runs.append(("alternating bipartite", ["bipartite", "alt.smb.json", "--out-prefix", "split"]))

    stdout = {}
    for name, argv in runs:
        code = main(argv)
        stdout[name] = (sha(capsys.readouterr().out), code)
    files = {p.name: sha(p.read_text()) for p in sorted(tmp_path.iterdir())
             if p.name.endswith((".sse.json", ".unused.json")) or p.name.startswith("split.")}
    return stdout, files


# recorded from the code before PSSE verdicts, smb expansions and product
# alphabets were cached
PINNED_STDOUT = {
    "even_shift_d3 psse": ("9c04c154bfa4738a", 0),
    "even_shift_d3 sse": ("837ba72a607e3c88", 0),
    "even_shift_d3 vs transpose psse": ("27cd1cac4d044508", 1),
    "even_shift_d3 vs transpose sse": ("320ebef4a24a8d99", 1),
    "golden_mean_d3 psse": ("97794604a9b2ba0f", 0),
    "golden_mean_d3 sse": ("837ba72a607e3c88", 0),
    "golden_mean_d3 vs transpose psse": ("c230b9e5f1635393", 1),
    "golden_mean_d3 vs transpose sse": ("1de2e20328d5757b", 1),
    "no_121_d3 psse": ("1b42b1099520d469", 0),
    "no_121_d3 sse": ("837ba72a607e3c88", 0),
    "no_121_d3 vs transpose psse": ("af105ad6acde1ed1", 1),
    "no_121_d3 vs transpose sse": ("98932ee73f4227b5", 1),
    "golden_mean vs no_121 d3 psse": ("adfdb12618850ad2", 1),
    "golden_mean vs no_121 d3 sse": ("93610ae9bbb6eef2", 1),
    "even_shift_d6 psse": ("ec212f031c4ac32c", 0),
    "even_shift_d6 sse": ("752f7053646e739a", 0),
    "even_shift_d6 vs transpose psse": ("ef5f573a4bc25d61", 1),
    "even_shift_d6 vs transpose sse": ("d3ae6c3df1b8a522", 1),
    "golden_mean_d6 psse": ("d23be8d944dd2295", 0),
    "golden_mean_d6 sse": ("752f7053646e739a", 0),
    "golden_mean_d6 vs transpose psse": ("f4c86f8553525eb8", 1),
    "golden_mean_d6 vs transpose sse": ("f78fda591909d0da", 1),
    "no_121_d6 psse": ("4b6419ef8c6bb600", 0),
    "no_121_d6 sse": ("752f7053646e739a", 0),
    "no_121_d6 vs transpose psse": ("62e2d4c047fb7ddf", 1),
    "no_121_d6 vs transpose sse": ("421541a91ebe0de3", 1),
    "golden_mean vs no_121 d6 psse": ("6b99cb1b1162fd13", 1),
    "golden_mean vs no_121 d6 sse": ("8d5a81d062bca750", 1),
    "alternating bipartite": ("54c5ca5b503c3b46", 0),
}
PINNED_FILES = {
    "even_shift_d3.sse.json": "bd55a7f5fd06cc07",
    "even_shift_d6.sse.json": "e2b65e11e37eb685",
    "golden_mean_d3.sse.json": "57e3d7b0afe54019",
    "golden_mean_d6.sse.json": "05893de67e2f104b",
    "no_121_d3.sse.json": "9136655a44bd4b32",
    "no_121_d6.sse.json": "11dea2e74fd08baa",
    "split.cd.json": "7345368fe42eadc8",
    "split.dc.json": "54356ee6739eed46",
    "split.witness.json": "ec7f34faae6df953",
}


def test_equivalence_and_bipartite_runs_keep_their_pinned_stdout(tmp_path, monkeypatch, capsys):
    stdout, files = pinned_outcomes(tmp_path, monkeypatch, capsys)
    assert stdout == PINNED_STDOUT
    assert files == PINNED_FILES


# -- stdout pinned across the bitmask ray-set walk -----------------------------


def canonical_outcomes(tmp_path, monkeypatch, capsys):
    """name -> (stdout sha256 prefix, exit code) of each CLI run below.

    For every example subshift at depths 3 and 6: ``canonical`` with each
    ``--emit``, ``words`` on the subshift, and ``validate`` and ``words`` on
    both sides of the emitted bisystem.  Every canonical build reads the
    realizable past and future sets.  The runs use relative paths in
    ``tmp_path``.
    """
    monkeypatch.chdir(tmp_path)
    stems = sorted(n[: -len(".subshift.json")] for n in os.listdir(EXAMPLES)
                   if n.endswith(".subshift.json"))
    out = {}

    def run(name, argv):
        code = main(argv)
        text = capsys.readouterr().out
        out[name] = (hashlib.sha256(text.encode()).hexdigest()[:16], code)
        return text

    for depth in (3, 6):
        for stem in stems:
            tag = f"{stem} d{depth}"
            path = os.path.join(EXAMPLES, f"{stem}.subshift.json")
            for emit in ("json", "smb", "dot"):
                text = run(f"{tag} canonical {emit}",
                           ["canonical", path, "--depth", str(depth), "--emit", emit])
                if emit == "json":
                    emitted = write(tmp_path, f"{stem}_d{depth}.json", text)
            run(f"{tag} words", ["words", path, "-n", str(depth)])
            run(f"{tag} validate", ["validate", os.path.basename(emitted)])
            for side in ("minus", "plus"):
                run(f"{tag} words {side}", ["words", os.path.basename(emitted),
                                            "--side", side, "-n", str(depth)])
    return out


# recorded from the code before the ray-set walk held relations as bitmasks
PINNED_CANONICAL = {
    'even_shift d3 canonical json': ('5ecbd6c44a6fa3fc', 0),
    'even_shift d3 canonical smb': ('b6e9bc1e79b6b2ff', 0),
    'even_shift d3 canonical dot': ('4e6fad178ab392cf', 0),
    'even_shift d3 words': ('6c2ad4400b0c29cc', 0),
    'even_shift d3 validate': ('f430f7a544d7e329', 0),
    'even_shift d3 words minus': ('6c2ad4400b0c29cc', 0),
    'even_shift d3 words plus': ('6c2ad4400b0c29cc', 0),
    'golden_mean d3 canonical json': ('68ac4113a5a6c013', 0),
    'golden_mean d3 canonical smb': ('4c0d5d38a5a2e406', 0),
    'golden_mean d3 canonical dot': ('1001d4ec22df34cb', 0),
    'golden_mean d3 words': ('9e6370903e96330d', 0),
    'golden_mean d3 validate': ('f430f7a544d7e329', 0),
    'golden_mean d3 words minus': ('9e6370903e96330d', 0),
    'golden_mean d3 words plus': ('9e6370903e96330d', 0),
    'no_121 d3 canonical json': ('00b8f565d5f85bd8', 0),
    'no_121 d3 canonical smb': ('52b4cbbbcd20cac2', 0),
    'no_121 d3 canonical dot': ('44b1c2a57c78b711', 0),
    'no_121 d3 words': ('b0d101243ca99a4f', 0),
    'no_121 d3 validate': ('f430f7a544d7e329', 0),
    'no_121 d3 words minus': ('b0d101243ca99a4f', 0),
    'no_121 d3 words plus': ('b0d101243ca99a4f', 0),
    'even_shift d6 canonical json': ('da3f24275f63ab8d', 0),
    'even_shift d6 canonical smb': ('9167ec2ed589461e', 0),
    'even_shift d6 canonical dot': ('fe58593c66a1866a', 0),
    'even_shift d6 words': ('bc5401b5cd3fa2c5', 0),
    'even_shift d6 validate': ('ec4f2a5afb4dc208', 0),
    'even_shift d6 words minus': ('bc5401b5cd3fa2c5', 0),
    'even_shift d6 words plus': ('bc5401b5cd3fa2c5', 0),
    'golden_mean d6 canonical json': ('c23939d1060981a2', 0),
    'golden_mean d6 canonical smb': ('fed362bae65ac6a6', 0),
    'golden_mean d6 canonical dot': ('05f411fef67ed2d1', 0),
    'golden_mean d6 words': ('d55a6d39697b460d', 0),
    'golden_mean d6 validate': ('ec4f2a5afb4dc208', 0),
    'golden_mean d6 words minus': ('d55a6d39697b460d', 0),
    'golden_mean d6 words plus': ('d55a6d39697b460d', 0),
    'no_121 d6 canonical json': ('beae95154c6b97a6', 0),
    'no_121 d6 canonical smb': ('7c97d4daf31297c3', 0),
    'no_121 d6 canonical dot': ('80975a4ce265710e', 0),
    'no_121 d6 words': ('c12d046df53b8ce2', 0),
    'no_121 d6 validate': ('ec4f2a5afb4dc208', 0),
    'no_121 d6 words minus': ('c12d046df53b8ce2', 0),
    'no_121 d6 words plus': ('c12d046df53b8ce2', 0),
}


def test_canonical_and_words_runs_keep_their_pinned_stdout(tmp_path, monkeypatch, capsys):
    assert canonical_outcomes(tmp_path, monkeypatch, capsys) == PINNED_CANONICAL


# -- from-lgs, transpose and lgs validation, pinned ----------------------------


def lgs_and_transpose_outcomes(tmp_path, monkeypatch, capsys):
    """name -> (stdout sha256 prefix, exit code) of each CLI run below.

    ``validate`` on both lgs examples, ``from-lgs`` on each at depths 3 and 6,
    and ``transpose`` on each bisystem that ``from-lgs`` emits and on the
    canonical depth-3 bisystem of every example subshift.
    """
    monkeypatch.chdir(tmp_path)
    out = {}

    def run(name, argv):
        code = main(argv)
        text = capsys.readouterr().out
        out[name] = (hashlib.sha256(text.encode()).hexdigest()[:16], code)
        return text

    for stem in ("full3", "golden_mean"):
        path = os.path.join(EXAMPLES, f"{stem}.lgs.json")
        run(f"{stem} validate", ["validate", path])
        for depth in (3, 6):
            text = run(f"{stem} d{depth} from-lgs", ["from-lgs", path, "--depth", str(depth)])
            write(tmp_path, f"{stem}_d{depth}.json", text)
            run(f"{stem} d{depth} transpose", ["transpose", f"{stem}_d{depth}.json"])
    for stem in ("even_shift", "golden_mean", "no_121"):
        main(["canonical", os.path.join(EXAMPLES, f"{stem}.subshift.json"), "--depth", "3"])
        write(tmp_path, f"{stem}.json", capsys.readouterr().out)
        run(f"{stem} d3 canonical transpose", ["transpose", f"{stem}.json"])
    return out


# recorded from the code as it stood before this table was added
PINNED_LGS_AND_TRANSPOSE = {
    'full3 validate': ('4757cc0a9d5d2e33', 0),
    'full3 d3 from-lgs': ('d1544536f2c0d2ae', 0),
    'full3 d3 transpose': ('e75eb662695fb8c5', 0),
    'full3 d6 from-lgs': ('064174bad6e95c96', 0),
    'full3 d6 transpose': ('9ee62060648e654a', 0),
    'golden_mean validate': ('4757cc0a9d5d2e33', 0),
    'golden_mean d3 from-lgs': ('570d34eed69ecf53', 0),
    'golden_mean d3 transpose': ('ed32c3370c379f02', 0),
    'golden_mean d6 from-lgs': ('6257fe22c209cb74', 0),
    'golden_mean d6 transpose': ('a2259a13e4bfb7a8', 0),
    'even_shift d3 canonical transpose': ('b542fc72a33c6951', 0),
    'golden_mean d3 canonical transpose': ('786b783a27cd63bb', 0),
    'no_121 d3 canonical transpose': ('a960c279eca58c8e', 0),
}


def test_from_lgs_and_transpose_runs_keep_their_pinned_stdout(tmp_path, monkeypatch, capsys):
    assert lgs_and_transpose_outcomes(tmp_path, monkeypatch, capsys) == PINNED_LGS_AND_TRANSPOSE


# -- validate, pinned on every document kind -----------------------------------


def validate_outcomes(tmp_path, monkeypatch, capsys):
    """name -> (stdout sha256 prefix, exit code) of ``validate`` and
    ``validate --json`` on a passing and a failing document of each leveled
    kind, and on a subshift.

    The failing smb has an empty plus block 0 (zero rows and columns, and
    commutation faults); the other fails axiom (iv) with two rows of one
    column sharing four symbols, eight faults of which the text lists five.
    The failing
    bisystem lacks one plus edge, and the failing lgs has an ``iota`` block
    of the wrong length.
    """
    monkeypatch.chdir(tmp_path)
    gm_smb = json.loads(dump_document("smb", "gm", canonical_smb(golden_mean_pres(), 3)))
    empty = json.loads(json.dumps(gm_smb))
    empty["payload"]["plus"][0] = [[[] for _ in row] for row in empty["payload"]["plus"][0]]
    symbols = ["a", "b", "c", "d"]
    shared = [[symbols], [symbols]]
    gm_b = json.loads(dump_document("bisystem", "gm", paper_golden_mean_bisystem(4)))
    cut = json.loads(json.dumps(gm_b))
    cut["payload"]["plus_edges"][1] = cut["payload"]["plus_edges"][1][:-1]
    with open(os.path.join(EXAMPLES, "golden_mean.lgs.json")) as fh:
        gm_lgs = json.load(fh)
    short = json.loads(json.dumps(gm_lgs))
    short["payload"]["iota"][0] = []
    docs = {
        "smb pass": json.dumps(gm_smb),
        "smb empty block": json.dumps(empty),
        "smb shared column": doc("smb", "shared", {
            "depth": 1, "level_sizes": [2, 1],
            "sigma_minus": {"symbols": symbols}, "sigma_plus": {"symbols": symbols},
            "minus": [shared], "plus": [shared], "repeat_from": None,
        }),
        "bisystem pass": json.dumps(gm_b),
        "bisystem cut edge": json.dumps(cut),
        "lgs pass": json.dumps(gm_lgs),
        "lgs short iota": json.dumps(short),
        "subshift": GM_SUBSHIFT,
    }
    out = {}
    for name, text in docs.items():
        path = write(tmp_path, name.replace(" ", "_") + ".json", text)
        for flags in ([], ["--json"]):
            code = main(["validate", path] + flags)
            stdout = capsys.readouterr().out
            out[" ".join([name] + flags)] = (hashlib.sha256(stdout.encode()).hexdigest()[:16], code)
    return out


# recorded from the code before the smb report became a ValidationReport
PINNED_VALIDATE = {
    'smb pass': ('964761d66f2895b0', 0),
    'smb pass --json': ('5056d43aa24396fa', 0),
    'smb empty block': ('de0ff5d75d775a98', 1),
    'smb empty block --json': ('81e43798ab87450d', 1),
    'smb shared column': ('256e9a551ce74596', 1),
    'smb shared column --json': ('8f87843444bd19df', 1),
    'bisystem pass': ('2ea93fd879d8ff06', 0),
    'bisystem pass --json': ('be36cbe1679ca40a', 0),
    'bisystem cut edge': ('34a1ed4692dc6de1', 1),
    'bisystem cut edge --json': ('4a3dcf60a2074059', 1),
    'lgs pass': ('4757cc0a9d5d2e33', 0),
    'lgs pass --json': ('01b63a7f58ec1fcf', 0),
    'lgs short iota': ('789c4c91a241f081', 1),
    'lgs short iota --json': ('d66be408766fdc2b', 1),
    'subshift': ('9d5797c39fa26492', 0),
    'subshift --json': ('28758d1993d078ff', 0),
}


def test_validate_runs_keep_their_pinned_stdout(tmp_path, monkeypatch, capsys):
    assert validate_outcomes(tmp_path, monkeypatch, capsys) == PINNED_VALIDATE


# -- exit-code fuzz -------------------------------------------------------------

FUZZ_VALUES = (None, True, 0, -1, 99, "", "zz", [], {}, 1.5)

# the commands run on each kind, the input file standing for {}; a fuzzed smb
# is checked as both systems of the golden-mean self-witness
FUZZ_COMMANDS = {
    "subshift": (["validate", "{}"], ["canonical", "{}", "--depth", "3"],
                 ["words", "{}", "-n", "3"], ["invariants", "{}", "--depth", "3"]),
    "lambda_graph_system": (["validate", "{}"], ["invariants", "{}", "--depth", "3"],
                            ["from-lgs", "{}", "--depth", "3"]),
    "bisystem": (["validate", "{}"], ["words", "{}", "-n", "3"],
                 ["invariants", "{}", "--depth", "3"], ["transpose", "{}"]),
    "smb": (["validate", "{}"], ["words", "{}", "-n", "3"], ["bipartite", "{}"],
            ["check-equivalence", "{}", "{}", "gm.psse.json", "--depth", "3"]),
    "psse_witness": (["check-equivalence", "gm.smb.json", "gm.smb.json", "{}", "--depth", "3"],),
    "sse_witness": (["check-equivalence", "gm.smb.json", "gm.smb.json", "{}",
                     "--mode", "sse", "--depth", "3"],),
}


def mutate(node, rng):
    """Replace one random node of a JSON tree by a value of FUZZ_VALUES,
    delete it, or duplicate it in its list."""
    paths = []

    def walk(x, path):
        paths.append(path)
        if isinstance(x, (dict, list)):
            for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
                walk(v, path + (k,))

    walk(node, ())
    *path, key = rng.choice(paths[1:])
    parent = node
    for k in path:
        parent = parent[k]
    op = rng.choice(("replace", "delete", "duplicate"))
    if op == "delete":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = json.loads(json.dumps(rng.choice(FUZZ_VALUES)))


def test_mutated_documents_keep_the_exit_code_contract(tmp_path, monkeypatch, capsys):
    """Seeded fuzz: one or two mutations of an example or golden-mean depth-3
    document, then a command that takes its kind; every run exits 0, 1 or 2,
    never 3 (internal error)."""
    monkeypatch.chdir(tmp_path)
    b = canonical_bisystem(golden_mean_pres(), 3).bisystem
    s = to_smb(b)
    w = trivial_psse_witness(s)
    inputs = {}
    for name in os.listdir(EXAMPLES):
        with open(os.path.join(EXAMPLES, name)) as fh:
            inputs[name] = fh.read()
    inputs.update({
        "gm.bisystem.json": dump_document("bisystem", "gm", b),
        "gm.smb.json": dump_document("smb", "gm", s),
        "gm.psse.json": dump_document("psse_witness", "gm", w),
        "gm.sse.json": dump_document("sse_witness", "gm", psse_to_sse(w)),
    })
    for name, text in inputs.items():
        write(tmp_path, name, text)
    rng = random.Random(2024)
    ran = set()
    for k in range(200):
        name = sorted(inputs)[k % len(inputs)]
        node = json.loads(inputs[name])
        kind = node["kind"]
        for _ in range(rng.choice((1, 2))):
            mutate(node, rng)
        write(tmp_path, "fuzzed.json", json.dumps(node))
        command = rng.choice(FUZZ_COMMANDS[kind])
        argv = [a.replace("{}", "fuzzed.json") for a in command]
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2), (name, json.dumps(node), argv, code)
        ran.add((kind, command[0]))
    assert ran == {(kind, c[0]) for kind, cs in FUZZ_COMMANDS.items() for c in cs}
