"""One fault at a time in an emitted document of every kind.

Each case takes one small emitted document, breaks it in exactly one place
and parses it.  ``PARENT`` holds the outcome every case had before the
readers were rebuilt around one payload table, recorded from that code:
the sha256 prefix of the re-emitted document when it parses, the
``DocumentError`` text (location and message) when it does not.  The rebuilt
readers must reproduce each of them, except the cases in ``CHANGED``, whose
new outcomes are deliberate.
"""

import copy
import hashlib
import json

from bisys.canonical import canonical_bisystem
from bisys.cli.documents import DocumentError, dump_document, parse_document
from bisys.equivalence import psse_to_sse, trivial_psse_witness
from bisys.smb import to_smb
from fixtures import even_shift_pres, golden_mean_lgs, golden_mean_pres

# leveled kinds: their block families, each with one block per level pair
FAMILIES = {
    "bisystem": ("minus_edges", "plus_edges"),
    "lambda_graph_system": ("edges", "iota"),
    "smb": ("minus", "plus"),
}
EDGES = ("minus_edges", "plus_edges", "edges")
MATRICES = ("minus", "plus", "P", "Q", "X", "Y", "H", "K")
ALPHABETS = ("sigma_minus", "sigma_plus", "C", "D")
SPECS = ("phi_m", "phi_n", "phi1", "phi2", "phi_c_plus", "phi_d_plus", "phi_c_minus",
         "phi_d_minus")


def base_documents():
    """name -> (kind, payload) of one small emitted document per kind."""
    b = canonical_bisystem(golden_mean_pres(), 3).bisystem  # level sizes 1, 2, 4, 4
    s = to_smb(b)
    w = trivial_psse_witness(to_smb(canonical_bisystem(golden_mean_pres(), 2).bisystem))
    objects = {
        "subshift sft": ("subshift", golden_mean_pres()),
        "subshift sofic": ("subshift", even_shift_pres()),
        "bisystem": ("bisystem", b),
        "lambda_graph_system": ("lambda_graph_system", golden_mean_lgs(3)),
        "smb": ("smb", s),
        "psse_witness": ("psse_witness", w),
        "sse_witness": ("sse_witness", psse_to_sse(w)),
    }
    return {
        name: (kind, json.loads(dump_document(kind, name, obj))["payload"])
        for name, (kind, obj) in objects.items()
    }


def _leveled_faults(kind):
    families = FAMILIES[kind]
    yield "level_sizes entry 'x'", lambda q: q["level_sizes"].__setitem__(1, "x"), None
    yield "level_sizes entry 99", lambda q: q["level_sizes"].__setitem__(1, 99), None
    yield "level_sizes entry 2.9", lambda q: q["level_sizes"].__setitem__(1, 2.9), None
    yield "level_sizes entry '2'", lambda q: q["level_sizes"].__setitem__(1, "2"), None

    def truncate(q):
        for key in ("level_sizes",) + families:
            q[key].pop()
        q["repeat_from"] = 1

    def widen(q):
        q["level_sizes"][-1] += 1
        q["repeat_from"] = 1

    def empty(q):
        del q["level_sizes"][1:]
        for key in families:
            q[key].clear()
        q["repeat_from"] = 0

    def mark(q):
        q["repeat_from"] = len(q[families[0]]) - 1

    yield "repeat_from on a non-square last block (truncated)", truncate, 5
    yield "repeat_from on a non-square last block (last size + 1)", widen, 5
    yield "repeat_from with no blocks", empty, 5
    yield "extension to depth 5 with repeat_from", mark, 5
    yield "extension to depth 5 without repeat_from", lambda q: None, 5
    yield "depth 2 with repeat_from", mark, 2
    yield "repeat_from as a string, depth 5", lambda q: q.__setitem__("repeat_from", "x"), 5

    def copy_block(q):
        for key in families:
            q[key][2] = copy.deepcopy(q[key][1])

    # block 1 is from 2 to 4 vertices and block 2 from 4 to 4: a reader that
    # reads a block equal to the one before it as the same object must still
    # check it against its own level sizes
    yield "block 2 a copy of block 1", copy_block, None

    def copy_two_back(q):
        q["level_sizes"].append(q["level_sizes"][-1])
        for key in families:
            q[key].append(copy.deepcopy(q[key][1]))

    # a new block 3, from 4 to 4 vertices, equal to block 1 two blocks back:
    # a block shared with one two back must still be checked against its own
    # level sizes
    yield "block 3 a copy of block 1", copy_two_back, None


def _edge_faults(key):
    def edge(field, value):
        return lambda q: q[key][1][2].__setitem__(field, value)

    yield f"{key} source 0", edge(0, 0), None
    yield f"{key} source 99", edge(0, 99), None
    yield f"{key} source 'x'", edge(0, "x"), None
    yield f"{key} source 1.7", edge(0, 1.7), None
    yield f"{key} source True", edge(0, True), None
    yield f"{key} source ' 1'", edge(0, " 1"), None
    yield f"{key} target 1.0", edge(1, 1.0), None
    yield f"{key} target 99", edge(1, 99), None
    yield f"{key} label 7", edge(2, 7), None
    yield f"{key} label as a list", edge(2, ["a", "b"]), None
    yield f"{key} label outside the alphabet", edge(2, "zz"), None
    yield f"{key} edge of two items", lambda q: q[key][1][2].pop(), None
    yield f"{key} edge of four items", lambda q: q[key][1][2].append(1), None
    yield f"{key} edge as a number", lambda q: q[key][1].__setitem__(2, 7), None
    # two faults in one block: a bad source at edge 1 and a bad label at edge 2
    yield f"{key} bad source then bad label", (
        lambda q: (q[key][1][1].__setitem__(0, "x"), q[key][1][2].__setitem__(2, 7))
    ), None
    yield f"{key} bad source and bad label on one edge", (
        lambda q: (q[key][1][2].__setitem__(0, "x"), q[key][1][2].__setitem__(2, 7))
    ), None

    def true_copy(q):
        q[key][2] = [[True if x == 1 and type(x) is int else x for x in e] for e in q[key][1]]

    # equal to block 1 under ==, since 1 == True, yet it must be read itself
    yield f"{key} block 2 a copy of block 1 with each end 1 as true", true_copy, None


def faults(kind, payload):
    """(name, mutate, depth) triples, each breaking one thing in the payload."""
    for key in sorted(payload):
        yield f"missing {key}", lambda q, key=key: q.pop(key), None
        yield f"{key} as a number", lambda q, key=key: q.__setitem__(key, 7), None
        yield f"{key} as a string", lambda q, key=key: q.__setitem__(key, "x"), None
        if isinstance(payload[key], list) and payload[key]:
            yield f"{key} one short", lambda q, key=key: q[key].pop(), None
            yield f"{key} one long", lambda q, key=key: q[key].append(q[key][-1]), None
    if kind in FAMILIES:
        yield from _leveled_faults(kind)
        for key in EDGES:
            if key in payload:
                yield from _edge_faults(key)
    if "iota" in payload:
        for value in (0, 99, "x", True, 1.5):
            yield f"iota entry {value!r}", (
                lambda q, value=value: q["iota"][1].__setitem__(0, value)), None
    for key in MATRICES:
        if key in payload:
            for value in (["zz"], [7], "1"):
                yield f"{key} cell {value!r}", (
                    lambda q, key=key, value=value: q[key][1][0].__setitem__(0, value)), None
    for key in ALPHABETS:
        if key in payload:
            yield f"{key} without symbols", lambda q, key=key: q.__setitem__(key, {}), None
            yield f"{key} symbol 7", (
                lambda q, key=key: q.__setitem__(key, {"symbols": [7]})), None
    for key in SPECS:
        if key in payload:
            yield f"{key} source 7", lambda q, key=key: q[key][0].__setitem__(0, 7), None
            yield f"{key} pair of one item", lambda q, key=key: q[key][0].pop(), None
            yield f"{key} one source twice", (
                lambda q, key=key: q[key].append(q[key][0])), None
    if kind == "subshift":
        yield "variant 'nope'", lambda q: q.__setitem__("variant", "nope"), None
        if "matrix" in payload:
            yield "matrix entry 2", lambda q: q["matrix"][0].__setitem__(0, 2), None
            yield "matrix entry True", lambda q: q["matrix"][0].__setitem__(0, True), None
            yield "matrix entry 1.0", lambda q: q["matrix"][0].__setitem__(0, 1.0), None
            yield "symbol 7", lambda q: q["symbols"].__setitem__(0, 7), None
        if "edges" in payload:
            yield "edge to an unknown state", (
                lambda q: q["edges"][0].__setitem__(1, "9")), None
            for value in (1, True, ["a"], {"x": 1}):
                yield f"edge label {value!r}", (
                    lambda q, value=value: q["edges"][0].__setitem__(2, value)), None
            yield "edge source 1", lambda q: q["edges"][0].__setitem__(0, 1), None
            yield "edge of two items", lambda q: q["edges"][0].pop(), None
            yield "state 1", lambda q: q["states"].__setitem__(0, 1), None


def outcome(kind, payload, depth):
    text = json.dumps({"schema_version": 1, "kind": kind, "name": "f", "payload": payload})
    try:
        parsed = parse_document(text, depth)
    except DocumentError as e:
        return f"error {e}"
    return "ok " + hashlib.sha256(dump_document(*parsed).encode()).hexdigest()[:12]


def cases():
    for base, (kind, payload) in base_documents().items():
        for fault, mutate, depth in faults(kind, payload):
            q = copy.deepcopy(payload)
            mutate(q)
            yield f"{base}: {fault}", kind, q, depth

# the outcome of every case before the readers shared one payload table
PARENT = {
    'subshift sft: missing matrix': "error $.payload: missing field 'matrix'",
    'subshift sft: matrix as a number': "error $.payload: 'int' object is not iterable",
    'subshift sft: matrix as a string':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'subshift sft: matrix one short': 'error $.payload: matrix shape and symbol count disagree',
    'subshift sft: matrix one long': 'error $.payload: matrix shape and symbol count disagree',
    'subshift sft: missing symbols': "error $.payload: missing field 'symbols'",
    'subshift sft: symbols as a number': "error $.payload: 'int' object is not iterable",
    'subshift sft: symbols as a string': 'error $.payload: matrix shape and symbol count disagree',
    'subshift sft: symbols one short': 'error $.payload: matrix shape and symbol count disagree',
    'subshift sft: symbols one long': 'error $.payload: matrix shape and symbol count disagree',
    'subshift sft: missing variant': 'error $.payload.variant: unknown variant None',
    'subshift sft: variant as a number': 'error $.payload.variant: unknown variant 7',
    'subshift sft: variant as a string': "error $.payload.variant: unknown variant 'x'",
    "subshift sft: variant 'nope'": "error $.payload.variant: unknown variant 'nope'",
    'subshift sft: matrix entry 2': 'error $.payload: matrix entries must be 0 or 1',
    # the rows of non-integer sizes, edge ends, iota and matrix entries, the
    # 'block 3 a copy of block 1' rows and the 'each end 1 as true' rows were
    # recorded later, from the readers before JSON integers were checked
    'subshift sft: matrix entry True': 'ok 24fe4be7dafc',
    'subshift sft: matrix entry 1.0': 'ok 24fe4be7dafc',
    # this row and the sofic rows after 'edge to an unknown state' were
    # recorded later, from the readers before subshift strings were checked
    'subshift sft: symbol 7': 'ok a11f9e6a58c4',
    'subshift sofic: missing edges': "error $.payload: missing field 'edges'",
    'subshift sofic: edges as a number': "error $.payload: 'int' object is not iterable",
    'subshift sofic: edges as a string':
        'error $.payload: not enough values to unpack (expected 3, got 1)',
    'subshift sofic: edges one short': 'error $.payload: state 2 has no outgoing edge',
    'subshift sofic: edges one long': 'ok c415ec3b3274',
    'subshift sofic: missing states': "error $.payload: missing field 'states'",
    'subshift sofic: states as a number': "error $.payload: 'int' object is not iterable",
    'subshift sofic: states as a string': 'error $.payload: edge (1,1,a) leaves the state set',
    'subshift sofic: states one short': 'error $.payload: edge (1,2,b) leaves the state set',
    'subshift sofic: states one long': 'error $.payload: duplicate states',
    'subshift sofic: missing variant': 'error $.payload.variant: unknown variant None',
    'subshift sofic: variant as a number': 'error $.payload.variant: unknown variant 7',
    'subshift sofic: variant as a string': "error $.payload.variant: unknown variant 'x'",
    "subshift sofic: variant 'nope'": "error $.payload.variant: unknown variant 'nope'",
    'subshift sofic: edge to an unknown state':
        'error $.payload: edge (1,9,a) leaves the state set',
    'subshift sofic: edge label 1': 'ok 61f46b1d8efb',
    'subshift sofic: edge label True': 'ok 4e88f34e6290',
    "subshift sofic: edge label ['a']": 'ok c517aa2258f6',
    "subshift sofic: edge label {'x': 1}": 'ok 0c19ec4af0f9',
    'subshift sofic: edge source 1': 'error $.payload: edge (1,1,a) leaves the state set',
    'subshift sofic: edge of two items':
        'error $.payload: not enough values to unpack (expected 3, got 2)',
    'subshift sofic: state 1': 'error $.payload: edge (1,1,a) leaves the state set',
    'bisystem: missing depth': 'ok 7e5ebba7d30c',
    'bisystem: depth as a number': 'ok 7e5ebba7d30c',
    'bisystem: depth as a string': 'ok 7e5ebba7d30c',
    'bisystem: missing level_sizes': "error $.payload: missing field 'level_sizes'",
    'bisystem: level_sizes as a number': "error $.payload: 'int' object is not iterable",
    'bisystem: level_sizes as a string':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: level_sizes one short':
        'error $.payload: edge blocks must cover every consecutive level pair',
    'bisystem: level_sizes one long':
        'error $.payload: edge blocks must cover every consecutive level pair',
    'bisystem: missing minus_edges': "error $.payload: missing field 'minus_edges'",
    'bisystem: minus_edges as a number': "error $.payload: 'int' object is not iterable",
    'bisystem: minus_edges as a string':
        'error $.payload.minus_edges[0][0]: edge must be [src, tgt, label]',
    'bisystem: minus_edges one short':
        'error $.payload: edge blocks must cover every consecutive level pair',
    'bisystem: minus_edges one long':
        'error $.payload: edge blocks must cover every consecutive level pair',
    'bisystem: missing plus_edges': "error $.payload: missing field 'plus_edges'",
    'bisystem: plus_edges as a number': "error $.payload: 'int' object is not iterable",
    'bisystem: plus_edges as a string':
        'error $.payload.plus_edges[0][0]: edge must be [src, tgt, label]',
    'bisystem: plus_edges one short':
        'error $.payload: edge blocks must cover every consecutive level pair',
    'bisystem: plus_edges one long':
        'error $.payload: edge blocks must cover every consecutive level pair',
    'bisystem: missing repeat_from': 'ok 7e5ebba7d30c',
    'bisystem: repeat_from as a number': 'ok 7e5ebba7d30c',
    'bisystem: repeat_from as a string': 'ok 7e5ebba7d30c',
    'bisystem: missing sigma_minus': "error $.payload: missing field 'sigma_minus'",
    'bisystem: sigma_minus as a number': 'error $.payload.sigma_minus: alphabet must be an object',
    'bisystem: sigma_minus as a string': 'error $.payload.sigma_minus: alphabet must be an object',
    'bisystem: missing sigma_plus': "error $.payload: missing field 'sigma_plus'",
    'bisystem: sigma_plus as a number': 'error $.payload.sigma_plus: alphabet must be an object',
    'bisystem: sigma_plus as a string': 'error $.payload.sigma_plus: alphabet must be an object',
    "bisystem: level_sizes entry 'x'":
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: level_sizes entry 99': 'ok 497913f4f263',
    'bisystem: level_sizes entry 2.9': 'ok 7e5ebba7d30c',
    "bisystem: level_sizes entry '2'": 'ok 7e5ebba7d30c',
    'bisystem: repeat_from on a non-square last block (truncated)':
        'error $.payload: repeating block must be square',
    'bisystem: repeat_from on a non-square last block (last size + 1)':
        'error $.payload: repeating block must be square',
    'bisystem: repeat_from with no blocks': 'error $.payload: list index out of range',
    'bisystem: extension to depth 5 with repeat_from': 'ok 660d81eeccc0',
    'bisystem: extension to depth 5 without repeat_from': 'ok 7e5ebba7d30c',
    'bisystem: depth 2 with repeat_from': 'ok 7e5ebba7d30c',
    'bisystem: repeat_from as a string, depth 5': 'ok 660d81eeccc0',
    # this row and the other two 'block 2 a copy of block 1' rows were recorded
    # from the readers before they read equal blocks as one object
    'bisystem: block 2 a copy of block 1': 'ok 7fe26a21063e',
    'bisystem: block 3 a copy of block 1': 'ok ea6a15442c97',
    'bisystem: minus_edges source 0':
        "error $.payload: minus edge (-1, 0, ('1',)) out of range at block 1",
    'bisystem: minus_edges source 99':
        "error $.payload: minus edge (98, 0, ('1',)) out of range at block 1",
    "bisystem: minus_edges source 'x'":
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: minus_edges source 1.7': 'ok 0e106735a775',
    'bisystem: minus_edges source True': 'ok 0e106735a775',
    "bisystem: minus_edges source ' 1'": 'ok 0e106735a775',
    'bisystem: minus_edges target 1.0': 'ok 7e5ebba7d30c',
    'bisystem: minus_edges target 99':
        "error $.payload: minus edge (2, 98, ('1',)) out of range at block 1",
    'bisystem: minus_edges label 7':
        'error $.payload.minus_edges[1][2]: symbol must be a string or list of strings',
    'bisystem: minus_edges label as a list':
        "error $.payload: minus label ('a', 'b') outside the alphabet",
    'bisystem: minus_edges label outside the alphabet':
        "error $.payload: minus label ('zz',) outside the alphabet",
    'bisystem: minus_edges edge of two items':
        'error $.payload.minus_edges[1][2]: edge must be [src, tgt, label]',
    'bisystem: minus_edges edge of four items':
        'error $.payload.minus_edges[1][2]: edge must be [src, tgt, label]',
    'bisystem: minus_edges edge as a number': "error $.payload: object of type 'int' has no len()",
    'bisystem: minus_edges bad source then bad label':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: minus_edges bad source and bad label on one edge':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: minus_edges block 2 a copy of block 1 with each end 1 as true': 'ok 3c07f4ee9370',
    'bisystem: plus_edges source 0':
        "error $.payload: plus edge (-1, 1, ('2',)) out of range at block 1",
    'bisystem: plus_edges source 99':
        "error $.payload: plus edge (98, 1, ('2',)) out of range at block 1",
    "bisystem: plus_edges source 'x'":
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: plus_edges source 1.7': 'ok 7e5ebba7d30c',
    'bisystem: plus_edges source True': 'ok 7e5ebba7d30c',
    "bisystem: plus_edges source ' 1'": 'ok 7e5ebba7d30c',
    'bisystem: plus_edges target 1.0': 'ok c8770bb5fbe8',
    'bisystem: plus_edges target 99':
        "error $.payload: plus edge (0, 98, ('2',)) out of range at block 1",
    'bisystem: plus_edges label 7':
        'error $.payload.plus_edges[1][2]: symbol must be a string or list of strings',
    'bisystem: plus_edges label as a list':
        "error $.payload: plus label ('a', 'b') outside the alphabet",
    'bisystem: plus_edges label outside the alphabet':
        "error $.payload: plus label ('zz',) outside the alphabet",
    'bisystem: plus_edges edge of two items':
        'error $.payload.plus_edges[1][2]: edge must be [src, tgt, label]',
    'bisystem: plus_edges edge of four items':
        'error $.payload.plus_edges[1][2]: edge must be [src, tgt, label]',
    'bisystem: plus_edges edge as a number': "error $.payload: object of type 'int' has no len()",
    'bisystem: plus_edges bad source then bad label':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: plus_edges bad source and bad label on one edge':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'bisystem: plus_edges block 2 a copy of block 1 with each end 1 as true': 'ok d8de6ce186f6',
    'bisystem: sigma_minus without symbols':
        "error $.payload.sigma_minus: alphabet needs 'symbols' or 'product'",
    'bisystem: sigma_minus symbol 7':
        'error $.payload.sigma_minus.symbols[0]: symbol must be a string or list of strings',
    'bisystem: sigma_plus without symbols':
        "error $.payload.sigma_plus: alphabet needs 'symbols' or 'product'",
    'bisystem: sigma_plus symbol 7':
        'error $.payload.sigma_plus.symbols[0]: symbol must be a string or list of strings',
    'lambda_graph_system: missing alphabet': "error $.payload: missing field 'alphabet'",
    'lambda_graph_system: alphabet as a number': "error $.payload: 'int' object is not iterable",
    'lambda_graph_system: alphabet as a string': 'ok 4fb9e3355e9e',
    'lambda_graph_system: alphabet one short': 'ok c9375d2b113e',
    'lambda_graph_system: alphabet one long': "error $.payload: duplicate symbol ('a21',)",
    'lambda_graph_system: missing depth': 'ok 212061bb73b3',
    'lambda_graph_system: depth as a number': 'ok 212061bb73b3',
    'lambda_graph_system: depth as a string': 'ok 212061bb73b3',
    'lambda_graph_system: missing edges': "error $.payload: missing field 'edges'",
    'lambda_graph_system: edges as a number': "error $.payload: 'int' object is not iterable",
    'lambda_graph_system: edges as a string':
        'error $.payload: not enough values to unpack (expected 3, got 1)',
    'lambda_graph_system: edges one short': 'ok 0ebc5da15cdc',
    'lambda_graph_system: edges one long': 'ok 1de7eb6cc7a0',
    'lambda_graph_system: missing iota': "error $.payload: missing field 'iota'",
    'lambda_graph_system: iota as a number': "error $.payload: 'int' object is not iterable",
    'lambda_graph_system: iota as a string':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'lambda_graph_system: iota one short': 'ok 4ec230765db5',
    'lambda_graph_system: iota one long': 'ok 10e49f353768',
    'lambda_graph_system: missing level_sizes': "error $.payload: missing field 'level_sizes'",
    'lambda_graph_system: level_sizes as a number':
        "error $.payload: 'int' object is not iterable",
    'lambda_graph_system: level_sizes as a string':
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'lambda_graph_system: level_sizes one short': 'ok 70cc41f5ece7',
    'lambda_graph_system: level_sizes one long': 'ok 64ae0f6cc1e0',
    'lambda_graph_system: missing repeat_from': 'ok 212061bb73b3',
    'lambda_graph_system: repeat_from as a number': 'ok 212061bb73b3',
    'lambda_graph_system: repeat_from as a string': 'ok 212061bb73b3',
    "lambda_graph_system: level_sizes entry 'x'":
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'lambda_graph_system: level_sizes entry 99': 'ok f66afc49a53c',
    'lambda_graph_system: level_sizes entry 2.9': 'ok 212061bb73b3',
    "lambda_graph_system: level_sizes entry '2'": 'ok 212061bb73b3',
    'lambda_graph_system: repeat_from on a non-square last block (truncated)': 'ok 5d2e99abeac3',
    'lambda_graph_system: repeat_from on a non-square last block (last size + 1)':
        'error $.payload: repeating block must be square',
    'lambda_graph_system: repeat_from with no blocks': 'error $.payload: list index out of range',
    'lambda_graph_system: extension to depth 5 with repeat_from': 'ok 5d2e99abeac3',
    'lambda_graph_system: extension to depth 5 without repeat_from': 'ok 212061bb73b3',
    'lambda_graph_system: depth 2 with repeat_from': 'ok 212061bb73b3',
    'lambda_graph_system: repeat_from as a string, depth 5': 'ok 5d2e99abeac3',
    'lambda_graph_system: block 2 a copy of block 1': 'ok 212061bb73b3',
    'lambda_graph_system: block 3 a copy of block 1': 'ok 843b9b5b21b9',
    'lambda_graph_system: edges source 0': 'ok 996ea225678a',
    'lambda_graph_system: edges source 99': 'ok af007b078f22',
    "lambda_graph_system: edges source 'x'":
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'lambda_graph_system: edges source 1.7': 'ok aa226ca092b3',
    'lambda_graph_system: edges source True': 'ok aa226ca092b3',
    "lambda_graph_system: edges source ' 1'": 'ok aa226ca092b3',
    'lambda_graph_system: edges target 1.0': 'ok 212061bb73b3',
    'lambda_graph_system: edges target 99': 'ok 068ea1977152',
    'lambda_graph_system: edges label 7': 'error $.payload.edges[1][2]: label must be a string',
    'lambda_graph_system: edges label as a list':
        'error $.payload.edges[1][2]: label must be a string',
    'lambda_graph_system: edges label outside the alphabet': 'ok 56f642c7a970',
    'lambda_graph_system: edges edge of two items':
        'error $.payload: not enough values to unpack (expected 3, got 2)',
    'lambda_graph_system: edges edge of four items':
        'error $.payload: too many values to unpack (expected 3)',
    'lambda_graph_system: edges edge as a number':
        'error $.payload: cannot unpack non-iterable int object',
    'lambda_graph_system: edges bad source then bad label':
        'error $.payload.edges[1][2]: label must be a string',
    'lambda_graph_system: edges bad source and bad label on one edge':
        'error $.payload.edges[1][2]: label must be a string',
    'lambda_graph_system: edges block 2 a copy of block 1 with each end 1 as true':
        'ok 212061bb73b3',
    'lambda_graph_system: iota entry 0': 'ok 3b93d9b6d026',
    'lambda_graph_system: iota entry 99': 'ok 8d2f3e996e42',
    "lambda_graph_system: iota entry 'x'":
        "error $.payload: invalid literal for int() with base 10: 'x'",
    'lambda_graph_system: iota entry True': 'ok 212061bb73b3',
    'lambda_graph_system: iota entry 1.5': 'ok 212061bb73b3',
    'smb: missing depth': 'ok 577118f270e4',
    'smb: depth as a number': 'ok 577118f270e4',
    'smb: depth as a string': 'ok 577118f270e4',
    'smb: missing level_sizes': "error $.payload: missing field 'level_sizes'",
    'smb: level_sizes as a number': "error $.payload: 'int' object is not iterable",
    'smb: level_sizes as a string': "error $.payload: invalid literal for int() with base 10: 'x'",
    'smb: level_sizes one short': 'error $.payload: list index out of range',
    'smb: level_sizes one long': 'ok 577118f270e4',
    'smb: missing minus': "error $.payload: missing field 'minus'",
    'smb: minus as a number': "error $.payload: 'int' object is not iterable",
    'smb: minus as a string': 'error $.payload.minus[0][0]: expected 2 columns',
    'smb: minus one short': 'error $.payload: need matching nonempty block sequences',
    'smb: minus one long': 'error $.payload: list index out of range',
    'smb: missing plus': "error $.payload: missing field 'plus'",
    'smb: plus as a number': "error $.payload: 'int' object is not iterable",
    'smb: plus as a string': 'error $.payload.plus[0][0]: expected 2 columns',
    'smb: plus one short': 'error $.payload: need matching nonempty block sequences',
    'smb: plus one long': 'error $.payload: list index out of range',
    'smb: missing repeat_from': 'ok 577118f270e4',
    'smb: repeat_from as a number': 'ok 071933791596',
    'smb: repeat_from as a string': 'ok ca383ad4c006',
    'smb: missing sigma_minus': "error $.payload: missing field 'sigma_minus'",
    'smb: sigma_minus as a number': 'error $.payload.sigma_minus: alphabet must be an object',
    'smb: sigma_minus as a string': 'error $.payload.sigma_minus: alphabet must be an object',
    'smb: missing sigma_plus': "error $.payload: missing field 'sigma_plus'",
    'smb: sigma_plus as a number': 'error $.payload.sigma_plus: alphabet must be an object',
    'smb: sigma_plus as a string': 'error $.payload.sigma_plus: alphabet must be an object',
    "smb: level_sizes entry 'x'": "error $.payload: invalid literal for int() with base 10: 'x'",
    'smb: level_sizes entry 99': 'error $.payload.minus[0][0]: expected 99 columns',
    'smb: level_sizes entry 2.9': 'ok 577118f270e4',
    "smb: level_sizes entry '2'": 'ok 577118f270e4',
    'smb: repeat_from on a non-square last block (truncated)':
        'error $.payload: repeating block must be square',
    'smb: repeat_from on a non-square last block (last size + 1)':
        'error $.payload.minus[2][0]: expected 5 columns',
    'smb: repeat_from with no blocks': 'error $.payload: need matching nonempty block sequences',
    'smb: extension to depth 5 with repeat_from': 'ok 0b009c699e7e',
    'smb: extension to depth 5 without repeat_from': 'ok 577118f270e4',
    'smb: depth 2 with repeat_from': 'ok 2ea200f2e212',
    'smb: repeat_from as a string, depth 5': 'ok 160688b17298',
    'smb: block 2 a copy of block 1': 'error $.payload.minus[2]: expected 4 rows',
    'smb: block 3 a copy of block 1': 'error $.payload.minus[3]: expected 4 rows',
    "smb: minus cell ['zz']": 'error $.payload.minus[1][0][0]: symbol zz not in matrix alphabet',
    'smb: minus cell [7]':
        'error $.payload.minus[1][0][0]: symbol must be a string or list of strings',
    "smb: minus cell '1'": 'error $.payload.minus[1][0][0]: cell must be a list of terms',
    "smb: plus cell ['zz']": 'error $.payload.plus[1][0][0]: symbol zz not in matrix alphabet',
    'smb: plus cell [7]':
        'error $.payload.plus[1][0][0]: symbol must be a string or list of strings',
    "smb: plus cell '1'": 'error $.payload.plus[1][0][0]: cell must be a list of terms',
    'smb: sigma_minus without symbols':
        "error $.payload.sigma_minus: alphabet needs 'symbols' or 'product'",
    'smb: sigma_minus symbol 7':
        'error $.payload.sigma_minus.symbols[0]: symbol must be a string or list of strings',
    'smb: sigma_plus without symbols':
        "error $.payload.sigma_plus: alphabet needs 'symbols' or 'product'",
    'smb: sigma_plus symbol 7':
        'error $.payload.sigma_plus.symbols[0]: symbol must be a string or list of strings',
    'psse_witness: missing C': "error $.payload: missing field 'C'",
    'psse_witness: C as a number': 'error $.payload.C: alphabet must be an object',
    'psse_witness: C as a string': 'error $.payload.C: alphabet must be an object',
    'psse_witness: missing D': "error $.payload: missing field 'D'",
    'psse_witness: D as a number': 'error $.payload.D: alphabet must be an object',
    'psse_witness: D as a string': 'error $.payload.D: alphabet must be an object',
    'psse_witness: missing P': "error $.payload: missing field 'P'",
    'psse_witness: P as a number': "error $.payload: 'int' object is not iterable",
    'psse_witness: P as a string': 'error $.payload.P[0][0][0]: cell must be a list of terms',
    'psse_witness: P one short':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: P one long':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: missing Q': "error $.payload: missing field 'Q'",
    'psse_witness: Q as a number': "error $.payload: 'int' object is not iterable",
    'psse_witness: Q as a string': 'error $.payload.Q[0][0][0]: cell must be a list of terms',
    'psse_witness: Q one short':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: Q one long':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: missing X': "error $.payload: missing field 'X'",
    'psse_witness: X as a number': "error $.payload: 'int' object is not iterable",
    'psse_witness: X as a string': 'error $.payload.X[0][0][0]: cell must be a list of terms',
    'psse_witness: X one short':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: X one long':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: missing Y': "error $.payload: missing field 'Y'",
    'psse_witness: Y as a number': "error $.payload: 'int' object is not iterable",
    'psse_witness: Y as a string': 'error $.payload.Y[0][0][0]: cell must be a list of terms',
    'psse_witness: Y one short':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: Y one long':
        'error $.payload: P, Q, X and Y must have the same number of matrices',
    'psse_witness: missing phi_m': "error $.payload: missing field 'phi_m'",
    'psse_witness: phi_m as a number': "error $.payload.phi_m: 'int' object is not iterable",
    'psse_witness: phi_m as a string':
        'error $.payload.phi_m: not enough values to unpack (expected 2, got 1)',
    'psse_witness: phi_m one short': 'ok efceb690df45',
    'psse_witness: phi_m one long': 'ok 28b460bc11a4',
    'psse_witness: missing phi_n': "error $.payload: missing field 'phi_n'",
    'psse_witness: phi_n as a number': "error $.payload.phi_n: 'int' object is not iterable",
    'psse_witness: phi_n as a string':
        'error $.payload.phi_n: not enough values to unpack (expected 2, got 1)',
    'psse_witness: phi_n one short': 'ok bca5081d9a02',
    'psse_witness: phi_n one long': 'ok 28b460bc11a4',
    "psse_witness: P cell ['zz']": 'error $.payload.P[1][0][0]: symbol zz not in matrix alphabet',
    'psse_witness: P cell [7]':
        'error $.payload.P[1][0][0]: symbol must be a string or list of strings',
    "psse_witness: P cell '1'": 'error $.payload.P[1][0][0]: cell must be a list of terms',
    "psse_witness: Q cell ['zz']": 'error $.payload.Q[1][0][0]: symbol zz not in matrix alphabet',
    'psse_witness: Q cell [7]':
        'error $.payload.Q[1][0][0]: symbol must be a string or list of strings',
    "psse_witness: Q cell '1'": 'error $.payload.Q[1][0][0]: cell must be a list of terms',
    "psse_witness: X cell ['zz']": 'error $.payload.X[1][0][0]: symbol zz not in matrix alphabet',
    'psse_witness: X cell [7]':
        'error $.payload.X[1][0][0]: symbol must be a string or list of strings',
    "psse_witness: X cell '1'": 'error $.payload.X[1][0][0]: cell must be a list of terms',
    "psse_witness: Y cell ['zz']": 'error $.payload.Y[1][0][0]: symbol zz not in matrix alphabet',
    'psse_witness: Y cell [7]':
        'error $.payload.Y[1][0][0]: symbol must be a string or list of strings',
    "psse_witness: Y cell '1'": 'error $.payload.Y[1][0][0]: cell must be a list of terms',
    'psse_witness: C without symbols': "error $.payload.C: alphabet needs 'symbols' or 'product'",
    'psse_witness: C symbol 7':
        'error $.payload.C.symbols[0]: symbol must be a string or list of strings',
    'psse_witness: D without symbols': "error $.payload.D: alphabet needs 'symbols' or 'product'",
    'psse_witness: D symbol 7':
        'error $.payload.D.symbols[0]: symbol must be a string or list of strings',
    'psse_witness: phi_m source 7':
        'error $.payload.phi_m: $.payload.phi_m: symbol must be a string or list of strings',
    'psse_witness: phi_m pair of one item':
        'error $.payload.phi_m: not enough values to unpack (expected 2, got 1)',
    'psse_witness: phi_m one source twice': 'ok 28b460bc11a4',
    'psse_witness: phi_n source 7':
        'error $.payload.phi_n: $.payload.phi_n: symbol must be a string or list of strings',
    'psse_witness: phi_n pair of one item':
        'error $.payload.phi_n: not enough values to unpack (expected 2, got 1)',
    'psse_witness: phi_n one source twice': 'ok 28b460bc11a4',
    'sse_witness: missing C': "error $.payload: missing field 'C'",
    'sse_witness: C as a number': 'error $.payload.C: alphabet must be an object',
    'sse_witness: C as a string': 'error $.payload.C: alphabet must be an object',
    'sse_witness: missing D': "error $.payload: missing field 'D'",
    'sse_witness: D as a number': 'error $.payload.D: alphabet must be an object',
    'sse_witness: D as a string': 'error $.payload.D: alphabet must be an object',
    'sse_witness: missing H': "error $.payload: missing field 'H'",
    'sse_witness: H as a number': "error $.payload: 'int' object is not iterable",
    'sse_witness: H as a string': 'error $.payload.H[0][0][0]: cell must be a list of terms',
    'sse_witness: H one short': 'error $.payload: H and K must have the same number of matrices',
    'sse_witness: H one long': 'error $.payload: H and K must have the same number of matrices',
    'sse_witness: missing K': "error $.payload: missing field 'K'",
    'sse_witness: K as a number': "error $.payload: 'int' object is not iterable",
    'sse_witness: K as a string': 'error $.payload.K[0][0][0]: cell must be a list of terms',
    'sse_witness: K one short': 'error $.payload: H and K must have the same number of matrices',
    'sse_witness: K one long': 'error $.payload: H and K must have the same number of matrices',
    'sse_witness: missing phi1': "error $.payload: missing field 'phi1'",
    'sse_witness: phi1 as a number': "error $.payload.phi1: 'int' object is not iterable",
    'sse_witness: phi1 as a string':
        'error $.payload.phi1: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi1 one short': 'ok d2495d592377',
    'sse_witness: phi1 one long': 'ok b55534f57a21',
    'sse_witness: missing phi2': "error $.payload: missing field 'phi2'",
    'sse_witness: phi2 as a number': "error $.payload.phi2: 'int' object is not iterable",
    'sse_witness: phi2 as a string':
        'error $.payload.phi2: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi2 one short': 'ok 3afaca8660d7',
    'sse_witness: phi2 one long': 'ok b55534f57a21',
    'sse_witness: missing phi_c_minus': "error $.payload: missing field 'phi_c_minus'",
    'sse_witness: phi_c_minus as a number':
        "error $.payload.phi_c_minus: 'int' object is not iterable",
    'sse_witness: phi_c_minus as a string':
        'error $.payload.phi_c_minus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_c_minus one short': 'ok eb9932e51fd0',
    'sse_witness: phi_c_minus one long': 'ok b55534f57a21',
    'sse_witness: missing phi_c_plus': "error $.payload: missing field 'phi_c_plus'",
    'sse_witness: phi_c_plus as a number':
        "error $.payload.phi_c_plus: 'int' object is not iterable",
    'sse_witness: phi_c_plus as a string':
        'error $.payload.phi_c_plus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_c_plus one short': 'ok 7c0579c573c9',
    'sse_witness: phi_c_plus one long': 'ok b55534f57a21',
    'sse_witness: missing phi_d_minus': "error $.payload: missing field 'phi_d_minus'",
    'sse_witness: phi_d_minus as a number':
        "error $.payload.phi_d_minus: 'int' object is not iterable",
    'sse_witness: phi_d_minus as a string':
        'error $.payload.phi_d_minus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_d_minus one short': 'ok 8a1e3eb5ed5e',
    'sse_witness: phi_d_minus one long': 'ok b55534f57a21',
    'sse_witness: missing phi_d_plus': "error $.payload: missing field 'phi_d_plus'",
    'sse_witness: phi_d_plus as a number':
        "error $.payload.phi_d_plus: 'int' object is not iterable",
    'sse_witness: phi_d_plus as a string':
        'error $.payload.phi_d_plus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_d_plus one short': 'ok 87a8b90db04a',
    'sse_witness: phi_d_plus one long': 'ok b55534f57a21',
    "sse_witness: H cell ['zz']": 'error $.payload.H[1][0][0]: symbol zz not in matrix alphabet',
    'sse_witness: H cell [7]':
        'error $.payload.H[1][0][0]: symbol must be a string or list of strings',
    "sse_witness: H cell '1'": 'error $.payload.H[1][0][0]: cell must be a list of terms',
    "sse_witness: K cell ['zz']": 'error $.payload.K[1][0][0]: symbol zz not in matrix alphabet',
    'sse_witness: K cell [7]':
        'error $.payload.K[1][0][0]: symbol must be a string or list of strings',
    "sse_witness: K cell '1'": 'error $.payload.K[1][0][0]: cell must be a list of terms',
    'sse_witness: C without symbols': "error $.payload.C: alphabet needs 'symbols' or 'product'",
    'sse_witness: C symbol 7':
        'error $.payload.C.symbols[0]: symbol must be a string or list of strings',
    'sse_witness: D without symbols': "error $.payload.D: alphabet needs 'symbols' or 'product'",
    'sse_witness: D symbol 7':
        'error $.payload.D.symbols[0]: symbol must be a string or list of strings',
    'sse_witness: phi1 source 7':
        'error $.payload.phi1: $.payload.phi1: symbol must be a string or list of strings',
    'sse_witness: phi1 pair of one item':
        'error $.payload.phi1: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi1 one source twice': 'ok b55534f57a21',
    'sse_witness: phi2 source 7':
        'error $.payload.phi2: $.payload.phi2: symbol must be a string or list of strings',
    'sse_witness: phi2 pair of one item':
        'error $.payload.phi2: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi2 one source twice': 'ok b55534f57a21',
    'sse_witness: phi_c_plus source 7':
        'error $.payload.phi_c_plus: $.payload.phi_c_plus: symbol must be a string or list of strings',
    'sse_witness: phi_c_plus pair of one item':
        'error $.payload.phi_c_plus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_c_plus one source twice': 'ok b55534f57a21',
    'sse_witness: phi_d_plus source 7':
        'error $.payload.phi_d_plus: $.payload.phi_d_plus: symbol must be a string or list of strings',
    'sse_witness: phi_d_plus pair of one item':
        'error $.payload.phi_d_plus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_d_plus one source twice': 'ok b55534f57a21',
    'sse_witness: phi_c_minus source 7':
        'error $.payload.phi_c_minus: $.payload.phi_c_minus: symbol must be a string or list of strings',
    'sse_witness: phi_c_minus pair of one item':
        'error $.payload.phi_c_minus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_c_minus one source twice': 'ok b55534f57a21',
    'sse_witness: phi_d_minus source 7':
        'error $.payload.phi_d_minus: $.payload.phi_d_minus: symbol must be a string or list of strings',
    'sse_witness: phi_d_minus pair of one item':
        'error $.payload.phi_d_minus: not enough values to unpack (expected 2, got 1)',
    'sse_witness: phi_d_minus one source twice': 'ok b55534f57a21',
}

# the cases whose outcome the rebuilt readers change on purpose, with the new one
CHANGED = {
    'lambda_graph_system: edges as a string':
        'error $.payload.edges[0][0]: edge must be [src, tgt, label]',
    'lambda_graph_system: edges edge of two items':
        'error $.payload.edges[1][2]: edge must be [src, tgt, label]',
    'lambda_graph_system: edges edge of four items':
        'error $.payload.edges[1][2]: edge must be [src, tgt, label]',
    'lambda_graph_system: edges edge as a number':
        "error $.payload: object of type 'int' has no len()",
    'lambda_graph_system: edges bad source then bad label':
        'error $.payload.edges[1][1][0]: edge end must be an integer',
    'lambda_graph_system: edges bad source and bad label on one edge':
        'error $.payload.edges[1][2][0]: edge end must be an integer',
    'smb: level_sizes one short':
        'error $.payload.level_sizes: expected 4 entries (one more than the minus blocks), got 3',
    'smb: level_sizes one long':
        'error $.payload.level_sizes: expected 4 entries (one more than the minus blocks), got 5',
    'smb: minus as a number': "error $.payload: object of type 'int' has no len()",
    'smb: minus as a string':
        'error $.payload.level_sizes: expected 2 entries (one more than the minus blocks), got 4',
    'smb: minus one short':
        'error $.payload.level_sizes: expected 3 entries (one more than the minus blocks), got 4',
    'smb: minus one long':
        'error $.payload.level_sizes: expected 5 entries (one more than the minus blocks), got 4',
    'smb: plus as a number': "error $.payload: object of type 'int' has no len()",
    'smb: plus as a string':
        'error $.payload.level_sizes: expected 2 entries (one more than the plus blocks), got 4',
    'smb: plus one short':
        'error $.payload.level_sizes: expected 3 entries (one more than the plus blocks), got 4',
    'smb: plus one long':
        'error $.payload.level_sizes: expected 5 entries (one more than the plus blocks), got 4',
    'psse_witness: phi_m source 7':
        'error $.payload.phi_m: symbol must be a string or list of strings',
    'psse_witness: phi_n source 7':
        'error $.payload.phi_n: symbol must be a string or list of strings',
    'sse_witness: phi1 source 7':
        'error $.payload.phi1: symbol must be a string or list of strings',
    'sse_witness: phi2 source 7':
        'error $.payload.phi2: symbol must be a string or list of strings',
    'sse_witness: phi_c_plus source 7':
        'error $.payload.phi_c_plus: symbol must be a string or list of strings',
    'sse_witness: phi_d_plus source 7':
        'error $.payload.phi_d_plus: symbol must be a string or list of strings',
    'sse_witness: phi_c_minus source 7':
        'error $.payload.phi_c_minus: symbol must be a string or list of strings',
    'sse_witness: phi_d_minus source 7':
        'error $.payload.phi_d_minus: symbol must be a string or list of strings',
    # a list field given as a string or a number, and a repeat_from marker that
    # is neither null nor an integer, are rejected at the field
    'subshift sft: matrix as a number': 'error $.payload.matrix: matrix must be a list',
    'subshift sft: matrix as a string': 'error $.payload.matrix: matrix must be a list',
    'subshift sft: symbols as a number': 'error $.payload.symbols: symbols must be a list',
    'subshift sft: symbols as a string': 'error $.payload.symbols: symbols must be a list',
    'subshift sofic: edges as a number': 'error $.payload.edges: edges must be a list',
    'subshift sofic: edges as a string': 'error $.payload.edges: edges must be a list',
    'subshift sofic: states as a number': 'error $.payload.states: states must be a list',
    'subshift sofic: states as a string': 'error $.payload.states: states must be a list',
    'bisystem: repeat_from as a string':
        'error $.payload.repeat_from: repeat_from must be null or an integer',
    'bisystem: repeat_from as a string, depth 5':
        'error $.payload.repeat_from: repeat_from must be null or an integer',
    'lambda_graph_system: alphabet as a number':
        'error $.payload.alphabet: alphabet must be a list',
    'lambda_graph_system: alphabet as a string':
        'error $.payload.alphabet: alphabet must be a list',
    'lambda_graph_system: repeat_from as a string':
        'error $.payload.repeat_from: repeat_from must be null or an integer',
    'lambda_graph_system: repeat_from as a string, depth 5':
        'error $.payload.repeat_from: repeat_from must be null or an integer',
    'smb: repeat_from as a string':
        'error $.payload.repeat_from: repeat_from must be null or an integer',
    'smb: repeat_from as a string, depth 5':
        'error $.payload.repeat_from: repeat_from must be null or an integer',
    # a subshift's states, symbols and edge labels must be strings: the
    # canonical build sorts them
    'subshift sft: symbol 7': 'error $.payload.symbols[0]: symbol must be a string',
    'subshift sofic: edge label 1':
        'error $.payload.edges[0]: edge must be [state, state, label] strings',
    'subshift sofic: edge label True':
        'error $.payload.edges[0]: edge must be [state, state, label] strings',
    "subshift sofic: edge label ['a']":
        'error $.payload.edges[0]: edge must be [state, state, label] strings',
    "subshift sofic: edge label {'x': 1}":
        'error $.payload.edges[0]: edge must be [state, state, label] strings',
    'subshift sofic: edge source 1':
        'error $.payload.edges[0]: edge must be [state, state, label] strings',
    'subshift sofic: edge of two items':
        'error $.payload.edges[0]: edge must be [state, state, label] strings',
    'subshift sofic: state 1': 'error $.payload.states[0]: state must be a string',
    # sizes, edge ends, iota entries and sft matrix entries must be JSON
    # integers; int() read a string, float or bool as one
    'subshift sft: matrix entry True':
        'error $.payload.matrix[0][0]: matrix entry must be an integer',
    'subshift sft: matrix entry 1.0':
        'error $.payload.matrix[0][0]: matrix entry must be an integer',
    'bisystem: level_sizes as a string':
        'error $.payload.level_sizes[0]: level size must be an integer',
    "bisystem: level_sizes entry 'x'":
        'error $.payload.level_sizes[1]: level size must be an integer',
    'bisystem: level_sizes entry 2.9':
        'error $.payload.level_sizes[1]: level size must be an integer',
    "bisystem: level_sizes entry '2'":
        'error $.payload.level_sizes[1]: level size must be an integer',
    "bisystem: minus_edges source 'x'":
        'error $.payload.minus_edges[1][2][0]: edge end must be an integer',
    'bisystem: minus_edges source 1.7':
        'error $.payload.minus_edges[1][2][0]: edge end must be an integer',
    'bisystem: minus_edges source True':
        'error $.payload.minus_edges[1][2][0]: edge end must be an integer',
    "bisystem: minus_edges source ' 1'":
        'error $.payload.minus_edges[1][2][0]: edge end must be an integer',
    'bisystem: minus_edges target 1.0':
        'error $.payload.minus_edges[1][2][1]: edge end must be an integer',
    'bisystem: minus_edges bad source then bad label':
        'error $.payload.minus_edges[1][1][0]: edge end must be an integer',
    'bisystem: minus_edges bad source and bad label on one edge':
        'error $.payload.minus_edges[1][2][0]: edge end must be an integer',
    'bisystem: minus_edges block 2 a copy of block 1 with each end 1 as true':
        'error $.payload.minus_edges[2][0][0]: edge end must be an integer',
    "bisystem: plus_edges source 'x'":
        'error $.payload.plus_edges[1][2][0]: edge end must be an integer',
    'bisystem: plus_edges source 1.7':
        'error $.payload.plus_edges[1][2][0]: edge end must be an integer',
    'bisystem: plus_edges source True':
        'error $.payload.plus_edges[1][2][0]: edge end must be an integer',
    "bisystem: plus_edges source ' 1'":
        'error $.payload.plus_edges[1][2][0]: edge end must be an integer',
    'bisystem: plus_edges target 1.0':
        'error $.payload.plus_edges[1][2][1]: edge end must be an integer',
    'bisystem: plus_edges bad source then bad label':
        'error $.payload.plus_edges[1][1][0]: edge end must be an integer',
    'bisystem: plus_edges bad source and bad label on one edge':
        'error $.payload.plus_edges[1][2][0]: edge end must be an integer',
    'bisystem: plus_edges block 2 a copy of block 1 with each end 1 as true':
        'error $.payload.plus_edges[2][0][0]: edge end must be an integer',
    'lambda_graph_system: iota as a string':
        'error $.payload.iota[0][0]: iota entry must be an integer',
    'lambda_graph_system: level_sizes as a string':
        'error $.payload.level_sizes[0]: level size must be an integer',
    "lambda_graph_system: level_sizes entry 'x'":
        'error $.payload.level_sizes[1]: level size must be an integer',
    'lambda_graph_system: level_sizes entry 2.9':
        'error $.payload.level_sizes[1]: level size must be an integer',
    "lambda_graph_system: level_sizes entry '2'":
        'error $.payload.level_sizes[1]: level size must be an integer',
    "lambda_graph_system: edges source 'x'":
        'error $.payload.edges[1][2][0]: edge end must be an integer',
    'lambda_graph_system: edges source 1.7':
        'error $.payload.edges[1][2][0]: edge end must be an integer',
    'lambda_graph_system: edges source True':
        'error $.payload.edges[1][2][0]: edge end must be an integer',
    "lambda_graph_system: edges source ' 1'":
        'error $.payload.edges[1][2][0]: edge end must be an integer',
    'lambda_graph_system: edges target 1.0':
        'error $.payload.edges[1][2][1]: edge end must be an integer',
    'lambda_graph_system: edges block 2 a copy of block 1 with each end 1 as true':
        'error $.payload.edges[2][0][0]: edge end must be an integer',
    "lambda_graph_system: iota entry 'x'":
        'error $.payload.iota[1][0]: iota entry must be an integer',
    'lambda_graph_system: iota entry True':
        'error $.payload.iota[1][0]: iota entry must be an integer',
    'lambda_graph_system: iota entry 1.5':
        'error $.payload.iota[1][0]: iota entry must be an integer',
    'smb: level_sizes as a string': 'error $.payload.level_sizes[0]: level size must be an integer',
    "smb: level_sizes entry 'x'": 'error $.payload.level_sizes[1]: level size must be an integer',
    'smb: level_sizes entry 2.9': 'error $.payload.level_sizes[1]: level size must be an integer',
    "smb: level_sizes entry '2'": 'error $.payload.level_sizes[1]: level size must be an integer',
    # an integer repeat_from must name a stored block from which every stored
    # block equals the last; the readers used only whether it was null
    'bisystem: repeat_from as a number':
        'error $.payload.repeat_from: repeat_from 7 is not one of the 3 stored blocks',
    'bisystem: repeat_from with no blocks':
        'error $.payload.repeat_from: repeat_from 0 is not one of the 0 stored blocks',
    'lambda_graph_system: repeat_from as a number':
        'error $.payload.repeat_from: repeat_from 7 is not one of the 3 stored blocks',
    'lambda_graph_system: repeat_from with no blocks':
        'error $.payload.repeat_from: repeat_from 0 is not one of the 0 stored blocks',
    'smb: repeat_from as a number':
        'error $.payload.repeat_from: repeat_from 7 is not one of the 3 stored blocks',
    'smb: repeat_from with no blocks':
        'error $.payload.repeat_from: repeat_from 0 is not one of the 0 stored blocks',
}


def test_each_fault_has_the_parent_outcome_or_its_listed_change():
    names = []
    wrong = []
    for name, kind, payload, depth in cases():
        names.append(name)
        got = outcome(kind, payload, depth)
        if got != CHANGED.get(name, PARENT[name]):
            wrong.append((name, got))
    assert wrong == []
    assert names == list(PARENT)
    assert all(CHANGED[name] != PARENT[name] for name in CHANGED)
