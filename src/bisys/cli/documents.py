"""One JSON document format for every object kind the tool reads or writes.

Envelope: {"schema_version": 1, "kind": ..., "name": ..., "payload": {...}}.
Vertex indices are 1-based in files, 0-based in memory.  Labels and symbols
are strings, or lists of strings for product symbols.  Leveled payloads may
carry a ``repeat_from`` marker: the last explicit block repeats to any
requested depth.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from ..core import Alphabet, FormalSum, Specification, SymbolicMatrix, word_str
from ..bisystem import LambdaGraphBisystem, LambdaGraphSystem
from ..smb import SymbolicMatrixBisystem
from ..subshift import LabeledGraph, SftMatrix, SubshiftPresentation
from ..equivalence import PsseWitness, SseWitness

SCHEMA_VERSION = 1

KINDS = (
    "subshift",
    "bisystem",
    "lambda_graph_system",
    "smb",
    "psse_witness",
    "sse_witness",
)


class DocumentError(ValueError):
    def __init__(self, message, location="$"):
        super().__init__(f"{location}: {message}")
        self.location = location


def _word(x, loc):
    if isinstance(x, str):
        return (x,)
    if isinstance(x, list) and all(isinstance(s, str) for s in x):
        return tuple(x)
    raise DocumentError("symbol must be a string or list of strings", loc)


def _word_out(w):
    return w[0] if len(w) == 1 else list(w)


def _alphabet(node, loc):
    if not isinstance(node, dict):
        raise DocumentError("alphabet must be an object", loc)
    if "product" in node:
        left = _alphabet(node["product"][0], loc + ".product[0]")
        right = _alphabet(node["product"][1], loc + ".product[1]")
        return Alphabet.product(left, right)
    if "symbols" not in node:
        raise DocumentError("alphabet needs 'symbols' or 'product'", loc)
    return Alphabet.from_words(
        _word(s, f"{loc}.symbols[{i}]") for i, s in enumerate(node["symbols"])
    )


def _alphabet_out(a: Alphabet):
    if a.factors is not None:
        return {"product": [_alphabet_out(a.factors[0]), _alphabet_out(a.factors[1])]}
    return {"symbols": [_word_out(s) for s in a.symbols]}


def _matrix(node, rows, cols, alphabet, loc):
    if len(node) != rows:
        raise DocumentError(f"expected {rows} rows", loc)
    zero = FormalSum.zero()
    allowed = set(alphabet.symbols)
    grid = []
    for i, row in enumerate(node):
        if len(row) != cols:
            raise DocumentError(f"expected {cols} columns", f"{loc}[{i}]")
        out = []
        for j, cell in enumerate(row):
            if not isinstance(cell, list):
                raise DocumentError("cell must be a list of terms", f"{loc}[{i}][{j}]")
            if not cell:
                out.append(zero)
                continue
            counts = {}
            for t in cell:
                w = (t,) if isinstance(t, str) else _word(t, f"{loc}[{i}][{j}]")
                counts[w] = counts.get(w, 0) + 1
            for w in counts:
                if w not in allowed:
                    raise DocumentError(
                        f"symbol {word_str(w)} not in matrix alphabet", f"{loc}[{i}][{j}]"
                    )
            out.append(FormalSum._trusted(counts))
        grid.append(tuple(out))
    return SymbolicMatrix(rows, cols, tuple(grid), alphabet)


def _spec(node, loc, source=None, target=None):
    try:
        return Specification.from_dict(
            {_word(a, loc): _word(b, loc) for a, b in node}, source, target
        )
    except Exception as e:
        raise DocumentError(str(e), loc)


def _matrices(p, key, alphabet):
    """The list of matrices under ``key``, each shaped as it is written."""
    return tuple(
        _matrix(node, len(node), len(node[0]) if node else 0, alphabet,
                f"$.payload.{key}[{idx}]")
        for idx, node in enumerate(p[key])
    )


def _spec_out(s: Specification):
    return [[_word_out(a), _word_out(b)] for a, b in s.pairs]


def parse_document(text: str, depth: int | None = None):
    """(kind, name, object) from JSON text; leveled kinds honor ``depth``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e.msg}", f"line {e.lineno} col {e.colno}")
    if not isinstance(doc, dict):
        raise DocumentError("document must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError("missing or unsupported schema_version", "$.schema_version")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}", "$.kind")
    name = doc.get("name", "")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DocumentError("missing payload", "$.payload")
    parser = {
        "subshift": _parse_subshift,
        "bisystem": _parse_bisystem,
        "lambda_graph_system": _parse_lgs,
        "smb": _parse_smb,
        "psse_witness": _parse_psse,
        "sse_witness": _parse_sse,
    }[kind]
    try:
        return kind, name, parser(payload, depth)
    except DocumentError:
        raise
    except KeyError as e:
        raise DocumentError(f"missing field {e}", "$.payload")
    except Exception as e:
        raise DocumentError(str(e), "$.payload")


def load_document(path, depth: int | None = None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read(), depth)


def dump_document(kind: str, name: str, obj) -> str:
    payload = {
        "subshift": _emit_subshift,
        "bisystem": _emit_bisystem,
        "lambda_graph_system": _emit_lgs,
        "smb": _emit_smb,
        "psse_witness": _emit_psse,
        "sse_witness": _emit_sse,
    }[kind](obj)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "payload": payload,
    }
    return _write(doc)


# -- writer -------------------------------------------------------------------


class _Newlines(dict):
    """newline[d]: a newline and the indent of depth d, made on first use."""

    def __missing__(self, depth):
        text = self[depth] = "\n" + "  " * depth
        return text


def _write(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    A SymbolicMatrix in the tree is written where it stands, as its grid of
    term lists: each cell's words in sorted order, each repeated by its
    multiplicity, and a product symbol as a list of strings.
    """
    out = []
    emit = out.append
    escaped = {}
    newline = _Newlines()

    def string(s):
        text = escaped.get(s)
        if text is None:
            text = escaped[s] = encode_basestring_ascii(s)
        return text

    def word(w, depth):
        """A symbol: a string, or a list of strings for a product symbol."""
        if len(w) == 1:
            return string(w[0])
        if not w:
            return "[]"
        inner = newline[depth + 1]
        return "[" + inner + ("," + inner).join(map(string, w)) + newline[depth] + "]"

    def matrix(m, depth):
        texts = {}  # word -> its text at the depth of a term
        row_nl, cell_nl, term_nl = newline[depth + 1], newline[depth + 2], newline[depth + 3]
        row_first, cell_first, term_first = "[" + row_nl, "[" + cell_nl, "[" + term_nl
        row_next, cell_next, term_next = "," + row_nl, "," + cell_nl, "," + term_nl
        row_close, cell_close = row_nl + "]", cell_nl + "]"
        row_sep = row_first
        for row in m.entries:
            emit(row_sep)
            row_sep = row_next
            cell_sep = cell_first
            for cell in row:
                emit(cell_sep)
                cell_sep = cell_next
                terms = cell._terms
                if not terms:
                    emit("[]")
                    continue
                term_sep = term_first
                for w in sorted(terms):
                    text = texts.get(w)
                    if text is None:
                        text = texts[w] = word(w, depth + 3)
                    for _ in range(terms[w]):
                        emit(term_sep)
                        emit(text)
                        term_sep = term_next
                emit(cell_close)
            emit("[]" if cell_sep is cell_first else row_close)
        emit("[]" if row_sep is row_first else newline[depth] + "]")

    def value(x, depth):
        if isinstance(x, str):
            emit(string(x))
        elif x is None:
            emit("null")
        elif x is True:
            emit("true")
        elif x is False:
            emit("false")
        elif isinstance(x, int):
            emit(int.__repr__(x))
        elif isinstance(x, SymbolicMatrix):
            matrix(x, depth)
        elif isinstance(x, dict):
            first = sep = "{" + newline[depth + 1]
            next_sep = "," + newline[depth + 1]
            for key in sorted(x):
                emit(sep)
                sep = next_sep
                emit(string(key))
                emit(": ")
                value(x[key], depth + 1)
            emit("{}" if sep is first else newline[depth] + "}")
        elif isinstance(x, (list, tuple)):
            first = sep = "[" + newline[depth + 1]
            next_sep = "," + newline[depth + 1]
            for item in x:
                emit(sep)
                sep = next_sep
                if type(item) is str:  # the common leaves, without a call
                    emit(escaped.get(item) or string(item))
                elif type(item) is int:
                    emit(int.__repr__(item))
                else:
                    value(item, depth + 1)
            emit("[]" if sep is first else newline[depth] + "]")
        else:
            emit(json.dumps(x))

    value(doc, 0)
    emit("\n")
    return "".join(out)


def save_document(path, kind, name, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(kind, name, obj))


# -- subshift ---------------------------------------------------------------


def _parse_subshift(p, depth):
    variant = p.get("variant")
    loc = "$.payload"
    if variant == "sft":
        m = SftMatrix(
            tuple(tuple(int(v) for v in row) for row in p["matrix"]),
            tuple(p["symbols"]),
        )
        return SubshiftPresentation.from_sft(m)
    if variant == "sofic":
        g = LabeledGraph(
            tuple(p["states"]), tuple((s, t, a) for (s, t, a) in p["edges"])
        )
        return SubshiftPresentation.from_graph(g)
    if variant == "forbidden":
        return SubshiftPresentation.from_forbidden(
            tuple(p["symbols"]), tuple(tuple(w) for w in p["words"])
        )
    raise DocumentError(f"unknown variant {variant!r}", loc + ".variant")


def _emit_subshift(pres: SubshiftPresentation):
    if pres.kind == "sofic":
        g = pres.sofic
        return {
            "variant": "sofic",
            "states": list(g.states),
            "edges": sorted([s, t, a] for (s, t, a) in g.edges),
        }
    m = pres.sft
    return {
        "variant": "sft",
        "symbols": list(m.symbols),
        "matrix": [list(row) for row in m.entries],
    }


# -- bisystem ---------------------------------------------------------------


def _edge_blocks(node, loc):
    blocks = []
    for l, block in enumerate(node):
        out = []
        for k, e in enumerate(block):
            if len(e) != 3:
                raise DocumentError("edge must be [src, tgt, label]", f"{loc}[{l}][{k}]")
            s, t, a = e
            out.append((int(s) - 1, int(t) - 1, _word(a, f"{loc}[{l}][{k}]")))
        blocks.append(tuple(sorted(out)))
    return blocks


def _parse_bisystem(p, depth):
    loc = "$.payload"
    sizes = [int(x) for x in p["level_sizes"]]
    minus = _edge_blocks(p["minus_edges"], loc + ".minus_edges")
    plus = _edge_blocks(p["plus_edges"], loc + ".plus_edges")
    repeat = p.get("repeat_from")
    if depth is not None and depth > len(minus) and repeat is not None:
        if sizes[-1] != sizes[-2]:
            raise DocumentError("repeating block must be square", loc)
        while len(minus) < depth:
            minus.append(minus[-1])
            plus.append(plus[-1])
            sizes.append(sizes[-1])
    sm = _alphabet(p["sigma_minus"], loc + ".sigma_minus")
    sp = _alphabet(p["sigma_plus"], loc + ".sigma_plus")
    return LambdaGraphBisystem(tuple(sizes), tuple(minus), tuple(plus), sm, sp)


def _emit_bisystem(b: LambdaGraphBisystem):
    return {
        "depth": b.depth,
        "level_sizes": list(b.level_sizes),
        "sigma_minus": _alphabet_out(b.sigma_minus),
        "sigma_plus": _alphabet_out(b.sigma_plus),
        "minus_edges": [
            sorted([s + 1, t + 1, _word_out(a)] for (s, t, a) in block)
            for block in b.minus_edges
        ],
        "plus_edges": [
            sorted([s + 1, t + 1, _word_out(a)] for (s, t, a) in block)
            for block in b.plus_edges
        ],
        "repeat_from": None,
    }


# -- lambda graph system ----------------------------------------------------


def _parse_lgs(p, depth):
    loc = "$.payload"
    sizes = [int(x) for x in p["level_sizes"]]
    edges = []
    for l, block in enumerate(p["edges"]):
        for k, (_, _, a) in enumerate(block):
            if not isinstance(a, str):
                raise DocumentError("label must be a string", f"{loc}.edges[{l}][{k}]")
        edges.append(tuple(sorted((int(s) - 1, int(t) - 1, a) for (s, t, a) in block)))
    iota = [tuple(int(v) - 1 for v in block) for block in p["iota"]]
    repeat = p.get("repeat_from")
    if depth is not None and depth > len(edges) and repeat is not None:
        if sizes[-1] != sizes[-2]:
            raise DocumentError("repeating block must be square", loc)
        while len(edges) < depth:
            edges.append(edges[-1])
            iota.append(iota[-1])
            sizes.append(sizes[-1])
    for i, a in enumerate(p["alphabet"]):
        if not isinstance(a, str):
            raise DocumentError("symbol must be a string", f"{loc}.alphabet[{i}]")
    alphabet = Alphabet.of(*p["alphabet"])
    return LambdaGraphSystem(tuple(sizes), tuple(edges), tuple(iota), alphabet)


def _emit_lgs(lgs: LambdaGraphSystem):
    return {
        "depth": lgs.depth,
        "level_sizes": list(lgs.level_sizes),
        "alphabet": [s[0] for s in lgs.alphabet.symbols],
        "edges": [
            sorted([s + 1, t + 1, a] for (s, t, a) in block) for block in lgs.edges
        ],
        "iota": [[v + 1 for v in block] for block in lgs.iota],
        "repeat_from": None,
    }


# -- smb ---------------------------------------------------------------------


def _parse_smb(p, depth):
    loc = "$.payload"
    sizes = [int(x) for x in p["level_sizes"]]
    sm = _alphabet(p["sigma_minus"], loc + ".sigma_minus")
    sp = _alphabet(p["sigma_plus"], loc + ".sigma_plus")
    minus = [
        _matrix(block, sizes[l], sizes[l + 1], sm, f"{loc}.minus[{l}]")
        for l, block in enumerate(p["minus"])
    ]
    plus = [
        _matrix(block, sizes[l], sizes[l + 1], sp, f"{loc}.plus[{l}]")
        for l, block in enumerate(p["plus"])
    ]
    repeat = p.get("repeat_from")
    s = SymbolicMatrixBisystem(
        tuple(minus), tuple(plus), sm, sp, repeat
    )
    if depth is not None and depth > s.depth and repeat is not None:
        s = s.extended(depth)
    return s


def _emit_smb(s: SymbolicMatrixBisystem):
    return {
        "depth": s.depth,
        "level_sizes": list(s.level_sizes),
        "sigma_minus": _alphabet_out(s.sigma_minus),
        "sigma_plus": _alphabet_out(s.sigma_plus),
        "minus": s.minus,
        "plus": s.plus,
        "repeat_from": s.repeat_from,
    }


# -- witnesses ----------------------------------------------------------------


def _parse_psse(p, depth):
    loc = "$.payload"
    c = _alphabet(p["C"], loc + ".C")
    d = _alphabet(p["D"], loc + ".D")
    phi_m = _spec(p["phi_m"], loc + ".phi_m")
    phi_n = _spec(p["phi_n"], loc + ".phi_n")
    return PsseWitness(
        c, d, phi_m, phi_n,
        _matrices(p, "P", c), _matrices(p, "Q", d), _matrices(p, "X", d), _matrices(p, "Y", c),
    )


def _emit_psse(w: PsseWitness):
    return {
        "C": _alphabet_out(w.alphabet_c),
        "D": _alphabet_out(w.alphabet_d),
        "phi_m": _spec_out(w.phi_m),
        "phi_n": _spec_out(w.phi_n),
        "P": w.p_mats,
        "Q": w.q_mats,
        "X": w.x_mats,
        "Y": w.y_mats,
    }


def _parse_sse(p, depth):
    loc = "$.payload"
    c = _alphabet(p["C"], loc + ".C")
    d = _alphabet(p["D"], loc + ".D")

    return SseWitness(
        c,
        d,
        _spec(p["phi1"], loc + ".phi1"),
        _spec(p["phi2"], loc + ".phi2"),
        _spec(p["phi_c_plus"], loc + ".phi_c_plus"),
        _spec(p["phi_d_plus"], loc + ".phi_d_plus"),
        _spec(p["phi_c_minus"], loc + ".phi_c_minus"),
        _spec(p["phi_d_minus"], loc + ".phi_d_minus"),
        _matrices(p, "H", c),
        _matrices(p, "K", d),
    )


def _emit_sse(w: SseWitness):
    return {
        "C": _alphabet_out(w.alphabet_c),
        "D": _alphabet_out(w.alphabet_d),
        "phi1": _spec_out(w.phi1),
        "phi2": _spec_out(w.phi2),
        "phi_c_plus": _spec_out(w.phi_c_plus),
        "phi_d_plus": _spec_out(w.phi_d_plus),
        "phi_c_minus": _spec_out(w.phi_c_minus),
        "phi_d_minus": _spec_out(w.phi_d_minus),
        "H": w.h_mats,
        "K": w.k_mats,
    }
