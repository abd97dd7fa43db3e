"""One JSON document format for every object kind the tool reads or writes.

Envelope: {"schema_version": 1, "kind": ..., "name": ..., "payload": {...}}.
Vertex indices are 1-based in files, 0-based in memory.  Labels and symbols
are strings, or lists of strings for product symbols.  Leveled payloads may
carry a ``repeat_from`` marker: the last explicit block repeats to any
requested depth.  ``KINDS`` maps each kind to its payload reader and
writer.  The witness kinds name their classes in ``bisys.equivalence``,
which the reader looks up as it reads a witness document: that layer runs
on the first witness read, and not on importing this module.
"""

from __future__ import annotations

import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii

from ..core import (
    Alphabet, FormalSum, Specification, SymbolicMatrix, by_identity, repeat_fault, share, word_str,
)
from ..bisystem import LambdaGraphBisystem, LambdaGraphSystem
from ..smb import SymbolicMatrixBisystem
from ..subshift import LabeledGraph, SftMatrix, SubshiftPresentation
from .. import equivalence  # runs on the first witness document read

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    def __init__(self, message, location="$"):
        super().__init__(f"{location}: {message}")
        self.location = location


def _at(loc, index):
    """``loc`` followed by ``[i]`` for each i of ``index``.  Readers pass the
    indices and make the location only for an error."""
    return loc + "".join(f"[{i}]" for i in index)


def _word(x, loc, *index):
    if isinstance(x, str):
        return (x,)
    if isinstance(x, list) and all(isinstance(s, str) for s in x):
        return tuple(x)
    raise DocumentError("symbol must be a string or list of strings", _at(loc, index))


def _int(x, what, loc, *index):
    """``x``, which must be a JSON integer: not a bool, float or string."""
    if type(x) is not int:
        raise DocumentError(f"{what} must be an integer", _at(loc, index))
    return x


def _list(node, key, loc):
    """``node[key]``, which must be a list; ``loc`` locates ``node``."""
    value = node[key]
    if not isinstance(value, list):
        raise DocumentError(f"{key} must be a list", f"{loc}.{key}")
    return value


def _strings(node, key, loc, what):
    """``node[key]`` as a tuple; it must be a list of strings, each called
    ``what`` in an error."""
    items = _list(node, key, loc)
    for k, x in enumerate(items):
        if not isinstance(x, str):
            raise DocumentError(f"{what} must be a string", f"{loc}.{key}[{k}]")
    return tuple(items)


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
        _word(s, f"{loc}.symbols[{i}]") for i, s in enumerate(_list(node, "symbols", loc))
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
                w = (t,) if isinstance(t, str) else _word(t, loc, i, j)
                counts[w] = counts.get(w, 0) + 1
            for w in counts:
                if w not in allowed:
                    raise DocumentError(
                        f"symbol {word_str(w)} not in matrix alphabet", f"{loc}[{i}][{j}]"
                    )
            out.append(FormalSum._trusted(counts))
        grid.append(tuple(out))
    return SymbolicMatrix(rows, cols, tuple(grid), alphabet)


def _spec(node, loc):
    try:
        return Specification.from_dict({_word(a, loc): _word(b, loc) for a, b in node})
    except DocumentError:
        raise
    except Exception as e:
        raise DocumentError(str(e), loc)


def _matrices(p, key, alphabet):
    """The list of matrices under ``key``, each shaped as it is written."""
    nodes = p[key]

    def read(n):
        shape = (len(nodes[n]), len(nodes[n][0]) if nodes[n] else 0)
        return _matrix(nodes[n], *shape, alphabet, f"$.payload.{key}[{n}]")

    return tuple(share(nodes, read))


def _spec_out(s: Specification):
    return [[_word_out(a), _word_out(b)] for a, b in s.pairs]


def parse_document(text: str, depth: int | None = None):
    """(kind, name, object) from JSON text; leveled kinds honor ``depth``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"invalid JSON: {e.msg}", f"line {e.lineno} col {e.colno}")
    except RecursionError:
        raise DocumentError("JSON nested too deeply")
    if not isinstance(doc, dict):
        raise DocumentError("document must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError("missing or unsupported schema_version", "$.schema_version")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}", "$.kind")
    name = doc.get("name", "")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name must be a string", "$.name")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise DocumentError("missing payload", "$.payload")
    try:
        return kind, name, KINDS[kind][0](payload, depth)
    except DocumentError:
        raise
    except KeyError as e:
        raise DocumentError(f"missing field {e}", "$.payload")
    except Exception as e:
        raise DocumentError(str(e), "$.payload")


def load_document(path, depth: int | None = None):
    """``parse_document`` of the file at ``path``, which must be UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise DocumentError(f"not UTF-8 text: {e.reason} at byte {e.start}")
    return parse_document(text, depth)


def dump_document(kind: str, name: str, obj) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "payload": KINDS[kind][1](obj),
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
    multiplicity, and a product symbol as a list of strings.  An edge block
    made by ``_edges_out`` is written as its rows.  A matrix or edge block
    object that stands at one depth more than once is written once, and its
    text emitted again.
    """
    out = []
    emit = out.append
    escaped = {}
    newline = _Newlines()
    written = {}  # (id, depth) of a block -> (the block, where its text is in out)

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

    def block(x, depth, write):
        """A matrix or an edge block: written once per depth, then copied."""
        got = written.get((id(x), depth))
        if got is not None:
            out.extend(out[got[1]:got[2]])
            return
        start = len(out)
        write(x, depth)
        written[id(x), depth] = (x, start, len(out))

    def edges(rows, depth):
        row_nl, item_nl = newline[depth + 1], newline[depth + 2]
        sep = first = "[" + row_nl + "[" + item_nl
        next_sep, item_sep, close = "," + row_nl + "[" + item_nl, "," + item_nl, row_nl + "]"
        for s, t, a in rows:
            label = string(a) if type(a) is str else word(a, depth + 2)
            emit(f"{sep}{s}{item_sep}{t}{item_sep}{label}{close}")
            sep = next_sep
        emit("[]" if sep is first else newline[depth] + "]")

    def grid(m, depth):
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
            block(x, depth, grid)
        elif type(x) is _EdgeRows:
            block(x, depth, edges)
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
            tuple(
                tuple(_int(v, "matrix entry", loc + ".matrix", i, j) for j, v in enumerate(row))
                for i, row in enumerate(_list(p, "matrix", loc))
            ),
            _strings(p, "symbols", loc, "symbol"),
        )
        return SubshiftPresentation.from_sft(m)
    if variant == "sofic":
        states = _strings(p, "states", loc, "state")
        edges = _list(p, "edges", loc)
        for k, e in enumerate(edges):
            if not (isinstance(e, list) and len(e) == 3 and all(isinstance(x, str) for x in e)):
                raise DocumentError("edge must be [state, state, label] strings",
                                    f"{loc}.edges[{k}]")
        g = LabeledGraph(states, tuple(map(tuple, edges)))
        return SubshiftPresentation.from_graph(g)
    if variant == "forbidden":
        symbols = _strings(p, "symbols", loc, "symbol")
        words = _list(p, "words", loc)
        for k, w in enumerate(words):
            if not (isinstance(w, list) and all(isinstance(x, str) and x in symbols for x in w)):
                raise DocumentError("forbidden word must be a list of strings from symbols",
                                    f"{loc}.words[{k}]")
            if len(w) < 2:
                raise DocumentError("forbidden word must have length >= 2", f"{loc}.words[{k}]")
        return SubshiftPresentation.from_forbidden(symbols, tuple(map(tuple, words)))
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


# -- leveled kinds: bisystem, lambda graph system, smb ------------------------


def _repeat_from(p, depth, sizes, *families):
    """Extend the level sizes and block families read from ``p`` in place to
    ``depth`` blocks, when ``p`` carries a ``repeat_from`` marker: the last
    block, which must be square, repeats, and so does the last level size.
    The marker must pass ``core.repeat_fault``; a last block that cannot
    repeat is reported first."""
    marker = p.get("repeat_from")
    if marker is None:
        return
    stored = len(families[0])
    count = 0 if depth is None else max(depth - stored, 0)
    if count and stored and sizes[-1] != sizes[-2]:
        raise DocumentError("repeating block must be square", "$.payload")
    fault = repeat_fault(marker, *families)
    if fault:
        raise DocumentError(fault, "$.payload.repeat_from")
    sizes += [sizes[-1]] * count
    for blocks in families:
        blocks += [blocks[-1]] * count


def _sizes(p):
    """The level sizes under ``p``, each an integer."""
    return [_int(x, "level size", "$.payload.level_sizes", k)
            for k, x in enumerate(p["level_sizes"])]


def _edges(node, loc, label):
    """Sorted edge blocks of 0-based (src, tgt, label) triples from blocks of
    1-based [src, tgt, label] lists; ``label(x, loc, l, k)`` reads the label
    of edge k of block l.  Equal blocks are one object: they are compared
    once read, since ``1 == True == 1.0`` in JSON values."""
    blocks = []
    for l, block in enumerate(node):
        out = []
        for k, e in enumerate(block):
            if len(e) != 3:
                raise DocumentError("edge must be [src, tgt, label]", _at(loc, (l, k)))
            s, t, a = e
            out.append((_int(s, "edge end", loc, l, k, 0) - 1,
                        _int(t, "edge end", loc, l, k, 1) - 1, label(a, loc, l, k)))
        blocks.append(tuple(sorted(out)))
    return share(blocks)


class _EdgeRows(list):
    """An edge block as its sorted 1-based [src, tgt, label] rows."""


def _edges_out(blocks, label):
    """Each edge block as ``_EdgeRows``, made once per block object."""
    rows = by_identity(lambda b: _EdgeRows(sorted([s + 1, t + 1, label(a)] for (s, t, a) in b)))
    return list(map(rows, blocks))


def _label(x, loc, *index):
    """A label of a one-sided system: a plain string."""
    if not isinstance(x, str):
        raise DocumentError("label must be a string", _at(loc, index))
    return x


def _parse_bisystem(p, depth):
    sizes = _sizes(p)
    minus = _edges(p["minus_edges"], "$.payload.minus_edges", _word)
    plus = _edges(p["plus_edges"], "$.payload.plus_edges", _word)
    _repeat_from(p, depth, sizes, minus, plus)
    sm = _alphabet(p["sigma_minus"], "$.payload.sigma_minus")
    sp = _alphabet(p["sigma_plus"], "$.payload.sigma_plus")
    return LambdaGraphBisystem(tuple(sizes), tuple(minus), tuple(plus), sm, sp)


def _emit_bisystem(b: LambdaGraphBisystem):
    return {
        "depth": b.depth,
        "level_sizes": list(b.level_sizes),
        "sigma_minus": _alphabet_out(b.sigma_minus),
        "sigma_plus": _alphabet_out(b.sigma_plus),
        "minus_edges": _edges_out(b.minus_edges, _word_out),
        "plus_edges": _edges_out(b.plus_edges, _word_out),
        "repeat_from": None,
    }


def _parse_lgs(p, depth):
    sizes = _sizes(p)
    edges = _edges(p["edges"], "$.payload.edges", _label)
    iota = [
        tuple(_int(v, "iota entry", "$.payload.iota", l, k) - 1 for k, v in enumerate(block))
        for l, block in enumerate(p["iota"])
    ]
    _repeat_from(p, depth, sizes, edges, iota)
    alphabet = Alphabet.of(*_strings(p, "alphabet", "$.payload", "symbol"))
    return LambdaGraphSystem(tuple(sizes), tuple(edges), tuple(iota), alphabet)


def _emit_lgs(lgs: LambdaGraphSystem):
    return {
        "depth": lgs.depth,
        "level_sizes": list(lgs.level_sizes),
        "alphabet": [s[0] for s in lgs.alphabet.symbols],
        "edges": _edges_out(lgs.edges, lambda a: a),
        "iota": [[v + 1 for v in block] for block in lgs.iota],
        "repeat_from": None,
    }


def _blocks(p, key, sizes, alphabet):
    """The smb family under ``key``: block l is an m(l) x m(l+1) matrix."""
    if len(p[key]) + 1 != len(sizes):
        raise DocumentError(
            f"expected {len(p[key]) + 1} entries (one more than the {key} blocks), "
            f"got {len(sizes)}",
            "$.payload.level_sizes",
        )
    keys = list(zip(p[key], sizes, sizes[1:]))  # (node, rows, cols)
    return share(keys, lambda l: _matrix(*keys[l], alphabet, f"$.payload.{key}[{l}]"))


def _parse_smb(p, depth):
    sizes = _sizes(p)
    sm = _alphabet(p["sigma_minus"], "$.payload.sigma_minus")
    sp = _alphabet(p["sigma_plus"], "$.payload.sigma_plus")
    minus = _blocks(p, "minus", sizes, sm)
    plus = _blocks(p, "plus", sizes, sp)
    _repeat_from(p, depth, sizes, minus, plus)
    return SymbolicMatrixBisystem(tuple(minus), tuple(plus), sm, sp, p.get("repeat_from"))


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


def _witness(class_name, specs, families):
    """Reader and writer of the witness kind ``equivalence.<class_name>``, whose
    dataclass fields are, in order, the alphabets C and D, the symbol maps
    stored under the payload keys ``specs``, and the matrix families
    ``families``, each a pair of its payload key and the key of the alphabet
    its matrices are over."""

    def read(p, depth):
        over = {key: _alphabet(p[key], f"$.payload.{key}") for key in ("C", "D")}
        return getattr(equivalence, class_name)(
            over["C"], over["D"],
            *(_spec(p[key], f"$.payload.{key}") for key in specs),
            *(_matrices(p, key, over[alphabet]) for key, alphabet in families),
        )

    def write(w):
        values = iter(getattr(w, f.name) for f in fields(w))
        payload = {key: _alphabet_out(next(values)) for key in ("C", "D")}
        payload.update({key: _spec_out(next(values)) for key in specs})
        payload.update({key: next(values) for key, _ in families})
        return payload

    return read, write


# kind -> (payload reader, payload writer)
KINDS = {
    "subshift": (_parse_subshift, _emit_subshift),
    "bisystem": (_parse_bisystem, _emit_bisystem),
    "lambda_graph_system": (_parse_lgs, _emit_lgs),
    "smb": (_parse_smb, _emit_smb),
    "psse_witness": _witness(
        "PsseWitness", ("phi_m", "phi_n"), (("P", "C"), ("Q", "D"), ("X", "D"), ("Y", "C"))
    ),
    "sse_witness": _witness(
        "SseWitness",
        ("phi1", "phi2", "phi_c_plus", "phi_d_plus", "phi_c_minus", "phi_d_minus"),
        (("H", "C"), ("K", "D")),
    ),
}
