"""Batch front door: parse documents, run constructions and verifiers.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 input error, 3
internal error (an exception that is not one of bisys's own: stdout stays
empty, and BISYS_DEBUG adds a traceback on stderr).  Output is
deterministic for fixed inputs and flags; BISYS_MAX_DEPTH caps every
--depth as a safety valve.  A --depth below 1, or a cap that is not a
positive integer, is an input error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys
import traceback

from .. import __version__
from ..bisystem import (
    BisystemError,
    _cut,
    from_lambda_graph_system,
    presented_words,
    transpose,
    validate,
    validate_lambda_graph_system,
)
from ..canonical import CanonicalError, canonical_bisystem
from ..core import CoreError
from ..equivalence import (
    EquivalenceError,
    bipartite_split,
    detect_bipartite,
    psse_to_sse,
    verify_psse_1step,
    verify_sse_1step,
)
from ..ktheory import KtheoryError, ck_oracle, k_groups, ladder_dimensions
from ..smb import SmbError, from_smb, to_smb, validate_smb
from ..subshift import SubshiftError, admissible_words
from .documents import DocumentError, dump_document, load_document, save_document
from .dot import bisystem_dot

PASS, FAIL, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
# basis elements, over all its levels, of the largest K-ladder invariants builds
LADDER_LIMIT = 10**6
# bisys's own errors that reach main keep the code of a failed verdict
LIBRARY_ERRORS = (
    BisystemError, CanonicalError, CoreError, EquivalenceError, KtheoryError, SmbError,
    SubshiftError,
)


def _input_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(INPUT_ERROR)


def _depth(args) -> int:
    """--depth under the BISYS_MAX_DEPTH cap; a bad value of either is an
    input error."""
    if args.depth < 1:
        _input_error(f"--depth must be >= 1, got {args.depth}")
    cap = os.environ.get("BISYS_MAX_DEPTH")
    if cap is None:
        return args.depth
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        _input_error(f"BISYS_MAX_DEPTH must be a positive integer, got {cap!r}")
    return min(args.depth, limit)


def _load(path, depth, kinds, message):
    """(kind, name, object) of the document at ``path``; a document that
    does not parse, or whose kind is not one of ``kinds``, is an input error,
    the latter reported as ``message`` with ``{kind}`` filled in."""
    try:
        kind, name, obj = load_document(path, depth)
    except DocumentError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(INPUT_ERROR)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(INPUT_ERROR)
    if kind not in kinds:
        _input_error(message.format(kind=kind))
    return kind, name, obj


def _import_lgs(lgs):
    """The two-sided import of a one-sided system; a system that fails the
    one-sided axioms is an input error."""
    try:
        return from_lambda_graph_system(lgs)
    except BisystemError as e:
        _input_error(e)


def _write(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_validate(args):
    import json

    kind, name, obj = _load(
        args.file, None, ("bisystem", "smb", "lambda_graph_system", "subshift"),
        "validate does not apply to kind {kind!r}",
    )
    if kind in ("bisystem", "smb"):
        rep = validate(obj) if kind == "bisystem" else validate_smb(obj)
        ok, lines = rep.ok, rep.lines()
        fields = {"depth": rep.depth, "axioms": {
            axiom: {"ok": v.ok, "counterexamples": list(v.counterexamples)}
            for axiom, v in rep.axioms
        }}
        if rep.fpcc is not None:
            fields.update(fpcc=rep.fpcc.ok, standard=rep.standard.ok)
    elif kind == "lambda_graph_system":
        defects = validate_lambda_graph_system(obj)
        ok, fields = not defects, {"defects": defects}
        lines = (["one-sided system: INVALID"] + [f"  {d}" for d in defects[:10]]
                 if defects else ["one-sided system: valid"])
    else:
        g = obj.graph
        ok, irreducible = True, g.is_irreducible()
        fields = {"states": len(g.states), "edges": len(g.edges), "alphabet": list(g.labels),
                  "irreducible": irreducible}
        lines = [
            f"subshift presentation: {len(g.states)} states, {len(g.edges)} edges, "
            f"alphabet {{{','.join(g.labels)}}}",
            f"  irreducible: {'yes' if irreducible else 'no'}",
        ]
    if args.json:
        report = {"schema_version": 1, "kind": kind, "ok": ok, **fields}
        lines = [json.dumps(report, indent=2, sort_keys=True)]
    for line in lines:
        print(line)
    return PASS if ok else FAIL


def cmd_canonical(args):
    _, name, obj = _load(args.file, None, ("subshift",), "canonical needs a subshift document")
    depth = _depth(args)
    build = canonical_bisystem(obj, depth)
    b = build.bisystem
    for w in build.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.emit == "dot":
        _write(bisystem_dot(b, name or "canonical"), args.output)
    elif args.emit == "json":
        _write(dump_document("bisystem", name or "canonical", b), args.output)
    elif args.emit == "smb":
        _write(dump_document("smb", name or "canonical", to_smb(b)), args.output)
    print(
        f"canonical build: depth {depth}, level sizes "
        f"{','.join(str(m) for m in b.level_sizes)}",
        file=sys.stderr,
    )
    return PASS


def cmd_invariants(args):
    depth = _depth(args)
    kind, name, obj = _load(
        args.file, depth, ("lambda_graph_system", "bisystem", "subshift"),
        "invariants needs a leveled system",
    )
    oracle = None
    if kind == "lambda_graph_system":
        b = _import_lgs(obj)  # validates the edge ends the counts index by
        if (
            args.side == "minus"
            and len(set(obj.level_sizes)) == 1
            and all(tuple(i) == tuple(range(obj.level_sizes[0])) for i in obj.iota)
        ):
            n = obj.level_sizes[0]
            counts = [[0] * n for _ in range(n)]
            for (s, t, _a) in obj.edges[0]:
                counts[s][t] += 1
            oracle = ck_oracle(counts)
    elif kind == "bisystem":
        b = obj
        if b.depth < 1:
            _input_error("invariants needs depth >= 1, the document has depth 0")
    else:
        b = canonical_bisystem(obj, depth).bisystem
    b = _cut(b, min(depth, b.depth))  # the levels the tower reads
    total = 0
    for l, dim in enumerate(ladder_dimensions(b, args.side)):
        total += dim
        if total > LADDER_LIMIT:
            _input_error(f"the {args.side} K-ladder to depth {b.depth} passes {LADDER_LIMIT} "
                         f"basis elements at level {l}, of dimension {dim}")
    res = k_groups(b, args.side, depth)
    print(f"side: {args.side}")
    for line in res.lines():
        print(line)
    if oracle is not None:
        print(f"cross-check (I - A^t): K0 = {oracle[0]}, K1 = {oracle[1]}")
        if res.stabilized and (res.k0, res.k1) != oracle:
            print("MISMATCH against the cross-check")
            return FAIL
    return PASS


def cmd_check_equivalence(args):
    depth = _depth(args)
    _, _, s_m = _load(args.system_m, depth, ("smb",), "check-equivalence needs smb systems")
    _, _, s_n = _load(args.system_n, depth, ("smb",), "check-equivalence needs smb systems")
    _, _, w = _load(args.witness, None, (f"{args.mode}_witness",),
                    f"witness kind does not match --mode {args.mode}")
    verify = verify_psse_1step if args.mode == "psse" else verify_sse_1step
    rep = verify(s_m, s_n, w, depth)
    for line in rep.lines():
        print(line)
    if args.convert and args.mode == "psse" and rep.ok:
        save_document(args.convert, "sse_witness", "converted", psse_to_sse(w))
        print(f"wrote converted witness to {args.convert}")
    return PASS if rep.ok else FAIL


def cmd_bipartite(args):
    _, name, s = _load(args.file, None, ("smb",), "bipartite needs an smb document")
    if not validate_smb(s).ok:
        _input_error("matrix bisystem fails validation; refusing to split")
    bip = detect_bipartite(s)
    if bip is None:
        print("no bipartite structure")
        return FAIL
    if s.depth < 2:
        _input_error(f"bipartite needs depth >= 2 to split, the document has depth {s.depth}")
    print(
        f"bipartite: C = {{{','.join(map(str, bip.alphabet_c.symbols))}}}, "
        f"D = {{{','.join(map(str, bip.alphabet_d.symbols))}}}"
    )
    s_cd, s_dc, w = bipartite_split(s, bip)
    rep = verify_psse_1step(s_cd, s_dc, w)
    print("split witness verifies:", "pass" if rep.ok else "FAIL")
    prefix = args.out_prefix
    if prefix:
        save_document(prefix + ".cd.json", "smb", (name or "split") + "-cd", s_cd)
        save_document(prefix + ".dc.json", "smb", (name or "split") + "-dc", s_dc)
        save_document(prefix + ".witness.json", "psse_witness", (name or "split"), w)
        print(f"wrote {prefix}.cd.json, {prefix}.dc.json, {prefix}.witness.json")
    return PASS if rep.ok else FAIL


def cmd_transpose(args):
    _, name, obj = _load(args.file, None, ("bisystem",), "transpose needs a bisystem document")
    _write(dump_document("bisystem", (name or "bisystem") + "-transpose",
                         transpose(obj)), args.output)
    return PASS


def cmd_words(args):
    kind, name, obj = _load(args.file, None, ("subshift", "bisystem", "smb"),
                            "words needs a subshift, bisystem or smb document")
    try:
        if kind == "subshift":
            words = admissible_words(obj, args.length)
        elif kind == "bisystem":
            words = presented_words(obj, args.side, args.length)
        else:
            words = presented_words(from_smb(obj), args.side, args.length)
    except (BisystemError, SubshiftError, SmbError) as e:
        # a length below 0 or beyond the stored depth, or an smb document
        # that does not validate and so presents no words
        _input_error(e)
    for w in words:
        print(".".join(w))
    return PASS


def cmd_from_lgs(args):
    _, name, obj = _load(args.file, _depth(args), ("lambda_graph_system",),
                         "from-lgs needs a lambda_graph_system document")
    _write(dump_document("bisystem", name or "imported", _import_lgs(obj)), args.output)
    return PASS


@functools.cache
def build_parser():
    """The command-line parser, made once per process and reused by ``main``."""
    parser = argparse.ArgumentParser(
        prog="bisys",
        description="subshift presentations, their two-sided leveled systems, "
        "conjugacy witnesses and exact K-invariants",
    )
    parser.add_argument("--version", action="version", version=f"bisys {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a document's structural axioms")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("canonical", help="canonical construction of a subshift")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--emit", choices=("dot", "json", "smb"), default="json")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("invariants", help="level towers of the two K-groups")
    p.add_argument("file")
    p.add_argument("--side", choices=("minus", "plus"), default="minus")
    p.add_argument("--depth", type=int, default=6)

    p = sub.add_parser("check-equivalence", help="verify an equivalence witness")
    p.add_argument("system_m")
    p.add_argument("system_n")
    p.add_argument("witness")
    p.add_argument("--mode", choices=("psse", "sse"), default="psse")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--convert", default=None, help="write the one-step conversion here")

    p = sub.add_parser("bipartite", help="detect and split a bipartite system")
    p.add_argument("file")
    p.add_argument("--out-prefix", default=None)

    p = sub.add_parser("transpose", help="reverse all edges and swap the sides")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("words", help="admissible or presented words")
    p.add_argument("file")
    p.add_argument("--side", choices=("minus", "plus"), default="plus")
    p.add_argument("-n", "--length", type=int, default=3)

    p = sub.add_parser("from-lgs", help="import a one-sided leveled system")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("-o", "--output", default=None)
    return parser


def _run(args):
    try:
        # looked up by the command's name as it runs: the parser outlives a call
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else INPUT_ERROR
    except (DocumentError, OSError) as e:  # OSError: an output file that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except LIBRARY_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return FAIL


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = io.StringIO()  # held back, so an internal error prints nothing
    try:
        with contextlib.redirect_stdout(out):
            code = _run(args)
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        if os.environ.get("BISYS_DEBUG"):
            traceback.print_exc()
        return INTERNAL_ERROR
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
