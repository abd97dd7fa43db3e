"""Spans around the library's public functions, for the traced run only.

``install`` replaces every public function of every loaded ``bisys`` module,
in every ``bisys`` namespace that holds it, with one wrapper that records a
span: name, layer, parent span, job id, start and end.  Calls one layer makes
into another go through the caller's namespace, so they are caught too.
Methods of the library's classes are not wrapped; their time counts towards
the span of the function that calls them.

Counters read plain dataclass fields of arguments and results and call no
library code, so the traced run makes exactly the library calls the untraced
run makes.  The time a wrapper spends on its own bookkeeping is excluded
from its parent's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from time import perf_counter

LAYERS = ("core", "subshift", "bisystem", "smb", "canonical", "equivalence", "ktheory", "cli")


def layer_of(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


# -- counters: (args, result) -> {counter: amount} ---------------------------


def _smb_cells(s):
    return 2 * sum(m.rows * m.cols for m in s.minus)


def _max_bits(mats):
    best = 0
    for m in mats:
        for row in m:
            if row:
                best = max(best, max(row), -min(row))
    return best.bit_length()


def _bisystem_edges(b):
    return sum(len(blk) for blk in b.minus_edges) + sum(len(blk) for blk in b.plus_edges)


COUNTERS = {
    "bisys.subshift.fill_in_words": lambda a, r: {"fill_in_calls": 1, "fill_in_words": len(r)},
    "bisys.subshift.realizable_past_sets": lambda a, r: {"ray_sets": len(r)},
    "bisys.subshift.realizable_future_sets": lambda a, r: {"ray_sets": len(r)},
    "bisys.canonical.central_classes": lambda a, r: {"level_classes": len(r) if a[1] else 0},
    "bisys.canonical.canonical_bisystem": lambda a, r: {
        "classes": sum(r.bisystem.level_sizes),
        "edges": _bisystem_edges(r.bisystem),
    },
    "bisys.bisystem.validate": lambda a, r: {
        "validate_calls": 1,
        "corners": sum(x * y for x, y in zip(a[0].level_sizes, a[0].level_sizes[2:])),
    },
    "bisys.bisystem.follower_sets": lambda a, r: {
        "follower_words": sum(len(ws) for level in r for ws in level)
    },
    "bisys.smb.to_smb": lambda a, r: {"cells": _smb_cells(r)},
    "bisys.smb.validate_smb": lambda a, r: {"cells": _smb_cells(a[0])},
    "bisys.core.symbolic_matrix_multiply": lambda a, r: {
        "matmul_calls": 1,
        "matmul_terms": sum(sum(e._terms.values()) for row in r.entries for e in row),
    },
    "bisys.equivalence.verify_psse_1step": lambda a, r: {"levels_checked": r.checked_levels},
    "bisys.equivalence.verify_sse_1step": lambda a, r: {"levels_checked": r.checked_levels},
    "bisys.ktheory.smith_normal_form": lambda a, r: {"snf_calls": 1, "snf_max_bits": _max_bits(r)},
    "bisys.ktheory.build_ladder": lambda a, r: {"ladder_dim": sum(len(b) for b in r.bases)},
    "bisys.ktheory.k_groups": lambda a, r: {"towers": 1, "stabilized": int(r.stabilized)},
    "bisys.cli.documents.dump_document": lambda a, r: {"bytes_out": len(r.encode())},
}
MAX_COUNTERS = {"snf_max_bits"}


def _merge(acc, counts, prefix=""):
    """Add one span's counters into acc: maxima for MAX_COUNTERS, sums otherwise."""
    for key, amount in counts.items():
        full = prefix + key
        acc[full] = max(acc.get(full, 0), amount) if key in MAX_COUNTERS else acc.get(full, 0) + amount


class Tracer:
    """Spans kept in memory; index 0 is the root that stands for the harness."""

    def __init__(self):
        self.names = ["bench"]
        self.parents = [-1]
        self.jobs = [None]
        self.t0 = [0.0]
        self.t1 = [0.0]
        self.pause = [0.0]   # wrapper bookkeeping time spent under this span
        self.counts = [None]
        self.stack = [0]
        self.job = None

    def span(self, name, job):
        """Open a span the harness owns (one per job); returns its id."""
        self.job = job
        sid = self._open(name)
        self.t0[sid] = perf_counter()
        return sid

    def close(self, sid):
        self.t1[sid] = perf_counter()
        self.stack.pop()
        self.job = None

    def _open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.jobs.append(self.job)
        self.t0.append(0.0)
        self.t1.append(0.0)
        self.pause.append(0.0)
        self.counts.append(None)
        self.stack.append(sid)
        return sid

    def wrap(self, fn):
        name = f"{fn.__module__}.{fn.__name__}"
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            sid = self._open(name)
            parent = self.parents[sid]
            t0 = self.t0[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = self.t1[sid] = perf_counter()
                self.stack.pop()
            if counter is not None:
                self.counts[sid] = counter(args, result)
            self.pause[parent] += (t0 - enter) + (perf_counter() - t1)
            return result

        return wrapper

    def install(self):
        """Wrap every public bisys function in every bisys namespace."""
        wrapped = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "bisys" and not modname.startswith("bisys."):
                continue
            for attr, value in list(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__.startswith("bisys.")
                ):
                    if value not in wrapped:
                        wrapped[value] = self.wrap(value)
                    setattr(mod, attr, wrapped[value])

    # -- summaries ----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus child spans and wrapper bookkeeping."""
        child = [0.0] * len(self.names)
        for sid in range(1, len(self.names)):
            child[self.parents[sid]] += self.t1[sid] - self.t0[sid]
        return [
            (self.t1[sid] - self.t0[sid]) - child[sid] - self.pause[sid]
            for sid in range(len(self.names))
        ]

    def layer_metrics(self, jobs: int):
        """Per-layer self time and counts, per job, plus derived ratios."""
        own = self.self_times()
        self_s = {layer: 0.0 for layer in LAYERS}
        counts: dict = {}
        validate_s = snf_s = 0.0
        pairs_tested = 0
        for sid in range(1, len(self.names)):
            name = self.names[sid]
            if self.jobs[sid] is None or not name.startswith("bisys."):
                continue  # harness spans, and set-up of later rounds between jobs
            layer = layer_of(name.rsplit(".", 1)[0])
            self_s[layer] += own[sid]
            dur = self.t1[sid] - self.t0[sid]
            if name == "bisys.bisystem.validate":
                validate_s += dur
            elif name == "bisys.ktheory.smith_normal_form":
                snf_s += dur
            elif name == "bisys.subshift.fill_in_words" and (
                self.names[self.parents[sid]] == "bisys.canonical.central_classes"
            ):
                pairs_tested += 1
            _merge(counts, self.counts[sid] or {}, f"{layer}.")

        def per_job(x):
            return x / jobs

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (per_job(self_s[layer]), "s/job")

        def count(name):
            return counts.get(name, 0)

        for name in (
            "subshift.fill_in_calls", "subshift.fill_in_words", "subshift.ray_sets",
            "canonical.classes", "canonical.edges",
            "bisystem.validate_calls", "bisystem.follower_words", "bisystem.corners",
            "smb.cells", "core.matmul_calls", "core.matmul_terms",
            "equivalence.levels_checked", "ktheory.snf_calls", "ktheory.ladder_dim",
            "cli.bytes_out",
        ):
            out[name] = (per_job(count(name)), "bytes/job" if name == "cli.bytes_out" else "count/job")
        out["canonical.class_yield"] = (
            count("canonical.level_classes") / pairs_tested if pairs_tested else 0.0, "ratio")
        out["bisystem.validate_s"] = (per_job(validate_s), "s/job")
        out["ktheory.snf_s"] = (per_job(snf_s), "s/job")
        out["ktheory.snf_max_bits"] = (count("ktheory.snf_max_bits"), "bits")
        towers = count("ktheory.towers")
        out["ktheory.stabilized_frac"] = (count("ktheory.stabilized") / towers if towers else 0.0,
                                          "ratio")
        return out

    def job_counts(self):
        """Counters summed per job id."""
        out: dict = {}
        for sid in range(1, len(self.names)):
            if self.counts[sid] and self.jobs[sid] is not None:
                _merge(out.setdefault(self.jobs[sid], {}), self.counts[sid])
        return out

    def dump(self, fh):
        """A header line naming the fields, then one JSON array per span."""
        fh.write(json.dumps(["id", "name", "parent", "job", "start", "end", "counts"]) + "\n")
        for sid in range(1, len(self.names)):
            fh.write(json.dumps([sid, self.names[sid], self.parents[sid], self.jobs[sid],
                                 round(self.t0[sid], 7), round(self.t1[sid], 7),
                                 self.counts[sid]]) + "\n")
