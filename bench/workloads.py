"""The four workloads: seeded job lists and the job bodies with their checks.

A job is one user-level task from a parsed input document to a checked
result.  A run generates one job list from its seed and runs it in passes,
the same jobs in the same order each pass, so that every job is timed
several times; no two jobs of a pass share a random input.
Job bodies call the library only through the ``bisys`` package namespace
and the document module, which is where the traced run puts its spans.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import gen

WORKLOADS = ("deep_narrow", "wide_sofic", "ktower", "conjugacy")

# Per-workload sizes: (full, toy).  The toy sizes exist for the self-test.
SIZES = {
    "deep_narrow": (
        {"full2": 13, "full3": 9, "golden": 15, "even": 13, "random3": 7, "min_depth": 4},
        {"full2": 4, "full3": 3, "golden": 4, "even": 3, "random3": 3, "min_depth": 2},
    ),
    "wide_sofic": (
        # (states, depth, class-estimate band, relation-monoid band) per job:
        # every relation band gets three graphs of each state count
        {"jobs": tuple((n, 3, (20, 50), (lo, lo + 29))
                       for lo in (150, 180, 210, 240) for n in (6, 7, 8, 9) * 3)},
        {"jobs": ((6, 2, (1, 20), (1, 100)), (7, 2, (1, 20), (1, 100)))},
    ),
    "ktower": (
        # depths per input; the random entries are one 3x3 matrix each
        {"golden": (5, 6, 7, 8), "even": (4, 5, 6), "full2": (5, 6, 7), "full3": (4, 5),
         "random": (3, 3, 3)},
        {"golden": (3,), "even": (3,), "full2": (3,), "full3": (2,), "random": (2,)},
    ),
    "conjugacy": (
        {"golden": (4, 5, 6, 7, 8), "even": (4, 5, 6), "full2": (6,), "full3": (4, 5, 6),
         "alternating_1_1": (4, 6), "alternating_2_1": (4, 6),
         "two_power_golden": (3, 4, 5), "two_power_even": (3,),
         # (states, depth, class-estimate band, relation-monoid band) per random graph
         "random": tuple((n, 3, (3, 5), (1, 60)) for n in (4, 4, 5, 5))},
        {"golden": (3,), "even": (3,), "full2": (3,), "full3": (3,),
         "alternating_1_1": (3,), "alternating_2_1": (3,),
         "two_power_golden": (2,), "two_power_even": (2,),
         "random": ((3, 2, (1, 20), (1, 100)),)},
    ),
}


@dataclass
class Job:
    kind: str          # "canonical" | "ktower" | "witness"
    name: str
    doc: str           # input document as generated
    depth: int
    side: str = ""
    matrix: list | None = None         # ktower imports: the matrix for ck_oracle
    expect_bipartite: bool | None = None
    props: dict = field(default_factory=dict)
    obj: object = None                 # parsed input, filled in at set-up
    key: str = ""                      # reference key, filled in at set-up


def make_jobs(workload: str, seed: int, toy: bool = False):
    """The jobs of one run, from a generator seeded by (workload, seed)."""
    make = {
        "deep_narrow": _deep_narrow,
        "wide_sofic": _wide_sofic,
        "ktower": _ktower,
        "conjugacy": _conjugacy,
    }[workload]
    return make(random.Random(f"{workload}/{seed}"), SIZES[workload][1 if toy else 0])


def _sweep(name, doc, lo, hi, props):
    return [
        Job("canonical", f"{name}_d{d}", doc, d, props=dict(props, depth=d))
        for d in range(lo, hi + 1)
    ]


def _deep_narrow(rng, size):
    lo = size["min_depth"]
    jobs = []
    jobs += _sweep("full2", gen.full_shift(2), lo, size["full2"], {"states": 2})
    jobs += _sweep("full3", gen.full_shift(3), lo, size["full3"], {"states": 3})
    jobs += _sweep("golden", gen.golden_mean(), lo, size["golden"], {"states": 2})
    jobs += _sweep("even", gen.even_shift(), lo, size["even"], {"states": 2})
    # narrow: a few classes per level, like the fixed presentations
    edges, est = gen.random_sofic(rng, 3, lo, classes=(1, 5))
    jobs += _sweep("random3", gen.sofic_doc("random3", 3, edges), lo, size["random3"],
                   dict(est, states=3))
    return jobs


def _wide_sofic(rng, size):
    jobs = []
    for i, (n, depth, classes, relations) in enumerate(size["jobs"]):
        edges, est = gen.random_sofic(rng, n, depth, classes, relations)
        name = f"wide{n}_{i}"
        jobs.append(Job("canonical", name, gen.sofic_doc(name, n, edges), depth,
                        props=dict(est, states=n, depth=depth)))
    return jobs


def _ktower(rng, size):
    jobs = []

    def both(name, doc, depth, matrix=None, states=None):
        for side in ("minus", "plus"):
            jobs.append(Job("ktower", f"{name}_d{depth}_{side}", doc, depth, side, matrix,
                            props={"states": states, "depth": depth, "side": side}))

    for depth in size["golden"]:
        both("golden", gen.golden_mean(), depth, states=2)
    for depth in size["even"]:
        both("even", gen.even_shift(), depth, states=2)
    for n in (2, 3):
        for depth in size[f"full{n}"]:
            both(f"import_full{n}", gen.lgs_doc(f"full{n}", [[n]], depth), depth, [[n]], 1)
    for i, depth in enumerate(size["random"]):
        a = gen.random_01_matrix(rng, 3)
        both(f"import_random_{i}", gen.lgs_doc(f"random_{i}", a, depth), depth, a, 3)
    return jobs


FIXTURES = {
    # name: (document, states, bipartite)
    "golden": (gen.golden_mean(), 2, False),
    "even": (gen.even_shift(), 2, False),
    "full2": (gen.full_shift(2), 2, False),
    "full3": (gen.full_shift(3), 3, False),
    "alternating_1_1": (gen.alternating(1, 1), 2, True),
    "alternating_2_1": (gen.alternating(2, 1), 2, True),
    "two_power_golden": (gen.two_power("golden", 2, gen.GOLDEN_EDGES), 4, True),
    "two_power_even": (gen.two_power("even", 2, gen.EVEN_EDGES), 4, True),
}


def _conjugacy(rng, size):
    jobs = []
    for name, (doc, states, bipartite) in FIXTURES.items():
        for depth in size[name]:
            jobs.append(Job("witness", f"{name}_d{depth}", doc, depth, expect_bipartite=bipartite,
                            props={"states": states, "depth": depth}))
    for i, (n, depth, classes, relations) in enumerate(size["random"]):
        edges, est = gen.random_sofic(rng, n, depth, classes, relations)
        name = f"random{n}_{i}"
        jobs.append(Job("witness", f"{name}_d{depth}", gen.sofic_doc(name, n, edges), depth,
                        props=dict(est, states=n, depth=depth)))
    return jobs


# -- set-up -----------------------------------------------------------------

SAVED_FIELDS = ("kind", "name", "doc", "depth", "side", "matrix", "expect_bipartite", "props")


def save_jobs(jobs, path):
    """Write the generated inputs, so a fresh process can set up without regenerating."""
    path.write_text(json.dumps([{f: getattr(job, f) for f in SAVED_FIELDS} for job in jobs]))


def load_jobs(path):
    return [Job(**rec) for rec in json.loads(path.read_text())]



def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(jobs, docs):
    """One dump-and-parse of every input document; the job gets the parsed object.

    Documents shared by several jobs are parsed once per job all the same, as
    separate CLI runs would.
    """
    for job in jobs:
        kind, name, obj = docs.parse_document(job.doc)
        text = docs.dump_document(kind, name, obj)
        job.obj = docs.parse_document(text)[2]
        job.key = sha(f"{job.kind}|{job.depth}|{job.side}|{text}")[:20]


# -- job bodies -------------------------------------------------------------


def run_job(job: Job, bisys, docs):
    """(problems, digests, props); problems is empty when every check passed."""
    body = {"canonical": _canonical, "ktower": _ktower_job, "witness": _witness}[job.kind]
    problems: list = []
    digests: list = []
    props = dict(job.props)
    body(job, bisys, docs, problems, digests, props)
    return problems, digests, props


def _emit(docs, kind, name, obj, problems, digests):
    """Dump a result document, check dump -> parse -> dump is byte-identical."""
    text = docs.dump_document(kind, name, obj)
    again = docs.dump_document(*docs.parse_document(text))
    if again != text:
        problems.append(f"{kind} document does not round-trip")
    digests.append(sha(text))
    return text


def _canonical(job, bisys, docs, problems, digests, props):
    pres = job.obj
    b = bisys.canonical_bisystem(pres, job.depth).bisystem
    props["level_sizes"] = list(b.level_sizes)
    rep = bisys.validate(b)
    if not rep.ok:
        problems.append("validate: axioms fail")
    if not rep.fpcc.ok:
        problems.append("validate: FPCC fails")
    s = bisys.to_smb(b)
    text = _emit(docs, "bisystem", job.name, b, problems, digests)
    _emit(docs, "smb", job.name, s, problems, digests)
    if docs.dump_document("bisystem", job.name, bisys.from_smb(s)) != text:
        problems.append("from_smb(to_smb(b)) differs from b")
    n = min(3, job.depth)
    words = bisys.admissible_words(pres, n)
    for side in ("minus", "plus"):
        if bisys.presented_words(b, side, n) != words:
            problems.append(f"{side} presented words of length {n} differ from the language")


def _ktower_job(job, bisys, docs, problems, digests, props):
    if job.matrix is None:
        b = bisys.canonical_bisystem(job.obj, job.depth).bisystem
    else:
        b = bisys.from_lambda_graph_system(job.obj)
    props["level_sizes"] = list(b.level_sizes)
    res = bisys.k_groups(b, job.side)
    if not res.intertwining_ok:
        problems.append("ladder maps do not intertwine")
    if job.matrix is not None and job.side == "minus":
        oracle = bisys.ck_oracle(job.matrix)
        if res.stabilized and (res.k0, res.k1) != oracle:
            problems.append(f"stabilized tower {res.k0}, {res.k1} != (I - A^t) oracle {oracle}")
    props["stabilized"] = res.stabilized
    digests.append(sha("\n".join(res.lines())))


def _witness(job, bisys, docs, problems, digests, props):
    s = bisys.canonical_smb(job.obj, job.depth)
    props["level_sizes"] = [s.minus[0].rows] + [m.cols for m in s.minus]
    w = bisys.trivial_psse_witness(s)
    if not bisys.verify_psse_1step(s, s, w).ok:
        problems.append("self-witness fails PSSE verification")
    sw = bisys.psse_to_sse(w)
    if not bisys.verify_sse_1step(s, s, sw).ok:
        problems.append("converted self-witness fails SSE verification")
    code = bisys.conjugacy_block_map(s, s, w)
    if not code.mapping or any(img != pair[1] for pair, img in code.mapping):
        problems.append("self-witness block code is not the shift map")
    _emit(docs, "smb", job.name, s, problems, digests)
    _emit(docs, "psse_witness", job.name, w, problems, digests)
    _emit(docs, "sse_witness", job.name, sw, problems, digests)
    bip = bisys.detect_bipartite(s)
    props["bipartite"] = bip is not None
    if job.expect_bipartite is not None and (bip is not None) != job.expect_bipartite:
        problems.append(f"bipartite structure {'missed' if job.expect_bipartite else 'invented'}")
    if bip is not None:
        s_cd, s_dc, w2 = bisys.bipartite_split(s, bip)
        if not bisys.verify_psse_1step(s_cd, s_dc, w2).ok:
            problems.append("split witness fails PSSE verification")
        if not bisys.verify_sse_1step(s_cd, s_dc, bisys.psse_to_sse(w2)).ok:
            problems.append("converted split witness fails SSE verification")
        _emit(docs, "psse_witness", job.name + "_split", w2, problems, digests)
