"""Benchmark for bisys: one workload per run, end-to-end or traced per layer.

    python3 bench/run.py --workload deep_narrow --seed 1 --seconds 22 --trace 0

Run from the root of a checkout; the library is imported from its ``src``
directory and nowhere else.  A run is one fresh process and a closed loop of
one caller.  It generates its inputs from the seed, sets up (import, one
dump-and-parse of every input document), then runs the whole job list in
passes while one more pass of the average length fits in ``--seconds`` of
job time, and at least ``MIN_PASSES``, checking every job of every pass.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, and ``fail_rate``.

A job's time is the median of its passes.  Neighbours on a shared host slow
the machine by up to twice, in stretches from milliseconds to minutes, so a
fixed pure-Python loop (the probe) is timed before every job, off the clock,
and every job time is scaled by ``PROBE_REF_S`` over the mean probe time of
its pass: it is the time the job would have taken on a host where the probe
takes ``PROBE_REF_S``.  Set-up times are scaled by the run's mean probe
time.  The raw values are printed beside the scaled ones.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the jobs run with spans around every public library function, and the
metrics are per-layer self times and counts per job; the same passes are
then re-run untraced in a fresh process to give the tracing overhead.  Spans
and per-job records are written under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

import workloads  # noqa: E402  (sits beside this file)

# set-ups per run for setup_s: this process, then fresh processes between passes
SETUPS = 7
# each job is timed at least this often, whatever --seconds says
MIN_PASSES = 3
# the host-speed probe: a fixed loop, and the time it is scaled to
PROBE_LOOPS = 30_000
PROBE_REF_S = 0.003
DEFAULT_SEED = 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--passes", type=int, default=0,
                    help="run exactly this many passes instead of a deadline")
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--record", action="store_true",
                    help="write this run's output digests into the reference file")
    ap.add_argument("--child", choices=("setup", "jobs"), help=argparse.SUPPRESS)
    ap.add_argument("--inputs", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(jobs):
    """Import the library from the checkout and parse every input: the timed set-up."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import bisys
    from bisys.cli import documents

    if not Path(bisys.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported bisys from {bisys.__file__}, not from {SRC}")
    workloads.prepare(jobs, documents)
    return bisys, documents, perf_counter() - t0


def probe():
    """Seconds the fixed loop takes now: the host's speed, not the library's."""
    t = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return perf_counter() - t


def run_passes(args, jobs, bisys, docs, reference, tracer=None, between=None):
    """Passes over the job list until the deadline.

    Returns (records, times, probes, passes): one record per job run, per job
    of the list (pass, seconds) of each of its passing runs, and per pass the
    probe times taken before its job runs.  ``between`` is called between
    passes, off the clock.
    """
    budget = args.seconds / 2 if tracer else args.seconds
    records = []
    times = [[] for _ in jobs]
    probes = []
    spent = 0.0
    passes = 0
    while True:
        probes.append([])
        for i, job in enumerate(jobs):
            jid = len(records)
            probes[-1].append(probe())
            sid = tracer.span("bench.job", jid) if tracer else None
            t = perf_counter()
            try:
                problems, digests, props = workloads.run_job(job, bisys, docs)
            except Exception as e:  # a raising job is a failed job, never a skipped one
                problems, digests, props = [f"raised {type(e).__name__}: {e}"], [], dict(job.props)
            dt = perf_counter() - t
            if tracer:
                tracer.close(sid)
            expected = reference.get(job.key)
            if expected is not None and not problems and expected != digests:
                problems.append("output digest differs from the reference")
            records.append({
                "job": jid, "pass": passes, "index": i, "name": job.name, "key": job.key,
                "seconds": dt, "probe": probes[-1][-1], "problems": problems,
                "digests": digests, "checked": expected is not None, "props": props,
            })
            if not problems:
                times[i].append((passes, dt))
            spent += dt
        passes += 1
        # stop when one more pass of the average length would overrun the budget
        if passes == args.passes or (not args.passes and spent * (passes + 1) / passes > budget
                                     and passes >= MIN_PASSES):
            return records, times, probes, passes
        if between:
            between()


def pass_scales(probes):
    """Per pass: ``PROBE_REF_S`` over the mean probe time of the pass."""
    return [PROBE_REF_S / statistics.fmean(p) for p in probes]


def job_medians(times, scales):
    """Per job that passed at least once, the median of its runs, each times its pass's scale."""
    return [statistics.median(dt * scales[p] for p, dt in t) for t in times if t]


def scaled_total(times, probes):
    return sum(job_medians(times, pass_scales(probes)))


def child(args, extra):
    """Run this script in a fresh process and return its last JSON line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds)] + extra
    if args.toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"error: child run failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())["jobs"]
    return {}


def write_records(name, records):
    with open(OUT / name, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def end_to_end(records, times, probes, passes, setups):
    scales = pass_scales(probes)
    raw = sorted(job_medians(times, [1.0] * passes))
    jobs_s = sorted(job_medians(times, scales))
    n = len(jobs_s)
    if not n:
        raise SystemExit("error: no job passed; see the failures above")
    every = [x for p in probes for x in p]
    scale = PROBE_REF_S / statistics.fmean(every)
    # the highest nearest-rank percentile with ten jobs beyond it
    k = max(0, n - 11)
    print(f"host: probe mean {statistics.fmean(every) * 1e3:.3f} ms over {len(every)} samples; "
          "job times are scaled per pass by " + " ".join(f"{x:.4f}" for x in scales)
          + f", set-up times by {scale:.4f} (raw values in brackets)")
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s",
                    f"median of {len(setups)} set-ups [" + " ".join(f"{x:.3f}" for x in setups)
                    + "]"),
        "jobs_per_s": (n / sum(jobs_s), "1/s",
                       f"{n} jobs over the sum of their medians of {passes} passes "
                       f"[{n / sum(raw):.4g}]"),
        "job_s.p50": (statistics.median(jobs_s), "s",
                      f"median of {n} jobs' medians [{statistics.median(raw):.4g}]"),
        "job_s.tail": (jobs_s[k], "s",
                       f"p{100 * (k + 1) / n:.0f} of {n} jobs' medians, {n - 1 - k} beyond it "
                       f"[{raw[k]:.4g}]"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "peak resident set of the run process"),
    }
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<12} {value:12.6g} {unit:<4} ({note})")
    failed = sum(1 for r in records if r["problems"])
    print(f"{'fail_rate':<12} {failed / len(records):12.6g} {'':<4} "
          f"({failed} of {len(records)} job runs failed)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def report_failures(records):
    checked = sum(r["checked"] for r in records)
    print(f"checks: {len(records)} job runs, {checked} also matched against reference digests")
    for r in records:
        for p in r["problems"]:
            print(f"FAIL {r['name']}: {p}", file=sys.stderr)


def record_reference(records):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"jobs": {}}
    data["seed"] = DEFAULT_SEED
    data["about"] = ("sha256 of every emitted document and KResult.lines() per job, keyed by "
                     "job kind, depth, side and input document")
    for r in records:
        if not r["problems"]:
            data["jobs"][r["key"]] = r["digests"]
    data["jobs"] = dict(sorted(data["jobs"].items()))
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bisys" / "__init__.py").is_file():
        print(f"error: no bisys source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.child == "setup":
        print(json.dumps({"setup_s": setup(workloads.load_jobs(Path(args.inputs)))[2]}))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    jobs = workloads.make_jobs(args.workload, args.seed, args.toy)
    inputs = OUT / f"inputs-{tag}.json"
    workloads.save_jobs(jobs, inputs)
    reference = {} if args.record else load_reference()
    bisys, docs, setup_s = setup(jobs)

    if args.child == "jobs":
        records, times, probes, passes = run_passes(args, jobs, bisys, docs, reference)
        print(json.dumps({"passes": passes, "job_s": scaled_total(times, probes)}))
        return 0

    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        records, times, probes, passes = run_passes(args, jobs, bisys, docs, reference, tracer)
        job_s = scaled_total(times, probes)
        untraced = child(args, ["--passes", str(passes), "--child", "jobs"])
        per_job = tracer.job_counts()
        for r in records:
            r["counts"] = per_job.get(r["job"], {})
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            tracer.dump(fh)
        layer = tracer.layer_metrics(len(records))
        # per-layer times are scaled by the run's mean probe time, like set-up times
        scale = PROBE_REF_S / statistics.fmean(x for p in probes for x in p)
        layer = {k: (v * scale if u == "s/job" else v, u) for k, (v, u) in layer.items()}
        layer["trace.overhead_frac"] = (job_s / untraced["job_s"] - 1, "ratio")
        print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, {passes} passes; "
              f"scaled job medians sum to {job_s:.3f} s traced, {untraced['job_s']:.3f} s "
              "untraced")
        for name, (value, unit) in layer.items():
            print(f"{name:<28} {value:12.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        setups = [setup_s]

        def one_setup():
            if len(setups) < SETUPS:
                setups.append(child(args, ["--child", "setup", "--inputs", str(inputs)])["setup_s"])

        records, times, probes, passes = run_passes(args, jobs, bisys, docs, reference,
                                                    between=one_setup)
        while len(setups) < SETUPS:
            one_setup()
        print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, {passes} passes")
        metrics = end_to_end(records, times, probes, passes, setups)

    write_records(f"jobs-{tag}.jsonl", records)
    report_failures(records)
    if args.record:
        record_reference(records)
    failed = sum(1 for r in records if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
