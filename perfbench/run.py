"""pairmem benchmark: one workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from anywhere; the package is imported from ``src/`` next to this
directory and nowhere else.  The workload seed is passed to ``pairmem`` as
the scenario seed.  Ops run one at a time in this process (closed loop,
``--jobs 1``, numeric libraries limited to one thread).

``--trace 0`` prints the end-to-end metrics.  Fresh interpreters (probes)
time set-up: importing ``pairmem`` and parsing the scenario; the first
probe also runs one op and reports its peak resident-memory growth.  Then
ops are timed back to back for ``--seconds``.

``--trace 1`` prints the per-layer metrics.  After one untimed warm-up op,
untraced and traced ops alternate for ``--seconds``; spans come only from
the traced ones and are written to ``.perfbench_out/`` when the run ends.
The difference of the two median op times is the tracing overhead.

Every op's outputs are checked; its work counts (events, bytes, histogram
delays, and in traced ops every span count) must repeat exactly across all
ops of the run.  The last stdout line is the JSON result; the line before
it records versions, commit, seed, sample counts and report digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# a traced run alternates at least this many untraced/traced op pairs, so
# counts can be compared across repeats
MIN_TRACE_PAIRS = 2

END_TO_END_UNITS = {"wall_s": "s", "wall_s_tail": "s", "events_per_s": "1/s",
                    "peak_mem_mb": "MiB", "setup_s": "s"}


def _fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail(times):
    """(value, percentile) of the highest order statistic with at least ten
    samples above it, never below the median."""
    s = sorted(times)
    k = max(len(s) - 11, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s)


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pairmem")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() or None


class Run:
    """Ops of one benchmark run, with their checks and counts."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.counts: list[dict] = []
        self.digests: set[str] = set()

    def record(self, problem, counts, sha):
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(problem)
        self.counts.append(counts)
        if sha:
            self.digests.add(sha)

    def op(self, out, main=None):
        """Run and check one op; return its seconds, or None if it failed."""
        try:
            rc, dt, captured = self.wl.run(out, main)
            if rc:
                self.record(f"exit code {rc}", {}, None)
                return None
            problem, counts, sha = self.wl.check(out, captured)
        except Exception:  # a crashing op counts as failed; the run goes on
            self.record(traceback.format_exc(limit=3), {}, None)
            return None
        self.record(problem, counts, sha)
        return None if problem else dt

    def counts_problem(self, counts=None):
        counts = self.counts if counts is None else counts
        distinct = {json.dumps(c, sort_keys=True) for c in counts}
        if len(distinct) > 1:
            return f"work counts differ between ops: {sorted(distinct)}"
        return None


def probe(wl, with_op, out):
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), "--src", SRC,
           "--scenario", wl.scenario_path]
    if with_op:
        cmd += ["--op", json.dumps([wl.name, wl.root, wl.work, wl.seed,
                                    wl.quick, out])]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=PROBE_TIMEOUT_S)
    if r.returncode:
        raise RuntimeError(f"probe failed: {r.stderr.strip()[-2000:]}")
    res = json.loads(r.stdout.strip().splitlines()[-1])
    if os.path.dirname(res["module"]) != os.path.join(SRC, "pairmem"):
        raise RuntimeError(f"probe imported pairmem from {res['module']}")
    return res


def end_to_end(run, seconds, quick):
    wl = run.wl
    setups, peak = [], None
    for i in range(1 if quick else SETUP_PROBES):
        res = probe(wl, i == 0, os.path.join(wl.work, "probe"))
        setups.append(res["setup_s"])
        if i == 0:
            peak = res["peak_mem_mb"]
            run.record(res["problem"], res["counts"], res["report_sha256"])
    # no warm-up op: the parent has imported everything, and the first op
    # measured no slower than later ones
    out = os.path.join(wl.work, "ops")
    times = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or (not times and run.failed < 3):
        dt = run.op(out)
        if dt is not None:
            times.append(dt)
    if not times:
        return {}, {"timed_ops": 0}
    wall = statistics.median(times)
    tail_s, pct = tail(times)
    events = run.counts[-1].get("events", 0)
    metrics = {"wall_s": wall, "wall_s_tail": tail_s,
               "events_per_s": events / wall, "peak_mem_mb": peak,
               "setup_s": statistics.median(setups)}
    info = {"timed_ops": len(times), "wall_s_tail_percentile": pct,
            "op_seconds": times, "setup_samples": setups,
            "events_per_op": events}
    return metrics, info


def per_layer(run, seconds, tracer):
    from pairmem import cli
    import tracing

    wl = run.wl
    out = os.path.join(wl.work, "ops")
    run.op(out)                                       # warm-up, untimed
    plain, traced, layers = [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or (len(traced) < MIN_TRACE_PAIRS
                                          and run.failed < 3):
        dt = run.op(out)
        if dt is not None:
            plain.append(dt)
        tracer.op += 1
        with tracing.instrument(tracer):
            dt = run.op(out, main=tracer.wrap("cli", cli.main))
        if dt is not None:
            traced.append(dt)
            layers.append(tracing.op_layers(
                [s for s in tracer.spans if s["op"] == tracer.op]))
    if not traced or not plain:
        return {}, {"traced_ops": len(traced), "untraced_ops": len(plain)}
    problem = run.counts_problem([c for _, c in layers])
    if problem:
        run.problems.append("span " + problem)
    metrics = tracing.layer_metrics(layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"traced_ops": len(traced), "untraced_ops": len(plain),
            "traced_wall_s": statistics.median(traced),
            "untraced_wall_s": statistics.median(plain)}
    return metrics, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="shortened simulated runs and one set-up probe, "
                         "for testing the harness")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pairmem", "__init__.py")):
        _fail(f"no pairmem package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy
    import scipy
    import pairmem
    if os.path.dirname(pairmem.__file__) != os.path.join(SRC, "pairmem"):
        _fail(f"pairmem imported from {pairmem.__file__}, not {SRC}")
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tracer = tracing.Tracer()
    try:
        wl = WORKLOADS[args.workload](ROOT, work, args.seed, args.quick)
        wl.prepare()
        run = Run(wl)
        if args.trace:
            metrics, info = per_layer(run, args.seconds, tracer)
            units = tracing.UNITS
        else:
            metrics, info = end_to_end(run, args.seconds, args.quick)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    trace_path = None
    if tracer.spans:
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}-{os.getpid()}.json")
        tracer.dump(trace_path)

    problem = run.counts_problem()
    if problem:
        run.problems.append(problem)
    correct = not run.problems and bool(metrics)
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "seconds": args.seconds,
        "error_rate": run.failed / max(run.attempted, 1),
        "counts": run.counts[-1] if run.counts else {},
        "report_sha256": sorted(run.digests), "problems": run.problems[:5],
        "trace_file": trace_path and os.path.relpath(trace_path, ROOT),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(), "source_sha256": source_digest(),
    })
    print(json.dumps({"info": info}, sort_keys=True))
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed if run.attempted else 1,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in sorted(metrics)}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
