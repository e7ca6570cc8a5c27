"""Run the benchmark over several seeds and summarize it as a BENCH file.

    python3 perfbench/summarize.py --seeds 1-10 [--workloads a,b] \
        [--traced-seeds 1] [--out perfbench/BENCH_x.json]

Seeds run in the outer loop and workloads in the inner one, so slow drift
of the machine spreads over every workload.  For each end-to-end metric it
prints the median, the quartiles and their spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  Traced seeds add the per-layer
metrics.  With ``--out`` the summary and every run's output are written as
JSON: the benchmark's trajectory points (BENCH files) have this form.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    out = {"workload": workload, "seed": seed, "trace": trace,
           "exit_code": r.returncode, "run_s": time.perf_counter() - t0}
    if len(lines) >= 2:
        out["info"] = json.loads(lines[-2])["info"]
        out["result"] = json.loads(lines[-1])
    else:
        out["stderr"] = r.stderr[-2000:]
    return out


def spread_stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--traced-seeds", default="",
                    help="seeds for per-layer (--trace 1) runs")
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    plan = [(w, s, 0) for s in seed_list(args.seeds) for w in names]
    if args.traced_seeds:
        plan += [(w, s, 1) for s in seed_list(args.traced_seeds) for w in names]

    runs = []
    for w, s, t in plan:
        r = run_once(spec, w, s, t)
        runs.append(r)
        res = r.get("result", {})
        print(f"{w} seed={s} trace={t} exit={r['exit_code']} "
              f"correct={res.get('correct')} run={r['run_s']:.1f}s",
              file=sys.stderr, flush=True)

    summary = {}
    ok = True
    for w in names:
        mine = [r for r in runs if r["workload"] == w and "result" in r]
        e2e = [r["result"] for r in mine if r["trace"] == 0]
        layer = [r["result"] for r in mine if r["trace"] == 1]
        ok &= all(r["correct"] for r in e2e + layer)
        entry = {"runs": len(e2e), "end_to_end": {}, "per_layer": {}}
        for m in bounds:
            vals = [r["metrics"][m]["value"] for r in e2e if m in r["metrics"]]
            if len(vals) >= 2:
                entry["end_to_end"][m] = spread_stats(vals)
                entry["end_to_end"][m]["unit"] = e2e[0]["metrics"][m]["unit"]
        if layer:
            for m in layer[0]["metrics"]:
                vals = [r["metrics"][m]["value"] for r in layer]
                entry["per_layer"][m] = {"median": statistics.median(vals),
                                         "unit": layer[0]["metrics"][m]["unit"],
                                         "values": vals}
        summary[w] = entry
        for m, st in entry["end_to_end"].items():
            flag = "" if m == "setup_s" or (st["spread"] or 0) < bounds[m] / 3 \
                else "  <- spread above bound/3"
            print(f"{w:22s} {m:14s} median={st['median']:.6g} "
                  f"q1={st['q1']:.6g} q3={st['q3']:.6g} "
                  f"spread={st['spread']:.4f} bound={bounds[m]}{flag}")

    if args.out:
        first = next((r["info"] for r in runs if "info" in r), {})
        machine = {k: first.get(k) for k in
                   ("python", "numpy", "scipy", "nproc", "threads",
                    "git_commit", "source_sha256")}
        with open(args.out, "w") as f:
            json.dump({"machine": machine, "run_seconds": spec["run_seconds"],
                       "workloads": summary, "runs": runs}, f, indent=1,
                      sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
