"""Checks of the benchmark harness itself, using its quick mode.

    python3 -m pytest -q perfbench/check_harness.py

Not named ``test_*.py`` so the repository's own test run does not collect
it; it takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def _run(cwd, workload, trace, seconds="0.5", quick=True):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "5",
           "--seconds", seconds, "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    r = _run(ROOT, workload, trace)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, info["problems"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert info["seed"] == 5 and info["error_rate"] == 0.0
    if trace:
        assert info["traced_ops"] >= bench.MIN_TRACE_PAIRS
        assert os.path.isfile(os.path.join(ROOT, info["trace_file"]))
        os.remove(os.path.join(ROOT, info["trace_file"]))
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout


def test_unknown_workload_is_rejected():
    r = _run(ROOT, "no_such_workload", 0)
    assert r.returncode != 0 and '"metrics"' not in r.stdout


def test_tail_has_ten_samples_above_and_never_drops_below_median():
    times = [float(i) for i in range(100)]
    assert bench.tail(times) == (89.0, 90.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (2.0, pytest.approx(200 / 3))


def test_counts_must_repeat():
    r = bench.Run(wl=None)
    r.record(None, {"events": 3}, "a")
    r.record(None, {"events": 3}, "a")
    assert r.counts_problem() is None
    r.record(None, {"events": 4}, "a")
    assert "differ" in r.counts_problem()


def test_self_time_subtracts_direct_children():
    spans = [
        {"op": 1, "id": 0, "parent": None, "name": "cli", "start": 0.0,
         "end": 10.0, "counts": {}},
        {"op": 1, "id": 1, "parent": 0, "name": "montecarlo.generate_events",
         "start": 1.0, "end": 6.0, "counts": {"events_out": 7}},
        {"op": 1, "id": 2, "parent": 1, "name": "montecarlo.DelaySampler.sample",
         "start": 2.0, "end": 3.0, "counts": {"draws": 4}},
        {"op": 1, "id": 3, "parent": 0, "name": "analysis.fit_envelope",
         "start": 7.0, "end": 9.0, "counts": {}},
        {"op": 1, "id": 4, "parent": 3, "name": "analysis.detect_peaks",
         "start": 7.5, "end": 8.0, "counts": {}},
    ]
    times, counts = tracing.op_layers(spans)
    assert times["cli.self_s"] == 3.0
    assert times["montecarlo.generate_events.self_s"] == 4.0
    assert times["analysis.estimators.s"] == 2.0
    assert counts["montecarlo.DelaySampler.draws"] == 4
    m = tracing.layer_metrics([(times, counts)])
    assert m["montecarlo.DelaySampler.ns_per_draw"] == pytest.approx(0.25e9)


def test_every_target_exists_and_is_restored():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    before = [vars(tracing.resolve(o))[a] for o, a, _, _ in tracing.TARGETS]
    with tracing.instrument(tracing.Tracer()):
        assert all(vars(tracing.resolve(o))[a] is not fn for (o, a, _, _), fn
                   in zip(tracing.TARGETS, before))
    after = [vars(tracing.resolve(o))[a] for o, a, _, _ in tracing.TARGETS]
    assert before == after
