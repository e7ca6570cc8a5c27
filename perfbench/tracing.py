"""In-memory span tracing around pairmem's public layer functions.

``instrument`` replaces each traced function at the place where pipeline
code looks it up (a module global or a class attribute), records a span
per call, and restores the originals on exit.  Spans are kept in memory;
``Tracer.dump`` writes them out once the run is over.

A span is ``(op, id, parent, name, start, end, counts)``.  Spans of one
benchmark operation share ``op``.  A layer's self time is its span minus
the time covered by its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import statistics
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Span-recording wrapper; ``count(args, kwargs, result)`` returns
        a dict of work counts attached to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = {"op": self.op, "id": sid,
                    "parent": self._stack[-1] if self._stack else None,
                    "name": name, "start": 0.0, "end": 0.0, "counts": {}}
            self.spans.append(span)
            self._stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans}, f)


def _spectrum_modes(args, kwargs, spec):
    return {"modes": int(spec.N)}


def _photons(arg_index):
    def count(args, kwargs, result):
        return {"photons": int(np.size(args[arg_index]))}
    return count


# (owner, attribute, span name, counter).  An owner is a pairmem module,
# or "module:Class".  A missing owner or attribute is skipped, so the traced
# run keeps working while the program's internals move.
TARGETS = [
    ("cli", "load_scenario", "scenario.load_scenario", None),
    ("cli", "analyze_events", "scenario.analyze_events", None),
    ("scenario", "analyze_events", "scenario.analyze_events", None),
    ("cli", "scenario_digest", "scenario.scenario_digest", None),
    ("scenario", "scenario_digest", "scenario.scenario_digest", None),
    ("scenario", "simulate", "scenario.simulate", None),
    ("scenario", "generate_events", "montecarlo.generate_events",
     lambda a, k, ev: {"events_out": len(ev)}),
    ("scenario", "cluster_spectrum", "cavity.cluster_spectrum", None),
    ("scenario", "mode_weights", "cavity.mode_weights", _spectrum_modes),
    ("scenario", "comb_spectrum", "cavity.comb_spectrum", _spectrum_modes),
    ("scenario", "design_afc", "memory.design_afc", None),
    ("memory:AfcProfile", "response_arrays", "memory.response_arrays",
     _photons(1)),
    ("montecarlo", "chain_transmission", "memory.chain_transmission",
     _photons(1)),
    ("montecarlo:DelaySampler", "__init__", "montecarlo.DelaySampler.init", None),
    ("montecarlo:DelaySampler", "sample", "montecarlo.DelaySampler.sample",
     lambda a, k, out: {"draws": len(out)}),
    ("montecarlo", "model_digest", "montecarlo.model_digest", None),
    ("analysis", "build_histogram", "analysis.build_histogram",
     lambda a, k, h: {"delays": int(h.counts.sum())}),
    ("analysis", "g2_estimate", "analysis.g2_estimate", None),
    ("analysis", "detect_peaks", "analysis.detect_peaks", None),
    ("analysis", "estimate_fsr", "analysis.estimate_fsr", None),
    ("analysis", "fit_envelope", "analysis.fit_envelope", None),
    ("analysis", "noise_floor", "analysis.noise_floor", None),
    ("analysis", "coincidence_rate", "analysis.coincidence_rate", None),
    ("eventio", "read_events", "eventio.read_events",
     lambda a, k, ev: {"bytes": os.path.getsize(a[0])}),
    ("eventio", "write_events", "eventio.write_events",
     lambda a, k, r: {"bytes": os.path.getsize(a[1])}),
    ("figures", "emit_figure_data", "figures.emit_figure_data", None),
]


def resolve(owner):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(f"pairmem.{module}")
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


@contextlib.contextmanager
def instrument(tracer):
    """Install span wrappers for every target; restore the originals on
    exit.  A function reached through two owners gets one wrapper, so a
    call is recorded once."""
    saved = []
    wrappers = {}
    try:
        for owner_path, attr, name, count in TARGETS:
            owner = resolve(owner_path)
            if owner is None or attr not in vars(owner):
                continue
            fn = vars(owner)[attr]
            key = (id(fn), name)
            if key not in wrappers:
                wrappers[key] = tracer.wrap(name, fn, count)
            saved.append((owner, attr, fn))
            setattr(owner, attr, wrappers[key])
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# per-layer metric -> the span names it is derived from
_TIME_GROUPS = {
    "montecarlo.DelaySampler.sample_s": ["montecarlo.DelaySampler.sample"],
    "montecarlo.DelaySampler.init_s": ["montecarlo.DelaySampler.init"],
    "montecarlo.generate_events.s": ["montecarlo.generate_events"],
    "montecarlo.model_digest.s": ["montecarlo.model_digest"],
    "cavity.spectrum.s": ["cavity.cluster_spectrum", "cavity.mode_weights",
                          "cavity.comb_spectrum"],
    "memory.design_afc.s": ["memory.design_afc"],
    "memory.response_arrays.s": ["memory.response_arrays"],
    "memory.chain_transmission.s": ["memory.chain_transmission"],
    "analysis.build_histogram.s": ["analysis.build_histogram"],
    "analysis.g2_estimate.s": ["analysis.g2_estimate"],
    "analysis.estimators.s": ["analysis.detect_peaks", "analysis.estimate_fsr",
                              "analysis.fit_envelope", "analysis.noise_floor",
                              "analysis.coincidence_rate"],
    "eventio.read_events.s": ["eventio.read_events"],
    "eventio.write_events.s": ["eventio.write_events"],
    "scenario.load_scenario.s": ["scenario.load_scenario"],
    "scenario.scenario_digest.s": ["scenario.scenario_digest"],
    "figures.emit_figure_data.s": ["figures.emit_figure_data"],
}
_SELF_GROUPS = {
    "montecarlo.generate_events.self_s": "montecarlo.generate_events",
    "scenario.analyze_events.self_s": "scenario.analyze_events",
    "cli.self_s": "cli",
}
_COUNTS = {  # metric -> (span names, count key)
    "montecarlo.DelaySampler.draws": (["montecarlo.DelaySampler.sample"], "draws"),
    "montecarlo.generate_events.events_out": (["montecarlo.generate_events"],
                                              "events_out"),
    "cavity.spectrum.modes": (["cavity.mode_weights", "cavity.comb_spectrum"],
                              "modes"),
    "memory.response_arrays.photons": (["memory.response_arrays"], "photons"),
    "memory.chain_transmission.photons": (["memory.chain_transmission"],
                                          "photons"),
    "analysis.build_histogram.delays": (["analysis.build_histogram"], "delays"),
    "eventio.read_events.bytes": (["eventio.read_events"], "bytes"),
    "eventio.write_events.bytes": (["eventio.write_events"], "bytes"),
}
_RATES = {  # ns per unit of work: (time metric, count metric)
    "montecarlo.DelaySampler.ns_per_draw": ("montecarlo.DelaySampler.sample_s",
                                            "montecarlo.DelaySampler.draws"),
    "analysis.build_histogram.ns_per_delay": ("analysis.build_histogram.s",
                                              "analysis.build_histogram.delays"),
}


def op_layers(spans: list[dict]) -> tuple[dict, dict]:
    """(times in s, counts) of one operation's spans."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])

    def outermost(names):
        # skip spans nested inside another span of the same group, so a
        # layer that calls itself (fit_envelope -> detect_peaks) counts once
        out = []
        for s in spans:
            if s["name"] not in names:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    times = {m: sum((s["end"] - s["start"] for s in outermost(set(names))), 0.0)
             for m, names in _TIME_GROUPS.items()}
    for m, name in _SELF_GROUPS.items():
        times[m] = sum((s["end"] - s["start"] - child_time.get(s["id"], 0.0)
                        for s in spans if s["name"] == name), 0.0)
    counts = {"scenario.simulate.calls":
              sum(1 for s in spans if s["name"] == "scenario.simulate"),
              "trace.spans": len(spans)}
    for m, (names, key) in _COUNTS.items():
        counts[m] = sum(s["counts"].get(key, 0) for s in spans
                        if s["name"] in names)
    return times, counts


UNITS = {**{m: "s" for m in _TIME_GROUPS}, **{m: "s" for m in _SELF_GROUPS},
         **{m: "count" for m in _COUNTS}, **{m: "ns" for m in _RATES},
         "scenario.simulate.calls": "count", "trace.spans": "count",
         "eventio.read_events.bytes": "bytes",
         "eventio.write_events.bytes": "bytes",
         "trace.overhead_s": "s"}


def layer_metrics(per_op: list[tuple[dict, dict]]) -> dict:
    """Median per-op layer times plus the (identical) per-op counts."""
    times = {m: statistics.median(t[m] for t, _ in per_op) for m in per_op[0][0]}
    counts = dict(per_op[0][1])
    out = {**times, **counts}
    for m, (tm, cm) in _RATES.items():
        out[m] = times[tm] / counts[cm] * 1e9 if counts[cm] else 0.0
    return out
