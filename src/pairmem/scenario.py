"""Scenario configuration and the end-to-end pipeline.

Scenarios are flat, sectioned key-value documents (INI syntax) with units
spelled out in the key names.  An empty document resolves to the default
experiment, whose every value is a default of the schema table ``_SCHEMA``.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from . import analysis as an
from .cavity import (CavityParams, PhaseMatching, cluster_spectrum,
                     comb_spectrum, mode_weights)
from .errors import ParameterError, ScenarioError, SimulationError
from .memory import AfcPlan, FilterSpec
from .montecarlo import (DetectorModel, EventStream, GatingSequence,
                         SourceModel, generate_events, split_seed, whole_ps)

# FSR_i chosen so the Vernier cluster spacing is 200 GHz at FSR_s = 123 MHz
_DEFAULT_FSR_SIGNAL = 123.0e6
_DEFAULT_CLUSTER_SPACING = 200e9
_DEFAULT_FSR_IDLER = _DEFAULT_FSR_SIGNAL / (
    1.0 + _DEFAULT_FSR_SIGNAL / _DEFAULT_CLUSTER_SPACING)


# no field defaults here, nor on the records load_scenario builds from
# _SCHEMA (but DetectorModel and FilterSpec, whose defaults are the ideal
# component): the schema holds the only defaults
@dataclass(frozen=True)
class AnalysisSettings:
    bin_width_s: float
    hist_min_s: float
    hist_max_s: float
    window_s: float
    window_center_s: float | None          # None: echo delay (or 0 w/o memory)
    floor_min_s: float
    floor_max_s: float
    fsr_peak_count: int
    min_prominence: float | None           # None: 5 * sqrt(floor)
    classical_mode_count: int | None       # None: round(n_effective)
    # comb estimators only look this far from the analysis feature, to
    # stay clear of the conditional-gate steps in the noise floor
    comb_fit_halfspan_s: float

    def __post_init__(self):
        for name in ("bin_width_s", "window_s", "comb_fit_halfspan_s"):
            if not 0 < getattr(self, name) < math.inf:    # also rejects NaN
                raise ScenarioError(f"[analysis] {name} must be finite and > 0")
        for name in ("fsr_peak_count", "classical_mode_count"):
            n = getattr(self, name)   # None: auto
            if n is not None and n < 1:
                raise ScenarioError(f"[analysis] {name} must be >= 1")
        if not -math.inf < self.hist_min_s < self.hist_max_s < math.inf:
            raise ScenarioError("[analysis] need finite hist_min_s < hist_max_s")
        if not -math.inf < self.floor_min_s < self.floor_max_s < math.inf:
            raise ScenarioError("[analysis] need finite floor_min_s < floor_max_s")
        prom = self.min_prominence   # None: auto
        if prom is not None and not -math.inf < prom < math.inf:
            raise ScenarioError("[analysis] min_prominence must be finite")
        # self.ps: every time setting but an auto center, in whole ps
        object.__setattr__(self, "ps", {
            k: whole_ps(v, f"[analysis] {k}")
            for k, v in vars(self).items() if k.endswith("_s") and v is not None})


@dataclass
class Scenario:
    cavity: CavityParams
    phase_matching: PhaseMatching
    spectrum_source: str
    comb_modes: int
    afc_plan: AfcPlan | None               # None: [afc] switched off
    filters: dict
    detectors: dict
    gating: GatingSequence | None
    duration_s: float
    seed: int
    pump_mw: float
    brightness_pairs_per_s_per_mw: float
    reference_run: bool
    analysis: AnalysisSettings
    sweep_kind: str | None
    sweep_values: tuple

    def __post_init__(self):
        if self.spectrum_source not in ("cluster", "comb"):
            raise ScenarioError(f"unknown spectrum source {self.spectrum_source!r}")
        if self.afc_plan is not None:
            # the AFC mode grid must ride on the cavity comb
            rel = abs(self.afc_plan.mode_spacing - self.cavity.fsr_signal) \
                / self.cavity.fsr_signal
            if rel > 1e-6:
                raise ScenarioError(
                    "afc.mode_spacing_hz must match cavity.fsr_signal_hz "
                    f"(relative mismatch {rel:.2e})")
        if self.sweep_kind == "afc_modes":
            if self.afc_plan is None:
                raise ScenarioError("an afc_modes sweep needs [afc] enabled")
            # float(): int has no is_integer before Python 3.12
            if not all(v >= 1 and float(v).is_integer()
                       for v in self.sweep_values):
                raise ScenarioError(
                    "[sweep] afc_modes values must be integers >= 1")
        elif self.sweep_kind == "pump_power":
            if not all(0 <= v < math.inf for v in self.sweep_values):
                raise ScenarioError(
                    "[sweep] pump_power values must be finite and >= 0")
        elif self.sweep_kind is not None:
            raise ScenarioError(f"unknown sweep kind {self.sweep_kind!r}")
        if self.comb_modes < 1:
            raise ScenarioError("[spectrum] comb_modes must be >= 1")
        for name in ("duration_s", "pump_mw", "brightness_pairs_per_s_per_mw"):
            if not 0 <= getattr(self, name) < math.inf:   # also rejects NaN
                raise ScenarioError(f"[run] {name} must be finite and >= 0")
        if not 0 <= self.seed < 2 ** 64:   # event files store it as u64
            raise ScenarioError("[run] seed must lie in [0, 2**64)")
        # the analysis geometry, checked by the estimators' own bin selections
        ps, center = self.analysis.ps, self.window_center_ps
        try:
            edges = an.histogram_edges(ps["bin_width_s"],
                                       (ps["hist_min_s"], ps["hist_max_s"]))
            an.floor_bins(edges, (ps["floor_min_s"], ps["floor_max_s"]))
            an.window_bins(edges, ps["window_s"], center)
            _comb_bins(edges, center, ps["comb_fit_halfspan_s"])
        except ParameterError as exc:
            raise ScenarioError(f"[analysis] {exc}") from exc

    @property
    def pair_rate(self) -> float:
        return self.pump_mw * self.brightness_pairs_per_s_per_mw

    @property
    def window_center_ps(self) -> int:
        """Analysis window center in ps: as set, else the echo delay
        rounded to the nearest ps, or 0 without memory."""
        center = self.analysis.ps.get("window_center_s")
        if center is None:
            center = 0 if self.afc_plan is None \
                else round(self.afc_plan.storage_time * 1e12)
        return center


def default_scenario() -> Scenario:
    return load_scenario("")


# ---------------------------------------------------------------------------
# config document schema

def _maybe(parser):
    return lambda x: None if x in ("auto", "none", "") else parser(x)


def _bool(x):
    if x.lower() in ("true", "yes", "1", "on"):
        return True
    if x.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {x!r}")


def _values(x):
    return tuple(float(v) for v in x.replace(",", " ").split())


# section -> key -> (parser, default, target).  The target is the attribute
# path the key sets, from Scenario down ("filters.signal.kind" is
# scenario.filters["signal"].kind); a switch row's target is the block it
# switches ("afc_plan", "gating"), which is None when switched off.
# load_scenario, save_scenario and scenario_digest are derived from this
# table, the only place keys and defaults are written.
_SCHEMA = {
    "cavity": {
        "fsr_signal_hz": (float, _DEFAULT_FSR_SIGNAL, "cavity.fsr_signal"),
        "fsr_idler_hz": (float, _DEFAULT_FSR_IDLER, "cavity.fsr_idler"),
        "linewidth_signal_hz": (float, 2.28e6, "cavity.linewidth_signal"),
        "linewidth_idler_hz": (float, 1.52e6, "cavity.linewidth_idler"),
        "signal_center_hz": (float, 494.7e12, "cavity.signal_center"),  # ~606 nm
        "idler_center_hz": (float, 193.4e12, "cavity.idler_center"),    # ~1550 nm
    },
    "phase_matching": {
        "envelope_center_hz": (_maybe(float), None, "phase_matching.envelope_center"),
        "envelope_fwhm_hz": (float, 150e9, "phase_matching.envelope_fwhm"),
        "envelope_shape": (str, "sinc_squared", "phase_matching.envelope_shape"),
    },
    "spectrum": {
        "source": (str, "cluster", "spectrum_source"),
        "comb_modes": (int, 83, "comb_modes"),
    },
    "afc": {
        "enabled": (_bool, True, "afc_plan"),
        "mode_count": (int, 83, "afc_plan.mode_count"),
        "mode_spacing_hz": (_maybe(float), None, "afc_plan.mode_spacing"),
        "tooth_spacing_hz": (float, 920e3, "afc_plan.tooth_spacing"),
        "per_mode_bandwidth_hz": (float, 4e6, "afc_plan.per_mode_bandwidth"),
        "finesse": (float, 2.0, "afc_plan.finesse"),
        "peak_optical_depth": (float, 2.0, "afc_plan.peak_optical_depth"),
        "center_freq_hz": (_maybe(float), None, "afc_plan.center_freq"),
        "background_od": (float, 0.0, "afc_plan.background_od"),
        "efficiency_override": (_maybe(float), None, "afc_plan.efficiency_override"),
        "taper": (str, "flat", "afc_plan.taper"),
        "taper_fwhm_hz": (_maybe(float), None, "afc_plan.taper_fwhm"),
        "echo_orders": (int, 1, "afc_plan.echo_orders"),
    },
    "filter.signal": {
        "kind": (str, "etalon", "filters.signal.kind"),
        "bandwidth_hz": (float, 5.58e9, "filters.signal.bandwidth"),
        "fsr_hz": (float, 166e9, "filters.signal.fsr"),
        "peak_transmittance": (float, 0.5, "filters.signal.peak_transmittance"),
        "center_hz": (_maybe(float), None, "filters.signal.center"),
        "stopband_transmittance": (float, 0.0, "filters.signal.stopband_transmittance"),
    },
    "filter.idler": {
        "kind": (str, "vbg", "filters.idler.kind"),
        "bandwidth_hz": (float, 10e9, "filters.idler.bandwidth"),
        "fsr_hz": (float, 0.0, "filters.idler.fsr"),
        "peak_transmittance": (float, 0.92, "filters.idler.peak_transmittance"),
        "center_hz": (_maybe(float), None, "filters.idler.center"),
        "stopband_transmittance": (float, 0.0, "filters.idler.stopband_transmittance"),
    },
    "detector.signal": {
        "efficiency": (float, 0.6, "detectors.signal.efficiency"),
        "dark_rate_hz": (float, 200.0, "detectors.signal.dark_rate"),
        "jitter_sigma_s": (float, 0.35e-9, "detectors.signal.jitter_sigma"),
        "dead_time_s": (float, 24e-9, "detectors.signal.dead_time"),
    },
    "detector.idler": {
        "efficiency": (float, 0.85, "detectors.idler.efficiency"),
        "dark_rate_hz": (float, 100.0, "detectors.idler.dark_rate"),
        "jitter_sigma_s": (float, 0.05e-9, "detectors.idler.jitter_sigma"),
        "dead_time_s": (float, 40e-9, "detectors.idler.dead_time"),
    },
    "gating": {
        "enabled": (_bool, True, "gating"),
        "cycle_s": (float, 100e-6, "gating.cycle"),
        "measure_fraction": (float, 0.45, "gating.measure_fraction"),
        "break_time_s": (float, 10e-6, "gating.break_time"),
        "conditional_gate_on_s": (float, 700e-9, "gating.conditional_gate_on"),
        "conditional_gate_off_s": (float, 1900e-9, "gating.conditional_gate_off"),
        "off_gate_attenuation": (float, 0.05, "gating.off_gate_attenuation"),
    },
    "run": {
        "duration_s": (float, 2.0, "duration_s"),
        "seed": (int, 1, "seed"),
        "pump_mw": (float, 1.0, "pump_mw"),
        "brightness_pairs_per_s_per_mw": (float, 2.5e5, "brightness_pairs_per_s_per_mw"),
        "reference_run": (_bool, True, "reference_run"),
    },
    "analysis": {
        "bin_width_s": (float, 0.2e-9, "analysis.bin_width_s"),
        "hist_min_s": (float, -0.5e-6, "analysis.hist_min_s"),
        "hist_max_s": (float, 2.2e-6, "analysis.hist_max_s"),
        "window_s": (float, 400e-9, "analysis.window_s"),
        "window_center_s": (_maybe(float), None, "analysis.window_center_s"),
        "floor_min_s": (float, 1.6e-6, "analysis.floor_min_s"),
        "floor_max_s": (float, 1.8e-6, "analysis.floor_max_s"),
        "fsr_peak_count": (int, 30, "analysis.fsr_peak_count"),
        "min_prominence": (_maybe(float), None, "analysis.min_prominence"),
        "classical_mode_count": (_maybe(int), None, "analysis.classical_mode_count"),
        "comb_fit_halfspan_s": (float, 250e-9, "analysis.comb_fit_halfspan_s"),
    },
    "sweep": {
        "kind": (_maybe(str), None, "sweep_kind"),
        "values": (_values, (), "sweep_values"),
    },
}

# "auto" (None) centers and AFC mode spacing take their cavity key's value
_FROM_CAVITY = {
    "phase_matching.envelope_center": "cavity.signal_center",
    "afc_plan.mode_spacing": "cavity.fsr_signal",
    "afc_plan.center_freq": "cavity.signal_center",
    "filters.signal.center": "cavity.signal_center",
    "filters.idler.center": "cavity.idler_center",
}

# target prefix -> the object it builds, in validation order
_TYPES = {"cavity": CavityParams, "phase_matching": PhaseMatching,
          "afc_plan": AfcPlan, "filters.signal": FilterSpec,
          "filters.idler": FilterSpec, "detectors.signal": DetectorModel,
          "detectors.idler": DetectorModel, "gating": GatingSequence,
          "analysis": AnalysisSettings}


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document; unknown keys are rejected."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc

    parsed = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown section [{section}]")
        for key, value in cp[section].items():
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")
            try:
                parsed[section, key] = _SCHEMA[section][key][0](value)
            except ValueError as exc:
                raise ScenarioError(
                    f"bad value for [{section}] {key}: {value!r}") from exc

    flat = {target: parsed.get((section, key), default)
            for section, rows in _SCHEMA.items()
            for key, (_, default, target) in rows.items()}
    for target, source in _FROM_CAVITY.items():
        if flat[target] is None:
            flat[target] = flat[source]
    # a switched-off block builds no object
    off = {block for block in _TYPES if not flat.pop(block, True)}
    groups: dict = {}   # target prefix -> keyword arguments
    for target, value in flat.items():
        prefix, _, name = target.rpartition(".")
        groups.setdefault(prefix, {})[name] = value
    top = groups[""]
    try:
        for prefix, cls in _TYPES.items():
            obj = None if prefix in off else cls(**groups[prefix])
            owner, _, channel = prefix.partition(".")
            top[owner] = {**top.get(owner, {}), channel: obj} if channel else obj
        return Scenario(**top)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _saved(s: Scenario, target: str, default):
    """Value the canonical document writes for one schema row."""
    if target in _TYPES:   # switch row
        return getattr(s, target) is not None
    *path, name = target.split(".")
    obj = s
    for p in path:   # a missing filter or detector channel is the plain model
        obj = (obj.get(p) or _TYPES[".".join(path)]() if isinstance(obj, dict)
               else getattr(obj, p))
        if obj is None:
            # switched-off block: table defaults, but a single-mode AFC plan
            return 1 if target == "afc_plan.mode_count" else default
    return getattr(obj, name)


def save_scenario(s: Scenario) -> str:
    """Canonical document for a scenario: every key, schema order."""
    lines = []
    for section, rows in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (_, default, target) in rows.items():
            lines.append(f"{key} = {_fmt(_saved(s, target, default))}")
        lines.append("")
    return "\n".join(lines)


def scenario_digest(s: Scenario) -> str:
    return hashlib.sha256(save_scenario(s).encode()).hexdigest()


# ---------------------------------------------------------------------------
# pipeline

def build_spectrum(s: Scenario):
    if s.spectrum_source == "comb":
        return comb_spectrum(s.cavity, s.comb_modes, s.phase_matching)
    clusters = cluster_spectrum(s.cavity, s.phase_matching)
    return mode_weights(clusters, s.phase_matching, s.cavity)


def source_model(s: Scenario) -> SourceModel:
    """Pair source of a scenario.  A spectrum the scenario describes but
    cannot build (an envelope that misses every cluster) raises
    SimulationError."""
    try:
        return SourceModel(spectrum=build_spectrum(s), cavity=s.cavity)
    except ParameterError as exc:
        raise SimulationError(str(exc)) from exc


def simulate(s: Scenario, source: SourceModel | None = None) -> EventStream:
    """Event stream of a scenario, from ``source`` (default: the scenario's
    own).  A model the scenario builds but cannot run raises
    SimulationError."""
    if source is None:
        source = source_model(s)
    try:
        return generate_events(source, s.pair_rate, s.afc_plan, s.filters,
                               s.detectors, s.gating, s.duration_s, s.seed)
    except ParameterError as exc:
        raise SimulationError(str(exc)) from exc


def _comb_bins(edges: np.ndarray, center_ps: int,
               halfspan_ps: int) -> tuple[int, int]:
    """Bin range [i0, i1) of the comb view: the floor(halfspan / width)
    bins on either side of the edge nearest the center, within the
    histogram."""
    w = int(edges[1] - edges[0])
    k, m = (2 * (center_ps - int(edges[0])) + w) // (2 * w), halfspan_ps // w
    i0, i1 = max(k - m, 0), min(k + m, len(edges) - 1)
    if i0 >= i1:
        raise ParameterError(f"comb view {center_ps} +- {halfspan_ps} ps has no bin")
    return i0, i1


def _comb_view(hist: an.CorrelationHistogram, center_ps: int,
               halfspan_ps: int) -> an.CorrelationHistogram:
    """The ``_comb_bins`` of the histogram, re-zeroed on the center."""
    i0, i1 = _comb_bins(hist.bin_edges_ps, center_ps, halfspan_ps)
    return an.CorrelationHistogram(
        counts=hist.counts[i0:i1],
        bin_edges_ps=hist.bin_edges_ps[i0:i1 + 1] - center_ps,
        total_start_counts=hist.total_start_counts,
        total_stop_counts=hist.total_stop_counts, duration=hist.duration)


def _floor_and_rate(s: Scenario, events: EventStream):
    """The steps a report and a single-mode reference share: the histogram
    of ``events`` under the analysis settings of ``s``, its noise floor
    (value, error) and the floor-subtracted coincidence rate in the window
    about ``s.window_center_ps``."""
    ps = s.analysis.ps
    hist = an.build_histogram(events, ps["bin_width_s"],
                              (ps["hist_min_s"], ps["hist_max_s"]))
    floor = an.noise_floor(hist, (ps["floor_min_s"], ps["floor_max_s"]))
    rate = an.coincidence_rate(hist, ps["window_s"], s.window_center_ps, *floor)
    return hist, floor, rate


def analyze_events(s: Scenario, events: EventStream,
                   rate_single: tuple[float, float] | None = None):
    """Histogram an event stream and derive the full report; the live
    time and singles are those of the scenario's gating."""
    hist, (floor, floor_err), rate = _floor_and_rate(s, events)
    center = s.window_center_ps
    prom = s.analysis.min_prominence
    if prom is None:
        prom = an.default_prominence(floor)

    # comb estimators work on delays relative to the analysis feature, and
    # share one peak list
    comb_hist = _comb_view(hist, center, s.analysis.ps["comb_fit_halfspan_s"])
    peaks = an.detect_peaks(comb_hist, prom)
    try:
        fsr = an.estimate_fsr(peaks, k_max=s.analysis.fsr_peak_count)
    except an.EstimationError:
        fsr = an.FsrEstimate(None, None, None, None)
    half_bin = comb_hist.bin_width_ps * 0.5e-12
    lw_s = lw_i = (None, None)
    try:
        lw_s = an.fit_peak_envelope(peaks, "positive", half_bin=half_bin,
                                    floor=floor)
        lw_i = an.fit_peak_envelope(peaks, "negative", half_bin=half_bin,
                                    floor=floor)
    except an.FitError:
        pass

    g2 = an.g2_estimate(events, s.analysis.ps["window_s"], center, s.gating)

    if rate_single is not None:
        try:
            n_eff, n_eff_err = an.effective_modes((rate.rate, rate.error),
                                                  rate_single)
        except an.EstimationError:
            # reference run collected no net coincidences; leave the mode
            # count undetermined rather than failing the whole analysis
            n_eff, n_eff_err = 0.0, 0.0
    else:
        n_eff, n_eff_err = 1.0, 0.0
    n_limit = s.analysis.classical_mode_count
    if n_limit is None:
        n_limit = max(1, round(n_eff))
    climit = an.classical_limit(n_limit)

    report = an.AnalysisReport(
        fsr_hz=fsr.fsr_hz, fsr_err_hz=fsr.fsr_err_hz,
        interval_s=fsr.interval_s, interval_err_s=fsr.interval_err_s,
        linewidth_signal_hz=lw_s[0], linewidth_signal_err_hz=lw_s[1],
        linewidth_idler_hz=lw_i[0], linewidth_idler_err_hz=lw_i[1],
        echo_delay_s=None if s.afc_plan is None else s.afc_plan.storage_time,
        noise_floor_counts=floor, noise_floor_err=floor_err,
        coincidence_rate_cps=rate.rate, coincidence_rate_err=rate.error,
        g2=g2.value, g2_err=g2.error,
        n_effective=n_eff, n_effective_err=n_eff_err,
        classical_limit=climit,
        nonclassical=bool(g2.value - g2.error > climit),
        provenance={
            "scenario_digest": scenario_digest(s),
            "seed": events.seed,
            "model_digest": events.model_digest,
            "version": 1,
        })
    return hist, report


@dataclass
class RunBundle:
    scenario: Scenario
    events: EventStream
    histogram: an.CorrelationHistogram
    report: an.AnalysisReport


def single_mode_reference(s: Scenario) -> Scenario:
    """Same scenario with a single-mode AFC, for effective-mode counting.
    Cavity, spectrum and pump are kept, so it runs from the same source."""
    return replace(s, afc_plan=replace(s.afc_plan, mode_count=1),
                   reference_run=False, sweep_kind=None, sweep_values=())


def reference_rate(s: Scenario, ref_events: EventStream) -> tuple[float, float]:
    """Floor-subtracted coincidence rate (value, error) of a single-mode
    reference run, analyzed with the settings of scenario ``s``."""
    rate = _floor_and_rate(s, ref_events)[2]
    return rate.rate, rate.error


def _reference(s: Scenario) -> Scenario | None:
    """Single-mode reference run of ``s``, with its seed; None when ``s``
    takes none (reference off, no memory, or a single-mode AFC)."""
    if not (s.reference_run and s.afc_plan is not None
            and s.afc_plan.mode_count > 1):
        return None
    return replace(single_mode_reference(s), seed=split_seed(s.seed, 0x5EF))


def _reference_rate(ref: Scenario, source: SourceModel) -> tuple[float, float]:
    # the rate only reads the reference's tooth spacing and analysis
    # settings, which it shares with every run it serves
    return reference_rate(ref, simulate(ref, source))


def _run_point(s: Scenario, source: SourceModel,
               rate_single: tuple[float, float] | None) -> RunBundle:
    events = simulate(s, source)
    hist, report = analyze_events(s, events, rate_single=rate_single)
    return RunBundle(scenario=s, events=events, histogram=hist, report=report)


def run_scenario(s: Scenario) -> RunBundle:
    """Deterministic end-to-end pipeline: spectrum, AFC, events, histogram,
    report.  A single-mode reference, when ``s`` takes one, runs first and
    from the same source."""
    return _run_points([s], map)[0]


def sweep_scenarios(s: Scenario) -> list[Scenario]:
    if s.sweep_kind is None or not s.sweep_values:
        raise ScenarioError("scenario has no sweep block")
    out = []
    for i, v in enumerate(s.sweep_values):
        seed = split_seed(s.seed, 1000 + i)
        if s.sweep_kind == "afc_modes":
            out.append(replace(s, afc_plan=replace(s.afc_plan, mode_count=int(v)),
                               seed=seed, sweep_kind=None, sweep_values=()))
        else:
            out.append(replace(s, pump_mw=float(v), seed=seed,
                               sweep_kind=None, sweep_values=()))
    return out


def _run_points(points: list[Scenario], mapper) -> list[RunBundle]:
    """Bundles of ``points``: one reference run per reference scenario,
    then every point, each step through ``mapper``.  All run from the
    first point's source: a sweep varies the AFC mode count or the pump,
    and neither changes the spectrum."""
    source = source_model(points[0])
    refs, keys = {}, []   # seedless reference text -> first point's reference
    for p in points:
        ref = _reference(p)
        keys.append(None if ref is None
                    else save_scenario(replace(ref, seed=0)))
        if ref is not None:
            refs.setdefault(keys[-1], ref)
    runs = list(refs.values())
    rates = dict(zip(refs, mapper(_reference_rate, runs,
                                  [source] * len(runs))))
    return list(mapper(_run_point, points, [source] * len(points),
                       [rates.get(k) for k in keys]))


def run_sweep(s: Scenario, jobs: int = 1) -> list[RunBundle]:
    """Every point of the sweep, in order, from one source.  Points whose
    single-mode references differ only in their seed share one reference
    run, which takes the seed the first of them would give its own.
    ``jobs`` > 1 runs the references, then the points, in a pool of at
    most one process per point."""
    points = sweep_scenarios(s)
    workers = min(jobs, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # tasks carry the unbuilt source: each process builds its own sampler
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _run_points(points, pool.map)
    return _run_points(points, map)
