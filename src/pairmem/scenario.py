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

from . import analysis as an, eventio
from .cavity import (MAX_MODES, CavityParams, PhaseMatching, cluster_spectrum,
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
    min_prominence: float | None           # None: analysis.prominence's rule
    classical_mode_count: int | None       # None: round(n_effective)
    # comb estimators only look this far from the analysis feature, to
    # stay clear of the conditional-gate steps in the noise floor
    comb_fit_halfspan_s: float

    def __post_init__(self):   # load_scenario names the section
        for name in ("bin_width_s", "window_s", "comb_fit_halfspan_s"):
            if not 0 < getattr(self, name) < math.inf:    # also rejects NaN
                raise ParameterError(f"{name} must be finite and > 0")
        for name in ("fsr_peak_count", "classical_mode_count"):
            n = getattr(self, name)   # None: auto
            if n is not None and n < 1:
                raise ParameterError(f"{name} must be >= 1")
        for lo, hi in (("hist_min_s", "hist_max_s"), ("floor_min_s", "floor_max_s")):
            if not -math.inf < getattr(self, lo) < getattr(self, hi) < math.inf:
                raise ParameterError(f"need finite {lo} < {hi}")
        prom = self.min_prominence   # None: auto
        if prom is not None and not -math.inf < prom < math.inf:
            raise ParameterError("min_prominence must be finite")
        # self.ps: every time setting but an auto center, in whole ps
        object.__setattr__(self, "ps", {
            k: whole_ps(v, k)
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
        if not 1 <= self.comb_modes <= MAX_MODES:
            raise ScenarioError(f"[spectrum] comb_modes must lie in [1, {MAX_MODES}]")
        for name in ("duration_s", "pump_mw", "brightness_pairs_per_s_per_mw"):
            if not 0 <= getattr(self, name) < math.inf:   # also rejects NaN
                raise ScenarioError(f"[run] {name} must be finite and >= 0")
        if not self.duration_s * 1e12 < 2 ** 63:   # the generator's int64 ps
            raise ScenarioError("[run] duration_s must lie below 2**63 ps")
        if not 0 <= self.seed < 2 ** 64:   # event files store it as u64
            raise ScenarioError("[run] seed must lie in [0, 2**64)")
        # the analysis geometry, checked by the estimators' own bin selections
        ps, center = self.analysis.ps, self.window_center_ps
        try:
            edges = an.histogram_edges(ps["bin_width_s"],
                                       (ps["hist_min_s"], ps["hist_max_s"]))
            an.floor_bins(edges, (ps["floor_min_s"], ps["floor_max_s"]))
            an.window_bins(edges, ps["window_s"], center)
            an.comb_bins(edges, center, ps["comb_fit_halfspan_s"])
        except ParameterError as exc:
            raise ScenarioError(f"[analysis] {exc}") from exc
        if self.sweep_kind is not None:   # each point is a scenario of its own
            sweep_scenarios(self)

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
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(float(value))   # a numpy float reprs as np.float64(...)
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
    for prefix, cls in _TYPES.items():
        try:
            obj = None if prefix in off else cls(**groups[prefix])
        except ParameterError as exc:   # named by the section of its rows
            section = next(sec for sec, rows in _SCHEMA.items() if any(
                target.startswith(f"{prefix}.") for *_, target in rows.values()))
            raise ScenarioError(f"[{section}] {exc}") from exc
        owner, _, channel = prefix.partition(".")
        top[owner] = {**top.get(owner, {}), channel: obj} if channel else obj
    return Scenario(**top)


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
    index = cluster_spectrum(s.cavity, s.phase_matching)
    return mode_weights(index, s.phase_matching, s.cavity)


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
    own).  A model the scenario builds but cannot run, or whose arrays do
    not fit in memory, raises SimulationError."""
    if source is None:
        source = source_model(s)
    try:
        return generate_events(source, s.pair_rate, s.afc_plan, s.filters,
                               s.detectors, s.gating, s.duration_s, s.seed)
    except ParameterError as exc:
        raise SimulationError(str(exc)) from exc


def _count(s: Scenario, events, gating=None) -> tuple[an.PairCounter, EventStream]:
    """The ``PairCounter`` over the histogram of the analysis settings of
    ``s``, with the singles of ``gating`` (a GatingSequence), fed
    ``events``: an EventStream, counted in the blocks ``eventio.chunks``
    walks, or the consecutive blocks of one that ``eventio.read_chunks``
    yields.  Returns it and the last block."""
    ps = s.analysis.ps
    counter = an.PairCounter(an.histogram_edges(
        ps["bin_width_s"], (ps["hist_min_s"], ps["hist_max_s"])), gating)
    for block in eventio.chunks(events) if isinstance(events, EventStream) else events:
        counter.add(block)
    return counter.close(), block


def _floor_and_rate(s: Scenario, hist: an.CorrelationHistogram):
    """The steps a report and a single-mode reference share: the noise
    floor (value, error) of a histogram under the analysis settings of
    ``s``, and the floor-subtracted coincidence rate in the window about
    ``s.window_center_ps``."""
    ps = s.analysis.ps
    floor = an.noise_floor(hist, (ps["floor_min_s"], ps["floor_max_s"]))
    return floor, an.coincidence_rate(hist, ps["window_s"], s.window_center_ps,
                                      *floor)


def _estimate(fallback, estimator, *args, **kwargs):
    """The (value, error) of ``estimator``, or ``fallback`` when it fails:
    the one place a failed estimate enters a report."""
    try:
        return estimator(*args, **kwargs)
    except an.EstimationError:
        return fallback


def _modes(s: Scenario, rate: tuple[float, float], g2: tuple[float, float],
           rate_single: tuple[float, float] | None) -> dict:
    """Report fields that read another run: N_eff, ``rate`` over single-mode
    ``rate_single`` (None: one mode), and its classical limit and ``g2`` verdict."""
    # a reference with no net coincidences leaves the mode count undetermined
    n_eff, n_eff_err = ((1.0, 0.0) if rate_single is None else
                        _estimate((0.0, 0.0), an.effective_modes, rate, rate_single))
    climit = an.classical_limit(   # a classical_mode_count of None: round(n_eff)
        s.analysis.classical_mode_count or max(1, round(n_eff)))
    return dict(n_effective=n_eff, n_effective_err=n_eff_err,
                classical_limit=climit, nonclassical=bool(g2[0] - g2[1] > climit))


def analyze_events(s: Scenario, events,
                   rate_single: tuple[float, float] | None = None):
    """Histogram an event stream (an EventStream, or its blocks in time
    order) and derive the full report; the live time and singles are
    those of the scenario's gating.  One pass counts every pair, then the
    report is assembled from the counts; ``rate_single`` enters by ``_modes``."""
    center = s.window_center_ps
    counter, head = _count(s, events, s.gating)
    hist = counter.histogram(head.duration_ps)
    g2, g2_err = counter.g2(head.duration_ps, s.analysis.ps["window_s"], center)
    (floor, floor_err), rate = _floor_and_rate(s, hist)

    # comb estimators work on delays relative to the analysis feature, and
    # share one peak list
    comb_hist = an.comb_view(hist, center, s.analysis.ps["comb_fit_halfspan_s"])
    peaks = an.detect_peaks(comb_hist, an.prominence(s.analysis.min_prominence,
                                                     floor))
    dt, dt_err = _estimate((None, None), an.estimate_fsr, peaks,
                           k_max=s.analysis.fsr_peak_count)
    half_bin = comb_hist.bin_width_ps * 0.5e-12
    lw_s, lw_i = (_estimate((None, None), an.fit_peak_envelope, peaks, side,
                            half_bin=half_bin, floor=floor)
                  for side in ("positive", "negative"))   # each side on its own
    report = an.AnalysisReport(
        fsr_hz=None if dt is None else 1.0 / dt,
        fsr_err_hz=None if dt is None else dt_err / dt ** 2,
        interval_s=dt, interval_err_s=dt_err,
        linewidth_signal_hz=lw_s[0], linewidth_signal_err_hz=lw_s[1],
        linewidth_idler_hz=lw_i[0], linewidth_idler_err_hz=lw_i[1],
        echo_delay_s=None if s.afc_plan is None else s.afc_plan.storage_time,
        noise_floor_counts=floor, noise_floor_err=floor_err,
        coincidence_rate_cps=rate[0], coincidence_rate_err=rate[1],
        g2=g2, g2_err=g2_err, **_modes(s, rate, (g2, g2_err), rate_single),
        provenance={
            "scenario_digest": scenario_digest(s),
            "seed": head.seed,
            "model_digest": head.model_digest,
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
    """The single-mode reference that ``run_scenario(s)`` simulates for
    effective-mode counting, at seed ``split_seed(s.seed, 0x5EF)``.  Cavity,
    spectrum and pump are kept, so it runs from the same source."""
    return replace(s, afc_plan=replace(s.afc_plan, mode_count=1),
                   seed=split_seed(s.seed, 0x5EF), reference_run=False,
                   sweep_kind=None, sweep_values=())


def reference_rate(s: Scenario, ref_events) -> tuple[float, float]:
    """Floor-subtracted coincidence rate (value, error) of a single-mode
    reference run (an EventStream, or its blocks in time order), analyzed
    with the settings of scenario ``s``."""
    counter, head = _count(s, ref_events)
    return _floor_and_rate(s, counter.histogram(head.duration_ps))[1]


def _reference(s: Scenario) -> Scenario | None:
    """Single-mode reference run of ``s``; None when ``s`` takes none
    (reference off, no memory, or a single-mode AFC)."""
    takes = s.reference_run and s.afc_plan is not None and s.afc_plan.mode_count > 1
    return single_mode_reference(s) if takes else None


def run_scenario(s: Scenario) -> RunBundle:
    """Deterministic end-to-end pipeline: spectrum, AFC, events, histogram,
    report.  A single-mode reference, when ``s`` takes one, runs first and
    from the same source; only its rate is kept, to set N_eff after the run."""
    return _run_points([s], map)[0]


def sweep_scenarios(s: Scenario) -> list[Scenario]:
    """The scenario of each sweep point, in order and with no sweep block,
    checked by the records it runs: a point they reject names the sweep."""
    kind = s.sweep_kind
    if kind not in ("afc_modes", "pump_power"):
        raise ScenarioError("scenario has no sweep block" if kind is None
                            else f"unknown sweep kind {kind!r}")
    if kind == "afc_modes" and s.afc_plan is None:
        raise ScenarioError("an afc_modes sweep needs [afc] enabled")
    # float(): int has no is_integer before Python 3.12
    if kind == "afc_modes" and not all(float(v).is_integer() for v in s.sweep_values):
        raise ScenarioError("[sweep] afc_modes values must be whole numbers")
    out = []
    for i, v in enumerate(s.sweep_values):
        try:
            point = ({"afc_plan": replace(s.afc_plan, mode_count=int(v))}
                     if kind == "afc_modes" else {"pump_mw": float(v)})
            out.append(replace(s, seed=split_seed(s.seed, 1000 + i),
                               sweep_kind=None, sweep_values=(), **point))
        except (ParameterError, ScenarioError) as exc:
            raise ScenarioError(f"[sweep] {kind} point: {exc}") from exc
    return out


def _run_points(points: list[Scenario], mapper) -> list[RunBundle]:
    """Bundles of ``points``, all from the first point's source: a sweep
    varies the AFC mode count or the pump, and neither changes the
    spectrum.  Each run is keyed by its text with no seed and no reference,
    and runs once, in one ``mapper`` pass of ``simulate``: the references
    that no point holds, then every point.  Each stream is counted here as
    it returns, a reference's into its rate (dropped before the next run)
    and a point's into its report; then ``_modes`` joins them."""
    source = source_model(points[0])
    source.sampler   # built once, here: a pool's tasks receive it pickled

    def key(x):   # the model a run simulates: no seed, no reference
        return save_scenario(replace(x, seed=0, reference_run=False))
    keys, refs, served = [key(p) for p in points], {}, []
    for p in points:   # refs: each key's first reference that no point holds
        ref = _reference(p)
        served.append(None if ref is None else key(ref))
        if ref is not None and served[-1] not in keys:
            refs.setdefault(served[-1], ref)
    runs = [*refs.values(), *points]
    streams = mapper(simulate, runs, [source] * len(runs))
    # a rate reads the echo delay and analysis that a reference shares with its runs
    rates = {k: reference_rate(ref, next(streams)) for k, ref in refs.items()}
    bundles = [RunBundle(p, events, *analyze_events(p, events))
               for p, events in zip(points, streams)]
    own = [(b.report.coincidence_rate_cps, b.report.coincidence_rate_err)
           for b in bundles]
    for b, k, rate in zip(bundles, served, own):
        if k is not None:   # the first point that holds a reference's key is it
            b.report = replace(b.report, **_modes(
                b.scenario, rate, (b.report.g2, b.report.g2_err),
                rates[k] if k in rates else own[keys.index(k)]))
    return bundles


def run_sweep(s: Scenario, jobs: int = 1) -> list[RunBundle]:
    """Every point of the sweep, in order, from one source.  Points whose
    single-mode references differ only in their seed share one reference
    run.  When a point runs that reference's model (the single-mode point
    of an afc_modes sweep), that point's run is the reference; otherwise
    the reference takes the seed the first of them would give its own.
    ``jobs`` > 1 runs them all in a pool of at most one process per point,
    whose workers only simulate: this process counts each stream."""
    points = sweep_scenarios(s)
    if not points:
        raise ScenarioError("scenario has no sweep block")
    workers = min(jobs, len(points))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return _run_points(points, pool.map)
    return _run_points(points, map)
