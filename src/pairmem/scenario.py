"""Scenario configuration and the end-to-end pipeline.

Scenarios are flat, sectioned key-value documents (INI syntax) with units
spelled out in the key names.  An empty document resolves to the default
experiment: 123 MHz comb, 920 kHz AFC tooth spacing, 0.2 ns TIA bins,
400 ns coincidence window, 100 us gating cycle with 10 us breaks, a
5.58 GHz / 166 GHz / 50% etalon on the signal arm and a 10 GHz / 92% VBG
on the idler arm.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analysis as an
from .cavity import (CavityParams, PhaseMatching, cluster_spectrum,
                     comb_spectrum, mode_weights)
from .errors import ParameterError, ScenarioError, SimulationError
from .memory import AfcPlan, AfcProfile, FilterSpec, design_afc
from .montecarlo import (DetectorModel, EventStream, GatingSequence,
                         SourceModel, generate_events, split_seed)

# FSR_i chosen so the Vernier cluster spacing is 200 GHz at FSR_s = 123 MHz
_DEFAULT_FSR_SIGNAL = 123.0e6
_DEFAULT_CLUSTER_SPACING = 200e9
_DEFAULT_FSR_IDLER = _DEFAULT_FSR_SIGNAL / (
    1.0 + _DEFAULT_FSR_SIGNAL / _DEFAULT_CLUSTER_SPACING)
_SIGNAL_CENTER = 494.7e12   # ~606 nm
_IDLER_CENTER = 193.4e12    # ~1550 nm


@dataclass(frozen=True)
class AnalysisSettings:
    bin_width_s: float = 0.2e-9
    hist_min_s: float = -0.5e-6
    hist_max_s: float = 2.2e-6
    window_s: float = 400e-9
    window_center_s: float | None = None   # None: echo delay (or 0 w/o memory)
    floor_min_s: float = 1.6e-6
    floor_max_s: float = 1.8e-6
    fsr_peak_count: int = 30
    min_prominence: float | None = None    # None: 5 * sqrt(floor)
    classical_mode_count: int | None = None  # None: round(n_effective)
    # comb estimators only look this far from the analysis feature, to
    # stay clear of the conditional-gate steps in the noise floor
    comb_fit_halfspan_s: float = 250e-9


@dataclass
class Scenario:
    cavity: CavityParams
    phase_matching: PhaseMatching
    spectrum_source: str = "cluster"       # "cluster" | "comb"
    comb_modes: int = 83
    afc_enabled: bool = True
    afc_plan: AfcPlan | None = None
    afc_background_od: float = 0.0
    afc_efficiency_override: float | None = None
    afc_taper: str = "flat"
    afc_taper_fwhm_hz: float | None = None
    afc_echo_orders: int = 1
    filters: dict = field(default_factory=dict)
    detectors: dict = field(default_factory=dict)
    gating: GatingSequence | None = None
    duration_s: float = 2.0
    seed: int = 1
    pump_mw: float = 1.0
    brightness_pairs_per_s_per_mw: float = 2.5e5
    reference_run: bool = True
    analysis: AnalysisSettings = field(default_factory=AnalysisSettings)
    sweep_kind: str | None = None          # "afc_modes" | "pump_power"
    sweep_values: tuple = ()

    def __post_init__(self):
        if self.spectrum_source not in ("cluster", "comb"):
            raise ScenarioError(f"unknown spectrum source {self.spectrum_source!r}")
        if self.afc_enabled and self.afc_plan is not None:
            # the AFC mode grid must ride on the cavity comb
            rel = abs(self.afc_plan.mode_spacing - self.cavity.fsr_signal) \
                / self.cavity.fsr_signal
            if rel > 1e-6:
                raise ScenarioError(
                    "afc.mode_spacing_hz must match cavity.fsr_signal_hz "
                    f"(relative mismatch {rel:.2e})")
        if self.sweep_kind not in (None, "afc_modes", "pump_power"):
            raise ScenarioError(f"unknown sweep kind {self.sweep_kind!r}")
        for name in ("duration_s", "pump_mw", "brightness_pairs_per_s_per_mw"):
            if not getattr(self, name) >= 0:   # also rejects NaN
                raise ScenarioError(f"[run] {name} must be >= 0")

    @property
    def pair_rate(self) -> float:
        return self.pump_mw * self.brightness_pairs_per_s_per_mw


def default_scenario() -> Scenario:
    return load_scenario("")


# ---------------------------------------------------------------------------
# config document schema: section -> key -> (parser, formatter, default)

def _f(x):
    return float(x)


def _maybe(parser):
    def inner(x):
        return None if x in ("auto", "none", "") else parser(x)
    return inner


def _bool(x):
    if x.lower() in ("true", "yes", "1", "on"):
        return True
    if x.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {x!r}")


def _values(x):
    return tuple(float(v) for v in x.replace(",", " ").split())


_AUTO = object()

_SCHEMA = {
    "cavity": {
        "fsr_signal_hz": (_f, _DEFAULT_FSR_SIGNAL),
        "fsr_idler_hz": (_f, _DEFAULT_FSR_IDLER),
        "linewidth_signal_hz": (_f, 2.28e6),
        "linewidth_idler_hz": (_f, 1.52e6),
        "signal_center_hz": (_f, _SIGNAL_CENTER),
        "idler_center_hz": (_f, _IDLER_CENTER),
    },
    "phase_matching": {
        "envelope_center_hz": (_maybe(_f), None),  # default: signal center
        "envelope_fwhm_hz": (_f, 150e9),
        "envelope_shape": (str, "sinc_squared"),
    },
    "spectrum": {
        "source": (str, "cluster"),
        "comb_modes": (int, 83),
    },
    "afc": {
        "enabled": (_bool, True),
        "mode_count": (int, 83),
        "mode_spacing_hz": (_maybe(_f), None),     # default: fsr_signal
        "tooth_spacing_hz": (_f, 920e3),
        "per_mode_bandwidth_hz": (_f, 4e6),
        "finesse": (_f, 2.0),
        "peak_optical_depth": (_f, 2.0),
        "center_freq_hz": (_maybe(_f), None),      # default: signal center
        "background_od": (_f, 0.0),
        "efficiency_override": (_maybe(_f), None),
        "taper": (str, "flat"),
        "taper_fwhm_hz": (_maybe(_f), None),
        "echo_orders": (int, 1),
    },
    "filter.signal": {
        "kind": (str, "etalon"),
        "bandwidth_hz": (_f, 5.58e9),
        "fsr_hz": (_f, 166e9),
        "peak_transmittance": (_f, 0.5),
        "center_hz": (_maybe(_f), None),
        "stopband_transmittance": (_f, 0.0),
    },
    "filter.idler": {
        "kind": (str, "vbg"),
        "bandwidth_hz": (_f, 10e9),
        "fsr_hz": (_f, 0.0),
        "peak_transmittance": (_f, 0.92),
        "center_hz": (_maybe(_f), None),
        "stopband_transmittance": (_f, 0.0),
    },
    "detector.signal": {
        "efficiency": (_f, 0.6),
        "dark_rate_hz": (_f, 200.0),
        "jitter_sigma_s": (_f, 0.35e-9),
        "dead_time_s": (_f, 24e-9),
    },
    "detector.idler": {
        "efficiency": (_f, 0.85),
        "dark_rate_hz": (_f, 100.0),
        "jitter_sigma_s": (_f, 0.05e-9),
        "dead_time_s": (_f, 40e-9),
    },
    "gating": {
        "enabled": (_bool, True),
        "cycle_s": (_f, 100e-6),
        "measure_fraction": (_f, 0.45),
        "break_time_s": (_f, 10e-6),
        "conditional_gate_on_s": (_f, 700e-9),
        "conditional_gate_off_s": (_f, 1900e-9),
        "off_gate_attenuation": (_f, 0.05),
    },
    "run": {
        "duration_s": (_f, 2.0),
        "seed": (int, 1),
        "pump_mw": (_f, 1.0),
        "brightness_pairs_per_s_per_mw": (_f, 2.5e5),
        "reference_run": (_bool, True),
    },
    "analysis": {
        "bin_width_s": (_f, 0.2e-9),
        "hist_min_s": (_f, -0.5e-6),
        "hist_max_s": (_f, 2.2e-6),
        "window_s": (_f, 400e-9),
        "window_center_s": (_maybe(_f), None),
        "floor_min_s": (_f, 1.6e-6),
        "floor_max_s": (_f, 1.8e-6),
        "fsr_peak_count": (int, 30),
        "min_prominence": (_maybe(_f), None),
        "classical_mode_count": (_maybe(int), None),
        "comb_fit_halfspan_s": (_f, 250e-9),
    },
    "sweep": {
        "kind": (_maybe(str), None),
        "values": (_values, ()),
    },
}


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

    raw: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown section [{section}]")
        raw[section] = {}
        for key, value in cp[section].items():
            if key not in _SCHEMA[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")
            parser, _ = _SCHEMA[section][key]
            try:
                raw[section][key] = parser(value)
            except ValueError as exc:
                raise ScenarioError(
                    f"bad value for [{section}] {key}: {value!r}") from exc

    def get(section, key):
        parser, default = _SCHEMA[section][key]
        return raw.get(section, {}).get(key, default)

    try:
        cavity = CavityParams(
            fsr_signal=get("cavity", "fsr_signal_hz"),
            fsr_idler=get("cavity", "fsr_idler_hz"),
            linewidth_signal=get("cavity", "linewidth_signal_hz"),
            linewidth_idler=get("cavity", "linewidth_idler_hz"),
            signal_center=get("cavity", "signal_center_hz"),
            idler_center=get("cavity", "idler_center_hz"))
        pm_center = get("phase_matching", "envelope_center_hz")
        pm = PhaseMatching(
            envelope_center=cavity.signal_center if pm_center is None else pm_center,
            envelope_fwhm=get("phase_matching", "envelope_fwhm_hz"),
            envelope_shape=get("phase_matching", "envelope_shape"))
        afc_enabled = get("afc", "enabled")
        plan = None
        if afc_enabled:
            spacing = get("afc", "mode_spacing_hz")
            center = get("afc", "center_freq_hz")
            plan = AfcPlan(
                mode_count=get("afc", "mode_count"),
                mode_spacing=cavity.fsr_signal if spacing is None else spacing,
                tooth_spacing=get("afc", "tooth_spacing_hz"),
                per_mode_bandwidth=get("afc", "per_mode_bandwidth_hz"),
                finesse=get("afc", "finesse"),
                peak_optical_depth=get("afc", "peak_optical_depth"),
                center_freq=cavity.signal_center if center is None else center)
        filters = {}
        for ch, default_center in (("signal", cavity.signal_center),
                                   ("idler", cavity.idler_center)):
            sec = f"filter.{ch}"
            kind = get(sec, "kind")
            center = get(sec, "center_hz")
            filters[ch] = FilterSpec(
                kind=kind,
                bandwidth=get(sec, "bandwidth_hz"),
                fsr=get(sec, "fsr_hz"),
                peak_transmittance=get(sec, "peak_transmittance"),
                center=default_center if center is None else center,
                stopband_transmittance=get(sec, "stopband_transmittance"))
        detectors = {
            ch: DetectorModel(
                efficiency=get(f"detector.{ch}", "efficiency"),
                dark_rate=get(f"detector.{ch}", "dark_rate_hz"),
                jitter_sigma=get(f"detector.{ch}", "jitter_sigma_s"),
                dead_time=get(f"detector.{ch}", "dead_time_s"))
            for ch in ("signal", "idler")}
        gating = None
        if get("gating", "enabled"):
            gating = GatingSequence(
                cycle=get("gating", "cycle_s"),
                measure_fraction=get("gating", "measure_fraction"),
                break_time=get("gating", "break_time_s"),
                conditional_gate_on=get("gating", "conditional_gate_on_s"),
                conditional_gate_off=get("gating", "conditional_gate_off_s"),
                off_gate_attenuation=get("gating", "off_gate_attenuation"))
        settings = AnalysisSettings(
            bin_width_s=get("analysis", "bin_width_s"),
            hist_min_s=get("analysis", "hist_min_s"),
            hist_max_s=get("analysis", "hist_max_s"),
            window_s=get("analysis", "window_s"),
            window_center_s=get("analysis", "window_center_s"),
            floor_min_s=get("analysis", "floor_min_s"),
            floor_max_s=get("analysis", "floor_max_s"),
            fsr_peak_count=get("analysis", "fsr_peak_count"),
            min_prominence=get("analysis", "min_prominence"),
            classical_mode_count=get("analysis", "classical_mode_count"),
            comb_fit_halfspan_s=get("analysis", "comb_fit_halfspan_s"))
        return Scenario(
            cavity=cavity, phase_matching=pm,
            spectrum_source=get("spectrum", "source"),
            comb_modes=get("spectrum", "comb_modes"),
            afc_enabled=afc_enabled, afc_plan=plan,
            afc_background_od=get("afc", "background_od"),
            afc_efficiency_override=get("afc", "efficiency_override"),
            afc_taper=get("afc", "taper"),
            afc_taper_fwhm_hz=get("afc", "taper_fwhm_hz"),
            afc_echo_orders=get("afc", "echo_orders"),
            filters=filters, detectors=detectors, gating=gating,
            duration_s=get("run", "duration_s"),
            seed=get("run", "seed"),
            pump_mw=get("run", "pump_mw"),
            brightness_pairs_per_s_per_mw=get("run", "brightness_pairs_per_s_per_mw"),
            reference_run=get("run", "reference_run"),
            analysis=settings,
            sweep_kind=get("sweep", "kind"),
            sweep_values=get("sweep", "values"))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def save_scenario(s: Scenario) -> str:
    """Canonical document for a scenario: every key, schema order."""
    values = {
        "cavity": {
            "fsr_signal_hz": s.cavity.fsr_signal,
            "fsr_idler_hz": s.cavity.fsr_idler,
            "linewidth_signal_hz": s.cavity.linewidth_signal,
            "linewidth_idler_hz": s.cavity.linewidth_idler,
            "signal_center_hz": s.cavity.signal_center,
            "idler_center_hz": s.cavity.idler_center,
        },
        "phase_matching": {
            "envelope_center_hz": s.phase_matching.envelope_center,
            "envelope_fwhm_hz": s.phase_matching.envelope_fwhm,
            "envelope_shape": s.phase_matching.envelope_shape,
        },
        "spectrum": {"source": s.spectrum_source, "comb_modes": s.comb_modes},
        "afc": {
            "enabled": s.afc_enabled,
            "mode_count": s.afc_plan.mode_count if s.afc_plan else 1,
            "mode_spacing_hz": s.afc_plan.mode_spacing if s.afc_plan else None,
            "tooth_spacing_hz": s.afc_plan.tooth_spacing if s.afc_plan else 920e3,
            "per_mode_bandwidth_hz": (s.afc_plan.per_mode_bandwidth
                                      if s.afc_plan else 4e6),
            "finesse": s.afc_plan.finesse if s.afc_plan else 2.0,
            "peak_optical_depth": (s.afc_plan.peak_optical_depth
                                   if s.afc_plan else 2.0),
            "center_freq_hz": s.afc_plan.center_freq if s.afc_plan else None,
            "background_od": s.afc_background_od,
            "efficiency_override": s.afc_efficiency_override,
            "taper": s.afc_taper,
            "taper_fwhm_hz": s.afc_taper_fwhm_hz,
            "echo_orders": s.afc_echo_orders,
        },
        "gating": {
            "enabled": s.gating is not None,
            "cycle_s": s.gating.cycle if s.gating else 100e-6,
            "measure_fraction": s.gating.measure_fraction if s.gating else 0.45,
            "break_time_s": s.gating.break_time if s.gating else 10e-6,
            "conditional_gate_on_s": (s.gating.conditional_gate_on
                                      if s.gating else 700e-9),
            "conditional_gate_off_s": (s.gating.conditional_gate_off
                                       if s.gating else 1900e-9),
            "off_gate_attenuation": (s.gating.off_gate_attenuation
                                     if s.gating else 0.05),
        },
        "run": {
            "duration_s": s.duration_s,
            "seed": s.seed,
            "pump_mw": s.pump_mw,
            "brightness_pairs_per_s_per_mw": s.brightness_pairs_per_s_per_mw,
            "reference_run": s.reference_run,
        },
        "analysis": {
            "bin_width_s": s.analysis.bin_width_s,
            "hist_min_s": s.analysis.hist_min_s,
            "hist_max_s": s.analysis.hist_max_s,
            "window_s": s.analysis.window_s,
            "window_center_s": s.analysis.window_center_s,
            "floor_min_s": s.analysis.floor_min_s,
            "floor_max_s": s.analysis.floor_max_s,
            "fsr_peak_count": s.analysis.fsr_peak_count,
            "min_prominence": s.analysis.min_prominence,
            "classical_mode_count": s.analysis.classical_mode_count,
            "comb_fit_halfspan_s": s.analysis.comb_fit_halfspan_s,
        },
        "sweep": {"kind": s.sweep_kind, "values": s.sweep_values},
    }
    for ch in ("signal", "idler"):
        flt = s.filters.get(ch)
        values[f"filter.{ch}"] = {
            "kind": flt.kind if flt else "none",
            "bandwidth_hz": flt.bandwidth if flt else 0.0,
            "fsr_hz": flt.fsr if flt else 0.0,
            "peak_transmittance": flt.peak_transmittance if flt else 1.0,
            "center_hz": flt.center if flt else None,
            "stopband_transmittance": flt.stopband_transmittance if flt else 0.0,
        }
        det = s.detectors.get(ch, DetectorModel())
        values[f"detector.{ch}"] = {
            "efficiency": det.efficiency,
            "dark_rate_hz": det.dark_rate,
            "jitter_sigma_s": det.jitter_sigma,
            "dead_time_s": det.dead_time,
        }
    lines = []
    for section in _SCHEMA:
        lines.append(f"[{section}]")
        for key in _SCHEMA[section]:
            lines.append(f"{key} = {_fmt(values[section][key])}")
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


def build_profile(s: Scenario) -> AfcProfile | None:
    if not s.afc_enabled or s.afc_plan is None:
        return None
    return design_afc(
        s.afc_plan,
        efficiency_override=s.afc_efficiency_override,
        taper=s.afc_taper, taper_fwhm_hz=s.afc_taper_fwhm_hz,
        background_od=s.afc_background_od, echo_orders=s.afc_echo_orders)


def simulate(s: Scenario, seed: int | None = None) -> EventStream:
    """Event stream of a scenario.  A model the scenario builds but cannot
    run (for example an envelope that misses every cluster) raises
    SimulationError."""
    try:
        spectrum = build_spectrum(s)
        source = SourceModel(pair_rate=s.pair_rate, spectrum=spectrum,
                             cavity=s.cavity)
        return generate_events(source, build_profile(s), s.filters,
                               s.detectors, s.gating, s.duration_s,
                               s.seed if seed is None else seed)
    except ParameterError as exc:
        raise SimulationError(str(exc)) from exc


def _histogram(s: Scenario, events: EventStream) -> an.CorrelationHistogram:
    cfg = an.HistogramConfig(bin_width=s.analysis.bin_width_s,
                             range=(s.analysis.hist_min_s, s.analysis.hist_max_s))
    return an.build_histogram(events, cfg)


def _comb_view(hist: an.CorrelationHistogram, center: float,
               halfspan: float) -> an.CorrelationHistogram:
    """Histogram restricted to |delay - center| <= halfspan, re-zeroed on
    the center."""
    edges = hist.bin_edges - center
    sel = (edges[:-1] >= -halfspan) & (edges[1:] <= halfspan)
    i = np.flatnonzero(sel)
    return an.CorrelationHistogram(
        counts=hist.counts[i[0]:i[-1] + 1], bin_edges=edges[i[0]:i[-1] + 2],
        total_start_counts=hist.total_start_counts,
        total_stop_counts=hist.total_stop_counts, duration=hist.duration)


def analyze_events(s: Scenario, events: EventStream,
                   rate_single: tuple[float, float] | None = None,
                   n_effective: tuple[float, float] | None = None):
    """Histogram an event stream and derive the full report."""
    # event files carry no gating block; the scenario is the source of
    # truth for live-time normalization.  Patch a copy, not the caller's
    # stream (the arrays are shared, not copied).
    if "gating" not in events.metadata and s.gating is not None:
        events = replace(events, metadata={**events.metadata,
                                           "gating": asdict(s.gating)})
    hist = _histogram(s, events)

    profile = build_profile(s)
    echo_delay = profile.storage_time if profile is not None else None
    center = s.analysis.window_center_s
    if center is None:
        center = echo_delay if echo_delay is not None else 0.0

    floor, floor_err = an.noise_floor(
        hist, (s.analysis.floor_min_s, s.analysis.floor_max_s))
    prom = s.analysis.min_prominence
    if prom is None:
        prom = max(5.0 * math.sqrt(max(floor, 0.0)), 1.0)

    # comb estimators work on delays relative to the analysis feature
    comb_hist = _comb_view(hist, center, s.analysis.comb_fit_halfspan_s)
    try:
        fsr = an.estimate_fsr(an.detect_peaks(comb_hist, prom),
                              k_max=s.analysis.fsr_peak_count)
    except an.EstimationError:
        fsr = an.FsrEstimate(None, None, None, None)
    lw_s = lw_i = (None, None)
    try:
        lw_s = an.fit_envelope(comb_hist, "positive", floor=floor,
                               min_prominence=prom)
        lw_i = an.fit_envelope(comb_hist, "negative", floor=floor,
                               min_prominence=prom)
    except an.FitError:
        pass

    rate = an.coincidence_rate(hist, s.analysis.window_s, center,
                               floor, floor_err)
    g2 = an.g2_estimate(events, s.analysis.window_s, center)

    if n_effective is not None:
        n_eff, n_eff_err = n_effective
    elif rate_single is not None:
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
        echo_delay_s=echo_delay,
        noise_floor_counts=floor, noise_floor_err=floor_err,
        coincidence_rate_cps=rate.rate, coincidence_rate_err=rate.error,
        g2=g2.value, g2_err=g2.error,
        n_effective=n_eff, n_effective_err=n_eff_err,
        classical_limit=climit,
        nonclassical=bool(g2.value - g2.error > climit),
        provenance={
            "scenario_digest": scenario_digest(s),
            "seed": events.metadata.get("seed"),
            "model_digest": events.metadata.get("model_digest"),
            "version": 1,
        })
    return hist, report


@dataclass
class RunBundle:
    scenario: Scenario
    digest: str
    events: EventStream
    histogram: an.CorrelationHistogram
    report: an.AnalysisReport

    def __post_init__(self):
        if self.report.provenance.get("scenario_digest") != self.digest:
            raise ScenarioError("report digest does not match scenario digest")


def single_mode_reference(s: Scenario) -> Scenario:
    """Same scenario with a single-mode AFC, for effective-mode counting."""
    return replace(s, afc_plan=replace(s.afc_plan, mode_count=1),
                   reference_run=False, sweep_kind=None, sweep_values=())


def reference_rate(s: Scenario, ref_events: EventStream) -> tuple[float, float]:
    """Floor-subtracted coincidence rate (value, error) of a single-mode
    reference run, analyzed with the settings of scenario ``s``."""
    ref_hist = _histogram(s, ref_events)
    profile = build_profile(s)
    center = s.analysis.window_center_s
    if center is None:
        center = profile.storage_time if profile else 0.0
    floor, floor_err = an.noise_floor(
        ref_hist, (s.analysis.floor_min_s, s.analysis.floor_max_s))
    r = an.coincidence_rate(ref_hist, s.analysis.window_s, center,
                            floor, floor_err)
    return r.rate, r.error


def run_scenario(s: Scenario) -> RunBundle:
    """Deterministic end-to-end pipeline: spectrum, AFC, events, histogram,
    report."""
    events = simulate(s)
    rate_single = None
    if (s.reference_run and s.afc_enabled and s.afc_plan is not None
            and s.afc_plan.mode_count > 1):
        ref = single_mode_reference(s)
        rate_single = reference_rate(
            ref, simulate(ref, seed=split_seed(s.seed, 0x5EF)))
    hist, report = analyze_events(s, events, rate_single=rate_single)
    return RunBundle(scenario=s, digest=scenario_digest(s), events=events,
                     histogram=hist, report=report)


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


def run_sweep(s: Scenario, jobs: int = 1) -> list[RunBundle]:
    points = sweep_scenarios(s)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_scenario, points))
    return [run_scenario(p) for p in points]
