"""Acceptance gate: one test per criterion.

The ``pytest -v`` status line of each test is the pass/fail line for that
criterion; each test also prints a one-line summary with the measured
numbers (visible with ``-s`` or on failure).
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pairmem as pm
from pairmem.analysis import CorrelationHistogram
from pairmem.montecarlo import DelaySampler

from conftest import shuffle_channel

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BIN = 0.2e-9
SPAN = 300e-9


@pytest.fixture(scope="module")
def cavity():
    return pm.default_scenario().cavity


@pytest.fixture(scope="module")
def delay_run(cavity):
    """10^7 exact delay samples from the 83-mode comb, binned at 0.2 ns."""
    spec = pm.comb_spectrum(cavity, 83)
    t0 = time.perf_counter()
    sampler = DelaySampler(spec, cavity)
    tau = sampler.sample(pm.make_rng(2026), 10_000_000)
    edges = np.arange(-SPAN, SPAN + BIN / 2, BIN)
    counts, _ = np.histogram(tau, bins=edges)
    elapsed = time.perf_counter() - t0
    hist = CorrelationHistogram(counts=counts.astype(np.int64),
                                bin_edges_ps=np.rint(edges * 1e12),
                                total_start_counts=1,
                                total_stop_counts=1, duration=1.0)
    return spec, hist, elapsed


@pytest.fixture(scope="module")
def calibration_bundle():
    text = (SCENARIO_DIR / "calibration_1mw.cfg").read_text()
    return pm.run_scenario(pm.load_scenario(text))


def test_criterion_1_sampler_matches_analytic_curve(cavity, delay_run):
    spec, hist, elapsed = delay_run
    # bin-averaged analytic curve (8 sub-samples per 0.2 ns bin)
    sub = 8
    fine = hist.bin_edges_ps[0] * 1e-12 \
        + (np.arange(len(hist.counts) * sub) + 0.5) * (BIN / sub)
    g = pm.analytic_g2(spec, cavity, fine).reshape(-1, sub).mean(axis=1)
    h = hist.counts.astype(float)
    scale = float(h @ g) / float(g @ g)
    rel_l2 = float(np.linalg.norm(h - scale * g) / np.linalg.norm(h))
    print(f"criterion 1: rel L2 = {rel_l2:.2%} (< 3%), "
          f"runtime = {elapsed:.1f} s (< 120 s)")
    assert rel_l2 < 0.03
    assert elapsed < 120.0


def test_criterion_2_fsr_recovery(delay_run):
    _, hist, _ = delay_run
    prom = float(hist.counts.max()) / 100.0
    peaks = pm.detect_peaks(hist, prom)
    est = pm.estimate_fsr(peaks, k_max=30)
    print(f"criterion 2: FSR = {est.fsr_hz / 1e6:.3f} MHz "
          f"(123.0 +- 0.5), dt = {est.interval_s * 1e9:.3f} ns "
          f"(8.13 +- 0.05)")
    assert est.fsr_hz == pytest.approx(123.0e6, abs=0.5e6)
    assert est.interval_s == pytest.approx(8.13e-9, abs=0.05e-9)


def test_criterion_3_linewidth_recovery(cavity, delay_run):
    _, hist, _ = delay_run
    prom = float(hist.counts.max()) / 200.0
    lw_s, _ = pm.fit_envelope(hist, "positive", min_prominence=prom)
    lw_i, _ = pm.fit_envelope(hist, "negative", min_prominence=prom)
    print(f"criterion 3: signal {lw_s / 1e6:.3f} MHz (2.28 +- 5%), "
          f"idler {lw_i / 1e6:.3f} MHz (1.52 +- 5%)")
    assert lw_s == pytest.approx(cavity.linewidth_signal, rel=0.05)
    assert lw_i == pytest.approx(cavity.linewidth_idler, rel=0.05)


def test_criterion_4_echo_timing(calibration_bundle):
    # clean high-statistics run: ideal detectors and no filters, so the
    # leading tooth of the echo comb is resolved well above its neighbors
    # (they sit only ~8% lower through the envelope decay)
    s = pm.default_scenario()
    s = replace(
        s, spectrum_source="comb", duration_s=1.0, seed=4001,
        reference_run=False,
        afc_plan=replace(s.afc_plan, efficiency_override=0.4),
        filters={"signal": pm.FilterSpec(), "idler": pm.FilterSpec()},
        detectors={"signal": pm.DetectorModel(), "idler": pm.DetectorModel()})
    bundle = pm.run_scenario(s)
    hist = bundle.histogram
    expect = 1.0 / 920e3
    floor, _ = pm.noise_floor(hist, (1_600_000, 1_800_000))
    prom = max(5.0 * math.sqrt(max(floor, 0.0)), 1.0)
    peaks = pm.detect_peaks(hist, prom)
    # leading echo peak: the tallest comb tooth near the storage time
    near = [(d, h) for d, h in peaks if abs(d - expect) < 20e-9]
    assert near, "no comb peak near the storage time"
    d, _ = max(near, key=lambda p: p[1])
    off_bins = (d - expect) / (hist.bin_width_ps * 1e-12)
    print(f"criterion 4: echo peak at {d * 1e9:.2f} ns, "
          f"offset {off_bins:+.2f} bins (|offset| <= 2)")
    assert abs(d - expect) <= 2 * hist.bin_width_ps * 1e-12
    assert calibration_bundle.report.echo_delay_s == pytest.approx(expect)


def test_criterion_5_classical_limit_behavior(calibration_bundle):
    assert pm.classical_limit(33) == 1.0 + 1.0 / 33  # exact float identity

    rep = calibration_bundle.report
    limit33 = pm.classical_limit(33)

    # uncorrelated control: shuffle the idler channel of the same run
    s = calibration_bundle.scenario
    shuffled = shuffle_channel(calibration_bundle.events, "idler", seed=404,
                               gating=s.gating)
    center = round(rep.echo_delay_s * 1e12)
    g2_ctrl = pm.g2_estimate(shuffled, s.analysis.ps["window_s"], center,
                             s.gating)

    print(f"criterion 5: g2 = {rep.g2:.2f} +- {rep.g2_err:.2f} "
          f"(in [5, 10], nonclassical), control g2 = "
          f"{g2_ctrl.value:.3f} +- {g2_ctrl.error:.3f} "
          f"(<= {limit33:.4f} + 3 sigma)")
    assert g2_ctrl.value <= limit33 + 3 * g2_ctrl.error
    assert 5.0 <= rep.g2 <= 10.0
    assert rep.g2 - rep.g2_err > limit33
    assert rep.nonclassical


def _n_eff_scenario(mode_count, *, flat, seed):
    # echo statistics must dominate the accidental floor, and the
    # single-mode reference in particular needs enough net counts: strong
    # echoes, halved pair rate, three times the integration
    s = pm.default_scenario()
    s = replace(
        s,
        spectrum_source="comb",
        afc_plan=replace(s.afc_plan, mode_count=mode_count,
                         efficiency_override=0.6),
        brightness_pairs_per_s_per_mw=1.25e5,
        duration_s=6.0,
        seed=seed,
        reference_run=True)
    if flat:
        # flat preparation envelope and ideal wide filters; the conditional
        # gate is left fully open, since signals that sneak through a window
        # opened by an unrelated idler otherwise add a sloped background
        # across the gate band that biases the floor-subtracted rate ratio
        s = replace(
            s,
            phase_matching=replace(s.phase_matching, envelope_fwhm=1e12,
                                   envelope_shape="gaussian"),
            filters={"signal": pm.FilterSpec(), "idler": pm.FilterSpec()},
            gating=replace(s.gating, off_gate_attenuation=1.0))
    else:
        # narrow emission envelope (~10 GHz) behind the 5.58 GHz etalon
        s = replace(
            s,
            phase_matching=replace(s.phase_matching, envelope_fwhm=10e9,
                                   envelope_shape="gaussian"),
            gating=replace(s.gating, off_gate_attenuation=1.0))
    return s


def test_criterion_6_effective_modes():
    lines = []
    flat_n = []
    for m in (1, 5, 11, 21):
        bundle = pm.run_scenario(_n_eff_scenario(m, flat=True, seed=600 + m))
        n, err = bundle.report.n_effective, bundle.report.n_effective_err
        lines.append(f"M={m}: {n:.2f}+-{err:.2f}")
        flat_n.append(n)
        assert abs(n - m) <= 3 * err, \
            f"N_eff {n:.2f} +- {err:.2f} not within 3 sigma of M = {m}"
    assert flat_n == sorted(flat_n)  # monotone under the flat envelope

    # saturation side: one shared single-mode reference keeps the three
    # points on a common denominator
    def filtered_rate(m, seed):
        s = replace(_n_eff_scenario(m, flat=False, seed=seed),
                    duration_s=10.0, reference_run=False)
        return pm.run_scenario(s).report.coincidence_rate_cps

    ref_rate = filtered_rate(1, 649)
    sat = {}
    for m in (21, 45, 83):
        sat[m] = filtered_rate(m, 650 + m) / ref_rate
        lines.append(f"M={m} filtered: {sat[m]:.2f}")
    gain_a = (sat[45] - sat[21]) / (45 - 21)
    gain_b = (sat[83] - sat[45]) / (83 - 45)
    print("criterion 6: " + ", ".join(lines)
          + f"; marginal gain {gain_a:.3f} -> {gain_b:.3f}")
    assert sat[83] < 50.0
    assert gain_b <= gain_a + 1e-9  # saturation: nonincreasing marginal gain


def test_criterion_6_shared_reference_sweep():
    # the flat side of criterion 6 as a sweep: the multi-mode points share
    # one single-mode reference, so their N_eff have one denominator and
    # rise with M
    s = replace(_n_eff_scenario(1, flat=True, seed=600),
                sweep_kind="afc_modes", sweep_values=(1, 5, 11, 21))
    lines, flat_n = [], []
    for bundle in pm.run_sweep(s):
        m = bundle.scenario.afc_plan.mode_count
        n, err = bundle.report.n_effective, bundle.report.n_effective_err
        lines.append(f"M={m}: {n:.2f}+-{err:.2f}")
        flat_n.append(n)
        assert abs(n - m) <= 3 * err, \
            f"N_eff {n:.2f} +- {err:.2f} not within 3 sigma of M = {m}"
    print("criterion 6, shared reference: " + ", ".join(lines))
    assert flat_n == sorted(flat_n)


def test_criterion_7_determinism_and_merge_laws():
    s = replace(pm.default_scenario(), duration_s=1.0)
    a = pm.run_scenario(s)
    b = pm.run_scenario(s)
    assert a.report.to_json() == b.report.to_json()  # byte-identical

    # shard-merge: split the starts, keep every stop in both shards
    ev = a.events
    ps = s.analysis.ps
    bins = (ps["bin_width_s"], (ps["hist_min_s"], ps["hist_max_s"]))
    whole = pm.build_histogram(ev, *bins)
    cut = np.uint64(ev.duration_ps // 2)

    def shard(keep_start):
        return replace(ev, idler_ps=ev.idler_ps[keep_start])

    merged = pm.merge_histograms(
        pm.build_histogram(shard(ev.idler_ps < cut), *bins),
        pm.build_histogram(shard(ev.idler_ps >= cut), *bins))
    assert np.array_equal(merged.counts, whole.counts)
    print("criterion 7: byte-identical reports and exact shard merge; "
          "module invariant suites run in this same session")
