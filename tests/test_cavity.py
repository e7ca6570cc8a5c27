import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.errors import ParameterError
from pairmem.scenario import build_spectrum

from conftest import brute_force_g2, default_record

# SHA-256 of the index, signal, idler and weight arrays (tobytes(), in mode
# order); the simulated events depend on every byte of the spectrum
SPECTRUM_SHA256 = {
    "default_cluster_561": (
        "38c97ed44d41c56ac082372f5bf6c54fd4d8538c2e4c74bb07749b5be41a140b",
        "7963088776ec4c5bfea9e2eeba48057f098c016379c46ed6a9e6ae1b6ba8ed29",
        "313d71f06f85496488d33a70e3243ae2e6b328251408c65d81da36820afa77aa",
        "df37851387b8c8da6828a33bc480c45a25757518feec9273624f6d731b4f1389"),
    "comb_83_envelope": (
        "f017ae84815c9544d53da37d2987cf498533d6cfc28b36781c77b7bb5c43fbfe",
        "2d48f83bbcb4cb0ffe3913574bf7def54a5483dc168d85a75798667d69c0c703",
        "32b16711f5e395483d9a4443726cbb386804c0f7fd16f6a7ef37f5627f6bc079",
        "a7f7ded93051fccd9418312fcad0af43b6a47da54d534880a89620bbe6a95172"),
}


# ---------------------------------------------------------------------------
# parameter validation

def test_cavity_params_reject_nonpositive():
    with pytest.raises(ParameterError):
        pm.CavityParams(fsr_signal=0.0, fsr_idler=1e8, linewidth_signal=1e6,
                        linewidth_idler=1e6, signal_center=5e14,
                        idler_center=2e14)


def test_cavity_params_reject_linewidth_wider_than_fsr():
    with pytest.raises(ParameterError):
        pm.CavityParams(fsr_signal=1e6, fsr_idler=1e8, linewidth_signal=2e6,
                        linewidth_idler=1e6, signal_center=5e14,
                        idler_center=2e14)


@pytest.mark.parametrize("changes", [
    {"linewidth_signal": 1e-13}, {"linewidth_idler": 1e-6},
    {"fsr_signal": 1e30}, {"fsr_idler": 1e30}])
def test_cavity_params_reject_a_delay_tail_past_int64_ps(cavity, changes):
    # 45 decay times of a 1 uHz linewidth lie past 2**62 ps, and at 1e30 Hz
    # of FSR a period decays by less than a float step, so the sampler's
    # geometric weight 1 / (1 - exp(-2 pi linewidth / FSR)) is 1 / 0
    with pytest.raises(ParameterError, match="cannot be drawn in int64 ps"):
        replace(cavity, **changes)


def test_narrowest_linewidths_draw_finite_delays(cavity):
    narrow = replace(cavity, linewidth_signal=2e-6, linewidth_idler=2e-6)
    sampler = pm.SourceModel(pm.comb_spectrum(narrow, 5), narrow).sampler
    assert 0.0 < sampler.p_positive < 1.0
    delays = sampler.sample(pm.make_rng(1), 1000) * 1e12
    assert np.all(np.abs(delays) < 2 ** 62)


def test_pump_and_joint_linewidth(cavity):
    assert cavity.pump_freq == cavity.signal_center + cavity.idler_center
    assert cavity.joint_linewidth == pytest.approx(
        0.5 * (2.28e6 + 1.52e6))


def test_phase_matching_shapes():
    with pytest.raises(ParameterError):
        default_record("phase_matching", envelope_center=5e14,
                       envelope_fwhm=1e9, envelope_shape="lorentzian")
    g = default_record("phase_matching", envelope_center=5e14,
                       envelope_fwhm=1e9, envelope_shape="gaussian")
    s = default_record("phase_matching", envelope_center=5e14,
                       envelope_fwhm=1e9, envelope_shape="sinc_squared")
    for env in (g, s):
        assert env.amplitude(5e14) == pytest.approx(1.0)
        # FWHM definition: half amplitude at half the FWHM off center
        assert env.amplitude(5e14 + 0.5e9) == pytest.approx(0.5, rel=1e-5)


# ---------------------------------------------------------------------------
# cluster structure against a direct double-resonance scan

def test_cluster_spacing_closed_form(cavity, envelope):
    expect = cavity.fsr_signal * cavity.fsr_idler / abs(
        cavity.fsr_signal - cavity.fsr_idler)
    assert cavity.cluster_spacing == pytest.approx(expect)
    # the clusters the scan finds lie whole spacings apart (the envelope's
    # zeros drop some), to within a mode
    index = pm.cluster_spectrum(cavity, envelope)
    runs = np.split(index, np.flatnonzero(np.diff(index) > 1) + 1)
    gaps = np.diff([run.mean() * cavity.fsr_signal for run in runs])
    n = np.rint(gaps / cavity.cluster_spacing)
    assert len(gaps) > 1 and np.all(n >= 1)
    assert np.all(np.abs(gaps - n * cavity.cluster_spacing) < cavity.fsr_signal)


def test_cluster_members_match_direct_scan(cavity, envelope):
    index = pm.cluster_spectrum(cavity, envelope)
    spec = pm.mode_weights(index, envelope, cavity)
    # oracle: scan every signal mode in the support and test double
    # resonance directly from the idler comb distance
    half = envelope.support_halfwidth()
    k_max = int(half / cavity.fsr_signal)
    accepted = set()
    for k in range(-k_max, k_max + 1):
        f_s = cavity.signal_center + k * cavity.fsr_signal
        if envelope.amplitude(f_s) < 1e-3:
            continue
        f_i = cavity.pump_freq - f_s
        d = (f_i - cavity.idler_center) / cavity.fsr_idler
        mismatch = abs(d - round(d)) * cavity.fsr_idler
        if mismatch <= cavity.joint_linewidth:
            accepted.add(k)
    assert set(spec.index.tolist()) == accepted


@pytest.mark.parametrize("shape", ["sinc_squared", "gaussian"])
@pytest.mark.parametrize("offset", [0.0, 0.05e12, 1e12, 2e12])
def test_cluster_scan_follows_the_envelope(cavity, shape, offset):
    # oracle: every signal mode out to past the support of an envelope
    # centred `offset` off the cavity's signal centre, tested directly
    env = default_record("phase_matching", envelope_shape=shape,
                         envelope_center=cavity.signal_center + offset)
    reach = int(env.support_halfwidth() / cavity.fsr_signal) + 10
    k = np.arange(-reach, reach + 1) + round(offset / cavity.fsr_signal)
    f_s = cavity.signal_center + k * cavity.fsr_signal
    d = (cavity.pump_freq - f_s - cavity.idler_center) / cavity.fsr_idler
    resonant = np.abs(d - np.round(d)) * cavity.fsr_idler <= cavity.joint_linewidth
    expect = k[resonant & (env.amplitude(f_s) >= 1e-3)]
    assert len(expect) > 100
    assert np.array_equal(pm.cluster_spectrum(cavity, env), expect)


def test_cluster_scan_past_its_mode_limit_raises(cavity):
    wide = default_record("phase_matching", envelope_fwhm=2e13)
    with pytest.raises(ParameterError, match="signal modes"):
        pm.cluster_spectrum(cavity, wide)


def test_cluster_degenerate_fsr_raises(envelope):
    cav = pm.CavityParams(fsr_signal=123e6, fsr_idler=123e6,
                          linewidth_signal=2e6, linewidth_idler=2e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    assert cav.cluster_spacing == math.inf
    with pytest.raises(ParameterError, match="equal FSRs: every mode pair is "
                       "doubly resonant, no cluster structure"):
        pm.cluster_spectrum(cav, envelope)


def test_mode_weights_normalized(cavity, envelope):
    spec = pm.mode_weights(pm.cluster_spectrum(cavity, envelope),
                           envelope, cavity)
    assert np.sum(spec.weights ** 2) == pytest.approx(1.0, abs=1e-12)
    assert np.all(spec.weights >= 0)


def test_mode_weights_empty_overlap_raises(cavity):
    # a narrow envelope between two clusters holds no doubly resonant mode
    narrow = default_record("phase_matching", envelope_center=494.7e12 + 60e9,
                            envelope_fwhm=1e9, envelope_shape="gaussian")
    index = pm.cluster_spectrum(cavity, narrow)
    assert len(index) == 0
    with pytest.raises(ParameterError, match="no cluster mode overlaps the "
                       "phase-matching envelope"):
        pm.mode_weights(index, narrow, cavity)


# ---------------------------------------------------------------------------
# comb_spectrum

def test_comb_spectrum_flat_weights(cavity):
    spec = pm.comb_spectrum(cavity, 7)
    assert spec.N == 7
    assert np.allclose(spec.weights, spec.weights[0])
    assert np.sum(spec.weights ** 2) == pytest.approx(1.0)
    df = np.diff(spec.signal_freqs)
    assert np.allclose(df, cavity.fsr_signal)


def test_comb_spectrum_envelope_weighting(cavity):
    env = default_record("phase_matching", envelope_center=cavity.signal_center,
                         envelope_fwhm=10 * cavity.fsr_signal,
                         envelope_shape="gaussian")
    spec = pm.comb_spectrum(cavity, 21, env)
    w = spec.weights
    assert w[10] == max(w)          # center mode heaviest
    assert np.all(np.diff(w[:11]) > 0)   # rising to the center
    assert np.all(np.diff(w[10:]) < 0)   # falling after it


def test_comb_spectrum_rejects_empty(cavity):
    with pytest.raises(ParameterError):
        pm.comb_spectrum(cavity, 0)


# ---------------------------------------------------------------------------
# analytic G2 against the O(N^2) double-sum oracle

def test_analytic_g2_matches_double_sum(cavity, small_spectrum):
    tau = np.linspace(-40e-9, 40e-9, 201)
    fast = pm.analytic_g2(small_spectrum, cavity, tau)
    slow = brute_force_g2(small_spectrum, cavity, tau)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_analytic_g2_double_sum_weighted(cavity, envelope):
    spec = pm.comb_spectrum(cavity, 9, default_record(
        "phase_matching", envelope_center=cavity.signal_center,
        envelope_fwhm=5 * cavity.fsr_signal, envelope_shape="gaussian"))
    tau = np.linspace(-25e-9, 25e-9, 101)
    assert np.allclose(pm.analytic_g2(spec, cavity, tau),
                       brute_force_g2(spec, cavity, tau), rtol=1e-12)


def test_analytic_g2_gapped_lattice(cavity):
    # non-contiguous indices: beats must follow true index differences
    index = np.array([-7, -2, 0, 3, 11])
    fs = cavity.signal_center + index * cavity.fsr_signal
    spec = pm.BiphotonSpectrum(index, fs, cavity.pump_freq - fs, np.ones(5))
    # the beat sums use offsets from the lowest index
    assert (spec.index - spec.index.min()).tolist() == [0, 5, 7, 10, 18]
    tau = np.linspace(-30e-9, 30e-9, 301)
    assert np.allclose(pm.analytic_g2(spec, cavity, tau),
                       brute_force_g2(spec, cavity, tau), rtol=1e-12)


def test_analytic_g2_peak_at_zero(cavity):
    spec = pm.comb_spectrum(cavity, 83)
    tau = np.linspace(-200e-9, 200e-9, 4001)
    g = pm.analytic_g2(spec, cavity, tau)
    assert np.argmax(g) == 2000  # tau = 0
    # comb revival at one round-trip time, attenuated by the envelope
    rt = 1.0 / cavity.fsr_signal
    g_rt = pm.analytic_g2(spec, cavity, np.array([rt]))[0]
    g_0 = pm.analytic_g2(spec, cavity, np.array([0.0]))[0]
    assert g_rt == pytest.approx(
        g_0 * math.exp(-2 * math.pi * cavity.linewidth_signal * rt), rel=1e-9)


def test_analytic_g2_envelope_sides(cavity):
    spec = pm.comb_spectrum(cavity, 1)
    t = 50e-9
    g_pos = pm.analytic_g2(spec, cavity, np.array([t]))[0]
    g_neg = pm.analytic_g2(spec, cavity, np.array([-t]))[0]
    assert g_pos == pytest.approx(
        math.exp(-2 * math.pi * cavity.linewidth_signal * t))
    assert g_neg == pytest.approx(
        math.exp(-2 * math.pi * cavity.linewidth_idler * t))
    assert g_pos < g_neg  # signal side decays faster here


def g2_envelope(cavity, tau):
    """Two-sided exponential envelope of the cross-correlation, the closed
    form of a single mode."""
    t = np.asarray(tau, dtype=float)
    return np.where(t >= 0, np.exp(-2 * math.pi * cavity.linewidth_signal * t),
                    np.exp(2 * math.pi * cavity.linewidth_idler * t))


def test_g2_envelope_matches_single_mode(cavity):
    spec = pm.comb_spectrum(cavity, 1)
    tau = np.linspace(-100e-9, 100e-9, 57)
    assert np.allclose(pm.analytic_g2(spec, cavity, tau),
                       g2_envelope(cavity, tau))


def test_analytic_g2_rejects_nonfinite(cavity, small_spectrum):
    with pytest.raises(ParameterError):
        pm.analytic_g2(small_spectrum, cavity, [0.0, np.inf])


# ---------------------------------------------------------------------------
# property tests

@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=40),
       t=st.floats(min_value=-5e-7, max_value=5e-7,
                   allow_nan=False, allow_infinity=False))
def test_g2_bounded_by_envelope(n, t):
    cav = pm.CavityParams(fsr_signal=123e6, fsr_idler=122.9e6,
                          linewidth_signal=2.28e6, linewidth_idler=1.52e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    spec = pm.comb_spectrum(cav, n)
    g = float(pm.analytic_g2(spec, cav, np.array([t]))[0])
    env = g2_envelope(cav, t)
    # 0 <= comb factor <= (sum s)^2 = N * sum s^2 = N for flat weights
    assert -1e-9 <= g <= n * env * (1 + 1e-9)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=1, max_value=30))
def test_g2_zero_delay_flat_weights(n):
    # at tau=0 the comb factor is (sum s)^2 = N for flat weights
    cav = pm.CavityParams(fsr_signal=123e6, fsr_idler=122.9e6,
                          linewidth_signal=2.28e6, linewidth_idler=1.52e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    spec = pm.comb_spectrum(cav, n)
    g0 = float(pm.analytic_g2(spec, cav, np.array([0.0]))[0])
    assert g0 == pytest.approx(n, rel=1e-9)


def test_mode_index_lattice_offsets(cavity, envelope):
    # the cluster lattice has gaps; its arrays are parallel and index-sorted
    spec = pm.mode_weights(pm.cluster_spectrum(cavity, envelope), envelope,
                           cavity)
    offsets = spec.index - spec.index.min()
    assert offsets[0] == 0 and np.all(np.diff(offsets) > 0)
    assert np.any(np.diff(offsets) > 1)
    assert len(spec.signal_freqs) == len(spec.idler_freqs) \
        == len(spec.weights) == spec.N
    assert np.array_equal(spec.signal_freqs,
                          cavity.signal_center + spec.index * cavity.fsr_signal)


def test_spectrum_arrays_pinned(cavity, envelope):
    spectra = {
        "default_cluster_561": build_spectrum(pm.default_scenario()),
        "comb_83_envelope": pm.comb_spectrum(cavity, 83, envelope),
    }
    got = {name: tuple(hashlib.sha256(a.tobytes()).hexdigest()
                       for a in (s.index, s.signal_freqs, s.idler_freqs,
                                 s.weights))
           for name, s in spectra.items()}
    assert got == SPECTRUM_SHA256
    assert spectra["default_cluster_561"].N == 561


def test_spectrum_rejects_mismatched_lengths():
    with pytest.raises(ParameterError):
        pm.BiphotonSpectrum(np.arange(3), np.ones(3), np.ones(2), np.ones(3))
    with pytest.raises(ParameterError):
        pm.BiphotonSpectrum(np.arange(3), np.ones(3), np.ones(3), np.ones(4))


def test_spectrum_rejects_no_modes_and_bad_weights():
    with pytest.raises(ParameterError, match="spectrum must contain at least one mode"):
        pm.BiphotonSpectrum(*[np.empty(0)] * 4)
    for weights in ([1.0, -0.5, 1.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ParameterError, match="nonnegative"):
            pm.BiphotonSpectrum(np.arange(3), np.ones(3), np.ones(3),
                                np.array(weights))
