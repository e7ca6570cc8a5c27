import hashlib
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pairmem as pm
from pairmem.eventio import _merge_channels
from pairmem.montecarlo import (DelaySampler, _fate_classes, _period_cdfs,
                                _prune_dead_time, model_digest, whole_ps)
from pairmem.errors import ParameterError
from pairmem.memory import chain_transmission
from pairmem.scenario import build_spectrum

from conftest import default_record, sequence_phase


# model_digest of the models in test_model_digest_pinned: digest strings
# are provenance in event files and reports and must not drift
PINNED_MODEL_DIGEST = \
    "76f1523717c1afe66ab881340bf74406953a812d6f2abd072d0972db93a8dbc6"


def flat_source(cavity, n_modes=5):
    return pm.SourceModel(spectrum=pm.comb_spectrum(cavity, n_modes),
                          cavity=cavity)


# ---------------------------------------------------------------------------
# RNG plumbing

def test_make_rng_deterministic():
    a = pm.make_rng(42).random(10)
    b = pm.make_rng(42).random(10)
    assert np.array_equal(a, b)
    c = pm.make_rng(43).random(10)
    assert not np.array_equal(a, c)


def test_split_seed_stable_and_distinct():
    s = pm.split_seed(1, 0)
    assert s == pm.split_seed(1, 0)
    assert len({pm.split_seed(1, i) for i in range(100)}) == 100
    assert pm.split_seed(1, 0) != pm.split_seed(2, 0)


# ---------------------------------------------------------------------------
# gating sequence

def test_sequence_phase_layout():
    g = default_record("gating")
    # default: 45 us measuring | 10 us break | 35 us locking | 10 us break
    us = 1_000_000   # ps
    assert sequence_phase(0, g) == "measuring"
    assert sequence_phase(44_900_000, g) == "measuring"
    assert sequence_phase(45 * us - 1, g) == "measuring"
    assert sequence_phase(45 * us, g) == "break"
    assert sequence_phase(50 * us, g) == "break"
    assert sequence_phase(60 * us, g) == "locking"
    assert sequence_phase(89 * us, g) == "locking"
    assert sequence_phase(95 * us, g) == "break"
    assert sequence_phase(100 * us, g) == "measuring"  # next cycle
    assert (g.cycle_ps, g.measure_ps) == (100_000_000, 45_000_000)
    assert g.conditional_gate_ps == (700_000, 1_900_000)
    with pytest.raises(ParameterError):
        sequence_phase(-1000, g)


def test_gating_validation():
    with pytest.raises(ParameterError):
        default_record("gating", measure_fraction=0.95)  # breaks no longer fit
    with pytest.raises(ParameterError):
        default_record("gating", break_time=0.0)
    with pytest.raises(ParameterError):
        default_record("gating", conditional_gate_on=2e-6,
                       conditional_gate_off=1e-6)
    # the estimators gate in whole picoseconds
    with pytest.raises(ParameterError, match="whole number of ps"):
        default_record("gating", cycle=100.0000005e-6)
    with pytest.raises(ParameterError, match="whole number of ps"):
        default_record("gating", break_time=10.0000005e-6)
    # the generator gates in whole picoseconds too: the conditional-gate
    # edges and the dead time must be whole
    with pytest.raises(ParameterError, match="whole number of ps"):
        default_record("gating", conditional_gate_on=7.0000005e-7)
    with pytest.raises(ParameterError, match="whole number of ps"):
        default_record("gating", conditional_gate_off=math.inf)
    with pytest.raises(ParameterError, match="whole number of ps"):
        pm.DetectorModel(dead_time=2.45e-13)
    assert pm.DetectorModel(dead_time=24e-9).dead_time_ps == 24_000


def test_times_stay_below_2_62_ps():
    # every whole-ps setting, and 10 sigma of drawn jitter, lies below
    # 2**62 ps, so a sum of two of them is an int64
    assert whole_ps(4e6, "t") == 4 * 10 ** 18
    assert whole_ps(-4e6, "t") == -4 * 10 ** 18
    for seconds in (4.7e6, -4.7e6, 1e30, math.inf, math.nan):
        with pytest.raises(ParameterError, match=r"< 2\*\*62"):
            whole_ps(seconds, "t")
    assert pm.DetectorModel(jitter_sigma=4.6e5).jitter_sigma == 4.6e5
    for sigma in (4.7e5, 1e30):
        with pytest.raises(ParameterError, match="jitter_sigma"):
            pm.DetectorModel(jitter_sigma=sigma)


def test_live_ps_counts_measuring_ps():
    g = default_record("gating")
    assert g.live_ps(10**12) == 45 * 10**10
    assert g.live_ps(100_000_000) == 45_000_000
    assert g.live_ps(20_000_000) == 20_000_000   # inside the first stage
    assert g.live_ps(60_000_000) == 45_000_000   # in the break after it
    # a 100 ps cycle: live_ps(d) counts the measuring ps in [0, d)
    tiny = default_record("gating", cycle=100e-12, break_time=10e-12)
    measuring = np.cumsum(tiny.measuring(np.arange(1000)))
    assert [tiny.live_ps(d) for d in range(1, 1001)] == measuring.tolist()


@settings(max_examples=50, deadline=None)
@given(t_ps=st.integers(min_value=0, max_value=10**10))
def test_phase_partition(t_ps):
    g = default_record("gating")
    assert sequence_phase(t_ps, g) in ("measuring", "break", "locking")
    # the one phase test, on a python int and on int64 and uint64 arrays
    want = sequence_phase(t_ps, g) == "measuring"
    assert g.measuring(t_ps) == want
    for dtype in (np.int64, np.uint64):
        assert g.measuring(np.array([t_ps], dtype))[0] == want


# ---------------------------------------------------------------------------
# delay sampler against the analytic curve

def test_sampler_sign_split(cavity, small_spectrum):
    sampler = DelaySampler(small_spectrum, cavity)
    # branch weights follow the envelope integrals: w+ ~ 1/lw_s, w- ~ 1/lw_i
    expect = (1 / cavity.linewidth_signal) / (
        1 / cavity.linewidth_signal + 1 / cavity.linewidth_idler)
    assert sampler.p_positive == pytest.approx(expect, rel=1e-3)
    tau = sampler.sample(pm.make_rng(7), 200_000)
    frac = np.mean(tau >= 0)
    assert frac == pytest.approx(expect, abs=0.005)


def test_sampler_matches_analytic_histogram(cavity, small_spectrum):
    n = 400_000
    tau = DelaySampler(small_spectrum, cavity).sample(pm.make_rng(3), n)
    lim = 60e-9
    bins = np.arange(-lim, lim + 0.4e-9, 0.4e-9)
    h, edges = np.histogram(tau, bins=bins)
    mids = 0.5 * (edges[:-1] + edges[1:])
    g = pm.analytic_g2(small_spectrum, cavity, mids)
    scale = float(h @ g) / float(g @ g)
    resid = h - scale * g
    rel = np.linalg.norm(resid) / np.linalg.norm(h)
    assert rel < 0.05


def test_sampler_envelope_tail(cavity):
    # single mode: |tau| is exponential with rate 2 pi lw per side
    spec = pm.comb_spectrum(cavity, 1)
    tau = DelaySampler(spec, cavity).sample(pm.make_rng(11), 300_000)
    pos = tau[tau >= 0]
    mean_pos = float(np.mean(pos))
    assert mean_pos == pytest.approx(
        1.0 / (2 * math.pi * cavity.linewidth_signal), rel=0.02)
    neg = -tau[tau < 0]
    assert float(np.mean(neg)) == pytest.approx(
        1.0 / (2 * math.pi * cavity.linewidth_idler), rel=0.02)


# ---------------------------------------------------------------------------
# dead-time pruning against a slow oracle

def naive_dead_time(t, dead):
    out, last = [], None
    for x in t:
        if last is None or x - last >= dead:
            out.append(x)
            last = x
    return out


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=0,
                max_size=60),
       st.integers(min_value=0, max_value=10**8))
def test_prune_dead_time_matches_naive(times, dead):
    t = np.sort(np.array(times, dtype=np.int64))
    keep = _prune_dead_time(t, dead)
    assert t[keep].tolist() == naive_dead_time(t.tolist(), dead)
    if dead > 0 and np.count_nonzero(keep) > 1:
        assert np.all(np.diff(t[keep]) >= dead)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12), min_size=0,
                max_size=80),
       st.integers(min_value=1, max_value=6))
def test_prune_dead_time_clustered(steps, dead_units):
    # small steps: duplicates (step 0), gaps exactly equal to the dead
    # time, and long runs of close gaps all occur
    t = np.cumsum(np.array(steps, dtype=np.int64))
    keep = _prune_dead_time(t, dead_units)
    assert t[keep].tolist() == naive_dead_time(t.tolist(), dead_units)


def test_prune_dead_time_large_seeded():
    # mean gap equal to the dead time: most runs hold several close gaps
    rng = np.random.default_rng(2024)
    dead = 40_000   # ps
    t = np.cumsum(np.rint(rng.exponential(dead, 100_000)).astype(np.int64))
    t = np.sort(np.concatenate([t, t[rng.integers(0, len(t), 500)]]))
    keep = _prune_dead_time(t, dead)
    assert t[keep].tolist() == naive_dead_time(t.tolist(), dead)


# ---------------------------------------------------------------------------
# the quantile table against the dense in-period table it inverts, and pair
# fates against the per-pair routing they replaced

QUANTILE_STEPS = 1 << 17


def dense_inverse(cdf, period, r):
    """Inverse of the dense in-period table CDF ``cdf`` (leading 0) at the
    fractions ``r`` of its total: the entry that holds each key by
    np.searchsorted, plus the linear fraction within it, as the sampler
    once read it."""
    v = r * cdf[-1]
    j = np.searchsorted(cdf[1:], v)
    frac = (v - cdf[j]) / (cdf[j + 1] - cdf[j])
    return (j + frac) * (period / (len(cdf) - 1))


def knot_gaps(q, r):
    """Width of the quantile-table gap [q[j], q[j + 1]] that holds each
    key ``r``."""
    j = (r * (len(q) - 1)).astype(np.intp)
    return q[j + 1] - q[j]


def assert_within_kolmogorov_bound(sampler, cdfs):
    # the interpolated CDF meets the table CDF at every knot, and both are
    # monotone, so on the table's own grid they differ by at most 2^-17
    for (_, period, q), (_, _, cdf) in zip(sampler._branches, cdfs):
        assert len(q) == QUANTILE_STEPS + 1
        grid = np.arange(len(cdf)) * (period / (len(cdf) - 1))
        interpolated = np.interp(grid, q, np.linspace(0.0, 1.0, len(q)))
        gap = np.max(np.abs(interpolated - cdf / cdf[-1]))
        assert gap <= 2.0 ** -17 + 1e-12


@pytest.mark.parametrize("which", ["small", "default"])
def test_quantile_table_within_kolmogorov_bound(cavity, small_spectrum, which):
    if which == "small":
        spec, cav = small_spectrum, cavity
    else:
        s = pm.default_scenario()
        spec, cav = build_spectrum(s), s.cavity
    assert_within_kolmogorov_bound(DelaySampler(spec, cav), list(_period_cdfs(spec, cav)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=60),
       st.lists(st.floats(0.0, 1.0), min_size=60, max_size=60),
       st.floats(1e-3, 0.99), st.floats(1e-3, 0.99))
@example([1] * 60, [1.0] * 60, 0.01, 0.01)
def test_quantile_table_of_random_combs(gaps, weights, lw_s, lw_i):
    # many flat or random-weight lines make sharp comb peaks with near-zero
    # stretches between them (60 flat lines: one peak per period, a density
    # below 1e-3 of it over most of the period); a weight may be 0
    idx = np.cumsum(gaps)
    w = np.array(weights[:len(idx)])
    w[0] = max(w[0], 1e-3)
    cav = pm.CavityParams(fsr_signal=123e6, fsr_idler=122.9e6,
                          linewidth_signal=lw_s * 123e6,
                          linewidth_idler=lw_i * 122.9e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    spec = pm.BiphotonSpectrum(idx, 494.7e12 + idx * 123e6,
                               193.4e12 - idx * 123e6, w / np.linalg.norm(w))
    sampler = DelaySampler(spec, cav)
    for _, period, q in sampler._branches:
        assert np.all(np.diff(q) >= 0)
        assert q[0] == 0.0 and q[-1] == pytest.approx(period, rel=1e-12)
    assert_within_kolmogorov_bound(sampler, list(_period_cdfs(spec, cav)))


class ScriptedRng:
    """Stands in for a Generator: hands out the given draws in order."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size):
        return self.draws.pop(0)

    def exponential(self, scale, size):
        return self.draws.pop(0)


def oracle_sample(sampler, cdfs, rng, size):
    """DelaySampler.sample's draws, each delay read by ``dense_inverse``;
    also the knot gap that holds each key."""
    pos = rng.random(size) < sampler.p_positive
    out, gaps = np.empty(size), np.empty(size)
    for (lam, period, q), (_, _, cdf), sel, sign in zip(
            sampler._branches, cdfs, (pos, ~pos), (1, -1)):
        n = int(np.count_nonzero(sel))
        if n:
            k = np.floor(rng.exponential(scale=1.0 / lam, size=n))
            r = rng.random(n)
            out[sel] = sign * (k * period + dense_inverse(cdf, period, r))
            gaps[sel] = knot_gaps(q, r)
    return out, gaps


@pytest.fixture(scope="module")
def comb_source():
    cav = pm.CavityParams(fsr_signal=123.0e6, fsr_idler=122.92435e6,
                          linewidth_signal=2.28e6, linewidth_idler=1.52e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    return pm.SourceModel(pm.comb_spectrum(cav, 5), cav)


@pytest.fixture(scope="module")
def comb_sampler(comb_source):
    return comb_source.sampler


@pytest.fixture(scope="module")
def comb_cdfs(comb_source):
    return list(_period_cdfs(comb_source.spectrum, comb_source.cavity))


def test_delays_at_table_edges(comb_sampler, comb_cdfs):
    # keys at 0, inside the first and last knot gaps, on knots (read from
    # the table exactly) and just below 1; no whole periods
    n = QUANTILE_STEPS
    r = np.array([0.0, 0.5 / n, 1 / n, 3 / n, 0.5, 1 - 1 / n, 1 - 0.5 / n,
                  np.nextafter(1.0, 0.0)])
    on_knot = r * n == np.floor(r * n)
    for i, (sign_key, sign) in enumerate(((0.0, 1), (np.nextafter(1.0, 0.0), -1))):
        _, period, q = comb_sampler._branches[i]
        rng = ScriptedRng(np.full(len(r), sign_key), np.zeros(len(r)), r)
        u = sign * comb_sampler.sample(rng, len(r))
        want = dense_inverse(comb_cdfs[i][2], period, r)
        assert np.all(np.abs(u - want) <= knot_gaps(q, r) + 1e-21)
        assert u[on_knot].tolist() == q[(r[on_knot] * n).astype(int)].tolist()
        assert u[0] == 0.0 and np.all(u <= q[-1])


def test_sample_is_draw_then_every_delay(comb_sampler, comb_cdfs):
    # the same variates in the same order: each delay lies in the knot gap
    # that holds its key, with the dense inverse's sign, and both
    # generators end at the same state; one pair leaves one branch empty
    for seed, size in [(9, 1000), (17, 5000), (3, 0)] + [(s, 1) for s in range(20)]:
        rng, oracle_rng = pm.make_rng(seed), pm.make_rng(seed)
        a = comb_sampler.sample(rng, size)
        b, gaps = oracle_sample(comb_sampler, comb_cdfs, oracle_rng, size)
        assert np.array_equal(np.signbit(a), np.signbit(b))
        assert np.all(np.abs(a - b) <= gaps + 1e-18)
        assert rng.random() == oracle_rng.random()


def test_sampler_holds_one_quantile_table_per_branch(comb_sampler):
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            for x in obj:
                yield from arrays(x)
        elif isinstance(obj, dict):
            yield from arrays(list(obj.values()))

    held = list(arrays(vars(comb_sampler)))
    assert sum(a.nbytes for a in held) <= 2 * (QUANTILE_STEPS + 1) * 8


def routed_fates(spec, plan, filters, dets, n, rng):
    """(idler detected, signal fate) of n pairs drawn as the generator once
    drew them: a mode index per pair, one memory uniform counted against
    the cumulative branch table, and a uniform per filter and efficiency."""
    w2 = spec.weights ** 2
    mode = rng.choice(len(w2), size=n, p=w2 / w2.sum())

    def passes(channel, freqs):
        keep = np.ones(n, dtype=bool)
        if channel in filters:
            t = chain_transmission([filters[channel]], freqs)
            keep &= rng.random(n) < t[mode]
        return keep & (rng.random(n) < dets[channel].efficiency)

    orders = plan.echo_orders if plan else 0
    branch = np.zeros(n, dtype=int)
    if plan is not None:
        tp, ep = plan.response_arrays(spec.signal_freqs)
        cum = np.cumsum([tp] + [ep ** m for m in range(1, orders + 1)], axis=0)
        u = rng.random(n)
        branch = np.count_nonzero(u >= cum[:, mode], axis=0)
    signal = np.where((branch <= orders) & passes("signal", spec.signal_freqs),
                      branch, orders + 1)
    return passes("idler", spec.idler_freqs), signal


# echo_orders >= 2 with tp + ep + ep^2 > 1 on every memory mode (tp =
# exp(-0.8) = 0.449, ep = 0.54): the cumulative table passes 1, and the
# clipped increments must route as the uniform compared against it did
OVERFULL = dict(efficiency_override=0.54, echo_orders=3, peak_optical_depth=1.6)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       plan=st.one_of(st.none(), st.just(OVERFULL), st.fixed_dictionaries({
           "efficiency_override": st.sampled_from([None, 0.2, 0.5]),
           "echo_orders": st.integers(0, 3)}), st.fixed_dictionaries({
           "taper": st.just("gaussian"), "taper_fwhm": st.just(2e9),
           "echo_orders": st.integers(0, 3)})),
       effs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       filtered=st.tuples(st.booleans(), st.booleans()))
@example(seed=1, plan=OVERFULL, effs=(0.8, 0.6), filtered=(True, True))
def test_fate_classes_match_per_pair_routing(comb_source, seed, plan, effs,
                                            filtered):
    # the fate table is the per-mode routing summed over the modes: the
    # per-pair draws it replaced land in each class as often as its entry
    # says, within 5 sigma
    cavity = comb_source.cavity
    spec = pm.comb_spectrum(cavity, 41)
    if plan is not None:
        overfull = plan == OVERFULL
        plan = default_record("afc_plan", mode_count=31,
                              mode_spacing=cavity.fsr_signal, **plan)
        if overfull:   # the case reaches the clipping
            tp, ep = plan.response_arrays(spec.signal_freqs)
            assert np.max(tp + ep + ep ** 2) > 1.0
    flt = pm.default_scenario().filters   # centered on the cavity's modes
    flt = {"signal": flt["signal"], "idler": replace(flt["idler"], bandwidth=2e9)}
    filters = {ch: flt[ch] for ch, on in zip(("signal", "idler"), filtered) if on}
    dets = {"signal": pm.DetectorModel(efficiency=effs[0]),
            "idler": pm.DetectorModel(efficiency=effs[1])}
    table = _fate_classes(spec, plan, filters, dets["signal"], dets["idler"])
    orders = plan.echo_orders if plan else 0
    assert table.shape == (2, orders + 2)
    assert table[0, -1] == 0.0 and np.all(table >= 0.0)
    n = 200_000
    idler, signal = routed_fates(spec, plan, filters, dets, n, pm.make_rng(seed))
    counts = np.zeros((2, orders + 2))
    np.add.at(counts, (idler.astype(int), signal), 1)
    counts[0, -1] = 0.0
    # (+3: the Poisson tail of a near-empty class)
    sigma = np.sqrt(n * table * (1 - table))
    assert np.all(np.abs(counts - n * table) <= 5 * sigma + 3)


# ---------------------------------------------------------------------------
# event generation

def test_generate_events_deterministic(cavity):
    src = flat_source(cavity)
    a = pm.generate_events(src, 1e5, None, None, None, None, 0.05, seed=5)
    b = pm.generate_events(src, 1e5, None, None, None, None, 0.05, seed=5)
    assert np.array_equal(a.signal_ps, b.signal_ps)
    assert np.array_equal(a.idler_ps, b.idler_ps)
    assert a.model_digest == b.model_digest
    c = pm.generate_events(src, 1e5, None, None, None, None, 0.05, seed=6)
    assert not np.array_equal(a.idler_ps, c.idler_ps)
    # the pair rate is part of the model the file's digest names
    d = pm.generate_events(src, 2e5, None, None, None, None, 0.05, seed=5)
    assert d.model_digest != a.model_digest


def test_event_stream_sorted_and_typed(cavity):
    ev = pm.generate_events(flat_source(cavity), 1e5, None, None, None, None,
                            0.05, seed=1)
    for ts in (ev.signal_ps, ev.idler_ps):
        assert ts.dtype == np.uint64
        assert np.all(np.diff(ts.astype(np.int64)) >= 0)
        assert np.all(ts <= ev.duration_ps)


def test_ideal_chain_pair_count(cavity):
    # no loss anywhere: every pair yields one signal and one idler
    ev = pm.generate_events(flat_source(cavity), 2e4, None, None, None,
                            None, 0.5, seed=9)
    n_s = len(ev.signal_ps)
    n_i = len(ev.idler_ps)
    assert n_s == n_i
    assert n_s == pytest.approx(2e4 * 0.5, rel=0.05)


def test_detector_efficiency_thins(cavity):
    src = flat_source(cavity)
    full = pm.generate_events(src, 2e4, None, None, None, None, 0.5, seed=2)
    dets = {"signal": pm.DetectorModel(efficiency=0.3),
            "idler": pm.DetectorModel(efficiency=1.0)}
    thin = pm.generate_events(src, 2e4, None, None, dets, None, 0.5, seed=2)
    n_full = len(full.signal_ps)
    n_thin = len(thin.signal_ps)
    assert n_thin == pytest.approx(0.3 * n_full, rel=0.1)
    # thinning is monotone in efficiency on average
    mid = pm.generate_events(src, 2e4, None, None,
                             {"signal": pm.DetectorModel(efficiency=0.6)},
                             None, 0.5, seed=2)
    assert n_thin < len(mid.signal_ps) <= n_full


def test_dark_counts_only():
    cav = pm.CavityParams(fsr_signal=123e6, fsr_idler=122.9e6,
                          linewidth_signal=2.28e6, linewidth_idler=1.52e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    src = pm.SourceModel(spectrum=pm.comb_spectrum(cav, 3), cavity=cav)
    dets = {"signal": pm.DetectorModel(dark_rate=5e4)}
    ev = pm.generate_events(src, 0.0, None, None, dets, None, 1.0, seed=3)
    n = len(ev.signal_ps)
    assert n == pytest.approx(5e4, rel=0.05)
    assert len(ev.idler_ps) == 0


@pytest.mark.parametrize("lost_by", ["efficiency", "filter"])
def test_nothing_detectable_draws_no_pairs(cavity, lost_by):
    # no fate class can be detected (P_any = 0): no pair is drawn, so the
    # run is bit for bit the dark counts of a run without pump, and no 0/0
    # is divided (a RuntimeWarning is an error here)
    darks = {"signal": pm.DetectorModel(dark_rate=5e3),
             "idler": pm.DetectorModel(dark_rate=2e3)}
    dets, filters = darks, None
    if lost_by == "efficiency":
        dets = {ch: replace(d, efficiency=0.0) for ch, d in darks.items()}
    else:
        filters = {ch: replace(f, peak_transmittance=0.0)
                   for ch, f in pm.default_scenario().filters.items()}
    plan = default_record("afc_plan", mode_count=5,
                          mode_spacing=cavity.fsr_signal)
    g = default_record("gating", off_gate_attenuation=0.5)
    src = flat_source(cavity)
    ev = pm.generate_events(src, 1e6, plan, filters, dets, g, 0.1, seed=4)
    dark = pm.generate_events(src, 0.0, None, None, darks, g, 0.1, seed=4)
    assert len(ev.signal_ps) > 100 and len(ev.idler_ps) > 100
    assert ev.signal_ps.tobytes() == dark.signal_ps.tobytes()
    assert ev.idler_ps.tobytes() == dark.idler_ps.tobytes()


def test_delays_drawn_once_for_detected_signals(comb_source, monkeypatch):
    # one DelaySampler.sample call per run, sized to the signal-detected
    # pairs: with no jitter, darks, gating or dead time each of them is
    # one signal event, and the idler events are the idler-detected pairs
    sizes, sample = [], DelaySampler.sample
    monkeypatch.setattr(DelaySampler, "sample", lambda self, rng, size:
                        sizes.append(size) or sample(self, rng, size))
    plan = default_record("afc_plan", mode_count=5, echo_orders=3,
                          mode_spacing=comb_source.cavity.fsr_signal,
                          efficiency_override=0.4)
    dets = {"signal": pm.DetectorModel(efficiency=0.5),
            "idler": pm.DetectorModel(efficiency=0.8)}
    rate, duration = 4e4, 0.5
    ev = pm.generate_events(comb_source, rate, plan, None, dets, None,
                            duration, seed=7)
    assert sizes == [len(ev.signal_ps)]
    # each channel's count is Poisson with the mean its fate classes give
    table = _fate_classes(comb_source.spectrum, plan, {}, dets["signal"],
                          dets["idler"])
    for n, p in ((len(ev.signal_ps), table[:, :-1].sum()),
                 (len(ev.idler_ps), table[1].sum())):
        mean = rate * duration * p
        assert abs(n - mean) < 5 * math.sqrt(mean)


class ScriptedDraws:
    """Generator stand-in: each method returns the next of its own scripted
    results, whatever it is asked for."""

    def __init__(self, **results):
        self.results = {name: list(r) for name, r in results.items()}

    def __getattr__(self, name):
        return lambda *args, **kwargs: self.results[name].pop(0)

    def spent(self):
        return not any(self.results.values())


class ZeroDelays:
    """Sampler stand-in: every pair delay is 0."""

    def sample(self, rng, size):
        return np.zeros(size)


def scripted_run(comb_source, table, rng, plan=None, dets=None, duration=1.0):
    """generate_events with fate table ``table``, draws from ``rng`` and
    zero pair delays."""
    src = pm.SourceModel(comb_source.spectrum, comb_source.cavity)
    src.__dict__["sampler"] = ZeroDelays()   # where cached_property keeps it
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pm.montecarlo, "_fate_classes", lambda *args: table)
        mp.setattr(pm.montecarlo, "make_rng", lambda seed: rng)
        ev = pm.generate_events(src, 1.0, plan, None, dets, None, duration, 0)
    assert rng.spent()
    return ev


def one_search_classes(cdf, x, n_fates):
    """Idler mask, signal-detected indices and their memory branches as one
    search over every pair gives them: fate = searchsorted(cdf, x,
    "right"), the idler detected from fate n_fates on, branch fate %
    n_fates, and the last branch the signal lost."""
    fate = np.searchsorted(cdf, x, side="right")
    branch = fate % n_fates
    hit = np.flatnonzero(branch < n_fates - 1)
    return fate >= n_fates, hit, branch[hit]


def knot_uniforms(cdf):
    """0, 1 (x == cdf[-1]) and, for each knot k of ``cdf``, the uniform u
    with u * cdf[-1] == k if a float has it, and the floats either side."""
    us = {0.0, 1.0}
    for k in cdf if cdf[-1] > 0 else ():
        u = k / cdf[-1]
        for step in (0, 1, -1, 2, -2, 3, -3):
            v = u + step * math.ulp(u)
            if v * cdf[-1] == k:
                us |= {v, np.nextafter(v, 0.0), np.nextafter(v, 2.0)}
                break
    return sorted(u for u in us if 0.0 <= u <= 1.0)


@st.composite
def fate_tables(draw):
    """Tables shaped as _fate_classes gives them, with empty classes."""
    n = draw(st.integers(2, 5))
    entry = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    table = np.array(draw(st.lists(entry, min_size=2 * n, max_size=2 * n)))
    table = table.reshape(2, n)
    table[0, -1] = 0.0   # the pair that loses both photons is not a class
    return table


@settings(max_examples=60, deadline=None)
@given(table=fate_tables(),
       extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=10))
@example(table=np.array([[0.0, 0.25, 0.0], [0.5, 0.0, 0.25]]), extra=[])
def test_fate_split_matches_one_search_over_every_pair(comb_source, table,
                                                       extra):
    # two comparisons find the idlers and the signals that are not lost,
    # and only those signals are searched for their branch: the classes
    # are the ones a search over every pair gives, on every knot of the
    # class CDF and at x == cdf[-1]
    cdf, n_fates = np.cumsum(table), table.shape[1]
    u = np.array(knot_uniforms(cdf) + extra)
    plan = default_record("afc_plan", mode_count=5,
                          mode_spacing=comb_source.cavity.fsr_signal)
    # pair i's events lie in [i * spacing, (i + 1) * spacing)
    spacing = n_fates * round(plan.storage_time * 1e12) + 1
    t = np.arange(len(u), dtype=np.int64) * spacing
    rng = ScriptedDraws(poisson=[len(u), 0, 0], integers=[t[::-1].copy()],
                      random=[u])
    ev = scripted_run(comb_source, table, rng, plan)
    idler, hit, branch = one_search_classes(cdf, u * cdf[-1], n_fates)
    assert ev.idler_ps.view(np.int64).tolist() == t[idler].tolist()
    echo = np.rint(branch * plan.storage_time * 1e12).astype(np.int64)
    assert ev.signal_ps.view(np.int64).tolist() == sorted(t[hit] + echo)


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(
           st.integers(0, 1000),
           st.one_of(st.sampled_from([-1, 0, 1000, 1001]),
                     st.integers(-100, 1100)))),
       darks=st.lists(st.one_of(st.sampled_from([0, 1000]),
                                st.integers(0, 1000))))
def test_range_cut_by_slice_matches_mask_then_sort(comb_source, pairs, darks):
    # the idler channel of a 1000 ps run: pair times jittered to negatives,
    # to 0, to the run's end and past it, plus dark counts on 0 and on the
    # end.  A sort and a slice keep what a mask and a sort keep.
    t = np.sort(np.array([p[0] for p in pairs], dtype=np.int64))
    jittered = np.array([p[1] for p in pairs], dtype=np.int64)
    table = np.array([[0.0, 0.0], [0.0, 1.0]])   # every idler, no signal
    rng = ScriptedDraws(
        poisson=[len(t), len(darks), 0], integers=[t, np.array(darks, np.int64)],
        random=[np.full(len(t), 0.5)],
        normal=[(jittered - t).astype(float)] if len(t) else [])
    if not darks:   # no dark count: no dark times are drawn
        rng.results["integers"].pop()
    dets = {"idler": pm.DetectorModel(jitter_sigma=1e-12)}
    ev = scripted_run(comb_source, table, rng, dets=dets, duration=1e-9)
    every = np.concatenate([jittered, darks]).astype(np.int64)
    kept = np.sort(every[(every >= 0) & (every <= 1000)])
    assert ev.idler_ps.view(np.int64).tolist() == kept.tolist()
    assert len(ev.signal_ps) == 0


def test_dead_time_enforced_in_stream(cavity):
    dets = {"idler": pm.DetectorModel(dead_time=1e-6)}
    ev = pm.generate_events(flat_source(cavity), 5e5, None, None, dets,
                            None, 0.05, seed=4)
    assert np.all(np.diff(ev.idler_ps.astype(np.int64)) >= 1_000_000)


def test_gating_confines_photons_not_darks(cavity):
    g = default_record("gating", off_gate_attenuation=1.0)  # disable cond. gate
    dets = {"signal": pm.DetectorModel(dark_rate=2e4)}
    src = pm.SourceModel(spectrum=pm.comb_spectrum(cavity, 3), cavity=cavity)
    ev = pm.generate_events(src, 0.0, None, None, dets, g, 1.0, seed=8)
    # dark counts ignore the optical shutters: some land outside measuring
    assert 0 < np.count_nonzero(g.measuring(ev.signal_ps)) < len(ev.signal_ps)

    # photons are confined to the measuring phases
    ev2 = pm.generate_events(flat_source(cavity), 2e4, None, None, None,
                             g, 1.0, seed=8)
    assert len(ev2.idler_ps) and np.all(g.measuring(ev2.idler_ps))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), rate=st.floats(1e4, 1e7),
       dead_ps=st.tuples(st.integers(0, 2_000_000), st.integers(0, 2_000_000)),
       jitter=st.sampled_from([0.0, 0.35e-9, 5e-9]),
       cycle_us=st.integers(2, 100), percent=st.integers(10, 80),
       attenuation=st.floats(0.0, 1.0), afc=st.booleans())
def test_kept_events_respect_dead_time_and_phase(
        comb_source, seed, rate, dead_ps, jitter, cycle_us, percent,
        attenuation, afc):
    # no dark counts: every event is a photon, so it passed the shutters
    # and the phase test holds for all of them, and the dead time holds
    # exactly in integer ps on both channels
    plan = default_record("afc_plan", mode_count=5,
                          mode_spacing=comb_source.cavity.fsr_signal,
                          efficiency_override=0.4) if afc else None
    g = default_record("gating", cycle=cycle_us * 1e-6,
                       measure_fraction=percent / 100, break_time=1e-7,
                       off_gate_attenuation=attenuation)
    dets = {ch: pm.DetectorModel(jitter_sigma=jitter, dead_time=d * 1e-12)
            for ch, d in zip(("signal", "idler"), dead_ps)}
    ev = pm.generate_events(comb_source, rate, plan, None, dets, g, 2e-3,
                            seed)
    for ch, ts in (("signal", ev.signal_ps), ("idler", ev.idler_ps)):
        assert np.all(np.diff(ts.astype(np.int64)) >= dets[ch].dead_time_ps)
        assert np.all(g.measuring(ts))
        assert np.all(ts <= ev.duration_ps)


# signal timestamps of test_conditional_gate_without_idlers: the gate's
# path for signal events with no idler click before them
GOLDEN_GATE_NO_IDLER = (
    1_188, "327e6a8c27baff4faa46d27861ff97cabfa2ec205ea265b8348d570b9627cbe2")


def test_conditional_gate_without_idlers():
    # signal darks only, no idler clicks: no signal event falls inside a
    # conditional gate, so each passes with off_gate_attenuation
    cav = pm.CavityParams(fsr_signal=123e6, fsr_idler=122.9e6,
                          linewidth_signal=2.28e6, linewidth_idler=1.52e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    src = pm.SourceModel(spectrum=pm.comb_spectrum(cav, 3), cavity=cav)
    dets = {"signal": pm.DetectorModel(dark_rate=2e4)}

    def run(**gate):
        return pm.generate_events(src, 0.0, None, None, dets,
                                  default_record("gating", **gate), 0.2,
                                  seed=21)

    ev = run(off_gate_attenuation=0.3)
    assert len(ev.idler_ps) == 0
    digest = hashlib.sha256(ev.signal_ps.tobytes()).hexdigest()
    assert (len(ev.signal_ps), digest) == GOLDEN_GATE_NO_IDLER
    darks = run(off_gate_attenuation=1.0).signal_ps
    assert np.isin(ev.signal_ps, darks).all()
    assert len(ev.signal_ps) == pytest.approx(0.3 * len(darks), rel=0.1)
    # a gate that outlasts the run is still opened only by an idler click
    assert len(run(off_gate_attenuation=0.0,
                   conditional_gate_off=0.2).signal_ps) == 0


def test_memory_splits_transmit_and_echo(cavity):
    plan = default_record("afc_plan", mode_count=5,
                          mode_spacing=cavity.fsr_signal,
                          efficiency_override=0.4)
    src = flat_source(cavity)
    ev = pm.generate_events(src, 5e4, plan, None, None, None, 0.5, seed=12)
    starts = ev.idler_ps * 1e-12
    stops = ev.signal_ps * 1e-12
    # coincidence clusters at 0 and at the storage time
    i0 = np.searchsorted(stops, starts - 50e-9)
    i1 = np.searchsorted(stops, starts + 50e-9)
    prompt = int(np.sum(i1 - i0))
    j0 = np.searchsorted(stops, starts + plan.storage_time - 50e-9)
    j1 = np.searchsorted(stops, starts + plan.storage_time + 50e-9)
    echo = int(np.sum(j1 - j0))
    # the finite window truncates the delay envelope identically for the
    # prompt and the echo cluster, so only the ratio is a clean oracle
    t_expect = math.exp(-plan.peak_optical_depth / plan.finesse)
    assert prompt > 200 and echo > 200
    assert echo / prompt == pytest.approx(0.4 / t_expect, rel=0.1)


def test_conditional_gate_suppresses_out_of_window(cavity):
    # with echo delay inside [gate_on, gate_off], echoes pass and prompt
    # transmissions are attenuated to ~off_gate_attenuation
    plan = default_record("afc_plan", mode_count=5,
                          mode_spacing=cavity.fsr_signal,
                          efficiency_override=0.4)
    g = default_record("gating", off_gate_attenuation=0.0)
    src = flat_source(cavity)
    ev = pm.generate_events(src, 5e4, plan, None, None, g, 0.5, seed=13)
    starts = ev.idler_ps * 1e-12
    stops = ev.signal_ps * 1e-12
    prompt = int(np.sum(np.searchsorted(stops, starts + 50e-9)
                        - np.searchsorted(stops, starts - 50e-9)))
    echo = int(np.sum(
        np.searchsorted(stops, starts + plan.storage_time + 50e-9)
        - np.searchsorted(stops, starts + plan.storage_time - 50e-9)))
    assert echo > 50
    # a prompt signal can still leak through when it lands in the window
    # opened by an earlier unrelated idler (~1.2 us * idler rate here)
    assert prompt < 0.15 * echo


# SHA-256 of the merged channels + timestamps (the event-file record order)
# of the ideal chain (no memory, filters, detectors or gating) on the
# default spectrum, the one path no scenario takes; update it only on
# purpose, and say so in CHANGES.md
GOLDEN_IDEAL_CHAIN = (
    19_518, "00b43e2e10ff3772b0e8c5754e056151a340fbb300964735b65af7eeabb4cf58")


def test_ideal_chain_golden():
    s = pm.default_scenario()
    src = pm.SourceModel(build_spectrum(s), s.cavity)
    ev = pm.generate_events(src, 2e5, None, None, None, None, 0.05, 3)
    ch, ts = _merge_channels(ev.signal_ps, ev.idler_ps)
    digest = hashlib.sha256(ch.tobytes() + ts.tobytes()).hexdigest()
    assert (len(ev), digest) == GOLDEN_IDEAL_CHAIN


@pytest.fixture(scope="module")
def default_source():
    return pm.scenario.source_model(pm.default_scenario())


@pytest.mark.parametrize("case", ["gated", "ungated", "two echo orders",
                                  "no pairs", "idler only"])
def test_chunked_passes_keep_every_byte(default_source, monkeypatch, tmp_path,
                                        case):
    # the per-pair passes run over slices of _CHUNK pairs and the writer
    # over _CHUNK records: slices of one, of three, the shipped size and
    # one slice for the whole run give the same events and file bytes
    s = pm.default_scenario()
    plan, dets, gating, rate = s.afc_plan, s.detectors, s.gating, s.pair_rate
    if case == "ungated":
        gating = None
    elif case == "two echo orders":
        plan = replace(plan, echo_orders=2)
    elif case == "no pairs":   # dark counts alone, into arrays with no room
        rate = 0.0
        dets = {ch: replace(d, dark_rate=2e4) for ch, d in dets.items()}
    elif case == "idler only":   # every drawn pair leaves its idler alone
        dets = {**dets, "signal": replace(dets["signal"], efficiency=0.0)}
    runs = set()
    for chunk in (1, 3, 1 << 16, 10 ** 9):
        monkeypatch.setattr(pm.montecarlo, "_CHUNK", chunk)
        monkeypatch.setattr(pm.eventio, "_CHUNK", chunk)
        ev = pm.generate_events(default_source, rate, plan, s.filters, dets,
                                gating, 0.01, seed=5)
        pm.write_events(ev, tmp_path / "events.bin")
        runs.add((ev.signal_ps.tobytes(), ev.idler_ps.tobytes(),
                  (tmp_path / "events.bin").read_bytes()))
    assert len(runs) == 1
    assert len(ev.idler_ps) > 10
    assert len(ev.signal_ps) > 10 or case == "idler only"


def test_generator_and_writer_peak_memory(tmp_path):
    # traced peaks on default at 4 s (360 k events): the pair times become
    # the idler stream and every other per-pair array is a slice, so the
    # generator stays under 16 bytes per event; the writer holds slices of
    # records, not the whole file
    s = replace(pm.default_scenario(), duration_s=4.0)
    source = pm.scenario.source_model(s)
    pm.simulate(replace(s, duration_s=0.01), source)   # sampler and plan tables
    tracemalloc.start()
    try:
        ev = pm.simulate(s, source)
        generate_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pm.write_events(ev, tmp_path / "events.bin")
        write_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert generate_peak < 16 * len(ev)
    assert write_peak < 2 ** 20


def test_jitter_keeps_whole_ps_past_2_53(default_source):
    # a jitter that rounds to 0 leaves a timestamp where it was, also at
    # or past 2**53 ps, where float64 holds no odd whole ps
    s = pm.default_scenario()
    dets = {ch: replace(d, dark_rate=0.0, dead_time=0.0)
            for ch, d in s.detectors.items()}
    idlers = []
    for sigma in (0.0, 1e-15):
        d = {**dets, "idler": replace(dets["idler"], jitter_sigma=sigma)}
        idlers.append(pm.generate_events(default_source, 0.1, s.afc_plan,
                                         s.filters, d, None, 2e4,
                                         seed=5).idler_ps)
    assert np.count_nonzero(idlers[0] >= 2 ** 54) > 100
    assert np.array_equal(*idlers)


def test_sparse_idler_stream_lets_the_pair_buffer_go(default_source):
    # the idler stream is compacted into the pair-time array; when it
    # fills less than half of it, the stream is copied out
    s = pm.default_scenario()
    dets = {**s.detectors,
            "idler": replace(s.detectors["idler"], efficiency=0.05)}
    ev = pm.generate_events(default_source, s.pair_rate, s.afc_plan,
                            s.filters, dets, s.gating, 1.0, seed=s.seed)
    idl = ev.idler_ps
    assert len(idl) > 1000
    assert (idl if idl.base is None else idl.base).nbytes < 2 * idl.nbytes


def test_sparse_signal_stream_lets_the_pre_gate_buffer_go(default_source):
    # the signal stream is compacted into the array of signal photons
    # before the conditional gate, which drops most of them; the same rule
    # copies it out
    s = pm.default_scenario()
    ev = pm.generate_events(default_source, s.pair_rate, s.afc_plan,
                            s.filters, s.detectors, s.gating, 1.0, seed=s.seed)
    sig = ev.signal_ps
    assert len(sig) > 1000
    assert (sig if sig.base is None else sig.base).nbytes < 2 * sig.nbytes


@pytest.mark.parametrize("dark_rate, room", [(1.0, 1), (1e9, 7)])
def test_signal_darks_past_the_room_give_the_same_events(comb_source,
                                                         dark_rate, room):
    # the signal array leaves room behind the photons for the expected
    # dark counts (1e-9 and 1 here) and a margin; four darks overflow the
    # room of one and take the fallback, a copy with room for them, and
    # give the events that the room of seven holds
    t = np.array([5, 300, 300, 900], dtype=np.int64)
    darks = np.array([0, 300, 1000, 7], dtype=np.int64)
    table = np.array([[1.0, 0.0], [0.0, 0.0]])   # the signal alone, unstored
    rng = ScriptedDraws(poisson=[len(t), 0, len(darks)],
                        integers=[t.copy(), darks.copy()],
                        random=[np.full(len(t), 0.5)])
    dets = {"signal": pm.DetectorModel(dark_rate=dark_rate)}
    ev = scripted_run(comb_source, table, rng, dets=dets, duration=1e-9)
    assert ev.signal_ps.view(np.int64).tolist() == sorted([*t, *darks])
    assert ev.signal_ps.base.nbytes == 8 * max(len(t) + room,
                                               len(t) + len(darks))
    assert len(ev.idler_ps) == 0


def test_generate_events_zero_duration(cavity):
    ev = pm.generate_events(flat_source(cavity), 1e5, None, None, None, None,
                            0.0, seed=1)
    assert len(ev) == 0
    with pytest.raises(ParameterError):
        pm.generate_events(flat_source(cavity), 1e5, None, None, None, None,
                           -1.0, seed=1)


@pytest.mark.parametrize("rate", [-1.0, math.nan])
def test_generate_events_rejects_bad_pair_rate(cavity, rate):
    with pytest.raises(ParameterError, match="pair_rate"):
        pm.generate_events(flat_source(cavity), rate, None, None, None, None,
                           0.01, seed=1)


def test_model_digest_sensitivity(cavity):
    d1 = model_digest(pm.DetectorModel(efficiency=0.5))
    d2 = model_digest(pm.DetectorModel(efficiency=0.5))
    d3 = model_digest(pm.DetectorModel(efficiency=0.6))
    assert d1 == d2 != d3


def test_model_digest_rejects_what_it_cannot_digest():
    with pytest.raises(TypeError, match="cannot digest"):
        model_digest(object())


def test_model_digest_sees_every_afc_key(monkeypatch):
    # one changed value per AfcPlan field moves the digest of the plan; a
    # flat taper ignores its FWHM, so the base sets one
    base = default_record("afc_plan", taper_fwhm=5e9)
    changed = {"mode_count": 41, "mode_spacing": 124e6, "tooth_spacing": 1e6,
               "per_mode_bandwidth": 5e6, "finesse": 3.0,
               "peak_optical_depth": 3.0, "center_freq": 494.8e12,
               "background_od": 0.1, "efficiency_override": 0.3,
               "taper": "gaussian", "taper_fwhm": 6e9, "echo_orders": 2}
    assert set(changed) == {f.name for f in fields(pm.AfcPlan)}
    digests = {model_digest(replace(base, **{k: v}))
               for k, v in changed.items()}
    digests.add(model_digest(base))
    assert len(digests) == len(changed) + 1
    # the digest reads the plan's fields, not its derived per-mode tables
    # or a sampled spectrum
    blobs, sha256 = [], hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda b: blobs.append(b) or sha256(b))
    model_digest(base)
    assert base.mode_count == 83 and len(blobs[0]) < 10_000


def test_model_digest_takes_numpy_scalars(cavity):
    # numpy 2 reprs a numpy float as np.float64(...): digested as its value
    src = flat_source(cavity, n_modes=3)
    assert (model_digest(src, np.float64(1e5), np.int64(3), np.bool_(True))
            == model_digest(src, 1e5, 3, True))
    events = [pm.generate_events(src, rate, None, None, None, None, 1e-3, 1)
              for rate in (np.float64(1e4), 1e4)]
    assert events[0].model_digest == events[1].model_digest


def test_model_digest_pinned(cavity):
    # walks nested dataclasses, arrays, floats, lists, dicts and None, in
    # generate_events' order: source, pair rate, memory, filters,
    # detectors, gating; the string is pinned
    src = flat_source(cavity, n_modes=3)
    dets = {"signal": pm.DetectorModel(efficiency=0.5, dead_time=1e-8)}
    digest = model_digest(src, 1e5, None, {}, dets, default_record("gating"))
    assert digest == PINNED_MODEL_DIGEST


@pytest.mark.parametrize("eff", [None, 0.0, 0.3, 0.4999999, 0.5, 0.9, 1.0])
def test_echo_orders_past_54_route_no_photon(comb_source, eff):
    # why AfcPlan takes at most 64 echo orders: in double precision the
    # clipped cumulative branch table stops growing after 54 orders.  A deep
    # comb (transmission ~1e-13) lets the echo efficiency reach 1
    cavity = comb_source.cavity
    plan = default_record("afc_plan", mode_count=31, echo_orders=64,
                          mode_spacing=cavity.fsr_signal,
                          peak_optical_depth=60.0, efficiency_override=eff)
    det = pm.DetectorModel()
    table = _fate_classes(pm.comb_spectrum(cavity, 41), plan, {}, det, det)
    assert table.shape == (2, 66)
    assert np.all(table[:, 55:65] == 0.0)
    assert (table[1, 1] > 0.0) == (eff != 0.0)
