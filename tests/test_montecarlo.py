import hashlib
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.eventio import _merge_channels
from pairmem.montecarlo import (DelaySampler, _count_reached, _guide_table,
                                _guided_search, _prune_dead_time, model_digest)
from pairmem.errors import ParameterError
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
# guide-table lookup against np.searchsorted

def assert_guided_matches(cdf, v):
    got = _guided_search(_guide_table(cdf), v)
    assert np.array_equal(got, np.searchsorted(cdf, v))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0),
                          st.floats(min_value=1e-6, max_value=1e3)),
                min_size=1, max_size=40).filter(lambda d: sum(d) > 0),
       st.lists(st.floats(min_value=0, max_value=1), max_size=30))
def test_guided_search_matches_searchsorted(dens, fracs):
    # zero densities make plateaus: repeated CDF entries
    cdf = np.cumsum(np.array(dens))
    keys = np.concatenate([
        [0.0, cdf[-1], np.nextafter(cdf[-1], np.inf), 2 * cdf[-1]],
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, np.inf),
        np.array(fracs) * cdf[-1]])
    assert_guided_matches(cdf, keys)


def test_guided_search_delay_table_and_fallback(cavity, small_spectrum):
    sampler = DelaySampler(small_spectrum, cavity)
    cdf = sampler._branches[0]["cdf"]
    v = pm.make_rng(5).random(200_000) * cdf[-1]
    assert_guided_matches(cdf, v)
    # one spike holds almost all mass, so the 500 entries below it share
    # the first bucket: keys there take the bisection fallback
    dens = np.full(1000, 1e-9)
    dens[500] = 1.0
    cdf = np.cumsum(dens)
    v = np.concatenate([np.linspace(0.0, cdf[-1], 5001), cdf])
    assert_guided_matches(cdf, v)


# ---------------------------------------------------------------------------
# lazy delays, row-wise branch counts and the channel merge against the
# formulas they replaced

def eager_delays(b, k, v):
    """Delays of one branch from whole periods k and CDF keys v, with the
    lower CDF edges as a table, as DelaySampler once held them."""
    j = _guided_search(b["guide"], v)
    lower = np.concatenate(([0.0], b["cdf"][:-1]))
    frac = (v - lower[j]) / b["dens"][j]
    u = (j + frac) * b["du"]
    return k * b["period"] + u


def eager_sample(sampler, rng, size):
    """DelaySampler.sample as it was: every delay evaluated at draw time."""
    def branch(n, b):
        lam = b["gamma"] * b["period"]
        k = np.floor(rng.exponential(scale=1.0 / lam, size=n))
        v = rng.random(n) * b["cdf"][-1]
        return eager_delays(b, k, v)

    pos = rng.random(size) < sampler.p_positive
    out = np.empty(size)
    n_pos = int(np.count_nonzero(pos))
    if n_pos:
        out[pos] = branch(n_pos, sampler._branches[0])
    if size - n_pos:
        out[~pos] = -branch(size - n_pos, sampler._branches[1])
    return out


@pytest.fixture(scope="module")
def comb_source():
    cav = pm.CavityParams(fsr_signal=123.0e6, fsr_idler=122.92435e6,
                          linewidth_signal=2.28e6, linewidth_idler=1.52e6,
                          signal_center=494.7e12, idler_center=193.4e12)
    return pm.SourceModel(pm.comb_spectrum(cav, 5), cav)


@pytest.fixture(scope="module")
def comb_sampler(comb_source):
    return comb_source.sampler


def assert_lazy_matches_eager(sampler, seed, n, sel):
    sel = np.asarray(sel, dtype=np.intp)
    eager_rng, lazy_rng = pm.make_rng(seed), pm.make_rng(seed)
    want = eager_sample(sampler, eager_rng, n)[sel]
    got = sampler.delays(sampler.draw(lazy_rng, n), sel)
    assert got.tobytes() == want.tobytes()    # bit for bit, signed zeros too
    # the same variates were taken: both generators are at the same state
    assert lazy_rng.random() == eager_rng.random()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 60), st.data())
def test_lazy_delays_match_eager_sample(comb_sampler, seed, n, data):
    picked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_lazy_matches_eager(comb_sampler, seed, n, np.flatnonzero(picked))


def test_lazy_delays_edge_selections(comb_sampler):
    n = 5000
    for sel in ([], np.arange(n), [0], [n - 1], [1234]):
        assert_lazy_matches_eager(comb_sampler, 17, n, sel)
    # one pair: one of the two branches draws nothing
    for seed in range(20):
        assert_lazy_matches_eager(comb_sampler, seed, 1, [0])
        assert_lazy_matches_eager(comb_sampler, seed, 1, [])
    # no pairs at all
    assert_lazy_matches_eager(comb_sampler, 3, 0, [])


def test_delays_at_table_edges(comb_sampler):
    # keys in the first table entry (j = 0, no CDF below it), on entry
    # boundaries and at the top of the table
    for i, sign in ((0, 1.0), (1, -1.0)):
        cdf = comb_sampler._branches[i]["cdf"]
        v = np.array([0.0, cdf[0] / 2, cdf[0], np.nextafter(cdf[0], np.inf),
                      cdf[1], cdf[-2], cdf[-1]])
        k = np.arange(len(v), dtype=float)
        pos = np.full(len(v), i == 0)
        keys = [(k, v), None] if i == 0 else [None, (k, v)]
        got = comb_sampler.delays((pos, keys), np.arange(len(v)))
        want = sign * eager_delays(comb_sampler._branches[i], k, v)
        assert got.tobytes() == want.tobytes()


def test_sample_is_draw_then_every_delay(comb_sampler):
    a = comb_sampler.sample(pm.make_rng(9), 1000)
    b = eager_sample(comb_sampler, pm.make_rng(9), 1000)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0, 1, 3]), st.integers(0, 2 ** 32),
       st.integers(1, 8), st.integers(0, 50))
def test_count_reached_matches_gathered_count(orders, seed, n_modes, n):
    rng = np.random.default_rng(seed)
    # nondecreasing per column, as a cumulative branch table is
    rows = np.cumsum(rng.random((orders + 1, n_modes)) / (orders + 1), axis=0)
    idx = rng.integers(0, n_modes, n)
    u = rng.random(n)
    # some keys sit exactly on a threshold, or just beside one
    on = rng.random(n) < 0.5
    u[on] = rows[rng.integers(0, orders + 1, n)[on], idx[on]]
    u[::7] = np.nextafter(u[::7], 0.0)
    got = _count_reached(u, rows, idx)
    assert got.dtype.kind == "u"
    assert np.array_equal(got, np.count_nonzero(u >= rows[:, idx], axis=0))


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
    19_518, "0f705b5616610100f7a6fb59e46ca35e53c10f4675f7ecd360ba04e31d32f113")


def test_ideal_chain_golden():
    s = pm.default_scenario()
    src = pm.SourceModel(build_spectrum(s), s.cavity)
    ev = pm.generate_events(src, 2e5, None, None, None, None, 0.05, 3)
    ch, ts = _merge_channels(ev.signal_ps, ev.idler_ps)
    digest = hashlib.sha256(ch.tobytes() + ts.tobytes()).hexdigest()
    assert (len(ev), digest) == GOLDEN_IDEAL_CHAIN


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


def test_model_digest_pinned(cavity):
    # walks nested dataclasses, arrays, floats, lists, dicts and None, in
    # generate_events' order: source, pair rate, memory, filters,
    # detectors, gating; the string is pinned
    src = flat_source(cavity, n_modes=3)
    dets = {"signal": pm.DetectorModel(efficiency=0.5, dead_time=1e-8)}
    digest = model_digest(src, 1e5, None, {}, dets, default_record("gating"))
    assert digest == PINNED_MODEL_DIGEST
