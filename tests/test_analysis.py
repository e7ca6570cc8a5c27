import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.analysis import (FsrEstimate, RateEstimate, _find_peaks,
                              detect_peaks, estimate_fsr, fit_envelope,
                              noise_floor)
from pairmem.errors import EstimationError, FitError, ParameterError
from pairmem.montecarlo import EventStream


def make_stream(signal_s, idler_s, duration_s=1.0, gating=None):
    from dataclasses import asdict
    sig = np.rint(np.asarray(signal_s, dtype=float) * 1e12).astype(np.uint64)
    idl = np.rint(np.asarray(idler_s, dtype=float) * 1e12).astype(np.uint64)
    ch = np.concatenate([np.zeros(len(sig), np.uint8),
                         np.ones(len(idl), np.uint8)])
    ts = np.concatenate([sig, idl])
    order = np.lexsort((ch, ts))
    meta = {"duration_ps": int(round(duration_s * 1e12)),
            "gating": asdict(gating) if gating else None}
    return EventStream(channels=ch[order], timestamps_ps=ts[order],
                       metadata=meta)


def naive_histogram(starts, stops, edges):
    """O(n^2) all-pairs oracle for the multi-stop histogram."""
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    for a in starts:
        for b in stops:
            d = b - a
            if edges[0] <= d < edges[-1]:
                counts[np.searchsorted(edges, d, side="right") - 1] += 1
    return counts


# ---------------------------------------------------------------------------
# histogramming

def test_histogram_matches_all_pairs_oracle():
    rng = np.random.default_rng(0)
    starts = np.sort(rng.random(40) * 1e-3)
    stops = np.sort(rng.random(60) * 1e-3)
    ev = make_stream(stops, starts, duration_s=1e-3)
    cfg = pm.HistogramConfig(bin_width=1e-6, range=(-20e-6, 20e-6))
    hist = pm.build_histogram(ev, cfg)
    # floats survive the ps round trip at this scale
    expect = naive_histogram(ev.times_s("idler"), ev.times_s("signal"),
                             cfg.bin_edges)
    assert np.array_equal(hist.counts, expect)
    assert hist.total_start_counts == 40
    assert hist.total_stop_counts == 60


def test_histogram_multi_stop_counts_every_pair():
    # one start, three stops inside range: all three are recorded
    ev = make_stream([10e-6, 11e-6, 12e-6], [9e-6], duration_s=1e-3)
    cfg = pm.HistogramConfig(bin_width=1e-6, range=(0.0, 5e-6))
    hist = pm.build_histogram(ev, cfg)
    assert hist.counts.sum() == 3


def test_histogram_empty_channels():
    ev = make_stream([], [], duration_s=1.0)
    hist = pm.build_histogram(ev, pm.HistogramConfig())
    assert hist.counts.sum() == 0


def test_histogram_config_validation():
    with pytest.raises(ParameterError):
        pm.HistogramConfig(bin_width=0.0)
    with pytest.raises(ParameterError):
        pm.HistogramConfig(range=(1.0, 0.0))


def test_histogram_config_rejects_nan_bin_width():
    with pytest.raises(ParameterError):
        pm.HistogramConfig(bin_width=float("nan"))


def test_merge_equals_whole():
    rng = np.random.default_rng(1)
    starts = np.sort(rng.random(200) * 1e-3)
    stops = np.sort(rng.random(200) * 1e-3)
    cfg = pm.HistogramConfig(bin_width=1e-6, range=(-10e-6, 10e-6))
    whole = pm.build_histogram(make_stream(stops, starts, 1e-3), cfg)
    # shard by start time, keeping all stops in each shard: pairings with
    # out-of-shard stops are preserved, so the merge is exact
    cut = 0.5e-3
    a = pm.build_histogram(make_stream(stops, starts[starts < cut], 1e-3), cfg)
    b = pm.build_histogram(make_stream(stops, starts[starts >= cut], 1e-3), cfg)
    merged = pm.merge_histograms(a, b)
    from dataclasses import fields
    for f in fields(whole):
        assert np.array_equal(getattr(merged, f.name), getattr(whole, f.name)), \
            f.name


def test_merge_rejects_shards_of_different_runs():
    cfg = pm.HistogramConfig(bin_width=1e-6, range=(-10e-6, 10e-6))
    a = pm.build_histogram(make_stream([1e-4, 2e-4], [1.5e-4], 1e-3), cfg)
    fewer_stops = pm.build_histogram(make_stream([1e-4], [1.6e-4], 1e-3), cfg)
    longer = pm.build_histogram(make_stream([1e-4, 2e-4], [1.6e-4], 2e-3), cfg)
    for b in (fewer_stops, longer):
        with pytest.raises(ParameterError, match="shards"):
            pm.merge_histograms(a, b)


def test_merge_rejects_mismatched_edges():
    ev = make_stream([], [], 1.0)
    a = pm.build_histogram(ev, pm.HistogramConfig(bin_width=1e-9))
    b = pm.build_histogram(ev, pm.HistogramConfig(bin_width=2e-9))
    with pytest.raises(ParameterError):
        pm.merge_histograms(a, b)


# ---------------------------------------------------------------------------
# stop-keyed coincidence search against the start-keyed formulas it replaced

def start_keyed_histogram(starts, stops, edges):
    """Former build_histogram search, one binary search per start: oracle."""
    lo, hi = edges[0], edges[-1]
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    if len(starts) and len(stops):
        i0 = np.searchsorted(stops, starts + lo, side="left")
        i1 = np.searchsorted(stops, starts + hi, side="left")
        n_per = i1 - i0
        total = int(n_per.sum())
        if total:
            flat = np.arange(total) - np.repeat(np.cumsum(n_per) - n_per, n_per) \
                + np.repeat(i0, n_per)
            delays = stops[flat] - np.repeat(starts, n_per)
            counts, _ = np.histogram(delays, bins=edges)
            counts = counts.astype(np.int64)
    return counts


def start_keyed_coincidences(starts, stops, window, center):
    """Former g2_estimate coincidence count, one search per start: oracle."""
    lo, hi = center - window / 2, center + window / 2
    return int((np.searchsorted(stops, starts + hi, side="right")
                - np.searchsorted(stops, starts + lo, side="left")).sum())


class FloatTimes:
    """What the coincidence search reads of an EventStream, holding float
    times, so that a stop can sit exactly on fl(t + lo) or fl(t + hi) of a
    start t; picosecond timestamps land there only by chance."""

    duration_s = 1.0

    def __init__(self, starts, stops):
        self._times = {"idler": np.sort(starts), "signal": np.sort(stops)}

    def __len__(self):
        return sum(map(len, self._times.values()))

    def times_s(self, channel):
        return self._times[channel]

    def gating(self):
        return None

    def live_time_s(self):
        return self.duration_s


@st.composite
def coincidence_cases(draw):
    """Integer-picosecond channels 1 us from zero; the narrow range makes
    ties and timestamps shared by both channels common, either channel may
    be empty or the larger, and windows reach past the run on either side."""
    times = st.lists(st.integers(0, 400), max_size=30)
    starts = draw(times)
    stops = draw(times) + starts[:draw(st.integers(0, len(starts)))]
    lo = draw(st.integers(-600, 500))
    hi = lo + draw(st.integers(1, 1200))
    ps = 1e-12
    ev = make_stream((10**6 + np.array(stops, dtype=float)) * ps,
                     (10**6 + np.array(starts, dtype=float)) * ps)
    cfg = pm.HistogramConfig(bin_width=(hi - lo) * ps / draw(st.integers(1, 40)),
                             range=(lo * ps, hi * ps))
    return ev, cfg, (hi - lo) * ps, (hi + lo) * ps / 2


def assert_matches_start_keyed(events, cfg, window, center):
    starts, stops = events.times_s("idler"), events.times_s("signal")
    hist = pm.build_histogram(events, cfg)
    assert np.array_equal(hist.counts,
                          start_keyed_histogram(starts, stops, cfg.bin_edges))
    if len(starts) and len(stops):
        est = pm.g2_estimate(events, window, center)
        assert est.coincidences == start_keyed_coincidences(
            starts, stops, window, center)
    else:
        with pytest.raises(EstimationError):
            pm.g2_estimate(events, window, center)


@settings(max_examples=300, deadline=None)
@given(case=coincidence_cases())
def test_stop_keyed_search_matches_start_keyed_oracle(case):
    assert_matches_start_keyed(*case)


@settings(max_examples=300, deadline=None)
@given(case=coincidence_cases(), data=st.data())
def test_stop_keyed_search_exact_at_window_edges(case, data):
    ev, cfg, window, center = case
    starts = ev.times_s("idler")
    edges = (cfg.bin_edges[0], cfg.bin_edges[-1],
             center - window / 2, center + window / 2)
    picks = data.draw(st.lists(st.sampled_from(starts), max_size=4)) \
        if len(starts) else []
    # every edge of a picked start, and one ulp to either side of it
    on_edge = [np.nextafter(t + e, t + e + d)
               for t in picks for e in edges for d in (-1.0, 0.0, 1.0)]
    stops = np.concatenate([ev.times_s("signal"), on_edge])
    assert_matches_start_keyed(FloatTimes(starts, stops), cfg, window, center)


# ---------------------------------------------------------------------------
# peak detection / FSR

def synthetic_comb(fsr=123e6, lw_s=2.28e6, lw_i=1.52e6, amp=1e4,
                   bin_width=0.2e-9, span=300e-9, floor=0.0):
    edges = np.arange(-span, span + bin_width, bin_width)
    mids = 0.5 * (edges[:-1] + edges[1:])
    period = 1.0 / fsr
    sigma = 0.4e-9
    y = np.full(len(mids), float(floor))
    for k in range(-int(span / period) - 1, int(span / period) + 2):
        c = k * period
        lw = lw_s if c >= 0 else lw_i
        h = amp * math.exp(-2 * math.pi * lw * abs(c))
        y += h * np.exp(-0.5 * ((mids - c) / sigma) ** 2)
    from pairmem.analysis import CorrelationHistogram
    return CorrelationHistogram(counts=np.rint(y).astype(np.int64),
                                bin_edges=edges, total_start_counts=1,
                                total_stop_counts=1, duration=1.0)


def test_detect_peaks_positions():
    hist = synthetic_comb()
    peaks = detect_peaks(hist, min_prominence=50.0)
    period = 1.0 / 123e6
    for d, h in peaks:
        k = round(d / period)
        assert abs(d - k * period) < 0.2e-9
        assert h > 0


def assert_peaks_match_oracle(y):
    """_find_peaks equals scipy's find_peaks at thresholds 0, 1, every
    candidate's exact prominence and the next float above it."""
    signal = pytest.importorskip("scipy.signal")
    y = np.asarray(y, dtype=float)
    candidates, _ = signal.find_peaks(y)
    proms = np.unique(signal.peak_prominences(y, candidates)[0]) \
        if len(candidates) else np.zeros(0)
    for p in (0.0, 1.0, *proms, *np.nextafter(proms, np.inf)):
        expect, _ = signal.find_peaks(y, prominence=p)
        got = _find_peaks(y, p)
        assert np.array_equal(got, expect), (y.tolist(), p, got, expect)


def _runs(pairs):
    """Array of plateaus from (value, run length) pairs."""
    return np.repeat([v for v, _ in pairs], [k for _, k in pairs])


@settings(max_examples=400, deadline=None)
@given(y=st.one_of(
    st.lists(st.integers(0, 3), max_size=40),
    st.lists(st.integers(0, 1000), max_size=60),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 6)),
             max_size=15).map(_runs)))
def test_find_peaks_matches_scipy_oracle(y):
    # small-integer ties, deep valleys, and repeated plateaus (including
    # plateaus at either edge, which are never peaks)
    assert_peaks_match_oracle(y)


def test_find_peaks_short_and_flat_arrays():
    import itertools
    # edge plateaus, and a plateau reported at its middle index
    assert list(_find_peaks(np.array([3., 3., 1., 2., 2., 2., 2., 0.]), 0.0)) == [4]
    assert list(_find_peaks(np.array([0., 1., 1., 5., 5.]), 0.0)) == []
    for n in (0, 4, 5, 50):
        assert len(_find_peaks(np.full(n, 7.0), 0.0)) == 0
    for n in range(4):
        for y in itertools.product(range(3), repeat=n):
            assert_peaks_match_oracle(y)
    for n in (4, 5, 50):
        assert_peaks_match_oracle(np.full(n, 7.0))


def test_find_peaks_default_comb_view():
    from pairmem.scenario import _comb_view, _histogram, build_profile
    s = pm.default_scenario()
    hist = _histogram(s, pm.simulate(s))
    view = _comb_view(hist, build_profile(s).storage_time,
                      s.analysis.comb_fit_halfspan_s)
    assert_peaks_match_oracle(view.counts)


def test_estimate_fsr_recovers_configured_value():
    hist = synthetic_comb(fsr=123e6)
    est = estimate_fsr(detect_peaks(hist, 50.0), k_max=30)
    assert est.fsr_hz == pytest.approx(123e6, rel=1e-3)
    assert est.interval_s == pytest.approx(1 / 123e6, rel=1e-3)


def test_estimate_fsr_bridges_missing_peak():
    # delete one comb peak: the interval snapping spans the gap
    period = 1 / 123e6
    peaks = [(k * period, 100.0) for k in range(0, 12) if k != 5]
    est = estimate_fsr(peaks, k_max=30)
    assert est.fsr_hz == pytest.approx(123e6, rel=1e-6)


def test_estimate_fsr_merges_spurious_peak():
    period = 1 / 123e6
    peaks = [(k * period, 100.0) for k in range(0, 12)]
    peaks.append((3.2 * period, 10.0))  # noise spike between peaks
    peaks.sort()
    est = estimate_fsr(peaks, k_max=30)
    assert est.fsr_hz == pytest.approx(123e6, rel=1e-6)


def test_estimate_fsr_failures():
    with pytest.raises(EstimationError):
        estimate_fsr([])
    with pytest.raises(EstimationError):
        estimate_fsr([(0.0, 1.0)])


# ---------------------------------------------------------------------------
# linewidth fits

def test_fit_envelope_recovers_both_sides():
    hist = synthetic_comb(lw_s=2.28e6, lw_i=1.52e6, amp=1e6)
    lw_s, err_s = fit_envelope(hist, "positive", min_prominence=100.0)
    lw_i, err_i = fit_envelope(hist, "negative", min_prominence=100.0)
    assert lw_s == pytest.approx(2.28e6, rel=0.02)
    assert lw_i == pytest.approx(1.52e6, rel=0.02)
    assert err_s > 0 and err_i > 0


def test_fit_envelope_floor_subtraction():
    hist = synthetic_comb(lw_s=2.0e6, amp=1e6, floor=500.0)
    lw, _ = fit_envelope(hist, "positive", floor=500.0, min_prominence=100.0)
    assert lw == pytest.approx(2.0e6, rel=0.03)


def test_fit_envelope_needs_enough_peaks():
    hist = synthetic_comb(span=20e-9)  # only ~2 peaks per side
    with pytest.raises(FitError):
        fit_envelope(hist, "positive", min_prominence=10.0)
    with pytest.raises(ParameterError):
        fit_envelope(hist, "both")


# ---------------------------------------------------------------------------
# noise floor / rates

def test_noise_floor_mean_and_error():
    from pairmem.analysis import CorrelationHistogram
    edges = np.arange(0.0, 101.0)
    counts = np.full(100, 7, dtype=np.int64)
    hist = CorrelationHistogram(counts=counts, bin_edges=edges,
                                total_start_counts=1, total_stop_counts=1,
                                duration=1.0)
    mean, err = noise_floor(hist, (10.0, 60.0))
    assert mean == pytest.approx(7.0)
    assert err == 0.0
    with pytest.raises(ParameterError):
        noise_floor(hist, (95.0, 99.0))  # < 10 bins
    with pytest.raises(ParameterError):
        noise_floor(hist, (-5.0, 60.0))  # outside range


def test_coincidence_rate_floor_subtracted():
    from pairmem.analysis import CorrelationHistogram
    edges = np.arange(-50.0e-9, 450.0e-9, 1e-9)
    counts = np.full(len(edges) - 1, 3, dtype=np.int64)
    # put 1000 extra counts in the 100 bins around t = 200 ns
    mids = 0.5 * (edges[:-1] + edges[1:])
    feature = np.abs(mids - 200e-9) <= 50e-9
    counts[feature] += 10
    hist = CorrelationHistogram(counts=counts, bin_edges=edges,
                                total_start_counts=1, total_stop_counts=1,
                                duration=2.0)
    r = pm.coincidence_rate(hist, 100e-9, 200e-9, floor=3.0)
    n_feature = int(np.count_nonzero(feature))
    assert r.rate == pytest.approx(10 * n_feature / 2.0)
    assert not r.clamped
    # floor over-subtraction clamps at zero and flags it
    r2 = pm.coincidence_rate(hist, 100e-9, 0.0, floor=50.0)
    assert r2.rate == 0.0 and r2.clamped


# ---------------------------------------------------------------------------
# g2 estimator

def test_g2_uncorrelated_is_unity():
    rng = np.random.default_rng(5)
    T = 10.0
    sig = np.sort(rng.random(40_000) * T)
    idl = np.sort(rng.random(40_000) * T)
    ev = make_stream(sig, idl, duration_s=T)
    est = pm.g2_estimate(ev, window=1e-6, center=0.0)
    assert est.value == pytest.approx(1.0, abs=5 * est.error)
    assert est.error < 0.15
    assert not est.undefined


def test_g2_correlated_pairs():
    rng = np.random.default_rng(6)
    T = 10.0
    idl = np.sort(rng.random(5_000) * T)
    sig = idl + 100e-9  # every idler heralds one signal
    ev = make_stream(sig, idl, duration_s=T)
    est = pm.g2_estimate(ev, window=1e-6, center=0.0)
    # C >= N_pairs while accidentals contribute ~N^2 window/T
    expect = 5_000 * T / (5_000 * 5_000 * 1e-6)
    assert est.value == pytest.approx(expect, rel=0.05)
    assert est.value > 100


def test_g2_counts_and_error_formula():
    idl = np.array([1.0, 2.0, 3.0])
    sig = np.array([1.0, 2.0])
    ev = make_stream(sig, idl, duration_s=10.0)
    est = pm.g2_estimate(ev, window=1e-3, center=0.0)
    assert est.coincidences == 2
    assert est.starts == 3 and est.stops == 2
    expect = 2 * 10.0 / (3 * 2 * 1e-3)
    assert est.value == pytest.approx(expect)
    assert est.error == pytest.approx(
        est.value * math.sqrt(1 / 2 + 1 / 3 + 1 / 2))


def test_g2_zero_coincidences_upper_bound():
    ev = make_stream([9.0], [1.0], duration_s=10.0)
    est = pm.g2_estimate(ev, window=1e-6, center=0.0)
    assert est.undefined and est.value == 0.0
    assert est.upper_bound == pytest.approx(10.0 / 1e-6)


def test_g2_empty_channel_raises():
    ev = make_stream([], [1.0], duration_s=1.0)
    with pytest.raises(EstimationError):
        pm.g2_estimate(ev, window=1e-6, center=0.0)


def test_g2_live_time_normalization():
    # same events, but gating metadata shrinks the live time
    g = pm.GatingSequence()
    rng = np.random.default_rng(7)
    T = 1.0
    live = np.sort(rng.random(20_000) * g.live_total(T))
    t = g.live_to_abs(live)
    ev_gated = make_stream(t, t.copy(), duration_s=T, gating=g)
    est = pm.g2_estimate(ev_gated, window=1e-6, center=0.0)
    assert est.live_time == pytest.approx(0.45)


# ---------------------------------------------------------------------------
# classical limit / effective modes / shuffle

def test_classical_limit_values():
    assert pm.classical_limit(1) == 2.0
    assert pm.classical_limit(33) == pytest.approx(1.0 + 1.0 / 33)
    with pytest.raises(ParameterError):
        pm.classical_limit(0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=1, max_value=10_000))
def test_classical_limit_monotone(n):
    assert 1.0 < pm.classical_limit(n) <= 2.0
    assert pm.classical_limit(n + 1) < pm.classical_limit(n)


def test_effective_modes_ratio():
    n, err = pm.effective_modes((330.0, 10.0), (10.0, 1.0))
    assert n == pytest.approx(33.0)
    assert err == pytest.approx(33.0 * math.sqrt((10 / 330) ** 2 + 0.1 ** 2))
    with pytest.raises(EstimationError):
        pm.effective_modes((1.0, 0.1), (0.0, 0.0))


def test_shuffle_destroys_correlations():
    rng = np.random.default_rng(8)
    T = 5.0
    idl = np.sort(rng.random(20_000) * T)
    sig = idl + 50e-9
    ev = make_stream(sig, idl, duration_s=T)
    before = pm.g2_estimate(ev, window=1e-6, center=0.0)
    shuffled = pm.shuffle_channel(ev, "idler", seed=1)
    after = pm.g2_estimate(shuffled, window=1e-6, center=0.0)
    assert before.value > 50
    assert after.value == pytest.approx(1.0, abs=5 * max(after.error, 0.02))
    # counts preserved, only times moved
    assert len(shuffled) == len(ev)
    assert np.array_equal(np.sort(shuffled.channels), np.sort(ev.channels))


# ---------------------------------------------------------------------------
# report round trip

def _report(**kw):
    base = dict(fsr_hz=123e6, fsr_err_hz=1e4, interval_s=8.13e-9,
                interval_err_s=1e-12, linewidth_signal_hz=2.28e6,
                linewidth_signal_err_hz=1e4, linewidth_idler_hz=1.52e6,
                linewidth_idler_err_hz=1e4, echo_delay_s=1.087e-6,
                noise_floor_counts=3.0, noise_floor_err=0.1,
                coincidence_rate_cps=100.0, coincidence_rate_err=5.0,
                g2=6.0, g2_err=0.3, n_effective=32.0, n_effective_err=4.0,
                classical_limit=1.0303, nonclassical=True)
    base.update(kw)
    return pm.AnalysisReport(**base)


def test_report_json_roundtrip():
    rep = _report(provenance={"seed": 1})
    back = pm.AnalysisReport.from_json(rep.to_json())
    assert back == rep
    assert '"schema_version":1' in rep.to_json()


def test_report_flag_consistency_enforced():
    with pytest.raises(ParameterError):
        _report(g2=1.0, nonclassical=True)
    with pytest.raises(ParameterError):
        _report(g2=6.0, nonclassical=False)
