import math
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.analysis import (PairCounter, _find_peaks, detect_peaks,
                              estimate_fsr, fit_envelope, fit_peak_envelope,
                              histogram_edges, noise_floor, window_range)
from pairmem.errors import EstimationError, ParameterError
from pairmem.montecarlo import EventStream

from conftest import default_record, sequence_phase, shuffle_channel


def ps_stream(signal_ps, idler_ps, duration_ps=10**12):
    return EventStream(signal_ps=np.sort(np.asarray(signal_ps, dtype=np.uint64)),
                       idler_ps=np.sort(np.asarray(idler_ps, dtype=np.uint64)),
                       duration_ps=duration_ps, seed=0, model_digest="00" * 32)


def make_stream(signal_s, idler_s, duration_s=1.0):
    def ps(t):
        return np.rint(np.asarray(t, dtype=float) * 1e12).astype(np.uint64)
    return ps_stream(ps(signal_s), ps(idler_s), int(round(duration_s * 1e12)))


def window_counter(ev, window_ps, center_ps, gating=None):
    """The counts that ``g2_estimate`` reads: a counter whose one bin is the
    whole-ps window."""
    lo, hi = window_range(window_ps, center_ps)
    return PairCounter(np.array([lo, hi + 1]), gating).add(ev).close()


def bin_count(bins):
    """Number of bins of ``bins = (width, (lo, hi))``: as many as cover
    [lo, hi)."""
    w, (lo, hi) = bins
    return -((lo - hi) // w)


def all_pairs_histogram(starts, stops, bins):
    """O(n^2) Python-int oracle for the multi-stop histogram: the pair
    delay s - t lands in bin (s - t - lo) // width."""
    w, (lo, _) = bins
    counts = [0] * bin_count(bins)
    for t in map(int, starts):
        for s in map(int, stops):
            k = (s - t - lo) // w
            if 0 <= k < len(counts):
                counts[k] += 1
    return counts


def start_keyed_histogram(starts, stops, bins):
    """Python-int oracle keyed the other way round: for each start t, the
    sorted stops in [t + lo, t + hi) found by bisection, binned as
    (s - t - lo) // width."""
    w, (lo, hi) = bins
    stops = sorted(map(int, stops))
    counts = [0] * bin_count(bins)
    for t in map(int, starts):
        for s in stops[bisect_left(stops, t + lo):bisect_left(stops, t + hi)]:
            counts[(s - t - lo) // w] += 1
    return counts


def start_keyed_coincidences(starts, stops, window, center):
    """Python-int oracle for the g2 window count, one bisection per start:
    the stops within window / 2 of t + center, ends included."""
    stops = sorted(map(int, stops))
    half = window // 2
    return sum(bisect_right(stops, t + center + half)
               - bisect_left(stops, t + center - half)
               for t in map(int, starts))


def all_pairs_coincidences(starts, stops, window, center):
    """O(n^2) Python-int oracle for the g2 window count: the pairs whose
    delay lies within window / 2 of the center, ends included."""
    return sum(2 * abs(s - t - center) <= window
               for t in map(int, starts) for s in map(int, stops))


# ---------------------------------------------------------------------------
# histogramming

def test_histogram_matches_all_pairs_oracle():
    rng = np.random.default_rng(0)
    starts = np.sort(rng.random(40) * 1e-3)
    stops = np.sort(rng.random(60) * 1e-3)
    ev = make_stream(stops, starts, duration_s=1e-3)
    bins = (10**6, (-20 * 10**6, 20 * 10**6))
    hist = pm.build_histogram(ev, *bins)
    assert hist.counts.tolist() == all_pairs_histogram(ev.idler_ps, ev.signal_ps,
                                                       bins)
    assert hist.total_start_counts == 40
    assert hist.total_stop_counts == 60


def test_histogram_multi_stop_counts_every_pair():
    # one start, three stops inside range: all three are recorded
    ev = make_stream([10e-6, 11e-6, 12e-6], [9e-6], duration_s=1e-3)
    hist = pm.build_histogram(ev, 10**6, (0, 5 * 10**6))
    assert hist.counts.sum() == 3


def test_histogram_empty_channels():
    ev = make_stream([], [], duration_s=1.0)
    hist = pm.build_histogram(ev, 200, (-500_000, 2_200_000))
    assert hist.counts.sum() == 0
    assert len(hist.counts) == 13_500


def test_histogram_config_validation():
    ev = make_stream([], [], duration_s=1.0)
    with pytest.raises(ParameterError):
        pm.build_histogram(ev, 0, (0, 10))
    with pytest.raises(ParameterError):
        pm.build_histogram(ev, 1, (1, 0))


def test_histogram_config_rejects_nan_bin_width():
    with pytest.raises(ParameterError):
        pm.build_histogram(make_stream([], [], duration_s=1.0),
                           float("nan"), (0, 10))


def test_merge_equals_whole():
    rng = np.random.default_rng(1)
    starts = np.sort(rng.random(200) * 1e-3)
    stops = np.sort(rng.random(200) * 1e-3)
    bins = (10**6, (-10**7, 10**7))
    whole = pm.build_histogram(make_stream(stops, starts, 1e-3), *bins)
    # shard by start time, keeping all stops in each shard: pairings with
    # out-of-shard stops are preserved, so the merge is exact
    cut = 0.5e-3
    a = pm.build_histogram(make_stream(stops, starts[starts < cut], 1e-3), *bins)
    b = pm.build_histogram(make_stream(stops, starts[starts >= cut], 1e-3), *bins)
    merged = pm.merge_histograms(a, b)
    from dataclasses import fields
    for f in fields(whole):
        assert np.array_equal(getattr(merged, f.name), getattr(whole, f.name)), \
            f.name


def test_merge_rejects_shards_of_different_runs():
    bins = (10**6, (-10**7, 10**7))
    a = pm.build_histogram(make_stream([1e-4, 2e-4], [1.5e-4], 1e-3), *bins)
    fewer_stops = pm.build_histogram(make_stream([1e-4], [1.6e-4], 1e-3), *bins)
    longer = pm.build_histogram(make_stream([1e-4, 2e-4], [1.6e-4], 2e-3), *bins)
    for b in (fewer_stops, longer):
        with pytest.raises(ParameterError, match="shards"):
            pm.merge_histograms(a, b)


def test_merge_rejects_mismatched_edges():
    ev = make_stream([], [], 1.0)
    a = pm.build_histogram(ev, 1000, (-500_000, 2_200_000))
    b = pm.build_histogram(ev, 2000, (-500_000, 2_200_000))
    with pytest.raises(ParameterError):
        pm.merge_histograms(a, b)


# ---------------------------------------------------------------------------
# integer search and binning against the Python-int oracles

@st.composite
def coincidence_cases(draw, on_edges=False):
    """Integer-picosecond channels 1 us from zero; the narrow range makes
    ties and timestamps shared by both channels common, either channel may
    be empty or the larger, and the histogram and the window reach past
    the run on either side.  With on_edges, extra stops sit on every bin
    edge, range end and window end of some starts, and one ps to either
    side of it."""
    times = st.lists(st.integers(10**6, 10**6 + 400), max_size=30)
    starts = draw(times)
    stops = draw(times) + starts[:draw(st.integers(0, len(starts)))]
    lo, w, n = (draw(st.integers(-600, 500)), draw(st.integers(1, 60)),
                draw(st.integers(1, 40)))
    window, center = draw(st.integers(1, 1200)), draw(st.integers(-600, 600))
    if on_edges:
        # the window's last whole-ps delays on either side
        edges = [lo + k * w for k in range(n + 1)] \
            + [center - window // 2, center + window // 2]
        picks = draw(st.lists(st.sampled_from(starts), max_size=3)) \
            if starts else []
        stops += [t + e + d for t in picks for e in edges for d in (-1, 0, 1)]
    return starts, stops, (w, (lo, lo + n * w)), window, center


def assert_search_matches(case, histogram_oracle, coincidence_oracle):
    starts, stops, bins, window, center = case
    ev = ps_stream(stops, starts)
    hist = pm.build_histogram(ev, *bins)
    assert hist.counts.tolist() == histogram_oracle(starts, stops, bins)
    if starts and stops:
        value, _ = pm.g2_estimate(ev, window, center, None)
        c = coincidence_oracle(starts, stops, window, center)
        # C T / (S I W): T = 1 s, W the 2 floor(window / 2) + 1 whole ps
        assert value == pytest.approx(
            c / (len(starts) * len(stops) * (window // 2 * 2 + 1) * 1e-12))
    else:
        with pytest.raises(EstimationError):
            pm.g2_estimate(ev, window, center, None)


@settings(max_examples=300, deadline=None)
@given(case=coincidence_cases())
def test_stop_keyed_search_matches_start_keyed_oracle(case):
    assert_search_matches(case, start_keyed_histogram,
                          start_keyed_coincidences)


@settings(max_examples=300, deadline=None)
@given(case=coincidence_cases(on_edges=True))
def test_stop_keyed_search_exact_at_window_edges(case):
    assert_search_matches(case, all_pairs_histogram, all_pairs_coincidences)


@settings(max_examples=100, deadline=None)
@given(extra=st.lists(st.integers(0, 3 * 10**8), max_size=50))
def test_g2_measuring_singles_match_sequence_phase(extra):
    # every phase boundary of three default cycles, one ps to either side
    # of it, and arbitrary times; a per-event oracle counts the measuring ones
    g = default_record("gating")
    cycle, m, brk = g.cycle_ps, g.measure_ps, round(g.break_time * 1e12)
    bounds = [k * cycle + b for k in range(3)
              for b in (0, m, m + brk, cycle - brk)]
    times = [t + d for t in bounds for d in (-1, 0, 1) if t + d >= 0] + extra
    counter = window_counter(ps_stream(times, times, duration_ps=3 * cycle),
                             400_000, 0, g)
    expect = sum(sequence_phase(t, g) == "measuring" for t in times)
    assert counter.gated_starts == counter.gated_stops == expect


@pytest.mark.parametrize("window", [10, 11])
def test_window_ends_are_inclusive_in_g2_and_rate(window):
    # d stops at each delay d = 0..99 ps: the window holds the whole-ps
    # delays 45..55, within window / 2 of the center (for an odd window the
    # ends fall between whole ps).  g2 and the rate both count the bins that
    # lie wholly inside it: with 1 ps bins all 11 delays, with 2 ps bins
    # the 10 of [46, 56).  Dropping either edge bin moves both.
    t = 10**6
    ev = ps_stream([t + d for d in range(100) for _ in range(d)], [t])
    for width, held in ((1, range(45, 56)), (2, range(46, 56))):
        counter = PairCounter(histogram_edges(width, (0, 100))).add(ev).close()
        hist = counter.histogram(ev.duration_ps)
        c, w = sum(held), len(held)
        # C T / (S I W) with one start, 4950 stops and T = 1 s
        g2 = counter.g2(ev.duration_ps, window, 50)
        assert g2[0] == pytest.approx(c * 1.0 / (1 * 4950 * w * 1e-12), rel=1e-12)
        assert pm.coincidence_rate(hist, window, 50, floor=0.0)[0] \
            * hist.duration == pytest.approx(c)
    # the whole-ps window of g2_estimate is the 1 ps bins'
    assert pm.g2_estimate(ev, window, 50, None)[0] == pytest.approx(
        sum(range(45, 56)) / (4950 * 11e-12), rel=1e-12)


def test_g2_and_rate_leave_out_the_window_sliver():
    # the default window holds the whole-ps delays from 886 957 ps on, and
    # its first whole 200 ps bin starts at 887 000 ps: a pair in the 43 ps
    # between counts in neither g2 nor the rate, one at 887 000 ps in both
    s = pm.default_scenario()
    assert window_range(s.analysis.ps["window_s"], s.window_center_ps)[0] == 886_957
    t = 10**6   # both pairs lie in the first measurement stage
    ev = ps_stream([t + 886_970, t + 10**7 + 887_000], [t, t + 10**7],
                   duration_ps=10**8)
    hist, report = pm.analyze_events(s, ev)
    live = s.gating.live_ps(10**8) * 1e-12
    assert report.g2 == pytest.approx(1 * live / (2 * 2 * 1999 * 200e-12), rel=1e-12)
    assert report.coincidence_rate_cps * hist.duration == pytest.approx(1.0)


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
                                bin_edges_ps=np.rint(edges * 1e12),
                                total_start_counts=1,
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


def test_find_peaks_deep_stacks():
    # a staircase of teeth up and then down pushes every candidate on one
    # side's stack before any pops; 13 500 bins of noise make most local
    # maxima candidates
    teeth = np.arange(0, 4000, 2, dtype=float)
    up = np.repeat(teeth, 2) + np.tile([0.0, 3.0], len(teeth))
    assert_peaks_match_oracle(np.r_[up, up[::-1]])
    signal = pytest.importorskip("scipy.signal")
    noise = np.random.default_rng(7).poisson(1000.0, 13_500).astype(float)
    for p in (0.0, 1.0, 40.0):
        expect, _ = signal.find_peaks(noise, prominence=p)
        assert len(expect) > 0
        assert np.array_equal(_find_peaks(noise, p), expect)


def test_detect_peaks_rows_sorted_inside_their_bins():
    hist = synthetic_comb()
    y = hist.counts.astype(float)
    for prom in (50.0, 1e12):
        peaks = detect_peaks(hist, min_prominence=prom)
        i = _find_peaks(y, prom)
        assert peaks.dtype == np.float64 and peaks.shape == (len(i), 2)
        delay = peaks[:, 0]
        assert np.all(np.diff(delay) > 0)
        edges = hist.bin_edges_ps * 1e-12
        assert np.all((edges[i] <= delay) & (delay <= edges[i + 1]))
    assert len(detect_peaks(hist, 50.0)) > 20


def test_peak_estimators_read_rows_or_pairs():
    hist = synthetic_comb(lw_s=2.28e6, lw_i=1.52e6, amp=1e6)
    rows = detect_peaks(hist, 50.0)
    pairs = [(float(d), float(h)) for d, h in rows]
    assert estimate_fsr(rows, k_max=30) == estimate_fsr(pairs, k_max=30)
    for side in ("positive", "negative"):
        assert (fit_peak_envelope(rows, side, half_bin=1e-10, floor=3.0)
                == fit_peak_envelope(pairs, side, half_bin=1e-10, floor=3.0))


def default_comb_view():
    s = pm.default_scenario()
    ps = s.analysis.ps
    hist = pm.build_histogram(pm.simulate(s), ps["bin_width_s"],
                              (ps["hist_min_s"], ps["hist_max_s"]))
    return pm.analysis.comb_view(hist, s.window_center_ps, ps["comb_fit_halfspan_s"])


def test_find_peaks_default_comb_view():
    assert_peaks_match_oracle(default_comb_view().counts)


def test_default_comb_view_holds_2500_bins():
    # +-250 ns of 0.2 ns bins, about the echo delay 1/920 kHz, which is not
    # on the bin grid: 1250 bins on either side of the nearest bin edge
    view = default_comb_view()
    assert len(view.counts) == 2500
    assert view.bin_edges_ps[0] == -249_957 and view.bin_edges_ps[-1] == 250_043


def test_estimate_fsr_recovers_configured_value():
    hist = synthetic_comb(fsr=123e6)
    dt, _ = estimate_fsr(detect_peaks(hist, 50.0), k_max=30)
    assert 1 / dt == pytest.approx(123e6, rel=1e-3)
    assert dt == pytest.approx(1 / 123e6, rel=1e-3)


def test_estimate_fsr_bridges_missing_peak():
    # delete one comb peak: the interval snapping spans the gap
    period = 1 / 123e6
    peaks = [(k * period, 100.0) for k in range(0, 12) if k != 5]
    dt, _ = estimate_fsr(peaks, k_max=30)
    assert 1 / dt == pytest.approx(123e6, rel=1e-6)


def test_estimate_fsr_merges_spurious_peak():
    period = 1 / 123e6
    peaks = [(k * period, 100.0) for k in range(0, 12)]
    peaks.append((3.2 * period, 10.0))  # noise spike between peaks
    peaks.sort()
    dt, _ = estimate_fsr(peaks, k_max=30)
    assert 1 / dt == pytest.approx(123e6, rel=1e-6)


def test_estimate_fsr_failures():
    with pytest.raises(EstimationError):
        estimate_fsr([], k_max=30)
    with pytest.raises(EstimationError):
        estimate_fsr([(0.0, 1.0)], k_max=30)
    # two peaks at one delay, or out of order
    for rows in ([(0.0, 1.0), (1e-9, 1.0), (1e-9, 1.0)],
                 [(0.0, 1.0), (2e-9, 1.0), (1e-9, 1.0)]):
        with pytest.raises(EstimationError, match="strictly increasing"):
            estimate_fsr(rows, k_max=30)


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
    with pytest.raises(EstimationError, match=r"need >= 10 usable peaks on the "
                       r"positive side, got \d+"):
        fit_envelope(hist, "positive", min_prominence=10.0)
    with pytest.raises(ParameterError):
        fit_envelope(hist, "both")


# ---------------------------------------------------------------------------
# noise floor / rates

def test_noise_floor_mean_and_error():
    from pairmem.analysis import CorrelationHistogram
    edges = np.arange(101)
    counts = np.full(100, 7, dtype=np.int64)
    hist = CorrelationHistogram(counts=counts, bin_edges_ps=edges,
                                total_start_counts=1, total_stop_counts=1,
                                duration=1.0)
    mean, err = noise_floor(hist, (10, 60))
    assert mean == pytest.approx(7.0)
    assert err == 0.0
    with pytest.raises(ParameterError):
        noise_floor(hist, (95, 99))  # < 10 bins
    with pytest.raises(ParameterError):
        noise_floor(hist, (-5, 60))  # outside range


def test_histogram_rejects_negative_counts():
    from pairmem.analysis import CorrelationHistogram
    for counts in ([1, -1], [1.0, np.nan]):
        with pytest.raises(ParameterError, match="nonnegative"):
            CorrelationHistogram(counts=counts, bin_edges_ps=[0, 1, 2],
                                 total_start_counts=1, total_stop_counts=1,
                                 duration=1.0)


def test_histogram_keeps_float_counts():
    # an expected histogram holds float counts; an int64 cast read the
    # floor of 20 bins of 2.5 as 2.0 and flattened a 0.4-count peak
    from pairmem.analysis import CorrelationHistogram, coincidence_rate
    counts = np.full(20, 2.5)
    counts[10] = 2.9
    hist = CorrelationHistogram(counts=counts, bin_edges_ps=np.arange(21),
                                total_start_counts=1, total_stop_counts=1,
                                duration=2.0)
    assert hist.counts.dtype == np.float64
    assert noise_floor(hist, (0, 20)) == pytest.approx((2.52, 0.02))
    assert detect_peaks(hist, 0.3)[:, 1].tolist() == pytest.approx([2.9])
    raw = 4 * 2.5 + 2.9   # the 5 bins [8, 13) of a 4 ps window about 10
    assert coincidence_rate(hist, 4, 10, 2.5) == pytest.approx(
        ((raw - 5 * 2.5) / 2.0, math.sqrt(raw) / 2.0))


def test_detect_peaks_rejects_a_histogram_without_bins():
    from pairmem.analysis import CorrelationHistogram
    hist = CorrelationHistogram(counts=[], bin_edges_ps=[0],
                                total_start_counts=0, total_stop_counts=0,
                                duration=0.0)
    with pytest.raises(ParameterError, match="empty"):
        detect_peaks(hist, 1.0)


def test_coincidence_rate_floor_subtracted():
    from pairmem.analysis import CorrelationHistogram
    edges = np.arange(-50_000, 450_000, 1_000)
    counts = np.full(len(edges) - 1, 3, dtype=np.int64)
    # put 1000 extra counts in the 100 bins around t = 200 ns
    mids = 0.5 * (edges[:-1] + edges[1:])
    feature = np.abs(mids - 200_000) <= 50_000
    counts[feature] += 10
    hist = CorrelationHistogram(counts=counts, bin_edges_ps=edges,
                                total_start_counts=1, total_stop_counts=1,
                                duration=2.0)
    rate, _ = pm.coincidence_rate(hist, 100_000, 200_000, floor=3.0)
    n_feature = int(np.count_nonzero(feature))
    assert rate == pytest.approx(10 * n_feature / 2.0)
    # floor over-subtraction clamps at zero
    rate, _ = pm.coincidence_rate(hist, 100_000, 0, floor=50.0)
    assert rate == 0.0


# ---------------------------------------------------------------------------
# g2 estimator

def test_g2_uncorrelated_is_unity():
    rng = np.random.default_rng(5)
    T = 10.0
    sig = np.sort(rng.random(40_000) * T)
    idl = np.sort(rng.random(40_000) * T)
    ev = make_stream(sig, idl, duration_s=T)
    value, error = pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=None)
    assert value == pytest.approx(1.0, abs=5 * error)
    assert error < 0.15


def test_g2_correlated_pairs():
    rng = np.random.default_rng(6)
    T = 10.0
    idl = np.sort(rng.random(5_000) * T)
    sig = idl + 100e-9  # every idler heralds one signal
    ev = make_stream(sig, idl, duration_s=T)
    value, _ = pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=None)
    # C >= N_pairs while accidentals contribute ~N^2 window/T
    expect = 5_000 * T / (5_000 * 5_000 * 1e-6)
    assert value == pytest.approx(expect, rel=0.05)
    assert value > 100


def test_g2_counts_and_error_formula():
    idl = np.array([1.0, 2.0, 3.0])
    sig = np.array([1.0, 2.0])
    ev = make_stream(sig, idl, duration_s=10.0)
    value, error = pm.g2_estimate(ev, window_ps=10**9, center_ps=0, gating=None)
    counter = window_counter(ev, 10**9, 0)
    assert counter.counts.tolist() == [2]
    assert counter.starts == 3 and counter.stops == 2
    expect = 2 * 10.0 / (3 * 2 * (10**9 + 1) * 1e-12)   # 10**9 + 1 whole ps
    assert value == pytest.approx(expect)
    assert error == pytest.approx(value * math.sqrt(1 / 2 + 1 / 3 + 1 / 2))


def test_g2_zero_coincidences_reads_zero():
    ev = make_stream([9.0], [1.0], duration_s=10.0)
    assert window_counter(ev, 10**6, 0).counts.tolist() == [0]
    assert pm.g2_estimate(ev, window_ps=10**6, center_ps=0,
                          gating=None) == (0.0, 0.0)


def test_g2_empty_channel_raises():
    ev = make_stream([], [1.0], duration_s=1.0)
    with pytest.raises(EstimationError):
        pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=None)


def test_g2_needs_singles_inside_the_measurement_phases():
    # every event falls in the break after the measurement stage
    g = default_record("gating")
    t = [g.measure_ps + 1, g.cycle_ps + g.measure_ps + 1]
    ev = ps_stream(t, t, duration_ps=10**12)
    with pytest.raises(EstimationError, match="measurement phases"):
        pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=g)
    pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=None)
    assert window_counter(ev, 10**6, 0).starts == 2


def test_g2_live_time_normalization():
    # same events, but the gating shrinks the live time
    g = default_record("gating")
    rng = np.random.default_rng(7)
    live = rng.integers(g.live_ps(10**12), size=20_000)
    t = live // g.measure_ps * g.cycle_ps + live % g.measure_ps
    ev = ps_stream(t, t, duration_ps=10**12)
    # every event is measuring, so only T differs: 0.45 s live of 1 s
    assert window_counter(ev, 10**6, 0, g).gated_starts == len(t)
    gated = pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=g)
    ungated = pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=None)
    assert gated[0] == pytest.approx(0.45 * ungated[0])


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


def test_effective_modes_error_at_zero_multi_rate():
    # a zero net multi-mode rate takes the error's limit as the rate -> 0+,
    # em / rs: the multi-mode error over the reference rate
    n, err = pm.effective_modes((0.0, 5.0), (100.0, 1.0))
    assert (n, err) == (0.0, 0.05)
    assert err == pytest.approx(pm.effective_modes((1e-9, 5.0), (100.0, 1.0))[1])


def test_shuffle_destroys_correlations():
    rng = np.random.default_rng(8)
    T = 5.0
    idl = np.sort(rng.random(20_000) * T)
    sig = idl + 50e-9
    ev = make_stream(sig, idl, duration_s=T)
    before, _ = pm.g2_estimate(ev, window_ps=10**6, center_ps=0, gating=None)
    shuffled = shuffle_channel(ev, "idler", seed=1, gating=None)
    after, after_err = pm.g2_estimate(shuffled, window_ps=10**6, center_ps=0,
                                      gating=None)
    assert before > 50
    assert after == pytest.approx(1.0, abs=5 * max(after_err, 0.02))
    # counts preserved, only idler times moved
    assert len(shuffled.idler_ps) == len(ev.idler_ps)
    assert shuffled.signal_ps is ev.signal_ps


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
