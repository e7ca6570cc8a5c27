"""Estimator chain: start-stop histogramming, comb peak detection, FSR and
linewidth fits, noise floor, windowed coincidence rates, the normalized
cross-correlation with error bars, effective-mode counting, and the
multimode classical bound."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import EstimationError, FitError, ParameterError
from .montecarlo import EventStream, GatingSequence

TWO_PI = 2.0 * math.pi


@dataclass
class CorrelationHistogram:
    """Binned start-stop delay counts; the TIA emulation.  Bin i counts the
    delays in [bin_edges_ps[i], bin_edges_ps[i + 1]) picoseconds."""

    counts: np.ndarray
    bin_edges_ps: np.ndarray
    total_start_counts: int
    total_stop_counts: int
    duration: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        self.bin_edges_ps = np.asarray(self.bin_edges_ps, dtype=np.int64)
        if np.any(self.counts < 0):
            raise ParameterError("histogram counts must be nonnegative")

    @property
    def bin_width_ps(self) -> int:
        return int(self.bin_edges_ps[1] - self.bin_edges_ps[0])


def histogram_edges(bin_width_ps: int, range_ps: tuple[int, int]) -> np.ndarray:
    """Edges of the bins of ``bin_width_ps`` from ``range_ps[0]`` on, as
    many as cover ``range_ps``: integer picoseconds, the event files' time
    base."""
    lo, hi = range_ps
    if not bin_width_ps > 0:   # also rejects NaN
        raise ParameterError("bin_width_ps must be > 0")
    if not lo < hi:
        raise ParameterError("histogram range min must be < max")
    n = -((lo - hi) // bin_width_ps)   # ceil((hi - lo) / width)
    try:
        return lo + np.arange(n + 1, dtype=np.int64) * bin_width_ps
    except MemoryError as exc:
        raise ParameterError(f"a histogram of {n} bins does not fit in memory") from exc


def build_histogram(events: EventStream, bin_width_ps: int,
                    range_ps: tuple[int, int]) -> CorrelationHistogram:
    """Multi-stop start-stop histogram of idler starts and signal stops
    over ``histogram_edges(bin_width_ps, range_ps)``: every stop in range
    counts, for every start."""
    edges = histogram_edges(bin_width_ps, range_ps)
    lo = int(edges[0])
    # read_events admits no timestamp past 2**63 ps, so int64 views are exact
    starts = events.idler_ps.view(np.int64)
    stops = events.signal_ps.view(np.int64)
    # the starts t that pair with one stop s (lo <= s - t < hi) are the run
    # s - hi < t <= s - lo of the sorted starts.  Stops are the sparse
    # channel: search each of them.
    from_lo = stops - lo
    j0 = np.searchsorted(starts, stops - int(edges[-1]), side="right")
    n_per = np.searchsorted(starts, from_lo, side="right") - j0
    flat = np.arange(n_per.sum()) - np.repeat(np.cumsum(n_per) - n_per - j0, n_per)
    counts = np.bincount((np.repeat(from_lo, n_per) - starts[flat]) // bin_width_ps,
                         minlength=len(edges) - 1)
    return CorrelationHistogram(
        counts=counts, bin_edges_ps=edges,
        total_start_counts=len(starts), total_stop_counts=len(stops),
        duration=events.duration_ps * 1e-12 if len(events) else 0.0)


def merge_histograms(a: CorrelationHistogram, b: CorrelationHistogram) -> CorrelationHistogram:
    """Merge two shards of one run that split the starts between them.

    Each shard pairs its own starts with every stop of the run, so counts
    and start counts add, while the stop count and the duration are the
    run's own and must agree.
    """
    if not np.array_equal(a.bin_edges_ps, b.bin_edges_ps):
        raise ParameterError("histograms must share bin edges")
    if (a.total_stop_counts, a.duration) != (b.total_stop_counts, b.duration):
        raise ParameterError("shards must share every stop and the duration")
    return CorrelationHistogram(
        counts=a.counts + b.counts, bin_edges_ps=a.bin_edges_ps,
        total_start_counts=a.total_start_counts + b.total_start_counts,
        total_stop_counts=a.total_stop_counts, duration=a.duration)


def _find_peaks(y: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``y`` whose prominence is at least
    ``min_prominence``: exactly the indices that the standard
    ``find_peaks(y, prominence=min_prominence)`` returns with no window
    limit, which the tests use as the oracle.

    A maximum is a plateau (a run of equal samples, possibly of length 1)
    whose neighbours on both sides are strictly lower; it is reported at
    its middle index ``(first + last) // 2``, and a plateau touching an
    array end is never a peak.  Prominence is the peak height minus the
    higher of the two minima found walking outwards from the peak until
    a strictly higher sample or the array end.

    The walk runs on the run-length compressed array for all peaks at
    once: sparse tables hold the max and min of every power-of-two block
    of runs, the nearest strictly higher run on each side is reached by
    descending power-of-two steps over the max table, and the blocks
    stepped over tile the walked range, so their min-table entries give
    the minima.
    """
    n = len(y)
    if n < 3:
        return np.zeros(0, dtype=np.intp)
    first = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    last = np.r_[first[1:], n] - 1
    v = y[first]
    m = len(v)
    r = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    # no prominence exceeds the height above the global minimum
    r = r[v[r] - v.min() >= min_prominence]
    if len(r) == 0:
        return np.zeros(0, dtype=np.intp)
    # level k: hi[k][i] = max(v[i:i + 2**k]), lo[k][i] = min(v[i:i + 2**k])
    hi, lo = [v], [v]
    step = 1
    while 2 * step <= m:
        hi.append(np.maximum(hi[-1][:-step], hi[-1][step:]))
        lo.append(np.minimum(lo[-1][:-step], lo[-1][step:]))
        step *= 2
    h = v[r]
    left = right = r
    left_min = right_min = h
    for k in reversed(range(len(hi))):
        step = 1 << k
        # block [left - step, left - 1]
        j = np.maximum(left - step, 0)
        ok = (left >= step) & (hi[k][j] <= h)
        left_min = np.where(ok, np.minimum(left_min, lo[k][j]), left_min)
        left = np.where(ok, j, left)
        # block [right + 1, right + step]
        j = np.minimum(right + 1, m - step)
        ok = (right + step < m) & (hi[k][j] <= h)
        right_min = np.where(ok, np.minimum(right_min, lo[k][j]), right_min)
        right = np.where(ok, right + step, right)
    keep = h - np.maximum(left_min, right_min) >= min_prominence
    r = r[keep]
    return (first[r] + last[r]) // 2


def detect_peaks(hist: CorrelationHistogram, min_prominence: float) -> list[tuple[float, float]]:
    """Local maxima above the prominence threshold, with 3-point parabolic
    sub-bin refinement, sorted by delay."""
    y = hist.counts.astype(float)
    if len(y) == 0:
        raise ParameterError("histogram is empty")
    out = []
    # peaks are never at the array ends, so both neighbours exist
    for i in _find_peaks(y, min_prominence):
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        d = 0.5 * (y[i - 1] - y[i + 1]) / denom if denom != 0 else 0.0
        delay = (int(hist.bin_edges_ps[i]) + (0.5 + d) * hist.bin_width_ps) * 1e-12
        height = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * d
        out.append((float(delay), float(height)))
    out.sort()
    return out


@dataclass(frozen=True)
class FsrEstimate:
    fsr_hz: float
    fsr_err_hz: float
    interval_s: float
    interval_err_s: float


def estimate_fsr(peaks: list[tuple[float, float]], k_max: int = 30) -> FsrEstimate:
    """Mean peak interval from the 0th (nearest zero delay) peak up to the
    k_max-th on the positive side; FSR is its reciprocal."""
    if not peaks:
        raise EstimationError("no peaks")
    delays = np.array([d for d, _ in peaks])
    zero = int(np.argmin(np.abs(delays)))
    d = delays[zero:zero + k_max + 1]
    if len(d) < 2:
        raise EstimationError("need at least 2 peaks on the positive side")
    iv = np.diff(d)
    if np.any(iv <= 0):
        raise EstimationError("peak delays must be strictly increasing")
    # a faint peak may go undetected, leaving an interval that spans
    # several comb periods; snap each interval to its multiple.  A spurious
    # sub-peak splits one period in two short intervals; the shorter one
    # snaps to zero steps and the pair merges back into a single period.
    steps = np.rint(iv / np.median(iv))
    if np.sum(steps) < 1:
        raise EstimationError("peak intervals collapse to zero comb periods")
    good = steps >= 1
    per = iv[good] / steps[good]
    dt = float(np.sum(iv) / np.sum(steps))
    if dt <= 0:
        raise EstimationError("nonpositive mean peak interval")
    dt_err = float(np.std(per, ddof=1) / math.sqrt(len(per))) if len(per) > 1 else 0.0
    return FsrEstimate(fsr_hz=1.0 / dt, fsr_err_hz=dt_err / dt ** 2,
                       interval_s=dt, interval_err_s=dt_err)


def default_prominence(floor: float) -> float:
    """Peak prominence threshold when none is set: five Poisson standard
    deviations of the noise floor, and at least one count."""
    return max(5.0 * math.sqrt(max(floor, 0.0)), 1.0)


def fit_envelope(hist: CorrelationHistogram, side: str, *, floor: float = 0.0,
                 min_prominence: float | None = None) -> tuple[float, float]:
    """Cavity linewidth from the exponential decay of the comb peak heights
    of ``hist`` (``fit_peak_envelope`` on its detected peaks)."""
    if min_prominence is None:
        min_prominence = default_prominence(floor)
    return fit_peak_envelope(detect_peaks(hist, min_prominence), side,
                             half_bin=hist.bin_width_ps * 0.5e-12, floor=floor)


def fit_peak_envelope(peaks: list[tuple[float, float]], side: str, *,
                      half_bin: float, floor: float = 0.0) -> tuple[float, float]:
    """Weighted least squares of log(height - floor) against |delay| over
    the peaks of one side (|delay| > half_bin), with Poisson weights; the
    magnitude of the slope is 2 pi times the linewidth.  Returns
    (linewidth_hz, error_hz).
    """
    if side not in ("positive", "negative"):
        raise ParameterError("side must be 'positive' or 'negative'")
    sign = 1.0 if side == "positive" else -1.0
    pts = [(sign * d, h - floor) for d, h in peaks
           if sign * d > half_bin and h - floor > 0]
    if len(pts) < 10:
        raise FitError(f"need >= 10 usable peaks on the {side} side, got {len(pts)}")
    x, h = np.array(pts).T
    # var(log h) ~ 1/h for Poisson counts
    coef, cov = np.polyfit(x, np.log(h), 1, w=np.sqrt(h), cov="unscaled")
    return -float(coef[0]) / TWO_PI, float(math.sqrt(cov[0, 0])) / TWO_PI


def floor_bins(edges: np.ndarray, region_ps: tuple[int, int]) -> np.ndarray:
    """Mask of the bins that lie inside a quiet delay region [min, max]
    (picoseconds), which must lie in the histogram and hold at least 10."""
    rmin, rmax = region_ps
    if rmin < edges[0] or rmax > edges[-1]:
        raise ParameterError("floor region lies outside the histogram range")
    sel = (edges[:-1] >= rmin) & (edges[1:] <= rmax)
    if np.count_nonzero(sel) < 10:
        raise ParameterError("floor region must contain at least 10 bins")
    return sel


def noise_floor(hist: CorrelationHistogram, region_ps: tuple[int, int]) -> tuple[float, float]:
    """Mean and standard error of the counts of the ``floor_bins`` of a
    quiet delay region [min, max] (picoseconds)."""
    c = hist.counts[floor_bins(hist.bin_edges_ps, region_ps)].astype(float)
    return float(np.mean(c)), float(np.std(c, ddof=1) / math.sqrt(len(c)))


@dataclass(frozen=True)
class RateEstimate:
    rate: float
    error: float
    clamped: bool = False


def window_bins(edges: np.ndarray, window_ps: int, center_ps: int) -> np.ndarray:
    """Mask of the bins whose every delay lies in the window of
    ``g2_estimate``, which must fit in the histogram."""
    lo, hi = center_ps - window_ps // 2, center_ps + window_ps // 2
    if lo < edges[0] or hi >= edges[-1]:
        raise ParameterError("coincidence window does not fit in the histogram")
    return (edges[:-1] >= lo) & (edges[1:] <= hi + 1)


def coincidence_rate(hist: CorrelationHistogram, window_ps: int, center_ps: int,
                     floor: float, floor_err: float = 0.0) -> RateEstimate:
    """Floor-subtracted coincidence rate, counts/s, over the
    ``window_bins`` of the window."""
    sel = window_bins(hist.bin_edges_ps, window_ps, center_ps)
    raw = float(hist.counts[sel].sum())
    n = int(np.count_nonzero(sel))
    net = raw - floor * n
    err = math.sqrt(raw + (floor_err * n) ** 2) / hist.duration if hist.duration else 0.0
    clamped = net < 0
    rate = max(net, 0.0) / hist.duration if hist.duration else 0.0
    return RateEstimate(rate=rate, error=err, clamped=clamped)


@dataclass(frozen=True)
class G2Estimate:
    value: float
    error: float
    coincidences: int
    starts: int
    stops: int
    live_time: float
    undefined: bool = False
    upper_bound: float | None = None


def g2_estimate(events: EventStream, window_ps: int, center_ps: int,
                gating: GatingSequence | None) -> G2Estimate:
    """Normalized cross-correlation g2 = C T / (S I window).

    C counts idler-start, signal-stop pairs whose whole-ps delay lies within
    window / 2 of the center, ends included, and the window is the count of
    such delays in ps; S and I are the singles counts inside the measurement
    phases of ``gating`` (None: always measuring); T is the live measurement
    time.  Error bars propagate Poisson counting noise.
    """
    starts = events.idler_ps.view(np.int64)
    stops = events.signal_ps.view(np.int64)
    if len(starts) == 0 or len(stops) == 0:
        raise EstimationError("signal and idler must both be nonempty")
    lo, hi = center_ps - window_ps // 2, center_ps + window_ps // 2
    # pairs with lo <= s - t <= hi: per stop s, the starts in [s - hi, s - lo]
    c = int((np.searchsorted(starts, stops - lo, side="right")
             - np.searchsorted(starts, stops - hi, side="left")).sum())
    if gating is not None:
        cycle, measure = gating.cycle_ps, gating.measure_ps
        s_n = int(np.count_nonzero(starts % cycle < measure))
        i_n = int(np.count_nonzero(stops % cycle < measure))
        t_live = gating.live_total(events.duration_ps * 1e-12)
    else:
        s_n, i_n, t_live = len(starts), len(stops), events.duration_ps * 1e-12
    if s_n == 0 or i_n == 0:
        raise EstimationError("no singles inside measurement phases")
    scale = t_live / (s_n * i_n * (hi - lo + 1) * 1e-12)
    if c == 0:
        return G2Estimate(value=0.0, error=0.0, coincidences=0, starts=s_n,
                          stops=i_n, live_time=t_live, undefined=True,
                          upper_bound=scale)
    val = c * scale
    err = val * math.sqrt(1.0 / c + 1.0 / s_n + 1.0 / i_n)
    return G2Estimate(value=val, error=err, coincidences=c, starts=s_n,
                      stops=i_n, live_time=t_live)


def classical_limit(n_modes: int) -> float:
    """Upper bound on g2 for a classical n-mode field: 1 + 1/N."""
    if n_modes < 1:
        raise ParameterError("mode count must be >= 1")
    return 1.0 + 1.0 / n_modes


def effective_modes(rate_multi: tuple[float, float],
                    rate_single: tuple[float, float]) -> tuple[float, float]:
    """Coincidence-rate gain over single-mode operation, with errors in
    quadrature."""
    rm, em = rate_multi
    rs, es = rate_single
    if rs <= 0:
        raise EstimationError("single-mode reference rate must be positive")
    ratio = rm / rs
    # at rm = 0 the error is its limit as rm -> 0, em / rs
    err = abs(ratio) * math.sqrt((em / rm) ** 2 + (es / rs) ** 2) if rm != 0 else em / rs
    return ratio, err


@dataclass
class AnalysisReport:
    """All derived observables of one run."""

    fsr_hz: float
    fsr_err_hz: float
    interval_s: float
    interval_err_s: float
    linewidth_signal_hz: float
    linewidth_signal_err_hz: float
    linewidth_idler_hz: float
    linewidth_idler_err_hz: float
    echo_delay_s: float
    noise_floor_counts: float
    noise_floor_err: float
    coincidence_rate_cps: float
    coincidence_rate_err: float
    g2: float
    g2_err: float
    n_effective: float
    n_effective_err: float
    classical_limit: float
    nonclassical: bool
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = bool(self.g2 - self.g2_err > self.classical_limit)
        if self.nonclassical != expected:
            raise ParameterError("nonclassical flag inconsistent with g2 and limit")

    def to_json(self) -> str:
        d = asdict(self)
        d["schema_version"] = 1
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        d = json.loads(text)
        d.pop("schema_version", None)
        return cls(**d)
