"""Estimator chain: start-stop histogramming, comb peak detection, FSR and
linewidth fits, noise floor, windowed coincidence rates, the normalized
cross-correlation with error bars, effective-mode counting, and the
multimode classical bound.

Every start-stop count goes through one accumulator, ``PairCounter``, fed
a run's ``EventStream`` blocks in time order, of any size (a whole stream
is one block; ``eventio.read_chunks`` gives a file's time-cut blocks,
``eventio.chunks`` a stream's, the same ones): its ``add(block)`` alone
says that idler clicks start and signal clicks stop.  A pair belongs to
the block of its stop, and a stop is counted once it is complete: once a
timestamp read is strictly later than the stop less the histogram's first
edge, or the run has ended.  Only the stops not yet complete and the
starts that a pending or later stop can still reach are held, so a run is
counted in memory that does not grow with it.  Every bin rule is here
too: ``floor_bins``, ``window_bins`` (the one coincidence window, which g2
and the rate sum), and the ``comb_bins`` of the ``comb_view`` that the
comb estimators read.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .cavity import TWO_PI
from .errors import EstimationError, ParameterError
from .montecarlo import EventStream, GatingSequence

# the most bins a histogram takes, and rows a fig2 spectrum: each estimator
# pass over the bins stays within tens of MiB, and each CSV within about 100 MB
_MAX_BINS = 1 << 22


@dataclass
class CorrelationHistogram:
    """Binned start-stop delay counts; the TIA emulation.  Bin i counts the
    delays in [bin_edges_ps[i], bin_edges_ps[i + 1]) picoseconds.  Counts
    keep their dtype: int64 from a run, float for an expected histogram."""

    counts: np.ndarray
    bin_edges_ps: np.ndarray
    total_start_counts: int
    total_stop_counts: int
    duration: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts)
        self.bin_edges_ps = np.asarray(self.bin_edges_ps, dtype=np.int64)
        if not np.all(self.counts >= 0):   # also rejects NaN
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
    if n > _MAX_BINS:
        raise ParameterError(
            f"a histogram of {n} bins does not fit in memory (at most {_MAX_BINS})")
    return lo + np.arange(n + 1, dtype=np.int64) * bin_width_ps


def window_range(window_ps: int, center_ps: int) -> tuple[int, int]:
    """The whole-ps delays [lo, hi] within window / 2 of the center, ends
    included: the delays a ``window_bins`` bin may hold."""
    return center_ps - window_ps // 2, center_ps + window_ps // 2


class PairCounter:
    """Start-stop accumulator of one run (the rules are in the module
    docstring): ``add(block)`` per block in time order, then ``close()``.
    It holds the pair counts of the bins of ``edges``, the start and stop
    totals, and the singles inside the measurement phases of ``gating``.
    The starts it keeps are those later than min(earliest pending stop,
    last time read) - hi, hi the last edge.
    """

    def __init__(self, edges: np.ndarray, gating: GatingSequence | None = None):
        self.edges, self.gating = edges, gating
        self.lo, self.hi = int(edges[0]), int(edges[-1])
        self.counts = np.zeros(len(edges) - 1, dtype=np.int64)
        self.starts = self.stops = 0
        self.gated_starts = self.gated_stops = 0
        self._held = np.zeros(0, dtype=np.int64)      # starts a stop may pair with
        self._pending = np.zeros(0, dtype=np.int64)   # stops not yet complete

    def add(self, block: EventStream) -> PairCounter:
        # idler clicks start, signal clicks stop; readers admit no timestamp
        # past 2**63 ps, so int64 views are exact
        starts, stops = block.idler_ps.view(np.int64), block.signal_ps.view(np.int64)
        self.starts += len(starts)
        self.stops += len(stops)
        if self.gating is not None:
            self.gated_starts += int(np.count_nonzero(self.gating.measuring(starts)))
            self.gated_stops += int(np.count_nonzero(self.gating.measuring(stops)))
        if len(starts) + len(stops) == 0:
            return self
        last = int(max(t[-1] for t in (starts, stops) if len(t)))
        held, pending = _joined(self._held, starts), _joined(self._pending, stops)
        k = int(np.searchsorted(pending, last + self.lo, side="left"))
        self._pair(pending[:k], held)
        self._pending = pending[k:]
        reach = min(int(pending[k]), last) if k < len(pending) else last
        self._held = held[np.searchsorted(held, reach - self.hi, side="right"):]
        return self

    def close(self) -> PairCounter:
        """Pair the stops still pending: the run has ended."""
        self._pair(self._pending, self._held)
        self._pending = self._pending[:0]
        return self

    def _pair(self, stops: np.ndarray, starts: np.ndarray) -> None:
        # the starts t that pair with one stop s (lo <= s - t < hi) are the
        # run s - hi < t <= s - lo of the sorted starts.  Stops are the
        # sparse channel: search each of them.
        from_lo = stops - self.lo
        j0 = np.searchsorted(starts, stops - self.hi, side="right")
        n_per = np.searchsorted(starts, from_lo, side="right") - j0
        flat = np.arange(n_per.sum()) - np.repeat(np.cumsum(n_per) - n_per - j0, n_per)
        d = np.repeat(from_lo, n_per) - starts[flat]   # delay - lo
        self.counts += np.bincount(d // int(self.edges[1] - self.edges[0]),
                                   minlength=len(self.counts))

    def histogram(self, duration_ps: int) -> CorrelationHistogram:
        """The histogram of a run of ``duration_ps`` ps."""
        return CorrelationHistogram(
            counts=self.counts, bin_edges_ps=self.edges,
            total_start_counts=self.starts, total_stop_counts=self.stops,
            duration=duration_ps * 1e-12)

    def g2(self, duration_ps: int, window_ps: int,
           center_ps: int) -> tuple[float, float]:
        """g2 = C T / (S I W) of a run of ``duration_ps`` ps, with its
        Poisson error: C counts the pairs in the ``window_bins`` of the
        window, W is their width, S and I are the gated singles and T the
        live time."""
        if self.starts == 0 or self.stops == 0:
            raise EstimationError("signal and idler must both be nonempty")
        if self.gating is not None:
            s_n, i_n = self.gated_starts, self.gated_stops
            t_live = self.gating.live_ps(duration_ps) * 1e-12
        else:
            s_n, i_n, t_live = self.starts, self.stops, duration_ps * 1e-12
        if s_n == 0 or i_n == 0:
            raise EstimationError("no singles inside measurement phases")
        sel = window_bins(self.edges, window_ps, center_ps)
        c = int(self.counts[sel].sum())
        width = np.count_nonzero(sel) * int(self.edges[1] - self.edges[0])
        val = c * (t_live / (s_n * i_n * width * 1e-12))
        err = val * math.sqrt(1.0 / c + 1.0 / s_n + 1.0 / i_n) if c else 0.0
        return val, err


def _joined(held: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``held`` then ``new``; no copy when either is empty (a whole stream)."""
    if len(held) and len(new):
        return np.concatenate([held, new])
    return new if len(new) else held


def build_histogram(events: EventStream, bin_width_ps: int,
                    range_ps: tuple[int, int]) -> CorrelationHistogram:
    """Multi-stop start-stop histogram of idler starts and signal stops
    over ``histogram_edges(bin_width_ps, range_ps)``: every stop in range
    counts, for every start.  The ``PairCounter`` of the whole stream."""
    counter = PairCounter(histogram_edges(bin_width_ps, range_ps))
    return counter.add(events).close().histogram(events.duration_ps)


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


def _walk_minima(heights: list, gaps: list) -> list:
    """Per peak, the least of ``gaps`` (gaps[i] lies before peak i) back to
    the nearest earlier peak strictly higher: one monotonic-stack pass."""
    out, stack = [], []   # (height, walk minimum) of the peaks not yet passed
    for h, g in zip(heights, gaps):
        while stack and stack[-1][0] <= h:
            g = min(g, stack.pop()[1])
        stack.append((h, g))
        out.append(g)
    return out


def _find_peaks(y: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of ``y`` with prominence at least
    ``min_prominence``: exactly those of the standard ``find_peaks(y,
    prominence=min_prominence)`` with no window limit, the tests' oracle.

    A maximum is a plateau of equal samples (possibly one) whose two
    neighbours are strictly lower, reported at its middle index; one that
    touches an array end is never a peak.  Its prominence is its height
    less the higher minimum of the walks out to the first strictly higher
    sample or the array end.  Climbing on from that sample reaches a
    taller candidate or the end over higher samples still, so
    ``_walk_minima`` over the candidates finds the same minima.
    """
    if len(y) < 3:
        return np.zeros(0, dtype=np.intp)
    first = np.flatnonzero(np.r_[True, y[1:] != y[:-1]])
    last = np.r_[first[1:], len(y)] - 1
    v = y[first]
    r = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    # no prominence exceeds the height above the global minimum
    r = r[v[r] - v.min() >= min_prominence]
    # the minima between candidates (each one above both its neighbours)
    gaps = np.minimum.reduceat(v, np.r_[0, r]).tolist()
    h = v[r].tolist()
    walk = np.maximum(_walk_minima(h, gaps[:-1]),
                      _walk_minima(h[::-1], gaps[:0:-1])[::-1])
    r = r[v[r] - walk >= min_prominence]
    return (first[r] + last[r]) // 2


def detect_peaks(hist: CorrelationHistogram, min_prominence: float) -> np.ndarray:
    """Local maxima above the prominence threshold, with 3-point parabolic
    sub-bin refinement: (delay in s, height) rows sorted by delay, each
    delay inside its peak's bin (no neighbour is above its peak)."""
    y = hist.counts.astype(float)
    if len(y) == 0:
        raise ParameterError("histogram is empty")
    i = _find_peaks(y, min_prominence)   # never at an end: both neighbours exist
    lo, mid, hi = y[i - 1], y[i], y[i + 1]
    denom = lo - 2.0 * mid + hi
    d = np.divide(0.5 * (lo - hi), denom, out=np.zeros(len(i)), where=denom != 0)
    delay = (hist.bin_edges_ps[i] + (0.5 + d) * hist.bin_width_ps) * 1e-12
    return np.column_stack([delay, mid - 0.25 * (lo - hi) * d])


def estimate_fsr(peaks: np.ndarray, k_max: int) -> tuple[float, float]:
    """Mean interval (s) of the ``detect_peaks`` rows (delay, height) from
    the 0th (nearest zero delay) peak up to the k_max-th, and its error;
    the FSR is its reciprocal."""
    delays = np.asarray(peaks, dtype=float).reshape(-1, 2)[:, 0]
    if len(delays) == 0:
        raise EstimationError("no peaks")
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
    good = steps >= 1
    per = iv[good] / steps[good]
    dt = float(np.sum(iv) / np.sum(steps))
    dt_err = float(np.std(per, ddof=1) / math.sqrt(len(per))) if len(per) > 1 else 0.0
    return dt, dt_err


def prominence(setting: float | None, floor: float) -> float:
    """Peak prominence threshold: ``setting``, or when none is set five
    Poisson standard deviations of the noise floor, and at least one count."""
    return max(5.0 * math.sqrt(max(floor, 0.0)), 1.0) if setting is None else setting


def fit_envelope(hist: CorrelationHistogram, side: str, *, floor: float = 0.0,
                 min_prominence: float | None = None) -> tuple[float, float]:
    """Cavity linewidth from the exponential decay of the comb peak heights
    of ``hist`` (``fit_peak_envelope`` on its detected peaks)."""
    return fit_peak_envelope(detect_peaks(hist, prominence(min_prominence, floor)),
                             side, half_bin=hist.bin_width_ps * 0.5e-12, floor=floor)


def fit_peak_envelope(peaks: np.ndarray, side: str, *,
                      half_bin: float, floor: float = 0.0) -> tuple[float, float]:
    """Weighted least squares of log(height - floor) against |delay| over
    the peaks of one side (|delay| > half_bin), with Poisson weights; the
    magnitude of the slope is 2 pi times the linewidth.  Returns
    (linewidth_hz, error_hz).
    """
    if side not in ("positive", "negative"):
        raise ParameterError("side must be 'positive' or 'negative'")
    sign = 1.0 if side == "positive" else -1.0
    d, h = np.asarray(peaks, dtype=float).reshape(-1, 2).T
    use = (sign * d > half_bin) & (h - floor > 0)
    if use.sum() < 10:
        raise EstimationError(f"need >= 10 usable peaks on the {side} side, got {use.sum()}")
    x, h = sign * d[use], h[use] - floor
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


def window_bins(edges: np.ndarray, window_ps: int, center_ps: int) -> np.ndarray:
    """Mask of the bins whose every delay lies in the ``window_range``: the
    coincidence window that g2 and the rate count.  It must fit in the
    histogram and hold a bin."""
    lo, hi = window_range(window_ps, center_ps)
    if lo < edges[0] or hi >= edges[-1]:
        raise ParameterError("coincidence window does not fit in the histogram")
    sel = (edges[:-1] >= lo) & (edges[1:] <= hi + 1)
    if not sel.any():
        raise ParameterError("coincidence window holds no whole bin")
    return sel


def comb_bins(edges: np.ndarray, center_ps: int,
              halfspan_ps: int) -> tuple[int, int]:
    """Bin range [i0, i1) of the comb view: the floor(halfspan / width)
    bins on either side of the edge nearest the center, within the
    histogram, which must leave at least one."""
    w = int(edges[1] - edges[0])
    k, m = (2 * (center_ps - int(edges[0])) + w) // (2 * w), halfspan_ps // w
    i0, i1 = max(k - m, 0), min(k + m, len(edges) - 1)
    if i0 >= i1:
        raise ParameterError(f"comb view {center_ps} +- {halfspan_ps} ps has no bin")
    return i0, i1


def comb_view(hist: CorrelationHistogram, center_ps: int,
              halfspan_ps: int) -> CorrelationHistogram:
    """The ``comb_bins`` of the histogram, re-zeroed on the center."""
    i0, i1 = comb_bins(hist.bin_edges_ps, center_ps, halfspan_ps)
    return CorrelationHistogram(
        counts=hist.counts[i0:i1],
        bin_edges_ps=hist.bin_edges_ps[i0:i1 + 1] - center_ps,
        total_start_counts=hist.total_start_counts,
        total_stop_counts=hist.total_stop_counts, duration=hist.duration)


def coincidence_rate(hist: CorrelationHistogram, window_ps: int, center_ps: int,
                     floor: float, floor_err: float = 0.0) -> tuple[float, float]:
    """Floor-subtracted coincidence rate and its error, counts/s, over
    the ``window_bins`` of the window."""
    sel = window_bins(hist.bin_edges_ps, window_ps, center_ps)
    raw = float(hist.counts[sel].sum())
    n = int(np.count_nonzero(sel))
    if not hist.duration:
        return 0.0, 0.0
    err = math.sqrt(raw + (floor_err * n) ** 2)
    return max(raw - floor * n, 0.0) / hist.duration, err / hist.duration


def g2_estimate(events: EventStream, window_ps: int, center_ps: int,
                gating: GatingSequence | None) -> tuple[float, float]:
    """Normalized cross-correlation g2 = C T / (S I W) and its error.

    C counts idler-start, signal-stop pairs whose whole-ps delay lies within
    window / 2 of the center, ends included, and W is the count of such
    delays in ps; S and I are the singles counts inside the measurement
    phases of ``gating`` (None: always measuring); T is the live measurement
    time.  Error bars propagate Poisson counting noise.  ``PairCounter.g2``
    of the whole stream, whose one bin is the window.
    """
    lo, hi = window_range(window_ps, center_ps)
    counter = PairCounter(np.array([lo, hi + 1]), gating)
    return counter.add(events).close().g2(events.duration_ps, window_ps, center_ps)


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
