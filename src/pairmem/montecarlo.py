"""Seeded Monte Carlo generation of detection-event streams.

Pairs are emitted as a Poisson process during the measurement phases of the
gating cycle; the signal-idler delay of each pair is drawn from the
analytic cross-correlation curve; the signal photon then passes through the
memory (transmit / echo / absorbed), both photons through their spectral
filters and detectors, and the idler-conditioned gate attenuates the signal
channel outside its window.

Delay variates are drawn for every pair, but a delay is evaluated only for
a signal photon that passes the memory, the filter and the detector
efficiency: those fates depend on the photon's mode alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .cavity import BiphotonSpectrum, CavityParams, TWO_PI
from .errors import ParameterError
from .memory import AfcPlan, FilterSpec, chain_transmission

_DELAY_TABLE_BITS = 17  # in-period density resolution: 1/FSR / 2^17 (~62 fs)
_GUIDE_STEPS = 4  # vectorized forward steps before a key falls back to bisection
# numpy's Generator.poisson rejects a larger mean: int64 max less ten of its
# standard deviations
_MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


def _guide_table(cdf: np.ndarray):
    """Guide table (Chen & Asau 1974) for exact inverse-CDF lookups.

    Keys and CDF entries share one bucketing, ``floor(x * len(cdf) /
    cdf[-1])``, and ``guide[k]`` counts the entries in buckets below k.
    Rounded multiplication is monotone, so an entry in a lower bucket than
    a key is smaller than the key: ``guide[bucket(v)]`` never passes
    ``searchsorted(cdf, v)``.  Returns (cdf padded with +inf, guide, scale)
    for ``_guided_search``.
    """
    m = len(cdf)
    total = float(cdf[-1])
    scale = m / total if total > 0 else 0.0
    counts = np.bincount(_bucket(cdf, scale, m), minlength=m + 1)
    guide = np.concatenate(([0], np.cumsum(counts[:m])))
    return np.append(cdf, np.inf), guide, scale


def _bucket(x: np.ndarray, scale: float, m: int) -> np.ndarray:
    return np.clip(x * scale, 0, m).astype(np.intp)


def _guided_search(table, v: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, v)`` (side="left"), via the guide table.

    From the guide entry of its bucket, each index steps forward while
    ``cdf[j] < v``; keys still unresolved after a few vectorized steps are
    bisected on their own.
    """
    cdf, guide, scale = table
    j = guide[_bucket(v, scale, len(guide) - 1)]
    idx = np.flatnonzero(cdf[j] < v)
    for _ in range(_GUIDE_STEPS):
        if not len(idx):
            return j
        j[idx] += 1
        idx = idx[cdf[j[idx]] < v[idx]]
    if len(idx):
        j[idx] = np.searchsorted(cdf[:-1], v[idx])
    return j


@dataclass(frozen=True)
class SourceModel:
    """Pair source: the joint spectrum and the cavity that shapes the pair
    delays.  The pair rate is the pump's, an argument of each run."""

    spectrum: BiphotonSpectrum
    cavity: CavityParams

    @functools.cached_property
    def sampler(self) -> DelaySampler:
        """Pair-delay sampler, built on first use and kept with the source
        (not a field: model digests do not see it)."""
        return DelaySampler(self.spectrum, self.cavity)


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 1.0
    dark_rate: float = 0.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ParameterError("efficiency must lie in [0, 1]")
        for name in ("dark_rate", "jitter_sigma", "dead_time"):
            if not 0.0 <= getattr(self, name) < math.inf:   # also rejects NaN
                raise ParameterError(f"detector {name} must be finite and >= 0")


def whole_ps(seconds: float, name: str) -> int:
    """``seconds`` in whole picoseconds, the estimators' time base;
    ParameterError unless it is one, up to the rounding of the float."""
    ps = seconds * 1e12
    if not (math.isfinite(ps) and math.isclose(ps, round(ps), rel_tol=1e-12)):
        raise ParameterError(f"{name} must be a whole number of ps, not {seconds!r} s")
    return round(ps)


@dataclass(frozen=True)
class GatingSequence:
    """Measurement/locking alternation plus the idler-conditioned gate.

    One cycle is [measure | break | locking | break]; the measurement
    sub-stage occupies ``measure_fraction`` of the cycle.  After each idler
    click the signal channel is fully open only for delays inside
    [conditional_gate_on, conditional_gate_off]; outside, events pass with
    probability ``off_gate_attenuation``.  Cycle, measurement stage and
    breaks are whole picoseconds: the estimators gate in integer time.
    """

    cycle: float
    measure_fraction: float
    break_time: float
    conditional_gate_on: float
    conditional_gate_off: float
    off_gate_attenuation: float

    def __post_init__(self):
        if not (0 < self.break_time < self.cycle):
            raise ParameterError("need 0 < break_time < cycle")
        if not (0 < self.measure_fraction < 1):
            raise ParameterError("measure_fraction must lie in (0, 1)")
        if self.measure_ps + 2 * whole_ps(self.break_time, "break_time") > self.cycle_ps:
            raise ParameterError("measure stage plus breaks exceed the cycle")
        if not (self.conditional_gate_on < self.conditional_gate_off):
            raise ParameterError("conditional gate must open before it closes")
        if not (0.0 <= self.off_gate_attenuation <= 1.0):
            raise ParameterError("off_gate_attenuation must lie in [0, 1]")

    @property
    def measure_len(self) -> float:
        return self.measure_fraction * self.cycle

    @property
    def cycle_ps(self) -> int:
        return whole_ps(self.cycle, "cycle")

    @property
    def measure_ps(self) -> int:
        return whole_ps(self.measure_len, "measurement stage")

    def live_total(self, duration: float) -> float:
        """Total measurement-phase time within [0, duration]."""
        full, rem = divmod(duration, self.cycle)
        return full * self.measure_len + min(rem, self.measure_len)

    def live_to_abs(self, live_t: np.ndarray) -> np.ndarray:
        """Map cumulative measurement-phase time to absolute time."""
        idx = np.floor(live_t / self.measure_len)
        return idx * self.cycle + (live_t - idx * self.measure_len)

    def measuring_mask(self, t: np.ndarray) -> np.ndarray:
        return np.mod(t, self.cycle) < self.measure_len


class DelaySampler:
    """Exact sampler for the signed pair delay distributed as G2(tau).

    G2 factorizes into a periodic comb times an exponential envelope, so a
    delay is the sum of a geometric number of comb periods plus an
    in-period offset drawn by inverse CDF from a dense table (looked up
    through a guide table).  Branch signs are chosen by the closed-form
    integral weight of each side.
    """

    def __init__(self, spec: BiphotonSpectrum, cavity: CavityParams):
        idx, w = spec.index - spec.index.min(), spec.weights
        npts = 1 << _DELAY_TABLE_BITS
        # comb factor on midpoint grid u_m = (m + 1/2) P/npts:
        #   |sum_j s_j exp(i 2 pi j (m + 1/2)/npts)|^2
        # evaluated for all m at once with one inverse DFT
        lattice = np.zeros(npts, dtype=complex)
        np.add.at(lattice, np.mod(idx, npts),
                  w * np.exp(1j * math.pi * idx / npts))
        comb = np.abs(np.fft.ifft(lattice) * npts) ** 2
        self._branches = []
        weights = []
        for fsr, lw in ((cavity.fsr_signal, cavity.linewidth_signal),
                        (cavity.fsr_idler, cavity.linewidth_idler)):
            gamma = TWO_PI * lw
            period = 1.0 / fsr
            du = period / npts
            u = (np.arange(npts) + 0.5) * du
            dens = np.exp(-gamma * u) * comb
            guide = _guide_table(np.cumsum(dens))
            cdf = guide[0][:-1]   # a view: a run keeps its sampler, so one copy
            # total branch mass: one-period integral times the geometric
            # tail over later periods
            weights.append(cdf[-1] * du / (1.0 - math.exp(-gamma * period)))
            self._branches.append({
                "gamma": gamma, "period": period, "du": du,
                "cdf": cdf, "dens": dens, "guide": guide,
            })
        self.p_positive = weights[0] / (weights[0] + weights[1])

    def draw(self, rng: np.random.Generator, size: int):
        """Every variate of ``size`` delays, in draw order: the branch
        signs, then for each branch with draws its whole periods and its
        in-period CDF keys.  ``delays`` turns them into delays."""
        pos = rng.random(size) < self.p_positive
        n_pos = int(np.count_nonzero(pos))
        keys = []
        for b, n in zip(self._branches, (n_pos, size - n_pos)):
            if n:
                lam = b["gamma"] * b["period"]
                keys.append((np.floor(rng.exponential(scale=1.0 / lam, size=n)),
                             rng.random(n) * b["cdf"][-1]))
            else:
                keys.append(None)
        return pos, keys

    def delays(self, draws, sel: np.ndarray) -> np.ndarray:
        """Delays of the pairs ``sel`` (increasing indices into ``draws``).

        Each delay is elementwise in its own draws, so a subset gets the
        bits it would get among all pairs.  A positive pair is draw
        ``rank - 1`` of its branch and a negative one draw ``sel - rank``,
        where rank counts the positive pairs up to and including it
        (int32: 2**31 pairs would not fit in memory).
        """
        pos, keys = draws
        rank = np.cumsum(pos, dtype=np.int32)[sel]
        up = pos[sel]
        out = np.empty(len(sel))
        if up.any():
            out[up] = self._branch_delays(0, keys, rank[up] - 1)
        if not up.all():
            down = ~up
            out[down] = -self._branch_delays(1, keys, sel[down] - rank[down])
        return out

    def _branch_delays(self, i: int, keys, at: np.ndarray) -> np.ndarray:
        b = self._branches[i]
        k, v = keys[i][0][at], keys[i][1][at]
        j = _guided_search(b["guide"], v)
        lower = np.where(j > 0, b["cdf"][j - 1], 0.0)   # CDF below entry j
        frac = (v - lower) / b["dens"][j]
        u = (j + frac) * b["du"]
        return k * b["period"] + u

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.delays(self.draw(rng, size), np.arange(size))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) from a single integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split_seed(seed: int, index: int) -> int:
    """Stable derived sub-seed for shard/sweep/reference runs."""
    h = hashlib.sha256(f"pairmem-seed:{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "little")


@dataclass
class EventStream:
    """Detection timestamps of one run in integer picoseconds, one sorted
    array per channel, and the header fields of its event file.  Treat as
    immutable after generation."""

    signal_ps: np.ndarray
    idler_ps: np.ndarray
    duration_ps: int
    seed: int
    model_digest: str

    def __len__(self):
        return len(self.signal_ps) + len(self.idler_ps)


def model_digest(*models) -> str:
    """Stable hex digest of a set of model objects."""

    def conv(obj):
        if obj is None or isinstance(obj, (bool, int, str)):
            return obj
        if isinstance(obj, float):
            return float(repr(obj))
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (list, tuple)):
            return [conv(x) for x in obj]
        if isinstance(obj, dict):
            return {str(k): conv(v) for k, v in sorted(obj.items())}
        if hasattr(obj, "__dataclass_fields__"):
            return {f.name: conv(getattr(obj, f.name)) for f in fields(obj)}
        raise TypeError(f"cannot digest {type(obj)!r}")

    blob = json.dumps([conv(m) for m in models], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _prune_dead_time(t: np.ndarray, dead: float) -> np.ndarray:
    """Greedy dead-time mask over a sorted timestamp array.

    Equal to the sequential rule "drop t[i] if t[i] - last kept < dead".
    Gaps >= dead split the stream into runs, and every run start is kept
    (t[i] - last >= t[i] - t[i-1] >= dead, as float subtraction rounds
    monotonically).  The element after a run start is always dropped, so
    only elements behind two consecutive close gaps need the greedy walk,
    anchored at their run start.
    """
    keep = np.ones(len(t), dtype=bool)
    if dead <= 0 or len(t) < 2:
        return keep
    close = np.diff(t) < dead
    keep[1:] = ~close
    deep = np.flatnonzero(close[1:] & close[:-1]) + 2
    if len(deep):
        fresh = np.diff(deep, prepend=-1) != 1
        kept = []
        for x, a, f in zip(t[deep].tolist(), t[deep - 2].tolist(),
                           fresh.tolist()):
            if f:
                last = a
            if x - last < dead:
                kept.append(False)
            else:
                kept.append(True)
                last = x
        keep[deep] = kept
    return keep


def _count_reached(u: np.ndarray, rows: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``np.count_nonzero(u >= rows[:, idx], axis=0)`` one row at a time,
    without the (rows x photons) gather, in the smallest unsigned type."""
    count = np.zeros(len(u), np.min_scalar_type(len(rows)))
    for row in rows:
        count += u >= row[idx]
    return count


def generate_events(source: SourceModel, pair_rate: float,
                    memory: AfcPlan | None, filters: dict | None,
                    detectors: dict | None, gating: GatingSequence | None,
                    duration: float, seed: int) -> EventStream:
    """Run the full source -> memory -> filter -> detector chain.

    Deterministic for a fixed seed.  Pairs are emitted at ``pair_rate``
    per second of measurement time; ``memory`` is the AFC plan, None for
    no memory.  ``filters`` maps channel name to a FilterSpec;
    ``detectors`` maps channel name to DetectorModel; either may be None
    for ideal components.
    """
    if not pair_rate >= 0:   # also rejects NaN
        raise ParameterError("pair_rate must be >= 0")
    if duration < 0:
        raise ParameterError("duration must be >= 0")
    filters = filters or {}
    detectors = detectors or {}
    det_s = detectors.get("signal", DetectorModel())
    det_i = detectors.get("idler", DetectorModel())

    live_total = gating.live_total(duration) if gating else duration
    for name, mean in (("pair", pair_rate * live_total),
                       ("signal dark", det_s.dark_rate * duration),
                       ("idler dark", det_i.dark_rate * duration)):
        if not mean <= _MAX_POISSON_MEAN:
            raise ParameterError(
                f"expected {name} count {mean:.3g} is too large to draw")

    rng = make_rng(seed)
    spec = source.spectrum
    n_pairs = int(rng.poisson(pair_rate * live_total)) if live_total > 0 else 0

    t_idl = np.sort(rng.random(n_pairs)) * live_total
    if gating is not None:
        t_idl = gating.live_to_abs(t_idl)
    # every pair's delay variates are drawn here, in generator order, but a
    # delay is evaluated only for a signal photon that reaches the detector
    draws = source.sampler.draw(rng, n_pairs)
    # a photon's fate depends only on its mode: every probability below is
    # a per-mode table gathered by the mode index
    w2 = spec.weights ** 2
    midx = _guided_search(_guide_table(np.cumsum(w2 / w2.sum())),
                          rng.random(n_pairs))

    # memory routing on the signal photon: branch 0 is transmitted, branch
    # m <= echo_orders an order-m echo (probability eta^m), the rest absorbed.
    # alive holds the pair index of each signal photon still in the chain.
    if memory is None:
        alive = np.arange(n_pairs)
    else:
        tp, ep = memory.response_arrays(spec.signal_freqs)
        orders = memory.echo_orders
        cum = np.cumsum([tp] + [ep ** m for m in range(1, orders + 1)], axis=0)
        branch = _count_reached(rng.random(n_pairs), cum, midx)
        alive = np.flatnonzero(branch <= orders)

    def thin(modes, freqs, flt, det):
        """Mask of the photons that pass the filter and the detector
        efficiency: a draw per photon, and nothing else about it."""
        keep = np.ones(len(modes), dtype=bool)
        if flt is not None:
            keep &= rng.random(len(modes)) < chain_transmission([flt], freqs)[modes]
        if det.efficiency < 1.0:
            keep &= rng.random(len(modes)) < det.efficiency
        return keep

    def finish(t, det):
        """Jitter, shutters, dark counts and the range cut; sorted."""
        if det.jitter_sigma > 0 and len(t):
            t = t + rng.normal(0.0, det.jitter_sigma, len(t))
        if gating is not None and len(t):
            t = t[gating.measuring_mask(t)]  # AOM shutters block other phases
        n_dark = int(rng.poisson(det.dark_rate * duration))
        if n_dark:
            t = np.concatenate([t, rng.random(n_dark) * duration])
        t = t[(t >= 0) & (t <= duration)]
        return np.sort(t)

    idler = finish(t_idl[thin(midx, spec.idler_freqs, filters.get("idler"),
                              det_i)], det_i)
    idler = idler[_prune_dead_time(idler, det_i.dead_time)]

    midx = midx[alive]   # frees the modes of photons already gone
    alive = alive[thin(midx, spec.signal_freqs, filters.get("signal"), det_s)]
    t_sig = t_idl[alive] + source.sampler.delays(draws, alive)
    if memory is not None:
        t_sig += branch[alive] * memory.storage_time
    sig = finish(t_sig, det_s)
    if gating is not None:
        # idler-conditioned gate, timed from the last idler click before each
        # signal event; with none before it dt is NaN, inside no gate
        dt = sig - np.r_[np.nan, idler][np.searchsorted(idler, sig, side="right")]
        inside = (dt >= gating.conditional_gate_on) \
            & (dt <= gating.conditional_gate_off)
        sig = sig[inside | (rng.random(len(sig)) < gating.off_gate_attenuation)]
    sig = sig[_prune_dead_time(sig, det_s.dead_time)]

    duration_ps = int(round(duration * 1e12))
    return EventStream(
        signal_ps=np.clip(np.rint(sig * 1e12), 0, duration_ps).astype(np.uint64),
        idler_ps=np.clip(np.rint(idler * 1e12), 0, duration_ps).astype(np.uint64),
        duration_ps=duration_ps, seed=int(seed),
        model_digest=model_digest(source, pair_rate, memory, filters, detectors,
                                  gating))
