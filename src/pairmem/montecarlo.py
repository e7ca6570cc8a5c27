"""Seeded Monte Carlo generation of detection-event streams.

Pairs are emitted as a Poisson process during the measurement phases of the
gating cycle.  The signal photon passes through the memory (transmit / echo
/ absorbed), both photons through their spectral filters and detectors, and
the idler-conditioned gate attenuates the signal channel outside its window.

A pair's fate (idler detected or not, signal detected in a memory branch or
lost) depends on its mode alone, so the generator draws the fate first, from
one table summed over the modes, and draws only pairs that leave a photon
(Poisson thinning, Lewis & Shedler 1979).  The signal-idler delay, drawn
from the analytic cross-correlation curve, is drawn only for the signal
photons that reach the detector.

Per-pair steps run in place over slices of ``_CHUNK`` elements on two
buffers: the array of pair times, into which the idler photons are
compacted, and one array of the detected signal photons, which takes their
delays in place and has room behind them for the expected dark counts (a
copy when more arrive).  A stream that fills less than half of its buffer
is copied out of it.  Numpy draws uniforms and normals element by element,
so the sliced draws keep every byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .cavity import BiphotonSpectrum, CavityParams, TWO_PI
from .errors import ParameterError
from .memory import AfcPlan, FilterSpec, chain_transmission

_CHUNK = 1 << 16   # elements per slice of a per-pair pass
_DELAY_TABLE_BITS = 17  # 2^17 in-period density steps (~62 fs) and quantile steps
# the largest expected count of pairs or of one channel's darks: a buffer of
# both stays under the 2**60 int64 values numpy takes in one array
_MAX_COUNT = 1 << 58


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
    dead_time: float = 0.0   # s, a whole number of ps

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ParameterError("efficiency must lie in [0, 1]")
        for name, top in (("dark_rate", math.inf), ("dead_time", math.inf),
                          ("jitter_sigma", 2 ** 62 / 1e13)):   # 10 sigma in int64 ps
            if not 0.0 <= getattr(self, name) < top:   # also rejects NaN
                raise ParameterError(f"detector {name} must lie in [0, {top:.4g})")
        self.dead_time_ps   # whole ps, or ParameterError

    @property
    def dead_time_ps(self) -> int:
        return whole_ps(self.dead_time, "dead_time")


def whole_ps(seconds: float, name: str) -> int:
    """``seconds`` in whole picoseconds, the time base of every timestamp;
    ParameterError unless it is one, up to the float's rounding, below 2**62."""
    ps = seconds * 1e12
    if not (abs(ps) < 2 ** 62 and math.isclose(ps, round(ps), rel_tol=1e-12)):
        raise ParameterError(f"{name} is {seconds!r} s, not a whole number of ps < 2**62")
    return round(ps)


@dataclass(frozen=True)
class GatingSequence:
    """Measurement/locking alternation plus the idler-conditioned gate.

    One cycle is [measure | break | locking | break]; the measurement
    sub-stage occupies ``measure_fraction`` of the cycle.  After each idler
    click the signal channel is fully open only for delays inside
    [conditional_gate_on, conditional_gate_off]; outside, events pass with
    probability ``off_gate_attenuation``.  Its times are whole
    picoseconds: the generator and the estimators gate in integer time.
    """

    cycle: float
    measure_fraction: float
    break_time: float
    conditional_gate_on: float
    conditional_gate_off: float
    off_gate_attenuation: float

    def __post_init__(self):
        if not (0 < self.measure_fraction < 1):
            raise ParameterError("measure_fraction must lie in (0, 1)")
        brk = whole_ps(self.break_time, "break_time")
        if not (brk > 0 and self.measure_ps + 2 * brk <= self.cycle_ps):
            raise ParameterError("need break_time > 0 and measure + 2 breaks <= cycle")
        on, off = self.conditional_gate_ps
        if not on < off:
            raise ParameterError("conditional gate must open before it closes")
        if not (0.0 <= self.off_gate_attenuation <= 1.0):
            raise ParameterError("off_gate_attenuation must lie in [0, 1]")

    @property
    def cycle_ps(self) -> int:
        return whole_ps(self.cycle, "cycle")

    @property
    def measure_ps(self) -> int:
        return whole_ps(self.measure_fraction * self.cycle, "measurement stage")

    @property
    def conditional_gate_ps(self) -> tuple[int, int]:
        return (whole_ps(self.conditional_gate_on, "conditional_gate_on"),
                whole_ps(self.conditional_gate_off, "conditional_gate_off"))

    def measuring(self, t_ps):
        """Whether each timestamp ``t_ps`` (int ps) is in a measurement stage."""
        # cycle - 1 - (t mod cycle) in one temporary; unsigned r wraps and back
        r = t_ps // self.cycle_ps
        r *= self.cycle_ps
        r -= t_ps
        r += self.cycle_ps - 1
        return r >= self.cycle_ps - self.measure_ps

    def live_ps(self, duration_ps: int) -> int:
        """Measurement time in [0, duration_ps), in ps."""
        full, rem = divmod(duration_ps, self.cycle_ps)
        return full * self.measure_ps + min(rem, self.measure_ps)


class DelaySampler:
    """Sampler for the signed pair delay distributed as G2(tau).

    G2 factorizes into a periodic comb times an exponential envelope, so a
    delay is a geometric number of comb periods plus an in-period offset,
    read from a table of in-period quantiles at 2^17 equal probability
    steps, linearly interpolated (Devroye 1986, ch. 2): its CDF is within
    2^-17 of the dense table's.  Branch signs are chosen by the closed-form
    integral weight of each side.
    """

    def __init__(self, spec: BiphotonSpectrum, cavity: CavityParams):
        self._branches = []   # per side: (gamma * period, period, quantiles)
        weights = []
        for gamma, period, cdf in _period_cdfs(spec, cavity):
            du = period / (len(cdf) - 1)
            # total branch mass: one-period integral times the geometric
            # tail over later periods
            weights.append(cdf[-1] * du / (1.0 - math.exp(-gamma * period)))
            q = np.interp(np.linspace(0.0, cdf[-1], len(cdf)), cdf,
                          np.arange(len(cdf)) * du)
            self._branches.append((gamma * period, period, q))
        self.p_positive = weights[0] / (weights[0] + weights[1])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` signed delays.  Draw order: the branch signs, then for
        each branch with draws its whole periods and one uniform per
        delay, read between the two quantiles around it."""
        pos = rng.random(size) < self.p_positive
        out = np.empty(size)
        for (lam, period, q), sel, sign in zip(self._branches, (pos, ~pos), (1, -1)):
            n = int(np.count_nonzero(sel))
            if n:
                d = rng.exponential(scale=1.0 / lam, size=n)
                np.floor(d, out=d)
                d *= period
                for a in range(0, n, _CHUNK):   # d += q[j] + (x-j) (q[j+1] - q[j])
                    x = rng.random(len(d[a:a + _CHUNK])) * (len(q) - 1)
                    j = x.astype(np.intp)
                    x -= j
                    x *= q[j + 1] - q[j]
                    x += q[j]
                    d[a:a + _CHUNK] += x
                out[sel] = d if sign > 0 else np.negative(d, out=d)
        return out


def _period_cdfs(spec: BiphotonSpectrum, cavity: CavityParams):
    """Yield, per delay branch (positive, then negative), its decay rate gamma,
    its comb period and the in-period CDF table, the cumulative sum of G2
    on the midpoint grid of 2^17 steps with a leading 0."""
    idx, w = spec.index - spec.index.min(), spec.weights
    npts = 1 << _DELAY_TABLE_BITS
    # comb factor on midpoint grid u_m = (m + 1/2) P/npts:
    #   |sum_j s_j exp(i 2 pi j (m + 1/2)/npts)|^2
    # evaluated for all m at once with one inverse DFT
    comb = np.zeros(npts, dtype=complex)   # the lattice, freed by the ifft
    np.add.at(comb, np.mod(idx, npts), w * np.exp(1j * math.pi * idx / npts))
    comb = np.fft.ifft(comb)   # |ifft * npts|^2, each step in place
    comb *= npts
    comb = np.abs(comb)
    comb **= 2
    for fsr, lw in ((cavity.fsr_signal, cavity.linewidth_signal),
                    (cavity.fsr_idler, cavity.linewidth_idler)):
        gamma, period = TWO_PI * lw, 1.0 / fsr
        cdf = np.zeros(npts + 1)   # each step in place behind the leading 0
        u = np.add(np.arange(npts), 0.5, out=cdf[1:])
        u *= period / npts
        np.exp(np.multiply(u, -gamma, out=u), out=u)
        np.cumsum(np.multiply(u, comb, out=u), out=u)
        yield gamma, period, cdf


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
        if isinstance(obj, (np.ndarray, np.generic)):
            return obj.tolist()
        if is_dataclass(obj):
            return {f.name: getattr(obj, f.name) for f in fields(obj)}
        raise TypeError(f"cannot digest {type(obj)!r}")

    blob = json.dumps(models, default=conv, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _prune_dead_time(t: np.ndarray, dead: int) -> np.ndarray:
    """Greedy dead-time mask over a sorted array of integer timestamps.

    Equal to the sequential rule "drop t[i] if t[i] - last kept < dead".
    Gaps >= dead split the stream into runs, and every run start is kept
    (t[i] - last >= t[i] - t[i-1] >= dead).  The element after a run start
    is always dropped, so only elements behind two consecutive close gaps
    need the greedy walk, anchored at their run start.
    """
    keep = np.ones(len(t), dtype=bool)
    for a in range(1, len(t), _CHUNK):   # keep[1:] = np.diff(t) >= dead, by slices
        np.greater_equal(np.diff(t[a - 1:a + _CHUNK]), dead, out=keep[a:a + _CHUNK])
    close = ~keep[1:]
    deep = np.flatnonzero(close[1:] & close[:-1]) + 2
    fresh = np.diff(deep, prepend=-1) != 1
    kept = []
    for x, a, f in zip(t[deep].tolist(), t[deep - 2].tolist(), fresh.tolist()):
        if f:
            last = a
        kept.append(x - last >= dead)
        if kept[-1]:
            last = x
    keep[deep] = kept
    return keep


def _compact(t: np.ndarray, keep) -> np.ndarray:
    """The elements of ``t`` that ``keep`` (a bool mask, or the mask of slice
    s as keep(s), called in order) selects, moved to its front: a view."""
    m = 0
    for a in range(0, max(len(t), 1), _CHUNK):   # an empty t: one empty slice
        s = slice(a, min(a + _CHUNK, len(t)))
        kept = t[s][keep(s) if callable(keep) else keep[s]]
        t[m:m + len(kept)] = kept
        m += len(kept)
    return t[:m]


def _fate_classes(spec: BiphotonSpectrum, memory: AfcPlan | None,
                  filters: dict, det_s: DetectorModel,
                  det_i: DetectorModel) -> np.ndarray:
    """Probability of each pair fate, summed over the modes (weights w^2).

    Row 0 is the idler lost, row 1 the idler detected (filter x
    efficiency).  Column m <= echo_orders is the signal detected in memory
    branch m (0 transmitted, m an order-m echo), times its filter and
    efficiency; the last column is the signal lost.  Branch m's probability
    is the increment of the cumulative table [tp, ep, ep^2, ...] clipped at
    1, so a plan with tp + ep + ... > 1 routes as one uniform compared with
    that table does.  The pair that loses both photons is not a class: its
    entry is 0.
    """
    w2 = spec.weights ** 2

    def detected(channel, freqs, det):   # a missing filter is the ideal one
        flt = filters.get(channel, FilterSpec())
        return np.full(len(freqs), det.efficiency) * chain_transmission([flt], freqs)

    if memory is None:
        reached = np.ones((1, len(w2)))
    else:
        tp, ep = memory.response_arrays(spec.signal_freqs)
        reached = np.minimum(np.cumsum(
            [tp] + [ep ** m for m in range(1, memory.echo_orders + 1)],
            axis=0), 1.0)
    sig = detected("signal", spec.signal_freqs, det_s)
    idl = detected("idler", spec.idler_freqs, det_i)
    signal_fates = np.vstack([np.diff(reached, axis=0, prepend=0.0) * sig,
                              1.0 - reached[-1] * sig])
    table = (np.stack([1.0 - idl, idl]) * (w2 / w2.sum())) @ signal_fates.T
    table[0, -1] = 0.0
    return table


def generate_events(source: SourceModel, pair_rate: float,
                    memory: AfcPlan | None, filters: dict | None,
                    detectors: dict | None, gating: GatingSequence | None,
                    duration: float, seed: int) -> EventStream:
    """Run the full source -> memory -> filter -> detector chain.

    Deterministic for a fixed seed.  Pairs are emitted at ``pair_rate``
    per second of measurement time; ``memory`` is the AFC plan, None for
    no memory.  ``filters`` maps channel name to a FilterSpec;
    ``detectors`` maps channel name to DetectorModel; either may be None
    for ideal components.  Every time is an int64 count of ps.
    """
    if not pair_rate >= 0:   # also rejects NaN
        raise ParameterError("pair_rate must be >= 0")
    if not 0 <= duration * 1e12 < 2 ** 63:   # also rejects NaN
        raise ParameterError("duration must lie in [0, 2**63) ps")
    filters, detectors = filters or {}, detectors or {}
    det_s = detectors.get("signal", DetectorModel())
    det_i = detectors.get("idler", DetectorModel())

    duration_ps = round(duration * 1e12)
    live_ps = gating.live_ps(duration_ps) if gating else duration_ps
    fates = _fate_classes(source.spectrum, memory, filters, det_s, det_i)
    n_fates = fates.shape[1]   # signal: memory branch 0..echo_orders, or lost
    cdf = np.cumsum(fates)
    # thinning: the pairs that leave a photon are a Poisson process of
    # rate pair_rate * P_any, each taking a class with probability
    # proportional to its entry (side="right" never takes an empty class)
    pairs = pair_rate * float(cdf[-1]) * live_ps * 1e-12   # overflows to inf, silently
    darks = (det_s.dark_rate * duration, det_i.dark_rate * duration)
    for name, mean in zip(("pair", "signal dark", "idler dark"), (pairs, *darks)):
        if not mean <= _MAX_COUNT:
            raise ParameterError(
                f"expected {name} count {mean:.3g} is past 2**58, too large to hold")
    rng = make_rng(seed)

    def finish(t, n, det):
        """Jitter, shutters, dark counts and range cut of t[:n]; t[n:] is room."""
        if det.jitter_sigma > 0:
            for a in range(0, n, _CHUNK):
                tc = t[a:min(a + _CHUNK, n)]
                jitter = rng.normal(0.0, det.jitter_sigma * 1e12, len(tc))
                tc += np.rint(jitter, out=jitter).astype(np.int64)   # exact past 2**53
        if gating is not None:   # AOM shutters block other phases
            n = len(_compact(t[:n], lambda s: gating.measuring(t[s])))
        n_dark = int(rng.poisson(det.dark_rate * duration))
        if n_dark:
            if n + n_dark > len(t):   # no room behind the photons
                t = np.concatenate([t[:n], np.empty(n_dark, t.dtype)])
            t[n:n + n_dark] = rng.integers(duration_ps + 1, size=n_dark)
        t = t[:n + n_dark]
        t.sort(kind="stable")   # timsort: jittered times are nearly sorted
        return t[np.searchsorted(t, 0):np.searchsorted(t, duration_ps, "right")]

    try:
        n_pairs = int(rng.poisson(pairs))
        t = rng.integers(live_ps, size=n_pairs)   # measurement time
        t.sort()
        parts = [(np.empty(0, np.int64), np.empty(0, np.min_scalar_type(n_fates)))]

        def fate(s):   # slice s: time map, classes, signal photons set aside
            tc = t[s]
            if gating is not None:   # measurement stage k opens cycle k
                tc += tc // gating.measure_ps * (gating.cycle_ps - gating.measure_ps)
            x = rng.random(len(tc)) * cdf[-1]   # a pair's class: the CDF step holding x
            # the signal is lost on [cdf[-2], cdf[-1]) alone: the both-lost entry is 0
            hit = (x < cdf[-2]) | (x >= cdf[-1])
            branch = np.searchsorted(cdf, x[hit], side="right") % n_fates
            parts.append((tc[hit], branch.astype(parts[0][1].dtype)))
            return x >= cdf[n_fates - 1]
        n_idler = len(_compact(t, fate))   # t becomes the idler stream
        n_sig = sum(len(p[1]) for p in parts)
        # room for the expected signal darks and a margin
        sig = np.empty(n_sig + math.ceil(darks[0] + 6 * math.sqrt(darks[0])), np.int64)
        np.concatenate([p[0] for p in parts], out=sig[:n_sig])
        branch = np.concatenate([p[1] for p in parts])
        del parts

        def add_delays(delay):   # sig += delay (+ echo) in whole ps, by slices
            for a in range(0, n_sig, _CHUNK):
                d = delay[a:a + _CHUNK]
                if memory is not None:
                    d += branch[a:a + _CHUNK] * memory.storage_time
                d *= 1e12
                sig[a:a + len(d)] += np.rint(d, out=d).astype(np.int64)
        # under the all-mode G2 a delay does not depend on the mode, so it
        # is drawn only for the signal photons that reach the detector
        add_delays(source.sampler.sample(rng, n_sig))
        idler = finish(t, n_idler, det_i)
        idler = _compact(idler, _prune_dead_time(idler, det_i.dead_time_ps))
        sig = finish(sig, n_sig, det_s)
        if gating is not None:
            # idler-conditioned gate, timed from the last idler click at or
            # before each signal event; with none (k = 0, where idler[k - 1]
            # wraps) the event is inside no gate
            on, off = gating.conditional_gate_ps

            def gate(s):
                k = np.searchsorted(idler, sig[s], side="right")
                dt = sig[s] - idler[k - 1] if len(idler) else 0
                inside = (k > 0) & (dt >= on) & (dt <= off)
                return inside | (rng.random(len(k)) < gating.off_gate_attenuation)
            sig = _compact(sig, gate)
        sig = _compact(sig, _prune_dead_time(sig, det_s.dead_time_ps))
        # a stream that fills less than half of its buffer lets the buffer go
        sig, idler = (a.copy() if 2 * a.nbytes < a.base.nbytes else a for a in (sig, idler))
    except MemoryError as exc:
        raise ParameterError(f"{pairs:.3g} expected pairs and {sum(darks):.3g} "
                             "expected dark counts do not fit in memory") from exc

    return EventStream(
        signal_ps=sig.view(np.uint64), idler_ps=idler.view(np.uint64),
        duration_ps=duration_ps, seed=int(seed),
        model_digest=model_digest(source, pair_rate, memory, filters, detectors,
                                  gating))
