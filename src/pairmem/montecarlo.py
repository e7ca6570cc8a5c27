"""Seeded Monte Carlo generation of detection-event streams.

Pairs are emitted as a Poisson process during the measurement phases of the
gating cycle; the signal-idler delay of each pair is drawn from the
analytic cross-correlation curve; the signal photon then passes through the
memory (transmit / echo / absorbed), both photons through their spectral
filters and detectors, and the idler-conditioned gate attenuates the signal
channel outside its window.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, field, fields

import numpy as np

from .cavity import BiphotonSpectrum, CavityParams, TWO_PI
from .errors import ParameterError
from .memory import AfcProfile, FilterSpec, chain_transmission

CH_SIGNAL = 0
CH_IDLER = 1
CHANNEL_NAMES = {"signal": CH_SIGNAL, "idler": CH_IDLER}

_DELAY_TABLE_BITS = 17  # in-period density resolution: 1/FSR / 2^17 (~62 fs)
_GUIDE_STEPS = 4  # vectorized forward steps before a key falls back to bisection


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
    """Pair-emission model: Poisson rate plus the joint spectrum."""

    pair_rate: float
    spectrum: BiphotonSpectrum
    cavity: CavityParams

    def __post_init__(self):
        if self.pair_rate < 0:
            raise ParameterError("pair_rate must be >= 0")


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 1.0
    dark_rate: float = 0.0
    jitter_sigma: float = 0.0
    dead_time: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ParameterError("efficiency must lie in [0, 1]")
        if min(self.dark_rate, self.jitter_sigma, self.dead_time) < 0:
            raise ParameterError("detector parameters must be nonnegative")


@dataclass(frozen=True)
class GatingSequence:
    """Measurement/locking alternation plus the idler-conditioned gate.

    One cycle is [measure | break | locking | break]; the measurement
    sub-stage occupies ``measure_fraction`` of the cycle.  After each idler
    click the signal channel is fully open only for delays inside
    [conditional_gate_on, conditional_gate_off]; outside, events pass with
    probability ``off_gate_attenuation``.
    """

    cycle: float = 100e-6
    measure_fraction: float = 0.45
    break_time: float = 10e-6
    conditional_gate_on: float = 700e-9
    conditional_gate_off: float = 1900e-9
    off_gate_attenuation: float = 0.05

    def __post_init__(self):
        if not (0 < self.break_time < self.cycle):
            raise ParameterError("need 0 < break_time < cycle")
        if not (0 < self.measure_fraction < 1):
            raise ParameterError("measure_fraction must lie in (0, 1)")
        if self.measure_len + 2 * self.break_time > self.cycle + 1e-15:
            raise ParameterError("measure stage plus breaks exceed the cycle")
        if not (self.conditional_gate_on < self.conditional_gate_off):
            raise ParameterError("conditional gate must open before it closes")
        if not (0.0 <= self.off_gate_attenuation <= 1.0):
            raise ParameterError("off_gate_attenuation must lie in [0, 1]")

    @property
    def measure_len(self) -> float:
        return self.measure_fraction * self.cycle

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


def sequence_phase(t: float, gating: GatingSequence) -> str:
    """Phase of the gating cycle at time t: measuring, break, or locking."""
    if t < 0:
        raise ParameterError("t must be >= 0")
    r = math.fmod(t, gating.cycle)
    m = gating.measure_len
    if r < m:
        return "measuring"
    if r < m + gating.break_time:
        return "break"
    if r < gating.cycle - gating.break_time:
        return "locking"
    return "break"


class DelaySampler:
    """Exact sampler for the signed pair delay distributed as G2(tau).

    G2 factorizes into a periodic comb times an exponential envelope, so a
    delay is the sum of a geometric number of comb periods plus an
    in-period offset drawn by inverse CDF from a dense table (looked up
    through a guide table).  Branch signs are chosen by the closed-form
    integral weight of each side.
    """

    def __init__(self, spec: BiphotonSpectrum, cavity: CavityParams,
                 table_bits: int = _DELAY_TABLE_BITS):
        idx, w = spec.index - spec.index.min(), spec.weights
        npts = 1 << table_bits
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
            cdf = np.cumsum(dens)
            # total branch mass: one-period integral times the geometric
            # tail over later periods
            weights.append(cdf[-1] * du / (1.0 - math.exp(-gamma * period)))
            self._branches.append({
                "gamma": gamma, "period": period, "du": du,
                "cdf": cdf, "dens": dens, "guide": _guide_table(cdf),
                "lower": np.concatenate(([0.0], cdf[:-1])),
            })
        self.p_positive = weights[0] / (weights[0] + weights[1])

    def _sample_branch(self, rng: np.random.Generator, size: int, b) -> np.ndarray:
        lam = b["gamma"] * b["period"]
        k = np.floor(rng.exponential(scale=1.0 / lam, size=size))
        v = rng.random(size) * b["cdf"][-1]
        j = _guided_search(b["guide"], v)
        frac = (v - b["lower"][j]) / b["dens"][j]
        u = (j + frac) * b["du"]
        return k * b["period"] + u

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        pos = rng.random(size) < self.p_positive
        out = np.empty(size)
        n_pos = int(np.count_nonzero(pos))
        if n_pos:
            out[pos] = self._sample_branch(rng, n_pos, self._branches[0])
        if size - n_pos:
            out[~pos] = -self._sample_branch(rng, size - n_pos, self._branches[1])
        return out


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) from a single integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


def split_seed(seed: int, index: int) -> int:
    """Stable derived sub-seed for shard/sweep/reference runs."""
    h = hashlib.sha256(f"pairmem-seed:{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "little")


@dataclass
class EventStream:
    """Channel-tagged detection timestamps in integer picoseconds.

    Events are sorted by (timestamp, channel); per-channel timestamps are
    therefore nondecreasing.  Treat as immutable after generation.
    """

    channels: np.ndarray
    timestamps_ps: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.channels = np.asarray(self.channels, dtype=np.uint8)
        self.timestamps_ps = np.asarray(self.timestamps_ps, dtype=np.uint64)
        if self.channels.shape != self.timestamps_ps.shape:
            raise ParameterError("channel/timestamp arrays must match")

    def __len__(self):
        return len(self.timestamps_ps)

    def times_ps(self, channel) -> np.ndarray:
        code = CHANNEL_NAMES.get(channel, channel)
        return self.timestamps_ps[self.channels == code]

    def times_s(self, channel) -> np.ndarray:
        return self.times_ps(channel).astype(float) * 1e-12

    @property
    def duration_s(self) -> float:
        return self.metadata["duration_ps"] * 1e-12

    def gating(self) -> GatingSequence | None:
        g = self.metadata.get("gating")
        return GatingSequence(**g) if g else None

    def live_time_s(self) -> float:
        g = self.gating()
        return g.live_total(self.duration_s) if g else self.duration_s


def model_digest(*models) -> str:
    """Stable hex digest of a set of model objects."""

    def conv(obj):
        if obj is None or isinstance(obj, (bool, int, str)):
            return obj
        if isinstance(obj, float):
            return float(repr(obj))
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, BiphotonSpectrum):
            # per-mode records: the layout of every recorded model digest
            return {"modes": [
                {"index": i, "signal_freq": fs, "idler_freq": fi, "weight": w}
                for i, fs, fi, w in zip(obj.index.tolist(), obj.signal_freqs.tolist(),
                                        obj.idler_freqs.tolist(), obj.weights.tolist())]}
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


def _echo_order_probs(echo_prob: np.ndarray, orders: int) -> list[np.ndarray]:
    # phenomenological higher-order echoes: order m re-emits with prob eta^m
    return [echo_prob ** m for m in range(1, orders + 1)]


def generate_events(source: SourceModel, memory: AfcProfile | None,
                    filters: dict | None, detectors: dict | None,
                    gating: GatingSequence | None, duration: float,
                    seed: int) -> EventStream:
    """Run the full source -> memory -> filter -> detector chain.

    Deterministic for a fixed seed.  ``filters`` maps channel name to a
    list of FilterSpec; ``detectors`` maps channel name to DetectorModel;
    either may be None for ideal components.
    """
    if duration < 0:
        raise ParameterError("duration must be >= 0")
    filters = filters or {}
    detectors = detectors or {}
    det_s = detectors.get("signal", DetectorModel())
    det_i = detectors.get("idler", DetectorModel())

    rng = make_rng(seed)
    spec = source.spectrum

    live_total = gating.live_total(duration) if gating else duration
    n_pairs = int(rng.poisson(source.pair_rate * live_total)) if live_total > 0 else 0

    if n_pairs:
        live_t = np.sort(rng.random(n_pairs)) * live_total
        t0 = gating.live_to_abs(live_t) if gating else live_t
        # unnamed, so its tables are freed before the detector stage
        tau = DelaySampler(spec, source.cavity).sample(rng, n_pairs)
        w2 = spec.weights ** 2
        cum = np.cumsum(w2 / w2.sum())
        midx = _guided_search(_guide_table(cum), rng.random(n_pairs))
        f_sig = spec.signal_freqs[midx]
        f_idl = spec.idler_freqs[midx]
        t_idl = t0
        t_sig = t0 + tau

        # memory routing on the signal photon
        if memory is not None:
            tp, ep = memory.response_arrays(f_sig)
            u = rng.random(n_pairs)
            delay = np.full(n_pairs, np.nan)
            delay[u < tp] = 0.0
            acc = tp.copy()
            for m, pm in enumerate(_echo_order_probs(ep, memory.echo_orders), start=1):
                sel = (u >= acc) & (u < acc + pm)
                delay[sel] = m * memory.storage_time
                acc += pm
            kept = ~np.isnan(delay)
            t_sig = t_sig[kept] + delay[kept]
            f_sig = f_sig[kept]
    else:
        t_idl = t_sig = np.empty(0)
        f_idl = f_sig = np.empty(0)

    def detect(times, freqs, flts, det):
        if flts is not None and not isinstance(flts, (list, tuple)):
            flts = [flts]
        keep = np.ones(len(times), dtype=bool)
        if flts:
            keep &= rng.random(len(times)) < chain_transmission(flts, freqs)
        if det.efficiency < 1.0:
            keep &= rng.random(len(times)) < det.efficiency
        t = times[keep]
        if det.jitter_sigma > 0 and len(t):
            t = t + rng.normal(0.0, det.jitter_sigma, len(t))
        if gating is not None and len(t):
            t = t[gating.measuring_mask(t)]  # AOM shutters block other phases
        n_dark = int(rng.poisson(det.dark_rate * duration))
        if n_dark:
            t = np.concatenate([t, rng.random(n_dark) * duration])
        t = t[(t >= 0) & (t <= duration)]
        return np.sort(t)

    idler = detect(t_idl, f_idl, filters.get("idler"), det_i)
    idler = idler[_prune_dead_time(idler, det_i.dead_time)]

    sig = detect(t_sig, f_sig, filters.get("signal"), det_s)
    if gating is not None and len(sig) and len(idler):
        # idler-conditioned gate: sequential post-pass over the idler history
        idx = np.searchsorted(idler, sig, side="right") - 1
        dt = sig - np.where(idx >= 0, idler[np.maximum(idx, 0)], np.inf)
        inside = (idx >= 0) & (dt >= gating.conditional_gate_on) \
            & (dt <= gating.conditional_gate_off)
        sig = sig[inside | (rng.random(len(sig)) < gating.off_gate_attenuation)]
    elif gating is not None and len(sig):
        sig = sig[rng.random(len(sig)) < gating.off_gate_attenuation]
    sig = sig[_prune_dead_time(sig, det_s.dead_time)]

    duration_ps = int(round(duration * 1e12))
    sig_ps = np.clip(np.rint(sig * 1e12), 0, duration_ps).astype(np.uint64)
    idl_ps = np.clip(np.rint(idler * 1e12), 0, duration_ps).astype(np.uint64)

    ch = np.concatenate([np.zeros(len(sig_ps), np.uint8),
                         np.ones(len(idl_ps), np.uint8)])
    ts = np.concatenate([sig_ps, idl_ps])
    order = np.lexsort((ch, ts))

    meta = {
        "seed": int(seed),
        "duration_ps": duration_ps,
        "model_digest": model_digest(source, memory, filters, detectors, gating),
        "gating": asdict(gating) if gating else None,
        "pair_rate": source.pair_rate,
    }
    return EventStream(channels=ch[order], timestamps_ps=ts[order], metadata=meta)


def concatenate_streams(a: EventStream, b: EventStream) -> EventStream:
    """Concatenate b after a, shifting b by a's duration."""
    offset = np.uint64(a.metadata["duration_ps"])
    ch = np.concatenate([a.channels, b.channels])
    ts = np.concatenate([a.timestamps_ps, b.timestamps_ps + offset])
    meta = dict(a.metadata)
    meta["duration_ps"] = int(a.metadata["duration_ps"] + b.metadata["duration_ps"])
    meta["seed"] = [a.metadata["seed"], b.metadata["seed"]]
    return EventStream(channels=ch, timestamps_ps=ts, metadata=meta)
