"""Frequency-multiplexed AFC memory and the downstream spectral filters.

The memory absorbs photons inside periodic comb "blocks" (one block per
frequency mode) and re-emits them as an echo after 1/(tooth spacing).
Filters are a Lorentzian-Airy etalon and a top-hat volume Bragg grating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import MAX_MODES
from .errors import ParameterError

# the AFC and etalon laws square a finesse F (and the AFC's d / F): below
# this bound on F and on the AFC's peak optical depth d the squares are finite
_MAX_FINESSE = 1e150
# echo orders past this many route no photon (AfcPlan's docstring says why)
_MAX_ECHO_ORDERS = 64


@dataclass(frozen=True)
class AfcPlan:
    """Commanded layout of the absorption comb.

    ``mode_count`` blocks spaced ``mode_spacing`` apart, each block a tooth
    comb of spacing ``tooth_spacing`` across ``per_mode_bandwidth``.  Modes
    are indexed -floor(M/2) .. ceil(M/2)-1.  ``taper='gaussian'`` rolls the
    preparation envelope off with FWHM ``taper_fwhm`` across the mode grid;
    ``efficiency_override`` replaces the echo-efficiency law in every block;
    echoes up to order ``echo_orders`` are re-emitted.  A plan builds the
    per-mode echo-efficiency and effective-OD tables the event generator
    reads, and rejects a block whose transmit and echo probabilities
    exceed 1.

    ``mode_count`` is at most ``cavity.MAX_MODES`` and ``echo_orders`` at
    most 64.  An order m takes ep**m of a block's photons, ep its echo
    efficiency, as the step of a cumulative table [tp, tp + ep, ...]
    clipped at 1.  In double precision that table stops growing after 54
    orders: with ep < 1/2 each later step is below half the last bit of a
    sum of at least ep, and with ep >= 1/2 the sum has reached its clip.
    So an order past 64 would route no photon, and only grow the tables.
    """

    mode_count: int
    mode_spacing: float
    tooth_spacing: float
    per_mode_bandwidth: float
    finesse: float
    peak_optical_depth: float
    center_freq: float
    background_od: float
    efficiency_override: float | None
    taper: str                     # "flat" | "gaussian"
    taper_fwhm: float | None
    echo_orders: int

    def __post_init__(self):
        if not 1 <= self.mode_count <= MAX_MODES:
            raise ParameterError(f"mode_count must lie in [1, {MAX_MODES}]")
        if not (0 < self.tooth_spacing < self.per_mode_bandwidth < self.mode_spacing):
            raise ParameterError(
                "need tooth_spacing < per_mode_bandwidth < mode_spacing")
        if not 1.0 < self.finesse < _MAX_FINESSE:   # also rejects NaN
            raise ParameterError(f"AFC finesse must lie in (1, {_MAX_FINESSE:g})")
        if not 0 <= self.peak_optical_depth < _MAX_FINESSE:
            raise ParameterError(
                f"AFC peak_optical_depth must lie in [0, {_MAX_FINESSE:g})")
        if not 0 <= self.background_od < math.inf:
            raise ParameterError("AFC background_od must be finite and >= 0")
        if not self.storage_time * 1e12 < 2 ** 62:   # the timestamps' int64 ps
            raise ParameterError(
                "AFC echo delay 1 / tooth_spacing must lie below 2**62 ps")
        if not abs(self.center_freq) < math.inf:
            raise ParameterError("AFC center_freq must be finite")
        eff = self.efficiency_override
        if eff is not None and not 0 <= eff <= 1:
            raise ParameterError("AFC efficiency_override must lie in [0, 1]")
        if self.taper not in ("flat", "gaussian"):
            raise ParameterError(f"unknown AFC taper {self.taper!r}")
        if self.taper == "gaussian" and not 0 < (self.taper_fwhm or 0) < math.inf:
            raise ParameterError("a gaussian AFC taper needs a finite taper_fwhm > 0")
        if not 0 <= self.echo_orders <= _MAX_ECHO_ORDERS:
            raise ParameterError(
                f"AFC echo_orders must lie in [0, {_MAX_ECHO_ORDERS}]")
        # the per-mode tables the event generator reads: the echo
        # efficiency, by the square-tooth law unless overridden, and the
        # spectrally averaged OD seen in each block.  They follow from the
        # fields, so they are not fields: equality and digests see the keys
        od_peak = _peak_od(self)
        if eff is None:
            eff = np.array([echo_efficiency(d, self.finesse, self.background_od)
                            for d in od_peak])
        else:
            eff = np.full(self.mode_count, eff)
        object.__setattr__(self, "per_mode_efficiency", eff)
        object.__setattr__(self, "per_mode_od_eff", od_peak / self.finesse)
        trans = np.exp(-(self.per_mode_od_eff + self.background_od))
        if not np.all(trans + eff <= 1.0 + 1e-12):
            raise ParameterError(
                "AFC transmit + echo probability exceeds 1 in a block")

    @property
    def mode_indices(self) -> np.ndarray:
        m = self.mode_count
        return np.arange(-(m // 2), (m + 1) // 2)

    @property
    def block_centers(self) -> np.ndarray:
        return self.center_freq + self.mode_indices * self.mode_spacing

    @property
    def storage_time(self) -> float:
        """Echo delay of the comb, 1 / tooth_spacing."""
        return 1.0 / self.tooth_spacing

    def block_index(self, freq) -> np.ndarray:
        """Index into the mode arrays for each frequency, -1 if outside."""
        f = np.atleast_1d(np.asarray(freq, dtype=float))
        lo, hi = self.mode_indices[0], self.mode_indices[-1]
        # clipped one mode past either end: a far frequency casts to an int
        k = np.clip(np.rint((f - self.center_freq) / self.mode_spacing),
                    lo - 1, hi + 1).astype(int)
        centers = self.center_freq + k * self.mode_spacing
        inside = (k >= lo) & (k <= hi) & \
            (np.abs(f - centers) <= self.per_mode_bandwidth / 2)
        return np.where(inside, k - lo, -1)

    def response_arrays(self, freq):
        """(transmit_prob, echo_prob) per frequency, vectorized."""
        f = np.atleast_1d(np.asarray(freq, dtype=float))
        blk = self.block_index(f)
        inside = blk >= 0
        transmit = np.full(f.shape, math.exp(-self.background_od))
        echo = np.zeros(f.shape)
        if np.any(inside):
            b = blk[inside]
            transmit[inside] = np.exp(-(self.per_mode_od_eff[b]
                                        + self.background_od))
            echo[inside] = self.per_mode_efficiency[b]
        return transmit, echo


def echo_efficiency(optical_depth: float, finesse: float,
                    background_od: float = 0.0) -> float:
    """First-order echo efficiency of a square-tooth comb.

    eta = (d/F)^2 exp(-d/F) exp(-7/F^2) exp(-d0).
    """
    d1 = optical_depth / finesse
    return d1 ** 2 * math.exp(-d1) * math.exp(-7.0 / finesse ** 2) \
        * math.exp(-background_od)


def _peak_od(plan: AfcPlan) -> np.ndarray:
    """Peak optical depth of each block under the plan's taper."""
    if plan.taper == "flat":
        return np.full(plan.mode_count, plan.peak_optical_depth)
    x = (plan.block_centers - plan.center_freq) / plan.taper_fwhm
    return plan.peak_optical_depth * np.exp(-4.0 * math.log(2.0) * x * x)


def od_spectrum(plan: AfcPlan, samples_per_block: int = 64):
    """(frequencies, optical depth) of the prepared comb, sampled on a fixed
    grid of ``samples_per_block`` points across each block."""
    half_bw = plan.per_mode_bandwidth / 2
    offs = np.linspace(-half_bw, half_bw, samples_per_block)
    tooth_half = plan.tooth_spacing / (2.0 * plan.finesse)
    dist = np.abs(offs - np.rint(offs / plan.tooth_spacing) * plan.tooth_spacing)
    in_tooth = dist <= tooth_half
    freqs = (plan.block_centers[:, None] + offs[None, :]).ravel()
    od = (_peak_od(plan)[:, None] * in_tooth[None, :] + plan.background_od).ravel()
    return freqs, od


@dataclass(frozen=True)
class FilterSpec:
    """Spectral filter: Airy etalon, top-hat VBG, or pass-through."""

    kind: str = "none"  # "etalon" | "vbg" | "none"
    bandwidth: float = 0.0
    fsr: float = 0.0
    peak_transmittance: float = 1.0
    center: float = 0.0
    stopband_transmittance: float = 0.0  # vbg floor outside the band

    def __post_init__(self):
        if self.kind not in ("etalon", "vbg", "none"):
            raise ParameterError(f"unknown filter kind {self.kind!r}")
        for name in ("center", "bandwidth", "fsr"):
            if not -math.inf < getattr(self, name) < math.inf:  # also rejects NaN
                raise ParameterError(f"filter {name} must be finite")
        for name in ("peak_transmittance", "stopband_transmittance"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"filter {name} must lie in [0, 1]")
        if self.kind == "etalon" and not (
                0 < self.bandwidth < self.fsr < self.bandwidth * _MAX_FINESSE):
            raise ParameterError(
                f"etalon needs 0 < bandwidth < fsr < {_MAX_FINESSE:g} bandwidth")
        if self.kind == "vbg" and self.bandwidth <= 0:
            raise ParameterError("vbg needs bandwidth > 0")


def filter_transmission(flt: FilterSpec, photon_freq) -> np.ndarray | float:
    """Transmission in [0, 1] at the given frequency (array ok)."""
    f = np.asarray(photon_freq, dtype=float)
    with np.errstate(over="ignore"):   # a detuning past the float range is inf
        det = f - flt.center
    if flt.kind == "none":
        out = np.ones_like(f)
    elif flt.kind == "vbg":
        out = np.where(np.abs(det) <= flt.bandwidth / 2,
                       flt.peak_transmittance, flt.stopband_transmittance)
    else:  # etalon Airy function, finesse from fsr/bandwidth
        fin = flt.fsr / flt.bandwidth
        with np.errstate(over="ignore"):
            phase = math.pi * det / flt.fsr
        # past 2**53 rad a phase is a float artefact already; clipped, an
        # infinite one reads a point of the comb like any other
        out = flt.peak_transmittance / (1.0 + (2.0 * fin / math.pi) ** 2
                                        * np.sin(np.clip(phase, -1e300, 1e300)) ** 2)
    return out if out.ndim else float(out)


def chain_transmission(filters, photon_freq):
    """Product of filter transmissions for a list of filters."""
    f = np.asarray(photon_freq, dtype=float)
    out = np.ones_like(f, dtype=float)
    for flt in filters:
        out = out * filter_transmission(flt, f)
    return out
