"""Frequency-multiplexed AFC memory and the downstream spectral filters.

The memory absorbs photons inside periodic comb "blocks" (one block per
frequency mode) and re-emits them as an echo after 1/(tooth spacing).
Filters are a Lorentzian-Airy etalon and a top-hat volume Bragg grating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class AfcPlan:
    """Commanded layout of the absorption comb.

    ``mode_count`` blocks spaced ``mode_spacing`` apart, each block a tooth
    comb of spacing ``tooth_spacing`` across ``per_mode_bandwidth``.  Modes
    are indexed -floor(M/2) .. ceil(M/2)-1.
    """

    mode_count: int = 83
    mode_spacing: float = 123e6
    tooth_spacing: float = 920e3
    per_mode_bandwidth: float = 4e6
    finesse: float = 2.0
    peak_optical_depth: float = 2.0
    center_freq: float = 494.7e12  # ~606 nm

    def __post_init__(self):
        if self.mode_count < 1:
            raise ParameterError("mode_count must be >= 1")
        if not (0 < self.tooth_spacing < self.per_mode_bandwidth < self.mode_spacing):
            raise ParameterError(
                "need tooth_spacing < per_mode_bandwidth < mode_spacing")
        if self.finesse <= 1.0:
            raise ParameterError("AFC finesse must exceed 1")
        if self.peak_optical_depth < 0:
            raise ParameterError("peak optical depth must be >= 0")

    @property
    def mode_indices(self) -> np.ndarray:
        m = self.mode_count
        return np.arange(-(m // 2), (m + 1) // 2)

    @property
    def block_centers(self) -> np.ndarray:
        return self.center_freq + self.mode_indices * self.mode_spacing


def echo_efficiency(optical_depth: float, finesse: float,
                    background_od: float = 0.0) -> float:
    """First-order echo efficiency of a square-tooth comb.

    eta = (d/F)^2 exp(-d/F) exp(-7/F^2) exp(-d0).
    """
    d1 = optical_depth / finesse
    return d1 ** 2 * math.exp(-d1) * math.exp(-7.0 / finesse ** 2) \
        * math.exp(-background_od)


@dataclass
class AfcProfile:
    """Prepared absorption comb plus its derived storage response."""

    plan: AfcPlan
    sample_freqs: np.ndarray       # sampled absorption spectrum
    sample_od: np.ndarray
    storage_time: float            # = 1 / tooth_spacing
    per_mode_efficiency: np.ndarray
    per_mode_od_eff: np.ndarray    # spectrally averaged OD seen in each block
    background_od: float = 0.0
    echo_orders: int = 1

    def __post_init__(self):
        if np.any(self.sample_od < 0):
            raise ParameterError("optical depth must be nonnegative")
        if abs(self.storage_time * self.plan.tooth_spacing - 1.0) > 1e-9:
            raise ParameterError("storage_time must equal 1/tooth_spacing")
        eff = np.asarray(self.per_mode_efficiency, dtype=float)
        if np.any((eff < 0) | (eff > 1)):
            raise ParameterError("per-mode efficiencies must lie in [0, 1]")
        trans = np.exp(-(self.per_mode_od_eff + self.background_od))
        if np.any(trans + eff > 1.0 + 1e-12):
            raise ParameterError("transmit + echo probability exceeds 1 in a block")

    def block_index(self, freq) -> np.ndarray:
        """Index into the mode arrays for each frequency, -1 if outside."""
        f = np.atleast_1d(np.asarray(freq, dtype=float))
        plan = self.plan
        k = np.rint((f - plan.center_freq) / plan.mode_spacing).astype(int)
        lo, hi = plan.mode_indices[0], plan.mode_indices[-1]
        centers = plan.center_freq + k * plan.mode_spacing
        inside = (k >= lo) & (k <= hi) & \
            (np.abs(f - centers) <= plan.per_mode_bandwidth / 2)
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
            transmit[inside] = np.exp(-(self.per_mode_od_eff[b] + self.background_od))
            echo[inside] = self.per_mode_efficiency[b]
        return transmit, echo


def design_afc(plan: AfcPlan, *, efficiency_override=None, taper: str = "flat",
               taper_fwhm_hz: float | None = None, background_od: float = 0.0,
               samples_per_block: int = 64, echo_orders: int = 1) -> AfcProfile:
    """Prepare the comb described by ``plan``.

    Per-mode efficiency comes from the square-tooth echo-efficiency law
    unless ``efficiency_override`` (scalar or per-mode array) is given.
    ``taper='gaussian'`` rolls the preparation envelope off with the stated
    FWHM across the mode grid; default is flat.
    """
    if background_od < 0:
        raise ParameterError("background optical depth must be >= 0")
    m = plan.mode_count
    centers = plan.block_centers

    if taper == "flat":
        taper_w = np.ones(m)
    elif taper == "gaussian":
        if not taper_fwhm_hz or taper_fwhm_hz <= 0:
            raise ParameterError("gaussian taper needs taper_fwhm_hz > 0")
        x = (centers - plan.center_freq) / taper_fwhm_hz
        taper_w = np.exp(-4.0 * math.log(2.0) * x * x)
    else:
        raise ParameterError(f"unknown taper {taper!r}")

    od_peak = plan.peak_optical_depth * taper_w
    od_eff = od_peak / plan.finesse  # spectral average over square teeth
    if efficiency_override is not None:
        eff = np.broadcast_to(np.asarray(efficiency_override, dtype=float), (m,)).copy()
    else:
        eff = np.array([echo_efficiency(d, plan.finesse, background_od)
                        for d in od_peak])

    # sampled spectrum: fixed samples_per_block grid across each block
    half_bw = plan.per_mode_bandwidth / 2
    offs = np.linspace(-half_bw, half_bw, samples_per_block)
    tooth_half = plan.tooth_spacing / (2.0 * plan.finesse)
    dist = np.abs(offs - np.rint(offs / plan.tooth_spacing) * plan.tooth_spacing)
    in_tooth = dist <= tooth_half
    freqs = (centers[:, None] + offs[None, :]).ravel()
    od = (od_peak[:, None] * in_tooth[None, :] + background_od).ravel()

    return AfcProfile(
        plan=plan,
        sample_freqs=freqs,
        sample_od=od,
        storage_time=1.0 / plan.tooth_spacing,
        per_mode_efficiency=eff,
        per_mode_od_eff=od_eff,
        background_od=background_od,
        echo_orders=echo_orders,
    )


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
        if not (0.0 <= self.peak_transmittance <= 1.0):
            raise ParameterError("peak transmittance must lie in [0, 1]")
        if self.kind == "etalon" and not (0 < self.bandwidth < self.fsr):
            raise ParameterError("etalon needs 0 < bandwidth < fsr")
        if self.kind == "vbg" and self.bandwidth <= 0:
            raise ParameterError("vbg needs bandwidth > 0")


def filter_transmission(flt: FilterSpec, photon_freq) -> np.ndarray | float:
    """Transmission in [0, 1] at the given frequency (array ok)."""
    f = np.asarray(photon_freq, dtype=float)
    det = f - flt.center
    if flt.kind == "none":
        out = np.ones_like(f)
    elif flt.kind == "vbg":
        out = np.where(np.abs(det) <= flt.bandwidth / 2,
                       flt.peak_transmittance, flt.stopband_transmittance)
    else:  # etalon Airy function, finesse from fsr/bandwidth
        fin = flt.fsr / flt.bandwidth
        out = flt.peak_transmittance / (
            1.0 + (2.0 * fin / math.pi) ** 2 * np.sin(math.pi * det / flt.fsr) ** 2)
    return out if out.ndim else float(out)


def chain_transmission(filters, photon_freq):
    """Product of filter transmissions for a list of filters."""
    f = np.asarray(photon_freq, dtype=float)
    out = np.ones_like(f, dtype=float)
    for flt in filters:
        out = out * filter_transmission(flt, f)
    return out
