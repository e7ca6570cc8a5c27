"""Doubly resonant cavity model: mode comb, cluster structure, and the
analytic two-photon cross-correlation curve.

The source emits signal/idler pairs only at cavity resonances.  Because the
two wavelengths see different free spectral ranges, double resonance recurs
periodically (Vernier effect) and the joint spectrum forms clusters.  The
time correlation of the pairs is a comb under a two-sided exponential
envelope; ``analytic_g2`` evaluates that closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateClusterError, EmptySpectrumError, ParameterError

TWO_PI = 2.0 * math.pi

# Relative envelope level treated as the edge of the phase-matching support
# when scanning for clusters.
_ENVELOPE_FLOOR = 1e-3
# the most signal modes a spectrum takes: a cluster scan, a comb spectrum,
# an AFC plan, and each point of an afc_modes sweep
MAX_MODES = 2_000_000
# sinc(u)^2 = 1/2 at u = 0.442946...: the sinc^2 envelope's half-power point
_SINC2_HALF_POWER = 0.4429468945
# numpy's largest exponential draw, ziggurat_exp_r - log(2**-53) = 44.43: a
# pair delay reaches at most this many decay times 1/(2 pi linewidth)
_DELAY_TAIL_DECAYS = 45


@dataclass(frozen=True)
class CavityParams:
    """Geometry of the doubly resonant bow-tie cavity.

    All frequencies in Hz.  Linewidths are FWHM of the Lorentzian cavity
    resonances and must resolve the comb (linewidth < FSR).
    """

    fsr_signal: float
    fsr_idler: float
    linewidth_signal: float
    linewidth_idler: float
    signal_center: float
    idler_center: float

    def __post_init__(self):
        for name in ("fsr_signal", "fsr_idler", "linewidth_signal",
                     "linewidth_idler", "signal_center", "idler_center"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ParameterError(f"{name} must be strictly positive, got {v}")
        for side in ("signal", "idler"):
            lw, fsr = getattr(self, f"linewidth_{side}"), getattr(self, f"fsr_{side}")
            if lw >= fsr:
                raise ParameterError(f"{side} linewidth must be smaller than {side} FSR")
            # the delay sampler draws a geometric number of periods, of weight
            # 1 / (1 - exp(-2 pi lw / fsr)), and rounds the delay to int64 ps
            if not (_DELAY_TAIL_DECAYS / (TWO_PI * lw) * 1e12 < 2 ** 62
                    and 1.0 - math.exp(-TWO_PI * lw * (1.0 / fsr)) > 0.0):
                raise ParameterError(
                    f"{side} linewidth {lw!r} Hz at FSR {fsr!r} Hz: its pair-delay "
                    "tail cannot be drawn in int64 ps")

    @property
    def pump_freq(self) -> float:
        return self.signal_center + self.idler_center

    @property
    def joint_linewidth(self) -> float:
        """Half the summed linewidths; the double-resonance acceptance."""
        return 0.5 * (self.linewidth_signal + self.linewidth_idler)

    @property
    def cluster_spacing(self) -> float:
        """Vernier period of double resonance, the spacing of the
        clusters; infinite at equal FSRs."""
        dfsr = abs(self.fsr_signal - self.fsr_idler)
        return self.fsr_signal * self.fsr_idler / dfsr if dfsr else math.inf


@dataclass(frozen=True)
class PhaseMatching:
    """Broadband spectral envelope of the crystal, before cavity filtering."""

    envelope_center: float
    envelope_fwhm: float
    envelope_shape: str                    # "sinc_squared" | "gaussian"

    def __post_init__(self):
        if not (self.envelope_fwhm > 0 and math.isfinite(self.envelope_fwhm)):
            raise ParameterError("envelope_fwhm must be > 0")
        if self.envelope_shape not in ("sinc_squared", "gaussian"):
            raise ParameterError(f"unknown envelope shape {self.envelope_shape!r}")

    def amplitude(self, freq):
        """Envelope value in [0, 1] at the given signal frequency (array ok)."""
        with np.errstate(over="ignore"):   # far off a narrow envelope x is inf
            x = (np.asarray(freq, dtype=float) - self.envelope_center) \
                / self.envelope_fwhm
            if self.envelope_shape == "gaussian":
                return np.exp(-4.0 * math.log(2.0) * x * x)
        # clipped: sinc(inf) is NaN, while sinc(1e300) ** 2 is already 0
        return np.sinc(np.clip(x * (2.0 * _SINC2_HALF_POWER), -1e300, 1e300)) ** 2

    def support_halfwidth(self) -> float:
        """Frequency offset beyond which the envelope stays below 1e-3."""
        if self.envelope_shape == "gaussian":
            return self.envelope_fwhm * math.sqrt(
                math.log(1.0 / _ENVELOPE_FLOOR) / (4.0 * math.log(2.0)))
        # sinc^2 lobes decay as 1/(pi u)^2
        u = 1.0 / (math.pi * math.sqrt(_ENVELOPE_FLOOR))
        return u * self.envelope_fwhm / (2.0 * _SINC2_HALF_POWER)


@dataclass(frozen=True, eq=False)
class BiphotonSpectrum:
    """Doubly resonant mode lines as parallel arrays sorted by mode index:
    comb index, signal and idler frequency, and weight s_n, normalized so
    sum(s_n^2) = 1."""

    index: np.ndarray
    signal_freqs: np.ndarray
    idler_freqs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if len({len(self.index), len(self.signal_freqs), len(self.idler_freqs),
                len(self.weights)}) != 1:
            raise ParameterError("spectrum arrays must have equal lengths")
        if len(self.index) < 1:
            raise EmptySpectrumError("spectrum must contain at least one mode")
        if np.any(self.weights < 0) or not np.any(self.weights > 0):
            raise ParameterError("weights must be nonnegative with at least one > 0")

    @property
    def N(self) -> int:
        return len(self.index)


def _mode_mismatch(cavity: CavityParams, k: np.ndarray) -> np.ndarray:
    """Detuning of the energy-conserving idler of signal mode k from the
    nearest idler comb line."""
    dfsr = cavity.fsr_signal - cavity.fsr_idler
    r = np.mod(np.asarray(k, dtype=float) * dfsr, cavity.fsr_idler)
    return np.minimum(r, cavity.fsr_idler - r)


def cluster_spectrum(cavity: CavityParams, pm: PhaseMatching) -> np.ndarray:
    """Sorted comb indices of the doubly resonant signal modes inside the
    phase-matching envelope.

    A signal mode k is doubly resonant when its idler mismatch is below the
    joint linewidth (lw_s + lw_i)/2.  Contiguous resonant runs form
    clusters, ``cavity.cluster_spacing`` apart.
    """
    if cavity.fsr_signal == cavity.fsr_idler:
        raise DegenerateClusterError(
            "equal FSRs: every mode pair is doubly resonant, no cluster structure")

    # the envelope's support, about the signal mode nearest its center
    support = pm.support_halfwidth()   # may be infinite: the min fails the check
    half = math.ceil(min(support / cavity.fsr_signal, MAX_MODES)) + 1
    if 2 * half + 1 > MAX_MODES:
        raise ParameterError(
            f"the phase-matching support of +-{support:.3g} Hz spans more than "
            f"the {MAX_MODES} signal modes a scan takes")
    center = (pm.envelope_center - cavity.signal_center) / cavity.fsr_signal
    if not abs(center) < 2 ** 53:   # also rejects NaN
        raise EmptySpectrumError("the phase-matching envelope lies off the signal comb")
    k = np.arange(-half, half + 1) + round(center)
    resonant = _mode_mismatch(cavity, k) <= cavity.joint_linewidth

    # envelope restriction
    freqs = cavity.signal_center + k * cavity.fsr_signal
    resonant &= pm.amplitude(freqs) >= _ENVELOPE_FLOOR

    return k[resonant]


def mode_weights(index: np.ndarray, pm: PhaseMatching,
                 cavity: CavityParams) -> BiphotonSpectrum:
    """Assign phase-matching weights to the cluster modes of comb
    indices ``index`` (as ``cluster_spectrum`` returns them).

    s_n = envelope amplitude at the mode's signal frequency times a
    Lorentzian double-resonance overlap factor; the result is normalized so
    sum(s_n^2) = 1.
    """
    fs = cavity.signal_center + index * cavity.fsr_signal
    mism = _mode_mismatch(cavity, index)
    overlap = 1.0 / (1.0 + (mism / cavity.joint_linewidth) ** 2)
    s = pm.amplitude(fs) * overlap
    # Python-float squares (libm pow), summed exactly: pow(x, 2) and x * x
    # differ in the last bit for some weights
    total = math.fsum(s.astype(object) ** 2)
    if total <= 0.0:
        raise EmptySpectrumError("no cluster mode overlaps the phase-matching envelope")
    return BiphotonSpectrum(index, fs, cavity.pump_freq - fs, s * (1.0 / math.sqrt(total)))


def comb_spectrum(cavity: CavityParams, n_modes: int,
                  pm: PhaseMatching | None = None) -> BiphotonSpectrum:
    """Direct comb of n_modes lines centered on signal_center.

    Weights follow the phase-matching envelope when one is given, flat
    otherwise; normalized to sum(s_n^2) = 1.
    """
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    k = np.arange(n_modes) - n_modes // 2
    fs = cavity.signal_center + k * cavity.fsr_signal
    s = pm.amplitude(fs) if pm is not None else np.ones(n_modes)
    norm = 1.0 / math.sqrt(float(np.sum(s ** 2)))
    return BiphotonSpectrum(k, fs, cavity.pump_freq - fs, s * norm)


def analytic_g2(spec: BiphotonSpectrum, cavity: CavityParams, tau_grid) -> np.ndarray:
    """Unnormalized G2(tau): exponential envelope times the mode-beat comb.

    Positive delays carry the signal linewidth/FSR, negative delays the
    idler ones; both branches agree at tau = 0.
    """
    tau = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if not np.all(np.isfinite(tau)):
        raise ParameterError("tau grid must be finite")
    # indices relative to the lowest: clusters leave gaps in the comb, and
    # the beat-note sums run over the true index differences
    idx, w = spec.index - spec.index.min(), spec.weights
    out = np.empty_like(tau)
    for mask, fsr, lw in (
            (tau >= 0, cavity.fsr_signal, cavity.linewidth_signal),
            (tau < 0, cavity.fsr_idler, cavity.linewidth_idler)):
        if not np.any(mask):
            continue
        t = tau[mask]
        # sum_j s_j^2 + sum_{j<k} 2 s_j s_k cos((k-j) Omega tau)
        # == |sum_j s_j exp(i j Omega tau)|^2
        amp = w @ np.exp(1j * TWO_PI * fsr * np.outer(idx, t))
        out[mask] = np.exp(-TWO_PI * lw * np.abs(t)) * np.abs(amp) ** 2
    return out
