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
_MAX_SCAN_MODES = 2_000_000


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
        if self.linewidth_signal >= self.fsr_signal:
            raise ParameterError("signal linewidth must be smaller than signal FSR")
        if self.linewidth_idler >= self.fsr_idler:
            raise ParameterError("idler linewidth must be smaller than idler FSR")

    @property
    def pump_freq(self) -> float:
        return self.signal_center + self.idler_center

    @property
    def joint_linewidth(self) -> float:
        """Half the summed linewidths; the double-resonance acceptance."""
        return 0.5 * (self.linewidth_signal + self.linewidth_idler)


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
        x = (np.asarray(freq, dtype=float) - self.envelope_center) / self.envelope_fwhm
        if self.envelope_shape == "gaussian":
            return np.exp(-4.0 * math.log(2.0) * x * x)
        # sinc^2 with the requested FWHM: sinc(u)^2 = 1/2 at u = 0.442946...
        u = x * (2.0 * 0.4429468945)
        return np.sinc(u) ** 2

    def support_halfwidth(self) -> float:
        """Frequency offset beyond which the envelope stays below 1e-3."""
        if self.envelope_shape == "gaussian":
            return self.envelope_fwhm * math.sqrt(
                math.log(1.0 / _ENVELOPE_FLOOR) / (4.0 * math.log(2.0)))
        # sinc^2 lobes decay as 1/(pi u)^2
        u = 1.0 / (math.pi * math.sqrt(_ENVELOPE_FLOOR))
        return u * self.envelope_fwhm / (2.0 * 0.4429468945)


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


@dataclass(frozen=True, eq=False)
class ClusterSpectrum:
    """Double-resonance clusters: the sorted comb indices of the doubly
    resonant signal modes inside the envelope, and the Vernier spacing of
    the clusters they form."""

    index: np.ndarray
    cluster_spacing: float


def _mode_mismatch(cavity: CavityParams, k: np.ndarray) -> np.ndarray:
    """Detuning of the energy-conserving idler of signal mode k from the
    nearest idler comb line."""
    dfsr = cavity.fsr_signal - cavity.fsr_idler
    r = np.mod(np.asarray(k, dtype=float) * dfsr, cavity.fsr_idler)
    return np.minimum(r, cavity.fsr_idler - r)


def cluster_spectrum(cavity: CavityParams, pm: PhaseMatching) -> ClusterSpectrum:
    """Locate the double-resonance clusters inside the phase-matching envelope.

    A signal mode k is doubly resonant when its idler mismatch is below the
    joint linewidth (lw_s + lw_i)/2.  Contiguous resonant runs form
    clusters; the Vernier coincidence period gives their spacing.
    """
    if cavity.fsr_signal == cavity.fsr_idler:
        raise DegenerateClusterError(
            "equal FSRs: every mode pair is doubly resonant, no cluster structure")
    spacing = (cavity.fsr_signal * cavity.fsr_idler
               / abs(cavity.fsr_signal - cavity.fsr_idler))

    half_span = max(pm.support_halfwidth(), 1.5 * spacing)
    k_max = int(half_span / cavity.fsr_signal)
    if 2 * k_max + 1 > _MAX_SCAN_MODES:
        k_max = _MAX_SCAN_MODES // 2
    k = np.arange(-k_max, k_max + 1)
    resonant = _mode_mismatch(cavity, k) <= cavity.joint_linewidth

    # envelope restriction
    freqs = cavity.signal_center + k * cavity.fsr_signal
    resonant &= pm.amplitude(freqs) >= _ENVELOPE_FLOOR

    return ClusterSpectrum(index=k[resonant], cluster_spacing=spacing)


def mode_weights(cluster: ClusterSpectrum, pm: PhaseMatching,
                 cavity: CavityParams) -> BiphotonSpectrum:
    """Assign phase-matching weights to the modes of all clusters.

    s_n = envelope amplitude at the mode's signal frequency times a
    Lorentzian double-resonance overlap factor; the result is normalized so
    sum(s_n^2) = 1.
    """
    k = cluster.index
    fs = cavity.signal_center + k * cavity.fsr_signal
    mism = _mode_mismatch(cavity, k)
    overlap = 1.0 / (1.0 + (mism / cavity.joint_linewidth) ** 2)
    s = pm.amplitude(fs) * overlap
    # Python-float squares (libm pow), summed exactly: pow(x, 2) and x * x
    # differ in the last bit for some weights
    total = math.fsum(s.astype(object) ** 2)
    if total <= 0.0:
        raise EmptySpectrumError("no cluster mode overlaps the phase-matching envelope")
    return BiphotonSpectrum(k, fs, cavity.pump_freq - fs, s * (1.0 / math.sqrt(total)))


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


def g2_envelope(cavity: CavityParams, tau) -> np.ndarray | float:
    """Two-sided exponential envelope of the cross-correlation."""
    t = np.asarray(tau, dtype=float)
    out = np.where(t >= 0,
                   np.exp(-TWO_PI * cavity.linewidth_signal * t),
                   np.exp(TWO_PI * cavity.linewidth_idler * t))
    return out if out.ndim else float(out)


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
