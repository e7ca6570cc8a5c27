from dataclasses import replace

import numpy as np
import pytest

from pairmem import CavityParams, PhaseMatching, comb_spectrum, make_rng


@pytest.fixture
def cavity():
    return CavityParams(
        fsr_signal=123.0e6, fsr_idler=122.92435e6,
        linewidth_signal=2.28e6, linewidth_idler=1.52e6,
        signal_center=494.7e12, idler_center=193.4e12)


@pytest.fixture
def envelope():
    return PhaseMatching(envelope_center=494.7e12, envelope_fwhm=150e9)


@pytest.fixture
def small_spectrum(cavity):
    # 5 flat-weight modes: small enough for brute-force cross-checks
    return comb_spectrum(cavity, 5)


def brute_force_g2(spec, cavity, tau):
    """Direct double sum over mode pairs, the slow oracle for analytic_g2."""
    out = np.zeros_like(np.atleast_1d(np.asarray(tau, dtype=float)))
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    for n, t in enumerate(tau_arr):
        if t >= 0:
            fsr, lw = cavity.fsr_signal, cavity.linewidth_signal
        else:
            fsr, lw = cavity.fsr_idler, cavity.linewidth_idler
        omega = 2.0 * np.pi * fsr
        total = 0.0
        for ia, wa in zip(spec.index, spec.weights):
            for ib, wb in zip(spec.index, spec.weights):
                total += wa * wb * np.cos((ia - ib) * omega * t)
        out[n] = np.exp(-2.0 * np.pi * lw * abs(t)) * total
    return out


def shuffle_channel(events, channel, seed, gating):
    """Uncorrelated control: ``events`` with one channel's timestamps
    re-drawn uniformly over the measurement phases of ``gating`` (None:
    the whole run)."""
    t = make_rng(seed).random(len(getattr(events, f"{channel}_ps")))
    if gating is None:
        t = t * events.duration_s
    else:
        t = gating.live_to_abs(t * gating.live_total(events.duration_s))
    new_ps = np.sort(np.rint(t * 1e12).astype(np.uint64))
    return replace(events, **{f"{channel}_ps": new_ps})
