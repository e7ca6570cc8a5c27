import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from pairmem import CavityParams, comb_spectrum, default_scenario, make_rng
from pairmem.errors import ParameterError


@pytest.fixture
def cavity():
    return CavityParams(
        fsr_signal=123.0e6, fsr_idler=122.92435e6,
        linewidth_signal=2.28e6, linewidth_idler=1.52e6,
        signal_center=494.7e12, idler_center=193.4e12)


@functools.cache
def _default_scenario():
    return default_scenario()


def default_record(name, **changes):
    """Record ``name`` of the default experiment (``"afc_plan"``,
    ``"gating"``, ``"phase_matching"``, ...) with ``changes``: the scenario
    schema holds the only defaults of these records."""
    return replace(getattr(_default_scenario(), name), **changes)


@pytest.fixture
def envelope():
    return default_record("phase_matching")


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
    duration_s = events.duration_ps * 1e-12
    if gating is None:
        t = t * duration_s
    else:
        t = gating.live_to_abs(t * gating.live_total(duration_s))
    new_ps = np.sort(np.rint(t * 1e12).astype(np.uint64))
    return replace(events, **{f"{channel}_ps": new_ps})


def sequence_phase(t, gating):
    """Phase of the gating cycle at time t: measuring, break, or locking.
    ``t`` is in seconds, or in picoseconds when it is an int, where the
    phase arithmetic is exact."""
    if t < 0:
        raise ParameterError("t must be >= 0")
    if isinstance(t, int):
        cycle, m, brk = gating.cycle_ps, gating.measure_ps, \
            round(gating.break_time * 1e12)
        r = t % cycle
    else:
        cycle, m, brk = gating.cycle, gating.measure_len, gating.break_time
        r = math.fmod(t, cycle)
    if r < m:
        return "measuring"
    if r < m + brk:
        return "break"
    if r < cycle - brk:
        return "locking"
    return "break"
