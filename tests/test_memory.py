import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairmem as pm
from pairmem.memory import chain_transmission, echo_efficiency, od_spectrum
from pairmem.errors import ParameterError


# ---------------------------------------------------------------------------
# AFC plan validation and geometry

def test_plan_defaults_geometry():
    plan = pm.AfcPlan()
    assert plan.mode_count == 83
    assert len(plan.block_centers) == 83
    assert np.allclose(np.diff(plan.block_centers), plan.mode_spacing)
    # mode grid straddles the center frequency
    assert plan.mode_indices[0] == -41 and plan.mode_indices[-1] == 41
    assert plan.block_centers[41] == pytest.approx(plan.center_freq)


def test_plan_rejects_bad_layout():
    with pytest.raises(ParameterError):
        pm.AfcPlan(tooth_spacing=5e6, per_mode_bandwidth=4e6)
    with pytest.raises(ParameterError):
        pm.AfcPlan(per_mode_bandwidth=200e6, mode_spacing=123e6)
    with pytest.raises(ParameterError):
        pm.AfcPlan(finesse=1.0)
    with pytest.raises(ParameterError):
        pm.AfcPlan(mode_count=0)


@pytest.mark.parametrize("kw", [
    {"background_od": math.nan}, {"background_od": -0.1},
    {"efficiency_override": math.nan}, {"efficiency_override": 1.5},
    {"taper": "cosine"}, {"taper": "gaussian", "taper_fwhm": math.inf},
    {"taper": "gaussian", "taper_fwhm": 0.0}, {"echo_orders": -1},
    # transmit exp(-d/F) = 0.37 plus echo 0.9 exceeds 1 in every block
    {"efficiency_override": 0.9}])
def test_plan_rejects_bad_design_values(kw):
    # every design value is checked when the plan is built
    with pytest.raises(ParameterError):
        pm.AfcPlan(**kw)


# ---------------------------------------------------------------------------
# echo efficiency law

def test_echo_efficiency_closed_form():
    d, F = 2.0, 2.0
    expect = (d / F) ** 2 * math.exp(-d / F) * math.exp(-7.0 / F ** 2)
    assert echo_efficiency(d, F) == pytest.approx(expect)
    # background absorption only attenuates
    assert echo_efficiency(d, F, background_od=0.5) == pytest.approx(
        expect * math.exp(-0.5))


def test_echo_efficiency_maximized_near_d_two_f():
    # for fixed finesse, (d/F)^2 exp(-d/F) peaks at d = 2F
    F = 3.0
    ods = np.linspace(0.5, 20.0, 500)
    effs = [echo_efficiency(d, F) for d in ods]
    assert ods[int(np.argmax(effs))] == pytest.approx(2 * F, abs=0.05)


@settings(max_examples=100, deadline=None)
@given(d=st.floats(min_value=0.0, max_value=50.0),
       F=st.floats(min_value=1.01, max_value=20.0),
       d0=st.floats(min_value=0.0, max_value=5.0))
def test_echo_efficiency_is_probability(d, F, d0):
    eta = echo_efficiency(d, F, d0)
    assert 0.0 <= eta <= 1.0
    # no pile-up: transmit + echo never exceeds one
    assert math.exp(-d / F - d0) + eta <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# per-mode tables / storage response

def test_storage_time_is_inverse_tooth_spacing():
    plan = pm.AfcPlan()
    assert plan.storage_time == pytest.approx(1.0 / 920e3)
    assert plan.storage_time == pytest.approx(1.0870e-6, rel=1e-4)


def test_design_afc_flat_taper_uniform():
    plan = pm.AfcPlan(mode_count=11)
    assert np.allclose(plan.per_mode_efficiency, plan.per_mode_efficiency[0])
    assert np.allclose(plan.per_mode_od_eff,
                       plan.peak_optical_depth / plan.finesse)


def test_design_afc_gaussian_taper_rolls_off():
    plan = pm.AfcPlan(mode_count=21, taper="gaussian", taper_fwhm=10 * 123e6)
    eff = plan.per_mode_efficiency
    assert eff[10] == max(eff)
    assert eff[0] < eff[10] and eff[-1] < eff[10]
    with pytest.raises(ParameterError):
        pm.AfcPlan(mode_count=21, taper="gaussian")  # fwhm required


def test_design_afc_efficiency_override():
    plan = pm.AfcPlan(mode_count=5, efficiency_override=0.25)
    assert plan.per_mode_efficiency.tolist() == [0.25] * 5


def test_sampled_spectrum_duty_cycle():
    # tooth period divides the block bandwidth evenly, so edge clipping
    # cancels and the on-fraction is exactly 1/finesse
    plan = pm.AfcPlan(mode_count=3, finesse=2.0, tooth_spacing=1e6,
                      per_mode_bandwidth=4e6)
    _, od = od_spectrum(plan, samples_per_block=4096)
    frac = np.count_nonzero(od > 0) / len(od)
    assert frac == pytest.approx(1.0 / plan.finesse, abs=0.02)


def test_block_index_and_response():
    plan = pm.AfcPlan(mode_count=5)
    centers = plan.block_centers
    idx = plan.block_index(centers)
    assert idx.tolist() == [0, 1, 2, 3, 4]
    # between blocks: outside
    gap = centers[0] + plan.mode_spacing / 2
    assert plan.block_index(gap)[0] == -1
    t_out, e_out = plan.response_arrays(gap)
    assert t_out[0] == pytest.approx(1.0) and e_out[0] == 0.0
    t_in, e_in = plan.response_arrays(centers[2])
    assert e_in[0] == pytest.approx(
        echo_efficiency(plan.peak_optical_depth, plan.finesse))
    assert t_in[0] == pytest.approx(
        math.exp(-plan.peak_optical_depth / plan.finesse))


@settings(max_examples=50, deadline=None)
@given(off=st.floats(min_value=-80e6, max_value=80e6))
def test_response_probabilities_sum_below_one(off):
    plan = pm.AfcPlan(mode_count=7, background_od=0.3)
    f = plan.center_freq + off
    t, e = plan.response_arrays(f)
    assert 0.0 <= t[0] <= 1.0 and 0.0 <= e[0] <= 1.0
    assert t[0] + e[0] <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# filters: pointwise oracles

def test_etalon_airy_pointwise():
    flt = pm.FilterSpec(kind="etalon", bandwidth=5.58e9, fsr=166e9,
                        peak_transmittance=0.5, center=494.7e12)
    # oracle: Airy formula evaluated by hand
    fin = 166e9 / 5.58e9
    for det in (0.0, 1e9, 40e9, 83e9, 166e9):
        expect = 0.5 / (1 + (2 * fin / math.pi) ** 2
                        * math.sin(math.pi * det / 166e9) ** 2)
        got = pm.filter_transmission(flt, 494.7e12 + det)
        assert got == pytest.approx(expect, rel=1e-12)
    # periodic: full transmission again one FSR away
    assert pm.filter_transmission(flt, 494.7e12 + 166e9) == pytest.approx(0.5)
    # half transmission at half the bandwidth off peak (FWHM definition)
    half = pm.filter_transmission(flt, 494.7e12 + 5.58e9 / 2)
    assert half == pytest.approx(0.25, rel=5e-3)


def test_vbg_top_hat():
    flt = pm.FilterSpec(kind="vbg", bandwidth=10e9, peak_transmittance=0.92,
                        center=193.4e12, stopband_transmittance=0.01)
    assert pm.filter_transmission(flt, 193.4e12) == pytest.approx(0.92)
    assert pm.filter_transmission(flt, 193.4e12 + 4.999e9) == pytest.approx(0.92)
    assert pm.filter_transmission(flt, 193.4e12 + 5.001e9) == pytest.approx(0.01)


def test_none_filter_passes_everything():
    flt = pm.FilterSpec()
    freqs = np.linspace(1e14, 1e15, 7)
    assert np.allclose(pm.filter_transmission(flt, freqs), 1.0)


def test_filter_validation():
    with pytest.raises(ParameterError):
        pm.FilterSpec(kind="prism")
    with pytest.raises(ParameterError):
        pm.FilterSpec(kind="etalon", bandwidth=10e9, fsr=5e9)
    with pytest.raises(ParameterError):
        pm.FilterSpec(kind="vbg", bandwidth=0.0)
    with pytest.raises(ParameterError):
        pm.FilterSpec(peak_transmittance=1.5)


def test_chain_transmission_is_product():
    etalon = pm.FilterSpec(kind="etalon", bandwidth=5.58e9, fsr=166e9,
                           peak_transmittance=0.5, center=494.7e12)
    vbg = pm.FilterSpec(kind="vbg", bandwidth=10e9, peak_transmittance=0.92,
                        center=494.7e12)
    f = np.linspace(494.69e12, 494.71e12, 101)
    combo = chain_transmission([etalon, vbg], f)
    expect = (pm.filter_transmission(etalon, f)
              * pm.filter_transmission(vbg, f))
    assert np.allclose(combo, expect)
    assert np.all((combo >= 0) & (combo <= 1))


@settings(max_examples=100, deadline=None)
@given(det=st.floats(min_value=-500e9, max_value=500e9))
def test_etalon_bounded_and_periodic(det):
    flt = pm.FilterSpec(kind="etalon", bandwidth=5.58e9, fsr=166e9,
                        peak_transmittance=0.5, center=0.0)
    t = pm.filter_transmission(flt, det)
    assert 0.0 <= t <= 0.5 + 1e-12
    assert t == pytest.approx(pm.filter_transmission(flt, det + 166e9),
                              rel=1e-6, abs=1e-12)
