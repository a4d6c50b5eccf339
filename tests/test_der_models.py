"""Tests for wind/PV availability and reserve-limit computation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from microfreq.der_models import (
    BETZ_LIMIT,
    DELOAD_FRACTION,
    PvParams,
    ReserveLimits,
    default_pv_params,
    default_wind_params,
    optimal_tip_speed_ratio,
    power_coefficient,
    pv_available_power,
    reserve_limits,
    wind_available_power,
)
from microfreq.lfc_model import MicrogridParams

WIND = default_wind_params()
PV = default_pv_params()
GRID = MicrogridParams()


# ---------------------------------------------------------------- wind


def test_wind_zero_below_cut_in():
    assert wind_available_power(0.0, WIND) == 0.0
    assert wind_available_power(2.9, WIND) == 0.0
    assert wind_available_power(3.0, WIND) == 0.0  # boundary inclusive


def test_wind_rated_point_with_deload():
    # Radius is sized so the aero power hits 60 kW at 12 m/s; deloaded by 10%.
    assert wind_available_power(12.0, WIND, deload=0.10) == pytest.approx(54.0, abs=1e-9)


def test_wind_holds_rated_above_rated_speed():
    assert wind_available_power(20.0, WIND, deload=0.10) == pytest.approx(54.0, abs=1e-12)


def test_wind_monotone_below_rated():
    speeds = np.linspace(0.0, WIND.rated_wind_speed, 200)
    powers = [wind_available_power(v, WIND) for v in speeds]
    assert all(b - a >= -1e-12 for a, b in zip(powers, powers[1:]))


def test_optimal_tsr_beats_grid_search():
    lam_star, cp_star = optimal_tip_speed_ratio(WIND)
    grid = np.linspace(0.5, 20.0, 5000)
    cps = [power_coefficient(lam, WIND.pitch_beta, WIND) for lam in grid]
    assert cp_star >= max(cps) - 1e-9
    assert 7.0 < lam_star < 9.0


def test_cp_respects_betz_limit_on_grid():
    lams = np.linspace(0.5, 15.0, 100)
    betas = np.linspace(0.0, 20.0, 20)
    for beta in betas:
        for lam in lams:
            cp = power_coefficient(lam, beta, WIND)
            assert 0.0 <= cp <= BETZ_LIMIT


def test_wind_rejects_bad_input():
    with pytest.raises(ValueError):
        wind_available_power(-1.0, WIND)
    with pytest.raises(ValueError):
        wind_available_power(5.0, WIND, deload=1.0)


# ---------------------------------------------------------------- pv


def test_pv_reference_condition_identity():
    # Ambient chosen so the cell sits exactly at the 25 C reference.
    t_amb = 25.0 - PV.temp_rise_coefficient * 1000.0
    assert pv_available_power(1000.0, t_amb, PV, deload=0.10) == pytest.approx(72.0, abs=1e-12)
    assert pv_available_power(1000.0, t_amb, PV, deload=0.0) == pytest.approx(80.0, abs=1e-12)


def test_pv_linear_in_irradiance_when_gamma_zero():
    params = PvParams(n_series=20, n_parallel=16, rated_module_w=250.0, temp_coefficient=0.0)
    assert pv_available_power(500.0, 25.0, params, deload=0.0) == pytest.approx(40.0, abs=1e-12)
    ratio = pv_available_power(750.0, 25.0, params, deload=0.0) / pv_available_power(
        250.0, 25.0, params, deload=0.0
    )
    assert ratio == pytest.approx(3.0, abs=1e-12)


def test_pv_temperature_rise_coefficient():
    assert PV.temp_rise_coefficient == pytest.approx(25.0 / 800.0, abs=1e-15)


def test_pv_decreasing_in_ambient_temperature():
    cold = pv_available_power(800.0, 0.0, PV)
    hot = pv_available_power(800.0, 40.0, PV)
    assert hot < cold


def test_pv_power_floored_at_zero():
    # Absurdly hot cell would drive the linear model negative; clamp at 0.
    assert pv_available_power(1000.0, 500.0, PV) == 0.0


def test_pv_params_validation():
    with pytest.raises(ValueError):
        PvParams(n_series=0)
    with pytest.raises(ValueError):
        PvParams(ref_irradiance=900.0)
    with pytest.raises(ValueError):
        PvParams(temp_coefficient=-0.1)


# ---------------------------------------------------------------- deloading


def test_deloaded_never_exceeds_mppt():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        deload = rng.uniform(0.0, 0.99)
        if rng.random() < 0.5:
            v = rng.uniform(0.0, 25.0)
            full = wind_available_power(v, WIND, deload=0.0)
            assert wind_available_power(v, WIND, deload=deload) <= full + 1e-12
        else:
            g = rng.uniform(0.0, 1200.0)
            t = rng.uniform(-10.0, 45.0)
            full = pv_available_power(g, t, PV, deload=0.0)
            assert pv_available_power(g, t, PV, deload=deload) <= full + 1e-12


# ---------------------------------------------------------------- reserve limits


def test_reserve_limits_wind_band():
    lims = reserve_limits(54.0, 54.0, 63.0, 63.0, 60.0, 0.0, GRID, deload=0.10)
    # +-10% of 54 kW on a 200 kW base = +-0.027 p.u.
    assert lims.hi[2] == pytest.approx(5.4 / 200.0, abs=1e-15)
    assert lims.lo[2] == pytest.approx(-5.4 / 200.0, abs=1e-15)


def test_reserve_limits_diesel_band():
    lims = reserve_limits(54.0, 54.0, 63.0, 63.0, 60.0, 0.0, GRID)
    assert lims.lo[4] == pytest.approx(-60.0 / 200.0)
    assert lims.hi[4] == pytest.approx(60.0 / 200.0)


def test_reserve_limits_bess_four_quadrant():
    lims = reserve_limits(54.0, 54.0, 63.0, 63.0, 60.0, 0.0, GRID)
    assert lims.lo[5] == pytest.approx(-100.0 / 200.0)
    assert lims.hi[5] == pytest.approx(100.0 / 200.0)


def test_reserve_limits_zero_availability():
    lims = reserve_limits(0.0, 0.0, 0.0, 0.0, 60.0, 0.0, GRID)
    assert lims.lo[2] == 0.0 and lims.hi[2] == 0.0
    assert lims.lo[0] == 0.0 and lims.hi[0] == 0.0


def test_reserve_limits_contain_zero_when_interior():
    lims = reserve_limits(10.0, 20.0, 30.0, 40.0, 60.0, 0.0, GRID)
    assert np.all(lims.lo <= 0.0) and np.all(lims.hi >= 0.0)


def test_reserve_limits_scale_with_deload():
    narrow = reserve_limits(54.0, 54.0, 63.0, 63.0, 60.0, 0.0, GRID, deload=0.05)
    wide = reserve_limits(54.0, 54.0, 63.0, 63.0, 60.0, 0.0, GRID, deload=0.10)
    assert wide.hi[0] == pytest.approx(2.0 * narrow.hi[0])
    assert wide.lo[3] == pytest.approx(2.0 * narrow.lo[3])


def test_reserve_limits_reject_bad_dispatch():
    with pytest.raises(ValueError):
        reserve_limits(54.0, 54.0, 63.0, 63.0, 130.0, 0.0, GRID)
    with pytest.raises(ValueError):
        reserve_limits(54.0, 54.0, 63.0, 63.0, 60.0, -150.0, GRID)
    with pytest.raises(ValueError):
        reserve_limits(-1.0, 54.0, 63.0, 63.0, 60.0, 0.0, GRID)


def test_reserve_limits_validation():
    with pytest.raises(ValueError):
        ReserveLimits(lo=np.ones(6), hi=np.zeros(6))
    with pytest.raises(ValueError):
        ReserveLimits(lo=np.zeros(6), hi=np.full(6, np.inf))


# ---------------------------------------------------------------- grid form
#
# One implementation serves single instants and whole time grids. The grid
# form must give, element for element, the bits of a scalar call and of the
# scalar formulas written out with Python floats below.


def scalar_wind_reference(v, params, deload):
    lam_star, cp_star = optimal_tip_speed_ratio(params)
    omega = lam_star * v / params.blade_radius
    if omega <= params.omega_min:
        return 0.0
    if omega >= params.omega_max:
        return (1.0 - deload) * params.rated_power
    aero_kw = (
        0.5 * params.rho_air * math.pi * params.blade_radius ** 2 * v ** 3 * cp_star / 1000.0
    )
    return min((1.0 - deload) * aero_kw, (1.0 - deload) * params.rated_power)


def scalar_pv_reference(g_eff, t_ambient, params, deload):
    t_cell = t_ambient + params.temp_rise_coefficient * g_eff
    power_kw = (
        params.rated_array_kw
        * (g_eff / params.ref_irradiance)
        * (1.0 - params.temp_coefficient * (t_cell - params.ref_cell_temp))
    )
    return (1.0 - deload) * max(0.0, power_kw)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


# Cut-in and rated wind speed put the rotor exactly on omega_min and omega_max.
wind_speeds = st.lists(
    st.one_of(st.sampled_from([0.0, 3.0, 12.0, 25.0]),
              st.floats(0.0, 25.0, allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=40,
)
deloads = st.sampled_from([0.0, DELOAD_FRACTION, 0.25])


@given(wind_speeds, deloads)
def test_wind_grid_matches_scalar_calls(speeds, deload):
    grid = wind_available_power(np.array(speeds), WIND, deload)
    assert grid.shape == (len(speeds),)
    for v, got in zip(speeds, grid):
        assert same_bits(got, wind_available_power(v, WIND, deload))
        assert same_bits(got, scalar_wind_reference(v, WIND, deload))


def test_wind_grid_pins_cut_in_and_rated_rotor_speed():
    lam_star, _ = optimal_tip_speed_ratio(WIND)
    assert lam_star * 3.0 / WIND.blade_radius == WIND.omega_min
    assert lam_star * 12.0 / WIND.blade_radius == WIND.omega_max
    grid = wind_available_power(np.array([3.0, 12.0]), WIND)
    assert grid[0] == 0.0
    assert grid[1] == (1.0 - DELOAD_FRACTION) * WIND.rated_power


@given(
    st.lists(st.tuples(st.floats(0.0, 1200.0), st.floats(-20.0, 50.0)), min_size=1, max_size=40),
    deloads,
)
def test_pv_grid_matches_scalar_calls(samples, deload):
    g_eff = np.array([g for g, _ in samples])
    t_amb = np.array([t for _, t in samples])
    grid = pv_available_power(g_eff, t_amb, PV, deload)
    assert grid.shape == (len(samples),)
    for (g, t), got in zip(samples, grid):
        assert same_bits(got, pv_available_power(g, t, PV, deload))
        assert same_bits(got, scalar_pv_reference(g, t, PV, deload))


def test_pv_grid_broadcasts_ambient_temperature_over_units():
    g_eff = np.array([[0.0, 500.0, 1200.0], [1000.0, 800.0, 0.0]])
    t_amb = np.array([10.0, 25.0, 40.0])
    grid = pv_available_power(g_eff, t_amb, PV)
    for i in range(2):
        for k in range(3):
            assert same_bits(grid[i, k], pv_available_power(g_eff[i, k], t_amb[k], PV))


@given(
    st.lists(st.tuples(*[st.floats(0.0, 80.0)] * 4), min_size=1, max_size=30),
    st.floats(0.0, 120.0),
    st.floats(-100.0, 100.0),
    deloads,
)
def test_reserve_limit_grid_matches_scalar_calls(p_maps, dispatch_du, dispatch_bess, deload):
    columns = [np.array(c) for c in zip(*p_maps)]
    grid = reserve_limits(*columns, dispatch_du, dispatch_bess, GRID, deload)
    assert grid.lo.shape == grid.hi.shape == (len(p_maps), 6)
    for k, row in enumerate(p_maps):
        one = reserve_limits(*row, dispatch_du, dispatch_bess, GRID, deload)
        assert same_bits(grid.lo[k], one.lo) and same_bits(grid.hi[k], one.hi)
        at_k = grid.at(k)
        assert same_bits(at_k.lo, one.lo) and same_bits(at_k.hi, one.hi)


def test_grid_checks_report_the_first_bad_element():
    with pytest.raises(ValueError, match=r"wind speed must be >= 0, got -2.0"):
        wind_available_power(np.array([5.0, -2.0, -3.0]), WIND)
    with pytest.raises(ValueError, match=r"irradiance must be >= 0, got -1.0"):
        pv_available_power(np.array([[5.0, 1.0], [-1.0, 2.0]]), 25.0, PV)
    with pytest.raises(ValueError, match=r"p_map_pv2 must be >= 0, got -0.5"):
        reserve_limits(np.ones(3), np.ones(3), np.ones(3), np.array([0.0, -0.5, 1.0]),
                       60.0, 0.0, GRID)
    with pytest.raises(ValueError, match="finite"):
        reserve_limits(np.ones(3), np.array([1.0, np.nan, 1.0]), np.ones(3), np.ones(3),
                       60.0, 0.0, GRID)
