"""Tests for the capacity-allocated PI baselines."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from microfreq.baselines import (
    PI_BIND_TOL,
    PiConfig,
    TUNED_KI,
    TUNED_KP,
    design_pi_gains,
    pi_all_units_config,
    pi_du_bess_config,
    pi_step,
)
from microfreq.der_models import ReserveLimits, reserve_limits
from microfreq.lfc_model import (
    IDX_FREQ,
    MicrogridParams,
    N_CONTROLS,
    N_DISTURBANCES,
    N_STATES,
    SAMPLE_TIME,
    build_plant,
    step_plant,
)
from microfreq.simulate import RunConfig, step_response_metrics

PARAMS = MicrogridParams()
MODEL = build_plant(PARAMS)
WIDE = ReserveLimits(lo=-np.ones(6), hi=np.ones(6))
NOMINAL_LIMITS = reserve_limits(54.0, 54.0, 63.0, 63.0, 60.0, 0.0, PARAMS)


def step(integral, y, limits, config):
    """``pi_step`` on the rows of ``limits``: (integral, commands array)."""
    integral, cmd = pi_step(integral, y, limits.lo.tolist(), limits.hi.tolist(), config)
    return integral, np.array(cmd)


def test_zero_error_zero_action():
    config = pi_all_units_config(PARAMS)
    integral, cmd = step(0.0, 0.0, WIDE, config)
    assert np.array_equal(cmd, np.zeros(N_CONTROLS))
    assert integral == 0.0


def test_capacity_proportional_allocation():
    # Arrange a 10 kW (0.05 p.u. on 200 kW) total; diesel's share is
    # 10 * 120/500 = 2.4 kW.
    config = pi_all_units_config(PARAMS)
    y = -0.05 / ((config.kp + config.ki * 0.2) * config.capacity_scale)
    _, cmd = step(0.0, y, WIDE, config)
    assert cmd.sum() == pytest.approx(0.05, rel=1e-12)
    assert cmd[4] * PARAMS.s_base == pytest.approx(2.4, rel=1e-12)
    expected_weights = np.array([80, 80, 60, 60, 120, 100]) / 500.0
    assert np.allclose(cmd / cmd.sum(), expected_weights, atol=1e-15)


def test_fleet_scales():
    assert pi_all_units_config(PARAMS).capacity_scale == pytest.approx(2.5)
    assert pi_du_bess_config(PARAMS).capacity_scale == pytest.approx(1.1)


def test_du_bess_variant_keeps_renewables_idle():
    config = pi_du_bess_config(PARAMS)
    integral = 0.0
    rng = np.random.default_rng(3)
    for _ in range(50):
        integral, cmd = step(integral, rng.normal(scale=1e-3), NOMINAL_LIMITS, config)
        assert np.array_equal(cmd[:4], np.zeros(4))


def test_identical_command_shapes_without_saturation():
    config = pi_all_units_config(PARAMS)
    integral = 0.0
    x = np.zeros(N_STATES)
    d = np.zeros(N_DISTURBANCES)
    commands = []
    for k in range(150):
        y = x[IDX_FREQ]
        integral, cmd = step(integral, y, WIDE, config)
        commands.append(cmd)
        if k >= 5:
            d[0] = 0.05
        x = step_plant(MODEL, x, cmd, d)
    commands = np.array(commands)
    nonzero = np.abs(commands[:, 4]) > 1e-9
    ratios = commands[nonzero] / commands[nonzero, 4][:, None]
    assert np.abs(ratios - ratios[0]).max() < 1e-9


def test_offset_free_within_120s_both_variants():
    for controller in ("pi_all", "pi_dubess"):
        metrics = step_response_metrics(controller, RunConfig(), load_step=0.1)
        assert metrics["settle_time"] <= 120.0
        assert metrics["peak"] < 0.2


def test_all_units_beats_du_bess_on_load_step():
    all_units = step_response_metrics("pi_all", RunConfig(), load_step=0.1)
    du_bess = step_response_metrics("pi_dubess", RunConfig(), load_step=0.1)
    assert all_units["peak"] < du_bess["peak"]
    assert all_units["itae"] < du_bess["itae"]


def test_critically_damped_design_matches_frozen_constants():
    # The defaults are the design on the published parameters, exactly.
    assert (TUNED_KP, TUNED_KI) == (1.44, 0.24)
    # No ringing at the design point.
    metrics = step_response_metrics("pi_all", RunConfig())
    assert metrics["zero_crossings"] <= 2


def test_anti_windup_freezes_integrator_when_saturated():
    config = pi_all_units_config(PARAMS)
    tiny = ReserveLimits(lo=np.full(6, -1e-4), hi=np.full(6, 1e-4))
    integral, cmd = step(0.0, -0.05, tiny, config)  # deep under-frequency
    frozen_integral = integral
    assert np.allclose(cmd, 1e-4)  # everyone pinned at the cap
    integral, _ = step(integral, -0.05, tiny, config)
    assert integral == frozen_integral  # conditional integration held
    # Small reversed error: no longer saturated in its direction, so unwind.
    integral, _ = step(integral, +1e-6, tiny, config)
    assert integral != frozen_integral


def test_windup_not_frozen_when_only_some_units_clamp():
    config = pi_all_units_config(PARAMS)
    mixed = ReserveLimits(
        lo=np.array([-1e-4, -1e-4, -1.0, -1.0, -1.0, -1.0]),
        hi=np.array([+1e-4, +1e-4, +1.0, +1.0, +1.0, +1.0]),
    )
    integral, cmd = step(0.0, -0.05, mixed, config)
    assert integral == pytest.approx(-0.05 * 0.2)


def test_config_validation():
    with pytest.raises(ValueError):
        PiConfig(kp=1.0, ki=0.0, participating=np.ones(6, bool),
                 allocation_weights=np.full(6, 1 / 6), capacity_scale=1.0)
    with pytest.raises(ValueError):
        PiConfig(kp=1.0, ki=1.0, participating=np.zeros(6, bool),
                 allocation_weights=np.full(6, 1 / 6), capacity_scale=1.0)
    with pytest.raises(ValueError):
        PiConfig(kp=1.0, ki=1.0, participating=np.ones(6, bool),
                 allocation_weights=np.full(6, 0.1), capacity_scale=1.0)


@pytest.mark.parametrize("gain", ["kp", "ki"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0],
                         ids=["nan", "inf", "-inf", "negative"])
def test_config_rejects_non_finite_or_negative_gains(gain, value):
    gains = dict({"kp": 1.0, "ki": 1.0}, **{gain: value})
    with pytest.raises(ValueError, match=f"{gain} must be"):
        PiConfig(participating=np.ones(6, bool), allocation_weights=np.full(6, 1 / 6),
                 capacity_scale=1.0, **gains)


def test_default_gains_are_the_design_on_the_given_ratings():
    params = MicrogridParams(p_wt1=80.0, p_wt2=80.0, p_pv1=100.0, p_pv2=100.0)
    design = design_pi_gains(params)
    assert design != (TUNED_KP, TUNED_KI)
    for make in (pi_all_units_config, pi_du_bess_config):
        config = make(params)
        assert (config.kp, config.ki) == design
    assert (RunConfig(params=params).pi_kp, RunConfig(params=params).pi_ki) == design


def pi_step_reference(integral, y, limits, config, Ts):
    """pi_step as it stood before it ran on Python floats: a closure per
    call, np.clip, np.where and gathers of the participants, on arrays.
    pi_step must return the same bits."""
    if Ts <= 0:
        raise ValueError("Ts must be > 0")
    if not np.isfinite(y):
        raise ValueError("measurement must be finite")

    def commands_for(integral):
        total = -(config.kp * y + config.ki * integral) * config.capacity_scale
        raw = total * config.allocation_weights
        cmd = np.clip(raw, limits.lo, limits.hi)
        cmd = np.where(config.participating, cmd, 0.0)
        return total, cmd

    integral_new = integral + y * Ts
    total, cmd = commands_for(integral_new)

    part = config.participating
    if total > 0:
        fully_saturated = np.all(cmd[part] >= limits.hi[part] - 1e-15)
    elif total < 0:
        fully_saturated = np.all(cmd[part] <= limits.lo[part] + 1e-15)
    else:
        fully_saturated = False
    pushing_deeper = (-y) * total > 0

    if fully_saturated and pushing_deeper:
        integral_new = integral
        total, cmd = commands_for(integral_new)

    return integral_new, cmd


# Limits with signed zeros, near-ties and bands small enough to saturate,
# where the clamp's operand order and the sign of zero show in the bits.
bounds = st.sampled_from([0.0, -0.0, 1e-4, -1e-4, 1e-4 - 5e-16, 1e-3, -1e-3, 1.0, -1.0])
signed = st.floats(-0.1, 0.1) | st.sampled_from([0.0, -0.0])


@st.composite
def limit_rows(draw):
    """(6,) lo and hi; a pair within 1e-15 may come in either order, as
    ReserveLimits allows."""
    pairs = []
    for _ in range(N_CONTROLS):
        a, b = sorted(draw(st.tuples(bounds, bounds)))
        pairs.append((b, a) if b - a <= 1e-15 and draw(st.booleans()) else (a, b))
    return tuple(np.array(side) for side in zip(*pairs))


def sided(lo, hi):
    """(lo, hi) rows of six entries from one value or a list per side."""
    return tuple(np.array(side if isinstance(side, list) else [side] * N_CONTROLS, dtype=float)
                 for side in (lo, hi))


# (y, integral, (lo, hi)) cases that take every branch of pi_step's one-pass
# anti-windup check, for each controller: a hold at each sign (every
# participant at the bound it is pushed to, so the commands are clamped
# again); the same push with one participant (storage, in both
# controllers) inside its band, so the check stops at the last unit; a
# zero total, with signed-zero limits; and a pair crossed within 1e-15,
# pushed either way.
PI_BRANCH_CASES = [
    (-0.05, 0.0, sided(-1e-4, 1e-4)),
    (0.05, 0.0, sided(-1e-4, 1e-4)),
    (-0.05, 0.0, sided(-1e-4, [1e-4] * 5 + [1.0])),
    (0.05, 0.0, sided([-1e-4] * 5 + [-1.0], 1e-4)),
    (0.0, 0.0, sided(-0.0, 0.0)),
    (-0.0, -0.0, sided([0.0, -0.0] * 3, [-0.0, 0.0] * 3)),
    (-0.05, 0.0, sided(1e-4, 1e-4 - 5e-16)),
    (0.05, 0.0, sided(1e-4, 1e-4 - 5e-16)),
]


def at_tolerance(config, y):
    """(lo, hi) that put every participant's command, from a zero integral,
    exactly PI_BIND_TOL inside the bound ``y`` pushes it to: at the edge of
    what counts as clamped."""
    total = -(config.kp * y + config.ki * (y * SAMPLE_TIME)) * config.capacity_scale
    lo, hi = [-1.0] * N_CONTROLS, [1.0] * N_CONTROLS
    for unit, weight in config.shares:
        if total > 0:
            hi[unit] = total * weight + PI_BIND_TOL
            assert hi[unit] - PI_BIND_TOL == total * weight
        else:
            lo[unit] = total * weight - PI_BIND_TOL
            assert lo[unit] + PI_BIND_TOL == total * weight
    return sided(lo, hi)


def with_pi_branch_cases(test):
    for factory in (pi_all_units_config, pi_du_bess_config):
        for y, integral, rows in PI_BRANCH_CASES:
            test = example(factory, y, integral, rows)(test)
        for y in (-0.05, 0.05):
            test = example(factory, y, 0.0, at_tolerance(factory(PARAMS), y))(test)
    return test


@settings(max_examples=400)
@given(st.sampled_from([pi_all_units_config, pi_du_bess_config]), signed, signed, limit_rows())
@with_pi_branch_cases
def test_pi_step_matches_reference_bits(factory, y, integral, rows):
    lo, hi = rows
    config = factory(PARAMS)
    got_integral, got = pi_step(integral, y, lo.tolist(), hi.tolist(), config)
    want_integral, want = pi_step_reference(integral, y, ReserveLimits(lo=lo, hi=hi), config, 0.2)
    assert np.array(got).tobytes() == want.tobytes()
    assert np.float64(got_integral).tobytes() == np.float64(want_integral).tobytes()
