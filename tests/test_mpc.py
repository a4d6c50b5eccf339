"""Tests for the receding-horizon frequency controller."""

import numpy as np
import pytest

from microfreq.der_models import ReserveLimits
from microfreq.estimator import (
    EstimatorConfig,
    estimator_step,
    initial_estimator_state,
)
from microfreq.lfc_model import (
    IDX_FREQ,
    MicrogridParams,
    N_CONTROLS,
    N_DISTURBANCES,
    N_STATES,
    build_plant,
    discretize_model,
    step_plant,
)
from microfreq.mpc import (
    MpcConfig,
    active_units,
    box_bands,
    build_constraints,
    build_prediction_matrices,
    control_step,
    out_of_band_units,
)
from microfreq.numerics import QpInfeasibleError
from qp_reference import (
    banded_step,
    free_response,
    hessian,
    linear_map,
    mpc_gain,
    prediction_columns,
    running_sum,
    sample_diagnostics,
)

PARAMS = MicrogridParams()
MODEL = build_plant(PARAMS)
CONFIG = MpcConfig()
PRED = build_prediction_matrices(MODEL, CONFIG)
EST_CONFIG = EstimatorConfig()

WIDE_LIMITS = ReserveLimits(lo=-np.ones(6), hi=np.ones(6))


def increments(delta_x=None, delta_d=0.0):
    """Directly chosen estimate increments (dx, dd) for ``control_step``."""
    return (np.zeros(N_STATES) if delta_x is None else delta_x), delta_d


def closed_loop(
    config=CONFIG,
    n_steps=300,
    load=0.1,
    step_at=5,
    limits=WIDE_LIMITS,
):
    """Plant + estimator + MPC loop under a load step; returns the frequency
    trace and the per-step applied commands."""
    pred = build_prediction_matrices(MODEL, config)
    est = initial_estimator_state(EST_CONFIG)
    x = np.zeros(N_STATES)
    u_prev = np.zeros(N_CONTROLS)
    freqs, commands = [], []
    for k in range(n_steps):
        y = x[IDX_FREQ]
        est = estimator_step(est, u_prev, y, MODEL, EST_CONFIG)
        result = banded_step(est.delta_x, est.delta_d, y, u_prev, limits.lo, limits.hi, pred)
        u_prev = result.command
        d = np.zeros(N_DISTURBANCES)
        if k >= step_at:
            d[0] = load
        x = step_plant(MODEL, x, u_prev, d)
        freqs.append(y)
        commands.append(u_prev)
    return np.array(freqs), np.array(commands)


# ------------------------------------------------------- prediction matrices


def test_single_step_horizon_matrices():
    config = MpcConfig(p=1, m=1)
    pred = build_prediction_matrices(MODEL, config)
    C = MODEL.Cc[0]
    S_x, I_vec, S_d = prediction_columns(pred)
    assert np.allclose(S_x, (C @ MODEL.A)[None, :])
    assert np.allclose(pred.S_B, (C @ MODEL.B)[None, :])
    assert np.allclose(S_d, [C @ MODEL.D[:, 0]])
    assert np.array_equal(I_vec, [1.0])


def test_sb_block_lower_triangular():
    for j in range(PRED.p):
        for col in range(PRED.m):
            block = PRED.S_B[j, col * 6:(col + 1) * 6]
            if col > j:
                assert np.all(block == 0.0)
            else:
                assert np.any(block != 0.0)


def test_sx_last_row_matches_power_sum_oracle():
    # Independent route: explicit matrix powers, no cumulative-sum reuse.
    C = MODEL.Cc[0]
    total = np.zeros(N_STATES)
    for i in range(1, PRED.p + 1):
        total = total + C @ np.linalg.matrix_power(MODEL.A, i)
    assert np.abs(prediction_columns(PRED)[0][-1] - total).max() < 1e-12


def test_sd_collapse_matches_replicated_channels():
    # Replicated scalar s on all five channels == aggregate 5s on the column.
    # First block column of the full five-channel disturbance prediction:
    # row j = sum_{i=1..j} C A^(i-1) D.
    C = MODEL.Cc[0]
    S_d_first = np.cumsum(
        [C @ np.linalg.matrix_power(MODEL.A, i) @ MODEL.D for i in range(PRED.p)], axis=0
    )
    s = 0.37
    stacked = S_d_first @ (s * np.ones(5))
    assert np.allclose(stacked, prediction_columns(PRED)[2] * (5 * s), atol=1e-15)


@pytest.mark.parametrize("config", [CONFIG, MpcConfig(p=8, m=2, alpha=2.3, beta_bess=0.5)])
def test_prepared_qp_matrices_match_per_sample_expressions(config):
    # The expressions a control step used to evaluate at every sample.
    pred = build_prediction_matrices(MODEL, config)
    gamma_u = np.tile(config.control_weights(), config.m)
    H = 2.0 * (config.alpha ** 2 * pred.S_B.T @ pred.S_B + np.diag(gamma_u ** 2))
    y_free = np.linspace(-1e-3, 2e-3, config.p)
    f = 2.0 * config.alpha ** 2 * pred.S_B.T @ y_free
    n = N_CONTROLS * config.m
    assert hessian(pred).tobytes() == H.tobytes()
    assert (linear_map(pred) @ y_free).tobytes() == f.tobytes()
    assert pred.gamma_u.tobytes() == gamma_u.tobytes()
    # The reserve bounds are the box QP's bounds on V, one band per block;
    # its caller gets them from build_constraints.
    lo, hi = build_constraints(WIDE_LIMITS, np.zeros(N_CONTROLS), pred)
    assert lo.shape == hi.shape == (n,)
    assert np.array_equal(lo, np.tile(WIDE_LIMITS.lo, config.m))
    assert np.array_equal(hi, np.tile(WIDE_LIMITS.hi, config.m))
    assert not pred.box.H.flags.writeable


@pytest.mark.parametrize("config", [CONFIG, MpcConfig(p=8, m=2, alpha=2.3, beta_bess=0.5)])
def test_cumulative_move_pieces_match_their_definitions(config):
    pred = build_prediction_matrices(MODEL, config)
    n = N_CONTROLS * config.m
    T = running_sum(pred)
    assert np.array_equal(pred.T_inv @ T, np.eye(n))
    Hv = pred.T_inv.T @ hessian(pred) @ pred.T_inv
    assert pred.box.H.tobytes() == Hv.tobytes()
    W = T @ np.linalg.solve(hessian(pred), T.T)
    assert np.abs(pred.box.H_inv - W).max() <= 1e-10 * np.abs(W).max()
    rng = np.random.default_rng(3)
    dx, dd, y = rng.normal(scale=1e-3, size=N_STATES), 4e-4, -2e-3
    stacked = pred.sample_map @ np.concatenate((dx, (y, dd)))
    y_free = free_response(pred, dx, dd, y)
    f = linear_map(pred) @ y_free
    g = np.linalg.solve(T.T, f)
    v_unc = T @ np.linalg.solve(hessian(pred), -f)
    p = config.p
    for got, want in ((stacked[:p], y_free), (stacked[p:p + n], g), (stacked[p + n:], v_unc)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for shared in (pred.T_inv, pred.sample_map, pred.box.H, pred.box.H_inv):
        assert not shared.flags.writeable


def test_control_step_takes_its_weights_from_the_prepared_matrices():
    with pytest.raises(TypeError):
        control_step(*increments(), 0.0, np.zeros(6),
                     box_bands(WIDE_LIMITS.lo, WIDE_LIMITS.hi, CONFIG.m), PRED, CONFIG)


def test_prediction_requires_matching_ts():
    slow = discretize_model(MODEL, Ts=0.5)
    with pytest.raises(ValueError, match="Ts"):
        build_prediction_matrices(slow, CONFIG)


def test_config_validation():
    with pytest.raises(ValueError):
        MpcConfig(p=3, m=5)
    with pytest.raises(ValueError):
        MpcConfig(alpha=0.0)
    with pytest.raises(ValueError):
        MpcConfig(beta_du=0.1, beta_wt=0.3)  # violates renewables-first priority


# ------------------------------------------------------- gain


def test_gain_vanishes_under_huge_move_penalty():
    config = MpcConfig(beta_pv=1e6, beta_wt=1e6, beta_du=1.1e6, beta_bess=1.1e6)
    K = mpc_gain(build_prediction_matrices(MODEL, config))
    assert np.abs(K).max() < 1e-4


def test_gain_single_input_scalar_formula():
    # Zero every actuator except diesel: K reduces to a^2 s / (a^2 s^2 + b^2).
    Bc = np.zeros_like(MODEL.Bc)
    Bc[:, 4] = MODEL.Bc[:, 4]
    from microfreq.lfc_model import PlantModel

    one_input = discretize_model(
        PlantModel(Ac=MODEL.Ac, Bc=Bc, Cc=MODEL.Cc, Dc=MODEL.Dc), Ts=MODEL.Ts
    )
    config = MpcConfig(p=1, m=1)
    pred = build_prediction_matrices(one_input, config)
    K = mpc_gain(pred)
    s = float(one_input.Cc[0] @ one_input.B[:, 4])
    expected = config.alpha ** 2 * s / (config.alpha ** 2 * s ** 2 + config.beta_du ** 2)
    assert K[4, 0] == pytest.approx(expected, rel=1e-12)
    assert np.abs(np.delete(K[:, 0], 4)).max() == 0.0


def test_unconstrained_qp_matches_gain():
    # Under bands no sample reaches, no QP row is active and the constrained
    # step is the closed-form gain's move.
    rng = np.random.default_rng(12)
    K = mpc_gain(PRED)
    for _ in range(10):
        dx, dd = increments(rng.normal(scale=1e-3, size=N_STATES), rng.normal(scale=1e-3))
        y = rng.normal(scale=1e-3)
        result = banded_step(dx, dd, y, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
        row = sample_diagnostics(result, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
        assert not row.qp_active.any()
        y_free = free_response(PRED, dx, dd, y)
        assert np.abs(row.increments - K @ (0.0 - y_free)).max() < 1e-9


def test_wide_limits_reduce_to_unconstrained_gain():
    dx, dd = increments(np.full(N_STATES, 2e-4), 1e-4)
    wide = banded_step(dx, dd, -1e-3, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    gain_move = mpc_gain(PRED) @ (0.0 - free_response(PRED, dx, dd, -1e-3))
    row = sample_diagnostics(wide, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    assert not row.qp_active.any()  # empty active set
    assert np.abs(row.increments - gain_move).max() < 1e-12


# ------------------------------------------------------- constraints


def test_constraint_box_single_step():
    config = MpcConfig(p=10, m=1)
    limits = ReserveLimits(lo=np.full(6, -0.027), hi=np.full(6, 0.027))
    lo, hi = build_constraints(limits, np.zeros(6), build_prediction_matrices(MODEL, config))
    assert lo.shape == hi.shape == (6,)
    assert np.allclose(lo, -0.027)
    assert np.allclose(hi, 0.027)


def test_constraint_no_headroom_at_upper_bound():
    limits = ReserveLimits(lo=np.full(6, -0.1), hi=np.full(6, 0.1))
    u_prev = np.zeros(6)
    u_prev[2] = 0.1  # wt1 already at its cap
    lo, hi = build_constraints(limits, u_prev, PRED)
    # Upper bounds are V <= hi - u_prev, V the cumulative moves; the step-1
    # bound for wt1 forces its first move V[2] = du[2] <= 0.
    du = np.zeros(6 * CONFIG.m)
    du[2] = 1e-6
    V = running_sum(PRED) @ du
    assert min((V - lo).min(), (hi - V).min()) < 0.0
    du[2] = 0.0
    V = running_sum(PRED) @ du
    assert min((V - lo).min(), (hi - V).min()) >= 0.0


def test_constraint_rows_count():
    lo, hi = build_constraints(WIDE_LIMITS, np.zeros(6), PRED)
    # One lower and one upper bound per unit and block: 2 * 6 * m in all.
    assert lo.shape == hi.shape == (6 * CONFIG.m,)


def test_out_of_band_detection():
    limits = ReserveLimits(lo=np.full(6, -0.02), hi=np.full(6, 0.02))
    u_prev = np.zeros(6)
    u_prev[0] = 0.05
    flags = out_of_band_units(limits, u_prev)
    assert flags[0] and not flags[1:].any()


def test_crossed_bands_raise_infeasible():
    # ReserveLimits refuses crossed bands, but control_step takes plain
    # arrays.
    lo = np.full(6, -0.02)
    lo[4] = 0.03
    with pytest.raises(QpInfeasibleError, match="lower bound 4 exceeds its upper bound") as err:
        banded_step(*increments(), -1e-3, np.zeros(6), lo, np.full(6, 0.02), PRED)
    assert err.value.row == 4


def test_drifted_total_forced_back_inside():
    limits = ReserveLimits(lo=np.full(6, -0.02), hi=np.full(6, 0.02))
    u_prev = np.zeros(6)
    u_prev[0] = 0.05  # outside the shrunken band
    result = banded_step(*increments(), 0.0, u_prev, limits.lo, limits.hi, PRED)
    assert result.command[0] <= 0.02 + 1e-9


# ------------------------------------------------------- control step


def test_zero_error_zero_move():
    result = banded_step(*increments(), 0.0, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    assert np.abs(result.command).max() < 1e-12
    row = sample_diagnostics(result, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    assert row.objective == pytest.approx(0.0, abs=1e-20)


def test_over_frequency_pushes_all_units_down():
    result = banded_step(*increments(), 1e-3, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    assert np.all(result.command <= 0.0)
    assert np.any(result.command < 0.0)


def test_binding_limit_redistributes_to_other_units():
    # Scale an under-frequency event so the unconstrained wt1 move is 0.04.
    base = banded_step(*increments(), -1e-3, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    base_row = sample_diagnostics(base, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    scale = 0.04 / base_row.increments[2]
    y = -1e-3 * scale
    unconstrained = banded_step(*increments(), y, np.zeros(6), WIDE_LIMITS.lo,
                                WIDE_LIMITS.hi, PRED)
    row = sample_diagnostics(unconstrained, np.zeros(6), WIDE_LIMITS.lo, WIDE_LIMITS.hi, PRED)
    assert not row.qp_active.any()
    assert row.increments[2] == pytest.approx(0.04, rel=1e-9)

    lo = np.full(6, -10.0)
    hi = np.full(6, 10.0)
    hi[2] = 0.027
    result = banded_step(*increments(), y, np.zeros(6), lo, hi, PRED)
    assert result.command[2] == pytest.approx(0.027, abs=1e-9)
    others = [i for i in range(6) if i != 2]
    assert np.all(result.command[others] >= unconstrained.command[others] - 1e-12)
    assert result.command[others].sum() > unconstrained.command[others].sum()
    assert active_units(sample_diagnostics(result, np.zeros(6), lo, hi, PRED).qp_active,
                        CONFIG.m)[2]


def test_weight_scaling_invariance():
    est = increments(np.full(N_STATES, 1e-4), 2e-4)
    limits = ReserveLimits(lo=np.full(6, -0.01), hi=np.full(6, 0.01))
    base = banded_step(*est, -2e-3, np.zeros(6), limits.lo, limits.hi, PRED)
    scaled_config = MpcConfig(
        alpha=CONFIG.alpha * 7.0,
        beta_pv=CONFIG.beta_pv * 7.0,
        beta_wt=CONFIG.beta_wt * 7.0,
        beta_du=CONFIG.beta_du * 7.0,
        beta_bess=CONFIG.beta_bess * 7.0,
    )
    scaled_pred = build_prediction_matrices(MODEL, scaled_config)
    scaled = banded_step(*est, -2e-3, np.zeros(6), limits.lo, limits.hi, scaled_pred)
    base_row = sample_diagnostics(base, np.zeros(6), limits.lo, limits.hi, PRED)
    scaled_row = sample_diagnostics(scaled, np.zeros(6), limits.lo, limits.hi, scaled_pred)
    assert np.abs(base_row.increments - scaled_row.increments).max() < 1e-10


def test_kkt_residuals_reported_small():
    dx, dd = increments(np.full(N_STATES, 1e-4), 5e-4)
    limits = ReserveLimits(lo=np.full(6, -0.005), hi=np.full(6, 0.005))
    result = banded_step(dx, dd, -3e-3, np.zeros(6), limits.lo, limits.hi, PRED)
    stat, primal, comp = sample_diagnostics(
        result, np.zeros(6), limits.lo, limits.hi, PRED).kkt_residuals
    assert stat < 1e-8 and primal < 1e-8 and comp < 1e-8


# ------------------------------------------------------- closed loop


def test_offset_free_regulation_under_load_step():
    freqs, _ = closed_loop(n_steps=305, load=0.1, step_at=5)
    # |df| < 1e-4 p.u. within 60 s of the step (step at k=5, 60 s = 300 steps).
    assert np.abs(freqs[-1]) < 1e-4
    settled = np.abs(freqs) < 1e-4
    first_settle = np.argmax(settled & (np.arange(len(freqs)) > 5))
    assert (first_settle - 5) * 0.2 <= 60.0
    assert np.all(np.abs(freqs[first_settle:]) < 1e-4)


def test_commands_respect_limits_in_closed_loop():
    tight = ReserveLimits(lo=np.full(6, -0.03), hi=np.full(6, 0.03))
    _, commands = closed_loop(n_steps=200, load=0.08, limits=tight)
    assert commands.max() <= 0.03 + 1e-9
    assert commands.min() >= -0.03 - 1e-9


def test_total_vs_increment_bound_readings_archived():
    """Archive the two readings of the reserve bounds side by side.

    Under the chosen reading the bounds cap each unit's cumulative total;
    under the naive alternative they cap each raw increment, which lets the
    totals integrate far past the reserve band. The traces demonstrate why
    the totals reading is the one that means 'reserve limit'.
    """
    limits = ReserveLimits(lo=np.full(6, -0.02), hi=np.full(6, 0.02))
    est_config = EstimatorConfig()

    def run(reading):
        est = initial_estimator_state(est_config)
        x = np.zeros(N_STATES)
        u_prev = np.zeros(N_CONTROLS)
        totals = []
        for k in range(100):
            y = x[IDX_FREQ]
            est = estimator_step(est, u_prev, y, MODEL, est_config)
            if reading == "totals":
                result = banded_step(est.delta_x, est.delta_d, y, u_prev, limits.lo,
                                     limits.hi, PRED)
                u_prev = result.command
            else:
                # per-increment boxes, same band, no cumulative coupling
                Cu = np.vstack([np.eye(6 * CONFIG.m), -np.eye(6 * CONFIG.m)])
                b = np.concatenate([np.tile(limits.lo, CONFIG.m), np.tile(-limits.hi, CONFIG.m)])
                from microfreq.numerics import QpProblem, solve_qp_info
                y_free = free_response(PRED, est.delta_x, est.delta_d, y)
                gamma_u = np.tile(CONFIG.control_weights(), CONFIG.m)
                H = 2.0 * (CONFIG.alpha ** 2 * PRED.S_B.T @ PRED.S_B + np.diag(gamma_u ** 2))
                f = 2.0 * CONFIG.alpha ** 2 * PRED.S_B.T @ y_free
                du = solve_qp_info(QpProblem(H, f, Cu, b))[0]
                u_prev = u_prev + du[:6]
            d = np.zeros(N_DISTURBANCES)
            d[0] = 0.15  # persistent deficit beyond the band
            x = step_plant(MODEL, x, u_prev, d)
            totals.append(u_prev.copy())
        return np.array(totals)

    totals_reading = run("totals")
    increment_reading = run("increments")
    assert totals_reading.max() <= 0.02 + 1e-9
    assert increment_reading.max() > 0.02 + 1e-3  # totals escape the band


def test_renewables_first_weight_priority():
    """Swapping the beta groups must swap which unit family does more work."""
    swapped = MpcConfig(
        beta_pv=CONFIG.beta_du, beta_wt=CONFIG.beta_du,
        beta_du=CONFIG.beta_du * 1.0001, beta_bess=CONFIG.beta_wt,
    )
    # swapped config must still satisfy beta_du > beta_wt; emulate the swap by
    # comparing renewable share under the paper weights vs under raised
    # renewable weights.
    heavy_renewables = MpcConfig(
        beta_pv=0.3762, beta_wt=0.3762, beta_du=0.3763, beta_bess=0.2894
    )
    _, cmd_paper = closed_loop(n_steps=150, load=0.05)
    _, cmd_heavy = closed_loop(config=heavy_renewables, n_steps=150, load=0.05)
    renewable_paper = np.abs(cmd_paper[:, :4]).sum() * 0.2
    renewable_heavy = np.abs(cmd_heavy[:, :4]).sum() * 0.2
    diesel_paper = np.abs(cmd_paper[:, 4]).sum() * 0.2
    diesel_heavy = np.abs(cmd_heavy[:, 4]).sum() * 0.2
    assert renewable_paper > renewable_heavy
    assert diesel_paper < diesel_heavy
    assert swapped.beta_du > swapped.beta_wt
