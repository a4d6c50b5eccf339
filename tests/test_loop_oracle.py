"""The prepared run loop against a reference loop built from the public
single-step functions.

``run_scenario`` builds availability, reserve limits, the estimator's gains
and the controller's QP matrices once per run. The reference below rebuilds
every one of them at every sample through the single-step functions
(``estimator_step``, scalar availability and ``reserve_limits``,
``control_step``, ``pi_step``, ``step_plant``), so the two must agree bit
for bit on every trace field. The run loop steps the plant without
``step_plant``, from the products B_aug @ u it shares with the filter and
D @ d over the whole grid, so this is also what pins the two plant steps to
each other.
"""

import numpy as np
import pytest

from microfreq.baselines import pi_all_units_config, pi_du_bess_config, pi_step
from microfreq.der_models import pv_available_power, reserve_limits, wind_available_power
from microfreq.estimator import estimator_step, initial_estimator_state
from microfreq.lfc_model import IDX_FREQ, N_CONTROLS, OUTPUT_STATE_INDICES, build_plant, step_plant
from microfreq.mpc import active_units, build_prediction_matrices, control_step, out_of_band_units
from microfreq.numerics import QpInfeasibleError
from microfreq.profiles import PROFILE_KINDS
from microfreq.simulate import CONTROLLER_KINDS, RunConfig, make_scenario, run_scenario
from qp_reference import sample_diagnostics

TRACE_ARRAYS = ("t", "freq", "commands", "outputs", "disturbances", "d_hat",
                "limits_lo", "limits_hi", "binding", "objective")


def reference_run(scenario, config):
    """One sample at a time, every per-sample quantity rebuilt from scratch.
    Returns the trace fields as a dict."""
    params = config.params
    profiles = scenario.profiles
    model = build_plant(params, scenario.Ts)
    n = scenario.n_steps
    p_wt = np.array([[wind_available_power(profiles.v_w[i, k], config.wind, config.deload)
                      for k in range(n + 1)] for i in range(2)])
    p_pv = np.array([[pv_available_power(profiles.g_eff[i, k], profiles.t_amb[k], config.pv,
                                         config.deload)
                      for k in range(n + 1)] for i in range(2)])
    sb = params.s_base
    disturbances = np.column_stack([
        profiles.load_pu,
        (p_pv[0, 0] - p_pv[0]) / sb,
        (p_pv[1, 0] - p_pv[1]) / sb,
        (p_wt[0, 0] - p_wt[0]) / sb,
        (p_wt[1, 0] - p_wt[1]) / sb,
    ])

    controller = scenario.controller
    pred = build_prediction_matrices(model, config.mpc) if controller == "mpc" else None
    pi_config = None
    if controller == "pi_all":
        pi_config = pi_all_units_config(params, config.pi_kp, config.pi_ki)
    elif controller == "pi_dubess":
        pi_config = pi_du_bess_config(params, config.pi_kp, config.pi_ki)
    est = initial_estimator_state(config.estimator)
    integral = 0.0
    noise_rng = np.random.default_rng([scenario.seed, 9001])
    x = np.zeros(model.A.shape[0])
    u_prev = np.zeros(N_CONTROLS)
    rows = {name: [] for name in TRACE_ARRAYS}
    max_kkt, aborted_at = 0.0, None

    for k in range(n):
        freq = x[IDX_FREQ]
        y = freq
        if config.measurement_noise_std > 0.0:
            y = freq + noise_rng.normal(scale=config.measurement_noise_std)
        est = estimator_step(est, u_prev, y, model, config.estimator)
        limits = reserve_limits(p_wt[0, k], p_wt[1, k], p_pv[0, k], p_pv[1, k],
                                config.dispatch_du_kw, config.dispatch_bess_kw, params,
                                config.deload)
        if controller == "mpc":
            drifted = out_of_band_units(limits, u_prev)
            try:
                result = control_step(est.delta_x, est.delta_d, y, u_prev, limits.lo, limits.hi,
                                      pred)
            except QpInfeasibleError:
                aborted_at = k
                break
            u = result.command
            diagnostics = sample_diagnostics(result, u_prev, limits.lo, limits.hi, pred)
            binding = active_units(diagnostics.qp_active, config.mpc.m) | drifted
            objective = diagnostics.objective
            max_kkt = max(max_kkt, max(diagnostics.kkt_residuals))
        else:
            integral, u = pi_step(integral, y, limits.lo.tolist(), limits.hi.tolist(), pi_config,
                                  scenario.Ts)
            u = np.array(u)
            at_bound = (u <= limits.lo + 1e-15) | (u >= limits.hi - 1e-15)
            binding = at_bound & pi_config.participating
            objective = 0.0
        for name, value in (("t", profiles.t[k]), ("freq", freq), ("commands", u),
                            ("outputs", x[list(OUTPUT_STATE_INDICES)]),
                            ("disturbances", disturbances[k]), ("d_hat", est.d_hat),
                            ("limits_lo", limits.lo), ("limits_hi", limits.hi),
                            ("binding", binding.astype(int)), ("objective", objective)):
            rows[name].append(value)
        x = step_plant(model, x, u, disturbances[k])
        u_prev = u
    else:
        for name, value in (("t", profiles.t[n]), ("freq", x[IDX_FREQ]), ("commands", u_prev),
                            ("outputs", x[list(OUTPUT_STATE_INDICES)]),
                            ("disturbances", disturbances[n]), ("d_hat", est.d_hat),
                            ("limits_lo", limits.lo), ("limits_hi", limits.hi),
                            ("binding", np.zeros(N_CONTROLS, dtype=int)), ("objective", 0.0)):
            rows[name].append(value)

    fields = {name: np.array(values) for name, values in rows.items()}
    fields["aborted_at"] = aborted_at
    fields["max_kkt_residual"] = max_kkt
    return fields


def assert_trace_matches_reference(trace, reference):
    for name in TRACE_ARRAYS:
        got, want = getattr(trace, name), reference[name]
        assert np.array_equal(got, want), name
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert trace.aborted_at == reference["aborted_at"]
    assert trace.max_kkt_residual == reference["max_kkt_residual"]


@pytest.mark.parametrize("kind", PROFILE_KINDS)
@pytest.mark.parametrize("controller", CONTROLLER_KINDS)
def test_prepared_run_matches_reference_loop(kind, controller):
    # 36 s covers the step kind's first load event at 30 s.
    scenario = make_scenario(kind, controller, seed=3, duration=36.0)
    config = RunConfig()
    assert_trace_matches_reference(run_scenario(scenario, config), reference_run(scenario, config))


@pytest.mark.parametrize("controller", CONTROLLER_KINDS)
def test_prepared_run_matches_reference_loop_with_measurement_noise(controller):
    scenario = make_scenario("rapid", controller, seed=5, duration=36.0)
    config = RunConfig(measurement_noise_std=2e-5)
    assert_trace_matches_reference(run_scenario(scenario, config), reference_run(scenario, config))
