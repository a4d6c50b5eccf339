"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The controller-comparison criteria share one cached sweep
(3 scenario kinds x 5 seeds x 3 controllers), each kind's cells one
lockstep batch (``run_cells``), as ``microfreq sweep`` steps them. The step
kind draws nothing from its seed and the sweep runs without measurement
noise, so its five step cells are one case with identical traces.
"""

import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from microfreq.der_models import (
    BETZ_LIMIT,
    default_pv_params,
    default_wind_params,
    power_coefficient,
    pv_available_power,
    wind_available_power,
)
from microfreq.estimator import (
    default_estimator_config,
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
    step_plant,
)
from microfreq.der_models import ReserveLimits
from microfreq.mpc import MpcConfig, build_prediction_matrices
from microfreq.numerics import solve_qp_info
from microfreq.profiles import NOMINAL_AMBIENT_C, ProfileSet, generate_profiles
from microfreq.simulate import (
    RunConfig,
    compute_metrics,
    make_scenario,
    run_cells,
    run_scenario,
    write_trace_csv,
)

from qp_reference import banded_step, free_response, mpc_gain, sample_diagnostics
from test_numerics import enumerate_qp_minimizer, random_feasible_qp

PARAMS = MicrogridParams()
MODEL = build_plant(PARAMS)
SEEDS = (0, 1, 2, 3, 4)
KINDS = ("step", "moderate", "rapid")
CONTROLLERS = ("mpc", "pi_all", "pi_dubess")


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}", flush=True)
    assert ok, f"acceptance {criterion}: {detail}"


class SweepCell:
    def __init__(self, trace):
        self.metrics = compute_metrics(trace)
        self.max_kkt = trace.max_kkt_residual
        self.renewable_binding_steps = int(trace.binding[:, :4].sum())
        self.violations = self.metrics.constraint_violations
        self.aborted = trace.aborted_at


@pytest.fixture(scope="module")
def sweep():
    cells, config = {}, RunConfig()
    for kind in KINDS:
        batch = [make_scenario(kind, CONTROLLERS[0], seed) for seed in SEEDS]
        for seed, traces in zip(SEEDS, run_cells(batch, config), strict=True):
            for trace in traces:
                cells[(kind, seed, trace.controller)] = SweepCell(trace)
    return cells


def test_criterion_1_controller_ordering_and_ratio(sweep):
    worst_ratio = 0.0
    ordered = True
    for kind in KINDS:
        for seed in SEEDS:
            mpc = sweep[(kind, seed, "mpc")].metrics
            pa = sweep[(kind, seed, "pi_all")].metrics
            pd = sweep[(kind, seed, "pi_dubess")].metrics
            ordered &= mpc.freq_std < pa.freq_std < pd.freq_std
            ordered &= mpc.max_abs_freq_dev < pa.max_abs_freq_dev < pd.max_abs_freq_dev
            worst_ratio = max(worst_ratio, mpc.max_abs_freq_dev / pa.max_abs_freq_dev)

    start = time.perf_counter()
    run_scenario(make_scenario("moderate", "mpc", 99))
    elapsed = time.perf_counter() - start

    ok = ordered and worst_ratio <= 0.55 and elapsed < 5.0
    report(
        "1 (ordering/ratio/runtime)",
        ok,
        f"strict ordering mpc<pi_all<pi_dubess on std and max dev over "
        f"{len(KINDS) * len(SEEDS)} cells={ordered}, worst max-dev ratio "
        f"{worst_ratio:.3f} <= 0.55, 900-step run {elapsed:.2f}s < 5s",
    )


def test_criterion_2_severe_fluctuation_amplification(sweep):
    ratios = {}
    for kind in ("moderate", "rapid"):
        vals = [
            sweep[(kind, seed, "pi_all")].metrics.freq_std
            / sweep[(kind, seed, "mpc")].metrics.freq_std
            for seed in SEEDS
        ]
        ratios[kind] = float(np.mean(vals))
    ok = ratios["rapid"] >= ratios["moderate"]
    report(
        "2 (severe-fluctuation amplification)",
        ok,
        f"seed-averaged std improvement ratio rapid {ratios['rapid']:.2f} >= "
        f"moderate {ratios['moderate']:.2f}",
    )


def test_criterion_3_discretization_oracle():
    worst = 0.0

    def integrate(x0, u, d):
        def rhs(_, x):
            return MODEL.Ac @ x + MODEL.Bc @ u + MODEL.Dc @ d

        sol = solve_ivp(rhs, (0.0, MODEL.Ts), x0, rtol=1e-12, atol=1e-14, method="DOP853")
        return sol.y[:, -1]

    for i in range(N_STATES):
        e = np.zeros(N_STATES)
        e[i] = 1.0
        worst = max(worst, np.abs(
            integrate(e, np.zeros(N_CONTROLS), np.zeros(N_DISTURBANCES)) - MODEL.A[:, i]
        ).max())
    for j in range(N_CONTROLS):
        e = np.zeros(N_CONTROLS)
        e[j] = 1.0
        worst = max(worst, np.abs(
            integrate(np.zeros(N_STATES), e, np.zeros(N_DISTURBANCES)) - MODEL.B[:, j]
        ).max())
    for j in range(N_DISTURBANCES):
        e = np.zeros(N_DISTURBANCES)
        e[j] = 1.0
        worst = max(worst, np.abs(
            integrate(np.zeros(N_STATES), np.zeros(N_CONTROLS), e) - MODEL.D[:, j]
        ).max())
    ok = worst <= 1e-7
    report("3 (discretization oracle)", ok,
           f"worst column-impulse mismatch {worst:.2e} <= 1e-7")


def test_criterion_4_qp_oracle_and_mpc_kkt(sweep):
    rng = np.random.default_rng(20240)
    worst_gap = 0.0
    for _ in range(200):
        problem = random_feasible_qp(rng, n_max=4, q_max=6)
        x, lam, _ = solve_qp_info(problem, tol=1e-10)
        ref = enumerate_qp_minimizer(problem.H, problem.f, problem.Cu, problem.b)
        worst_gap = max(worst_gap, float(np.abs(x - ref).max()))
    worst_kkt = max(
        sweep[(kind, seed, "mpc")].max_kkt for kind in KINDS for seed in SEEDS
    )
    ok = worst_gap <= 1e-6 and worst_kkt <= 1e-8
    report(
        "4 (QP oracle / MPC KKT)",
        ok,
        f"200-problem enumeration gap {worst_gap:.2e} <= 1e-6, "
        f"sweep-wide MPC KKT residual {worst_kkt:.2e} <= 1e-8",
    )


def test_criterion_5_unconstrained_gain_equivalence():
    config = MpcConfig()
    pred = build_prediction_matrices(MODEL, config)
    K = mpc_gain(pred)
    est_config = default_estimator_config()
    est = initial_estimator_state(est_config)
    profiles = generate_profiles("moderate", seed=0, duration=180.0)
    # Bands of +-1 p.u., far beyond any move of this profile.
    wide = ReserveLimits(lo=-np.ones(N_CONTROLS), hi=np.ones(N_CONTROLS))
    x = np.zeros(N_STATES)
    u_prev = np.zeros(N_CONTROLS)
    worst = 0.0
    active_rows = 0
    for k in range(900):
        y = x[IDX_FREQ]
        est = estimator_step(est, u_prev, y, MODEL, est_config)
        result = banded_step(est.delta_x, est.delta_d, y, u_prev, wide.lo, wide.hi, pred)
        diagnostics = sample_diagnostics(result, u_prev, wide.lo, wide.hi, pred)
        reference = K @ (0.0 - free_response(pred, est.delta_x, est.delta_d, y))
        worst = max(worst, float(np.abs(diagnostics.increments - reference).max()))
        active_rows += int(diagnostics.qp_active.sum())
        u_prev = result.command
        d = np.zeros(N_DISTURBANCES)
        d[0] = profiles.load_pu[k]
        x = step_plant(MODEL, x, u_prev, d)
    ok = worst <= 1e-9 and active_rows == 0
    report("5 (gain equivalence)", ok,
           f"wide-band control vs closed-form gain, worst gap {worst:.2e} <= 1e-9 and "
           f"{active_rows} active QP rows over 900 steps")


def _offset_free_profiles(duration):
    n = int(round(duration / 0.2)) + 1
    t = np.arange(n) * 0.2
    load = np.where(t >= 10.0 - 1e-9, 0.1, 0.0)
    return ProfileSet(
        t=t, load_pu=load,
        v_w=np.full((2, n), 12.0),
        g_eff=np.full((2, n), 1000.0),
        t_amb=np.full(n, NOMINAL_AMBIENT_C),
    )


def test_criterion_6_offset_free_regulation():
    details = []
    ok = True
    for controller, budget in (("mpc", 60.0), ("pi_all", 120.0), ("pi_dubess", 120.0)):
        profiles = _offset_free_profiles(10.0 + budget + 20.0)
        trace = run_scenario(make_scenario("step", controller, 0, profiles=profiles))
        after = trace.t > 10.0 + budget
        worst = float(np.abs(trace.freq[after]).max())
        ok &= worst < 1e-4
        details.append(f"{controller} |df|<1e-4 within {budget:.0f}s (worst after: {worst:.2e})")
    report("6 (offset-free regulation)", ok, "; ".join(details))


def test_criterion_7_estimator_convergence():
    config = default_estimator_config()
    est = initial_estimator_state(config)
    x = np.zeros(N_STATES)
    u = np.zeros(N_CONTROLS)
    d = np.zeros(N_DISTURBANCES)
    d[0] = 0.1
    d_errors, innovations = [], []
    for k in range(300):
        est = estimator_step(est, u, x[IDX_FREQ], MODEL, config)
        d_errors.append(abs(est.d_hat - 0.1))
        innovations.append(abs(est.innovation))
        x = step_plant(MODEL, x, u, d)
    within_2pct_at = next(
        (k for k in range(300) if d_errors[k] <= 0.002 and max(d_errors[k:]) <= 0.002), None
    )
    late_innovation = max(innovations[150:])
    ok = within_2pct_at is not None and within_2pct_at * 0.2 <= 10.0 and late_innovation <= 1e-6
    report(
        "7 (estimator convergence)",
        ok,
        f"0.1 p.u. disturbance within 2% at t={0.0 if within_2pct_at is None else within_2pct_at * 0.2:.1f}s <= 10s, "
        f"post-transient innovation {late_innovation:.2e} <= 1e-6",
    )


def test_criterion_8_constraint_audit(sweep):
    total_violations = sum(cell.violations for cell in sweep.values())
    rapid_binding = all(
        sweep[("rapid", seed, "mpc")].renewable_binding_steps > 0 for seed in SEEDS
    )
    ok = total_violations == 0 and rapid_binding
    report(
        "8 (constraint audit)",
        ok,
        f"violations > 1e-9 across all sweep runs: {total_violations}; "
        f"rapid MPC runs with binding wind/PV limits: {rapid_binding}",
    )


def test_criterion_9_physics_bounds():
    wind = default_wind_params()
    pv = default_pv_params()
    cp_ok = True
    for lam in np.linspace(0.5, 15.0, 100):
        for beta in np.linspace(0.0, 20.0, 20):
            cp = power_coefficient(lam, beta, wind)
            cp_ok &= 0.0 <= cp <= BETZ_LIMIT
    rng = np.random.default_rng(909)
    deload_ok = True
    for _ in range(1000):
        deload = rng.uniform(0.0, 0.99)
        if rng.random() < 0.5:
            v = rng.uniform(0.0, 25.0)
            deload_ok &= (
                wind_available_power(v, wind, deload)
                <= wind_available_power(v, wind, 0.0) + 1e-12
            )
        else:
            g = rng.uniform(0.0, 1200.0)
            t_a = rng.uniform(-10.0, 45.0)
            deload_ok &= (
                pv_available_power(g, t_a, pv, deload)
                <= pv_available_power(g, t_a, pv, 0.0) + 1e-12
            )
    ok = cp_ok and deload_ok
    report(
        "9 (physics bounds)",
        ok,
        f"Cp within [0, 16/27] on 100x20 grid: {cp_ok}; deloaded <= MPPT on 1000 draws: {deload_ok}",
    )


def test_criterion_10_determinism(tmp_path):
    paths = []
    for label in ("a", "b"):
        trace = run_scenario(make_scenario("rapid", "mpc", 5), RunConfig())
        path = tmp_path / f"{label}.csv"
        write_trace_csv(trace, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report("10 (determinism)", identical,
           "repeated identical runs produce bit-identical trace files")
