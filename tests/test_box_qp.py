"""The box-constrained QP solver and the controller's use of it.

``microfreq.numerics.BoxQp`` solves  min 1/2 v'Hv v + g'v  s.t.  lo <= v <= hi
by the primal-dual active-set method with one cached affine law per active
set. Its oracle is the enumeration QP solver with the bounds written as the
rows Cu = [I; -I]. The controller falls back to the dual active-set solver
when the iteration reaches its cap, and the law cache must not make a
sample's answer depend on which samples came before it.
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import microfreq.mpc
import microfreq.numerics
import microfreq.simulate
from microfreq.lfc_model import build_plant
from microfreq.mpc import MpcConfig, build_constraints, build_prediction_matrices, control_step
from microfreq.numerics import BoxQp, QpProblem, kkt_residuals, solve_qp_info
from microfreq.simulate import RunConfig, make_scenario, run_scenario
from test_numerics import enumerate_qp_minimizer

KKT_TOL = 1e-8
ORACLE_GAP = 1e-6
MODEL = build_plant(RunConfig().params)

_entries = st.integers(-30, 30).map(lambda v: v / 10.0)


@st.composite
def box_qps(draw):
    """Random SPD Hv and a box around random points: some entries have
    lo == hi, and some bounds sit exactly on the unconstrained minimizer."""
    n = draw(st.integers(1, 6))
    M = draw(hnp.arrays(float, (n, n), elements=_entries))
    Hv = M.T @ M + draw(st.floats(0.2, 1.2)) * np.eye(n)
    g = draw(hnp.arrays(float, n, elements=_entries))
    box = BoxQp(Hv)
    v_unc = -box.W @ g
    lo = draw(hnp.arrays(float, n, elements=_entries))
    width = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])))
    # 0: as drawn; 1: lower bound on v_unc; 2: upper bound on v_unc.
    on_bound = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    lo = np.where(on_bound == 1, v_unc, np.where(on_bound == 2, v_unc - width, lo))
    hi = np.where(on_bound == 2, v_unc, lo + width)
    return box, g, v_unc, lo, hi


@settings(max_examples=60)
@given(box_qps())
def test_box_solver_matches_enumeration_oracle(data):
    box, g, v_unc, lo, hi = data
    solved = box.solve(v_unc, lo, hi, 1e-10)
    # The iteration may cycle on an Hv that is not an M-matrix; the caller
    # then falls back (test_capped_step_falls_back_to_the_dual_solver).
    assume(solved is not None)
    v, lam, _ = solved
    n = box.n
    Cu = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([lo, -hi])
    ref = enumerate_qp_minimizer(box.Hv, g, Cu, b)
    assert ref is not None
    assert np.abs(v - ref).max() <= ORACLE_GAP
    rows = np.concatenate([np.maximum(lam, 0.0), np.maximum(-lam, 0.0)])
    assert max(kkt_residuals(QpProblem(box.Hv, g, Cu, b), v, rows)) <= KKT_TOL


def test_box_solver_returns_the_unconstrained_minimizer_inside_the_box():
    box = BoxQp(np.array([[2.0, 0.5], [0.5, 1.0]]))
    v_unc = np.array([0.3, -0.2])
    v, lam, iterations = box.solve(v_unc, np.full(2, -1.0), np.full(2, 1.0), 1e-10)
    assert v is v_unc and iterations == 0 and not lam.any()
    assert not box.laws


def test_box_qp_rejects_bad_hessians():
    with pytest.raises(ValueError, match="Hv is not symmetric"):
        BoxQp(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="Hv is not positive definite"):
        BoxQp(np.diag([2.0, -1.0]))


def test_box_solver_gives_up_on_crossed_bounds():
    box = BoxQp(np.eye(2))
    assert box.solve(np.array([0.0, 5.0]), np.array([0.0, 1.0]), np.array([1.0, 0.0]), 1e-10) is None


# ------------------------------------------------------- controller path


def binding_samples(seed, count):
    """(dx, dd, y, u_prev, limits) of the first ``count`` samples of a rapid
    MPC run that have an active QP row."""
    samples = []
    real = microfreq.simulate.control_step

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        if result.qp_active.any():
            samples.append(args[:5])
        return result

    microfreq.simulate.control_step = recording
    try:
        run_scenario(make_scenario("rapid", "mpc", seed, duration=60.0))
    finally:
        microfreq.simulate.control_step = real
    assert len(samples) >= count
    return samples[:count]


def result_bytes(result):
    return (result.command.tobytes(), result.increments.tobytes(), result.qp_active.tobytes(),
            np.float64(result.objective).tobytes(), np.array(result.kkt_residuals).tobytes())


def test_box_solver_answers_every_binding_sample_of_a_run(monkeypatch):
    pred = build_prediction_matrices(MODEL, MpcConfig())
    samples = binding_samples(seed=3, count=150)
    solve = pred.box.solve
    iterations = []

    def recording(*args):
        solved = solve(*args)
        iterations.append(None if solved is None else solved[2])
        return solved

    monkeypatch.setattr(pred.box, "solve", recording)
    for sample in samples:
        control_step(*sample, pred)
    assert None not in iterations
    assert max(iterations) <= 6 and sum(iterations) > len(samples)


def test_capped_step_falls_back_to_the_dual_solver(monkeypatch):
    pred = build_prediction_matrices(MODEL, MpcConfig())
    samples = binding_samples(seed=1, count=20)
    uncapped = [control_step(*sample, pred) for sample in samples]

    calls = []

    def counting(problem, tol):
        calls.append(1)
        return solve_qp_info(problem, tol)

    monkeypatch.setattr(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", 0)
    monkeypatch.setattr(microfreq.mpc, "solve_qp_info", counting)
    for sample, box_result in zip(samples, uncapped):
        result = control_step(*sample, pred)
        dx, dd, y, u_prev, limits = sample
        stacked = pred.sample_map @ np.concatenate((dx, (y, dd)))
        f = stacked[pred.p:pred.p + pred.n_inputs * pred.m]
        Cu, b = build_constraints(limits, u_prev, pred)
        du = solve_qp_info(QpProblem(pred.H, f, Cu, b, prepared=pred.qp), tol=1e-10)[0]
        assert result.increments.tobytes() == du.tobytes()
        assert np.abs(result.increments - box_result.increments).max() <= 1e-10
        assert np.array_equal(result.qp_active, box_result.qp_active)
        assert max(result.kkt_residuals) <= KKT_TOL
    # Every sample here binds, so every one reached the (zero) cap.
    assert len(calls) == len(samples)


def test_law_cache_never_changes_an_answer():
    samples = binding_samples(seed=1, count=80)
    cold = build_prediction_matrices(MODEL, MpcConfig())
    in_order = [result_bytes(control_step(*sample, cold)) for sample in samples]

    warm = build_prediction_matrices(MODEL, MpcConfig())
    for sample in binding_samples(seed=2, count=80):
        control_step(*sample, warm)
    warmed_laws = len(warm.box.laws)
    reversed_order = [result_bytes(control_step(*sample, warm)) for sample in reversed(samples)]

    assert warmed_laws > 0 and len(cold.box.laws) > 1
    assert reversed_order[::-1] == in_order
    for sample, expected in zip(samples[:10], in_order):
        fresh = build_prediction_matrices(MODEL, MpcConfig())
        assert result_bytes(control_step(*sample, fresh)) == expected
