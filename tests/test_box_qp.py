"""The box-constrained QP solver and the controller's use of it.

``microfreq.numerics.BoxQp`` solves  min 1/2 v'H v + g'v  s.t.
lo <= v <= hi  by the primal-dual active-set method with one cached affine
law per active set; the solver tests reach its iteration through
``qp_reference.box_solve``, which first finds the violated bounds, as the
controller does. Its oracle is the enumeration QP solver on the same
box written as the rows [I; -I] v >= [lo; -hi] (``qp_reference.box_rows``).
The controller falls back to the dual active-set solver on a QpProblem of
the same H and those rows when the iteration reaches its cap, and the law
cache must not make a sample's answer depend on which samples came before
it. A run reports the box QP's KKT residuals from the bounds and their
multipliers, with the bits of the per-sample formula ``qp_reference.box_kkt``
(``test_step_diagnostics.py``); the row form's residuals are that formula's
bit-for-bit oracle, and the increment QP's residuals of the same answer
bound them. The solver must also give the bytes of its previous version
(``box_qp_reference.BoxQp``), iteration counts, give-ups at the cap and
infeasible bounds included.
"""

from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import microfreq.mpc
import microfreq.numerics
import microfreq.simulate
from microfreq.der_models import ReserveLimits
from microfreq.lfc_model import build_plant
from microfreq.mpc import MpcConfig, build_constraints, build_prediction_matrices
from microfreq.numerics import BoxQp, QpInfeasibleError, QpProblem, kkt_residuals, solve_qp_info
from microfreq.simulate import RunConfig, make_scenario, run_scenario
from box_qp_reference import BoxQp as ReferenceBoxQp
from qp_reference import (
    banded_step,
    box_kkt,
    box_rows,
    box_solve,
    free_response,
    hessian,
    increment_rows,
    linear_map,
    row_multipliers,
    sample_bands,
    sample_diagnostics,
)
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
    v_unc = -box.H_inv @ g
    lo = draw(hnp.arrays(float, n, elements=_entries))
    width = draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])))
    # 0: as drawn; 1: lower bound on v_unc; 2: upper bound on v_unc.
    on_bound = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    lo = np.where(on_bound == 1, v_unc, np.where(on_bound == 2, v_unc - width, lo))
    hi = np.where(on_bound == 2, v_unc, lo + width)
    return box, g, v_unc, lo, hi


def box_case(Hv, g, lo, hi):
    """(box, g, v_unc, lo, hi) as ``box_qps`` draws them."""
    box = BoxQp(np.array(Hv))
    g = np.array(g)
    return box, g, -box.H_inv @ g, np.array(lo), np.array(hi)


# Two Hv on which the iteration cycles, found by a random search of the
# strategy's space: about 15 draws in 200 000 give None, too few for the
# examples hypothesis runs to meet one.
CYCLING_CASES = (
    box_case([[16.67, -15.79, 10.42], [-15.79, 16.759999999999998, -10.03], [10.42, -10.03, 7.68]],
             [-0.3, -2.9, -0.5], [-0.7, 0.1, 0.8], [-0.6, 1.1, 1.3]),
    box_case([[19.45, 10.410000000000002, -0.2300000000000011, 16.22],
              [10.410000000000002, 9.18, -3.1099999999999994, 4.54],
              [-0.2300000000000011, -3.1099999999999994, 18.419999999999998, 6.989999999999998],
              [16.22, 4.54, 6.989999999999998, 20.81]],
             [-2.2, -0.2, -0.1, 1.4], [-1.6, -1.7, -0.1, -1.3],
             [-0.6000000000000001, 1.3, 0.0, 1.7]),
)


@settings(max_examples=60)
@given(box_qps())
@example(CYCLING_CASES[0])
@example(CYCLING_CASES[1])
def test_box_solver_matches_enumeration_oracle(data):
    box, g, v_unc, lo, hi = data
    Cu, b = box_rows(lo, hi)
    problem = QpProblem(box.H, g, Cu, b)
    solved = box_solve(box, v_unc, np.concatenate((lo, hi)), 1e-10)
    if solved is None:
        # The iteration may cycle on an Hv that is not an M-matrix; the
        # controller then hands the same problem to the dual active set.
        v, rows, _ = solve_qp_info(problem, 1e-10)
    else:
        v, lam, _ = solved
        rows = row_multipliers(lam)
    ref = enumerate_qp_minimizer(box.H, g, Cu, b)
    assert ref is not None
    assert np.abs(v - ref).max() <= ORACLE_GAP
    assert max(kkt_residuals(problem, v, rows)) <= KKT_TOL


@pytest.mark.parametrize("data", CYCLING_CASES, ids=["n3", "n4"])
def test_box_solver_gives_up_on_cycling_hessians(data):
    box, g, v_unc, lo, hi = data
    assert box_solve(box, v_unc, np.concatenate((lo, hi)), 1e-10) is None


def test_box_solver_returns_the_unconstrained_minimizer_inside_the_box():
    box = BoxQp(np.array([[2.0, 0.5], [0.5, 1.0]]))
    v_unc = np.array([0.3, -0.2])
    v, lam, iterations = box_solve(box, v_unc, np.array([-1.0, -1.0, 1.0, 1.0]), 1e-10)
    assert v is v_unc and iterations == 0 and not lam.any()
    assert not box.laws


def test_box_qp_rejects_bad_hessians():
    with pytest.raises(ValueError, match="H is not symmetric"):
        BoxQp(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="H is not positive definite"):
        BoxQp(np.diag([2.0, -1.0]))


def test_box_solver_gives_up_on_crossed_bounds():
    box = BoxQp(np.eye(3))
    lo, hi = np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.0])
    with pytest.raises(QpInfeasibleError, match="lower bound 1 exceeds its upper bound by 1.000e") as err:
        box_solve(box, np.array([0.0, 5.0, 5.0]), np.concatenate((lo, hi)), 1e-10)
    assert err.value.row == 1


# The default config's Hv (18 x 18; not an M-matrix: off-diagonal entries up
# to +18.3).
DEFAULT_HV = build_prediction_matrices(MODEL, MpcConfig()).box.H
_band = st.floats(-0.3, 0.3, allow_subnormal=False)


@st.composite
def default_hv_boxes(draw):
    """The default Hv with a sample's box as the controller builds it: the
    m blocks of band_lo - u_prev, then m of band_hi - u_prev, in p.u.; in
    some draws one band crosses. Each entry of v_unc is drawn relative to
    its box, from half a width below to half a width above it, and some sit
    on a lower bound."""
    nu = 6
    m = DEFAULT_HV.shape[0] // nu
    band_lo = draw(hnp.arrays(float, nu, elements=_band))
    width = draw(hnp.arrays(float, nu, elements=st.sampled_from([0.0, 0.01, 0.05, 0.3])))
    if draw(st.integers(0, 9)) == 5:
        width[draw(st.integers(0, nu - 1))] = -0.01
    u_prev = draw(hnp.arrays(float, nu, elements=_band))
    lo, hi = np.tile(band_lo - u_prev, m), np.tile(band_lo + width - u_prev, m)
    place = draw(hnp.arrays(float, nu * m, elements=st.sampled_from([-0.5, 0.0, 0.3, 1.0, 1.5]),
                            fill=st.nothing()))
    return DEFAULT_HV, lo + place * (hi - lo), lo, hi


def random_boxes():
    """``box_qps`` with Hv that are not M-matrices (a positive off-diagonal
    entry), as (Hv, v_unc, lo, hi)."""
    return box_qps().map(lambda data: (data[0].H, *data[2:])).filter(
        lambda data: (data[0] - np.diag(np.diag(data[0])) > 0).any())


CROSSED_CASE = (np.eye(3), np.array([0.0, 5.0, 5.0]), np.array([0.0, 1.0, 2.0]),
                np.array([1.0, 0.0, 0.0]))


@settings(max_examples=150)
@given(st.one_of(random_boxes(), default_hv_boxes()),
       st.sampled_from([0, 1, 2, microfreq.numerics.BOX_QP_MAX_ITERATIONS]))
@example((CYCLING_CASES[0][0].H, *CYCLING_CASES[0][2:]), microfreq.numerics.BOX_QP_MAX_ITERATIONS)
@example((CYCLING_CASES[1][0].H, *CYCLING_CASES[1][2:]), 0)
@example(CROSSED_CASE, microfreq.numerics.BOX_QP_MAX_ITERATIONS)
def test_box_solver_matches_its_previous_version(data, cap):
    # Each solve has the bytes of v and lam, the iteration count, the
    # give-up at the cap and the infeasible bound of the old solver, on a
    # cold law cache and then on a warm one.
    H, v_unc, lo, hi = data
    box, reference = BoxQp(H), ReferenceBoxQp(H)
    tol = 1e-10 * max(1.0, np.abs(np.concatenate((lo, hi))).max())
    with mock.patch.object(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", cap):
        for _ in range(2):
            assert_same_solve(box, reference, v_unc, lo, hi, tol)
        assert cap or not box.laws


def assert_same_solve(box, reference, v_unc, lo, hi, tol):
    try:
        want = reference.solve(v_unc, lo, hi, tol)
    except QpInfeasibleError as err:
        with pytest.raises(QpInfeasibleError) as got:
            box_solve(box, v_unc, np.concatenate((lo, hi)), tol)
        assert got.value.row == err.row and str(got.value) == str(err)
        return
    got = box_solve(box, v_unc, np.concatenate((lo, hi)), tol)
    if want is None:
        assert got is None
        return
    v, lam, iterations = got
    assert v.tobytes() == want[0].tobytes() and lam.tobytes() == want[1].tobytes()
    assert iterations == want[2]


def test_box_solver_gives_up_at_a_zero_cap(monkeypatch):
    # A sample that binds returns None at once at cap 0, in both solvers; one
    # that binds nothing is still solved.
    monkeypatch.setattr(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", 0)
    box, reference = BoxQp(DEFAULT_HV), ReferenceBoxQp(DEFAULT_HV)
    lo, hi = np.full(18, -0.1), np.full(18, 0.1)
    binding = np.linspace(-0.2, 0.2, 18)
    assert box_solve(box, binding, np.concatenate((lo, hi)), 1e-10) is None
    assert reference.solve(binding, lo, hi, 1e-10) is None
    inside = binding / 4
    assert box_solve(box, inside, np.concatenate((lo, hi)), 1e-10)[2] == 0


@settings(max_examples=60)
@given(box_qps())
@example(CYCLING_CASES[0])
@example(CYCLING_CASES[1])
def test_box_kkt_residuals_equal_the_rows_residuals(data):
    # The residuals of a box answer, from the bounds and their multipliers
    # (``box_kkt``), are bit for bit those of the same answer on the rows
    # [I; -I] v >= [lo; -hi] with the multipliers split by sign: for the
    # iteration's answer and for the fallback's, its rows' multipliers
    # mapped back as the controller maps them.
    box, g, v_unc, lo, hi = data
    n = box.n
    Cu, b = box_rows(lo, hi)
    problem = QpProblem(box.H, g, Cu, b)
    answers = []
    solved = box_solve(box, v_unc, np.concatenate((lo, hi)), 1e-10)
    if solved is not None:
        answers.append(solved[:2])
    cap = microfreq.numerics.BOX_QP_MAX_ITERATIONS
    microfreq.numerics.BOX_QP_MAX_ITERATIONS = 0
    try:
        capped = box_solve(box, v_unc, np.concatenate((lo, hi)), 1e-10)
    finally:
        microfreq.numerics.BOX_QP_MAX_ITERATIONS = cap
    if capped is None:
        v, rows, _ = solve_qp_info(problem, 1e-10)
        answers.append((v, rows[:n] - rows[n:]))
    else:
        # No bound is violated at v_unc: the cap is never reached.
        assert capped[2] == 0 and solved[2] == 0
    for v, lam in answers:
        slack, residuals = box_kkt(box.H, v, g, lam, lo, hi)
        assert np.array_equal(slack, Cu @ v - b)
        assert np.array(residuals).tobytes() == np.array(
            kkt_residuals(problem, v, row_multipliers(lam))).tobytes()


# ------------------------------------------------------- controller path


def binding_samples(seed, count):
    """(dx, dd, y, u_prev, band_lo, band_hi) of the first ``count`` samples
    of a rapid MPC run that have an active QP row."""
    samples = []
    real = microfreq.simulate.control_step

    def recording(dx, dd, y, u_prev, bands, pred):
        result = real(dx, dd, y, u_prev, bands, pred)
        band_lo, band_hi = sample_bands(bands, pred)
        if sample_diagnostics(result, u_prev, band_lo, band_hi, pred).qp_active.any():
            samples.append((dx, dd, y, u_prev, band_lo, band_hi))
        return result

    microfreq.simulate.control_step = recording
    try:
        run_scenario(make_scenario("rapid", "mpc", seed, duration=60.0))
    finally:
        microfreq.simulate.control_step = real
    assert len(samples) >= count
    return samples[:count]


def result_bytes(result, sample, pred):
    row = sample_diagnostics(result, *sample[3:], pred)
    return (result.command.tobytes(), row.increments.tobytes(), row.qp_active.tobytes(),
            np.float64(row.objective).tobytes(), np.array(row.kkt_residuals).tobytes())


def test_box_solver_answers_every_binding_sample_of_a_run(monkeypatch):
    # A sample iterates only when V_unc violates a bound by more than the
    # tolerance; one that sits within it takes no iteration.
    pred = build_prediction_matrices(MODEL, MpcConfig())
    samples = binding_samples(seed=3, count=150)
    iterate = pred.box.iterate
    iterations = []

    def recording(*args):
        solved = iterate(*args)
        iterations[-1] = None if solved is None else solved[2]
        return solved

    monkeypatch.setattr(pred.box, "iterate", recording)
    for sample in samples:
        iterations.append(0)
        banded_step(*sample, pred)
    assert None not in iterations
    assert max(iterations) <= 6 and sum(iterations) > len(samples)


def test_capped_step_falls_back_to_the_dual_solver(monkeypatch):
    pred = build_prediction_matrices(MODEL, MpcConfig())
    samples = binding_samples(seed=1, count=20)
    uncapped = [banded_step(*sample, pred) for sample in samples]

    problems = []

    def counting(problem, tol):
        problems.append(problem)
        return solve_qp_info(problem, tol)

    monkeypatch.setattr(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", 0)
    monkeypatch.setattr(microfreq.mpc, "solve_qp_info", counting)
    for sample, box_result in zip(samples, uncapped):
        result = banded_step(*sample, pred)
        dx, dd, y, u_prev, band_lo, band_hi = sample
        stacked = pred.sample_map @ np.concatenate((dx, (y, dd)))
        g = stacked[pred.p:pred.p + pred.n_inputs * pred.m]
        Cu, b = box_rows(*build_constraints(ReserveLimits(band_lo, band_hi), u_prev, pred))
        # The fallback writes the sample's box as the rows [I; -I] >= [lo; -hi].
        assert np.array_equal(problems[-1].Cu, Cu) and problems[-1].b.tobytes() == b.tobytes()
        v = solve_qp_info(QpProblem(pred.box.H, g, Cu, b), tol=1e-10)[0]
        row = sample_diagnostics(result, u_prev, band_lo, band_hi, pred)
        box_row = sample_diagnostics(box_result, u_prev, band_lo, band_hi, pred)
        assert row.increments.tobytes() == (pred.T_inv @ v).tobytes()
        increments = box_row.increments
        assert np.abs(row.increments - increments).max() <= 1e-10
        assert np.array_equal(row.qp_active, box_row.qp_active)
        assert max(row.kkt_residuals) <= KKT_TOL
    # Every sample here binds, so every one reached the (zero) cap.
    assert len(problems) == len(samples)


def test_law_cache_never_changes_an_answer():
    samples = binding_samples(seed=1, count=80)
    cold = build_prediction_matrices(MODEL, MpcConfig())
    in_order = [result_bytes(banded_step(*sample, cold), sample, cold) for sample in samples]

    warm = build_prediction_matrices(MODEL, MpcConfig())
    for sample in binding_samples(seed=2, count=80):
        banded_step(*sample, warm)
    warmed_laws = len(warm.box.laws)
    reversed_order = [result_bytes(banded_step(*sample, warm), sample, warm)
                      for sample in reversed(samples)]

    assert warmed_laws > 0 and len(cold.box.laws) > 1
    assert reversed_order[::-1] == in_order
    for sample, expected in zip(samples[:10], in_order):
        fresh = build_prediction_matrices(MODEL, MpcConfig())
        assert result_bytes(banded_step(*sample, fresh), sample, fresh) == expected


@pytest.mark.parametrize("seed", [0, 1, 2, 4])
def test_box_kkt_residuals_match_the_increment_qp(seed):
    # The increment QP over dU = T^-1 v has rows [T; -T] and linear term
    # f = T' g, so its stationarity residual is T' times the box QP's:
    # H dU + f - [T; -T]' lam = T' (Hv v + g - [I; -I]' lam), at most m times
    # larger in the max norm.
    pred = build_prediction_matrices(MODEL, MpcConfig())
    samples = binding_samples(seed=seed, count=60)
    for dx, dd, y, u_prev, band_lo, band_hi in samples:
        result = banded_step(dx, dd, y, u_prev, band_lo, band_hi, pred)
        v, lam = result.v, result.lam
        row = sample_diagnostics(result, u_prev, band_lo, band_hi, pred)
        assert row.qp_active.any()
        assert max(row.kkt_residuals) <= KKT_TOL
        f = linear_map(pred) @ free_response(pred, dx, dd, y)
        _, b = box_rows(*build_constraints(ReserveLimits(band_lo, band_hi), u_prev, pred))
        increment = kkt_residuals(QpProblem(hessian(pred), f, increment_rows(pred), b),
                                  pred.T_inv @ v, row_multipliers(lam))
        assert max(increment) <= KKT_TOL
        assert increment[0] <= pred.m * row.kkt_residuals[0] + 1e-12
