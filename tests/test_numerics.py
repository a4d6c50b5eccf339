"""Tests for the dense numerics layer (expm, ZOH discretization, QP)."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from microfreq.numerics import (
    QpInfeasibleError,
    QpProblem,
    discretize,
    kkt_residuals,
    matrix_exponential,
    rows_times,
    solve_qp_info,
)


def enumerate_qp_minimizer(H, f, Cu, b, tol=1e-9):
    """Independent QP oracle: enumerate every active-constraint subset, solve
    the equality-constrained KKT system, and keep the feasible KKT point with
    nonnegative multipliers (unique for strictly convex H)."""
    n = H.shape[0]
    q = Cu.shape[0]
    best_x, best_obj = None, np.inf
    for mask in range(2 ** q):
        rows = [i for i in range(q) if (mask >> i) & 1]
        if len(rows) > n:
            continue
        A_s = Cu[rows]
        na = len(rows)
        kkt = np.block([[H, -A_s.T], [A_s, np.zeros((na, na))]])
        rhs = np.concatenate([-f, b[rows]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        x, lam = sol[:n], sol[n:]
        if na and lam.min() < -tol:
            continue
        if q and (Cu @ x - b).min() < -tol:
            continue
        obj = 0.5 * x @ H @ x + f @ x
        if obj < best_obj:
            best_x, best_obj = x, obj
    return best_x


def random_feasible_qp(rng, n_max=4, q_max=6):
    n = int(rng.integers(1, n_max + 1))
    q = int(rng.integers(0, q_max + 1))
    M = rng.normal(size=(n, n))
    H = M.T @ M + (0.2 + rng.random()) * np.eye(n)
    f = rng.normal(size=n)
    Cu = rng.normal(size=(q, n))
    x0 = rng.normal(size=n)
    b = Cu @ x0 - 0.1 - rng.random(q)  # x0 strictly feasible
    return QpProblem(H, f, Cu, b)


# ---------------------------------------------------------------- expm


def test_expm_t_zero_is_identity():
    A = np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0], [2.0, 2.0, -4.0]])
    assert np.allclose(matrix_exponential(A, 0.0), np.eye(3), atol=1e-15)


def test_expm_nilpotent():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    expected = np.array([[1.0, 0.2], [0.0, 1.0]])  # series truncates exactly
    assert np.allclose(matrix_exponential(A, 0.2), expected, atol=1e-15)


@pytest.mark.parametrize("theta", [0.1, 1.0, np.pi / 2, 3.0, 10.0])
def test_expm_rotation_closed_form(theta):
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    got = matrix_exponential(A, theta)
    assert np.abs(got - expected).max() < 1e-12


def test_expm_matches_scipy_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n)) * rng.choice([0.1, 1.0, 5.0])
        got = matrix_exponential(A, 1.0)
        ref = scipy.linalg.expm(A)
        assert np.abs(got - ref).max() < 1e-10 * max(1.0, np.abs(ref).max())


def test_expm_semigroup_property():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.normal(size=(4, 4))
        t1, t2 = rng.random(2) * 2.0
        lhs = matrix_exponential(A, t1) @ matrix_exponential(A, t2)
        rhs = matrix_exponential(A, t1 + t2)
        assert np.abs(lhs - rhs).max() < 1e-9


def test_expm_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_exponential(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        matrix_exponential(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(ValueError):
        matrix_exponential(np.eye(2), -0.1)


# ---------------------------------------------------------------- discretize


def test_discretize_zero_dynamics():
    n, nu = 3, 2
    Bc = np.arange(6, dtype=float).reshape(n, nu)
    A, B, D = discretize(np.zeros((n, n)), Bc, np.zeros((n, 0)), 0.5)
    assert np.allclose(A, np.eye(n), atol=1e-14)
    assert np.allclose(B, 0.5 * Bc, atol=1e-14)
    assert D.shape == (n, 0)


def test_discretize_scalar_closed_form():
    # x' = -10 x + 10 u, Ts = 0.2: A = e^-2, B = 1 - e^-2
    A, B, _ = discretize(np.array([[-10.0]]), np.array([[10.0]]), np.zeros((1, 0)), 0.2)
    assert abs(A[0, 0] - np.exp(-2.0)) < 1e-13
    assert abs(B[0, 0] - (1.0 - np.exp(-2.0))) < 1e-13


def test_discretize_invertible_consistency():
    # For invertible Ac: B = Ac^-1 (A - I) Bc.
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        Ac = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
        Bc = rng.normal(size=(n, 2))
        Ts = 0.1 + rng.random() * 0.4
        A, B, _ = discretize(Ac, Bc, np.zeros((n, 0)), Ts)
        ref = np.linalg.solve(Ac, (A - np.eye(n)) @ Bc)
        assert np.abs(B - ref).max() < 1e-8


def test_discretize_rejects_bad_input():
    with pytest.raises(ValueError):
        discretize(np.eye(2), np.zeros((3, 1)), np.zeros((2, 0)), 0.2)
    with pytest.raises(ValueError):
        discretize(np.eye(2), np.zeros((2, 1)), np.zeros((2, 0)), 0.0)


# ---------------------------------------------------------------- solve_qp_info


def test_qp_unconstrained_minimum():
    x = solve_qp_info(QpProblem(np.array([[2.0]]), np.array([-4.0])))[0]
    assert np.allclose(x, [2.0], atol=1e-12)


def test_qp_clamps_to_active_bound():
    # min x^2 - 4x s.t. x <= 1, written as -x >= -1.
    problem = QpProblem(np.array([[2.0]]), np.array([-4.0]), np.array([[-1.0]]), np.array([-1.0]))
    x = solve_qp_info(problem)[0]
    assert np.allclose(x, [1.0], atol=1e-12)


def test_qp_shared_budget_constraint():
    # min x1^2 + x2^2 - 2x1 - 2x2 s.t. x1 + x2 <= 1 -> symmetric split (0.5, 0.5).
    problem = QpProblem(
        np.diag([2.0, 2.0]), np.array([-2.0, -2.0]), np.array([[-1.0, -1.0]]), np.array([-1.0])
    )
    x = solve_qp_info(problem)[0]
    assert np.allclose(x, [0.5, 0.5], atol=1e-12)


def test_qp_matches_enumeration_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        problem = random_feasible_qp(rng)
        x = solve_qp_info(problem, tol=1e-10)[0]
        ref = enumerate_qp_minimizer(problem.H, problem.f, problem.Cu, problem.b)
        assert ref is not None
        assert np.abs(x - ref).max() < 1e-6


def test_qp_kkt_residuals_small():
    rng = np.random.default_rng(5)
    for _ in range(100):
        problem = random_feasible_qp(rng)
        x, lam, _ = solve_qp_info(problem, tol=1e-10)
        stat, primal, comp = kkt_residuals(problem, x, lam)
        assert stat < 1e-8
        assert primal < 1e-8
        assert comp < 1e-8


def test_qp_beats_random_feasible_samples():
    rng = np.random.default_rng(17)
    problem = random_feasible_qp(rng, n_max=4, q_max=6)
    x = solve_qp_info(problem)[0]
    obj = problem.objective(x)
    width = 2.0 * max(1.0, np.abs(x).max())
    draws = x + rng.uniform(-width, width, size=(1000, problem.n))
    for candidate in draws:
        if problem.q == 0 or (problem.Cu @ candidate - problem.b).min() >= 0:
            assert obj <= problem.objective(candidate) + 1e-9


def test_qp_detects_infeasible_and_reports_row():
    # x >= 1 and -x >= 0 cannot both hold.
    problem = QpProblem(
        np.array([[2.0]]), np.array([0.0]), np.array([[1.0], [-1.0]]), np.array([1.0, 0.0])
    )
    with pytest.raises(QpInfeasibleError) as err:
        solve_qp_info(problem)
    assert err.value.row in (0, 1)


def test_qp_rejects_indefinite_h():
    with pytest.raises(ValueError, match="positive definite"):
        QpProblem(np.array([[2.0, 0.0], [0.0, -1.0]]), np.zeros(2))


def test_qp_rejects_asymmetric_h():
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(np.array([[2.0, 1.0], [0.0, 2.0]]), np.zeros(2))


# ------------------------------------------- products: dot, @, rows_times

# The matrix-vector shapes the lone run takes ``ndarray.dot`` of: A (10 x 10),
# A_aug (11 x 11), B_aug (11 x 6) and the MPC's V_unc rows (18 x 12). The box
# laws keep ``@`` (``BoxQp.iterate``).
DOT_SHAPES = [(10, 10), (11, 11), (11, 6), (18, 12)]
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def matrix_and_rows(draw):
    rows, columns = draw(st.sampled_from(DOT_SHAPES))
    M = draw(arrays(float, (rows, columns), elements=finite))
    return M, draw(arrays(float, (draw(st.integers(1, 3)), columns), elements=finite))


@settings(max_examples=300)
@given(matrix_and_rows())
def test_dot_matmul_and_rows_times_give_the_same_bytes(case):
    # The lone loop takes ``ndarray.dot`` where the batch takes
    # ``rows_times``, and both must give the bytes ``@`` gives, on the
    # kernel the tests run under.
    M, X = case
    stacked = rows_times(M, X)
    for x, row in zip(X, stacked):
        assert M.dot(x).tobytes() == (M @ x).tobytes() == row.tobytes()


@settings(max_examples=100)
@given(arrays(float, (11, 11), elements=finite), arrays(float, (3, 11), elements=finite))
def test_dot_chains_and_inner_products_give_the_same_bytes(M, X):
    # The Riccati step's chains, a transposed right operand included, and
    # the inner products of length 11 (c . z of the filter).
    P = X.T.dot(X)
    assert M.dot(P).dot(M.T).tobytes() == (M @ P @ M.T).tobytes()
    c = X[0]
    assert c.dot(P).dot(c).tobytes() == (c @ P @ c).tobytes()
    for x in X:
        assert c.dot(x).tobytes() == (c @ x).tobytes()
