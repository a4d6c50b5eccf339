"""The controller's QP path against the reference step it replaced.

``microfreq.mpc.control_step`` solves the box QP over the cumulative moves
with the run's BoxQp and its cached active-set laws, and falls back to
``microfreq.numerics.solve_qp_info`` on a QpProblem of the same box QP as
the rows Cu = [I; -I] (H^-1 from one Cholesky factorization, H^-1 Cu' and
the Gram matrix Cu H^-1 Cu').
The reference ``qp_reference.reference_control_step`` solves the increment QP
with the running-sum rows, and with H at every inner iteration, and returns
its answer as the step's record: V = T dU and the increment rows'
multipliers mapped to the bounds'. The run takes both records' binding
flags and KKT residuals after its loop. The two take different rounding
paths, so closed-loop traces agree within a stated tolerance rather than
bit for bit:

- ``freq`` and ``commands`` within 1e-10 p.u. absolute;
- ``binding`` flags and ``aborted_at`` identical;
- each run's worst KKT residual at most 1e-8 (acceptance criterion 4).
"""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import microfreq.simulate
import qp_reference
from microfreq.lfc_model import build_plant
from microfreq.mpc import MpcConfig, build_prediction_matrices
from microfreq.numerics import BoxQp, QpInfeasibleError, QpProblem, kkt_residuals, solve_qp_info
from microfreq.profiles import PROFILE_KINDS
from microfreq.simulate import RunConfig, make_scenario, run_scenario
from test_numerics import enumerate_qp_minimizer

TRACE_ATOL = 1e-10
KKT_TOL = 1e-8
ORACLE_GAP = 1e-6

PRED = build_prediction_matrices(build_plant(RunConfig().params), MpcConfig())

CLOSED_LOOP_CASES = (
    [(kind, seed, 0.0) for kind in PROFILE_KINDS for seed in (0, 1)]
    + [("rapid", 5, 2e-5)]
)


@pytest.mark.parametrize("kind,seed,noise", CLOSED_LOOP_CASES)
def test_closed_loop_matches_reference_solver(kind, seed, noise, monkeypatch):
    scenario = make_scenario(kind, "mpc", seed)
    config = RunConfig(measurement_noise_std=noise)
    prepared = run_scenario(scenario, config)

    calls = []

    def reference(*args, **kwargs):
        calls.append(1)
        return qp_reference.reference_control_step(*args, **kwargs)

    monkeypatch.setattr(microfreq.simulate, "control_step", reference)
    ref = run_scenario(scenario, config)

    assert len(calls) == scenario.n_steps
    assert prepared.aborted_at == ref.aborted_at
    assert np.array_equal(prepared.binding, ref.binding)
    assert np.abs(prepared.freq - ref.freq).max() <= TRACE_ATOL
    assert np.abs(prepared.commands - ref.commands).max() <= TRACE_ATOL
    assert max(prepared.max_kkt_residual, ref.max_kkt_residual) <= KKT_TOL


def box_problem(box):
    """A QpProblem as the controller's fallback builds it: the box QP's H
    and its box as rows, with a sample's linear term and bounds."""
    return QpProblem(box.H, np.ones(box.n), *qp_reference.box_rows(np.zeros(box.n), np.zeros(box.n)))


def test_prepared_arrays_are_read_only():
    box = PRED.box
    for name in ("H", "H_inv"):
        assert not getattr(box, name).flags.writeable, name
    problem = box_problem(box)
    for name in ("H", "Cu", "H_inv", "H_inv_Ct", "gram"):
        assert not getattr(problem, name).flags.writeable, name
    assert not PRED.H.flags.writeable


def test_prepared_products_match_their_definitions():
    box = PRED.box
    n = box.n
    assert np.abs(box.H_inv @ box.H - np.eye(n)).max() < 1e-10
    # The fallback's problem factorizes the same H into the same bits.
    qp = box_problem(box)
    assert qp.H_inv.tobytes() == box.H_inv.tobytes()
    assert np.abs(qp.H_inv_Ct - np.linalg.solve(qp.H, qp.Cu.T)).max() < 1e-10
    assert np.abs(qp.gram - qp.Cu @ np.linalg.solve(qp.H, qp.Cu.T)).max() < 1e-10
    # The box Hessian is T^-T H T^-1, H the increment QP's, so its inverse
    # is T H^-1 T' with H^-1 from the increment QP's own QpProblem.
    T = qp_reference.running_sum(PRED)
    increment = QpProblem(PRED.H, np.zeros(n), qp_reference.increment_rows(PRED))
    W = T @ increment.H_inv @ T.T
    assert np.abs(box.H_inv - W).max() <= 1e-10 * np.abs(W).max()


def test_qp_problem_copies_its_inputs():
    H = np.diag([2.0, 3.0])
    Cu = np.array([[1.0, 1.0]])
    qp = QpProblem(H, [0.0, 0.0], Cu, [1.0])
    box = BoxQp(H)
    assert H.flags.writeable and Cu.flags.writeable
    H[0, 0] = -1.0
    Cu[0, 0] = 5.0
    assert qp.H[0, 0] == 2.0 and qp.Cu[0, 0] == 1.0 and box.H[0, 0] == 2.0


def test_qp_problem_rejects_bad_matrices():
    with pytest.raises(ValueError, match="symmetric"):
        QpProblem(np.array([[2.0, 1.0], [0.0, 2.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="positive definite"):
        QpProblem(np.diag([2.0, -1.0]), np.zeros(2))
    with pytest.raises(ValueError, match="non-finite"):
        QpProblem(np.eye(2), np.zeros(2), np.array([[np.nan, 1.0]]), [0.0])


def test_qp_problem_rejects_non_finite_sample_data():
    x, _, _ = solve_qp_info(QpProblem(np.eye(2), [0.0, 0.0], [[1.0, 0.0]], [1.0]))
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError, match="non-finite"):
        QpProblem(np.eye(2), [np.nan, 0.0], [[1.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        QpProblem(np.eye(2), [0.0, 0.0], [[1.0, 0.0]], [np.inf])


# ------------------------------------------------------- property tests

_entries = st.integers(-30, 30).map(lambda v: v / 10.0)


@st.composite
def feasible_qps(draw):
    """Random SPD H and random rows Cu, with b chosen so that a drawn point
    is strictly feasible."""
    n = draw(st.integers(1, 4))
    q = draw(st.integers(0, 6))
    M = draw(hnp.arrays(float, (n, n), elements=_entries))
    H = M.T @ M + draw(st.floats(0.2, 1.2)) * np.eye(n)
    f = draw(hnp.arrays(float, n, elements=_entries))
    Cu = draw(hnp.arrays(float, (q, n), elements=_entries))
    x0 = draw(hnp.arrays(float, n, elements=_entries))
    margin = draw(hnp.arrays(float, q, elements=st.floats(0.1, 1.1)))
    return H, f, Cu, Cu @ x0 - margin


@given(feasible_qps())
def test_prepared_solver_matches_enumeration_oracle(data):
    H, f, Cu, b = data
    problem = QpProblem(H, f, Cu, b)
    x, lam, _ = solve_qp_info(problem, tol=1e-10)
    ref = enumerate_qp_minimizer(H, f, Cu, b)
    assert ref is not None
    assert np.abs(x - ref).max() <= ORACLE_GAP
    assert max(kkt_residuals(problem, x, lam)) <= KKT_TOL


@given(feasible_qps(), hnp.arrays(float, 4, elements=_entries), st.floats(0.1, 1.0))
def test_prepared_solver_reports_infeasible_rows(data, row, gap):
    # c'x >= beta and -c'x >= gap - beta cannot both hold.
    H, f, Cu, b = data
    n = H.shape[0]
    c = row[:n]
    assume(np.abs(c).max() >= 0.1)
    beta = float(c @ np.ones(n))
    Cu = np.vstack([Cu, c, -c])
    b = np.concatenate([b, [beta, gap - beta]])
    with pytest.raises(QpInfeasibleError) as err:
        solve_qp_info(QpProblem(H, f, Cu, b), tol=1e-10)
    assert 0 <= err.value.row < Cu.shape[0]
