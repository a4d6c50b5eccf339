"""Reference solutions the tests compare the program's QP path against.

``solve_qp_info`` is the general dual active-set QP solver as it stood
before it worked from H^-1 and the Gram matrix: it checks H for positive
definiteness on every call and solves with H on every inner iteration. It
takes the same QpProblem and returns the same (x, lam, info) as
``microfreq.numerics.solve_qp_info``.

``box_rows`` writes a box lo <= v <= hi as the rows [I; -I] v >= [lo; -hi]
of the general QP, and ``row_multipliers`` splits the box's bound
multipliers by sign into those rows' multipliers, so the tests state the
row form of a box without relying on the program's.

``reference_control_step`` is the controller's step as it stood before the
cumulative-move box solver: the increment QP over dU with the running-sum
rows ``increment_rows`` = [T; -T] in its own QpProblem, the right-hand side
b = [lo; -hi] from the box of ``build_constraints`` and the dual active-set
solve, here this module's ``solve_qp_info``. It takes the arguments of
``microfreq.mpc.control_step`` and returns the same MpcStepResult, with the
increment QP's active rows and KKT residuals.

``mpc_gain`` is the controller's closed-form unconstrained gain and
``free_response`` the prediction it acts on, the oracle of every sample on
which no reserve constraint is active.
"""

import numpy as np

from microfreq.mpc import MpcStepResult, build_constraints
from microfreq.numerics import QpInfeasibleError, QpProblem, kkt_residuals


def _check_positive_definite(H):
    # Symmetric factorization succeeds iff H is positive definite.
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise ValueError("H is not positive definite") from None


def solve_qp_info(problem, tol=1e-8):
    """Solve a QpProblem by the dual active-set method (Goldfarb-Idnani).

    Starts at the unconstrained minimizer and adds violated constraints one
    at a time, taking dual steps; finite termination for strictly convex H.
    Returns (x, lam, info) where lam holds the KKT multipliers (one per
    constraint row, zero for inactive rows) and info records the active rows
    and iteration count.

    Raises QpInfeasibleError (with the offending row) if no feasible point
    exists, and ValueError if H is not positive definite.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    H, f, Cu, b = problem.H, problem.f, problem.Cu, problem.b
    n, q = problem.n, problem.q
    _check_positive_definite(H)

    x = np.linalg.solve(H, -f)
    if q == 0:
        return x, np.zeros(0), {"iterations": 0, "active": []}

    active = []          # indices of active constraint rows
    lam_active = []      # multipliers for the active rows
    scale = max(1.0, np.abs(Cu).max(), np.abs(b).max())
    zero_dir_tol = 1e-12 * max(1.0, np.abs(H).max())
    max_iter = 10 * max(q, 1) * max(n, 1) + 100
    iterations = 0

    while True:
        slack = Cu @ x - b
        worst = int(np.argmin(slack))
        if slack[worst] >= -tol * scale:
            break
        p = worst
        lam_p = 0.0

        while True:
            iterations += 1
            if iterations > max_iter:
                violation = float(np.max(b - Cu @ x))
                if violation > 1e-6:
                    raise QpInfeasibleError(p, f"QP iteration cap reached with violation {violation:.3e} on row {p}")
                raise RuntimeError("QP solver failed to converge within the iteration cap")

            n_p = Cu[p]
            Hinv_np = np.linalg.solve(H, n_p)
            if active:
                N = Cu[active].T                      # n x na
                HinvN = np.linalg.solve(H, N)
                G = N.T @ HinvN
                r = np.linalg.solve(G, N.T @ Hinv_np)  # dual step direction
                z = Hinv_np - HinvN @ r                # primal step direction
            else:
                r = np.zeros(0)
                z = Hinv_np

            curvature = n_p @ z
            if curvature <= zero_dir_tol:
                # No primal progress possible; take a pure dual step.
                if r.size == 0 or np.all(r <= 0):
                    raise QpInfeasibleError(p)
                positive = r > 0
                ratios = np.full(r.shape, np.inf)
                ratios[positive] = np.asarray(lam_active)[positive] / r[positive]
                k = int(np.argmin(ratios))
                t1 = ratios[k]
                lam_active = list(np.asarray(lam_active) - t1 * r)
                lam_p += t1
                del active[k], lam_active[k]
                continue

            t2 = -(n_p @ x - b[p]) / curvature        # step to make row p feasible
            if r.size:
                positive = r > 0
                ratios = np.full(r.shape, np.inf)
                ratios[positive] = np.asarray(lam_active)[positive] / r[positive]
                k = int(np.argmin(ratios))
                t1 = ratios[k]
            else:
                t1 = np.inf
                k = -1

            t = min(t1, t2)
            x = x + t * z
            if r.size:
                lam_active = list(np.asarray(lam_active) - t * r)
            lam_p += t

            if t2 <= t1:
                active.append(p)
                lam_active.append(lam_p)
                break
            del active[k], lam_active[k]

    lam = np.zeros(q)
    for idx, row in enumerate(active):
        lam[row] = lam_active[idx]
    return x, lam, {"iterations": iterations, "active": list(active)}


def box_rows(lo, hi):
    """(Cu, b) = ([I; -I], [lo; -hi]): the box lo <= v <= hi as rows Cu v >= b."""
    n = len(lo)
    return np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([lo, -hi])


def row_multipliers(lam):
    """The box multipliers ``lam`` (positive on lower, negative on upper
    bounds) as those of the rows ``box_rows`` builds."""
    return np.concatenate([np.maximum(lam, 0.0), np.maximum(-lam, 0.0)])


def free_response(pred, dx, dd, y):
    """Predicted frequency with all future increments zero, from the
    estimate increments ``dx`` (state) and ``dd`` (aggregate disturbance)."""
    return pred.S_x @ dx + pred.I_vec * y + pred.S_d[:, 0] * dd


def running_sum(pred):
    """T, the block lower-triangular running sum with V = T dU."""
    return np.kron(np.tril(np.ones((pred.m, pred.m))), np.eye(pred.n_inputs))


def increment_rows(pred):
    """Cu = [T; -T]: the reserve bounds as rows on the increments dU."""
    T = running_sum(pred)
    return np.vstack([T, -T])


def reference_control_step(dx, dd, y, u_prev, limits, pred):
    """One controller sample over the increments dU, solved with the
    running-sum rows Cu dU >= b by the reference dual active-set method."""
    nu = pred.n_inputs
    u_prev = np.asarray(u_prev, dtype=float).reshape(nu)
    y_free = free_response(pred, dx, dd, y)
    f = pred.F @ y_free

    _, b = box_rows(*build_constraints(limits, u_prev, pred))
    problem = QpProblem(pred.H, f, increment_rows(pred), b)
    du, lam, _ = solve_qp_info(problem, tol=1e-10)
    qp_active = problem.Cu @ du - problem.b <= 1e-9
    residuals = kkt_residuals(problem, du, lam)

    predicted = y_free + pred.S_B @ du
    moves = pred.gamma_u * du
    objective = pred.alpha_sq * float(predicted @ predicted) + float(moves @ moves)
    return MpcStepResult(
        command=u_prev + du[:nu],
        increments=du,
        qp_active=qp_active,
        objective=objective,
        kkt_residuals=residuals,
    )


def mpc_gain(pred):
    """Closed-form unconstrained gain: dU* = K_mpc @ (0 - Y_free)."""
    return np.linalg.solve(pred.H, pred.F)
