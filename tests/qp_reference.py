"""Reference solutions the tests compare the program's QP path against.

``solve_qp_info`` is the general dual active-set QP solver as it stood
before the prepared solver: it checks H for positive definiteness on every
call and solves with H on every inner iteration. It takes the same QpProblem
and returns the same (x, lam, info) as ``microfreq.numerics.solve_qp_info``.

``mpc_gain`` is the controller's closed-form unconstrained gain, the oracle
of every sample on which no reserve constraint is active.
"""

import numpy as np

from microfreq.numerics import QpInfeasibleError


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


def mpc_gain(pred):
    """Closed-form unconstrained gain: dU* = K_mpc @ (0 - Y_free)."""
    return np.linalg.solve(pred.H, pred.F)
