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
``microfreq.mpc.control_step`` and returns the same MpcStep: the
cumulative moves V = T dU, and the box multipliers lam[:n] - lam[n:] of
the increment rows' multipliers.

``sample_diagnostics`` is ``step_diagnostics`` of one ``control_step``
result, on the bounds of its sample's band and previous totals.

``reference_run`` is ``run_scenario`` with the controller's step as it
stood before the run took its samples' cost, active bounds and KKT
residuals after the loop: ``per_sample_tail`` computes them at every
sample, with the box residuals of ``box_kkt``, and the sample applies
u_prev + (T^-1 V)[:nu].

``mpc_gain`` is the controller's closed-form unconstrained gain and
``free_response`` the prediction it acts on, the oracle of every sample on
which no reserve constraint is active.
"""

import numpy as np

import microfreq.simulate
from microfreq.der_models import ReserveLimits
from microfreq.lfc_model import N_CONTROLS
from microfreq.mpc import (
    MpcStep,
    StepDiagnostics,
    active_units,
    build_constraints,
    out_of_band_units,
    step_diagnostics,
)
from microfreq.numerics import QpInfeasibleError, QpProblem
from microfreq.simulate import run_scenario


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


def reference_control_step(dx, dd, y, u_prev, band_lo, band_hi, pred):
    """One controller sample over the increments dU, solved with the
    running-sum rows Cu dU >= b by the reference dual active-set method."""
    nu = pred.n_inputs
    n = nu * pred.m
    u_prev = np.asarray(u_prev, dtype=float).reshape(nu)
    f = pred.F @ free_response(pred, dx, dd, y)

    lo, hi = build_constraints(ReserveLimits(band_lo, band_hi), u_prev, pred)
    _, b = box_rows(lo, hi)
    du, lam, _ = solve_qp_info(QpProblem(pred.H, f, increment_rows(pred), b), tol=1e-10)
    return MpcStep(
        command=u_prev + du[:nu],
        sample=np.concatenate((dx, (y, dd))),
        v=running_sum(pred) @ du,
        lam=lam[:n] - lam[n:],
    )


def sample_diagnostics(step, u_prev, band_lo, band_hi, pred):
    """The ``StepDiagnostics`` of one ``control_step`` result ``step``,
    each field without its row axis: ``step_diagnostics`` on its one row,
    with the bounds ``build_constraints`` gives the sample's band and
    ``u_prev``, the arguments the step was solved with."""
    lo, hi = build_constraints(ReserveLimits(band_lo, band_hi), u_prev, pred)
    rows = (step.sample, step.v, step.lam, lo, hi)
    return StepDiagnostics(*(stack[0] for stack in step_diagnostics(
        pred, *(row[None] for row in rows))))


def box_kkt(H, v, g, lam, lo, hi):
    """The bounds' slack [v - lo; hi - v] and the KKT residuals of (v, lam)
    for  min 1/2 v'H v + g'v  s.t.  lo <= v <= hi, lam the bound
    multipliers: bit for bit ``kkt_residuals`` of the rows [I; -I] v >=
    [lo; -hi] and the multipliers [max(lam, 0); max(-lam, 0)]."""
    slack = np.concatenate((v - lo, hi - v))
    split = np.concatenate((np.maximum(lam, 0.0), np.maximum(-lam, 0.0)))
    stationarity = float(np.abs(H @ v + g - lam).max())
    primal = float(max(0.0, -slack.min()))
    complementarity = float(np.abs(split * slack).max())
    return slack, (stationarity, primal, complementarity)


def per_sample_tail(step, u_prev, lo, hi, pred):
    """The command, active bounds, cost and KKT residuals of one
    ``control_step`` record, computed from it, its bounds (lo, hi) and
    ``pred`` alone: (command, qp_active, objective, kkt_residuals)."""
    nu, p = pred.n_inputs, pred.p
    n = nu * pred.m
    v, lam = step.v, step.lam
    stacked = pred.sample_map @ step.sample
    y_free, g = stacked[:p], stacked[p:p + n]
    slack, residuals = box_kkt(pred.box.H, v, g, lam, lo, hi)
    du = pred.T_inv @ v

    predicted = y_free + pred.S_B @ du
    moves = pred.gamma_u * du
    objective = pred.alpha_sq * float(predicted @ predicted) + float(moves @ moves)
    return u_prev + du[:nu], slack <= 1e-9, objective, residuals


def reference_run(scenario, config=None):
    """``run_scenario`` of an MPC scenario with ``per_sample_tail`` at every
    sample: the run applies its command, and its cost, binding flags and
    largest KKT residual are those of the samples one by one. Returns its
    freq, commands, objective, binding, max_kkt_residual and aborted_at as
    a dict keyed by trace field."""
    tails = []
    step = microfreq.simulate.control_step

    def step_with_tail(dx, dd, y, u_prev, band_lo, band_hi, pred):
        result = step(dx, dd, y, u_prev, band_lo, band_hi, pred)
        u_prev = np.asarray(u_prev, dtype=float)
        lo, hi = build_constraints(ReserveLimits(band_lo, band_hi), u_prev, pred)
        command, qp_active, cost, residuals = per_sample_tail(result, u_prev, lo, hi, pred)
        tails.append((active_units(qp_active, pred.m), cost, residuals))
        return result._replace(command=command)

    microfreq.simulate.control_step = step_with_tail
    try:
        trace = run_scenario(scenario, config)
    finally:
        microfreq.simulate.control_step = step

    objective = np.zeros_like(trace.objective)
    binding = np.zeros_like(trace.binding)
    max_kkt = 0.0
    for k, (units, cost, residuals) in enumerate(tails):
        binding[k] = units
        objective[k] = cost
        max_kkt = max(max_kkt, max(residuals))
    # A unit whose previous command (zero before the first sample) is
    # outside the sample's band drifted there: binding on every row but the
    # terminal one.
    rows = min(trace.freq.shape[0], scenario.n_steps)
    previous = np.concatenate([np.zeros((1, N_CONTROLS)), trace.commands[:rows - 1]])[:rows]
    bands = ReserveLimits(trace.limits_lo[:rows], trace.limits_hi[:rows])
    binding[:rows] |= out_of_band_units(bands, previous)
    return {"freq": trace.freq, "commands": trace.commands, "objective": objective,
            "binding": binding, "max_kkt_residual": max_kkt, "aborted_at": trace.aborted_at}


def mpc_gain(pred):
    """Closed-form unconstrained gain: dU* = K_mpc @ (0 - Y_free)."""
    return np.linalg.solve(pred.H, pred.F)
