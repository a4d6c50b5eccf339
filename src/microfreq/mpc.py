"""Receding-horizon secondary-frequency controller.

The controller works in velocity (increment) form: the decision vector stacks
m control-increment blocks, predictions are built from the state increment
plus the measured output, and integral action follows automatically. Reserve
bounds apply to the cumulative totals, so they are mapped to increment
constraints through a running-sum pattern. Only the first increment block is
applied each sample.

Horizons, weights and plant are fixed for a run, so everything of the QP
except the reserve bands and the measured state is built once per run by
``build_prediction_matrices``: the Hessian, the linear-term map and the
running-sum constraint matrix sit next to the prediction matrices, the
Hessian checked and factorized once in a ``PreparedQp``, and
``control_step`` assembles only the linear term and the constraint bounds.
The weights live in that prepared object only, so a control step cannot mix
the matrices of one configuration with the weights of another.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import PreparedQp, QpProblem, kkt_residuals, solve_qp_info

_IDENTICAL_COLUMN_TOL = 1e-12


@dataclass(frozen=True)
class MpcConfig:
    """Horizons, sample time, and the cost weights.

    alpha penalizes predicted frequency deviation at every horizon step;
    the betas penalize each unit's control increment, with diesel/storage
    weighted heavier than wind/PV so the renewables respond first.
    """

    p: int = 10
    m: int = 3
    Ts: float = 0.2
    alpha: float = 1.6596
    beta_pv: float = 0.2894
    beta_wt: float = 0.2894
    beta_du: float = 0.3762
    beta_bess: float = 0.3762

    def __post_init__(self):
        if not 1 <= self.m <= self.p:
            raise ValueError(f"need 1 <= m <= p, got m={self.m}, p={self.p}")
        if self.Ts <= 0:
            raise ValueError("Ts must be > 0")
        for name in ("alpha", "beta_pv", "beta_wt", "beta_du", "beta_bess"):
            if getattr(self, name) <= 0:
                raise ValueError(f"weight {name} must be > 0")
        if self.beta_du <= self.beta_wt:
            raise ValueError("beta_du must exceed beta_wt (renewables-first priority)")

    def control_weights(self):
        """Per-unit move weights in control order (pv1, pv2, wt1, wt2, du, bess)."""
        return np.array([
            self.beta_pv, self.beta_pv, self.beta_wt,
            self.beta_wt, self.beta_du, self.beta_bess,
        ])


@dataclass(frozen=True)
class PredictionMatrices:
    """Stacked prediction of the frequency deviation over p steps:

        Y = S_x @ dx(k) + I_vec * y(k) + S_d * dd(k) + S_B @ dU

    S_d is the single aggregate-disturbance column: the five disturbance
    channels enter the plant through one shared column of D.

    The QP pieces that do not change within a run come with it: the cost
    weights (``alpha_sq`` = alpha^2 and the per-increment move weights
    ``gamma_u``), the map ``F`` with linear term f = F @ Y_free, and ``qp``,
    the PreparedQp of the Hessian ``H`` and the running-sum constraint
    matrix ``Cu``.
    """

    p: int
    m: int
    S_x: np.ndarray
    S_B: np.ndarray
    S_d: np.ndarray
    I_vec: np.ndarray
    alpha_sq: float
    gamma_u: np.ndarray
    F: np.ndarray
    qp: PreparedQp

    @property
    def H(self):
        return self.qp.H

    @property
    def Cu(self):
        return self.qp.Cu

    @property
    def n_inputs(self):
        return self.S_B.shape[1] // self.m


def build_prediction_matrices(model, config):
    """Assemble the stacked prediction matrices from the discrete plant."""
    if not model.is_discretized:
        raise ValueError("model has not been discretized")
    if abs(model.Ts - config.Ts) > 1e-12:
        raise ValueError(f"model Ts {model.Ts} does not match config Ts {config.Ts}")
    p, m = config.p, config.m
    A, B, D = model.A, model.B, model.D
    C = model.Cc[0]
    nu = B.shape[1]
    nd = D.shape[1]

    # C A^i rows for i = 0..p.
    CA = [C]
    for _ in range(p):
        CA.append(CA[-1] @ A)
    CA = np.array(CA)

    S_x = np.cumsum(CA[1:], axis=0)                       # row j = sum_{i=1..j} C A^i
    cumB = np.cumsum(CA[:p] @ B, axis=0)                  # row j = sum_{i=1..j} C A^(i-1) B
    cumD = np.cumsum(CA[:p] @ D, axis=0)

    S_B = np.zeros((p, nu * m))
    for j in range(1, p + 1):
        for col in range(1, min(j, m) + 1):
            S_B[j - 1, (col - 1) * nu:col * nu] = cumB[j - col]

    d_col = D[:, 0]
    S_d = np.cumsum(CA[:p] @ d_col)[:, None]

    # The five disturbance channels share one column of D, so their stacked
    # prediction under a replicated scalar must collapse to S_d times the
    # aggregate; anything else means the plant broke that assumption.
    replicated = cumD @ np.ones(nd)
    if np.abs(replicated - nd * S_d[:, 0]).max() > _IDENTICAL_COLUMN_TOL:
        raise ValueError("disturbance columns are not identical; aggregate collapse invalid")

    gamma_u = np.tile(config.control_weights(), m)
    alpha_sq = config.alpha ** 2
    H = 2.0 * (alpha_sq * S_B.T @ S_B + np.diag(gamma_u ** 2))
    F = 2.0 * alpha_sq * S_B.T
    running_sum = np.kron(np.tril(np.ones((m, m))), np.eye(nu))
    Cu = np.vstack([running_sum, -running_sum])
    # Every sample of a run shares these, so nothing may write to them
    # (PreparedQp keeps read-only copies of H and Cu).
    for shared in (gamma_u, F):
        shared.flags.writeable = False
    return PredictionMatrices(
        p=p, m=m, S_x=S_x, S_B=S_B, S_d=S_d, I_vec=np.ones(p),
        alpha_sq=alpha_sq, gamma_u=gamma_u, F=F, qp=PreparedQp(H, Cu),
    )


def mpc_gain(pred):
    """Closed-form unconstrained gain: dU* = K_mpc @ (0 - Y_free)."""
    return np.linalg.solve(pred.H, pred.F)


def build_constraints(limits, u_prev, pred):
    """Map total-adjustment bounds to increment constraints, Cu dU >= b.

    For unit j and horizon step i the cumulative total must stay in band:
    lo_j <= u_prev_j + sum_{tau<=i} dU_j(tau) <= hi_j. Rows are ordered
    step-major: m blocks of n_inputs lower bounds, then the same for upper.
    If u_prev has drifted outside a (shrunken) band, the first-step rows
    force the move back inside; the event itself is the caller's to flag.
    ``Cu`` is the prepared ``pred.Cu``; only ``b`` depends on the sample.
    """
    u_prev = np.asarray(u_prev, dtype=float).reshape(pred.n_inputs)
    lower = limits.lo - u_prev
    upper = u_prev - limits.hi
    return pred.Cu, np.concatenate([lower] * pred.m + [upper] * pred.m)


def out_of_band_units(limits, u_prev):
    """Units whose current total already violates the instant's limits."""
    u_prev = np.asarray(u_prev, dtype=float)
    return (u_prev < limits.lo - 1e-12) | (u_prev > limits.hi + 1e-12)


@dataclass(frozen=True)
class MpcStepResult:
    """One controller sample: applied totals, raw increments, constraint
    activity, cost, and the QP's KKT residuals."""

    command: np.ndarray
    increments: np.ndarray
    qp_active: np.ndarray
    objective: float
    kkt_residuals: tuple


def free_response(pred, est, y):
    """Predicted frequency with all future increments zero."""
    return pred.S_x @ est.delta_x + pred.I_vec * y + pred.S_d[:, 0] * est.delta_d


def control_step(est, y, u_prev, limits, pred, *, qp_tol=1e-10):
    """Solve the constrained QP for this sample and apply the first block.

    The weights and horizons are those ``pred`` was built with.
    ``limits=None`` disables constraints (the solution then matches the
    closed-form gain). Either way the QP is solved through ``pred.qp``,
    so only the sample's f (and b) is checked. Returns an MpcStepResult
    whose ``command`` is the new cumulative total per unit, u_prev + first
    increment block.
    """
    nu = pred.n_inputs
    u_prev = np.asarray(u_prev, dtype=float).reshape(nu)
    y_free = free_response(pred, est, y)
    f = pred.F @ y_free

    if limits is None:
        # The unconstrained minimizer, as solve_qp_info starts from it, from
        # the prepared inverse: H is not checked or factorized per call.
        if not np.isfinite(f).all():
            raise ValueError("QP data contains non-finite entries")
        du = pred.qp.H_inv @ -f
        qp_active = np.zeros(0, dtype=bool)
        residuals = (np.linalg.norm(pred.H @ du + f, np.inf), 0.0, 0.0)
    else:
        Cu, b = build_constraints(limits, u_prev, pred)
        problem = QpProblem(pred.H, f, Cu, b, prepared=pred.qp)
        du, lam, _ = solve_qp_info(problem, tol=qp_tol)
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


def active_units(qp_active, m, n_inputs=6):
    """Collapse per-row activity flags to per-unit flags (any step, any side)."""
    if qp_active.size == 0:
        return np.zeros(n_inputs, dtype=bool)
    per_unit = qp_active.reshape(2 * m, n_inputs)
    return per_unit.any(axis=0)
