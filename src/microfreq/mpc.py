"""Receding-horizon secondary-frequency controller.

The controller works in velocity (increment) form: the decision vector stacks
m control-increment blocks dU, predictions are built from the state
increment plus the measured output, and integral action follows
automatically. Only the first increment block is applied each sample. From
the estimator the controller takes only the two increments it predicts from,
the state's and the aggregate disturbance's.

Reserve bounds apply to the cumulative totals, lo <= u_prev + sum of the
first i blocks <= hi. The controller therefore solves its QP over the
cumulative moves V = T dU, T the block lower-triangular running sum, where
those bounds are plain boxes lo - u_prev <= V <= hi - u_prev: the rows
Cu V >= b with Cu = [I; -I]. T is invertible, so the minimizer of the
increment QP  min 1/2 dU'H dU + f'dU  is T^-1 times that of the box QP,
whose Hessian is Hv = T^-T H T^-1 and whose linear term is g = T^-T f.

Horizons, weights and plant are fixed for a run, so everything except the
reserve bands and the measured state is built once per run by
``build_prediction_matrices``: Hv and the box rows in a ``BoxQp``, and one
stacked map that takes the sample's (dx, y, dd) to the free response, the
linear term g and the unconstrained cumulative move V_unc in one product.
A control step then runs the box solver's primal-dual active-set iteration
from V_unc: most samples violate no bound and end there; the rest apply the
cached affine law of each active set met, one law per set, built on first
use and kept on the run's ``BoxQp``. Should the iteration reach its cap, or
the bands cross, the step solves the same box QP with the dual active-set
method instead, factorized for that sample alone, which always terminates
and reports an infeasible sample.
Either way the step reports the KKT residuals of the box QP.

The weights live in the prepared objects only, so a control step cannot
mix the matrices of one configuration with the weights of another.
"""

from dataclasses import dataclass

import numpy as np

# ``kkt_residuals`` is not called here, but stays importable: the benchmark's
# layer tracer (perfbench/tracer.py) wraps the QP functions in this namespace.
from .numerics import (  # noqa: F401
    BoxQp,
    QpProblem,
    kkt_residual_norms,
    kkt_residuals,
    solve_qp_info,
    spd_inverse,
)

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
    ``gamma_u``), the map ``F`` with linear term f = F @ Y_free, the
    increment Hessian ``H``, and the cumulative-move pieces: ``box``, the
    BoxQp of Hv = T^-T H T^-1 and the rows [I; -I] (with the run's law
    cache), ``T_inv``, and ``sample_map``, which takes (dx, y, dd) to the
    stacked (Y_free, g, V_unc).
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
    H: np.ndarray
    box: BoxQp
    T_inv: np.ndarray
    sample_map: np.ndarray

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
    # T^-1 takes each block of V to its difference from the block before.
    T_inv = np.eye(nu * m) - np.eye(nu * m, k=-nu)
    box = BoxQp(T_inv.T @ H @ T_inv)
    # Rows: Y_free = G s, g = T^-T F G s, V_unc = -T H^-1 F G s, for
    # s = (dx, y, dd). V_unc equals -Hv^-1 g, but that product rounds
    # differently and would move the traces in their last bits.
    G = np.column_stack([S_x, np.ones(p), S_d])
    FG = F @ G
    sample_map = np.vstack([G, T_inv.T @ FG, -(running_sum @ spd_inverse(H, "H")) @ FG])
    # Every sample of a run shares these, so nothing may write to them
    # (the BoxQp keeps read-only copies of its matrices).
    for shared in (gamma_u, F, H, T_inv, sample_map):
        shared.flags.writeable = False
    return PredictionMatrices(
        p=p, m=m, S_x=S_x, S_B=S_B, S_d=S_d, I_vec=np.ones(p), alpha_sq=alpha_sq,
        gamma_u=gamma_u, F=F, H=H, box=box, T_inv=T_inv, sample_map=sample_map,
    )


def build_constraints(limits, u_prev, pred):
    """Map total-adjustment bounds to the box QP's rows, Cu V >= b.

    For unit j and horizon step i the cumulative total must stay in band:
    lo_j <= u_prev_j + V_j(i) <= hi_j, V_j(i) the sum of the first i
    increments. Rows are ordered step-major: m blocks of n_inputs lower
    bounds, then the same for upper. If u_prev has drifted outside a
    (shrunken) band, the first-step rows force the move back inside; the
    event itself is the caller's to flag. ``Cu`` = [I; -I] is the prepared
    ``pred.box.Cu``; only ``b`` depends on the sample.
    """
    u_prev = np.asarray(u_prev, dtype=float).reshape(pred.n_inputs)
    lower = limits.lo - u_prev
    upper = u_prev - limits.hi
    return pred.box.Cu, np.concatenate([lower] * pred.m + [upper] * pred.m)


def out_of_band_units(limits, u_prev):
    """Units whose total already violates the limits: elementwise, for one
    instant or for a grid of totals against a grid of limits."""
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


def control_step(dx, dd, y, u_prev, limits, pred, *, qp_tol=1e-10):
    """Solve the constrained QP for this sample and apply the first block.

    ``dx`` and ``dd`` are the increments of the estimated state and
    aggregate disturbance over the last sample. The weights and horizons are
    those ``pred`` was built with. The box QP over the cumulative moves is
    solved by ``pred.box``'s cached laws; if their iteration reaches the
    cap, or the bands leave no feasible point, by the dual active-set method
    on a QpProblem of the same box QP, which raises QpInfeasibleError in the
    latter case. Returns an MpcStepResult whose ``command`` is the new
    cumulative total per unit, u_prev + first increment block, and whose KKT
    residuals and active rows are the box QP's.
    """
    nu, p = pred.n_inputs, pred.p
    n = nu * pred.m
    box = pred.box
    u_prev = np.asarray(u_prev, dtype=float).reshape(nu)
    stacked = pred.sample_map @ np.concatenate((dx, (y, dd)))
    y_free, g, v_unc = stacked[:p], stacked[p:p + n], stacked[p + n:]

    Cu, b = build_constraints(limits, u_prev, pred)
    solved = box.solve(v_unc, b[:n], -b[n:], qp_tol * max(1.0, np.abs(b).max()))
    if solved is None:
        v, lam, _ = solve_qp_info(QpProblem(box.H, g, Cu, b), tol=qp_tol)
    else:
        v, lam_v, _ = solved
        # A positive multiplier belongs to the lower row, a negative one to
        # the upper.
        lam = np.concatenate((np.maximum(lam_v, 0.0), np.maximum(-lam_v, 0.0)))
    du = pred.T_inv @ v
    slack = Cu @ v - b
    qp_active = slack <= 1e-9
    residuals = kkt_residual_norms(box.H, g, Cu, v, lam, slack)

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
    per_unit = qp_active.reshape(2 * m, n_inputs)
    return per_unit.any(axis=0)
