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
those bounds are plain boxes lo - u_prev <= V <= hi - u_prev. T is
invertible, so the minimizer of the increment QP  min 1/2 dU'H dU + f'dU
is T^-1 times that of the box QP, whose Hessian is Hv = T^-T H T^-1 and
whose linear term is g = T^-T f.

Horizons, weights and plant are fixed for a config, so everything except
the reserve bands and the measured state is built once per config by
``build_prediction_matrices``: Hv in a ``BoxQp``, and one stacked map that
takes the sample's s = (dx, y, dd) to the free response, the linear term g
and the unconstrained cumulative move V_unc. A control step takes V_unc
from the map's last rows and runs the box solver's primal-dual active-set
iteration from it on the sample's bounds (lo, hi): most samples violate no
bound and end there; the rest apply the cached affine law of each active
set met, built on first use and kept on the ``BoxQp`` for every later run
of the config. The step builds the box as one [lo; hi] array. Crossed bands
raise QpInfeasibleError. Only if the iteration reaches its cap does the
step write the box as the rows [I; -I] V >= [lo; -hi], for the dual
active-set method, which always terminates (``_capped_solve``). The step
applies the first block of V and computes nothing else. ``control_rows``
takes the samples of many runs at once, with the same bits per row: the
prologue up to the test for a violated bound is one stack over the rows,
and only the rows that bind run the iteration.

What no later sample depends on (the increments, the cost, the active
bounds, the slack and the KKT residuals) comes from ``step_diagnostics``
for a block of a run's samples at once, as its loop passes them, from each
sample's s, V, bound multipliers, lo and hi. Its products are stacks of
matrix-vector products, one per sample, which sum in the order the
one-sample product does; so the run's values have the bits that computing
them sample by sample gives, which one matrix-matrix product would not.

The weights live in the prepared objects only, so a control step cannot
mix the matrices of one configuration with the weights of another.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lfc_model import SAMPLE_TIME
# ``kkt_residuals`` is not called here, but stays importable: the benchmark's
# layer tracer (perfbench/tracer.py) wraps the QP functions in this namespace.
from .numerics import (  # noqa: F401
    BoxQp,
    QpInfeasibleError,
    QpProblem,
    kkt_residuals,
    rows_times,
    solve_qp_info,
    spd_inverse,
)

_IDENTICAL_COLUMN_TOL = 1e-12
_QP_TOL = 1e-10  # relative to the sample's largest bound


@dataclass(frozen=True)
class MpcConfig:
    """Horizons, sample time, and the cost weights.

    alpha penalizes predicted frequency deviation at every horizon step;
    the betas penalize each unit's control increment, with diesel/storage
    weighted heavier than wind/PV so the renewables respond first.
    """

    p: int = 10
    m: int = 3
    Ts: float = SAMPLE_TIME
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
    BoxQp of Hv = T^-T H T^-1 (with the run's law cache), ``T_inv``, and
    ``sample_map``, which takes (dx, y, dd) to the stacked (Y_free, g,
    V_unc).
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


def _bounds(band_lo, band_hi, u_prev, m):
    """[lo; hi] of the box over the m blocks, in one array, for one sample
    or a stack of them: m copies of band_lo - u_prev, then m of
    band_hi - u_prev."""
    lo, hi = band_lo - u_prev, band_hi - u_prev
    return np.concatenate((lo,) * m + (hi,) * m, axis=-1)


def build_constraints(limits, u_prev, pred):
    """The box on the cumulative moves V: (lo, hi) over the m blocks, for one
    sample, or for a stack of samples from a grid of limits and one u_prev
    row per sample.

    For unit j and horizon step i the cumulative total must stay in band:
    lo_j <= u_prev_j + V_j(i) <= hi_j, V_j(i) the sum of the first i
    increments, so every block of ``lo`` is limits.lo - u_prev and every
    block of ``hi`` is limits.hi - u_prev. If u_prev has drifted outside a
    (shrunken) band, the first block's bounds force the move back inside;
    the event itself is the caller's to flag.
    """
    u_prev = np.asarray(u_prev, dtype=float).reshape(np.shape(limits.lo))
    bounds = _bounds(limits.lo, limits.hi, u_prev, pred.m)
    n = bounds.shape[-1] // 2
    return bounds[..., :n], bounds[..., n:]


def out_of_band_units(limits, u_prev):
    """Units whose total already violates the limits: elementwise, for one
    instant or for a grid of totals against a grid of limits."""
    u_prev = np.asarray(u_prev, dtype=float)
    return (u_prev < limits.lo - 1e-12) | (u_prev > limits.hi + 1e-12)


class StepDiagnostics(NamedTuple):
    """What a run reports of its solved MPC samples besides the commands,
    one row per sample: the increments dU = T^-1 V, the cost, the active
    bounds (m blocks of lower, then m of upper) and the box QP's KKT
    residuals (stationarity, primal feasibility, complementarity)."""

    increments: np.ndarray
    objective: np.ndarray
    qp_active: np.ndarray
    kkt_residuals: np.ndarray


def step_diagnostics(pred, samples, v, lam, lo, hi):
    """The ``StepDiagnostics`` of a stack of solved samples, the one place
    they are computed: row k of each argument is sample k's s = (dx, y, dd),
    cumulative moves and bound multipliers, as ``control_step`` returns
    them, and its bounds, as ``build_constraints`` gives them.

    From s come the free response Y_free and the linear term g (the first
    rows of ``pred.sample_map``). The cost is that of the increment QP,
    alpha^2 |Y_free + S_B dU|^2 + |gamma_u * dU|^2; a bound is active when
    its slack, [V - lo; hi - V], is at most 1e-9; the residuals are those of
    the rows [I; -I] V >= [lo; -hi] with the multipliers split by sign,
    [max(lam, 0); max(-lam, 0)], taken from the bounds themselves. Every
    row has the bits the same formulas give one sample.
    """
    p, n = pred.p, v.shape[1]
    stacked = rows_times(pred.sample_map, samples)
    y_free, g = stacked[:, :p], stacked[:, p:p + n]
    du = rows_times(pred.T_inv, v)
    predicted = y_free + rows_times(pred.S_B, du)
    moves = pred.gamma_u * du
    objective = pred.alpha_sq * np.vecdot(predicted, predicted) + np.vecdot(moves, moves)
    slack = np.concatenate((v - lo, hi - v), axis=1)
    split = np.concatenate((np.maximum(lam, 0.0), np.maximum(-lam, 0.0)), axis=1)
    residuals = np.column_stack((
        np.abs(rows_times(pred.box.H, v) + g - lam).max(axis=1),
        np.maximum(0.0, -slack.min(axis=1)),
        np.abs(split * slack).max(axis=1),
    ))
    return StepDiagnostics(du, objective, slack <= 1e-9, residuals)


class MpcStep(NamedTuple):
    """One controller sample as the run loop records it: the applied totals
    ``command``, the sample s = (dx, y, dd) the prediction starts from, and
    the box QP's cumulative moves ``v`` and bound multipliers ``lam``."""

    command: np.ndarray
    sample: np.ndarray
    v: np.ndarray
    lam: np.ndarray


def control_step(dx, dd, y, u_prev, band_lo, band_hi, pred):
    """Solve the constrained QP for this sample and apply the first block.

    ``dx`` and ``dd`` are the increments of the estimated state and
    aggregate disturbance over the last sample, ``u_prev`` the (nu,)
    totals applied over it, and ``band_lo`` and ``band_hi`` the (nu,)
    reserve limits of the sample; the weights and horizons are those
    ``pred`` was built with. ``pred.box`` solves the box QP from V_unc on
    the bounds of ``build_constraints``, with the tolerance relative to
    their largest magnitude, and ``_capped_solve`` at the iteration's cap;
    crossed bounds raise QpInfeasibleError. The new total per unit is
    u_prev + V[:nu]. The returned ``MpcStep`` holds what the run records;
    ``step_diagnostics`` takes the rest from it and the bounds after the
    loop. A stack of samples takes ``control_rows``.
    """
    nu, p = pred.n_inputs, pred.p
    n = nu * pred.m
    if np.shape(u_prev) != (nu,):
        raise ValueError(f"u_prev must have shape ({nu},), got {np.shape(u_prev)}")
    sample = np.concatenate((dx, (y, dd)))
    v_unc = pred.sample_map[p + n:] @ sample

    bounds = _bounds(band_lo, band_hi, u_prev, pred.m)
    lo, hi = bounds[:n], bounds[n:]
    solved = pred.box.solve(v_unc, lo, hi, _QP_TOL * max(1.0, np.abs(bounds).max()))
    if solved is None:
        v, lam = _capped_solve(pred, sample, bounds)
    else:
        v, lam, _ = solved
    return MpcStep(u_prev + v[:nu], sample, v, lam)


def _capped_solve(pred, sample, bounds):
    """(V, bound multipliers) of a sample whose box iteration reached its
    cap: the dual active-set method solves the box [lo; hi] = ``bounds`` as
    the rows [I; -I] V >= [lo; -hi], with the linear term g of s =
    ``sample``, and its multipliers map back to the bounds' as
    lam[:n] - lam[n:]."""
    p, n = pred.p, pred.box.n
    g = (pred.sample_map @ sample)[p:p + n]
    rows = np.vstack([np.eye(n), -np.eye(n)])
    problem = QpProblem(pred.box.H, g, rows, np.concatenate((bounds[:n], -bounds[n:])))
    v, lam_rows, _ = solve_qp_info(problem, tol=_QP_TOL)
    return v, lam_rows[:n] - lam_rows[n:]


class MpcRows(NamedTuple):
    """What ``control_rows`` gives a stack of MPC samples, row r for row r
    of its arguments: the applied totals, s = (dx, y, dd), the cumulative
    moves V and the bound multipliers, and the list of rows whose QP is
    infeasible (whose other entries mean nothing)."""

    commands: np.ndarray
    samples: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    infeasible: list


def control_rows(dx, dd, y, u_prev, band_lo, band_hi, pred):
    """``control_step`` for a stack of samples, a row each: the arguments
    are those of ``control_step`` with a row axis in front, and each row's
    command, V and multipliers have the bits ``control_step`` gives it.

    The prologue is one stack: s of every row, V_unc = one ``rows_times``
    of the last rows of ``pred.sample_map`` (each row its own product, so
    with the bits of ``control_step``'s), the [lo; hi] bounds, each row's
    tolerance, and the sets each row's V_unc violates. A row that violates
    no bound ends there, with zero multipliers. Only the rows
    that bind run the box iteration (``BoxQp.iterate``), each from its first
    sets, with ``_capped_solve`` at its cap. A row whose bands cross is
    infeasible if it binds, as ``control_step`` would raise on it; it is
    listed in ``infeasible`` and the other rows are solved as usual.
    """
    nu, p = pred.n_inputs, pred.p
    n = nu * pred.m
    samples = np.concatenate((dx, y[:, None], dd[:, None]), axis=1)
    v = rows_times(pred.sample_map[p + n:], samples)
    bounds = _bounds(band_lo, band_hi, u_prev, pred.m)
    tol = _QP_TOL * np.maximum(1.0, np.abs(bounds).max(axis=1))
    below, above = bounds[:, :n] - tol[:, None], bounds[:, n:] + tol[:, None]
    lower, upper = v < below, v > above
    lam = np.zeros_like(v)
    infeasible = []
    for r in np.flatnonzero((lower | upper).any(axis=1)).tolist():
        try:
            solved = pred.box.iterate(v[r], bounds[r], below[r], above[r], lower[r], upper[r])
            if solved is None:
                v[r], lam[r] = _capped_solve(pred, samples[r], bounds[r])
            else:
                v[r], lam[r], _ = solved
        except QpInfeasibleError:
            infeasible.append(r)
    return MpcRows(u_prev + v[:, :nu], samples, v, lam, infeasible)


def active_units(qp_active, m):
    """Collapse per-bound activity flags to per-unit flags (any step, any
    side), for one sample's flags or for one row of flags per sample."""
    *rows, flags = qp_active.shape
    return qp_active.reshape(*rows, 2 * m, flags // (2 * m)).any(axis=-2)
