"""Dense matrix numerics: matrix exponential, zero-order-hold discretization,
a small strictly-convex QP solver with linear inequality constraints, and a
box-constrained QP solver that keeps the affine law of each active set it
meets.

The functions operate on plain numpy arrays and are pure. A ``BoxQp`` fills
its law cache as it solves, so one instance belongs to one caller at a time;
each law depends on the active set alone, so the fill order never changes a
result.
"""

from dataclasses import dataclass, field

import numpy as np

# Taylor truncation order for the scaled series; with the 0.5 scaling target
# the series remainder is far below double precision.
_SERIES_ORDER = 18
_SCALING_TARGET = 0.5

_SYMMETRY_TOL = 1e-10

# Primal-dual active-set iterations a box QP may take before ``BoxQp.solve``
# gives up and its caller falls back to ``solve_qp_info``.
BOX_QP_MAX_ITERATIONS = 12


class QpInfeasibleError(ValueError):
    """Raised when the QP constraints admit no feasible point.

    ``row`` is the index of the constraint row that could not be satisfied.
    """

    def __init__(self, row, message=None):
        self.row = row
        super().__init__(message or f"QP infeasible: constraint row {row} cannot be satisfied")


def _check_square(A, name):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError(f"{name} contains non-finite entries")
    return A


def matrix_exponential(A, t=1.0):
    """Compute e^(A*t) by scaling-and-squaring with a truncated Taylor series.

    Accurate to ~1e-13 relative for well-conditioned A with ||A||*t up to ~50.
    """
    A = _check_square(A, "A")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n = A.shape[0]
    M = A * t
    norm = np.linalg.norm(M, 1)
    if norm == 0.0:
        return np.eye(n)

    # Scale so the series argument has 1-norm <= _SCALING_TARGET.
    squarings = max(0, int(np.ceil(np.log2(norm / _SCALING_TARGET))))
    M = M / (2.0 ** squarings)

    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, _SERIES_ORDER + 1):
        term = term @ M / k
        E = E + term

    for _ in range(squarings):
        E = E @ E
    return E


def discretize(Ac, Bc, Dc, Ts):
    """Exact zero-order-hold discretization of x' = Ac x + Bc u + Dc d.

    Returns (A, B, D) with A = e^(Ac*Ts) and B, D the held-input integrals,
    computed from the exponential of the augmented block matrix
    [[Ac, Bc, Dc], [0, 0, 0]] so no quadrature (and no inverse of Ac) is
    needed; the construction is exact even when Ac is singular.
    """
    Ac = _check_square(Ac, "Ac")
    n = Ac.shape[0]
    Bc = np.asarray(Bc, dtype=float)
    Dc = np.asarray(Dc, dtype=float)
    if Bc.ndim != 2 or Bc.shape[0] != n:
        raise ValueError(f"Bc must have shape ({n}, nu), got {Bc.shape}")
    if Dc.ndim != 2 or Dc.shape[0] != n:
        raise ValueError(f"Dc must have shape ({n}, nd), got {Dc.shape}")
    if Ts <= 0:
        raise ValueError(f"Ts must be > 0, got {Ts}")

    nu = Bc.shape[1]
    nd = Dc.shape[1]
    m = n + nu + nd
    block = np.zeros((m, m))
    block[:n, :n] = Ac
    block[:n, n:n + nu] = Bc
    block[:n, n + nu:] = Dc

    E = matrix_exponential(block, Ts)
    A = E[:n, :n]
    B = E[:n, n:n + nu]
    D = E[:n, n + nu:]
    return A, B, D


def _check_symmetric(A, name):
    """A copy of A, which must be square, finite and symmetric within 1e-10."""
    A = np.array(_check_square(A, name))
    if np.abs(A - A.T).max() > _SYMMETRY_TOL:
        raise ValueError(f"{name} is not symmetric within 1e-10")
    return A


def _spd_inverse(A, name):
    """The inverse of symmetric A from its Cholesky factor; ValueError if A
    is not positive definite."""
    # Symmetric factorization succeeds iff A is positive definite.
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive definite") from None
    L_inv = np.linalg.solve(L, np.eye(A.shape[0]))
    return L_inv.T @ L_inv


class PreparedQp:
    """The fixed part of  min 1/2 x'Hx + f'x  subject to  Cu x >= b:  H and
    Cu, checked and factorized once for solving many (f, b) pairs.

    H must be square, finite, symmetric and positive definite, and Cu finite;
    otherwise ValueError. The object keeps read-only copies of H and Cu and
    the products the dual active-set method works from:

    - ``H_inv``: H^-1, built from the Cholesky factor of H;
    - ``H_inv_Ct``: H^-1 Cu' (n x q), column j the primal direction of row j;
    - ``gram``: Cu H^-1 Cu' (q x q), the constraint Gram matrix.
    """

    def __init__(self, H, Cu=None):
        H = _check_symmetric(H, "H")
        n = H.shape[0]
        Cu = np.zeros((0, n)) if Cu is None else np.array(Cu, dtype=float).reshape(-1, n)
        if not np.isfinite(Cu).all():
            raise ValueError("QP data contains non-finite entries")
        H_inv = _spd_inverse(H, "H")
        H_inv_Ct = H_inv @ Cu.T
        gram = Cu @ H_inv_Ct
        for shared in (H, Cu, H_inv, H_inv_Ct, gram):
            shared.flags.writeable = False
        self.H, self.Cu = H, Cu
        self.H_inv, self.H_inv_Ct, self.gram = H_inv, H_inv_Ct, gram
        self.cu_scale = max(1.0, np.abs(Cu).max()) if Cu.size else 1.0
        self.zero_dir_tol = 1e-12 * max(1.0, np.abs(H).max())

    @property
    def n(self):
        return self.H.shape[0]

    @property
    def q(self):
        return self.Cu.shape[0]


@dataclass
class QpProblem:
    """Strictly convex QP:  min 1/2 x'Hx + f'x  subject to  Cu x >= b.

    H must be symmetric positive definite. Cu may have zero rows for an
    unconstrained problem. H and Cu come from ``prepared``: a problem built
    without one checks and factorizes them into its own PreparedQp (and
    keeps its read-only copies); one built with one must pass that
    PreparedQp's own arrays. Either way only f and b are checked here.
    """

    H: np.ndarray
    f: np.ndarray
    Cu: np.ndarray = field(default=None)
    b: np.ndarray = field(default=None)
    prepared: PreparedQp = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        if self.prepared is None:
            self.prepared = PreparedQp(self.H, self.Cu)
            self.H, self.Cu = self.prepared.H, self.prepared.Cu
        elif self.H is not self.prepared.H or self.Cu is not self.prepared.Cu:
            raise ValueError("H and Cu must be the prepared QP's own arrays")
        n, q = self.n, self.q
        self.f = np.asarray(self.f, dtype=float).reshape(n)
        self.b = np.zeros(q) if self.b is None else np.asarray(self.b, dtype=float).reshape(q)
        if not (np.isfinite(self.f).all() and np.isfinite(self.b).all()):
            raise ValueError("QP data contains non-finite entries")

    @property
    def n(self):
        return self.H.shape[0]

    @property
    def q(self):
        return self.Cu.shape[0]

    def objective(self, x):
        return 0.5 * x @ self.H @ x + self.f @ x


def _step_ratio(lam_active, r):
    """Largest dual step before an active multiplier hits zero, and the
    first row reaching it: (t, k), or (inf, -1) when no multiplier falls."""
    return min(((lam / ri, k) for k, (lam, ri) in enumerate(zip(lam_active, r)) if ri > 0),
               default=(np.inf, -1))


def solve_qp_info(problem, tol=1e-8):
    """Solve a QpProblem by the dual active-set method (Goldfarb-Idnani).

    Starts at the unconstrained minimizer and adds violated constraints one
    at a time, taking dual steps; finite termination for strictly convex H.
    Works from the problem's PreparedQp: each step takes columns and
    sub-blocks of H^-1 Cu' and Cu H^-1 Cu', so the only solve left per step
    is the small active-set Gram system.
    Returns (x, lam, info) where lam holds the KKT multipliers (one per
    constraint row, zero for inactive rows) and info records the active rows
    and iteration count.

    Raises QpInfeasibleError (with the offending row) if no feasible point
    exists.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    qp = problem.prepared
    f, b = problem.f, problem.b
    Cu, H_inv_Ct, gram = qp.Cu, qp.H_inv_Ct, qp.gram
    n, q = qp.n, qp.q

    x = qp.H_inv @ -f
    if q == 0:
        return x, np.zeros(0), {"iterations": 0, "active": []}

    active = []          # indices of active constraint rows
    lam_active = []      # multipliers for the active rows
    scale = max(qp.cu_scale, np.abs(b).max())
    max_iter = 10 * q * n + 100
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

            if active:
                r = np.linalg.solve(gram[active][:, active], gram[active, p])  # dual step direction
                z = H_inv_Ct[:, p] - H_inv_Ct[:, active] @ r                  # primal step direction
                r = r.tolist()
            else:
                r = []
                z = H_inv_Ct[:, p]

            curvature = Cu[p] @ z
            t1, k = _step_ratio(lam_active, r)
            if curvature <= qp.zero_dir_tol:
                # No primal progress possible; take a pure dual step.
                if k < 0:
                    raise QpInfeasibleError(p)
                lam_active = [lam - t1 * ri for lam, ri in zip(lam_active, r)]
                lam_p += t1
                del active[k], lam_active[k]
                continue

            t2 = -(Cu[p] @ x - b[p]) / curvature      # step to make row p feasible
            t = min(t1, t2)
            x = x + t * z
            lam_active = [lam - t * ri for lam, ri in zip(lam_active, r)]
            lam_p += t

            if t2 <= t1:
                active.append(p)
                lam_active.append(lam_p)
                break
            del active[k], lam_active[k]

    lam = np.zeros(q)
    lam[active] = lam_active
    return x, lam, {"iterations": iterations, "active": list(active)}


class BoxQp:
    """The fixed part of  min 1/2 v'Hv v + g'v  subject to  lo <= v <= hi:
    Hv, checked and inverted once for solving many (g, lo, hi) triples by
    the primal-dual active-set method (Hintermueller, Ito & Kunisch, SIAM J.
    Optim. 2003).

    Hv must be square, finite, symmetric and positive definite; otherwise
    ValueError. The object keeps read-only ``Hv`` and ``W`` = Hv^-1. A
    sample is given by its unconstrained minimizer v_unc = -W g. With the
    bounds of an active set A held at their values c_A, the minimizer is the
    affine law

        v = v_unc - K_A (v_unc[A] - c_A),   K_A = W[:, A] W[A, A]^-1,

    and the bound multipliers, the gradient's entries on A, are
    -W[A, A]^-1 (v_unc[A] - c_A). Both matrices depend on A alone: each is
    built the first time A occurs and kept in ``laws``, keyed by A's mask,
    as explicit MPC keeps one law per region (Bemporad et al., Automatica
    2002). A solve therefore costs a few matrix-vector products once the
    sets a caller meets have been seen.
    """

    def __init__(self, Hv):
        Hv = _check_symmetric(Hv, "Hv")
        W = _spd_inverse(Hv, "Hv")
        for shared in (Hv, W):
            shared.flags.writeable = False
        self.Hv, self.W = Hv, W
        # The active-set update compares a step of the multiplier with a
        # step of v, in the units of v: lam_i / Hv_ii.
        self._inv_curvature = 1.0 / np.diag(Hv)
        self.laws = {}

    @property
    def n(self):
        return self.Hv.shape[0]

    def _law(self, active):
        """(indices of A, [K_A; W[A, A]^-1]) for the active mask ``active``."""
        key = active.tobytes()
        law = self.laws.get(key)
        if law is None:
            idx = np.flatnonzero(active)
            W_AA_inv = np.linalg.inv(self.W[np.ix_(idx, idx)])
            law = (idx, np.vstack([self.W[:, idx] @ W_AA_inv, W_AA_inv]))
            self.laws[key] = law
        return law

    def solve(self, v_unc, lo, hi, tol):
        """Minimize over the box from the unconstrained minimizer ``v_unc``.

        The first active set is the bounds ``v_unc`` violates by more than
        ``tol``; with none, ``v_unc`` is the answer. Otherwise, if some
        lower bound exceeds its upper one by more than ``tol``, there is no
        feasible point and the result is None. Each iteration applies
        the set's law, then rebuilds the lower and upper sets from v - lam /
        diag(Hv); it stops when both repeat, which is the KKT point: the
        free entries within the box (to ``tol``), the multipliers positive
        on lower and negative on upper bounds. Returns (v, lam, iterations),
        lam being the gradient Hv v + g (zero off the active set), or None
        when BOX_QP_MAX_ITERATIONS pass without the sets repeating. The
        iteration may cycle when Hv is not an M-matrix, and the caller's
        fallback is what guarantees an answer.
        """
        n = self.n
        below, above = lo - tol, hi + tol
        lower = v_unc < below
        upper = v_unc > above
        sets = lower.tobytes() + upper.tobytes()
        if sets == bytes(2 * n):
            return v_unc, np.zeros(n), 0
        if (lo > above).any():
            return None
        for iterations in range(1, BOX_QP_MAX_ITERATIONS + 1):
            idx, law = self._law(lower | upper)
            bound = np.where(lower, lo, hi)[idx]
            step = law @ (v_unc[idx] - bound)
            v = v_unc - step[:n]
            v[idx] = bound
            lam = np.zeros(n)
            lam[idx] = -step[n:]
            shifted = v - lam * self._inv_curvature
            lower = shifted < below
            upper = shifted > above
            repeated, sets = sets, lower.tobytes() + upper.tobytes()
            if sets == repeated:
                return v, lam, iterations
        return None


def kkt_residuals(problem, x, lam):
    """Residuals (stationarity, primal feasibility, complementarity) of a
    candidate KKT pair for  min 1/2 x'Hx + f'x  s.t.  Cu x >= b."""
    return kkt_residual_norms(problem.H, problem.f, problem.Cu, x, lam, problem.Cu @ x - problem.b)


def kkt_residual_norms(H, f, Cu, x, lam, slack):
    """``kkt_residuals`` from the QP's arrays and the slack Cu x - b, for a
    caller that has the slack already and no QpProblem."""
    stationarity = float(np.abs(H @ x + f - Cu.T @ lam).max())
    primal = float(max(0.0, -slack.min())) if slack.size else 0.0
    complementarity = float(np.abs(lam * slack).max()) if slack.size else 0.0
    return stationarity, primal, complementarity
