"""Dense matrix numerics: matrix exponential, zero-order-hold discretization,
and a small strictly-convex QP solver with linear inequality constraints.

Everything here operates on plain numpy arrays and is pure (no hidden state),
so all functions are safe to call concurrently.
"""

from dataclasses import dataclass, field

import numpy as np

# Taylor truncation order for the scaled series; with the 0.5 scaling target
# the series remainder is far below double precision.
_SERIES_ORDER = 18
_SCALING_TARGET = 0.5

_SYMMETRY_TOL = 1e-10


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
        H = np.array(_check_square(H, "H"))
        if np.abs(H - H.T).max() > _SYMMETRY_TOL:
            raise ValueError("H is not symmetric within 1e-10")
        n = H.shape[0]
        Cu = np.zeros((0, n)) if Cu is None else np.array(Cu, dtype=float).reshape(-1, n)
        if not np.isfinite(Cu).all():
            raise ValueError("QP data contains non-finite entries")
        # Symmetric factorization succeeds iff H is positive definite.
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError:
            raise ValueError("H is not positive definite") from None
        L_inv = np.linalg.solve(L, np.eye(n))
        H_inv = L_inv.T @ L_inv
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


def solve_qp(problem, tol=1e-8):
    """Return the unique minimizer of a QpProblem (see solve_qp_info)."""
    x, _, _ = solve_qp_info(problem, tol=tol)
    return x


def kkt_residuals(problem, x, lam):
    """Residuals (stationarity, primal feasibility, complementarity) of a
    candidate KKT pair for  min 1/2 x'Hx + f'x  s.t.  Cu x >= b."""
    stationarity = np.linalg.norm(problem.H @ x + problem.f - problem.Cu.T @ lam, np.inf)
    slack = problem.Cu @ x - problem.b
    primal = float(max(0.0, -slack.min())) if slack.size else 0.0
    complementarity = float(np.abs(lam * slack).max()) if slack.size else 0.0
    return stationarity, primal, complementarity
