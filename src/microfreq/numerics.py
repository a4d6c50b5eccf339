"""Dense matrix numerics: matrix exponential, zero-order-hold discretization,
a small strictly-convex QP solver with linear inequality constraints, and,
for the box-constrained case, a solver on the bounds (lo, hi) themselves
that keeps the affine law of each active set it meets, and the stacked
matrix-vector products (``rows_times``) that keep a per-row product's bits.

The functions operate on plain numpy arrays and are pure. A ``BoxQp`` fills
its law cache as it solves, so its solves must not run concurrently (a run
config's MPC runs share one, one run after another); each law depends on
the active set alone, so the fill order never changes a result.
"""

from dataclasses import dataclass

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

    ``row`` is the index of the constraint row, or for a box the bound, that
    could not be satisfied.
    """

    def __init__(self, row, message=None):
        self.row = row
        super().__init__(message or f"QP infeasible: constraint row {row} cannot be satisfied")


def rows_times(M, X):
    """M @ x for every row x of X, each as its own matrix-vector product.
    One matrix-matrix product X @ M.T would sum in another order and move
    the results in their last bits."""
    return np.matmul(M[None], X[:, :, None])[:, :, 0]


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


def spd_inverse(A, name):
    """The inverse of symmetric A from its Cholesky factor; ValueError if A
    is not positive definite."""
    # Symmetric factorization succeeds iff A is positive definite.
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} is not positive definite") from None
    L_inv = np.linalg.solve(L, np.eye(A.shape[0]))
    return L_inv.T @ L_inv


def _checked_hessian(H):
    """A read-only copy of H and its inverse H^-1 from the Cholesky factor;
    ValueError unless H is square, finite, symmetric within 1e-10 and
    positive definite."""
    H = np.array(_check_square(H, "H"))
    if np.abs(H - H.T).max() > _SYMMETRY_TOL:
        raise ValueError("H is not symmetric within 1e-10")
    H_inv = spd_inverse(H, "H")
    H.flags.writeable = H_inv.flags.writeable = False
    return H, H_inv


@dataclass
class QpProblem:
    """Strictly convex QP:  min 1/2 x'Hx + f'x  subject to  Cu x >= b.

    H must be square, finite, symmetric within 1e-10 and positive definite,
    and Cu, f and b finite; otherwise ValueError. Cu may have zero rows for
    an unconstrained problem. The problem keeps read-only copies of H and Cu
    and the products the dual active-set method works from:

    - ``H_inv``: H^-1, built from the Cholesky factor of H;
    - ``H_inv_Ct``: H^-1 Cu' (n x q), column j the primal direction of row j;
    - ``gram``: Cu H^-1 Cu' (q x q), the constraint Gram matrix.
    """

    H: np.ndarray
    f: np.ndarray
    Cu: np.ndarray = None
    b: np.ndarray = None

    def __post_init__(self):
        self.H, self.H_inv = _checked_hessian(self.H)
        n = self.n
        Cu = np.zeros((0, n)) if self.Cu is None else self.Cu
        self.Cu = np.array(Cu, dtype=float).reshape(-1, n)
        q = self.q
        self.f = np.asarray(self.f, dtype=float).reshape(n)
        self.b = np.zeros(q) if self.b is None else np.asarray(self.b, dtype=float).reshape(q)
        if not all(np.isfinite(data).all() for data in (self.Cu, self.f, self.b)):
            raise ValueError("QP data contains non-finite entries")
        self.H_inv_Ct = self.H_inv @ self.Cu.T
        self.gram = self.Cu @ self.H_inv_Ct
        for shared in (self.Cu, self.H_inv_Ct, self.gram):
            shared.flags.writeable = False

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
    Each step takes columns and sub-blocks of the problem's H^-1 Cu' and
    Cu H^-1 Cu', so the only solve left per step is the small active-set
    Gram system.
    Returns (x, lam, info) where lam holds the KKT multipliers (one per
    constraint row, zero for inactive rows) and info records the active rows
    and iteration count.

    Raises QpInfeasibleError (with the offending row) if no feasible point
    exists.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    f, b = problem.f, problem.b
    Cu, H_inv_Ct, gram = problem.Cu, problem.H_inv_Ct, problem.gram
    n, q = problem.n, problem.q

    x = problem.H_inv @ -f
    if q == 0:
        return x, np.zeros(0), {"iterations": 0, "active": []}

    active = []          # indices of active constraint rows
    lam_active = []      # multipliers for the active rows
    scale = max(1.0, np.abs(Cu).max(), np.abs(b).max())
    zero_dir_tol = 1e-12 * max(1.0, np.abs(problem.H).max())
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
            if curvature <= zero_dir_tol:
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
    """The fixed part of  min 1/2 v'H v + g'v  subject to  lo <= v <= hi,
    and the law cache of its primal-dual active-set method (Hintermueller,
    Ito & Kunisch, SIAM J. Optim. 2003). H is checked as a QpProblem's is;
    the object keeps read-only copies of H and W = H^-1 (``H_inv``).

    A sample is given by its unconstrained minimizer v_unc = -W g. With the
    bounds of an active set A held at their values c_A, the minimizer is the
    affine law

        v = v_unc - K_A (v_unc[A] - c_A),   K_A = W[:, A] W[A, A]^-1,

    and the bound multipliers, the gradient's entries on A, are
    -W[A, A]^-1 (v_unc[A] - c_A). Both matrices depend on A alone: they
    are built the first time A occurs, as explicit MPC keeps one law per
    region (Bemporad et al., Automatica 2002). Each split of A into lower
    and upper bounds is kept in ``laws``, keyed by the bytes of the two
    masks, with A's indices, the picks of c_A from [lo; hi] and A's
    matrices. A solve therefore costs a few matrix-vector products once the
    sets a caller meets have been seen. The bounds stay (lo, hi)
    throughout; only a caller whose iteration reached the cap writes them
    as the rows [I; -I] v >= [lo; -hi] of a QpProblem for
    ``solve_qp_info``.
    """

    def __init__(self, H):
        self.H, self.H_inv = _checked_hessian(H)
        # The active-set update compares a step of the multiplier with a
        # step of v, in the units of v: lam_i / H_ii.
        self._inv_curvature = 1.0 / np.diag(self.H)
        # The sets and multipliers of every solve that binds no bound.
        self._no_sets = bytes(2 * self.n)
        self._no_multipliers = np.zeros(self.n)
        self._no_multipliers.flags.writeable = False
        self.laws = {}
        self._matrices = {}

    @property
    def n(self):
        return self.H.shape[0]

    def _law(self, sets, lower, upper):
        """(indices of A, their picks from [lo; hi], [K_A; W[A, A]^-1]) for
        the lower and upper masks ``lower`` and ``upper``, whose bytes are
        ``sets``; A is their union, and its splits share the matrix."""
        law = self.laws.get(sets)
        if law is None:
            active = lower | upper
            idx = np.flatnonzero(active)
            picks = np.where(lower[idx], idx, idx + self.n)
            key = active.tobytes()
            matrix = self._matrices.get(key)
            if matrix is None:
                columns = self.H_inv[:, idx]
                W_AA_inv = np.linalg.inv(columns[idx])
                matrix = self._matrices[key] = np.concatenate((columns @ W_AA_inv, W_AA_inv))
            law = self.laws[sets] = (idx, picks, matrix)
        return law

    def solve(self, v_unc, lo, hi, tol):
        """Minimize over the box from the unconstrained minimizer ``v_unc``.

        The first active set is the bounds ``v_unc`` violates by more than
        ``tol``; with none, ``v_unc`` is the answer, with the read-only
        zero multipliers that every such solve shares, and no multiplier
        array or law is built. Otherwise, if some lower bound exceeds its
        upper one by more than ``tol``, there is no feasible point, and
        QpInfeasibleError names the first such bound. Each iteration
        applies the law of its (lower, upper) sets, then rebuilds the lower
        and upper sets from v - lam / diag(H); it stops when both repeat,
        which is the KKT point: the free entries within the box (to
        ``tol``), the multipliers positive on lower and negative on upper
        bounds. Returns (v, lam, iterations), lam being the gradient
        H v + g (zero off the active set), or None when
        BOX_QP_MAX_ITERATIONS pass without the sets repeating. The
        iteration may cycle when H is not an M-matrix, and the caller's
        fallback, ``solve_qp_info`` on the same problem, is what guarantees
        an answer.
        """
        below, above = lo - tol, hi + tol
        lower, upper = v_unc < below, v_unc > above
        sets = lower.tobytes() + upper.tobytes()
        if sets == self._no_sets:
            return v_unc, self._no_multipliers, 0
        if (lo > above).any():
            j = int(np.argmax(lo > above))
            raise QpInfeasibleError(j, f"QP infeasible: lower bound {j} exceeds its upper bound by {lo[j] - hi[j]:.3e}")
        n = self.n
        bounds = np.concatenate((lo, hi))
        for iterations in range(1, BOX_QP_MAX_ITERATIONS + 1):
            idx, picks, law = self._law(sets, lower, upper)
            bound = bounds[picks]
            step = law @ (v_unc[idx] - bound)
            v = v_unc - step[:n]
            v[idx] = bound
            lam = np.zeros(n)
            lam[idx] = -step[n:]
            shifted = v - lam * self._inv_curvature
            lower, upper = shifted < below, shifted > above
            repeated, sets = sets, lower.tobytes() + upper.tobytes()
            if sets == repeated:
                return v, lam, iterations
        return None


def kkt_residuals(problem, x, lam):
    """Residuals (stationarity, primal feasibility, complementarity) of a
    candidate KKT pair for  min 1/2 x'Hx + f'x  s.t.  Cu x >= b."""
    slack = problem.Cu @ x - problem.b
    stationarity = float(np.abs(problem.H @ x + problem.f - problem.Cu.T @ lam).max())
    primal = float(max(0.0, -slack.min())) if slack.size else 0.0
    complementarity = float(np.abs(lam * slack).max()) if slack.size else 0.0
    return stationarity, primal, complementarity
