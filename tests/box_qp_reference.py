"""The box QP solver as it stood before it took its caller's [lo; hi] and
built its multipliers only on the iteration whose sets repeat: ``BoxQp``
with ``solve(v_unc, lo, hi, tol)``, which concatenates the bounds itself,
and an ``iterate`` that builds v and lam on every iteration and shifts by
v - lam / diag(H). Tests compare ``microfreq.numerics.BoxQp`` against it
byte for byte: v, lam, the iteration count, the give-up at the cap and the
infeasible bound.

The class is the old one, unchanged, except that it reads the cap from
``microfreq.numerics.BOX_QP_MAX_ITERATIONS`` at each solve, so a test
that lowers it there lowers it for both solvers. It takes
``_checked_hessian`` and ``QpInfeasibleError`` from the program.
"""

import numpy as np

import microfreq.numerics
from microfreq.numerics import QpInfeasibleError, _checked_hessian


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
        array or law is built. Otherwise ``iterate`` solves it from that
        set, on the bounds widened by ``tol``. Returns (v, lam, iterations),
        lam being the gradient H v + g (zero off the active set), or None
        when the iteration gives up; QpInfeasibleError on crossed bounds.
        """
        below, above = lo - tol, hi + tol
        lower, upper = v_unc < below, v_unc > above
        if lower.tobytes() + upper.tobytes() == self._no_sets:
            return v_unc, self._no_multipliers, 0
        return self.iterate(v_unc, np.concatenate((lo, hi)), below, above, lower, upper)

    def iterate(self, v_unc, bounds, below, above, lower, upper):
        """The box iteration of a sample that binds: ``bounds`` is [lo; hi],
        ``below`` and ``above`` are lo - tol and hi + tol, and ``lower`` and
        ``upper`` the first sets, the bounds ``v_unc`` violates.

        If some lower bound exceeds its upper one by more than tol, there is
        no feasible point, and QpInfeasibleError names the first such bound.
        Each iteration applies the law of its (lower, upper) sets, then
        rebuilds the lower and upper sets from v - lam / diag(H); it stops
        when both repeat, which is the KKT point: the free entries within
        the box (to tol), the multipliers positive on lower and negative on
        upper bounds. Returns (v, lam, iterations), or None when
        BOX_QP_MAX_ITERATIONS pass without the sets repeating. The
        iteration may cycle when H is not an M-matrix, and the caller's
        fallback, ``solve_qp_info`` on the same problem, is what guarantees
        an answer.
        """
        n = self.n
        crossed = bounds[:n] > above
        if crossed.any():
            j = int(np.argmax(crossed))
            raise QpInfeasibleError(j, f"QP infeasible: lower bound {j} exceeds its upper bound by {bounds[j] - bounds[n + j]:.3e}")
        sets = lower.tobytes() + upper.tobytes()
        for iterations in range(1, microfreq.numerics.BOX_QP_MAX_ITERATIONS + 1):
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
