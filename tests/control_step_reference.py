"""The controller's single-sample step as it stood before a run built the
band half of its box bounds once: ``control_step`` took the sample's
(band_lo, band_hi), built the box [lo; hi] from them and u_prev on every
call, sliced the V_unc rows of ``sample_map`` on every call and solved the
box with ``BoxQp.solve``. Tests compare ``microfreq.mpc.control_step``
against it byte for byte: the command, s, V and multipliers, the shared
zero multipliers of a sample that binds nothing, the fallback at the
iteration's cap and the infeasible bound.

The function is the old one, unchanged, except that ``BoxQp.solve``, which
no longer is in the program, is ``qp_reference.box_solve`` on the same box.
It takes ``_bounds``, ``_capped_solve``, ``_QP_TOL`` and ``MpcStep`` from
the program.
"""

import numpy as np

from microfreq.mpc import _QP_TOL, MpcStep, _bounds, _capped_solve
from qp_reference import box_solve


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
    solved = box_solve(pred.box, v_unc, bounds, _QP_TOL * max(1.0, np.abs(bounds).max()))
    if solved is None:
        v, lam = _capped_solve(pred, sample, bounds)
    else:
        v, lam, _ = solved
    return MpcStep(u_prev + v[:nu], sample, v, lam)
