"""The single-sample MPC step against its previous version.

``microfreq.mpc.control_step`` takes its sample's row of the bands a run
builds once (``box_bands``), reads V_unc through ``v_unc_map``, widens the
bounds with ``BoxQp.widening`` and calls ``BoxQp.iterate`` only when a
bound is violated. ``control_step_reference.control_step`` is the step as
it stood before: the bounds built from (band_lo, band_hi) on every call and
solved by ``BoxQp.solve``. On every sample the two must give the same
bytes of the command, s, V and multipliers; a sample that binds nothing
must get the box's shared read-only zero multipliers; crossed bands must
raise the same QpInfeasibleError, row and message; and at a cap of 0 both
must reach the dual fallback on the same samples.
"""

from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import control_step_reference
import microfreq.mpc
import microfreq.numerics
from microfreq.der_models import reserve_limits
from microfreq.lfc_model import N_CONTROLS, N_STATES, MicrogridParams
from microfreq.mpc import box_bands, control_step
from microfreq.numerics import QpInfeasibleError
from test_control_rows import BAND, PRED, sample_stacks

CAPS = pytest.mark.parametrize("cap", [microfreq.numerics.BOX_QP_MAX_ITERATIONS, 0],
                               ids=["iterate", "fallback"])


def outcome(step, *args):
    """("infeasible", row, message) if ``step`` raises on ``args``, else
    ("solved", the fallback's call count, the MpcStep)."""
    calls = []
    solve = microfreq.mpc.solve_qp_info

    def counting(*solve_args, **kwargs):
        calls.append(1)
        return solve(*solve_args, **kwargs)

    with mock.patch.object(microfreq.mpc, "solve_qp_info", counting):
        try:
            result = step(*args)
        except QpInfeasibleError as err:
            return "infeasible", err.row, str(err)
    return "solved", len(calls), result


def compare(dx, dd, y, u_prev, band_lo, band_hi):
    """The outcome of both steps on one sample, checked equal; returns the
    sample's kind: "free", "binds" or "infeasible"."""
    bands = box_bands(band_lo, band_hi, PRED.m)
    got = outcome(control_step, dx, dd, y, u_prev, bands, PRED)
    want = outcome(control_step_reference.control_step, dx, dd, y, u_prev, band_lo, band_hi,
                   PRED)
    assert got[:2] == want[:2]
    if got[0] == "infeasible":
        assert got[2] == want[2]
        return "infeasible"
    got, want = got[2], want[2]
    for name in ("command", "sample", "v", "lam"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    if want.lam is PRED.box.no_multipliers:
        assert got.lam is PRED.box.no_multipliers and not got.lam.flags.writeable
        return "free"
    assert got.lam is not PRED.box.no_multipliers
    return "binds"


@CAPS
@given(stack=sample_stacks())
def test_each_sample_has_the_bytes_of_the_previous_step(cap, stack):
    with mock.patch.object(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", cap):
        for row in zip(*stack):
            compare(*row)


@CAPS
def test_free_binding_drifted_and_crossed_samples(cap):
    dx, dd = np.zeros(N_STATES), 0.0
    u_prev = np.zeros(N_CONTROLS)
    cases = []
    for y, unit, shift, total in [
        (0.0, None, 0.0, 0.0),      # free: V_unc is 0, inside every band
        (-0.02, None, 0.0, 0.0),    # binds: the renewables' bands cap the move up
        (0.0, 0, 0.0, 0.05),        # binds: a drifted total, outside its band
        (0.0, 2, 1e-4, 0.0),        # crossed, and it binds
        (-0.02, 5, 5e-11, 0.0),     # binds, crossed within the tolerance
        (0.0, 2, 1.5e-10, 0.0),     # crossed beyond a tolerance of 1e-10
    ]:
        band_lo, band_hi = -BAND.copy(), BAND.copy()
        if y:
            band_hi[:4] = 1e-3
        prev = u_prev.copy()
        prev[0] = total
        if shift:
            band_lo[unit] = band_hi[unit] + shift
        with mock.patch.object(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", cap):
            cases.append(compare(dx, dd, y, prev, band_lo, band_hi))
    assert cases == ["free", "binds", "binds", "infeasible", "binds", "infeasible"]


def test_a_capped_binding_sample_reaches_the_fallback():
    band_lo, band_hi = -BAND, BAND.copy()
    band_hi[:4] = 1e-3
    bands = box_bands(band_lo, band_hi, PRED.m)
    with mock.patch.object(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", 0):
        kind, calls, _ = outcome(control_step, np.zeros(N_STATES), 0.0, -0.02,
                                 np.zeros(N_CONTROLS), bands, PRED)
    assert (kind, calls) == ("solved", 1)


def test_the_step_takes_a_row_of_the_run_bands():
    # A run builds its bands over the whole grid; each row is one sample's.
    lo = -np.arange(1.0, 13.0).reshape(2, N_CONTROLS)
    grid = box_bands(lo, -lo, PRED.m)
    assert grid.shape == (2, 2 * PRED.box.n)
    for k in range(2):
        assert grid[k].tobytes() == box_bands(lo[k], -lo[k], PRED.m).tobytes()
        assert grid[k].tobytes() == np.concatenate([np.tile(lo[k], PRED.m),
                                                    np.tile(-lo[k], PRED.m)]).tobytes()
    assert PRED.unit_of_bound.tolist() == list(range(N_CONTROLS)) * 2 * PRED.m
    assert PRED.v_unc_map.tobytes() == PRED.sample_map[-PRED.box.n:].tobytes()
    for shared in (PRED.unit_of_bound, PRED.v_unc_map):
        assert not shared.flags.writeable


PARAMS = MicrogridParams()
# Deloaded availabilities, kW: zero, subnormals, the smallest normal, 1e6.
AVAILABLE = st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e6]),
                      st.floats(0.0, 1e6))


@CAPS
@settings(max_examples=200)
@given(deload=st.floats(0.0, 1.0, exclude_max=True),
       dispatch_du=st.floats(0.0, PARAMS.p_du),
       dispatch_bess=st.floats(-PARAMS.p_bess, PARAMS.p_bess),
       available=st.tuples(AVAILABLE, AVAILABLE, AVAILABLE, AVAILABLE),
       u_prev=hnp.arrays(float, N_CONTROLS, elements=st.floats(-1e20, 1e20)),
       dx=hnp.arrays(float, N_STATES, elements=st.floats(-0.05, 0.05)),
       dd=st.floats(-0.08, 0.08), y=st.floats(-0.02, 0.02))
def test_validated_limits_never_make_the_qp_infeasible(cap, deload, dispatch_du, dispatch_bess,
                                                       available, u_prev, dx, dd, y):
    # Each unit's lower limit is at most its upper one exactly, and rounding
    # is monotone, so lo - u_prev <= hi - u_prev for any finite u_prev: the
    # crossed-bound check, against hi - u_prev + tol, never fires.
    limits = reserve_limits(*available, dispatch_du, dispatch_bess, PARAMS, deload)
    assert (limits.lo <= limits.hi).all()
    bands = box_bands(limits.lo, limits.hi, PRED.m)
    with mock.patch.object(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", cap):
        control_step(dx, dd, y, u_prev, bands, PRED)
