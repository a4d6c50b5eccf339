"""The batched MPC stage against the single-sample step.

``microfreq.mpc.control_rows`` solves a stack of MPC samples at once: one
prologue over all rows, and the box iteration only for the rows that bind.
Each row's command, s, V and bound multipliers must have the bytes
``control_step`` gives that row on its own, and exactly the rows on which
``control_step`` raises QpInfeasibleError are listed infeasible, each with
a zero move, also when the iteration's cap sends every binding row to the
dual fallback.
"""

from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import microfreq.mpc
import microfreq.numerics
from microfreq.lfc_model import N_CONTROLS, N_STATES, build_plant
from microfreq.mpc import (
    MpcConfig,
    box_bands,
    build_prediction_matrices,
    control_rows,
    control_step,
)
from microfreq.numerics import QpInfeasibleError
from microfreq.simulate import RunConfig

PRED = build_prediction_matrices(build_plant(RunConfig().params), MpcConfig())

# About the largest reserve band of each unit in the rapid scenarios, p.u.
BAND = np.array([0.037, 0.032, 0.027, 0.027, 0.3, 0.5])


def outcomes(dx, dd, y, u_prev, band_lo, band_hi):
    """Compare ``control_rows`` on the stack with ``control_step`` on each
    row, byte for byte; returns each row's kind: "free" (V_unc in the box),
    "binds" or "infeasible"."""
    calls = []
    solve = microfreq.mpc.solve_qp_info

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    with mock.patch.object(microfreq.mpc, "solve_qp_info", counting):
        rows = control_rows(dx, dd, y, u_prev, band_lo, band_hi, PRED)
        batch_calls = len(calls)
        kinds = []
        for r in range(len(y)):
            try:
                step = control_step(dx[r], dd[r], y[r], u_prev[r],
                                    box_bands(band_lo[r], band_hi[r], PRED.m), PRED)
            except QpInfeasibleError:
                kinds.append("infeasible")
                # A zero move, so a batch's row holds its command.
                assert not rows.v[r].any() and not rows.lam[r].any()
                assert np.array_equal(rows.commands[r], u_prev[r])
                continue
            kinds.append("binds" if step.lam.any() or not np.array_equal(
                step.v, PRED.sample_map[-PRED.box.n:] @ step.sample) else "free")
            for got, want in ((rows.commands, step.command), (rows.samples, step.sample),
                              (rows.v, step.v), (rows.lam, step.lam)):
                assert got[r].tobytes() == want.tobytes(), r
    assert rows.infeasible == [r for r, kind in enumerate(kinds) if kind == "infeasible"]
    # The batch takes the fallback on exactly the rows the single steps do.
    assert batch_calls == len(calls) - batch_calls
    return kinds


@st.composite
def sample_stacks(draw):
    """A stack of 1 to 6 samples: s of real magnitudes, scaled per row
    (by zero too, so some rows bind nothing), bands up to ``BAND`` on each
    side, previous totals up to 3 bands out (so some lie outside a
    shrunken band, and some rows' bounds, and so their tolerance, exceed
    the others'), and in some rows one unit whose lower band exceeds its
    upper by less than, about or well over the QP's tolerance."""
    rows = draw(st.integers(1, 6))

    def uniform(shape, low, high):
        return draw(hnp.arrays(float, shape, elements=st.floats(low, high)))

    scale = np.array(draw(st.lists(st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
                                   min_size=rows, max_size=rows)))
    dx = scale[:, None] * uniform((rows, N_STATES), -0.05, 0.05)
    dd = scale * uniform(rows, -0.08, 0.08)
    y = scale * uniform(rows, -0.02, 0.02)
    band_lo = -BAND * uniform((rows, N_CONTROLS), 0.0, 1.0)
    band_hi = BAND * uniform((rows, N_CONTROLS), 0.0, 1.0)
    u_prev = BAND * uniform((rows, N_CONTROLS), -3.0, 3.0)
    for r in range(rows):
        unit = draw(st.integers(-N_CONTROLS, N_CONTROLS - 1))
        if unit >= 0:
            band_lo[r, unit] = band_hi[r, unit] + draw(st.sampled_from([5e-11, 1.5e-10, 1e-4]))
    return dx, dd, y, u_prev, band_lo, band_hi


@pytest.mark.parametrize("cap", [microfreq.numerics.BOX_QP_MAX_ITERATIONS, 0],
                         ids=["iterate", "fallback"])
@given(stack=sample_stacks())
def test_each_row_has_the_bytes_of_its_control_step(cap, stack):
    with mock.patch.object(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", cap):
        outcomes(*stack)


@pytest.mark.parametrize("cap", [microfreq.numerics.BOX_QP_MAX_ITERATIONS, 0],
                         ids=["iterate", "fallback"])
def test_a_stack_mixes_free_binding_drifted_and_crossed_rows(cap):
    wide = np.tile(BAND, (7, 1))
    dx, dd = np.zeros((7, N_STATES)), np.zeros(7)
    y = np.array([0.0, -0.02, 0.0, -0.02, 0.0, 0.0, 0.0])
    u_prev = np.zeros((7, N_CONTROLS))
    band_lo, band_hi = -wide, wide.copy()
    band_hi[1, :4] = 1e-3   # row 1: the renewables' bands bind the move up
    u_prev[2, 0] = 0.05     # row 2: a drifted total, outside its band
    band_lo[3, 2] = band_hi[3, 2] + 1e-4   # row 3: crossed, and it binds
    band_lo[4, 5] = band_hi[4, 5] + 5e-11  # row 4: binds, crossed within the tolerance
    # Each row's tolerance is 1e-10 times its largest bound, at least 1:
    # row 5's (1e-10) finds a gap of 1.5e-10 crossed; row 6's, with a
    # battery total of 1.0 that makes its bounds reach 1.5, does not.
    band_lo[5, 2] = band_hi[5, 2] + 1.5e-10
    u_prev[6, 5] = 1.0
    band_lo[6, 2] = band_hi[6, 2] + 1.2e-10
    with mock.patch.object(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", cap):
        kinds = outcomes(dx, dd, y, u_prev, band_lo, band_hi)
    assert kinds == ["free", "binds", "binds", "infeasible", "binds", "infeasible", "binds"]
