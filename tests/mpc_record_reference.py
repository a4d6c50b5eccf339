"""An MPC run's diagnostics as the run loop once computed them: a block of
``_DIAGNOSTIC_ROWS`` samples at a time, as the loop passed them, each
block closed when it was full and the last one when the run ended. Tests
feed it a run's samples and compare its cost, binding flags and largest
KKT residual with the trace's, which computes them only when they are
read, bit for bit.

The class is the old one, unchanged. ``_DIAGNOSTIC_ROWS`` and the
functions it calls come from the program, as they did; a test builds it
with the run's prediction matrices, limits and commands and one block of
``_DIAGNOSTIC_ROWS`` rows per recorded quantity, calls ``keep`` with each
sample's ``MpcStep`` in order and ``close`` at the run's last solved sample.
"""

import numpy as np

from microfreq.lfc_model import N_CONTROLS
from microfreq.mpc import active_units, build_constraints, out_of_band_units, step_diagnostics
from microfreq.simulate import _DIAGNOSTIC_ROWS


class _MpcRecord:
    """What an MPC run keeps of its samples for its trace: the cost, the
    binding flags (as bools) and the largest KKT residual. A sample's s, V
    and bound multipliers wait in the run's block of ``_DIAGNOSTIC_ROWS``
    rows, ``block`` (its rows of the ``_Runs.blocks`` arrays); when the
    block is full, or the run ends, ``step_diagnostics`` gives its cost,
    active bounds and KKT residuals, on the bounds rebuilt from the limits
    and the previous commands (zero before the first sample). A unit whose
    previous command is already outside the sample's band drifted there and
    is flagged as binding too. ``commands`` is the run's own record, which
    the loop fills a sample ahead of the block. A single run fills its
    block with ``keep``; a batch writes the rows of all its MPC runs' blocks
    at once and closes each full block itself."""

    def __init__(self, pred, limits, commands, block):
        self.pred, self.limits, self.commands = pred, limits, commands
        self.objective = np.zeros(commands.shape[0])
        self.binding = np.zeros((commands.shape[0], N_CONTROLS), dtype=bool)
        self.max_kkt = 0.0
        self.start = 0  # the sample of the block's first row
        self.samples, self.moves, self.multipliers = block

    def keep(self, k, step):
        i = k - self.start
        self.samples[i], self.moves[i], self.multipliers[i] = step.sample, step.v, step.lam
        if i + 1 == _DIAGNOSTIC_ROWS:
            self.close(k + 1)

    def close(self, end):
        """Diagnose the block's samples before ``end``."""
        start, rows = self.start, end - self.start
        if rows == 0:
            return
        if start:
            previous = self.commands[start - 1:end - 1]
        else:
            previous = np.concatenate([np.zeros((1, N_CONTROLS)), self.commands[:end - 1]])
        limits = self.limits.at(slice(start, end))
        lo, hi = build_constraints(limits, previous, self.pred)
        steps = step_diagnostics(self.pred, self.samples[:rows], self.moves[:rows],
                                 self.multipliers[:rows], lo, hi)
        self.objective[start:end] = steps.objective
        self.binding[start:end] = (active_units(steps.qp_active, self.pred.m)
                                   | out_of_band_units(limits, previous))
        self.max_kkt = max(self.max_kkt, float(steps.kkt_residuals.max()))
        self.start = end
