"""The trace CSV writer as it stood before the one-format writer: each cell
formatted on its own with an f-string and written through ``csv.writer``.
Tests compare the bytes of ``microfreq.simulate.write_trace_csv`` against it.

``write_trace_csv`` here takes the same trace and path as
``microfreq.simulate.write_trace_csv``.
"""

import csv

from microfreq.simulate import TRACE_COLUMNS


def write_trace_csv(trace, path):
    """One row per sample; floats at 15 significant digits for bit-stable
    reproduction (column meanings in trace_schema.md)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for k in range(trace.freq.size):
            row = (
                [f"{trace.t[k]:.15e}", f"{trace.freq[k]:.15e}"]
                + [f"{v:.15e}" for v in trace.commands[k]]
                + [f"{v:.15e}" for v in trace.outputs[k]]
                + [f"{v:.15e}" for v in trace.disturbances[k]]
                + [f"{trace.d_hat[k]:.15e}"]
                + [f"{v:.15e}" for v in trace.limits_lo[k]]
                + [f"{v:.15e}" for v in trace.limits_hi[k]]
                + [str(int(v)) for v in trace.binding[k]]
                + [f"{trace.objective[k]:.15e}"]
            )
            writer.writerow(row)
