"""The trace CSV writer as it stood before the one-format writer: each cell
formatted on its own with an f-string and written through ``csv.writer``.
Tests compare the bytes of ``microfreq.simulate.write_trace_csv`` against it.

``write_trace_csv`` here takes the same trace and path as
``microfreq.simulate.write_trace_csv``, and writes the header spelled out
as it was then, so the byte tests also pin the header.
"""

import csv

_UNITS = ("pv1", "pv2", "wt1", "wt2", "du", "bess")
TRACE_COLUMNS = (
    ["t", "freq_dev"]
    + [f"cmd_{u}" for u in _UNITS]
    + [f"out_{u}" for u in _UNITS]
    + [f"dist_{c}" for c in ("load", "pv1", "pv2", "wt1", "wt2")]
    + ["d_hat"]
    + [f"lo_{u}" for u in _UNITS]
    + [f"hi_{u}" for u in _UNITS]
    + [f"bind_{u}" for u in _UNITS]
    + ["objective"]
)


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
