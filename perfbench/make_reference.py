"""Record the reference outputs that the benchmark's output check compares
against: for every seed of the pool, each sweep cell's ordering verdict and,
for every closed-loop run the workloads can start, its metrics and a digest
of its trace.

    python3 perfbench/make_reference.py

Run it from the repository root at the commit whose outputs are the
reference; it overwrites perfbench/reference.json.
"""

import contextlib
import io
import json
import sys
import tempfile

import child  # noqa: F401  (pins BLAS threads and puts src/ on the path first)
import workload
from microfreq import cli, simulate
from tracer import Tracer


def record_runs(tracer, source, runs):
    for trace, metrics in tracer.recorded:
        summary = simulate.metrics_summary(trace, metrics)
        runs[workload.run_key(source, trace.kind, trace.controller, trace.seed)] = {
            "max_abs_freq_dev": summary["max_abs_freq_dev"],
            "freq_std": summary["freq_std"],
            "constraint_violations": summary["constraint_violations"],
            "aborted_at": summary["aborted_at"],
            "digest": workload.trace_digest(trace),
        }
    tracer.recorded.clear()


def main():
    config = workload.setup()
    cells, runs = {}, {}
    tracer = Tracer()
    tracer.install()
    try:
        for seed in workload.POOL:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(["sweep", "--seeds", str(seed)])
            for line in out.getvalue().splitlines():
                if m := workload.CELL_LINE.match(line):
                    cells[f"{m[1]}/{m[2]}"] = m[3] == "yes"
            record_runs(tracer, "generated", runs)
            print(f"sweep seed {seed} recorded", file=sys.stderr)
        with tempfile.TemporaryDirectory(dir=workload.BENCH_DIR) as tmp:
            replay = workload.ReplayPi(workload.POOL, config, {"runs": {}}, work_dir=tmp)
            replay.run_pass(workload.UnitClock(probe=False))
            record_runs(tracer, "replay", runs)
    finally:
        tracer.uninstall()
    reference = {
        "rtol": workload.RTOL,
        "pool": list(workload.POOL),
        "cells": cells,
        "runs": dict(sorted(runs.items())),
    }
    with open(workload.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    not_ordered = sorted(cell for cell, ok in cells.items() if not ok)
    print(f"{len(cells)} cells ({len(not_ordered)} not ordered: {not_ordered}), "
          f"{len(runs)} runs -> {workload.REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
