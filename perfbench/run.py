"""Benchmark of microfreq: one measurement of one workload.

    python3 perfbench/run.py --workload {sweep,mpc-rapid,replay-pi} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it needs only Python 3 and numpy. Every
workload process is fresh, single-threaded (BLAS pinned to one thread) and
reads its program from ``src/``.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
over several fresh processes, then passes of the workload for ``--seconds``.
``--trace 1`` runs one untraced and one traced pass, each in its own process,
and reports the per-layer metrics and the tracing overhead.

Metric lines go to stdout as ``name value unit``; the last line is one JSON
object with the keys correct, attempted, failed and metrics. See NOTES.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
WORKLOADS = ("sweep", "mpc-rapid", "replay-pi")
SETUP_PROBES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """A workload process failed, so the measurement has no result."""


def spawn(args, deadline):
    """Run one workload process and return the JSON object it printed."""
    env = dict(os.environ, BENCH_SPAWN_NS=str(time.monotonic_ns()))
    proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process {args} did not finish in time") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"workload process {args} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info(child):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        **child["machine"],
    }


def end_to_end(workload, seed, seconds, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    # The first process warms the file cache and writes bytecode; not counted.
    spawn(common + ["--setup-only"], deadline)
    setups = [spawn(common + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    run = spawn(common + ["--seconds", str(seconds)], deadline)
    setups.append(run["setup_s"])
    attempted, failed = run["attempted"], run["failed"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (run["wall_s"], "s"),
        "us_per_step": (run["wall_s"] / run["samples"] * 1e6, "us"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {"pass_wall_s": run["pass_wall_s"], "raw_wall_s": run["raw_wall_s"],
             "raw_setup_s": run["raw_setup_s"], "samples_per_pass": run["samples"]}
    return metrics, attempted, failed, run["problems"], run, notes


def per_layer(workload, seed, deadline):
    common = ["--workload", workload, "--seed", str(seed), "--seconds", "0"]
    plain = spawn(common, deadline)
    traced = spawn(common + ["--trace"], deadline)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics["simulate.trace_mismatches"] = (traced["trace_mismatches"], "count")
    metrics["bench.samples"] = (traced["samples"], "count")
    metrics["bench.spans"] = (traced["spans"], "count")
    metrics["bench.trace_overhead_s"] = (traced["raw_wall_s"] - plain["raw_wall_s"], "s")
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    notes = {"untraced_wall_s": plain["raw_wall_s"], "traced_wall_s": traced["raw_wall_s"]}
    return metrics, attempted, failed, plain["problems"] + traced["problems"], traced, notes


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description="microfreq benchmark, one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "microfreq", "__init__.py")):
        print(f"no microfreq source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            measured = per_layer(args.workload, args.seed, deadline)
        else:
            measured = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics, attempted, failed, problems, child, notes = measured

    names = declared_metrics(args.trace)
    if sorted(names) != sorted(metrics):
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}",
              file=sys.stderr)
        return 1
    for problem in problems:
        print(f"output check: {problem}", file=sys.stderr)
    print(f"# machine {json.dumps(machine_info(child), sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed} runs attempted={attempted} failed={failed}")
    print(f"# notes {json.dumps(notes, sort_keys=True)}")
    for name in names:
        value, unit = metrics[name]
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
