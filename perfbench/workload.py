"""Workloads of the microfreq benchmark and the process that runs them.

``child.py`` runs ``main`` in a fresh process per measurement. The process
sets up as a fresh ``microfreq`` process would, reports how long that took,
then runs passes of one workload for ``--seconds`` (at least one pass, and
none that would end later), checks every run's outputs, and prints one JSON
line.

A pass is a fixed list of timed units: one closed-loop run, one ``microfreq
run`` call, or one cell of the sweep. Right before and after each unit the
process times a fixed probe of host speed (``host_probe``), and the unit's
time is scaled by ``PROBE_REF_S`` over the mean of its two probe times. On
a shared host other tenants slow the probe and the program alike, so the
scaled times stay steady while raw times drift by a fifth or more over tens
of seconds. The workload's wall time is the sum over units of each unit's
median scaled time across passes; raw times are reported alongside.

Every workload draws its scenario seeds from ``POOL`` with the benchmark
seed, so the same seed gives the same inputs. ``reference.json`` holds the
outputs of every pool seed recorded by ``make_reference.py``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import time

import numpy as np

import microfreq
from microfreq import cli, profiles, simulate
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

POOL = tuple(range(40))
SWEEP_SEEDS = 5            # the default sweep grid: 5 seeds x 3 kinds x 3 controllers
MPC_RUNS = 8
REPLAY_PROFILES = 8
# Samples per run of each kind at the default durations (120/180/180 s, Ts 0.2 s).
SAMPLES = {"step": 600, "moderate": 900, "rapid": 900}
KINDS = ("step", "moderate", "rapid")
PI_CONTROLLERS = ("pi_all", "pi_dubess")

# Relative tolerance of the per-run output check against reference.json.
RTOL = 1e-6
CHECKED_METRICS = ("max_abs_freq_dev", "freq_std")
TRACE_FIELDS = ("t", "freq", "commands", "outputs", "disturbances", "d_hat",
                "limits_lo", "limits_hi", "binding", "objective")

CELL_LINE = re.compile(r"^(\w+)\s+seed=(\d+)\s+std \S+ ordered=(yes|NO)$")
VERDICT_LINE = re.compile(r"^all runs ordered mpc < pi_all < pi_dubess: (yes|NO)$")

# Host-speed probe: interpreted loop iterations and small dense solves, the
# same mix of work as the program's sample loop. PROBE_REF_S is its time on
# an idle host of the reference machine (see NOTES.md).
PROBE_LOOP = 40000
PROBE_SOLVES = 400
PROBE_REF_S = 0.006
_PROBE_H = np.diag(np.arange(1.0, 19.0)) + 0.1
_PROBE_B = np.ones(18)


def setup():
    """Everything a fresh process does before its first run, after import."""
    config = cli.load_run_config()
    model = simulate.build_plant(config.params, config.mpc.Ts)
    simulate.require_detectable(model)
    simulate.build_prediction_matrices(model, config.mpc)
    return config


def pick_seeds(workload, seed, k):
    """k scenario seeds from POOL, fixed by the workload name and seed."""
    return random.Random(f"{workload}:{seed}").sample(POOL, k)


def trace_digest(trace):
    h = hashlib.sha256(repr(trace.aborted_at).encode())
    for name in TRACE_FIELDS:
        h.update(np.ascontiguousarray(getattr(trace, name)).tobytes())
    return h.hexdigest()[:16]


def run_key(source, kind, controller, seed):
    return f"{source}/{kind}/{controller}/{seed}"


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_run(reference, key, summary):
    """Problems with one run's metrics summary; an empty list means it passed."""
    ref = reference["runs"].get(key)
    if ref is None:
        return [f"{key}: no reference"]
    problems = []
    if summary["aborted_at"] is not None:
        problems.append(f"{key}: aborted at step {summary['aborted_at']}")
    if summary["constraint_violations"] != 0:
        problems.append(f"{key}: {summary['constraint_violations']} constraint violations")
    for name in CHECKED_METRICS:
        got, want = summary[name], ref[name]
        if abs(got - want) > RTOL * abs(want):
            problems.append(f"{key}: {name} {got!r} != reference {want!r}")
    return problems


def _untraced(name):
    return contextlib.nullcontext()


def host_probe():
    """Wall time of a fixed amount of work, as a gauge of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    for _ in range(PROBE_SOLVES):
        np.linalg.solve(_PROBE_H, _PROBE_B)
    return time.perf_counter() - t0


class UnitClock:
    """Times the units of one pass, each between ``start`` and ``stop``.

    With ``probe`` set, the host probe runs outside the timed interval
    right before and after each unit, and ``scaled`` holds the unit times
    scaled to the reference host speed; without it, the raw times.
    """

    def __init__(self, probe):
        self.probe = probe
        self.raw = []
        self.scaled = []

    def start(self):
        self._before = host_probe() if self.probe else None
        self._t0 = time.perf_counter()

    def stop(self):
        t = time.perf_counter() - self._t0
        self.raw.append(t)
        if self.probe:
            t *= PROBE_REF_S / ((self._before + host_probe()) / 2)
        self.scaled.append(t)

    def lap(self):
        self.stop()
        self.start()


class _LineClock(io.StringIO):
    """Captured stdout that ends a unit each time a line is completed."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock

    def write(self, text):
        for _ in range(text.count("\n")):
            self.clock.lap()
        return super().write(text)


class Sweep:
    """The default ``microfreq sweep`` grid on seed-chosen scenario seeds."""

    source = "generated"

    def __init__(self, seeds, config, reference):
        self.seeds = sorted(seeds)
        self.argv = ["sweep", "--seeds", ",".join(map(str, self.seeds))]
        self.reference = reference
        self.runs = 3 * len(KINDS) * len(self.seeds)
        self.samples = 3 * len(self.seeds) * sum(SAMPLES[k] for k in KINDS)

    def run_pass(self, clock, top=_untraced):
        """One ``microfreq sweep`` call. Its units end where it prints a line
        (one per cell, then the verdict), so each cell is timed without
        touching the program."""
        out = _LineClock(clock)
        clock.start()
        with contextlib.redirect_stdout(out), top("cli.main"):
            status = cli.main(self.argv)
        clock.stop()
        return self.check(status, out.getvalue())

    def check(self, status, text):
        """Every cell's ordering verdict and the final verdict must match the
        verdicts recorded at the reference commit."""
        expected = {
            (kind, seed): self.reference["cells"][f"{kind}/{seed}"]
            for kind in KINDS for seed in self.seeds
        }
        got, verdict = {}, None
        for line in text.splitlines():
            if m := CELL_LINE.match(line):
                got[(m[1], int(m[2]))] = m[3] == "yes"
            elif m := VERDICT_LINE.match(line):
                verdict = m[1] == "yes"
        if status != 0 or verdict != all(expected.values()):
            return self.runs, [f"sweep exit {status}, final verdict {verdict}"]
        bad = [cell for cell, ordered in expected.items() if got.get(cell) != ordered]
        return 3 * len(bad), [f"sweep cell {cell}: ordered {got.get(cell)}" for cell in bad]


class MpcRapid:
    """MPC alone on rapid scenarios, through run_scenario."""

    source = "generated"

    def __init__(self, seeds, config, reference):
        self.config = config
        self.reference = reference
        self.scenarios = [simulate.make_scenario("rapid", "mpc", s) for s in seeds]
        self.runs = len(self.scenarios)
        self.samples = sum(sc.n_steps for sc in self.scenarios)

    def run_pass(self, clock, top=_untraced):
        failed, problems = 0, []
        for scenario in self.scenarios:
            clock.start()
            with top("bench.run"):
                trace = cli.run_scenario(scenario, self.config)
                metrics = cli.compute_metrics(trace)
            clock.stop()
            key = run_key(self.source, "rapid", "mpc", scenario.seed)
            found = check_run(self.reference, key, simulate.metrics_summary(trace, metrics))
            failed += bool(found)
            problems += found
        return failed, problems


class ReplayPi:
    """Recorded profile CSVs replayed through ``microfreq run`` with both PI
    controllers, writing traces and metrics to disk."""

    source = "replay"

    def __init__(self, seeds, config, reference, work_dir=None):
        self.reference = reference
        self.work_dir = work_dir or os.path.join(OUT_DIR, "replay")
        self.out_dir = os.path.join(self.work_dir, "results")
        self.seeds = list(seeds)
        self.profile_paths = write_replay_inputs(self.seeds, self.work_dir)
        self.runs = len(self.seeds) * len(PI_CONTROLLERS)
        self.samples = self.runs * SAMPLES["rapid"]

    def run_pass(self, clock, top=_untraced):
        failed, problems = 0, []
        for seed, path in zip(self.seeds, self.profile_paths):
            for controller in PI_CONTROLLERS:
                metrics_path = os.path.join(
                    self.out_dir, f"metrics_rapid_{controller}_seed{seed}.json")
                if os.path.exists(metrics_path):
                    os.remove(metrics_path)
                argv = ["run", "--scenario", "rapid", "--controller", controller,
                        "--seed", str(seed), "--profiles", path, "--out", self.out_dir]
                clock.start()
                with contextlib.redirect_stdout(io.StringIO()), top("cli.main"):
                    status = cli.main(argv)
                clock.stop()
                key = run_key(self.source, "rapid", controller, seed)
                if status != 0 or not os.path.exists(metrics_path):
                    found = [f"{key}: exit {status}, no metrics file"]
                else:
                    with open(metrics_path) as fh:
                        found = check_run(self.reference, key, json.load(fh))
                failed += bool(found)
                problems += found
        return failed, problems


def write_replay_inputs(seeds, work_dir):
    """Write one rapid profile CSV per seed; returns the paths."""
    os.makedirs(work_dir, exist_ok=True)
    paths = []
    for seed in seeds:
        path = os.path.join(work_dir, f"profiles_rapid_seed{seed}.csv")
        profiles.write_profiles_csv(
            path, profiles.generate_profiles("rapid", seed, simulate.DEFAULT_DURATIONS["rapid"]))
        paths.append(path)
    return paths


WORKLOADS = {
    "sweep": (Sweep, SWEEP_SEEDS),
    "mpc-rapid": (MpcRapid, MPC_RUNS),
    "replay-pi": (ReplayPi, REPLAY_PROFILES),
}


def make_workload(name, seed, config, reference):
    cls, k = WORKLOADS[name]
    return cls(pick_seeds(name, seed, k), config, reference)


def trace_mismatches(reference, source, recorded):
    """Runs whose trace digest differs from the recorded one."""
    count = 0
    for trace, _ in recorded:
        ref = reference["runs"].get(run_key(source, trace.kind, trace.controller, trace.seed))
        count += ref is None or ref["digest"] != trace_digest(trace)
    return count


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads_env": {
            var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")
        },
    }


def main(argv, spawn_ns):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(microfreq.__file__).startswith(src + os.sep):
        raise SystemExit(f"microfreq imported from {microfreq.__file__}, not {src}")
    config = setup()
    raw_setup = (time.monotonic_ns() - spawn_ns) / 1e9
    host_probe()  # the first call also pays for lazy initialisation in numpy
    probe = statistics.median(host_probe() for _ in range(5))
    result = {"setup_s": raw_setup * PROBE_REF_S / probe, "raw_setup_s": raw_setup}
    if not args.setup_only:
        result.update(run_workload(args, config))
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["machine"] = machine_info()
    print(json.dumps(result), flush=True)
    return 0


def _sum_of_unit_medians(passes):
    return sum(statistics.median(times) for times in zip(*passes, strict=True))


def run_workload(args, config):
    reference = load_reference()
    workload = make_workload(args.workload, args.seed, config, reference)
    tracer = None
    top = _untraced
    if args.trace:
        tracer = Tracer()
        tracer.install()
        top = tracer.span
    clocks, attempted, failed, problems = [], 0, 0, []
    try:
        start = time.perf_counter()
        while True:
            # The probe would run inside traced spans, so traced runs keep raw times.
            clock = UnitClock(probe=tracer is None)
            pass_start = time.perf_counter()
            n_failed, found = workload.run_pass(clock, top)
            clocks.append(clock)
            attempted += workload.runs
            failed += n_failed
            problems += found
            now = time.perf_counter()
            # Stop before a pass that would end after --seconds.
            if tracer is not None or now - start + (now - pass_start) > args.seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    raw = [c.raw for c in clocks]
    result = {
        "raw_wall_s": _sum_of_unit_medians(raw),
        "wall_s": _sum_of_unit_medians([c.scaled for c in clocks]),
        "pass_wall_s": [sum(units) for units in raw],
        "samples": workload.samples,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["trace_mismatches"] = trace_mismatches(reference, workload.source, tracer.recorded)
        result["spans"] = len(tracer.start)
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    return result
