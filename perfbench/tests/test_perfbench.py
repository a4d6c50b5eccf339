"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They check the benchmark's own contract: seeded inputs, that tracing leaves
the program as it found it, that per-layer counts match the work done, that
the output check rejects wrong outputs, and that run.py prints exactly the
metrics BENCHMARK.json declares.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import microfreq.cli  # noqa: E402
import microfreq.mpc  # noqa: E402
import microfreq.simulate  # noqa: E402

import workload  # noqa: E402
from tracer import Tracer  # noqa: E402

PROGRAM_MODULES = (microfreq.simulate, microfreq.mpc, microfreq.cli)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def config():
    return workload.setup()


@pytest.fixture(scope="module")
def reference():
    return workload.load_reference()


def traced_pass(bench):
    """One traced pass; returns (failed runs, layer metrics, tracer) and checks
    that the program modules hold the same objects before and after."""
    before = {m.__name__: dict(vars(m)) for m in PROGRAM_MODULES}
    tracer = Tracer()
    tracer.install()
    try:
        assert microfreq.mpc.solve_qp_info is not before["microfreq.mpc"]["solve_qp_info"]
        failed, problems = bench.run_pass(workload.UnitClock(probe=False), tracer.span)
    finally:
        tracer.uninstall()
    for module in PROGRAM_MODULES:
        after = vars(module)
        assert after.keys() == before[module.__name__].keys()
        changed = [k for k, v in before[module.__name__].items() if after[k] is not v]
        assert not changed, f"{module.__name__} changed: {changed}"
    assert failed == 0, problems
    layers = {name: value for name, (value, _) in tracer.layer_metrics().items()}
    return layers, tracer


def test_replay_inputs_are_byte_identical_for_the_same_seed(tmp_path):
    seeds = workload.pick_seeds("replay-pi", 11, workload.REPLAY_PROFILES)
    assert seeds == workload.pick_seeds("replay-pi", 11, workload.REPLAY_PROFILES)
    assert seeds != workload.pick_seeds("replay-pi", 12, workload.REPLAY_PROFILES)
    first = workload.write_replay_inputs(seeds[:2], str(tmp_path / "a"))
    second = workload.write_replay_inputs(seeds[:2], str(tmp_path / "b"))
    for a, b in zip(first, second):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()


def test_mpc_layer_counts_match_samples_and_repeat(config, reference):
    seeds = workload.pick_seeds("mpc-rapid", 0, workload.MPC_RUNS)[:2]
    bench = workload.MpcRapid(seeds, config, reference)
    layers, tracer = traced_pass(bench)
    n, runs = bench.samples, bench.runs
    assert n == runs * workload.SAMPLES["rapid"]
    for name in ("estimator.estimator_step", "der_models.reserve_limits", "lfc_model.step_plant",
                 "mpc.control_step", "mpc.build_constraints", "numerics.solve_qp_info"):
        assert layers[f"{name}.calls"] == n, name
    assert layers["der_models.available_power.calls"] == 4 * (n + runs)
    assert layers["baselines.pi_step.calls"] == 0
    assert layers["simulate.run_scenario.calls"] == runs
    assert layers["lfc_model.build_plant.calls"] == runs
    assert layers["numerics.qp_iterations"] > 0
    assert workload.trace_mismatches(reference, bench.source, tracer.recorded) == 0

    again, _ = traced_pass(bench)
    for name in ("numerics.qp_iterations", "numerics.qp_active_rows_mean",
                 "mpc.build_constraints.repeat_frac", "estimator.covariance_repeat_frac"):
        assert again[name] == layers[name], name
    assert {k: v for k, v in again.items() if k.endswith(".calls")} == {
        k: v for k, v in layers.items() if k.endswith(".calls")}


def test_replay_layer_counts_match_samples(tmp_path, config, reference):
    seeds = workload.pick_seeds("replay-pi", 0, workload.REPLAY_PROFILES)[:1]
    bench = workload.ReplayPi(seeds, config, reference, work_dir=str(tmp_path))
    layers, tracer = traced_pass(bench)
    n, runs = bench.samples, bench.runs
    assert runs == len(workload.PI_CONTROLLERS)
    for name in ("estimator.estimator_step", "baselines.pi_step", "lfc_model.step_plant"):
        assert layers[f"{name}.calls"] == n, name
    for name in ("profiles.read_profiles_csv", "simulate.write_trace_csv", "cli.load_run_config"):
        assert layers[f"{name}.calls"] == runs, name
    assert layers["numerics.solve_qp_info.calls"] == 0
    assert layers["profiles.generate_profiles.calls"] == 0
    assert layers["simulate.write_trace_csv.bytes"] > 0
    assert workload.trace_mismatches(reference, bench.source, tracer.recorded) == 0


def test_sweep_layer_counts_match_samples(config, reference):
    bench = workload.Sweep([3], config, reference)
    layers, tracer = traced_pass(bench)
    assert bench.runs == 9
    assert layers["estimator.estimator_step.calls"] == bench.samples
    assert layers["mpc.control_step.calls"] + layers["baselines.pi_step.calls"] == bench.samples
    assert layers["simulate.run_scenario.calls"] == bench.runs
    assert layers["profiles.generate_profiles.calls"] == bench.runs
    assert workload.trace_mismatches(reference, bench.source, tracer.recorded) == 0


def test_output_check_rejects_a_changed_result(reference):
    key = workload.run_key("generated", "rapid", "mpc", 0)
    ref = reference["runs"][key]
    summary = {name: ref[name] for name in ("max_abs_freq_dev", "freq_std")}
    summary.update(constraint_violations=0, aborted_at=None)
    assert workload.check_run(reference, key, summary) == []
    for change in ({"freq_std": ref["freq_std"] * (1 + 10 * workload.RTOL)},
                   {"constraint_violations": 1}, {"aborted_at": 5}):
        assert workload.check_run(reference, key, dict(summary, **change))


def test_sweep_check_rejects_a_changed_verdict(config, reference):
    bench = workload.Sweep([0], config, reference)
    lines = [f"{kind:9s} seed=0   std 1/2/3 ordered=yes" for kind in workload.KINDS]
    verdict = "all runs ordered mpc < pi_all < pi_dubess: yes"
    assert bench.check(0, "\n".join(lines + [verdict])) == (0, [])
    lines[1] = lines[1].replace("yes", "NO")
    assert bench.check(0, "\n".join(lines + [verdict]))[0] == 3


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(spec, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", "replay-pi",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    printed = [line.split()[0] for line in lines[:-1] if not line.startswith("#")]
    assert printed == [m["name"] for m in declared]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_follows_its_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
