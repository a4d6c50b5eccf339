"""A sweep run in several processes against the same sweep run in one.

``microfreq sweep`` runs its kind batches in min(usable CPUs, batches)
processes: the calling one and forked workers, which finish their own
cells (writing their files) and send each cell's summaries and metrics
back through a pipe. The number of usable CPUs comes from one helper,
``cli._usable_cpus``; these tests set it, so they force two or more
processes on any Linux host. Every printed line, every written file and every
trace must be the same as with one process, and no worker may outlive the
sweep, however it ends.
"""

import json
import multiprocessing
import os
import sys
import time

import pytest

from microfreq import cli, estimator, simulate
from microfreq.cli import main
from microfreq.simulate import RunConfig

from test_sweep_plan import abort_mpc_at

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="a sweep forks on Linux only")

KINDS = ["step", "moderate", "rapid"]


def use_cpus(monkeypatch, cpus):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sweep_outputs(argv, out, capsys):
    """The stdout of ``microfreq sweep argv --out out``, with ``out`` in it
    replaced, and the bytes of every file it wrote."""
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.replace(str(out), "<out>")
    return printed, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.mark.parametrize("argv, sim, abort_at", [
    (["--seeds", "0,1"], None, None),
    (["--seeds", "2", "--kinds", "rapid,moderate"], {"deload": 0.08}, None),
    (["--seeds", "0,1"], {"measurement_noise_std": 2e-5}, None),
    (["--seeds", "0,1"], {"measurement_noise_std": 1e-5}, 40),
], ids=["default", "kinds-and-deload", "measurement-noise", "mpc-abort"])
def test_a_sweep_in_several_processes_writes_the_serial_bytes(tmp_path, monkeypatch, capsys,
                                                             argv, sim, abort_at):
    if sim is not None:
        (tmp_path / "config.json").write_text(json.dumps({"sim": sim}))
        argv = argv + ["--config", str(tmp_path / "config.json")]
    if abort_at is not None:
        # Forked workers inherit the patches; each batch counts its samples.
        abort_mpc_at(monkeypatch, abort_at)
    outputs = {}
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        outputs[cpus] = sweep_outputs(argv, tmp_path / f"cpus{cpus}", capsys)
        assert_no_child_left()
    printed, files = outputs[1]
    if abort_at is not None:
        assert b'"aborted_at": 40' in files["metrics_rapid_mpc_seed1.json"]
    for cpus in (2, 3):
        assert outputs[cpus][0] == printed
        assert outputs[cpus][1].keys() == files.keys()
        for name, data in files.items():
            assert outputs[cpus][1][name] == data, (cpus, name)


def test_the_plan_yields_the_serial_traces_and_metrics(tmp_path, monkeypatch):
    # A cell is finished by the process that ran it: the plan yields its
    # summaries and metrics, and its traces are the files it wrote.
    config = RunConfig(measurement_noise_std=1e-5)
    plans, files = {}, {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        plans[cpus] = list(cli._sweep_plan(KINDS, [0, 3], config, str(out)))
        files[cpus] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(plans[1]) == len(plans[2]) == 6
    for serial, forked in zip(plans[1], plans[2]):
        assert serial[:2] == forked[:2] and serial[3] == forked[3]
        assert serial[2].keys() == forked[2].keys()
        for controller, (summary, metrics) in serial[2].items():
            other, other_metrics = forked[2][controller]
            assert other == summary
            assert repr(other_metrics) == repr(metrics)
    # A trace CSV and a metrics JSON per run: 6 cells of 3 runs.
    assert len(files[1]) == 36 and files[2] == files[1]


def test_a_worker_inherits_the_configs_builds(monkeypatch, capsys):
    # The plan builds the config's plant, gain schedule (with the gains of
    # its longest batch) and MPC matrices before it forks, so no worker
    # builds a plant, gain schedule or MPC matrices, or steps the gain
    # recursion.
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    for module, name in ((simulate, "build_plant"), (simulate, "GainSchedule"),
                         (simulate, "build_prediction_matrices"),
                         (estimator, "_covariance_step")):
        def only_in_the_parent(*args, real=getattr(module, name), name=name):
            if os.getpid() != parent:
                raise AssertionError(f"{name} called in a sweep worker")
            return real(*args)

        monkeypatch.setattr(module, name, only_in_the_parent)
    assert main(["sweep", "--seeds", "0,1"]) == 0
    assert capsys.readouterr().out.endswith("all runs ordered mpc < pi_all < pi_dubess: yes\n")
    assert_no_child_left()


def test_a_sweep_starts_one_process_per_batch_at_most(monkeypatch):
    # 8 usable CPUs and three kind batches: the caller and two workers.
    use_cpus(monkeypatch, 8)
    parent, seen = os.getpid(), []
    real = cli.run_cells

    def counted(scenarios, config):
        if os.getpid() == parent:
            seen.append(len(multiprocessing.active_children()))
        return real(scenarios, config)

    monkeypatch.setattr(cli, "run_cells", counted)
    assert len(list(cli._sweep_plan(KINDS, [0], RunConfig()))) == 3
    assert seen == [2]
    assert_no_child_left()


def test_a_sweep_closed_after_its_first_cell_leaves_no_worker(monkeypatch):
    use_cpus(monkeypatch, 2)
    plan = cli._sweep_plan(KINDS, [0, 1], RunConfig())
    kind, seed, results, first = next(plan)
    assert (kind, seed, first) == ("step", 0, None) and sorted(results) == sorted(
        ["mpc", "pi_all", "pi_dubess"])
    plan.close()
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.parametrize("where, error", [
    ("worker", ValueError), ("parent", ValueError), ("parent", KeyboardInterrupt),
])
def test_an_error_in_either_process_is_raised_and_leaves_no_worker(monkeypatch, capsys, cpus,
                                                                   where, error):
    use_cpus(monkeypatch, cpus)
    parent = os.getpid()
    real = cli.run_cells

    def failing(scenarios, config):
        kind = scenarios[0].kind
        if (os.getpid() == parent) == (where == "parent"):
            raise error(f"no {kind} batch in the {where}")
        return real(scenarios, config)

    monkeypatch.setattr(cli, "run_cells", failing)
    # Longest first, the moderate batch is the caller's and the rapid one a
    # worker's. The step batch is the caller's with two processes (which
    # runs it first) and the other worker's with three.
    kinds = {("parent", 2): "step", ("parent", 3): "moderate",
             ("worker", 2): "rapid", ("worker", 3): "step"}
    kind = kinds[(where, cpus)]
    with pytest.raises(error, match=f"^no {kind} batch in the {where}$") as raised:
        main(["sweep", "--seeds", "0,1"])
    assert_no_child_left()
    if where == "worker":
        assert "in a sweep worker" in str(raised.value.__cause__)
        # The cells before the worker's first batch were printed, once each.
        printed = capsys.readouterr().out.splitlines()
        assert printed == sorted(set(printed), key=printed.index)
        assert all(line.startswith(("step", "moderate")) for line in printed)


def test_a_sweep_whose_writer_raises_leaves_no_worker(tmp_path, monkeypatch):
    # The error leaves cmd_sweep while its traceback still holds the plan.
    use_cpus(monkeypatch, 2)

    def full(trace, path):
        raise OSError(f"no room for {os.path.basename(path)}")

    monkeypatch.setattr(cli, "write_trace_csv", full)
    with pytest.raises(OSError, match="^no room for trace_step_mpc_seed0.csv$") as raised:
        main(["sweep", "--seeds", "0", "--out", str(tmp_path)])
    assert raised.tb is not None
    assert_no_child_left()


def test_a_worker_that_exits_without_its_cells_fails_the_sweep(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    real = cli.run_cells

    def exiting(scenarios, config):
        if os.getpid() != parent:
            os._exit(3)
        return real(scenarios, config)

    monkeypatch.setattr(cli, "run_cells", exiting)
    with pytest.raises(RuntimeError, match="^a sweep worker exited with code 3 before"):
        list(cli._sweep_plan(KINDS, [0], RunConfig()))
    assert_no_child_left()


def test_no_cell_is_yielded_while_a_worker_computes(tmp_path, monkeypatch):
    # The worker's batch takes longer than the caller's two; the caller's
    # first cell must still wait for it.
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    real = cli.run_cells

    def slow(scenarios, config):
        batch = real(scenarios, config)
        if os.getpid() != parent:
            time.sleep(0.3)
            (tmp_path / "worker-done").touch()
        return batch

    monkeypatch.setattr(cli, "run_cells", slow)
    plan = cli._sweep_plan(KINDS, [0], RunConfig())
    assert next(plan)[0] == "step"
    assert (tmp_path / "worker-done").exists()
    plan.close()
    assert_no_child_left()
