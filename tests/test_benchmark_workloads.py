"""The benchmark's workloads (perfbench/workload.py) drive the program
through its public names: ``cli.main``, ``cli.run_scenario``,
``profiles.write_profiles_csv``, ``config.mpc.Ts`` and more. This test runs
the benchmark's set-up and one untimed pass of each workload on the seeds
the benchmark picks for its seed 0, so a change that breaks a workload, or
its output check, fails here first."""

import os
import sys
import types
from unittest import mock

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load(name):
    # Compiled from its source text, so nothing is written next to it.
    path = os.path.join(BENCH_DIR, f"{name}.py")
    module = types.ModuleType(name)
    module.__file__ = path
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workload():
    # workload.py imports the tracer by its file name.
    with mock.patch.dict(sys.modules, tracer=load("tracer")):
        return load("workload")


@pytest.mark.parametrize("name", ["sweep", "mpc-rapid", "replay-pi"])
def test_a_pass_of_each_workload_has_no_failed_run(workload, name, tmp_path):
    config = workload.setup()
    cls, k = workload.WORKLOADS[name]
    # The replay inputs and outputs go to tmp_path, not under perfbench/.
    where = {"work_dir": str(tmp_path)} if cls is workload.ReplayPi else {}
    bench = cls(workload.pick_seeds(name, 0, k), config, workload.load_reference(), **where)
    failed, problems = bench.run_pass(workload.UnitClock(probe=False))
    assert bench.runs > 0
    assert failed == 0, problems
