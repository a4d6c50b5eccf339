"""An MPC trace's diagnostics, computed only when they are read.

An MPC run records each sample's s = (dx, y, dd), V and bound multipliers.
Its trace fills ``binding``, ``objective`` and ``max_kkt_residual`` from
that record the first time one of them is read, or the trace is pickled or
copied, with ``step_diagnostics`` on ``_DIAGNOSTIC_ROWS`` samples at a
time, and then drops the record. So a run that nobody asks for them never
computes them: not a lone run, a batch, ``compare`` without ``--out`` or a
default sweep in one process or several. When they are read, they have the
bits the loop once computed a block at a time as it passed the samples
(``mpc_record_reference``).
"""

import copy
import dataclasses
import gc
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest

import microfreq.numerics
import microfreq.simulate as sim
from microfreq import cli
from microfreq.cli import main
from microfreq.mpc import PredictionMatrices
from microfreq.numerics import BoxQp, QpInfeasibleError
from microfreq.simulate import (
    RunConfig,
    make_scenario,
    run_cells,
    run_scenario,
)
from mpc_record_reference import _MpcRecord as BlockwiseRecord

DIAGNOSED = ("binding", "objective", "max_kkt_residual")


def forbid_diagnostics(monkeypatch):
    """Make every ``step_diagnostics`` call of the run loop's module raise,
    in this process and in any worker it forks."""
    def forbidden(*args):
        raise AssertionError("step_diagnostics was called")

    monkeypatch.setattr(sim, "step_diagnostics", forbidden)


def count_diagnostics(monkeypatch):
    """Count the ``step_diagnostics`` calls of this process; returns the
    live list of each call's number of samples."""
    calls, real = [], sim.step_diagnostics

    def counted(pred, samples, *args):
        calls.append(len(samples))
        return real(pred, samples, *args)

    monkeypatch.setattr(sim, "step_diagnostics", counted)
    return calls


def test_an_unread_lone_run_or_batch_diagnoses_nothing(monkeypatch):
    forbid_diagnostics(monkeypatch)
    trace = run_scenario(make_scenario("rapid", "mpc", 3), RunConfig())
    assert trace.freq.size == 901 and "_record" in vars(trace)
    sim.compute_metrics(trace)
    scenarios = [make_scenario("rapid", "mpc", seed, duration=60.0) for seed in (1, 4)]
    for traces in run_cells(scenarios, RunConfig(measurement_noise_std=2e-5)):
        for trace in traces:
            sim.metrics_summary(trace, sim.compute_metrics(trace))


def test_compare_without_out_diagnoses_nothing(monkeypatch, capsys):
    forbid_diagnostics(monkeypatch)
    assert main(["compare", "--scenario", "rapid", "--seed", "3"]) == 0
    assert "ordering mpc < pi_all < pi_dubess: yes" in capsys.readouterr().out


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_default_sweep_diagnoses_nothing(monkeypatch, capsys, cpus):
    if cpus > 1 and sys.platform != "linux":
        pytest.skip("a sweep forks on Linux only")
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    forbid_diagnostics(monkeypatch)
    assert main(["sweep", "--seeds", "0,1"]) == 0
    assert capsys.readouterr().out.endswith("all runs ordered mpc < pi_all < pi_dubess: yes\n")


def recorded_run(monkeypatch, scenario, config, abort_at=None):
    """A lone run's trace, unread, and the ``MpcStep`` of each sample it
    solved, in order; with ``abort_at``, its QP is infeasible there."""
    steps, real = [], sim.control_step

    def recording(*args):
        if len(steps) == abort_at:
            raise QpInfeasibleError(0)
        steps.append(real(*args))
        return steps[-1]

    monkeypatch.setattr(sim, "control_step", recording)
    trace = run_scenario(scenario, config)
    monkeypatch.setattr(sim, "control_step", real)
    return trace, steps


def blockwise(trace, steps, config, scenario):
    """The trace's (binding, objective, max_kkt_residual) as the loop once
    computed them, from the samples it solved."""
    pred = config.prepared.pred
    _, limits = config.prepared.inputs(scenario.profiles, config)
    rows = sim._DIAGNOSTIC_ROWS
    block = [np.empty((rows, width)) for width in (pred.sample_map.shape[1], pred.box.n,
                                                   pred.box.n)]
    commands = np.zeros((scenario.n_steps + 1, sim.N_CONTROLS))
    commands[:trace.commands.shape[0]] = trace.commands
    record = BlockwiseRecord(pred, limits, commands, block)
    for k, step in enumerate(steps):
        record.keep(k, step)
    record.close(len(steps))
    size = trace.freq.size
    return record.binding.astype(int)[:size], record.objective[:size], record.max_kkt


@pytest.mark.parametrize("first", DIAGNOSED)
@pytest.mark.parametrize("case", ["plain", "aborted", "noise", "cap-0"])
def test_reading_a_field_diagnoses_the_blockwise_bits(monkeypatch, case, first):
    config = RunConfig(measurement_noise_std=2e-5 if case == "noise" else 0.0)
    if case == "cap-0":
        monkeypatch.setattr(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", 0)
    scenario = make_scenario("rapid", "mpc", 3)
    trace, steps = recorded_run(monkeypatch, scenario, config,
                                abort_at=300 if case == "aborted" else None)
    solved = 300 if case == "aborted" else scenario.n_steps
    assert len(steps) == solved and trace.aborted_at == (300 if case == "aborted" else None)
    calls = count_diagnostics(monkeypatch)
    getattr(trace, first)
    # One call per chunk of _DIAGNOSTIC_ROWS samples, all at the first read.
    assert calls == [min(128, solved - start) for start in range(0, solved, 128)]
    binding, objective, max_kkt = blockwise(trace, steps, config, scenario)
    assert trace.binding.dtype == binding.dtype and trace.binding.tobytes() == binding.tobytes()
    assert trace.objective.tobytes() == objective.tobytes()
    assert np.float64(trace.max_kkt_residual).tobytes() == np.float64(max_kkt).tobytes()
    assert trace.binding.any() and trace.max_kkt_residual > 0.0
    assert len(calls) == math.ceil(solved / 128) and "_record" not in vars(trace)


def test_a_run_aborted_at_its_first_sample_diagnoses_no_chunk(monkeypatch):
    scenario = make_scenario("rapid", "mpc", 3, duration=30.0)
    trace, steps = recorded_run(monkeypatch, scenario, RunConfig(), abort_at=0)
    calls = count_diagnostics(monkeypatch)
    assert trace.max_kkt_residual == 0.0 and calls == []
    assert trace.binding.shape == (0, sim.N_CONTROLS) and trace.objective.shape == (0,)


def reachable(root):
    """Every object reachable from ``root`` through the garbage collector's
    referents."""
    seen, todo = {id(root): root}, [root]
    while todo:
        for child in gc.get_referents(todo.pop()):
            if id(child) not in seen and not isinstance(child, type):
                seen[id(child)] = child
                todo.append(child)
    return seen.values()


@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda trace: pickle.loads(pickle.dumps(trace)),
    lambda trace: dataclasses.replace(trace, seed=99),
], ids=["copy", "deepcopy", "pickle", "replace"])
@pytest.mark.parametrize("batch", [False, True], ids=["lone", "batch"])
def test_a_copied_trace_is_diagnosed_and_holds_no_prediction_matrices(clone, batch):
    config = RunConfig()
    scenario = make_scenario("rapid", "mpc", 3, duration=60.0)
    if batch:
        (traces,) = run_cells([scenario], config)
        trace = traces[0]
    else:
        trace = run_scenario(scenario, config)
    expected = run_scenario(scenario, config)
    copied = clone(trace)
    for each in (copied, trace):
        assert "_record" not in vars(each)
        assert all(name in vars(each) for name in DIAGNOSED)
        assert not [held for held in reachable(each)
                    if isinstance(held, (PredictionMatrices, BoxQp, sim._MpcRecord))]
        for name in ("binding", "objective"):
            got, want = getattr(each, name), getattr(expected, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert each.max_kkt_residual == expected.max_kkt_residual


@pytest.mark.parametrize("batch", [False, True], ids=["lone", "batch"])
def test_a_kept_unread_mpc_trace_holds_its_record_and_little_more(batch):
    # A 180 s trace's arrays are about 0.23 MB, its record of s, V and
    # multipliers 0.35 MB; diagnosed, the record gives way to 0.05 MB.
    config = RunConfig()
    scenarios = [make_scenario("rapid", "mpc", seed) for seed in (3, 4)]
    for _ in run_cells(scenarios, config):  # builds the prepared run and its law cache
        pass
    run_scenario(scenarios[0], config)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if batch:
            kept = next(run_cells(scenarios, config))[0]
        else:
            kept = run_scenario(scenarios[0], config)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        kept.objective
        gc.collect()
        diagnosed = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept.controller == "mpc" and kept.freq.size == 901
    assert held < 0.63e6
    assert diagnosed < 0.33e6
