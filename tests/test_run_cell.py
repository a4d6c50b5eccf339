"""The batch engine against single runs.

``run_cells`` runs the three controllers on each scenario of a batch in
lockstep, with the plant, filter and control-term products stacked over its
rows: row r runs controller r // C on scenario r % C, for C scenarios,
whichever controller a scenario names. Each scenario keeps its own
disturbances, limits and noise stream. Each trace must have the bytes
``run_scenario`` gives its scenario under its controller on its own, also
when MPC rows abort: such a row keeps its place in the batch, its trace
ends at its first infeasible sample, and the others run on.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from microfreq import mpc
from microfreq.numerics import QpInfeasibleError
from microfreq.simulate import (
    CONTROLLER_KINDS,
    RunConfig,
    make_scenario,
    run_cells,
    run_scenario,
)
from test_shared_config import assert_same_bytes
from test_sweep_plan import abort_mpc_at, count_samples_per_run


def run_cell(scenario, config=None):
    """The traces of a batch of one scenario."""
    (traces,) = run_cells([scenario], config)
    return traces


def single_runs(scenario, config):
    """The single run of each controller on ``scenario``, in batch order."""
    return [run_scenario(replace(scenario, controller=controller), config)
            for controller in CONTROLLER_KINDS]


def abort_rows_at(monkeypatch, samples):
    """Make the QP of MPC row r infeasible from sample ``samples[r]`` on
    (None: never), counted from the start of its run or batch. A single run
    is row 0, and its ``control_step`` call of that sample raises. A
    batch's MPC rows step in lockstep, one ``control_rows`` call per sample
    for the whole batch, whose outcome from that sample on lists row r as
    infeasible."""
    state = count_samples_per_run(monkeypatch)

    def failing_step(*args):
        sample, state["sample"] = state["sample"], state["sample"] + 1
        if samples[0] == sample:
            raise QpInfeasibleError(0)
        return mpc.control_step(*args)

    def failing_rows(*args):
        outcome = mpc.control_rows(*args)
        sample, state["sample"] = state["sample"], state["sample"] + 1
        assert len(outcome.commands) == len(samples)
        failed = [r for r, at in enumerate(samples) if at is not None and at <= sample]
        return outcome._replace(infeasible=sorted(set(outcome.infeasible) | set(failed)))

    monkeypatch.setattr("microfreq.simulate.control_step", failing_step)
    monkeypatch.setattr("microfreq.simulate.control_rows", failing_rows)


# On rapid seeds 1 and 4 a PI clamp meets a bound that is a zero, where the
# sign of the clamped zero shows in the bytes.
@pytest.mark.parametrize("noise", [0.0, 2e-5], ids=["noiseless", "noise"])
@pytest.mark.parametrize("kind, seed", [("step", 0), ("moderate", 2), ("rapid", 1), ("rapid", 4)])
def test_a_cell_gives_each_run_the_bytes_of_a_single_run(kind, seed, noise):
    scenario = make_scenario(kind, "mpc", seed)
    traces = run_cell(scenario, RunConfig(measurement_noise_std=noise))
    expected = single_runs(scenario, RunConfig(measurement_noise_std=noise))
    for controller, trace, want in zip(CONTROLLER_KINDS, traces, expected, strict=True):
        assert trace.controller == controller
        assert_same_bytes(trace, want)


@pytest.mark.parametrize("noise", [0.0, 2e-5], ids=["noiseless", "noise"])
def test_a_batch_gives_each_run_the_bytes_of_a_single_run(noise):
    # Scenarios of three kinds and several seeds at one length, in one
    # batch; the third names a PI controller, and still gets all three.
    scenarios = [make_scenario(kind, "mpc", seed, duration=180.0) for kind, seed in
                 [("rapid", 1), ("moderate", 2), ("rapid", 4), ("step", 0), ("moderate", 7)]]
    scenarios[2] = replace(scenarios[2], controller="pi_dubess")
    config = RunConfig(measurement_noise_std=noise)
    batch = run_cells(scenarios, config)
    single = RunConfig(measurement_noise_std=noise)
    for scenario, traces in zip(scenarios, batch, strict=True):
        assert [trace.seed for trace in traces] == [scenario.seed] * 3
        assert [trace.controller for trace in traces] == list(CONTROLLER_KINDS)
        for trace, want in zip(traces, single_runs(scenario, single), strict=True):
            assert_same_bytes(trace, want)


@pytest.mark.parametrize("named, seeds, duration, abort_at", [
    ("mpc", (3,), 30.0, 40),
    ("mpc", (3, 5), 30.0, 40),
    # The batch's PI rows run to the end.
    ("mpc", (3, 4, 5), 30.0, 0),
    # The aborted rows step on, unread, for 260 samples, past two blocks of
    # the plant's disturbance terms, and their noise streams with them.
    ("mpc", (3, 4), 60.0, 40),
    # A scenario's MPC run aborts whichever controller the scenario names.
    ("pi_all", (3,), 30.0, 40),
], ids=["mpc-alone", "two-mpc-rows", "every-mpc-row-aborts-at-the-first-sample",
        "aborts-blocks-before-the-end", "a-scenario-naming-a-pi-controller"])
def test_an_mpc_row_that_aborts_leaves_the_cell_and_the_others_run_on(
        monkeypatch, named, seeds, duration, abort_at):
    config = RunConfig(measurement_noise_std=2e-5)
    scenarios = [make_scenario("moderate", named, seed, duration=duration) for seed in seeds]
    abort_mpc_at(monkeypatch, abort_at)
    expected = [single_runs(scenario, config) for scenario in scenarios]
    batch = run_cells(scenarios, config)
    for scenario, traces, wants in zip(scenarios, batch, expected, strict=True):
        for trace, want in zip(traces, wants, strict=True):
            mpc_run = trace.controller == "mpc"
            assert trace.aborted_at == (abort_at if mpc_run else None)
            assert trace.freq.size == (abort_at if mpc_run else scenario.n_steps + 1)
            assert_same_bytes(trace, want)


def test_mpc_rows_that_abort_at_different_samples_leave_the_batch(monkeypatch):
    # The MPC rows abort at the first sample, on either side of the first
    # block of the plant's disturbance terms, and late; the last one runs to
    # the end.
    aborts = [0, 127, 128, 300, None]
    scenarios = [make_scenario("rapid", "mpc", seed, duration=80.0) for seed in range(5)]
    config = RunConfig(measurement_noise_std=2e-5)
    expected = []
    for scenario, abort_at in zip(scenarios, aborts):
        abort_rows_at(monkeypatch, [abort_at])
        expected.extend(single_runs(scenario, config))
    abort_rows_at(monkeypatch, aborts)
    traces = [trace for traces in run_cells(scenarios, config) for trace in traces]
    assert len(traces) == len(expected) == 15
    for trace, want in zip(traces, expected):
        assert_same_bytes(trace, want)
    assert [trace.aborted_at for trace in traces if trace.controller == "mpc"] == aborts
    assert all(trace.freq.size == 401 for trace in traces if trace.controller != "mpc")


def test_an_mpc_row_aborts_in_the_sample_another_mpc_row_binds(monkeypatch):
    # Rapid seed 2's MPC row binds at sample k; seed 1's aborts there. The
    # batch solves the binding row in the sample it marks seed 1's row
    # aborted in.
    scenarios = [make_scenario("rapid", "mpc", seed, duration=60.0) for seed in (1, 2)]
    config = RunConfig()
    multipliers = []
    real = mpc.control_step

    def recording(*args):
        step = real(*args)
        multipliers.append(step.lam.any())
        return step

    monkeypatch.setattr("microfreq.simulate.control_step", recording)
    binding = run_scenario(scenarios[1], config)
    k = multipliers.index(True, 1)
    assert binding.binding[k].any()
    expected = []
    for scenario, abort_at in zip(scenarios, (k, None)):
        abort_rows_at(monkeypatch, [abort_at])
        expected.extend(single_runs(scenario, config))
    abort_rows_at(monkeypatch, [k, None])
    traces = [trace for traces in run_cells(scenarios, config) for trace in traces]
    assert [trace.aborted_at for trace in traces] == [k, None, None, None, None, None]
    for trace, want in zip(traces, expected, strict=True):
        assert_same_bytes(trace, want)


def test_a_kept_trace_holds_only_its_own_records():
    # Sixteen cells' records are about 2 MB; one trace's are about 0.1 MB.
    scenarios = [make_scenario("rapid", "mpc", seed, duration=60.0) for seed in range(16)]
    config = RunConfig()
    for _ in run_cells(scenarios, config):  # fills the config's builds and law cache
        pass
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = run_cells(scenarios, config)
        kept = next(batch)[0]
        del batch
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept.controller == "mpc" and kept.freq.size == 301
    assert held < 0.3e6


@pytest.mark.parametrize("scenarios, message", [
    ([], "a batch needs at least one scenario"),
    ([make_scenario("rapid", "mpc", 0, duration=30.0),
      make_scenario("rapid", "mpc", 1, duration=36.0)], "share their number of samples"),
], ids=["no-cells", "unequal-n"])
def test_a_batch_takes_only_cells_of_one_length_and_sample_time(scenarios, message):
    with pytest.raises(ValueError, match=message):
        run_cells(scenarios)
