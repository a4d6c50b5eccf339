"""The batch engine against single runs.

``run_cells`` steps the runs of a batch of cells in lockstep, with the
plant, filter and control-term products stacked over its rows. A cell is
the runs of one profile set and seed; each cell of a batch keeps its own
disturbances, limits and noise stream. Each trace must have the bytes
``run_scenario`` gives the same scenario on its own, also when MPC rows
abort: such a row keeps its place in the batch but leaves its MPC group,
its trace ends at the failed sample, and the others run on. The batch
steps its MPC rows first and its PI rows after them, whatever order the
cells list their controllers in; each cell's traces still come back in
that cell's order.
"""

import gc
import tracemalloc

import pytest

from microfreq import mpc, simulate
from microfreq.numerics import QpInfeasibleError
from microfreq.simulate import (
    CONTROLLER_KINDS,
    RunConfig,
    make_scenario,
    run_cells,
    run_scenario,
)
from test_shared_prepared_run import assert_same_bytes
from test_sweep_plan import abort_mpc_at


def cell(kind, seed, controllers=CONTROLLER_KINDS, **kwargs):
    first = make_scenario(kind, controllers[0], seed, **kwargs)
    return [make_scenario(kind, controller, seed, profiles=first.profiles)
            for controller in controllers]


def run_cell(scenarios, config=None):
    """The traces of a batch of one cell."""
    (traces,) = run_cells([scenarios], config)
    return traces


def abort_rows_at(monkeypatch, samples):
    """Make the QP of MPC row r infeasible at ``samples[r]`` (None: never).
    A single run is row 0, and its ``control_step`` call of that sample
    raises. A batch's MPC rows step in lockstep in row order, one
    ``control_rows`` call per sample, whose outcome then lists row r as
    infeasible; a row that aborts is in no later call."""
    state = {"step": 0, "sample": 0, "live": list(range(len(samples)))}

    def failing_step(*args):
        sample = state["step"]
        state["step"] += 1
        if samples[0] == sample:
            raise QpInfeasibleError(0)
        return mpc.control_step(*args)

    def failing_rows(*args):
        outcome = mpc.control_rows(*args)
        live, sample = state["live"], state["sample"]
        assert len(outcome.commands) == len(live)
        failed = [i for i, row in enumerate(live) if samples[row] == sample]
        state.update(sample=sample + 1, live=[row for row in live if samples[row] != sample])
        return outcome._replace(infeasible=sorted(set(outcome.infeasible) | set(failed)))

    monkeypatch.setattr("microfreq.simulate.control_step", failing_step)
    monkeypatch.setattr("microfreq.simulate.control_rows", failing_rows)


# On rapid seeds 1 and 4 a PI clamp meets a bound that is a zero, where the
# sign of the clamped zero shows in the bytes.
@pytest.mark.parametrize("noise", [0.0, 2e-5], ids=["noiseless", "noise"])
@pytest.mark.parametrize("kind, seed", [("step", 0), ("moderate", 2), ("rapid", 1), ("rapid", 4)])
def test_a_cell_gives_each_run_the_bytes_of_a_single_run(kind, seed, noise):
    scenarios = cell(kind, seed)
    traces = run_cell(scenarios, RunConfig(measurement_noise_std=noise))
    single = RunConfig(measurement_noise_std=noise)
    for scenario, trace in zip(scenarios, traces):
        assert trace.controller == scenario.controller
        assert_same_bytes(trace, run_scenario(scenario, single))


@pytest.mark.parametrize("noise", [0.0, 2e-5], ids=["noiseless", "noise"])
def test_a_batch_gives_each_run_the_bytes_of_a_single_run(noise):
    # Cells of three kinds and several seeds at one length, in one batch.
    cells = [cell(kind, seed, duration=180.0) for kind, seed in
             [("rapid", 1), ("moderate", 2), ("rapid", 4), ("step", 0), ("moderate", 7)]]
    cells[2] = cells[2][::-1]
    config = RunConfig(measurement_noise_std=noise)
    batch = run_cells(cells, config)
    single = RunConfig(measurement_noise_std=noise)
    for scenarios, traces in zip(cells, batch, strict=True):
        assert [trace.seed for trace in traces] == [scenario.seed for scenario in scenarios]
        for scenario, trace in zip(scenarios, traces, strict=True):
            assert trace.controller == scenario.controller
            assert_same_bytes(trace, run_scenario(scenario, single))


@pytest.mark.parametrize("controllers, duration", [
    (("pi_all", "mpc", "pi_dubess"), 30.0),
    (("mpc", "pi_dubess", "mpc", "pi_all"), 30.0),
    (("mpc",), 30.0),
    # Every row aborts, so the batch stops at the failed sample.
    (("mpc", "mpc", "mpc"), 30.0),
    # The aborted row steps on, unread, for 260 samples, past two blocks of
    # diagnostics, and its noise stream with it.
    (("mpc", "pi_all"), 60.0),
], ids=["mpc-between-pi", "two-mpc-rows", "mpc-alone", "every-row-aborts",
        "aborts-blocks-before-the-end"])
def test_an_mpc_row_that_aborts_leaves_the_cell_and_the_others_run_on(
        monkeypatch, controllers, duration):
    config = RunConfig(measurement_noise_std=2e-5)
    scenarios = cell("moderate", 3, controllers, duration=duration)
    abort_mpc_at(monkeypatch, 40)
    expected = [run_scenario(scenario, config) for scenario in scenarios]
    abort_mpc_at(monkeypatch, 40)
    traces = run_cell(scenarios, config)
    for scenario, trace, want in zip(scenarios, traces, expected, strict=True):
        assert trace.aborted_at == (40 if scenario.controller == "mpc" else None)
        assert trace.freq.size == (40 if scenario.controller == "mpc" else scenario.n_steps + 1)
        assert_same_bytes(trace, want)


def test_mpc_rows_that_abort_at_different_samples_leave_the_batch(monkeypatch):
    # The MPC rows abort at the first sample, on either side of the first
    # block of diagnostics, and late; the last one runs to the end.
    aborts = [0, 127, 128, 300, None]
    orders = [("pi_all", "mpc", "pi_dubess"), ("mpc", "pi_all"), ("pi_dubess", "mpc"),
              ("mpc", "pi_all", "pi_dubess"), ("pi_all", "mpc")]
    cells = [cell("rapid", seed, order, duration=80.0) for seed, order in enumerate(orders)]
    config = RunConfig(measurement_noise_std=2e-5)
    expected = []
    for scenarios, abort_at in zip(cells, aborts):
        for scenario in scenarios:
            abort_rows_at(monkeypatch, [abort_at])
            expected.append(run_scenario(scenario, config))
    abort_rows_at(monkeypatch, aborts)
    traces = [trace for traces in run_cells(cells, config) for trace in traces]
    assert len(traces) == len(expected) == 12
    for trace, want in zip(traces, expected):
        assert_same_bytes(trace, want)
    assert [trace.aborted_at for trace in traces if trace.controller == "mpc"] == aborts
    assert all(trace.freq.size == 401 for trace in traces if trace.controller != "mpc")


def test_an_mpc_row_aborts_in_the_sample_another_mpc_row_binds(monkeypatch):
    # Rapid seed 2's MPC row binds at sample k; seed 1's aborts there. The
    # batch drops seed 1's row from the sample it solved the binding row in.
    cells = [cell("rapid", seed, duration=60.0) for seed in (1, 2)]
    config = RunConfig()
    multipliers = []
    real = mpc.control_step

    def recording(*args):
        step = real(*args)
        multipliers.append(step.lam.any())
        return step

    monkeypatch.setattr("microfreq.simulate.control_step", recording)
    binding = run_scenario(cells[1][0], config)
    k = multipliers.index(True, 1)
    assert binding.binding[k].any()
    expected = []
    for scenarios, abort_at in zip(cells, (k, None)):
        for scenario in scenarios:
            abort_rows_at(monkeypatch, [abort_at])
            expected.append(run_scenario(scenario, config))
    abort_rows_at(monkeypatch, [k, None])
    traces = [trace for traces in run_cells(cells, config) for trace in traces]
    assert [trace.aborted_at for trace in traces] == [k, None, None, None, None, None]
    for trace, want in zip(traces, expected, strict=True):
        assert_same_bytes(trace, want)


def index_kinds(monkeypatch):
    """Record, at each call of the batch's ``_mpc_rows``, the kind of each
    index of the MPC group it returns, "slice" or "array": the rows, then
    the cells (None when no MPC run is left)."""
    calls = []
    real = simulate._mpc_rows

    def recording(*args):
        mpc_rows = real(*args)
        calls.append(mpc_rows and ["slice" if isinstance(index, slice) else "array"
                                   for index in mpc_rows[:2]])
        return mpc_rows

    monkeypatch.setattr(simulate, "_mpc_rows", recording)
    return calls


def assert_batch_matches_single_runs(cells, config):
    """Each trace of the batch, in its cell's order, has the bytes of the
    single run of its scenario."""
    for scenarios, traces in zip(cells, run_cells(cells, config), strict=True):
        assert [trace.controller for trace in traces] == [s.controller for s in scenarios]
        for scenario, trace in zip(scenarios, traces, strict=True):
            assert_same_bytes(trace, run_scenario(scenario, config))


@pytest.mark.parametrize("orders, kinds", [
    ([("pi_all", "pi_dubess"), ("pi_dubess",), ("pi_all", "pi_dubess")], None),
    ([("mpc",), ("mpc",), ("mpc",)], ["slice", "slice"]),
    ([("pi_all", "pi_dubess", "mpc"), ("pi_dubess", "mpc"), ("mpc", "pi_all")],
     ["slice", "slice"]),
    ([("mpc", "pi_all", "mpc"), ("pi_dubess", "mpc", "pi_all"), ("mpc", "mpc")],
     ["slice", "array"]),
    ([("pi_all", "mpc"), ("pi_dubess",), ("mpc", "pi_all", "pi_dubess")],
     ["slice", "array"]),
    ([("mpc", "mpc"), ("pi_all",), ("mpc",)], ["slice", "array"]),
], ids=["pi-only", "mpc-only", "mpc-last", "mpc-twice", "a-cell-without-mpc",
        "mpc-twice-beside-a-gap"])
def test_any_layout_of_controllers_gives_the_single_run_bytes(monkeypatch, orders, kinds):
    # The batch steps the MPC rows first, then the PI rows; its traces come
    # back in each cell's own order. While no row has aborted the MPC rows
    # are a slice; their cells are one only when each cell has one MPC run
    # in cell order. In the last layout the MPC rows' cells 0, 0, 2 span as
    # many cells as they are rows, yet are no slice.
    config = RunConfig(measurement_noise_std=2e-5)
    cells = [cell("rapid", seed, order, duration=40.0) for seed, order in enumerate(orders)]
    calls = index_kinds(monkeypatch)
    assert_batch_matches_single_runs(cells, config)
    assert calls == [kinds]


@pytest.mark.parametrize("orders, row_aborts, kinds", [
    # The MPC rows and cells left are 0 and 2, no longer consecutive, so
    # they become index arrays.
    ([("pi_all", "mpc", "pi_dubess"), ("mpc", "pi_all"), ("pi_dubess", "mpc")],
     [None, 150, None], [["slice", "slice"], ["array", "array"]]),
    # The MPC rows 0, 1, 2, 3 become 0, 1, 3, and their cells 0, 0, 1, 2
    # become 0, 0, 2: as many cells spanned as rows left, yet no slice.
    ([("mpc", "mpc"), ("mpc",), ("mpc",)], [None, None, 150, None],
     [["slice", "array"], ["array", "array"]]),
], ids=["one-mpc-per-cell", "mpc-twice"])
def test_an_mpc_row_that_aborts_mid_batch_switches_its_indices_to_arrays(
        monkeypatch, orders, row_aborts, kinds):
    # The MPC row of cell 1 aborts at sample 150, inside the second block of
    # diagnostics.
    cells = [cell("moderate", seed, order, duration=60.0) for seed, order in enumerate(orders)]
    config = RunConfig(measurement_noise_std=2e-5)
    expected = []
    for scenarios in cells:
        for scenario in scenarios:
            abort_rows_at(monkeypatch, [150 if scenario.seed == 1 else None])
            expected.append(run_scenario(scenario, config))
    abort_rows_at(monkeypatch, row_aborts)
    calls = index_kinds(monkeypatch)
    traces = [trace for traces in run_cells(cells, config) for trace in traces]
    assert [trace.aborted_at for trace in traces] == [
        150 if s.seed == 1 and s.controller == "mpc" else None
        for scenarios in cells for s in scenarios]
    for trace, want in zip(traces, expected, strict=True):
        assert_same_bytes(trace, want)
    assert calls == kinds


def test_a_kept_trace_holds_only_its_own_records():
    # Sixteen cells' records are about 2 MB; one trace's are about 0.1 MB.
    cells = [cell("rapid", seed, duration=60.0) for seed in range(16)]
    config = RunConfig()
    for _ in run_cells(cells, config):  # builds the prepared run and its law cache
        pass
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = run_cells(cells, config)
        kept = next(batch)[0]
        del batch
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept.controller == "mpc" and kept.freq.size == 301
    assert held < 0.3e6


@pytest.mark.parametrize("change", [
    {"seed": 4},
    {"profiles": make_scenario("rapid", "mpc", 4, duration=30.0).profiles},
], ids=["seed", "profiles"])
def test_a_cell_takes_only_runs_of_one_profile_set_and_seed(change):
    scenarios = cell("rapid", 3, duration=30.0)
    scenarios[2] = make_scenario("rapid", "pi_dubess", **{
        "seed": 3, "duration": 30.0, "profiles": scenarios[0].profiles, **change})
    with pytest.raises(ValueError, match="share their profiles and seed"):
        run_cell(scenarios)


@pytest.mark.parametrize("cells, message", [
    ([], "a batch needs at least one cell"),
    ([[]], "a cell at least one scenario"),
    ([cell("rapid", 0, duration=30.0), cell("rapid", 1, duration=36.0)],
     "share their number of samples"),
], ids=["no-cells", "empty-cell", "unequal-n"])
def test_a_batch_takes_only_cells_of_one_length_and_sample_time(cells, message):
    with pytest.raises(ValueError, match=message):
        run_cells(cells)
