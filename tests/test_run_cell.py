"""The cell engine against single runs.

``run_cell`` steps the runs of one profile set and seed in lockstep, with
the plant, filter and control-term products stacked over its rows and one
noise draw per sample. Each of its traces must have the bytes
``run_scenario`` gives the same scenario on its own, also when an MPC row
aborts and leaves the cell while the others run on.
"""

import pytest

from microfreq.simulate import CONTROLLER_KINDS, RunConfig, make_scenario, run_cell, run_scenario
from test_shared_prepared_run import assert_same_bytes
from test_sweep_plan import abort_mpc_at


def cell(kind, seed, controllers=CONTROLLER_KINDS, **kwargs):
    first = make_scenario(kind, controllers[0], seed, **kwargs)
    return [make_scenario(kind, controller, seed, profiles=first.profiles)
            for controller in controllers]


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


@pytest.mark.parametrize("controllers", [
    ("pi_all", "mpc", "pi_dubess"),
    ("mpc", "pi_dubess", "mpc", "pi_all"),
    ("mpc",),
], ids=["mpc-between-pi", "two-mpc-rows", "mpc-alone"])
def test_an_mpc_row_that_aborts_leaves_the_cell_and_the_others_run_on(monkeypatch, controllers):
    config = RunConfig(measurement_noise_std=2e-5)
    scenarios = cell("moderate", 3, controllers, duration=30.0)
    abort_mpc_at(monkeypatch, 40)
    expected = [run_scenario(scenario, config) for scenario in scenarios]
    abort_mpc_at(monkeypatch, 40, rows=controllers.count("mpc"))
    traces = run_cell(scenarios, config)
    for scenario, trace, want in zip(scenarios, traces, expected):
        assert trace.aborted_at == (40 if scenario.controller == "mpc" else None)
        assert trace.freq.size == (40 if scenario.controller == "mpc" else 151)
        assert_same_bytes(trace, want)


@pytest.mark.parametrize("change", [
    {"seed": 4},
    {"profiles": make_scenario("rapid", "mpc", 4, duration=30.0).profiles},
], ids=["seed", "profiles"])
def test_a_cell_takes_only_runs_of_one_profile_set_and_seed(change):
    scenarios = cell("rapid", 3, duration=30.0)
    scenarios[2] = make_scenario("rapid", "pi_dubess", **{
        "seed": 3, "duration": 30.0, "profiles": scenarios[0].profiles, **change})
    with pytest.raises(ValueError, match="share their profiles, seed and Ts"):
        run_cell(scenarios)
