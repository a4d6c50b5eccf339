"""What a config builds once and shares with every run on it, and the
lean sample loop that runs on it.

A config builds its plant, detectability check, gain schedule and MPC
matrices when its first run reads them and keeps them for runs of any
length; a longer run only extends the gain schedule. None of them holds
the config, so a config and its builds form no reference cycle. Sharing
must never show in a run's bytes: not through the QP law cache, which
later runs find filled, and not through the disturbances and limits the
runs of a cell share.
"""

import copy
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import microfreq.estimator
import microfreq.simulate as sim
from microfreq.estimator import EstimatorConfig, augmented_matrices
from microfreq.lfc_model import N_CONTROLS, N_STATES, build_plant
from microfreq.numerics import rows_times
from microfreq.profiles import generate_profiles
from microfreq.simulate import (
    RunConfig,
    make_scenario,
    run_scenario,
)

MODEL = build_plant(RunConfig().params)
_, B_AUG, _ = augmented_matrices(MODEL)

TRACE_ARRAYS = ("t", "freq", "commands", "outputs", "disturbances", "d_hat",
                "limits_lo", "limits_hi", "binding", "objective")


def assert_same_bytes(trace, expected):
    for name in TRACE_ARRAYS:
        got, want = getattr(trace, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert trace.aborted_at == expected.aborted_at
    assert np.float64(trace.max_kkt_residual).tobytes() == \
        np.float64(expected.max_kkt_residual).tobytes()


def test_a_config_builds_its_invariants_once_for_all_its_runs(monkeypatch):
    calls = []
    for module, name in ((sim, "build_plant"), (sim, "require_detectable"),
                         (sim, "GainSchedule"), (sim, "build_prediction_matrices"),
                         (microfreq.estimator, "_covariance_step")):
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    config = RunConfig()
    # A 2 s run, shorter than the gain schedule's cycle, then 20 s ones.
    for controller in ("mpc", "pi_all", "mpc", "pi_dubess"):
        for seed, duration in ((0, 2.0), (1, 20.0)):
            run_scenario(make_scenario("rapid", controller, seed, duration=duration), config)
    steps = len(config.gain_schedule.gains)
    assert 10 < steps < 100 and config.gain_schedule.period
    assert sorted(calls) == ["GainSchedule"] + ["_covariance_step"] * steps + [
        "build_plant", "build_prediction_matrices", "require_detectable"]


def test_reading_the_mpc_matrices_builds_no_gain_schedule(monkeypatch):
    built = []
    for name in ("build_plant", "GainSchedule", "build_prediction_matrices"):
        real = getattr(sim, name)
        monkeypatch.setattr(sim, name, lambda *args, name=name, real=real:
                            built.append(name) or real(*args))
    config = RunConfig()
    config.pred
    assert built == ["build_plant", "build_prediction_matrices"]
    assert "gain_schedule" not in vars(config)


def test_a_used_config_is_freed_without_the_cycle_collector():
    # The config holds its builds and none of them holds the config, so no
    # cycle keeps a used config (and its law cache) alive.
    gc.disable()
    try:
        config = RunConfig()
        for controller in ("mpc", "pi_all"):
            run_scenario(make_scenario("rapid", controller, 0, duration=20.0), config)
        assert config.pred.box.laws
        freed = weakref.ref(config)
        del config
        assert freed() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda config: pickle.loads(pickle.dumps(config))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_config_runs_as_its_original(clone):
    config = RunConfig(deload=0.08)
    scenario = make_scenario("rapid", "mpc", 2, duration=30.0)
    first = run_scenario(scenario, config)
    twin = clone(config)
    assert_same_bytes(run_scenario(scenario, twin), first)
    assert_same_bytes(run_scenario(scenario, config), first)


def test_the_estimator_tuning_a_config_keeps_gains_for_cannot_change():
    config = RunConfig(estimator=EstimatorConfig(state_noise=1e-6, disturbance_noise=1e-6,
                                                 initial_covariance=1.0))
    run_scenario(make_scenario("step", "pi_all", 0, duration=6.0), config)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.estimator.state_noise = 1.0
    assert config.estimator.Q[0, 0] == 1e-6
    for tuning in (config.estimator.Q, config.estimator.P0):
        with pytest.raises(ValueError, match="read-only"):
            tuning[0, 0] = 1.0


@pytest.mark.parametrize("seed", [3, 12])
def test_an_mpc_run_has_the_same_bytes_first_or_after_other_runs_on_its_config(seed):
    scenario = make_scenario("rapid", "mpc", seed)
    first = run_scenario(scenario, RunConfig())
    config = RunConfig()
    for other in range(10):
        run_scenario(make_scenario("rapid", "mpc", other), config)
    laws = len(config.pred.box.laws)
    assert laws > 50
    assert_same_bytes(run_scenario(scenario, config), first)


def test_a_profile_set_edited_in_place_gets_inputs_of_its_own():
    profiles = generate_profiles("rapid", 4, 36.0)
    scenario = make_scenario("rapid", "pi_all", 4, profiles=profiles)
    config = RunConfig()
    before = run_scenario(scenario, config)
    profiles.load_pu[50:] += 0.02
    profiles.v_w[0, 80:] *= 0.9
    edited = run_scenario(scenario, config)
    assert not np.array_equal(edited.disturbances, before.disturbances)
    assert_same_bytes(edited, run_scenario(scenario, RunConfig()))


def test_runs_on_equal_profiles_share_one_build_of_their_inputs():
    # The runs of a scenario share its disturbances and trace limits, built
    # once, so none of them may write to them.
    scenarios = [make_scenario("moderate", "mpc", seed, duration=36.0) for seed in (2, 3)]
    traces, (_, other, _) = sim.run_cells(scenarios, RunConfig())
    for name in ("disturbances", "limits_lo", "limits_hi"):
        shared = [getattr(trace, name) for trace in traces]
        assert all(np.shares_memory(shared[0], array) for array in shared[1:]), name
        assert not any(array.flags.writeable for array in shared + [getattr(other, name)]), name
    assert not np.array_equal(traces[0].disturbances, other.disturbances)


def test_plant_disturbances_have_the_bits_of_one_product_per_sample():
    # A single run takes D @ d over the grid, a batch over the rows of each
    # sample; both must give each row the bits of its own product.
    profiles = generate_profiles("rapid", 6, 60.0)
    config = RunConfig()
    disturbances, _ = config.inputs(profiles)
    D = config.plant.D
    grid = rows_times(D, disturbances)
    assert grid.shape == (disturbances.shape[0], N_STATES)
    stacked = np.stack([disturbances, disturbances[::-1]], axis=1)
    for k, d in enumerate(disturbances):
        assert grid[k].tobytes() == (D @ d).tobytes()
        assert rows_times(D, stacked[k][[1, 0, 0]])[2].tobytes() == (D @ d).tobytes()


@given(st.lists(st.floats(-1.0, 1.0), min_size=N_CONTROLS, max_size=N_CONTROLS))
def test_the_filter_input_term_holds_the_plant_input_term(u):
    # The loop computes B_aug @ u once per sample and steps the plant with
    # its first rows, so they must be B @ u bit for bit.
    u = np.array(u)
    bu = B_AUG @ u
    assert bu[:N_STATES].tobytes() == (MODEL.B @ u).tobytes()
    assert bu[N_STATES] == 0.0


@pytest.mark.parametrize("controller", ["mpc", "pi_all"])
def test_a_command_of_the_wrong_shape_stops_the_run(monkeypatch, controller):
    if controller == "mpc":
        real = sim.control_step

        def widened(*args):
            step = real(*args)
            return step._replace(command=step.command[None])

        monkeypatch.setattr(sim, "control_step", widened)
    else:
        real = sim.pi_step
        monkeypatch.setattr(sim, "pi_step", lambda *args: (real(*args)[0], np.zeros(5)))
    scenario = make_scenario("step", controller, 0, duration=2.0)
    with pytest.raises(ValueError, match=r"command must have shape \(6,\)"):
        run_scenario(scenario)
