"""Invariants every trace keeps, whatever the scenario: property tests over
kind, controller, seed and run length on short runs."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microfreq.simulate as sim
from microfreq.lfc_model import SAMPLE_TIME
from microfreq.numerics import QpInfeasibleError
from microfreq.profiles import PROFILE_KINDS
from microfreq.simulate import (
    CONTROLLER_KINDS,
    VIOLATION_TOL,
    RunConfig,
    make_scenario,
    run_scenario,
)

TRACE_ROWS = ("t", "freq", "commands", "outputs", "disturbances", "d_hat",
              "limits_lo", "limits_hi", "binding", "objective")

kinds = st.sampled_from(PROFILE_KINDS)
seeds = st.integers(0, 39)
# 2 to 40 s of 0.2 s samples.
durations = st.integers(10, 200).map(lambda n: n * 0.2)
# The default deload, and thin reserves under which every kind binds.
deloads = st.sampled_from([RunConfig().deload, 0.01])


@pytest.mark.parametrize("kind", PROFILE_KINDS)
@pytest.mark.parametrize("controller", CONTROLLER_KINDS)
@settings(max_examples=3)
@given(seed=seeds, duration=durations, deload=deloads)
def test_completed_trace_invariants(kind, controller, seed, duration, deload):
    scenario = make_scenario(kind, controller, seed, duration=duration)
    trace = run_scenario(scenario, RunConfig(deload=deload))
    n_rows = scenario.n_steps + 1
    assert trace.aborted_at is None
    for name in TRACE_ROWS:
        assert getattr(trace, name).shape[0] == n_rows, name
    # Every command is inside its band, or its unit is flagged binding.
    inside = ((trace.commands >= trace.limits_lo - VIOLATION_TOL)
              & (trace.commands <= trace.limits_hi + VIOLATION_TOL))
    assert (inside | trace.binding.astype(bool)).all()
    # Uniform time from 0.
    assert np.array_equal(trace.t, np.arange(n_rows) * SAMPLE_TIME)
    # The terminal row holds the last command under the last limits.
    assert np.array_equal(trace.limits_lo[-1], trace.limits_lo[-2])
    assert np.array_equal(trace.limits_hi[-1], trace.limits_hi[-2])
    assert np.array_equal(trace.commands[-1], trace.commands[-2])


@settings(max_examples=8)
@given(kinds, seeds, durations, st.floats(0.0, 1.0))
def test_aborted_trace_keeps_the_rows_before_the_failure(kind, seed, duration, where):
    scenario = make_scenario(kind, "mpc", seed, duration=duration)
    abort_at = int(where * (scenario.n_steps - 1))
    calls = {"n": 0}
    real = sim.control_step

    def failing_control_step(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > abort_at:
            raise QpInfeasibleError(3)
        return real(*args, **kwargs)

    with mock.patch.object(sim, "control_step", failing_control_step):
        trace = run_scenario(scenario)
    assert trace.aborted_at == abort_at
    for name in TRACE_ROWS:
        assert getattr(trace, name).shape[0] == abort_at, name
    assert np.array_equal(trace.t, np.arange(abort_at) * SAMPLE_TIME)
