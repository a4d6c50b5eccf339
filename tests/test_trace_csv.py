"""The trace CSV writer against the per-cell ``csv.writer`` reference in
``trace_csv_reference.py``: the files must be equal byte for byte."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import microfreq.simulate as sim
import trace_csv_reference
from microfreq.numerics import QpInfeasibleError
from microfreq.profiles import PROFILE_KINDS
from microfreq.simulate import (
    CONTROLLER_KINDS,
    RunConfig,
    ScenarioTrace,
    make_scenario,
    run_scenario,
    write_trace_csv,
)


def assert_bytes_match_reference(trace, directory):
    got, want = directory / "got.csv", directory / "want.csv"
    write_trace_csv(trace, got)
    trace_csv_reference.write_trace_csv(trace, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("kind", PROFILE_KINDS)
@pytest.mark.parametrize("controller", CONTROLLER_KINDS)
def test_run_trace_matches_reference_bytes(kind, controller, tmp_path):
    # 181 rows: two full 64-row chunks and a partial one.
    trace = run_scenario(make_scenario(kind, controller, seed=3, duration=36.0))
    assert_bytes_match_reference(trace, tmp_path)


@pytest.mark.parametrize("controller", CONTROLLER_KINDS)
def test_measurement_noise_trace_matches_reference_bytes(controller, tmp_path):
    scenario = make_scenario("rapid", controller, seed=5, duration=36.0)
    trace = run_scenario(scenario, RunConfig(measurement_noise_std=2e-5))
    assert_bytes_match_reference(trace, tmp_path)


@pytest.mark.parametrize("abort_at", [0, 40, 64])
def test_aborted_trace_matches_reference_bytes(monkeypatch, abort_at, tmp_path):
    calls = {"n": 0}
    real = sim.control_step

    def failing_control_step(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > abort_at:
            raise QpInfeasibleError(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "control_step", failing_control_step)
    trace = run_scenario(make_scenario("moderate", "mpc", seed=0, duration=36.0))
    assert trace.aborted_at == abort_at and trace.freq.shape == (abort_at,)
    assert_bytes_match_reference(trace, tmp_path)


# Finite doubles, with signed zeros, subnormals and the extremes drawn often.
cells = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def random_traces(draw):
    n = draw(st.integers(0, 140))

    def floats(*shape):
        return draw(hnp.arrays(np.float64, (n, *shape), elements=cells))

    return ScenarioTrace(
        kind="rapid", controller="pi_all", seed=0, Ts=0.2,
        t=floats(), freq=floats(), commands=floats(6), outputs=floats(6),
        disturbances=floats(5), d_hat=floats(), limits_lo=floats(6), limits_hi=floats(6),
        binding=draw(hnp.arrays(int, (n, 6), elements=st.integers(0, 1))),
        objective=floats(),
    )


@given(random_traces())
def test_random_trace_matches_reference_bytes(trace):
    with tempfile.TemporaryDirectory() as tmp:
        assert_bytes_match_reference(trace, Path(tmp))
