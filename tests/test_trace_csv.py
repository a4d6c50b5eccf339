"""The trace CSV writer against the per-cell ``csv.writer`` reference in
``trace_csv_reference.py``: the files must be equal byte for byte."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import microfreq.csv_format as csv_format
import microfreq.simulate as sim
import trace_csv_reference
from microfreq.csv_format import CsvRows
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
        kind="rapid", controller="pi_all", seed=0,
        t=floats(), freq=floats(), commands=floats(6), outputs=floats(6),
        disturbances=floats(5), d_hat=floats(), limits_lo=floats(6), limits_hi=floats(6),
        binding=draw(hnp.arrays(int, (n, 6), elements=st.integers(0, 1))),
        objective=floats(),
    )


@given(random_traces())
def test_random_trace_matches_reference_bytes(trace):
    with tempfile.TemporaryDirectory() as tmp:
        assert_bytes_match_reference(trace, Path(tmp))


@pytest.fixture
def fallbacks(monkeypatch):
    """The row count of every chunk formatted by the exact fallback."""
    calls = []
    real = CsvRows._format_exactly

    def counting(self, block):
        calls.append(block.shape[0])
        return real(self, block)

    monkeypatch.setattr(CsvRows, "_format_exactly", counting)
    return calls


def trace_of(values, binding=None):
    """A trace whose row k holds ``values[k]`` in every float cell, negated
    in every other one, and the flags ``binding[k]`` (zeros by default)."""
    cells = np.array(values, dtype=float)[:, None] * np.where(np.arange(33) % 2, -1.0, 1.0)
    if binding is None:
        binding = np.zeros((len(values), 6), dtype=int)
    return ScenarioTrace(
        kind="rapid", controller="pi_all", seed=0,
        t=cells[:, 0], freq=cells[:, 1], commands=cells[:, 2:8], outputs=cells[:, 8:14],
        disturbances=cells[:, 14:19], d_hat=cells[:, 19], limits_lo=cells[:, 20:26],
        limits_hi=cells[:, 26:32], binding=binding, objective=cells[:, 32],
    )


def with_neighbours(values):
    return [y for x in values for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


_rng = np.random.default_rng(11)
# Exact ties in the 17th significant digit: k.5 with 16-digit k, k.25 with
# 15-digit k, k.125 with 14-digit k, k.0625 with 13-digit k.
_TIES = [1234567890123456.5, 1234567890123457.5, 123456789012345.25, 2.0**52 - 0.5] + [
    float(k) + fraction
    for digits, fraction in ((16, 0.5), (15, 0.25), (14, 0.125), (13, 0.0625))
    for k in _rng.integers(10 ** (digits - 1), min(10**digits, 2**52), size=8)
]
# name: (values, whether the fast path formats every one of them; None
# where the table's edges decide it one way or the other).
ADVERSARIAL = {
    "ties": (_TIES, False),
    "two-53": (with_neighbours([2.0**53, 2.0**53 + 2, 2.0**53 - 1, 2.0**54]), True),
    "powers-of-ten": (with_neighbours([float(f"1e{k}") for k in range(-39, 41)]), True),
    "table-edges": (with_neighbours([1e-41, 1e-40, 1e41, 1e-99, 1e-100, 1e99, 1e100]), None),
    "zeros": ([0.0, -0.0], True),
    "non-finite-and-subnormal": (
        [np.nan, np.inf, -np.inf, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308], False),
}


@pytest.mark.parametrize("chunk", [1, 64])
@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_cells_match_reference_bytes(monkeypatch, fallbacks, chunk, name, tmp_path):
    values, fast = ADVERSARIAL[name]
    monkeypatch.setattr(csv_format, "_WRITE_CHUNK", chunk)
    assert_bytes_match_reference(trace_of(values), tmp_path)
    if chunk == 1 and fast is not None:
        # One row per chunk: each value takes the fast path or the fallback alone.
        assert len(fallbacks) == (0 if fast else len(values))


@pytest.mark.parametrize("flag", [10, -1])
def test_out_of_range_flag_matches_reference_bytes(fallbacks, flag, tmp_path):
    binding = np.zeros((100, 6), dtype=int)
    binding[70, 2] = flag
    assert_bytes_match_reference(trace_of(np.linspace(-1.0, 1.0, 100), binding), tmp_path)
    assert fallbacks == [36]  # the second chunk, rows 64-99


@pytest.mark.parametrize("controller", CONTROLLER_KINDS)
def test_full_rapid_trace_takes_no_fallback(fallbacks, controller, tmp_path):
    trace = run_scenario(make_scenario("rapid", controller, seed=7))
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert trace.freq.size == 901 and fallbacks == []
