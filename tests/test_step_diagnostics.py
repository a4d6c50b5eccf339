"""The run's MPC diagnostics against the per-sample reference, bit for bit.

``run_scenario`` applies u_prev + V[:nu] at each MPC sample and takes the
cost, active bounds and KKT residuals of its solved samples a block at a
time, as the loop passes them (``microfreq.mpc.step_diagnostics``, a stack of
matrix-vector products). ``qp_reference.reference_run`` computes them at
every sample from the same records, as the step once did, and applies
u_prev + (T^-1 V)[:nu]. The first block of T^-1 V is V's first block, and
each stacked product sums as the one-sample product does, so ``freq``,
``commands``, ``objective``, ``binding`` and the bits of
``max_kkt_residual`` are equal: on full rapid runs, with measurement
noise, with every binding sample solved by the capped fallback, and on
runs aborted part way and at the first sample.
"""

import numpy as np
import pytest

import microfreq.numerics
import microfreq.simulate as sim
from microfreq.numerics import QpInfeasibleError
from microfreq.simulate import RunConfig, make_scenario, run_scenario
from qp_reference import reference_run

FIELDS = ("freq", "commands", "objective", "binding")


def assert_matches_reference(trace, reference):
    for name in FIELDS:
        got, want = getattr(trace, name), reference[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert trace.aborted_at == reference["aborted_at"]
    assert np.float64(trace.max_kkt_residual).tobytes() == np.float64(
        reference["max_kkt_residual"]).tobytes()


@pytest.mark.parametrize("seed", [1, 3])
def test_rapid_run_matches_the_per_sample_reference(seed):
    scenario = make_scenario("rapid", "mpc", seed)
    trace = run_scenario(scenario)
    assert trace.binding.any() and trace.max_kkt_residual > 0.0
    assert_matches_reference(trace, reference_run(scenario))


def test_noisy_run_matches_the_per_sample_reference():
    scenario = make_scenario("rapid", "mpc", 5)
    config = RunConfig(measurement_noise_std=2e-5)
    assert_matches_reference(run_scenario(scenario, config), reference_run(scenario, config))


def test_fallback_run_matches_the_per_sample_reference(monkeypatch):
    calls = []
    solve = microfreq.mpc.solve_qp_info

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(microfreq.numerics, "BOX_QP_MAX_ITERATIONS", 0)
    monkeypatch.setattr(microfreq.mpc, "solve_qp_info", counting)
    scenario = make_scenario("rapid", "mpc", 7, duration=60.0)
    trace = run_scenario(scenario)
    assert calls
    assert_matches_reference(trace, reference_run(scenario))


@pytest.mark.parametrize("abort_at", [0, 40])
def test_aborted_run_matches_the_per_sample_reference(monkeypatch, abort_at):
    real = sim.control_step

    def failing_control_step(*args, **kwargs):
        if failing_control_step.calls == abort_at:
            raise QpInfeasibleError(3)
        failing_control_step.calls += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "control_step", failing_control_step)
    scenario = make_scenario("rapid", "mpc", 3)
    failing_control_step.calls = 0
    trace = run_scenario(scenario)
    failing_control_step.calls = 0
    reference = reference_run(scenario)
    assert trace.aborted_at == abort_at and trace.objective.shape == (abort_at,)
    assert_matches_reference(trace, reference)
    if abort_at == 0:
        assert trace.max_kkt_residual == 0.0
