"""Tests for the augmented-state disturbance estimator."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import estimator_reference
import microfreq.estimator
import microfreq.simulate as simulate
from microfreq.estimator import (
    EstimatorConfig,
    GainSchedule,
    N_AUGMENTED,
    _state_update,
    augmented_matrices,
    default_estimator_config,
    estimator_step,
    initial_estimator_state,
    observability_report,
    require_detectable,
)
from microfreq.lfc_model import (
    IDX_FREQ,
    MicrogridParams,
    N_CONTROLS,
    N_DISTURBANCES,
    N_STATES,
    PlantModel,
    build_plant,
    step_plant,
)

MODEL = build_plant(MicrogridParams())
CONFIG = default_estimator_config()


def run_filter(d_series, n_steps, u=None, noise_rng=None, noise_std=0.0):
    """Closed-loop oracle: drive the true plant with a disturbance series and
    feed the (optionally noisy) frequency measurement to the filter."""
    est = initial_estimator_state(CONFIG)
    x = np.zeros(N_STATES)
    u = np.zeros(N_CONTROLS) if u is None else u
    d_hats, innovations, d_true = [], [], []
    for k in range(n_steps):
        y = x[IDX_FREQ]
        if noise_std > 0.0:
            y = y + noise_rng.normal(scale=noise_std)
        est = estimator_step(est, u, y, MODEL, CONFIG)
        d = d_series(k)
        d_hats.append(est.d_hat)
        innovations.append(abs(est.innovation))
        d_true.append(d.sum())
        x = step_plant(MODEL, x, u, d)
    return est, np.array(d_hats), np.array(innovations), np.array(d_true)


def constant_load(level):
    d = np.zeros(N_DISTURBANCES)
    d[0] = level
    return lambda k: d


def test_zero_input_fixed_point():
    est = initial_estimator_state(CONFIG)
    u = np.zeros(N_CONTROLS)
    for _ in range(20):
        est = estimator_step(est, u, 0.0, MODEL, CONFIG)
        assert np.array_equal(est.x_hat, np.zeros(N_STATES))
        assert est.d_hat == 0.0


def test_constant_disturbance_estimate_converges():
    _, d_hats, _, _ = run_filter(constant_load(0.1), 50)
    assert abs(d_hats[-1] - 0.1) <= 0.002  # within 2% in 10 s


def test_disturbance_step_tracked_within_100_steps():
    def d_series(k):
        d = np.zeros(N_DISTURBANCES)
        d[0] = 0.05 if k < 250 else 0.15
        return d

    _, d_hats, _, _ = run_filter(d_series, 450)
    assert abs(d_hats[249] - 0.05) < 1e-3  # settled on the old value
    crossing = next(k for k in range(250, 450) if abs(d_hats[k] - 0.15) < 0.003)
    assert crossing - 250 <= 100  # finite, bounded transition lag


def test_innovation_vanishes_on_matched_noiseless_plant():
    _, _, innovations, _ = run_filter(constant_load(0.1), 300)
    assert innovations[100:].max() < 1e-6


def test_estimate_unbiased_for_constant_disturbance():
    _, d_hats, _, d_true = run_filter(constant_load(0.1), 500)
    bias = np.mean(d_hats[-200:] - d_true[-200:])
    assert abs(bias) < 1e-3


def test_covariance_reaches_riccati_fixed_point():
    est = initial_estimator_state(CONFIG)
    u = np.zeros(N_CONTROLS)
    prev_P = est.P
    diff = np.inf
    for _ in range(2000):
        est = estimator_step(est, u, 0.0, MODEL, CONFIG)
        diff = np.abs(est.P - prev_P).max()
        prev_P = est.P
    assert diff < 1e-9


def test_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(8)
    _, _, _, _ = run_filter(constant_load(0.1), 100, noise_rng=rng, noise_std=1e-4)
    est = initial_estimator_state(CONFIG)
    u = np.zeros(N_CONTROLS)
    for k in range(200):
        est = estimator_step(est, u, rng.normal(scale=1e-3), MODEL, CONFIG)
        assert np.abs(est.P - est.P.T).max() < 1e-15
        assert np.linalg.eigvalsh(est.P).min() >= -1e-12


def test_delta_tracking():
    est = initial_estimator_state(CONFIG)
    u = np.zeros(N_CONTROLS)
    est = estimator_step(est, u, 1e-3, MODEL, CONFIG)
    est2 = estimator_step(est, u, 2e-3, MODEL, CONFIG)
    assert np.allclose(est2.delta_x, est2.x_hat - est.x_hat)
    assert est2.delta_d == pytest.approx(est2.d_hat - est.d_hat)


def test_augmented_matrices_shape_and_content():
    A_aug, B_aug, C_aug = augmented_matrices(MODEL)
    assert A_aug.shape == (N_AUGMENTED, N_AUGMENTED)
    assert np.allclose(A_aug[:N_STATES, :N_STATES], MODEL.A)
    assert np.allclose(A_aug[:N_STATES, N_STATES], MODEL.D[:, 0])
    assert A_aug[N_STATES, N_STATES] == 1.0  # random-walk disturbance
    assert np.allclose(B_aug[:N_STATES], MODEL.B)
    assert C_aug[0, IDX_FREQ] == 1.0


def test_observability_rank_and_detectability():
    # Twin PV units hide 2 anti-symmetric modes, twin wind units 1, and the
    # equal diesel-engine/battery lags (T_du2 = T_bess) hide 1 more: rank 7.
    # All hidden modes are strictly stable, so the filter is detectable.
    report = require_detectable(MODEL)
    assert report["observability_rank"] == 7
    assert report["n_unobservable_modes"] == 4
    assert report["detectable"]


def test_detectability_failure_is_loud():
    blind = PlantModel(
        Ac=MODEL.Ac,
        Bc=MODEL.Bc,
        Cc=np.zeros((1, N_STATES)),  # no measurement path at all
        Dc=MODEL.Dc,
        A=MODEL.A,
        B=MODEL.B,
        D=MODEL.D,
        Ts=MODEL.Ts,
    )
    assert not observability_report(blind)["detectable"]
    with pytest.raises(RuntimeError, match="not detectable"):
        require_detectable(blind)


def test_covariance_conditioning_clips_small_and_rejects_large():
    from microfreq.estimator import _condition_covariance

    mild = np.diag([1e-3] * (N_AUGMENTED - 1) + [-1e-9])  # tiny negative mode
    fixed = _condition_covariance(mild)
    assert np.linalg.eigvalsh(fixed).min() >= 0.0
    broken = np.diag([1e-3] * (N_AUGMENTED - 1) + [-1e-3])
    with pytest.raises(FloatingPointError):
        _condition_covariance(broken)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(Q=np.eye(5), R_noise=1e-8, P0=np.eye(N_AUGMENTED))
    with pytest.raises(ValueError):
        EstimatorConfig(Q=np.eye(N_AUGMENTED), R_noise=0.0, P0=np.eye(N_AUGMENTED))
    with pytest.raises(ValueError):
        EstimatorConfig(Q=-np.eye(N_AUGMENTED), R_noise=1e-8, P0=np.eye(N_AUGMENTED))


# ------------------------------------------------------- gain schedule


def assert_same_step(reference, z, z_prev, innovation, gain):
    """A schedule step against ``estimator_step``'s, bit for bit: the estimate,
    the increments the run loop forms for the controller, the innovation and
    the gain."""
    x, x_prev = z[:N_STATES], z_prev[:N_STATES]
    assert reference.x_hat.tobytes() == x.tobytes()
    assert reference.delta_x.tobytes() == (x - x_prev).tobytes()
    assert reference.gain.tobytes() == gain.tobytes()
    d, d_prev = float(z[N_STATES]), float(z_prev[N_STATES])
    assert reference.d_hat == d and reference.delta_d == d - d_prev
    assert reference.innovation == innovation


def initial_z():
    est = initial_estimator_state(CONFIG)
    return np.append(est.x_hat, est.d_hat)


def scheduled_update(schedule, z, bu, y, gain):
    """A step of a run of the filter on z = (x_hat, d_hat), as the run loops
    take it: the state update of ``estimator_step`` with the step's ``gain``
    from ``schedule``'s sequence, from the product ``bu`` = B_aug @ u.
    Returns the new z and the innovation."""
    return _state_update(z, bu, y, schedule.A_aug, schedule.c, gain)


def test_gain_schedule_matches_estimator_step_past_the_cycle():
    n = 900
    schedule = GainSchedule(MODEL, CONFIG)
    gains = schedule.sequence(n)
    # The default tuning repeats a covariance early, so most steps below are
    # served from the cycle, not from a directly computed entry.
    assert schedule.period > 0
    assert schedule.cycle_start + schedule.period == len(schedule.gains) < n // 10
    rng = np.random.default_rng(7)
    reference = initial_estimator_state(CONFIG)
    z = initial_z()
    for k in range(n):
        u = rng.normal(scale=1e-2, size=N_CONTROLS)
        y = rng.normal(scale=1e-3)
        reference = estimator_step(reference, u, y, MODEL, CONFIG)
        z_prev = z
        z, innovation = scheduled_update(schedule, z, schedule.B_aug @ u, y, gains[k])
        assert_same_step(reference, z, z_prev, innovation, gains[k])


def test_gain_schedule_without_repeat_keeps_every_step():
    n = 12  # shorter than the default tuning's first repeat
    schedule = GainSchedule(MODEL, CONFIG)
    gains = schedule.sequence(n)
    assert schedule.period == 0
    assert len(schedule.gains) == n and gains == schedule.gains
    reference = initial_estimator_state(CONFIG)
    z = initial_z()
    u = np.full(N_CONTROLS, 1e-3)
    for k in range(n):
        reference = estimator_step(reference, u, 1e-4 * k, MODEL, CONFIG)
        z_prev = z
        z, innovation = scheduled_update(schedule, z, schedule.B_aug @ u, 1e-4 * k, gains[k])
        assert_same_step(reference, z, z_prev, innovation, gains[k])
    # A longer run grows it by the steps it lacks, from where it stopped.
    assert len(schedule.sequence(n + 1)) == len(schedule.gains) == n + 1
    assert schedule.gains[:n] == gains


def test_gain_sequence_is_the_indexed_gains():
    schedule = GainSchedule(MODEL, CONFIG)
    schedule.sequence(900)
    start, period, last = schedule.cycle_start, schedule.period, len(schedule.gains)
    assert 1 < start < last == start + period
    lengths = {0, 1, start - 1, start, start + 1, last - 1, last, last + 1,
               last + period, last + period + 1, 900, 10**4}
    for n in sorted(lengths):
        sequence = schedule.sequence(n)
        assert len(sequence) == n
        # Each step's own entry up to the cycle's end, then the cycle's.
        entries = [k if k < last else start + (k - start) % period for k in range(n)]
        assert all(got is schedule.gains[k] for k, got in zip(entries, sequence))
    # Past the cycle, nothing more is computed.
    assert len(schedule.gains) == last


def test_a_schedule_grown_in_two_steps_holds_the_gains_of_one_grown_at_once():
    grown = GainSchedule(MODEL, CONFIG)
    with mock.patch.object(microfreq.estimator, "_covariance_step",
                           wraps=microfreq.estimator._covariance_step) as riccati:
        assert len(grown.sequence(12)) == 12 and grown.period == 0
        assert riccati.call_count == 12
        gains = grown.sequence(900)
        # The second request extends the first from its last covariance.
        assert riccati.call_count == len(grown.gains) < 900
    at_once = GainSchedule(MODEL, CONFIG)
    assert [gain.tobytes() for gain in gains] == [gain.tobytes()
                                                  for gain in at_once.sequence(900)]
    assert [gain.tobytes() for gain in grown.gains] == [gain.tobytes()
                                                        for gain in at_once.gains]
    assert (grown.cycle_start, grown.period) == (at_once.cycle_start, at_once.period)


def _schedule_or_error(model, config):
    schedule = GainSchedule(model, config)
    try:
        schedule.sequence(300)
    except FloatingPointError as error:
        return str(error)
    return schedule


scaling = st.floats(-2.0, 2.0).map(lambda exponent: 10.0 ** exponent)


@settings(max_examples=30)
@given(p0=scaling, q_state=scaling, q_disturbance=scaling, r=scaling,
       renewables=st.tuples(st.floats(20.0, 150.0), st.floats(20.0, 150.0)),
       storage=st.tuples(st.floats(40.0, 200.0), st.floats(40.0, 200.0)))
def test_gain_schedule_matches_the_reference_riccati_step(p0, q_state, q_disturbance, r,
                                                          renewables, storage):
    pv, wt = renewables
    bess, du = storage
    model = build_plant(MicrogridParams(p_pv1=pv, p_pv2=pv, p_wt1=wt, p_wt2=wt,
                                        p_bess=bess, p_du=du))
    config = default_estimator_config(
        state_noise=1e-8 * q_state, disturbance_noise=1e-4 * q_disturbance,
        measurement_noise=1e-8 * r, initial_covariance=1e-2 * p0)
    schedule = _schedule_or_error(model, config)
    with mock.patch.object(microfreq.estimator, "_covariance_step",
                           estimator_reference._covariance_step):
        reference = _schedule_or_error(model, config)
    if isinstance(reference, str):
        assert schedule == reference
        return
    assert (schedule.cycle_start, schedule.period) == (reference.cycle_start, reference.period)
    assert [gain.tobytes() for gain in schedule.gains] == [
        gain.tobytes() for gain in reference.gains]


times = st.floats(0.02, 2.0)


@settings(max_examples=30)
@given(renewables=st.tuples(st.floats(20.0, 150.0), st.floats(20.0, 150.0)),
       storage=st.tuples(st.floats(40.0, 200.0), st.floats(40.0, 200.0)),
       constants=st.tuples(times, times, times, times, times, times),
       inertia=st.floats(0.05, 5.0), droop=st.floats(0.5, 10.0),
       bess_droop_variant=st.booleans())
@example(renewables=(80.0, 60.0), storage=(100.0, 120.0),
         constants=(0.15, 0.08, 0.3, 0.1, 0.4, 0.1), inertia=0.6, droop=3.0,
         bess_droop_variant=False)
def test_the_measurement_row_has_one_nonzero_entry(renewables, storage, constants, inertia,
                                                   droop, bess_droop_variant):
    # The batch forms the innovation's c'z with np.vecdot, the lone loop with
    # c.dot(z). The two sum in different orders under some BLAS kernels, and
    # give the same bits only because c has one nonzero entry, which makes
    # every order exact.
    pv, wt = renewables
    bess, du = storage
    t_pv1, t_pv2, t_wt, t_bess, t_du1, t_du2 = constants
    params = MicrogridParams(p_pv1=pv, p_pv2=pv, p_wt1=wt, p_wt2=wt, p_bess=bess, p_du=du,
                             t_pv1=t_pv1, t_pv2=t_pv2, t_wt=t_wt, t_bess=t_bess, t_du1=t_du1,
                             t_du2=t_du2, inertia=inertia, r_droop=droop,
                             bess_droop_variant=bess_droop_variant)
    c = GainSchedule(build_plant(params), CONFIG).c
    assert c.shape == (N_AUGMENTED,)
    assert np.flatnonzero(c).tolist() == [IDX_FREQ]


def test_gain_schedule_keeps_the_measurement_check(monkeypatch):
    # A run steps its filter with the schedule's gains; a non-finite
    # measurement (here from a NaN disturbance at sample 5, which reaches
    # the frequency at sample 6) stops the run there, whichever the
    # controller, as it stops ``estimator_step``.
    real = simulate.PreparedRun.inputs

    def poisoned(self, profiles, config):
        disturbances, limits = real(self, profiles, config)
        disturbances = disturbances.copy()
        disturbances[5, 0] = np.nan
        return disturbances, limits

    monkeypatch.setattr(simulate.PreparedRun, "inputs", poisoned)
    samples = []
    for controller, seam in (("mpc", "control_step"), ("pi_all", "pi_step")):
        step = getattr(simulate, seam)
        monkeypatch.setattr(simulate, seam,
                            lambda *args, step=step: samples.append(controller) or step(*args))
        with pytest.raises(ValueError, match="measurement must be finite"):
            simulate.run_scenario(simulate.make_scenario("step", controller, 0, duration=4.0))
    assert samples == ["mpc"] * 6 + ["pi_all"] * 6
    with pytest.raises(ValueError, match="finite"):
        estimator_step(initial_estimator_state(CONFIG), np.zeros(N_CONTROLS), np.nan, MODEL, CONFIG)
