"""Tests for the augmented-state disturbance estimator."""

import numpy as np
import pytest

from microfreq.estimator import (
    EstimatorConfig,
    N_AUGMENTED,
    augmented_matrices,
    default_estimator_config,
    estimator_step,
    gain_schedule,
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


def test_gain_schedule_matches_estimator_step_past_the_cycle():
    n = 900
    schedule = gain_schedule(MODEL, CONFIG, n)
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
        z, innovation = schedule.update(z, schedule.B_aug @ u, y, k)
        assert_same_step(reference, z, z_prev, innovation, schedule.gains[schedule.index(k)])


def test_gain_schedule_without_repeat_keeps_every_step():
    n = 12  # shorter than the default tuning's first repeat
    schedule = gain_schedule(MODEL, CONFIG, n)
    assert schedule.period == 0
    assert len(schedule.gains) == n
    reference = initial_estimator_state(CONFIG)
    z = initial_z()
    u = np.full(N_CONTROLS, 1e-3)
    for k in range(n):
        reference = estimator_step(reference, u, 1e-4 * k, MODEL, CONFIG)
        z_prev = z
        z, innovation = schedule.update(z, schedule.B_aug @ u, 1e-4 * k, k)
        assert_same_step(reference, z, z_prev, innovation, schedule.gains[k])
    with pytest.raises(IndexError):
        schedule.index(n)


def test_gain_schedule_cycle_indexing():
    schedule = gain_schedule(MODEL, CONFIG, 900)
    start, period = schedule.cycle_start, schedule.period
    last = len(schedule.gains)
    assert [schedule.index(k) for k in range(last)] == list(range(last))
    assert [schedule.index(last + j) for j in range(2 * period)] == [
        start + j % period for j in range(2 * period)
    ]


def test_gain_schedule_keeps_the_measurement_check():
    schedule = gain_schedule(MODEL, CONFIG, 5)
    with pytest.raises(ValueError, match="finite"):
        schedule.update(initial_z(), np.zeros(N_AUGMENTED), np.nan, 0)
    with pytest.raises(ValueError, match="finite"):
        estimator_step(initial_estimator_state(CONFIG), np.zeros(N_CONTROLS), np.nan, MODEL, CONFIG)
