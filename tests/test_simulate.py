"""Tests for the closed-loop scenario engine and metrics."""

import copy
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import microfreq.simulate as sim
from microfreq.estimator import EstimatorConfig, default_estimator_config
from microfreq.lfc_model import MicrogridParams
from microfreq.mpc import MpcConfig
from microfreq.numerics import QpInfeasibleError
from microfreq.profiles import NOMINAL_AMBIENT_C, ProfileSet
from microfreq.simulate import (
    SETTLE_BAND,
    RunConfig,
    ScenarioTrace,
    compute_metrics,
    make_scenario,
    metrics_summary,
    run_scenario,
    write_trace_csv,
)
from test_shared_prepared_run import assert_same_bytes


def constant_profiles(duration=30.0, ts=0.2, load=0.0):
    n = int(round(duration / ts)) + 1
    return ProfileSet(
        t=np.arange(n) * ts,
        load_pu=np.full(n, load),
        v_w=np.full((2, n), 12.0),
        g_eff=np.full((2, n), 1000.0),
        t_amb=np.full(n, NOMINAL_AMBIENT_C),
    )


def single_step_profiles(duration=120.0, ts=0.2, level=0.1, at=10.0):
    p = constant_profiles(duration, ts)
    load = p.load_pu.copy()
    load[p.t >= at - 1e-9] = level
    return ProfileSet(t=p.t, load_pu=load, v_w=p.v_w, g_eff=p.g_eff, t_amb=p.t_amb)


@pytest.mark.parametrize("controller", ["mpc", "pi_all", "pi_dubess"])
def test_undisturbed_equilibrium_stays_at_zero(controller):
    scenario = make_scenario("step", controller, seed=0, profiles=constant_profiles())
    trace = run_scenario(scenario)
    assert np.array_equal(trace.freq, np.zeros_like(trace.freq))
    assert np.array_equal(trace.commands, np.zeros_like(trace.commands))


def test_mpc_rejects_load_step_within_60s():
    scenario = make_scenario("step", "mpc", seed=0, profiles=single_step_profiles())
    trace = run_scenario(scenario)
    after = trace.t > 70.0
    assert np.abs(trace.freq[after]).max() < 1e-4


def test_trace_record_count_and_time_grid():
    scenario = make_scenario("moderate", "mpc", seed=1)
    trace = run_scenario(scenario)
    assert trace.freq.shape[0] == 901  # 180 s / 0.2 s + 1
    assert np.all(np.diff(trace.t) > 0)


def test_bit_identical_reruns(tmp_path):
    config = RunConfig()
    results = []
    for _ in range(2):
        trace = run_scenario(make_scenario("rapid", "mpc", seed=5), config)
        results.append(trace)
    a, b = results
    for name in ("freq", "commands", "outputs", "disturbances", "d_hat",
                 "limits_lo", "limits_hi", "binding", "objective"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(a, pa)
    write_trace_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_commands_respect_logged_limits():
    for controller in ("mpc", "pi_all", "pi_dubess"):
        trace = run_scenario(make_scenario("rapid", controller, seed=2))
        assert np.all(trace.commands >= trace.limits_lo - 1e-9)
        assert np.all(trace.commands <= trace.limits_hi + 1e-9)
        assert compute_metrics(trace).constraint_violations == 0


def test_mpc_assigns_more_renewable_energy_than_pi_deloading():
    # Compare in the regime where no reserve band binds (small servable
    # step): the cheaper renewable move weights must shift energy toward
    # wind/PV relative to the capacity-proportional PI split.
    profiles = single_step_profiles(duration=60.0, level=0.02, at=5.0)
    m_mpc = compute_metrics(
        run_scenario(make_scenario("step", "mpc", 0, profiles=profiles))
    )
    m_pa = compute_metrics(
        run_scenario(make_scenario("step", "pi_all", 0, profiles=profiles))
    )
    assert m_mpc.cmd_energy[:4].sum() > m_pa.cmd_energy[:4].sum()
    mpc_frac = m_mpc.cmd_energy[:4].sum() / m_mpc.cmd_energy.sum()
    pa_frac = m_pa.cmd_energy[:4].sum() / m_pa.cmd_energy.sum()
    assert mpc_frac > pa_frac


def test_pi_deloading_saturation_degrades_in_rapid_scenario():
    # Seed-averaged: the clamped renewables make the deloading PI's worst
    # deviation grow from the moderate to the rapid scenario.
    worse = 0
    seeds = range(5)
    for seed in seeds:
        m_mod = compute_metrics(run_scenario(make_scenario("moderate", "pi_all", seed)))
        m_rap = compute_metrics(run_scenario(make_scenario("rapid", "pi_all", seed)))
        worse += m_rap.max_abs_freq_dev > m_mod.max_abs_freq_dev
    assert worse == len(list(seeds))


def test_metrics_degenerate_series():
    trace = ScenarioTrace(
        kind="step", controller="mpc", seed=0,
        t=np.arange(4) * 0.2,
        freq=np.full(4, 2.5e-3),
        commands=np.zeros((4, 6)),
        outputs=np.zeros((4, 6)),
        disturbances=np.zeros((4, 5)),
        d_hat=np.zeros(4),
        limits_lo=-np.ones((4, 6)),
        limits_hi=np.ones((4, 6)),
        binding=np.zeros((4, 6), dtype=int),
        objective=np.zeros(4),
    )
    m = compute_metrics(trace)
    assert m.freq_std == 0.0
    assert m.max_abs_freq_dev == pytest.approx(2.5e-3)


def test_metrics_four_point_series():
    # Population standard deviation of [0, 3e-3, -1e-3, 0]: mean 5e-4,
    # squared deviations (0.25 + 6.25 + 2.25 + 0.25)e-6, so std = 1.5e-3.
    freq = np.array([0.0, 3e-3, -1e-3, 0.0])
    trace = ScenarioTrace(
        kind="step", controller="mpc", seed=0,
        t=np.arange(4) * 0.2,
        freq=freq,
        commands=np.zeros((4, 6)),
        outputs=np.zeros((4, 6)),
        disturbances=np.zeros((4, 5)),
        d_hat=np.zeros(4),
        limits_lo=-np.ones((4, 6)),
        limits_hi=np.ones((4, 6)),
        binding=np.zeros((4, 6), dtype=int),
        objective=np.zeros(4),
    )
    m = compute_metrics(trace)
    assert m.max_abs_freq_dev == pytest.approx(3e-3)
    assert m.freq_std == pytest.approx(1.5e-3, abs=1e-18)
    assert m.freq_std == pytest.approx(np.std(freq))


# External benchmark values for the load-step comparison (p.u.). They come
# from a different (unpublished) disturbance set, so only the controller
# ORDERING is comparable, never the magnitudes.
BENCHMARK_STEP_MAX_DEV = {"mpc": 2.453e-4, "pi_all": 1.42e-3, "pi_dubess": 1.926e-3}
BENCHMARK_STEP_FREQ_STD = {"mpc": 3.788e-4, "pi_all": 3.595e-3, "pi_dubess": 5.194e-3}


def test_step_case_ordering_matches_benchmark_constants():
    """The benchmark numbers are from a different disturbance set, so only
    the controller ordering carries over; our step runs must rank the same."""
    ours = {
        ctrl: compute_metrics(run_scenario(make_scenario("step", ctrl, 0)))
        for ctrl in ("mpc", "pi_all", "pi_dubess")
    }
    bench_rank = sorted(BENCHMARK_STEP_MAX_DEV, key=BENCHMARK_STEP_MAX_DEV.get)
    ours_rank = sorted(ours, key=lambda c: ours[c].max_abs_freq_dev)
    assert ours_rank == bench_rank == ["mpc", "pi_all", "pi_dubess"]
    bench_rank_std = sorted(BENCHMARK_STEP_FREQ_STD, key=BENCHMARK_STEP_FREQ_STD.get)
    ours_rank_std = sorted(ours, key=lambda c: ours[c].freq_std)
    assert ours_rank_std == bench_rank_std == ["mpc", "pi_all", "pi_dubess"]


def test_settle_time_relative_to_last_event():
    scenario = make_scenario("step", "mpc", seed=0, profiles=single_step_profiles(at=10.0))
    trace = run_scenario(scenario)
    m = compute_metrics(trace)
    assert np.isfinite(m.settle_time)
    assert 0.0 < m.settle_time <= 60.0


def settle_trace(freq, event):
    """A trace whose only disturbance event is a load step at sample
    ``event`` (none for 0)."""
    n = len(freq)
    disturbances = np.zeros((n, 5))
    disturbances[event:, 0] = 0.05 if event else 0.0
    return ScenarioTrace(
        kind="step", controller="pi_all", seed=0,
        t=np.arange(n) * 0.2, freq=np.array(freq, dtype=float),
        commands=np.zeros((n, 6)), outputs=np.zeros((n, 6)), disturbances=disturbances,
        d_hat=np.zeros(n), limits_lo=-np.ones((n, 6)), limits_hi=np.ones((n, 6)),
        binding=np.zeros((n, 6), dtype=int), objective=np.zeros(n),
    )


def settle_time_by_definition(trace):
    """The first sample from the last event on after which freq stays
    inside the band, timed from the event; nan if there is none."""
    event = sim._last_disturbance_event_index(trace.disturbances)
    inside = np.abs(trace.freq) < SETTLE_BAND
    for k in range(event, trace.freq.size):
        if inside[k:].all():
            return trace.t[k] - trace.t[event]
    return np.nan


near_band = st.sampled_from([0.0, 5e-5, -5e-5, 0.99 * SETTLE_BAND, SETTLE_BAND, -SETTLE_BAND,
                             3e-3, np.nan])


@given(st.lists(near_band, min_size=1, max_size=60), st.integers(0, 59))
def test_settle_time_matches_its_definition(freq, event):
    trace = settle_trace(freq, min(event, len(freq) - 1))
    got, want = compute_metrics(trace).settle_time, settle_time_by_definition(trace)
    assert (np.isnan(got) and np.isnan(want)) or got == want


@pytest.mark.parametrize("freq, event, expected", [
    ([0.0] * 10, 4, 0.0),                        # settled before the event
    ([3e-3] * 10, 4, np.nan),                    # never settles
    ([0.0] * 9 + [3e-3], 4, np.nan),             # leaves the band on the last sample
    ([3e-3] * 6 + [0.0] * 4, 4, 2 * 0.2),        # enters for good at sample 6
])
def test_settle_time_edge_cases(freq, event, expected):
    assert compute_metrics(settle_trace(freq, event)).settle_time == pytest.approx(
        expected, nan_ok=True)


def test_never_settled_run_has_a_null_settle_time_in_its_summary():
    # trace_schema.md: the metrics JSON writes null, not NaN, for "never".
    trace = settle_trace([3e-3] * 10, 4)
    assert np.isnan(compute_metrics(trace).settle_time)
    assert metrics_summary(trace, compute_metrics(trace))["settle_time"] is None


def test_empty_trace_rejected():
    trace = ScenarioTrace(
        kind="step", controller="mpc", seed=0,
        t=np.zeros(0), freq=np.zeros(0), commands=np.zeros((0, 6)),
        outputs=np.zeros((0, 6)), disturbances=np.zeros((0, 5)),
        d_hat=np.zeros(0), limits_lo=np.zeros((0, 6)), limits_hi=np.zeros((0, 6)),
        binding=np.zeros((0, 6), dtype=int), objective=np.zeros(0),
    )
    with pytest.raises(ValueError, match="empty"):
        compute_metrics(trace)


def test_controller_failure_keeps_partial_trace(monkeypatch):
    calls = {"n": 0}
    real = sim.control_step

    def failing_control_step(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 40:
            raise QpInfeasibleError(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, "control_step", failing_control_step)
    trace = run_scenario(make_scenario("moderate", "mpc", seed=0))
    assert trace.aborted_at == 40
    assert trace.freq.shape[0] == 40
    # The 40 samples solved before the failure keep their KKT residual.
    assert 0 < trace.max_kkt_residual <= 1e-8
    summary = metrics_summary(trace, compute_metrics(trace))
    assert summary["aborted_at"] == 40


def test_profile_ts_mismatch_rejected():
    bad = constant_profiles(duration=30.0, ts=0.5)
    with pytest.raises(ValueError, match="sample time"):
        make_scenario("step", "mpc", seed=0, profiles=bad)


def test_one_prepared_run_serves_its_config_at_every_run_length():
    config = RunConfig()
    assert "prepared" not in vars(config)
    # Ten samples: shorter than the default tuning's first repeated
    # covariance, so the gain schedule grows to ten steps and no more.
    short = make_scenario("step", "mpc", seed=0, profiles=constant_profiles(duration=2.0))
    assert run_scenario(short, config).freq.size == 11
    prepared = config.prepared
    assert prepared.mpc is config.mpc
    assert prepared.gains.period == 0 and len(prepared.gains.gains) == 10
    laws = prepared.pred.box.laws

    # A longer run keeps the prepared run and its law cache, and grows the
    # schedule until it cycles (after 51 or 53 steps, by BLAS kernel), as a
    # fresh config's does in one go.
    long = make_scenario("step", "mpc", seed=0, profiles=constant_profiles(duration=31.0))
    trace = run_scenario(long, config)
    assert trace.freq.size == 156
    assert config.prepared is prepared and prepared.pred.box.laws is laws
    fresh = RunConfig()
    assert_same_bytes(trace, run_scenario(long, fresh))
    assert prepared.gains.period > 0
    assert len(prepared.gains.gains) == len(fresh.prepared.gains.gains) > 10

    # A replaced or an equal config gets its own.
    for other in (replace(config, deload=0.08), replace(config), RunConfig()):
        assert "prepared" not in vars(other)
        run_scenario(long, other)
        assert other.prepared is not prepared
        assert other.prepared.mpc is other.mpc


def test_unknown_controller_rejected():
    with pytest.raises(ValueError, match="controller"):
        make_scenario("step", "lqr", seed=0, profiles=constant_profiles())


def profiles_with(series, row, k, value):
    """constant_profiles with one wind or irradiance sample replaced."""
    p = constant_profiles()
    fields = {"v_w": p.v_w.copy(), "g_eff": p.g_eff.copy()}
    fields[series][row, k] = value
    return ProfileSet(t=p.t, load_pu=p.load_pu, t_amb=p.t_amb, **fields)


@pytest.mark.parametrize("series, value, message", [
    ("v_w", -1.0, "wind speed must be >= 0, got -1.0"),
    ("g_eff", -5.0, "irradiance must be >= 0, got -5.0"),
])
@pytest.mark.parametrize("controller", ["mpc", "pi_all"])
def test_bad_profile_sample_fails_before_the_first_sample(monkeypatch, series, value, message,
                                                         controller):
    # Every sample calls its controller's step, which a good profile shows.
    steps = []
    seam = "control_step" if controller == "mpc" else "pi_step"
    real = getattr(sim, seam)
    monkeypatch.setattr(sim, seam, lambda *a: steps.append(1) or real(*a))
    scenario = make_scenario("step", controller, seed=0,
                             profiles=profiles_with(series, 1, 100, value))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_scenario(scenario)
    assert steps == []
    good = make_scenario("step", controller, seed=0, profiles=constant_profiles())
    run_scenario(good)
    assert len(steps) == good.n_steps


def test_run_config_derives_its_renewable_models_and_pi_configs_from_its_ratings():
    params = MicrogridParams(p_wt1=80.0, p_wt2=80.0, p_pv1=100.0, p_pv2=100.0)
    for config in (RunConfig(params=params), replace(RunConfig(), params=params)):
        assert config.wind.rated_power == 80.0
        assert config.pv.rated_array_kw == 100.0
        for name, pi_config in config.pi_configs.items():
            assert pi_config.capacity_scale == pytest.approx(
                (params.capacities_kw() * pi_config.participating).sum() / params.s_base), name
    assert set(RunConfig().pi_configs) == {"pi_all", "pi_dubess"}


def test_replace_keeps_filled_gains_and_redesigns_them_when_cleared():
    params = MicrogridParams(p_wt1=80.0, p_wt2=80.0, p_pv1=100.0, p_pv2=100.0)
    default, fresh = RunConfig(), RunConfig(params=params)
    assert (fresh.pi_kp, fresh.pi_ki) != (default.pi_kp, default.pi_ki)
    kept = replace(default, params=params)
    assert (kept.pi_kp, kept.pi_ki) == (default.pi_kp, default.pi_ki)
    assert kept.pi_configs["pi_all"].kp == default.pi_kp
    redesigned = replace(default, params=params, pi_kp=None, pi_ki=None)
    assert (redesigned.pi_kp, redesigned.pi_ki) == (fresh.pi_kp, fresh.pi_ki)


@pytest.mark.parametrize("kwargs, message", [
    ({"params": MicrogridParams(p_wt2=90.0)}, r"p_wt2=90.0 differs from p_wt1=60.0"),
    ({"params": MicrogridParams(p_pv2=90.0)}, r"p_pv2=90.0 differs from p_pv1=80.0"),
    ({"measurement_noise_std": -1e-5}, r"measurement_noise_std must be >= 0, got -1e-05"),
    ({"measurement_noise_std": float("inf")}, r"measurement_noise_std must be >= 0, got inf"),
    ({"measurement_noise_std": float("nan")}, r"measurement_noise_std must be >= 0, got nan"),
    ({"pi_kp": float("nan")}, r"kp must be >= 0"),
    ({"pi_ki": 0.0}, r"ki must be > 0"),
    ({"deload": 1.5}, r"deload must be in \[0, 1\), got 1.5"),
    ({"deload": float("nan")}, r"deload must be in \[0, 1\), got nan"),
    ({"dispatch_du_kw": 500.0}, r"diesel dispatch 500.0 kW outside \[0, 120.0\]"),
    ({"dispatch_bess_kw": -150.0}, r"battery dispatch -150.0 kW outside \[-100.0, 100.0\]"),
], ids=["wind-twins", "pv-twins", "negative-noise", "infinite-noise", "nan-noise", "nan-kp",
        "zero-ki", "deload-above-one", "nan-deload", "diesel-dispatch", "battery-dispatch"])
def test_run_config_rejects_bad_values_at_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**kwargs)


# (constructor, argument, the field its message names): every float field of
# the model and MPC configs, and each tuning value of the filter.
NON_FINITE = [
    *[(MicrogridParams, f.name, f.name) for f in fields(MicrogridParams) if f.type is float],
    *[(MpcConfig, name, name)
      for name in ("p", "m", "alpha", "beta_pv", "beta_wt", "beta_du", "beta_bess")],
    (default_estimator_config, "state_noise", "Q"),
    (default_estimator_config, "disturbance_noise", "Q"),
    (default_estimator_config, "measurement_noise", "R_noise"),
    (default_estimator_config, "initial_covariance", "P0"),
]
# (constructor, argument, field, value, id): each of those with NaN and inf,
# and the MPC horizons with a fraction or a bool, which are not integers.
BAD_VALUES = [
    *[(build, argument, name, value, f"{build.__name__}-{argument}-{label}")
      for build, argument, name in NON_FINITE
      for value, label in ((math.nan, "nan"), (math.inf, "inf"))],
    (MpcConfig, "p", "p", 10.5, "MpcConfig-p-fraction"),
    (MpcConfig, "m", "m", 2.5, "MpcConfig-m-fraction"),
    (MpcConfig, "p", "p", True, "MpcConfig-p-bool"),
    (MpcConfig, "m", "m", True, "MpcConfig-m-bool"),
]


@pytest.mark.parametrize("build, argument, name, value", [case[:4] for case in BAD_VALUES],
                         ids=[case[4] for case in BAD_VALUES])
def test_model_mpc_and_filter_configs_reject_non_finite_values(build, argument, name, value):
    # Library callers can pass NaN, inf and fractional horizons, which JSON
    # configs reject at ingest; each fails when built, not halfway through a
    # run.
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        build(**{argument: value})


def test_mpc_horizons_take_any_integer_type():
    scenario = make_scenario("rapid", "mpc", 0, duration=4.0)
    numpy_ints = RunConfig(mpc=MpcConfig(p=np.int64(8), m=np.int32(2)))
    assert_same_bytes(run_scenario(scenario, numpy_ints),
                      run_scenario(scenario, RunConfig(mpc=MpcConfig(p=8, m=2))))


@pytest.mark.parametrize("other, equal", [
    (lambda config: copy.deepcopy(config), True),
    (lambda config: RunConfig(deload=0.08), True),
    (lambda config: RunConfig(deload=0.1), False),
    (lambda config: RunConfig(
        deload=0.08, estimator=default_estimator_config(disturbance_noise=1e-3)), False),
    (lambda config: RunConfig(
        deload=0.08, estimator=default_estimator_config(initial_covariance=1.0)), False),
], ids=["deepcopy", "rebuilt", "deload", "estimator-q", "estimator-p0"])
def test_run_configs_compare_by_value(other, equal):
    config = RunConfig(deload=0.08)
    run_scenario(make_scenario("step", "pi_all", 0, duration=2.0), config)  # fills prepared
    assert (other(config) == config) is equal
    assert (config != other(config)) is not equal


def test_equal_configs_hash_alike_and_key_a_dict():
    config = RunConfig(deload=0.08)
    run_scenario(make_scenario("step", "pi_all", 0, duration=2.0), config)  # fills prepared
    twins = [copy.deepcopy(config), RunConfig(deload=0.08)]
    assert all(hash(twin) == hash(config) for twin in twins)
    keyed = {config: "first"}
    for twin in twins:
        keyed[twin] = "twin"
    assert keyed == {config: "twin"}
    assert RunConfig(deload=0.1) not in keyed


def test_estimator_configs_equal_by_value_hash_alike_with_a_signed_zero():
    tuning = default_estimator_config()
    Q = np.array(tuning.Q)
    Q[Q == 0.0] = -0.0
    signed = EstimatorConfig(Q=Q, R_noise=tuning.R_noise, P0=tuning.P0)
    assert np.signbit(signed.Q).any() and signed == tuning
    assert hash(signed) == hash(tuning)
    assert hash(RunConfig(estimator=signed)) == hash(RunConfig(estimator=tuning))
    assert len({tuning, signed, default_estimator_config(disturbance_noise=1e-3)}) == 2
