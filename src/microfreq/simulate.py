"""Closed-loop scenario runner: plant + availability + estimator + one
controller, with trace logging and the comparison metrics.

The loop is a deterministic fixed-step cycle: update the disturbance
estimator from the last measurement, take the instant's reserve limits, run
the selected controller, then step the true plant with the applied command
and the true disturbances. Identical scenario, config, and seed give
bit-identical traces.

Everything that does not depend on the closed loop is built once per run,
before the first sample: renewable availability and the reserve limits over
the whole time grid (checked as a whole), the estimator's gain schedule, and
the controller's prepared QP matrices. Per sample the loop computes only the
state estimate, the command and the plant step.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    TUNED_KI,
    TUNED_KP,
    initial_pi_state,
    pi_all_units_config,
    pi_du_bess_config,
    pi_step,
)
from .der_models import (
    DELOAD_FRACTION,
    default_pv_params,
    default_wind_params,
    pv_available_power,
    reserve_limits,
    wind_available_power,
)
# estimator_step is no longer called here, but perfbench/tracer.py wraps it
# in this namespace, so it stays importable from it.
from .estimator import (  # noqa: F401
    default_estimator_config,
    estimator_step,
    gain_schedule,
    initial_estimator_state,
    require_detectable,
)
from .lfc_model import (
    IDX_FREQ,
    MicrogridParams,
    N_CONTROLS,
    OUTPUT_STATE_INDICES,
    build_plant,
    step_plant,
)
from .mpc import (
    MpcConfig,
    active_units,
    build_prediction_matrices,
    control_step,
    out_of_band_units,
)
from .numerics import QpInfeasibleError
from .profiles import PROFILE_KINDS, ProfileSet, generate_profiles

CONTROLLER_KINDS = ("mpc", "pi_all", "pi_dubess")

SETTLE_BAND = 1e-4  # p.u.
VIOLATION_TOL = 1e-9  # p.u.

DEFAULT_DURATIONS = {"step": 120.0, "moderate": 180.0, "rapid": 180.0}

# External benchmark values for the load-step comparison (p.u.). They come
# from a different (unpublished) disturbance set, so only the controller
# ORDERING is comparable, never the magnitudes.
BENCHMARK_STEP_MAX_DEV = {"mpc": 2.453e-4, "pi_all": 1.42e-3, "pi_dubess": 1.926e-3}
BENCHMARK_STEP_FREQ_STD = {"mpc": 3.788e-4, "pi_all": 3.595e-3, "pi_dubess": 5.194e-3}


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment: profiles plus controller selection."""

    kind: str
    controller: str
    seed: int
    profiles: ProfileSet
    Ts: float = 0.2

    def __post_init__(self):
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if abs(self.profiles.ts - self.Ts) > 1e-12:
            raise ValueError(
                f"profile sample time {self.profiles.ts} does not match scenario Ts {self.Ts}"
            )

    @property
    def duration(self):
        return self.profiles.duration

    @property
    def n_steps(self):
        return self.profiles.t.shape[0] - 1


def make_scenario(kind, controller, seed, duration=None, profiles=None, ts=0.2):
    """Scenario factory; generates builtin profiles unless some are supplied."""
    if profiles is None:
        if kind not in PROFILE_KINDS:
            raise ValueError(f"unknown scenario kind {kind!r}")
        duration = DEFAULT_DURATIONS[kind] if duration is None else duration
        profiles = generate_profiles(kind, seed, duration, ts)
    return Scenario(kind=kind, controller=controller, seed=int(seed), profiles=profiles, Ts=ts)


@dataclass(frozen=True)
class RunConfig:
    """Everything tunable about a run, with the published defaults baked in."""

    params: MicrogridParams = field(default_factory=MicrogridParams)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    estimator: object = field(default_factory=default_estimator_config)
    wind: object = field(default_factory=default_wind_params)
    pv: object = field(default_factory=default_pv_params)
    pi_kp: float = TUNED_KP
    pi_ki: float = TUNED_KI
    deload: float = DELOAD_FRACTION
    dispatch_du_kw: float = 60.0
    dispatch_bess_kw: float = 0.0
    measurement_noise_std: float = 0.0


@dataclass
class ScenarioTrace:
    """Time-indexed record of one run (figure-equivalent data).

    One row per sample including the terminal state; ``aborted_at`` is the
    step index of a controller failure when the run ended early, else None.
    """

    kind: str
    controller: str
    seed: int
    Ts: float
    t: np.ndarray
    freq: np.ndarray
    commands: np.ndarray        # (n, 6) applied totals, p.u.
    outputs: np.ndarray         # (n, 6) unit power deviations, p.u.
    disturbances: np.ndarray    # (n, 5) true channels, p.u.
    d_hat: np.ndarray
    limits_lo: np.ndarray       # (n, 6)
    limits_hi: np.ndarray
    binding: np.ndarray         # (n, 6) ints
    objective: np.ndarray
    max_kkt_residual: float = 0.0
    aborted_at: int = None


@dataclass(frozen=True)
class RunMetrics:
    """Comparison metrics of one trace."""

    max_abs_freq_dev: float
    freq_std: float
    settle_time: float          # s after the last disturbance event; nan if never
    cmd_energy: np.ndarray      # (6,) integral of |command| dt, p.u.*s
    constraint_violations: int


def _availability(profiles, config):
    """Deloaded available power (kW) per renewable unit at every sample."""
    p_wt = wind_available_power(profiles.v_w, config.wind, config.deload)
    p_pv = pv_available_power(profiles.g_eff, profiles.t_amb, config.pv, config.deload)
    return p_wt, p_pv


def _true_disturbances(profiles, p_wt, p_pv, sbase):
    """Five-channel disturbance series: load plus renewable deficits relative
    to the t=0 schedule (positive values lower frequency)."""
    n = profiles.t.shape[0]
    d = np.zeros((n, 5))
    d[:, 0] = profiles.load_pu
    d[:, 1] = (p_pv[0, 0] - p_pv[0]) / sbase
    d[:, 2] = (p_pv[1, 0] - p_pv[1]) / sbase
    d[:, 3] = (p_wt[0, 0] - p_wt[0]) / sbase
    d[:, 4] = (p_wt[1, 0] - p_wt[1]) / sbase
    return d


def run_scenario(scenario, config=None):
    """Run one scenario to completion (or controller failure) and return the
    trace. Deterministic for identical inputs."""
    config = config or RunConfig()
    params = config.params
    model = build_plant(params, scenario.Ts)
    require_detectable(model)

    n = scenario.n_steps
    p_wt, p_pv = _availability(scenario.profiles, config)
    disturbances = _true_disturbances(scenario.profiles, p_wt, p_pv, params.s_base)
    # One row per sample; the terminal row repeats the last sample's limits.
    bands = reserve_limits(
        p_wt[0, :n], p_wt[1, :n], p_pv[0, :n], p_pv[1, :n],
        config.dispatch_du_kw, config.dispatch_bess_kw, params, config.deload,
    )
    gains = gain_schedule(model, config.estimator, n)

    n_rows = n + 1
    trace = ScenarioTrace(
        kind=scenario.kind,
        controller=scenario.controller,
        seed=scenario.seed,
        Ts=scenario.Ts,
        t=scenario.profiles.t.copy(),
        freq=np.zeros(n_rows),
        commands=np.zeros((n_rows, N_CONTROLS)),
        outputs=np.zeros((n_rows, N_CONTROLS)),
        disturbances=disturbances.copy(),
        d_hat=np.zeros(n_rows),
        limits_lo=np.concatenate([bands.lo, bands.lo[-1:]]),
        limits_hi=np.concatenate([bands.hi, bands.hi[-1:]]),
        binding=np.zeros((n_rows, N_CONTROLS), dtype=int),
        objective=np.zeros(n_rows),
    )

    est_state = initial_estimator_state(config.estimator)
    pred = build_prediction_matrices(model, config.mpc) if scenario.controller == "mpc" else None
    if scenario.controller == "pi_all":
        pi_config = pi_all_units_config(params, config.pi_kp, config.pi_ki)
    elif scenario.controller == "pi_dubess":
        pi_config = pi_du_bess_config(params, config.pi_kp, config.pi_ki)
    else:
        pi_config = None
    pi_state = initial_pi_state()

    noise_rng = np.random.default_rng([scenario.seed, 9001])
    outputs = list(OUTPUT_STATE_INDICES)
    x = np.zeros(model.A.shape[0])
    u_prev = np.zeros(N_CONTROLS)
    max_kkt = 0.0

    for k in range(n):
        freq = x[IDX_FREQ]
        y = freq
        if config.measurement_noise_std > 0.0:
            y = freq + noise_rng.normal(scale=config.measurement_noise_std)
        est_state = gains.step(est_state, u_prev, y, k)
        limits = bands.at(k)

        if scenario.controller == "mpc":
            drifted = out_of_band_units(limits, u_prev)
            try:
                result = control_step(est_state, y, u_prev, limits, pred)
            except QpInfeasibleError:
                trace.aborted_at = k
                _truncate_trace(trace, k)
                return trace
            u = result.command
            binding = active_units(result.qp_active, pred.m) | drifted
            objective = result.objective
            max_kkt = max(max_kkt, max(result.kkt_residuals))
        else:
            pi_state, u = pi_step(pi_state, y, limits, pi_config, scenario.Ts)
            at_bound = (u <= limits.lo + 1e-15) | (u >= limits.hi - 1e-15)
            binding = at_bound & pi_config.participating
            objective = 0.0

        trace.freq[k] = freq
        trace.commands[k] = u
        trace.outputs[k] = x[outputs]
        trace.d_hat[k] = est_state.d_hat
        trace.binding[k] = binding
        trace.objective[k] = objective

        x = step_plant(model, x, u, disturbances[k])
        u_prev = u

    # Terminal row: state at t = duration with the last command held (its
    # limits are already in place).
    trace.freq[n] = x[IDX_FREQ]
    trace.commands[n] = u_prev
    trace.outputs[n] = x[outputs]
    trace.d_hat[n] = est_state.d_hat
    trace.max_kkt_residual = max_kkt
    return trace


def _truncate_trace(trace, k):
    for name in ("t", "freq", "commands", "outputs", "disturbances",
                 "d_hat", "limits_lo", "limits_hi", "binding", "objective"):
        setattr(trace, name, getattr(trace, name)[:k])


def _last_disturbance_event_index(disturbances):
    changes = np.abs(np.diff(disturbances, axis=0)).max(axis=1) > 1e-12
    idx = np.where(changes)[0]
    return int(idx[-1] + 1) if idx.size else 0


def compute_metrics(trace):
    """Reduce one trace to the comparison metrics."""
    if trace.freq.size == 0:
        raise ValueError("empty trace")
    freq = trace.freq
    last_event = _last_disturbance_event_index(trace.disturbances)
    inside = np.abs(freq) < SETTLE_BAND
    settle = np.nan
    for k in range(last_event, freq.size):
        if inside[k:].all():
            settle = trace.t[k] - trace.t[last_event]
            break
    violations = int(np.sum(
        (trace.commands < trace.limits_lo - VIOLATION_TOL).any(axis=1)
        | (trace.commands > trace.limits_hi + VIOLATION_TOL).any(axis=1)
    ))
    return RunMetrics(
        max_abs_freq_dev=float(np.abs(freq).max()),
        freq_std=float(freq.std()),
        settle_time=float(settle),
        cmd_energy=np.abs(trace.commands).sum(axis=0) * trace.Ts,
        constraint_violations=violations,
    )


def metrics_summary(trace, metrics):
    """Structured per-run summary object (JSON-ready; never-settled is null)."""
    return {
        "controller": trace.controller,
        "scenario": trace.kind,
        "seed": trace.seed,
        "max_abs_freq_dev": metrics.max_abs_freq_dev,
        "freq_std": metrics.freq_std,
        "settle_time": None if np.isnan(metrics.settle_time) else metrics.settle_time,
        "constraint_violations": metrics.constraint_violations,
        "cmd_energy": [float(v) for v in metrics.cmd_energy],
        "aborted_at": trace.aborted_at,
    }


TRACE_COLUMNS = (
    ["t", "freq_dev"]
    + [f"cmd_{u}" for u in ("pv1", "pv2", "wt1", "wt2", "du", "bess")]
    + [f"out_{u}" for u in ("pv1", "pv2", "wt1", "wt2", "du", "bess")]
    + [f"dist_{c}" for c in ("load", "pv1", "pv2", "wt1", "wt2")]
    + ["d_hat"]
    + [f"lo_{u}" for u in ("pv1", "pv2", "wt1", "wt2", "du", "bess")]
    + [f"hi_{u}" for u in ("pv1", "pv2", "wt1", "wt2", "du", "bess")]
    + [f"bind_{u}" for u in ("pv1", "pv2", "wt1", "wt2", "du", "bess")]
    + ["objective"]
)


def write_trace_csv(trace, path):
    """One row per sample; floats at 15 significant digits for bit-stable
    reproduction (column meanings in trace_schema.md)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for k in range(trace.freq.size):
            row = (
                [f"{trace.t[k]:.15e}", f"{trace.freq[k]:.15e}"]
                + [f"{v:.15e}" for v in trace.commands[k]]
                + [f"{v:.15e}" for v in trace.outputs[k]]
                + [f"{v:.15e}" for v in trace.disturbances[k]]
                + [f"{trace.d_hat[k]:.15e}"]
                + [f"{v:.15e}" for v in trace.limits_lo[k]]
                + [f"{v:.15e}" for v in trace.limits_hi[k]]
                + [str(int(v)) for v in trace.binding[k]]
                + [f"{trace.objective[k]:.15e}"]
            )
            writer.writerow(row)
