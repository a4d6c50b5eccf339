"""Closed-loop scenario runner: plant + availability + estimator + one
controller, with trace logging, the comparison metrics and the step-response
check of ``tune-pi``.

The loop is a deterministic fixed-step cycle: update the disturbance
estimator from the last measurement, take the instant's reserve limits, run
the selected controller, then step the true plant with the applied command
and the true disturbances. Identical scenario, config, and seed give
bit-identical traces.

Everything that does not depend on the closed loop is built once per run,
before the first sample: renewable availability and the reserve limits over
the whole time grid (checked as a whole), the estimator's gain schedule, and
the controller's prepared QP matrices. Per sample the loop computes only the
state estimate (kept as the augmented vector z = (x_hat, d_hat); the MPC gets
the increments of z, and no ``EstimatorState`` is built), the command and
the plant step. What follows from the commands alone, the PI binding flags,
is computed over the grid after the loop.
"""

from dataclasses import dataclass, field, replace

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
    N_AUGMENTED,
    default_estimator_config,
    estimator_step,
    gain_schedule,
    require_detectable,
)
from .lfc_model import (
    CONTROL_LABELS,
    DISTURBANCE_LABELS,
    IDX_FREQ,
    MicrogridParams,
    N_CONTROLS,
    N_STATES,
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

    mpc = scenario.controller == "mpc"
    pred = build_prediction_matrices(model, config.mpc) if mpc else None
    if scenario.controller == "pi_all":
        pi_config = pi_all_units_config(params, config.pi_kp, config.pi_ki)
    elif scenario.controller == "pi_dubess":
        pi_config = pi_du_bess_config(params, config.pi_kp, config.pi_ki)
    else:
        pi_config = None
    pi_state = initial_pi_state()

    z = np.zeros(N_AUGMENTED)  # the estimate as (x_hat, d_hat)
    noise_rng = np.random.default_rng([scenario.seed, 9001])

    n_rows = n + 1
    states = np.zeros((n_rows, N_STATES))
    commands = np.zeros((n_rows, N_CONTROLS))
    d_hat = np.zeros(n_rows)
    binding = np.zeros((n_rows, N_CONTROLS), dtype=int)
    objective = np.zeros(n_rows)
    x = np.zeros(N_STATES)
    u_prev = np.zeros(N_CONTROLS)
    max_kkt = 0.0
    aborted_at = None

    for k in range(n):
        states[k] = x
        y = x[IDX_FREQ]
        if config.measurement_noise_std > 0.0:
            y = y + noise_rng.normal(scale=config.measurement_noise_std)
        z_prev = z
        z, _ = gains.update(z, u_prev, y, k)
        limits = bands.at(k)

        if mpc:
            drifted = out_of_band_units(limits, u_prev)
            dx = z[:N_STATES] - z_prev[:N_STATES]
            dd = float(z[N_STATES]) - float(z_prev[N_STATES])
            try:
                result = control_step(dx, dd, y, u_prev, limits, pred)
            except QpInfeasibleError:
                aborted_at = k
                break
            u = result.command
            binding[k] = active_units(result.qp_active, pred.m) | drifted
            objective[k] = result.objective
            max_kkt = max(max_kkt, max(result.kkt_residuals))
        else:
            pi_state, u = pi_step(pi_state, y, limits, pi_config, scenario.Ts)

        commands[k] = u
        d_hat[k] = z[N_STATES]
        x = step_plant(model, x, u, disturbances[k])
        u_prev = u
    else:
        # Terminal row: state at t = duration with the last command held (its
        # limits are the last sample's).
        states[n] = x
        commands[n] = u_prev
        d_hat[n] = z[N_STATES]

    if pi_config is not None:
        # A PI command binds within 1e-15 of either limit (participants
        # only); elementwise, so one pass over the grid after the loop.
        at_bound = (commands[:n] <= bands.lo + 1e-15) | (commands[:n] >= bands.hi - 1e-15)
        binding[:n] = at_bound & pi_config.participating
    # An aborted run keeps the rows before the failed sample, and the largest
    # KKT residual of the samples it solved.
    rows = n_rows if aborted_at is None else aborted_at
    return ScenarioTrace(
        kind=scenario.kind,
        controller=scenario.controller,
        seed=scenario.seed,
        Ts=scenario.Ts,
        t=scenario.profiles.t[:rows].copy(),
        freq=states[:rows, IDX_FREQ].copy(),
        commands=commands[:rows],
        outputs=states[:rows, OUTPUT_STATE_INDICES],
        disturbances=disturbances[:rows],
        d_hat=d_hat[:rows],
        limits_lo=np.concatenate([bands.lo, bands.lo[-1:]])[:rows],
        limits_hi=np.concatenate([bands.hi, bands.hi[-1:]])[:rows],
        binding=binding[:rows],
        objective=objective[:rows],
        max_kkt_residual=max_kkt,
        aborted_at=aborted_at,
    )


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
    # Settled from the sample after the last one outside the band (from the
    # event itself when none is), unless that last one is the final sample.
    outside = np.flatnonzero(~(np.abs(freq[last_event:]) < SETTLE_BAND))
    k = last_event + (int(outside[-1]) + 1 if outside.size else 0)
    settle = trace.t[k] - trace.t[last_event] if k < freq.size else np.nan
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


def step_response_metrics(controller, config, load_step=0.05):
    """Step-response check of one controller: a constant load step of
    ``load_step`` p.u. from t = 0, under the step kind's weather and the
    config's ratings, deload and dispatch, run by ``run_scenario``.

    Returns the peak |df| and the time to enter (and stay in) the settle band
    (NaN if the response never does), both from ``compute_metrics``, plus the
    ITAE and a zero-crossing count (an oscillation indicator) over the
    samples before the terminal row.
    """
    step = generate_profiles("step", 0, DEFAULT_DURATIONS["step"])
    profiles = replace(step, load_pu=np.full_like(step.load_pu, load_step))
    trace = run_scenario(make_scenario("step", controller, 0, profiles=profiles), config)
    metrics = compute_metrics(trace)
    freqs = trace.freq[:-1]
    itae = 0.0
    for k, y in enumerate(freqs.tolist()):
        itae += (k * trace.Ts) * abs(y) * trace.Ts
    crossings = int(np.sum(np.diff(np.sign(freqs[np.abs(freqs) > 1e-12])) != 0))
    return {
        "peak": metrics.max_abs_freq_dev,
        "settle_time": metrics.settle_time,
        "itae": itae,
        "zero_crossings": crossings,
    }


TRACE_COLUMNS = (
    ["t", "freq_dev"]
    + [f"{prefix}_{u}" for prefix in ("cmd", "out") for u in CONTROL_LABELS]
    + [f"dist_{c}" for c in DISTURBANCE_LABELS]
    + ["d_hat"]
    + [f"{prefix}_{u}" for prefix in ("lo", "hi", "bind") for u in CONTROL_LABELS]
    + ["objective"]
)


# One trace row: 32 float columns, the six binding flags, the objective, in
# csv's default dialect (no cell needs quoting; rows end in CRLF).
_TRACE_ROW = ",".join(["%.15e"] * 32 + ["%d"] * 6 + ["%.15e"]) + "\r\n"
# Rows gathered, formatted and written at a time, so that memory stays
# bounded by the chunk, not the trace.
_WRITE_CHUNK = 64


def write_trace_csv(trace, path):
    """One row per sample; floats as %.15e, so reruns write the same bytes
    (column meanings and row format in trace_schema.md)."""
    columns = (trace.t, trace.freq, trace.commands, trace.outputs, trace.disturbances,
               trace.d_hat, trace.limits_lo, trace.limits_hi, trace.binding, trace.objective)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for start in range(0, trace.freq.size, _WRITE_CHUNK):
            rows = slice(start, start + _WRITE_CHUNK)
            block = np.column_stack([c[rows] for c in columns]).tolist()
            fh.write("".join([_TRACE_ROW % tuple(row) for row in block]))
