"""Closed-loop scenario runner: plant + availability + estimator + one
controller, with trace logging, the comparison metrics and the step-response
check of ``tune-pi``.

The loop is a deterministic fixed-step cycle: update the disturbance
estimator from the last measurement, take the instant's reserve limits, run
the selected controller, then step the true plant with the applied command
and the true disturbances. Identical scenario, config, and seed give
bit-identical traces.

Everything that does not depend on the closed loop is built before the
first sample. A ``RunConfig`` checks itself and derives its renewable models
and PI configs when it is built. What else depends on the config alone (plant,
detectability check, gain schedule, MPC prediction matrices and their QP law
cache) is a ``PreparedRun``, built by the config's first run at a sample time
and kept by the config for every later run (``prepare_run``); only a longer
run than a schedule without a cycle covers builds it anew. Sweeps, compares
and library callers that run many scenarios on one config all share it this
way. Availability, the true disturbances, their plant term D @ d and the
reserve limits over the whole time grid (checked as a whole) are built once
per profile set: the ``PreparedRun`` keeps them for the next run on profiles
with the same samples, so a sweep or compare cell's three controllers share
them. Per sample the loop computes only the state estimate (kept as the
augmented vector z = (x_hat, d_hat); the MPC gets the increments of z, and no
``EstimatorState`` is built), the command and the plant step, which shares
the product B_aug @ u with the next estimate; an MPC sample also records its
(dx, y, dd), cumulative moves and bound multipliers. What nothing in the
loop reads is computed over the grid after it: the PI binding flags and the
MPC's drift flags from the commands, and the MPC's cost, active bounds and
KKT residuals from the recorded samples (``step_diagnostics``).
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baselines import initial_pi_state, pi_all_units_config, pi_du_bess_config, pi_step
from .csv_format import DIGIT, FLOAT, CsvRows, write_csv
from .der_models import (
    DELOAD_FRACTION,
    default_pv_params,
    default_wind_params,
    pv_available_power,
    require_deload,
    require_dispatch,
    reserve_limits,
    wind_available_power,
)
# estimator_step and step_plant are no longer called here, but
# perfbench/tracer.py wraps them in this namespace, so they stay importable
# from it.
from .estimator import (  # noqa: F401
    N_AUGMENTED,
    default_estimator_config,
    estimator_step,
    gain_schedule,
    require_detectable,
)
from .lfc_model import (  # noqa: F401
    CONTROL_LABELS,
    DISTURBANCE_LABELS,
    IDX_FREQ,
    MicrogridParams,
    N_CONTROLS,
    N_DISTURBANCES,
    N_STATES,
    OUTPUT_STATE_INDICES,
    build_plant,
    step_plant,
)
from .mpc import (
    MpcConfig,
    active_units,
    build_constraints,
    build_prediction_matrices,
    control_step,
    out_of_band_units,
    step_diagnostics,
)
from .numerics import QpInfeasibleError, rows_times
from .profiles import PROFILE_KINDS, ProfileSet, generate_profiles

CONTROLLER_KINDS = ("mpc", "pi_all", "pi_dubess")

SCENARIO_TS = 0.2  # s, the sample time of built-in and replayed scenarios

# Samples per block of the MPC's pass after the loop (about 0.3 MB of
# temporaries).
_DIAGNOSTIC_ROWS = 128

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
    Ts: float = SCENARIO_TS

    def __post_init__(self):
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if abs(self.profiles.ts - self.Ts) > 1e-12:
            raise ValueError(
                f"profile sample time {self.profiles.ts} does not match scenario Ts {self.Ts}"
            )

    @property
    def n_steps(self):
        return self.profiles.t.shape[0] - 1


def make_scenario(kind, controller, seed, duration=None, profiles=None, ts=SCENARIO_TS):
    """Scenario factory; generates builtin profiles unless some are supplied."""
    if profiles is None:
        if kind not in PROFILE_KINDS:
            raise ValueError(f"unknown scenario kind {kind!r}")
        duration = DEFAULT_DURATIONS[kind] if duration is None else duration
        profiles = generate_profiles(kind, seed, duration, ts)
    return Scenario(kind=kind, controller=controller, seed=int(seed), profiles=profiles, Ts=ts)


@dataclass(frozen=True)
class RunConfig:
    """Everything tunable about a run, with the published defaults baked in,
    checked when built. Derived: ``wind`` and ``pv``, sized from ``p_wt1``
    and ``p_pv1`` (so twin ratings must be equal), gains left None (the
    design on ``params``) and ``pi_configs``, keyed by controller name.
    ``replace`` derives them anew but keeps the gains: pass None to redesign.
    ``prepared_runs`` holds the config's ``PreparedRun`` per sample time,
    built by the first run that needs it (``prepare_run``); a ``replace``d
    config starts without any. The runs of one config share them, so they
    must not run concurrently.
    """

    params: MicrogridParams = field(default_factory=MicrogridParams)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    estimator: object = field(default_factory=default_estimator_config)
    pi_kp: float = None
    pi_ki: float = None
    deload: float = DELOAD_FRACTION
    dispatch_du_kw: float = 60.0
    dispatch_bess_kw: float = 0.0
    measurement_noise_std: float = 0.0
    wind: object = field(init=False, repr=False, compare=False)
    pv: object = field(init=False, repr=False, compare=False)
    pi_configs: dict = field(init=False, repr=False, compare=False)
    # {Ts: PreparedRun}, filled by prepare_run.
    prepared_runs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        params = self.params
        for unit1, unit2 in (("p_wt1", "p_wt2"), ("p_pv1", "p_pv2")):
            if getattr(params, unit2) != getattr(params, unit1):
                raise ValueError(
                    f"microgrid {unit2}={getattr(params, unit2)} differs from "
                    f"{unit1}={getattr(params, unit1)}; twin units must have equal ratings"
                )
        if not 0.0 <= self.measurement_noise_std < math.inf:
            raise ValueError(
                f"measurement_noise_std must be >= 0, got {self.measurement_noise_std}")
        require_deload(self.deload)
        require_dispatch(self.dispatch_du_kw, self.dispatch_bess_kw, params)
        pi_configs = {
            "pi_all": pi_all_units_config(params, self.pi_kp, self.pi_ki),
            "pi_dubess": pi_du_bess_config(params, self.pi_kp, self.pi_ki),
        }
        object.__setattr__(self, "pi_kp", pi_configs["pi_all"].kp)
        object.__setattr__(self, "pi_ki", pi_configs["pi_all"].ki)
        object.__setattr__(self, "pi_configs", pi_configs)
        object.__setattr__(self, "wind", default_wind_params(rated_kw=params.p_wt1))
        object.__setattr__(self, "pv", default_pv_params(rated_kw=params.p_pv1))
        object.__setattr__(self, "prepared_runs", {})


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


@dataclass(frozen=True, eq=False)
class PreparedRun:
    """What every run of one config at one sample time shares: the plant
    (checked detectable, discretized at ``model.Ts``), the estimator's gain
    schedule and, built on first use from the config's ``mpc``, the MPC's
    prediction matrices. The config keeps it in ``prepared_runs``. Runs
    sharing it fill one QP law cache; a law depends on its active set alone,
    so no run's bytes depend on the others. ``inputs`` keeps the last
    profile set's disturbances and bands for the next run on the same
    samples. Like the config's, its runs must not run concurrently."""

    mpc: MpcConfig = field(repr=False)
    model: object
    gains: object
    # (digest, inputs) of the last profile set, replaced as one tuple.
    _last_inputs: tuple = field(default=(None, None), init=False, repr=False)

    @cached_property
    def pred(self):
        return build_prediction_matrices(self.model, self.mpc)

    def inputs(self, profiles, config):
        """(disturbances, plant_disturbances, bands) of ``profiles`` under
        ``config``, the config this run was prepared for: the true
        disturbances at every sample, D @ d of every row of them (each as
        its own product, so with the bits of ``step_plant``'s), and the
        reserve bands, one row per sample but the terminal one (checked as a
        whole). The build is kept for the next run on profiles with the same
        ``digest``, as a sweep or compare cell's three controllers are; the
        digest is taken on every call, so a profile set edited in place gets
        a build of its own."""
        key = profiles.digest()
        last_key, last_inputs = self._last_inputs
        if last_key == key:
            return last_inputs
        params = config.params
        n = profiles.t.shape[0] - 1
        p_wt, p_pv = _availability(profiles, config)
        disturbances = _true_disturbances(profiles, p_wt, p_pv, params.s_base)
        plant_disturbances = rows_times(self.model.D, disturbances)
        bands = reserve_limits(
            p_wt[0, :n], p_wt[1, :n], p_pv[0, :n], p_pv[1, :n],
            config.dispatch_du_kw, config.dispatch_bess_kw, params, config.deload,
        )
        # Every run on these profiles shares the arrays, so none may write to them.
        for shared in (disturbances, plant_disturbances, bands.lo, bands.hi):
            shared.flags.writeable = False
        inputs = (disturbances, plant_disturbances, bands)
        object.__setattr__(self, "_last_inputs", (key, inputs))
        return inputs


def prepare_run(config, Ts, n_steps):
    """The ``PreparedRun`` of ``config`` for runs of ``n_steps`` samples of
    ``Ts``: the one the config keeps for ``Ts``, unless its gain schedule
    does not cover that many steps (it found no cycle in a shorter run);
    then a new one, which the config keeps from then on."""
    prepared = config.prepared_runs.get(Ts)
    if prepared is None or not prepared.gains.covers(n_steps):
        model = build_plant(config.params, Ts)
        require_detectable(model)
        prepared = PreparedRun(config.mpc, model, gain_schedule(model, config.estimator, n_steps))
        config.prepared_runs[Ts] = prepared
    return prepared


def run_scenario(scenario, config=None):
    """Run one scenario to completion (or controller failure) and return the
    trace. Deterministic for identical inputs; the config's ``PreparedRun``
    for the scenario's sample time is built by the first run that needs it
    and shared by the later ones."""
    config = config or RunConfig()
    n = scenario.n_steps
    prepared = prepare_run(config, scenario.Ts, n)
    model, gains = prepared.model, prepared.gains
    disturbances, plant_disturbances, bands = prepared.inputs(scenario.profiles, config)
    if disturbances.shape != (n + 1, N_DISTURBANCES):
        raise ValueError(f"disturbance grid has shape {disturbances.shape}, "
                         f"expected ({n + 1}, {N_DISTURBANCES})")

    mpc = scenario.controller == "mpc"
    if mpc:
        pred = prepared.pred
        # What each MPC sample leaves for the pass after the loop: s, V, lam.
        samples = np.empty((n, pred.sample_map.shape[1]))
        moves = np.empty((n, pred.box.n))
        multipliers = np.empty((n, pred.box.n))
    pi_config = config.pi_configs.get(scenario.controller)
    pi_state = initial_pi_state()

    z = np.zeros(N_AUGMENTED)  # the estimate as (x_hat, d_hat)
    noise_std = config.measurement_noise_std
    noise_rng = np.random.default_rng([scenario.seed, 9001])

    n_rows = n + 1
    states = np.zeros((n_rows, N_STATES))
    commands = np.zeros((n_rows, N_CONTROLS))
    d_hat = np.zeros(n_rows)
    binding = np.zeros((n_rows, N_CONTROLS), dtype=int)
    objective = np.zeros(n_rows)
    x = np.zeros(N_STATES)
    u_prev = np.zeros(N_CONTROLS)
    A, B_aug = model.A, gains.B_aug
    # B_aug @ u_prev: its first rows are B @ u_prev, the plant's input term,
    # and the whole is the filter's at the next sample.
    bu = B_aug @ u_prev
    max_kkt = 0.0
    aborted_at = None

    for k in range(n):
        states[k] = x
        y = x[IDX_FREQ]
        if noise_std > 0.0:
            y = y + noise_rng.normal(scale=noise_std)
        z_prev = z
        z, _ = gains.update(z, bu, y, k)
        limits = bands.at(k)

        if mpc:
            dz = z - z_prev
            try:
                step = control_step(dz[:N_STATES], dz[N_STATES], y, u_prev, limits, pred)
            except QpInfeasibleError:
                aborted_at = k
                break
            u = step.command
            samples[k] = step.sample
            moves[k] = step.v
            multipliers[k] = step.lam
        else:
            pi_state, u = pi_step(pi_state, y, limits, pi_config, scenario.Ts)

        if np.shape(u) != (N_CONTROLS,):
            raise ValueError(f"command must have shape ({N_CONTROLS},), got {np.shape(u)}")
        commands[k] = u
        d_hat[k] = z[N_STATES]
        bu = B_aug @ u
        x = A @ x + bu[:N_STATES] + plant_disturbances[k]
        u_prev = u
    else:
        # Terminal row: state at t = duration with the last command held (its
        # limits are the last sample's).
        states[n] = x
        commands[n] = u_prev
        d_hat[n] = z[N_STATES]

    if mpc:
        # The samples solved (all but an aborted run's failed one and those
        # after it) get their cost, active bounds and KKT residuals after
        # the loop, on the bounds rebuilt from the bands and the previous
        # commands (zero before the first sample), a block of rows at a time
        # so that the temporaries stay small. A unit whose previous command
        # is already outside the sample's band drifted there and is flagged
        # as binding too.
        previous = np.concatenate([np.zeros((1, N_CONTROLS)), commands[:n - 1]])
        solved = n if aborted_at is None else aborted_at
        for start in range(0, solved, _DIAGNOSTIC_ROWS):
            rows = slice(start, min(start + _DIAGNOSTIC_ROWS, solved))
            lo, hi = build_constraints(bands.at(rows), previous[rows], pred)
            steps = step_diagnostics(pred, samples[rows], moves[rows], multipliers[rows], lo, hi)
            objective[rows] = steps.objective
            binding[rows] = active_units(steps.qp_active, pred.m)
            max_kkt = max(max_kkt, float(steps.kkt_residuals.max()))
        binding[:n] |= out_of_band_units(bands, previous)
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


# One trace row: 32 float columns, the six binding flags, the objective.
_TRACE_ROW = CsvRows([FLOAT] * 32 + [DIGIT] * 6 + [FLOAT])


def write_trace_csv(trace, path):
    """One row per sample; floats as %.15e, so reruns write the same bytes
    (column meanings and row format in trace_schema.md)."""
    columns = (trace.t, trace.freq, trace.commands, trace.outputs, trace.disturbances,
               trace.d_hat, trace.limits_lo, trace.limits_hi, trace.binding, trace.objective)
    write_csv(path, TRACE_COLUMNS, _TRACE_ROW, columns)
