"""Closed-loop scenario runner: plant + availability + estimator + one
controller, with trace logging, the comparison metrics and the step-response
check of ``tune-pi``.

The loop is a deterministic fixed-step cycle: update the disturbance
estimator from the last measurement, take the instant's reserve limits, run
the selected controller, then step the true plant with the applied command
and the true disturbances. Identical scenario, config, and seed give
bit-identical traces.

A single run (``run_scenario``, as ``microfreq run`` uses it) and a batch
(``run_cells``, which steps the three controllers on each of its scenarios
in lockstep, as ``compare`` and ``sweep`` do) differ only in their sample
loop. Both set up and finish through ``_Runs``: the config's shared
builds, the inputs, the records, the measurement noise (drawn up front)
and the traces; a run gets the same bytes from either. The loops stay
forked because only batch size pays for the batch. In CPU time on one
host (medians of 15, alternating with the lone runs, on one config), a
one-row batch costs a lone run 1.67-2.02x (MPC) and 1.83-2.08x (PI), and
a one-row ``control_rows`` costs 1.43-1.60x ``control_step``; a cell of
three runs costs 1.18-1.30x its three lone runs. So the 1-D loop steps one
plant on 1-D arrays and Python floats, with ``ndarray.dot`` products (the
BLAS calls of ``@``, at less dispatch); the batch stacks the plant, filter
and control-term products over its rows, and solves the MPC rows of a
sample with one ``control_rows`` call, which iterates only the rows that
bind.

A batch records what a single run does: each run's states, commands and
d_hat, and an MPC run's s, V and multipliers. The traces are finished a
scenario at a time, as the caller reads them, each with its own copy of
its rows; a batch of 180 s scenarios holds about 0.85 MB per scenario
until its last one is read.

Everything that does not depend on the closed loop is built before the
first sample: the config's plant, gain schedule, MPC prediction matrices
and QP law cache, kept for the config's later runs of any length
(``RunConfig.plant``, ``gain_schedule`` and ``pred``), each cell's true
disturbances and reserve limits over the whole grid
(``RunConfig.inputs``), the filter gain of every sample
(``GainSchedule.sequence``, which grows the schedule when a run needs
steps it has not computed yet), and a lone run's MPC box bands
(``box_bands``) or PI limits as floats. Per sample a loop computes only
the state estimate z = (x_hat, d_hat), whose increments the MPC takes, the
command from the sample's row of the limits, and the plant step, which
shares B_aug @ u with the next estimate. An MPC run records each sample's
s = (dx, y, dd), V and bound multipliers; its trace's cost, binding flags
and largest KKT residual come from ``step_diagnostics`` on that record the
first time one of them is read, or the trace is pickled or copied
(``_MpcRecord``), so a run whose caller reads only frequency, commands and
limits never computes them. A PI run's binding flags are computed over the
grid when its trace is finished.
"""

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baselines import PI_BIND_TOL, pi_all_units_config, pi_du_bess_config, pi_step
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
    EstimatorConfig,
    GainSchedule,
    estimator_step,
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
    SAMPLE_TIME,
    build_plant,
    require_fields,
    step_plant,
)
from .mpc import (
    MpcConfig,
    active_units,
    box_bands,
    build_constraints,
    build_prediction_matrices,
    control_rows,
    control_step,
    out_of_band_units,
    step_diagnostics,
)
from .numerics import QpInfeasibleError, rows_times
from .profiles import PROFILE_KINDS, ProfileSet, generate_profiles

CONTROLLER_KINDS = ("mpc", "pi_all", "pi_dubess")

# Samples per chunk of an MPC trace's diagnostics (about 0.3 MB of
# temporaries), and per block of a batch's plant disturbance terms.
_DIAGNOSTIC_ROWS = 128

# The fields of an MPC run's trace that wait for ``_MpcRecord.diagnose``.
_DIAGNOSED = ("binding", "objective", "max_kkt_residual")

SETTLE_BAND = 1e-4  # p.u.
VIOLATION_TOL = 1e-9  # p.u.

DEFAULT_DURATIONS = {"step": 120.0, "moderate": 180.0, "rapid": 180.0}


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment: profiles plus controller selection. The
    profiles must be sampled every ``SAMPLE_TIME``."""

    kind: str
    controller: str
    seed: int
    profiles: ProfileSet

    def __post_init__(self):
        if self.controller not in CONTROLLER_KINDS:
            raise ValueError(f"unknown controller {self.controller!r}")
        if abs(self.profiles.ts - SAMPLE_TIME) > 1e-12:
            raise ValueError(f"profile sample time {self.profiles.ts} does not match "
                             f"the model sample time {SAMPLE_TIME}")

    @property
    def n_steps(self):
        return self.profiles.t.shape[0] - 1


def make_scenario(kind, controller, seed, duration=None, profiles=None):
    """Scenario factory; generates builtin profiles unless some are supplied.
    The seed must be an integer >= 0 (of any integer type but bool), which
    numpy's generators take."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"scenario seed must be an integer >= 0, got {seed!r}")
    if profiles is None:
        if kind not in PROFILE_KINDS:
            raise ValueError(f"unknown scenario kind {kind!r}")
        duration = DEFAULT_DURATIONS[kind] if duration is None else duration
        profiles = generate_profiles(kind, seed, duration)
    return Scenario(kind=kind, controller=controller, seed=int(seed), profiles=profiles)


@dataclass(frozen=True)
class RunConfig:
    """Everything tunable about a run, with the published defaults baked in,
    checked when built. Derived: ``wind`` and ``pv``, sized from ``p_wt1``
    and ``p_pv1`` (so twin ratings must be equal), gains left None (the
    design on ``params``) and ``pi_configs``, keyed by controller name.
    ``replace`` derives them anew but keeps the gains: pass None to redesign.

    What every run of the config shares, whatever its length, is built when
    first read and kept: ``plant`` (checked detectable), ``gain_schedule``,
    the filter's gains, grown as far as the longest run so far needs, and
    ``pred``, the MPC's prediction matrices with their QP law cache. A law
    depends on its active set alone, so no run's bytes depend on the runs
    before it; still, the runs of one config must not run concurrently. A
    ``replace``d config starts with none of them.
    """

    params: MicrogridParams = field(default_factory=MicrogridParams)
    mpc: MpcConfig = field(default_factory=MpcConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    pi_kp: float = None
    pi_ki: float = None
    deload: float = DELOAD_FRACTION
    dispatch_du_kw: float = 60.0
    dispatch_bess_kw: float = 0.0
    measurement_noise_std: float = 0.0
    wind: object = field(init=False, repr=False, compare=False)
    pv: object = field(init=False, repr=False, compare=False)
    pi_configs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_fields(self)
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

    # cached_property writes the instance dict, which a frozen dataclass allows.
    @cached_property
    def plant(self):
        plant = build_plant(self.params)
        require_detectable(plant)
        return plant

    @cached_property
    def gain_schedule(self):
        return GainSchedule(self.plant, self.estimator)

    @cached_property
    def pred(self):
        return build_prediction_matrices(self.plant, self.mpc)

    def inputs(self, profiles):
        """(disturbances, limits) of ``profiles``: the true disturbances at
        every sample, load plus the renewables' deficits against their t = 0
        deloaded availability (positive values lower frequency), and the
        reserve limits of the trace, one row per sample (checked as a whole)
        and a terminal row that repeats the last sample's. The runs of a
        cell share them, so they are read-only."""
        n, s_base = profiles.t.shape[0] - 1, self.params.s_base
        p_wt = wind_available_power(profiles.v_w, self.wind, self.deload)
        p_pv = pv_available_power(profiles.g_eff, profiles.t_amb, self.pv, self.deload)
        disturbances = np.column_stack([profiles.load_pu, *((p_pv[:, :1] - p_pv) / s_base),
                                        *((p_wt[:, :1] - p_wt) / s_base)])
        bands = reserve_limits(*p_wt[:, :n], *p_pv[:, :n], self.dispatch_du_kw,
                               self.dispatch_bess_kw, self.params, self.deload)
        limits = bands.at(np.minimum(np.arange(n + 1), n - 1))
        for shared in (disturbances, limits.lo, limits.hi):
            shared.flags.writeable = False
        return disturbances, limits


@dataclass
class ScenarioTrace:
    """Time-indexed record of one run (figure-equivalent data).

    One row per sample including the terminal state; ``aborted_at`` is the
    step index of a controller failure when the run ended early, else None.

    The trace of an MPC run (``run_scenario``, ``run_cells``) holds its
    ``_MpcRecord`` instead of ``binding``, ``objective`` and
    ``max_kkt_residual``, and fills the three from it the first time any of
    them is read, or the trace is pickled or copied; then it drops the
    record. The record reads the trace's own commands and limits. A trace
    built directly, and a PI run's, holds the three fields from the start.
    """

    kind: str
    controller: str
    seed: int
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
    # A default factory leaves no class attribute, which would hide a
    # deferred trace's missing field from ``__getattr__``.
    max_kkt_residual: float = field(default_factory=float)
    aborted_at: int = None

    def __getattr__(self, name):
        # Reached only for a name neither the trace nor its class holds: a
        # deferred field of an MPC trace whose record is still waiting.
        if name not in _DIAGNOSED or "_record" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._diagnose()
        return self.__dict__[name]

    def __getstate__(self):
        # What pickle and copy take: the fields, diagnosed first.
        if "_record" in self.__dict__:
            self._diagnose()
        return self.__dict__

    @classmethod
    def _deferred(cls, record, **fields):
        """A trace of ``fields`` whose ``_DIAGNOSED`` fields come from
        ``record.diagnose()`` when first needed."""
        trace = cls.__new__(cls)
        trace.__dict__.update(fields, _record=record)
        return trace

    def _diagnose(self):
        # A field assigned while the record waited keeps its value.
        for name, value in zip(_DIAGNOSED, self.__dict__.pop("_record").diagnose()):
            self.__dict__.setdefault(name, value)


@dataclass(frozen=True)
class RunMetrics:
    """Comparison metrics of one trace."""

    max_abs_freq_dev: float
    freq_std: float
    settle_time: float          # s after the last disturbance event; nan if never
    cmd_energy: np.ndarray      # (6,) integral of |command| dt, p.u.*s
    constraint_violations: int


class _MpcRecord:
    """What an MPC run's trace keeps for its diagnostics until they are
    read: each solved sample's s = (dx, y, dd), V and bound multipliers, a
    row per sample (``samples``, ``moves``, ``multipliers``), with the
    config's prediction matrices and the trace's limits and commands."""

    def __init__(self, pred, limits, commands, samples, moves, multipliers):
        self.pred, self.limits, self.commands = pred, limits, commands
        self.samples, self.moves, self.multipliers = samples, moves, multipliers

    def diagnose(self):
        """The trace's (binding, objective, max_kkt_residual): the solved
        samples' active units (as ints), cost and largest KKT residual, zero
        on the rows after them, from ``step_diagnostics`` on
        ``_DIAGNOSTIC_ROWS`` samples at a time. Their bounds are rebuilt
        from the limits and the previous commands (zero before the first
        sample). A unit whose previous command is already outside the
        sample's band drifted there and is flagged as binding too. Every
        row is its own product, so the values do not depend on the chunks."""
        pred, commands = self.pred, self.commands
        objective = np.zeros(commands.shape[0])
        binding = np.zeros((commands.shape[0], N_CONTROLS), dtype=int)
        max_kkt = 0.0
        for start in range(0, len(self.samples), _DIAGNOSTIC_ROWS):
            end = min(start + _DIAGNOSTIC_ROWS, len(self.samples))
            if start:
                previous = commands[start - 1:end - 1]
            else:
                previous = np.concatenate([np.zeros((1, N_CONTROLS)), commands[:end - 1]])
            limits = self.limits.at(slice(start, end))
            lo, hi = build_constraints(limits, previous, pred)
            steps = step_diagnostics(pred, self.samples[start:end], self.moves[start:end],
                                     self.multipliers[start:end], lo, hi)
            objective[start:end] = steps.objective
            binding[start:end] = (active_units(steps.qp_active, pred.m)
                                  | out_of_band_units(limits, previous))
            max_kkt = max(max_kkt, float(steps.kkt_residuals.max()))
        return binding, objective, max_kkt


class _Runs:
    """What both loops do before their first sample and after their last,
    for a batch that runs each of ``controllers`` on each of ``scenarios``,
    which share their number of samples (a single run is its scenario's
    controller alone).

    Row r runs ``controllers[r // C]`` on ``scenarios[r % C]``, for C
    scenarios, so the MPC rows, ``n_mpc`` of them, lead as MPC leads
    ``CONTROLLER_KINDS``. Each run keeps the states, commands and d_hat of
    its n + 1 rows, an MPC run its s, V and multipliers of its n samples in
    ``mpc_records``, (MPC runs, n, ·) arrays, and a PI run its config.
    ``noise`` is each run's measurement noise, (n, runs), or None: a seed's
    values are drawn once, one per sample, and every run of its scenario
    adds the same ones. The loop sets ``aborted_at[run]`` to the sample at
    which a run's QP was first infeasible; ``traces`` then finishes each
    aborted run at that sample, whatever its records hold after it."""

    def __init__(self, scenarios, controllers, config):
        if not scenarios:
            raise ValueError("a batch needs at least one scenario")
        self.n = n = scenarios[0].n_steps
        if any(scenario.n_steps != n for scenario in scenarios):
            raise ValueError("the scenarios of a batch must share their number of samples")
        self.scenarios, self.controllers, self.config = scenarios, controllers, config
        config.gain_schedule  # and the plant, so an undetectable one fails before the inputs
        self.inputs = [config.inputs(scenario.profiles) for scenario in scenarios]
        cells = len(scenarios)
        runs = cells * len(controllers)
        self.states = np.zeros((runs, n + 1, N_STATES))
        self.commands = np.zeros((runs, n + 1, N_CONTROLS))
        self.d_hat = np.zeros((runs, n + 1))
        self.n_mpc = cells * controllers.count("mpc")
        if self.n_mpc:
            pred = config.pred
            widths = (pred.sample_map.shape[1], pred.box.n, pred.box.n)
            self.mpc_records = tuple(np.empty((self.n_mpc, n, width)) for width in widths)
        self.pi_configs = [config.pi_configs.get(controllers[run // cells])
                           for run in range(runs)]
        self.aborted_at = [None] * runs
        self.noise = None
        if config.measurement_noise_std > 0.0:
            draws = [np.random.default_rng([scenario.seed, 9001]).normal(
                scale=config.measurement_noise_std, size=n) for scenario in scenarios]
            self.noise = np.tile(np.stack(draws, axis=1), len(controllers))

    def traces(self, x, u, z):
        """The traces of each scenario, a list per scenario in the order of
        ``controllers``, from a generator that finishes a scenario at a
        time. The runs that did not abort first get their terminal row, the
        state at t = duration with the last command held (its limits are the
        last sample's): ``x``, ``u`` and ``z`` are the loop's last states,
        commands and estimates, a row per run (1-D for a single run)."""
        finished = [run for run, at in enumerate(self.aborted_at) if at is None]
        self.states[finished, self.n] = np.atleast_2d(x)[finished]
        self.commands[finished, self.n] = np.atleast_2d(u)[finished]
        self.d_hat[finished, self.n] = np.atleast_2d(z)[finished, N_STATES]
        cells = len(self.scenarios)
        return ([self._trace(at * cells + cell) for at in range(len(self.controllers))]
                for cell in range(cells))

    def _trace(self, run):
        """The ``ScenarioTrace`` of one run from its records. An MPC run's
        trace takes its ``_MpcRecord``, and a PI run's its binding flags,
        computed here over the grid, since nothing in the loop reads them.
        The trace shares the disturbances and limits with the other runs of
        its scenario (the arrays themselves unless it aborted), and holds its
        own copy of the rest, its record's included, so the records need
        not outlive the batch."""
        n, cells = self.n, len(self.scenarios)
        scenario = self.scenarios[run % cells]
        aborted_at = self.aborted_at[run]
        disturbances, limits = self.inputs[run % cells]
        lo, hi = limits.lo, limits.hi
        states, commands = self.states[run], self.commands[run]
        # An aborted run keeps the rows before the failed sample, and the
        # diagnostics of the samples it solved.
        rows = n + 1 if aborted_at is None else aborted_at
        if aborted_at is not None:
            disturbances, lo, hi = disturbances[:rows], lo[:rows], hi[:rows]
        fields = dict(
            kind=scenario.kind,
            controller=self.controllers[run // cells],
            seed=scenario.seed,
            t=scenario.profiles.t[:rows].copy(),
            freq=states[:rows, IDX_FREQ].copy(),
            commands=commands[:rows].copy(),
            outputs=states[:rows, list(OUTPUT_STATE_INDICES)],
            disturbances=disturbances,
            d_hat=self.d_hat[run, :rows].copy(),
            limits_lo=lo,
            limits_hi=hi,
            aborted_at=aborted_at,
        )
        if run < self.n_mpc:
            solved = min(rows, n)
            # The run's own rows: a copy, unless no other run shares the records.
            rows_of = [each[run, :solved] for each in self.mpc_records]
            if self.n_mpc > 1:
                rows_of = [each.copy() for each in rows_of]
            record = _MpcRecord(self.config.pred, limits, fields["commands"], *rows_of)
            return ScenarioTrace._deferred(record, **fields)
        binding = np.zeros((rows, N_CONTROLS), int)
        # A PI command binds within PI_BIND_TOL of a limit (participants only).
        at_bound = ((commands[:n] <= lo[:n] + PI_BIND_TOL)
                    | (commands[:n] >= hi[:n] - PI_BIND_TOL))
        binding[:n] = at_bound & self.pi_configs[run].participating
        return ScenarioTrace(**fields, binding=binding, objective=np.zeros(rows))


def run_scenario(scenario, config=None):
    """Run one scenario to completion (or controller failure) and return the
    trace. Deterministic for identical inputs; the config's plant, gain
    schedule and MPC matrices are built by the first run that needs them
    and shared by the later ones. An MPC run's trace computes its cost,
    binding flags and largest KKT residual when they are first read
    (``ScenarioTrace``)."""
    config = config or RunConfig()
    runs = _Runs([scenario], (scenario.controller,), config)
    model, gains = config.plant, config.gain_schedule
    disturbances, limits = runs.inputs[0]
    # D @ d of every sample, each row as its own product (so with the bits of
    # ``step_plant``'s).
    plant_disturbances = rows_times(model.D, disturbances)
    states, commands, d_hat = runs.states[0], runs.commands[0], runs.d_hat[0]
    mpc, pi_config = runs.n_mpc, runs.pi_configs[0]
    step_gains = gains.sequence(runs.n)
    if mpc:
        pred = config.pred
        bands = box_bands(limits.lo, limits.hi, pred.m)
        samples, moves, multipliers = (record[0] for record in runs.mpc_records)
    else:
        band_lo, band_hi = limits.lo.tolist(), limits.hi.tolist()
    noise = None if runs.noise is None else runs.noise[:, 0].tolist()
    integral = 0.0

    z = np.zeros(N_AUGMENTED)  # the estimate as (x_hat, d_hat)
    x = np.zeros(N_STATES)
    u_prev = np.zeros(N_CONTROLS)
    A, A_aug, B_aug, c = model.A, gains.A_aug, gains.B_aug, gains.c
    # B_aug u_prev: its first rows are B u_prev, the plant's input term, and
    # the whole is the filter's at the next sample. The loop's products are
    # ``ndarray.dot``s of C-contiguous operands, with the bits of ``@`` and
    # of ``rows_times`` at less dispatch.
    bu = B_aug.dot(u_prev)

    for k in range(runs.n):
        states[k] = x
        y = x.item(IDX_FREQ)
        if noise is not None:
            y = y + noise[k]
        if not math.isfinite(y):
            raise ValueError("measurement must be finite")
        # The filter's state update as ``estimator_step`` makes it, with the
        # gain of step k.
        z_prev, z = z, A_aug.dot(z)
        z += bu
        z += step_gains[k] * (y - c.dot(z))

        if mpc:
            dz = z - z_prev
            try:
                u, samples[k], moves[k], multipliers[k] = control_step(
                    dz[:N_STATES], dz[N_STATES], y, u_prev, bands[k], pred)
            except QpInfeasibleError:
                runs.aborted_at[0] = k
                break
        else:
            integral, u = pi_step(integral, y, band_lo[k], band_hi[k], pi_config)

        # A command of six entries but another shape fails the row write.
        if len(u) != N_CONTROLS:
            raise ValueError(f"command must have shape ({N_CONTROLS},), got {np.shape(u)}")
        commands[k] = u
        d_hat[k] = z[N_STATES]
        # The command as the row just written: an array, whatever ``u`` is.
        u_prev = commands[k]
        bu = B_aug.dot(u_prev)
        x = A.dot(x)
        x += bu[:N_STATES]
        x += plant_disturbances[k]

    return next(runs.traces(x, u_prev, z))[0]


def run_cells(scenarios, config=None):
    """Run every controller of ``CONTROLLER_KINDS`` on each scenario, in
    lockstep, whichever controller a scenario names, and return a generator
    of each scenario's traces, a list per scenario in that order. The
    scenarios share their number of samples (the seeds of a ``sweep`` kind,
    or the one scenario of a ``compare``). Each trace is the one
    ``run_scenario`` gives its scenario under its controller, bit for bit.

    One loop iteration steps every row by one sample; row r runs controller
    r // C on scenario r % C, for C scenarios (``_Runs``), from the first
    sample to the last. The plant step A x, the filter's A_aug z and the
    control term B_aug u are each one stacked product over the rows
    (``rows_times``, so every row has the bits of its own matrix-vector
    product). Each scenario keeps its own disturbances, limits and noise
    stream. A PI row runs ``pi_step`` on its own, on Python floats. The MPC
    rows, the first C, are one ``control_rows`` call per sample on that
    sample's bands, stacked once per batch; only the rows that bind
    iterate, and their s, V and multipliers go into their records with one
    write each. An MPC row whose QP is infeasible gets a zero move, so it
    holds its command; its trace ends at its first infeasible sample as a
    single run's does, and nothing reads the row after it.
    """
    config = config or RunConfig()
    runs = _Runs(scenarios, CONTROLLER_KINDS, config)
    n, cells = runs.n, len(scenarios)
    model, gains, pred = config.plant, config.gain_schedule, config.pred
    cell_disturbances, limits = zip(*runs.inputs)
    # (n + 1, C, ·): a sample's disturbances and bands, a row per scenario.
    disturbances = np.stack(cell_disturbances, axis=1)
    band_lo = np.stack([each.lo for each in limits], axis=1)
    band_hi = np.stack([each.hi for each in limits], axis=1)
    for stacked in (disturbances, band_lo, band_hi):
        stacked.flags.writeable = False
    states, commands, d_hat = runs.states, runs.commands, runs.d_hat
    noise, aborted_at, pi_configs = runs.noise, runs.aborted_at, runs.pi_configs
    step_gains = gains.sequence(n)
    n_runs = cells * len(CONTROLLER_KINDS)
    integrals = [0.0] * n_runs

    pis = [(run, run % cells) for run in range(cells, n_runs)]  # each with its scenario
    cells_at = np.arange(n_runs) % cells
    x = np.zeros((n_runs, N_STATES))
    z = np.zeros((n_runs, N_AUGMENTED))
    u = np.zeros((n_runs, N_CONTROLS))  # the commands, written in place each sample
    A, D, A_aug, B_aug, c = model.A, model.D, gains.A_aug, gains.B_aug, gains.c
    bu = rows_times(B_aug, u)

    for k in range(n):
        states[:, k] = x
        y = x[:, IDX_FREQ]
        if noise is not None:
            y = y + noise[k]
        ys = y.tolist()
        if not all(map(math.isfinite, ys)):
            raise ValueError("measurement must be finite")
        # The filter's state update, one row per run. ``vecdot`` and the lone
        # loop's ``c.dot(z)`` may sum in different orders under some BLAS
        # kernels; their bits agree under any kernel only while c has one
        # nonzero entry (tests/test_estimator.py pins that).
        z_pred = rows_times(A_aug, z)
        z_pred += bu
        z_pred += (y - np.vecdot(z_pred, c))[:, None] * step_gains[k]
        dz = z_pred - z
        z = z_pred

        lo_rows, hi_rows = band_lo[k].tolist(), band_hi[k].tolist()
        pi_commands = []
        for run, cell in pis:
            integrals[run], command = pi_step(integrals[run], ys[run], lo_rows[cell],
                                              hi_rows[cell], pi_configs[run])
            pi_commands.append(command)
        u[cells:] = pi_commands
        steps = control_rows(dz[:cells, :N_STATES], dz[:cells, N_STATES], y[:cells], u[:cells],
                             band_lo[k], band_hi[k], pred)
        u[:cells] = steps.commands
        for record, step_rows in zip(runs.mpc_records, (steps.samples, steps.v, steps.lam)):
            record[:, k] = step_rows
        for run in steps.infeasible:
            if aborted_at[run] is None:
                aborted_at[run] = k

        commands[:, k] = u
        d_hat[:, k] = z[:, N_STATES]
        bu = rows_times(B_aug, u)
        x = rows_times(A, x)
        x += bu[:, :N_STATES]
        if k % _DIAGNOSTIC_ROWS == 0:
            # D @ d of every scenario over the next block of samples, each
            # row as its own product (so with the bits of ``step_plant``'s).
            block = disturbances[k:k + _DIAGNOSTIC_ROWS]
            plant_disturbances = rows_times(D, block.reshape(-1, N_DISTURBANCES)).reshape(
                block.shape[:2] + (N_STATES,))
        x += plant_disturbances[k % _DIAGNOSTIC_ROWS].take(cells_at, axis=0)

    return runs.traces(x, u, z)


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
        cmd_energy=np.abs(trace.commands).sum(axis=0) * SAMPLE_TIME,
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
        itae += (k * SAMPLE_TIME) * abs(y) * SAMPLE_TIME
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
