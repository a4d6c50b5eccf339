"""Closed-loop scenario runner: plant + availability + estimator + one
controller, with trace logging, the comparison metrics and the step-response
check of ``tune-pi``.

The loop is a deterministic fixed-step cycle: update the disturbance
estimator from the last measurement, take the instant's reserve limits, run
the selected controller, then step the true plant with the applied command
and the true disturbances. Identical scenario, config, and seed give
bit-identical traces.

A single run (``run_scenario``, as ``microfreq run`` uses it) and a batch
(``run_cells``, which steps cells in lockstep; a cell is the runs of one
profile set and seed, as in ``compare`` and ``sweep``) differ only in their
sample loop. Both set up and finish through ``_Runs``: the cell check, the
prepared run and inputs, the records, the measurement noise (drawn up
front) and the traces; a run gets the same bytes from either. The loops
stay forked because only batch size pays for the batch. In CPU time on one
host, a one-row batch costs a lone run 1.54x (MPC) and 1.46x (PI), a
one-row ``control_rows`` costs 1.43x ``control_step``, and even a
violated-bound test shared by the two adds 14 % to ``control_step``. So
the 1-D loop steps one plant on 1-D arrays and Python floats; the batch
stacks the plant, filter and control-term products over its live rows, and
solves the MPC rows of a sample with one ``control_rows`` call, which
iterates only the rows that bind.

A batch records only what its traces keep: the frequency and the six unit
outputs (7 of the 10 states), the commands and d_hat. The traces are
finished a cell at a time, as the caller reads them, each with its own copy
of its rows; a batch of 180 s cells holds about 0.6 MB per cell of three
runs until its last cell is read.

Everything that does not depend on the closed loop is built before the
first sample: the config's ``PreparedRun`` (plant, gain schedule, MPC
prediction matrices and QP law cache), kept for the config's later runs
(``prepare_run``), and each cell's true disturbances and reserve limits
over the whole grid (``PreparedRun.inputs``). Per sample a loop computes
only the state estimate z = (x_hat, d_hat), whose increments the MPC takes,
the command from the sample's row of the limits, and the plant step, which
shares B_aug @ u with the next estimate. An MPC run's cost, binding flags
and KKT residuals come from ``step_diagnostics`` a block of samples at a
time (``_MpcRecord``); a PI run's binding flags are computed over the grid
when its trace is finished.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .baselines import pi_all_units_config, pi_du_bess_config, pi_step
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
    SAMPLE_TIME as SCENARIO_TS,
    build_plant,
    step_plant,
)
from .mpc import (
    MpcConfig,
    active_units,
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

# Samples per block of an MPC run's diagnostics (about 0.3 MB of
# temporaries), and of a batch's plant disturbance terms.
_DIAGNOSTIC_ROWS = 128

# The state columns a batch records: the frequency, then the six unit outputs.
_RECORDED_STATES = np.array([IDX_FREQ, *OUTPUT_STATE_INDICES])

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
    so no run's bytes depend on the others. Like the config's, its runs must
    not run concurrently."""

    mpc: MpcConfig = field(repr=False)
    model: object
    gains: object

    @cached_property
    def pred(self):
        return build_prediction_matrices(self.model, self.mpc)

    def inputs(self, profiles, config):
        """(disturbances, limits) of ``profiles`` under ``config``, the
        config this run was prepared for: the true disturbances at every
        sample, and the reserve limits of the trace, one row per sample
        (checked as a whole) and a terminal row that repeats the last
        sample's. The runs of a cell share them, so they are read-only."""
        params = config.params
        n = profiles.t.shape[0] - 1
        p_wt, p_pv = _availability(profiles, config)
        disturbances = _true_disturbances(profiles, p_wt, p_pv, params.s_base)
        bands = reserve_limits(
            p_wt[0, :n], p_wt[1, :n], p_pv[0, :n], p_pv[1, :n],
            config.dispatch_du_kw, config.dispatch_bess_kw, params, config.deload,
        )
        limits = bands.at(np.minimum(np.arange(n + 1), n - 1))
        for shared in (disturbances, limits.lo, limits.hi):
            shared.flags.writeable = False
        return disturbances, limits


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


class _MpcRecord:
    """What an MPC run keeps of its samples for its trace: the cost, the
    binding flags (as bools) and the largest KKT residual. A sample's s, V
    and bound multipliers wait in the run's block of ``_DIAGNOSTIC_ROWS``
    rows, row ``row`` of the ``_Runs.blocks`` arrays ``blocks``; when the
    block is full, or the run ends, ``step_diagnostics`` gives its cost,
    active bounds and KKT residuals, on the bounds rebuilt from the limits
    and the previous commands (zero before the first sample). A unit whose
    previous command is already outside the sample's band drifted there and
    is flagged as binding too. ``commands`` is the run's own record, which
    the loop fills a sample ahead of the block. A single run fills its
    block with ``keep``; a batch writes the rows of all its MPC runs' blocks
    at once and closes each full block itself."""

    def __init__(self, pred, limits, commands, blocks, row):
        self.pred, self.limits, self.commands, self.row = pred, limits, commands, row
        self.objective = np.zeros(commands.shape[0])
        self.binding = np.zeros((commands.shape[0], N_CONTROLS), dtype=bool)
        self.max_kkt = 0.0
        self.start = 0  # the sample of the block's first row
        self.samples, self.moves, self.multipliers = (block[row] for block in blocks)

    def keep(self, k, step):
        i = k - self.start
        self.samples[i], self.moves[i], self.multipliers[i] = step.sample, step.v, step.lam
        if i + 1 == _DIAGNOSTIC_ROWS:
            self.close(k + 1)

    def close(self, end):
        """Diagnose the block's samples before ``end``."""
        start, rows = self.start, end - self.start
        if rows == 0:
            return
        if start:
            previous = self.commands[start - 1:end - 1]
        else:
            previous = np.concatenate([np.zeros((1, N_CONTROLS)), self.commands[:end - 1]])
        limits = self.limits.at(slice(start, end))
        lo, hi = build_constraints(limits, previous, self.pred)
        steps = step_diagnostics(self.pred, self.samples[:rows], self.moves[:rows],
                                 self.multipliers[:rows], lo, hi)
        self.objective[start:end] = steps.objective
        self.binding[start:end] = (active_units(steps.qp_active, self.pred.m)
                                   | out_of_band_units(limits, previous))
        self.max_kkt = max(self.max_kkt, float(steps.kkt_residuals.max()))
        self.start = end


class _Runs:
    """What both loops do before their first sample and after their last,
    for a batch of ``cells`` (a single run is one cell of one scenario).

    Built, it has checked the cells, taken the config's ``PreparedRun`` and
    each cell's ``inputs``, and made the records of every run, a run per
    row: the states in ``columns`` (sorted state indices: all ten for a
    single run, which writes its state whole each sample), the commands and
    d_hat of its n + 1 rows, an MPC run's ``_MpcRecord`` (its s, V and
    multipliers wait in ``blocks``, (MPC runs, _DIAGNOSTIC_ROWS, ·) arrays)
    and a PI run's config. ``noise`` is each run's measurement noise, (n,
    runs), or None: a seed's values are drawn once, one per sample, and
    every run of its cell adds the same ones. The loop sets
    ``aborted_at[run]`` to the sample at which a run's QP was infeasible;
    ``traces`` then finishes the runs."""

    def __init__(self, cells, config, columns):
        if not cells or not all(cells):
            raise ValueError("a batch needs at least one cell, and a cell at least one scenario")
        self.n, self.Ts = n, Ts = cells[0][0].n_steps, cells[0][0].Ts
        for cell in cells:
            first = cell[0]
            for scenario in cell[1:]:
                if ((scenario.seed, scenario.Ts) != (first.seed, first.Ts)
                        or (scenario.profiles is not first.profiles
                            and scenario.profiles.digest() != first.profiles.digest())):
                    raise ValueError(
                        "the scenarios of a cell must share their profiles, seed and Ts")
            if (first.n_steps, first.Ts) != (n, Ts):
                raise ValueError("the cells of a batch must share their number of samples and Ts")
        self.prepared = prepare_run(config, Ts, n)
        self.inputs = [self.prepared.inputs(cell[0].profiles, config) for cell in cells]
        self.scenarios = [scenario for cell in cells for scenario in cell]
        self.cell_of = [index for index, cell in enumerate(cells) for _ in cell]
        runs = len(self.scenarios)
        self.columns = columns
        self.freq_at, *self.outputs_at = np.searchsorted(columns, _RECORDED_STATES).tolist()
        self.states = np.zeros((runs, n + 1, len(columns)))
        self.commands = np.zeros((runs, n + 1, N_CONTROLS))
        self.d_hat = np.zeros((runs, n + 1))
        mpc_runs = [run for run, scenario in enumerate(self.scenarios)
                    if scenario.controller == "mpc"]
        self.mpcs = [None] * runs
        if mpc_runs:
            pred = self.prepared.pred
            widths = (pred.sample_map.shape[1], pred.box.n, pred.box.n)
            self.blocks = tuple(np.empty((len(mpc_runs), _DIAGNOSTIC_ROWS, width))
                                for width in widths)
            for row, run in enumerate(mpc_runs):
                self.mpcs[run] = _MpcRecord(pred, self.inputs[self.cell_of[run]][1],
                                            self.commands[run], self.blocks, row)
        self.pi_configs = [config.pi_configs.get(scenario.controller)
                           for scenario in self.scenarios]
        self.aborted_at = [None] * runs
        self.noise = None
        if config.measurement_noise_std > 0.0:
            draws = [np.random.default_rng([cell[0].seed, 9001]).normal(
                scale=config.measurement_noise_std, size=n) for cell in cells]
            self.noise = np.stack(draws, axis=1)[:, self.cell_of]

    def traces(self, x, u, z):
        """The traces of each cell, a list per cell, from a generator that
        finishes a cell at a time. The runs that did not abort first get
        their terminal row, the state at t = duration with the last command
        held (its limits are the last sample's): ``x``, ``u`` and ``z`` are
        the loop's last states, commands and estimates, a row per such run
        in order (1-D for a single run)."""
        finished = [run for run, at in enumerate(self.aborted_at) if at is None]
        if finished:
            self.states[finished, self.n] = x[..., self.columns]
            self.commands[finished, self.n] = u
            self.d_hat[finished, self.n] = z[..., N_STATES]
        return ([self._trace(run) for run, of in enumerate(self.cell_of) if of == index]
                for index in range(len(self.inputs)))

    def _trace(self, run):
        """The ``ScenarioTrace`` of one run from its records; an MPC run's
        last block is diagnosed here. A PI run's binding flags, which
        nothing in the loop reads, are computed here over the grid. The
        trace shares the disturbances and limits with the other runs of its
        cell, and holds its own copy of the rest, so the records need not
        outlive the batch."""
        n, scenario, mpc = self.n, self.scenarios[run], self.mpcs[run]
        aborted_at = self.aborted_at[run]
        disturbances, limits = self.inputs[self.cell_of[run]]
        states, commands = self.states[run], self.commands[run]
        if mpc is not None:
            mpc.close(n if aborted_at is None else aborted_at)
            objective, binding, max_kkt = mpc.objective, mpc.binding.astype(int), mpc.max_kkt
        else:
            objective, binding, max_kkt = np.zeros(n + 1), np.zeros((n + 1, N_CONTROLS), int), 0.0
            # A PI command binds within 1e-15 of either limit (participants only).
            at_bound = ((commands[:n] <= limits.lo[:n] + 1e-15)
                        | (commands[:n] >= limits.hi[:n] - 1e-15))
            binding[:n] = at_bound & self.pi_configs[run].participating
        # An aborted run keeps the rows before the failed sample, and the
        # largest KKT residual of the samples it solved.
        rows = n + 1 if aborted_at is None else aborted_at
        return ScenarioTrace(
            kind=scenario.kind,
            controller=scenario.controller,
            seed=scenario.seed,
            Ts=scenario.Ts,
            t=scenario.profiles.t[:rows].copy(),
            freq=states[:rows, self.freq_at].copy(),
            commands=commands[:rows].copy(),
            outputs=states[:rows, self.outputs_at],
            disturbances=disturbances[:rows],
            d_hat=self.d_hat[run, :rows].copy(),
            limits_lo=limits.lo[:rows],
            limits_hi=limits.hi[:rows],
            binding=binding[:rows],
            objective=objective[:rows],
            max_kkt_residual=max_kkt,
            aborted_at=aborted_at,
        )


def run_scenario(scenario, config=None):
    """Run one scenario to completion (or controller failure) and return the
    trace. Deterministic for identical inputs; the config's ``PreparedRun``
    for the scenario's sample time is built by the first run that needs it
    and shared by the later ones."""
    runs = _Runs([[scenario]], config or RunConfig(), np.arange(N_STATES))
    model, gains = runs.prepared.model, runs.prepared.gains
    disturbances, limits = runs.inputs[0]
    # D @ d of every sample, each row as its own product (so with the bits of
    # ``step_plant``'s).
    plant_disturbances = rows_times(model.D, disturbances)
    band_lo, band_hi = limits.lo, limits.hi
    states, commands, d_hat = runs.states[0], runs.commands[0], runs.d_hat[0]
    mpc, pi_config = runs.mpcs[0], runs.pi_configs[0]
    noise = None if runs.noise is None else runs.noise[:, 0].tolist()
    integral = 0.0

    z = np.zeros(N_AUGMENTED)  # the estimate as (x_hat, d_hat)
    x = np.zeros(N_STATES)
    u_prev = np.zeros(N_CONTROLS)
    A, B_aug = model.A, gains.B_aug
    # B_aug @ u_prev: its first rows are B @ u_prev, the plant's input term,
    # and the whole is the filter's at the next sample.
    bu = B_aug @ u_prev

    for k in range(runs.n):
        states[k] = x
        y = x.item(IDX_FREQ)
        if noise is not None:
            y = y + noise[k]
        z_prev = z
        z, _ = gains.update(z, bu, y, k)

        if mpc is not None:
            dz = z - z_prev
            try:
                step = control_step(dz[:N_STATES], dz[N_STATES], y, u_prev, band_lo[k],
                                    band_hi[k], mpc.pred)
            except QpInfeasibleError:
                runs.aborted_at[0] = k
                break
            u = step.command
            mpc.keep(k, step)
        else:
            integral, u = pi_step(integral, y, band_lo[k].tolist(), band_hi[k].tolist(),
                                  pi_config, scenario.Ts)

        if np.shape(u) != (N_CONTROLS,):
            raise ValueError(f"command must have shape ({N_CONTROLS},), got {np.shape(u)}")
        commands[k] = u
        d_hat[k] = z[N_STATES]
        bu = B_aug @ u
        x = A @ x + bu[:N_STATES] + plant_disturbances[k]
        u_prev = u

    return next(runs.traces(x, u_prev, z))[0]


def run_cells(cells, config=None):
    """Run a batch of cells in lockstep and return a generator of each
    cell's traces, a list per cell, in order. A cell is a list of scenarios
    that share one profile set, seed and sample time (the three controllers
    of a ``compare`` or ``sweep`` cell); the cells of a batch share their
    number of samples and sample time. Each trace is the one
    ``run_scenario`` gives its scenario, bit for bit.

    One loop iteration steps every row, a row per scenario, by one sample.
    The plant step A x, the filter's A_aug z and the control term B_aug u
    are each one stacked product over the live rows (``rows_times``, so
    every row has the bits of its own matrix-vector product). Each cell
    keeps its own disturbances, limits and noise stream. A PI row runs
    ``pi_step`` on its own, on Python floats. The MPC rows of a sample are
    one ``control_rows`` call, with their bands taken from the cells'
    limits, stacked once per batch, by one index; only the rows that bind
    iterate. An MPC row whose QP is infeasible at sample k leaves the batch
    there, its trace ending at k as a single run's does; the other rows run
    to the end. Every row's command goes into one (rows, 6) array in place,
    and the s, V and multipliers of all MPC rows into their blocks with one
    write per sample.
    """
    runs = _Runs(cells, config or RunConfig(), _RECORDED_STATES)
    n, Ts, cell_of = runs.n, runs.Ts, runs.cell_of
    model, gains = runs.prepared.model, runs.prepared.gains
    cell_disturbances, limits = zip(*runs.inputs)
    # (n + 1, cells, ·): a sample's disturbances and bands, a row per cell.
    disturbances = np.stack(cell_disturbances, axis=1)
    band_lo = np.stack([each.lo for each in limits], axis=1)
    band_hi = np.stack([each.hi for each in limits], axis=1)
    for stacked in (disturbances, band_lo, band_hi):
        stacked.flags.writeable = False
    states, commands, d_hat, mpcs = runs.states, runs.commands, runs.d_hat, runs.mpcs
    noise, aborted_at, pi_configs = runs.noise, runs.aborted_at, runs.pi_configs
    n_runs = len(mpcs)
    integrals = [0.0] * n_runs

    # One row per run still running: ``live`` holds its run, its records
    # are at ``rows`` and its cell in ``live_cells`` (every run until one
    # aborts).
    live = list(range(n_runs))
    rows = slice(None)
    live_cells = np.array(cell_of)
    pi_rows, mpc_rows = _controller_rows(live, cell_of, mpcs)
    x = np.zeros((n_runs, N_STATES))
    z = np.zeros((n_runs, N_AUGMENTED))
    u = np.zeros((n_runs, N_CONTROLS))  # the commands, written in place each sample
    A, D, A_aug, B_aug, c = model.A, model.D, gains.A_aug, gains.B_aug, gains.c
    bu = rows_times(B_aug, u)

    for k in range(n):
        states[rows, k] = x[:, _RECORDED_STATES]
        y = x[:, IDX_FREQ]
        if noise is not None:
            y = y + noise[k]
        ys = y.tolist()
        if not all(map(math.isfinite, ys)):
            raise ValueError("measurement must be finite")
        # GainSchedule.update, one row per run.
        z_pred = rows_times(A_aug, z)
        z_pred += bu
        z_pred += (y - np.vecdot(z_pred, c))[:, None] * gains.gains[gains.index(k)]
        dz = z_pred - z
        z = z_pred

        if pi_rows:
            lo_rows, hi_rows = band_lo[k].tolist(), band_hi[k].tolist()
            for i, run, cell in pi_rows:
                integrals[run], u[i] = pi_step(integrals[run], ys[i], lo_rows[cell],
                                               hi_rows[cell], pi_configs[run], Ts)
        if mpc_rows:
            at, mpc_cells, block_rows, records = mpc_rows
            dz_mpc = dz[at]
            steps = control_rows(dz_mpc[:, :N_STATES], dz_mpc[:, N_STATES], y[at], u[at],
                                 band_lo[k, mpc_cells], band_hi[k, mpc_cells],
                                 runs.prepared.pred)
            u[at] = steps.commands
            slot = k % _DIAGNOSTIC_ROWS
            for block, step_rows in zip(runs.blocks, (steps.samples, steps.v, steps.lam)):
                block[block_rows, slot] = step_rows
            if steps.infeasible:
                failed = {int(at[r]) for r in steps.infeasible}
                for i in failed:
                    aborted_at[live[i]] = k
                keep = [i for i in range(len(live)) if i not in failed]
                live = [live[i] for i in keep]
                if not live:
                    break
                rows = np.array(live)
                live_cells = np.array([cell_of[run] for run in live])
                x, z, u = x[keep], z[keep], u[keep]
                if noise is not None:
                    noise = noise[:, keep]
                pi_rows, mpc_rows = _controller_rows(live, cell_of, mpcs)
            if slot + 1 == _DIAGNOSTIC_ROWS and mpc_rows:
                for record in mpc_rows[3]:
                    record.close(k + 1)

        commands[rows, k] = u
        d_hat[rows, k] = z[:, N_STATES]
        bu = rows_times(B_aug, u)
        x = rows_times(A, x)
        x += bu[:, :N_STATES]
        if k % _DIAGNOSTIC_ROWS == 0:
            # D @ d of every cell over the next block of samples, each row as
            # its own product (so with the bits of ``step_plant``'s).
            block = disturbances[k:k + _DIAGNOSTIC_ROWS]
            plant_disturbances = rows_times(D, block.reshape(-1, N_DISTURBANCES)).reshape(
                block.shape[:2] + (N_STATES,))
        x += plant_disturbances[k % _DIAGNOSTIC_ROWS].take(live_cells, axis=0)

    return runs.traces(x, u, z)


def _controller_rows(live, cell_of, mpcs):
    """The rows of the ``live`` runs by controller: a PI row as (position,
    run, cell), in a list; the MPC rows as (positions, cells, block rows,
    records), the first three as index arrays, or None if there are none."""
    pi_rows = [(i, run, cell_of[run]) for i, run in enumerate(live) if mpcs[run] is None]
    mpc = [(i, run) for i, run in enumerate(live) if mpcs[run] is not None]
    if not mpc:
        return pi_rows, None
    at = np.array([i for i, _ in mpc])
    records = [mpcs[run] for _, run in mpc]
    return pi_rows, (at, np.array([cell_of[run] for _, run in mpc]),
                     np.array([record.row for record in records]), records)


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
