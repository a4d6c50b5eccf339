"""Disturbance profile generation and CSV exchange for scenario runs.

Three builtin kinds: ``step`` (piecewise-constant load events, calm weather),
``moderate`` (band-limited random wander of wind/irradiance/load), and
``rapid`` (the moderate generator at 4x volatility plus cloud-shadow and
wind-lull ramp events; the load stream stays identical to ``moderate`` for
the same seed). All generation is seeded and deterministic.
"""

import csv
import hashlib
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .csv_format import FLOAT, CsvRows, write_csv
from .lfc_model import SAMPLE_TIME

PROFILE_COLUMNS = ("t", "load_pu", "v_w1", "v_w2", "g_eff1", "g_eff2", "t_amb")
PROFILE_KINDS = ("step", "moderate", "rapid")
_PROFILE_ROW = CsvRows([FLOAT] * len(PROFILE_COLUMNS))

# Nominal operating point the fluctuating kinds wander around.
NOMINAL_WIND_MS = 10.0
NOMINAL_IRRADIANCE = 800.0
NOMINAL_AMBIENT_C = 25.0

# Calm-weather operating point for the step kind.
STEP_WIND_MS = 12.0
STEP_IRRADIANCE = 1000.0

# Load events of the step kind: (time s, new level p.u.).
STEP_LOAD_EVENTS = ((30.0, 0.05), (60.0, 0.0), (90.0, 0.10))

WIND_CLIP = (0.0, 25.0)
IRRADIANCE_CLIP = (0.0, 1200.0)
LOAD_CLIP = (-0.2, 0.2)

_RAPID_VOLATILITY = 4.0

# Largest departure of any grid spacing from the first one, relative to it.
# Generated and CSV round-tripped grids stay within ~1e-13 of uniform.
_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class ProfileSet:
    """Sampled exogenous inputs on a shared time grid.

    Rejected with a ValueError naming the field and the first bad index:
    series of mismatched length, non-finite entries, and a time grid that
    does not increase in equal steps from 0.
    """

    t: np.ndarray
    load_pu: np.ndarray
    v_w: np.ndarray      # (2, n) wind speed per wind unit, m/s
    g_eff: np.ndarray    # (2, n) irradiance per PV unit, W/m^2
    t_amb: np.ndarray

    def __post_init__(self):
        n = self.t.shape[0]
        if self.load_pu.shape != (n,) or self.t_amb.shape != (n,):
            raise ValueError("profile series lengths differ")
        if self.v_w.shape != (2, n) or self.g_eff.shape != (2, n):
            raise ValueError("wind/irradiance profiles must be (2, n)")
        for name in ("t", "load_pu", "v_w", "g_eff", "t_amb"):
            bad = np.argwhere(~np.isfinite(getattr(self, name)))
            if bad.size:
                index = ", ".join(str(i) for i in bad[0])
                raise ValueError(f"profile {name}[{index}] is not finite")
        if n < 2:
            raise ValueError("time grid needs at least two samples")
        step = np.diff(self.t)
        if step[0] <= 0:
            raise ValueError(f"time grid must be increasing, got t[1] - t[0] = {float(step[0])!r}")
        uneven = np.flatnonzero(np.abs(step - step[0]) > _GRID_RTOL * step[0])
        if uneven.size:
            k = int(uneven[0]) + 1
            raise ValueError(
                f"time grid t is not uniform: t[{k}] - t[{k - 1}] = {float(step[k - 1])!r}, "
                f"expected {float(step[0])!r}"
            )
        if abs(self.t[0]) > _GRID_RTOL * step[0]:
            raise ValueError(f"time grid must start at 0, got t[0] = {float(self.t[0])!r}")

    def digest(self):
        """SHA-256 of every series' dtype, shape and bytes: two sets share it
        exactly when they hold the same samples, bit for bit."""
        digest = hashlib.sha256()
        for series in (self.t, self.load_pu, self.v_w, self.g_eff, self.t_amb):
            digest.update(f"{series.dtype.str}{series.shape}".encode())
            digest.update(np.ascontiguousarray(series))
        return digest.digest()

    @property
    def ts(self):
        return float(self.t[1] - self.t[0])

    @property
    def duration(self):
        return float(self.t[-1])


def _ou_series(rng, n, mu, theta, sigma, clip):
    """Ornstein-Uhlenbeck wander started at its mean, clipped to a band. The
    recursion runs on Python floats: the same IEEE operations, in the same
    order, as on numpy scalars, at a third of the cost."""
    shocks = rng.normal(size=n - 1) * sigma * np.sqrt(SAMPLE_TIME)
    last = float(mu)
    series = [last]
    for shock in shocks.tolist():
        last = last + theta * (mu - last) * SAMPLE_TIME + shock
        series.append(last)
    return np.clip(np.array(series), *clip)


def _apply_ramp_events(rng, series, t, rate_per_s, depth_range, ramp_range, hold_range):
    """Multiply a series by trapezoidal dip events (cloud shadows, lulls)."""
    duration = t[-1]
    mult = np.ones_like(series)
    for _ in range(int(rng.poisson(rate_per_s * duration))):
        t0 = rng.uniform(0.0, duration)
        depth = rng.uniform(*depth_range)
        ramp = rng.uniform(*ramp_range)
        hold = rng.uniform(*hold_range)
        knots = [t0, t0 + ramp, t0 + ramp + hold, t0 + 2 * ramp + hold]
        shape = np.interp(t, knots, [0.0, 1.0, 1.0, 0.0], left=0.0, right=0.0)
        mult = np.minimum(mult, 1.0 - depth * shape)
    return series * mult


def generate_profiles(kind, seed, duration):
    """Build a deterministic ProfileSet of the requested kind, sampled every
    ``SAMPLE_TIME``."""
    if kind not in PROFILE_KINDS:
        raise ValueError(f"unknown profile kind {kind!r}; expected one of {PROFILE_KINDS}")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    n = int(round(duration / SAMPLE_TIME)) + 1
    if n < 2:
        raise ValueError(f"duration {duration} s is below half the sample time {SAMPLE_TIME} s: "
                         "the time grid needs at least two samples")
    t = np.arange(n) * SAMPLE_TIME

    if kind == "step":
        load = np.zeros(n)
        for event_time, level in STEP_LOAD_EVENTS:
            load[t >= event_time - 1e-9] = level
        return ProfileSet(
            t=t,
            load_pu=load,
            v_w=np.full((2, n), STEP_WIND_MS),
            g_eff=np.full((2, n), STEP_IRRADIANCE),
            t_amb=np.full(n, NOMINAL_AMBIENT_C),
        )

    # Independent substreams so the rapid kind keeps the moderate load.
    load_rng = np.random.default_rng([int(seed), 0])
    wind_rngs = [np.random.default_rng([int(seed), 1 + i]) for i in range(2)]
    pv_rngs = [np.random.default_rng([int(seed), 3 + i]) for i in range(2)]
    event_rng = np.random.default_rng([int(seed), 5])

    vol = _RAPID_VOLATILITY if kind == "rapid" else 1.0
    load = _ou_series(load_rng, n, 0.0, 0.02, 0.01, LOAD_CLIP)
    v_w = np.array([
        _ou_series(rng, n, NOMINAL_WIND_MS, 0.05, 0.25 * vol, WIND_CLIP)
        for rng in wind_rngs
    ])
    g_eff = np.array([
        _ou_series(rng, n, NOMINAL_IRRADIANCE, 0.05, 15.0 * vol, IRRADIANCE_CLIP)
        for rng in pv_rngs
    ])

    if kind == "rapid":
        for i in range(2):
            g_eff[i] = _apply_ramp_events(
                event_rng, g_eff[i], t,
                rate_per_s=1.0 / 60.0,
                depth_range=(0.25, 0.45),
                ramp_range=(4.0, 8.0),
                hold_range=(3.0, 8.0),
            )
        for i in range(2):
            v_w[i] = _apply_ramp_events(
                event_rng, v_w[i], t,
                rate_per_s=1.0 / 75.0,
                depth_range=(0.2, 0.35),
                ramp_range=(4.0, 8.0),
                hold_range=(3.0, 8.0),
            )

    return ProfileSet(t=t, load_pu=load, v_w=v_w, g_eff=g_eff, t_amb=np.full(n, NOMINAL_AMBIENT_C))


def write_profiles_csv(path, profiles):
    """Write a ProfileSet in the interchange column order, each cell %.15e."""
    columns = (profiles.t, profiles.load_pu, profiles.v_w.T, profiles.g_eff.T, profiles.t_amb)
    write_csv(path, PROFILE_COLUMNS, _PROFILE_ROW, columns)


def read_profiles_csv(path):
    """Read a ProfileSet; the header must match the column order exactly.

    The data rows are parsed in one vectorized pass (``np.loadtxt``, with
    quoted cells read as ``csv`` reads them). Its numbers have the bits
    Python's ``float()`` gives, but it reads fewer strings: none with
    underscores ("1_0") or with digits outside ASCII, which are therefore
    not numbers here. A missing, extra or non-numeric cell is rejected with
    a ValueError naming its 1-based data row (blank lines are skipped and
    not counted) and its column.
    """
    with open(path, newline="") as fh:
        header = tuple(next(csv.reader(fh), ()))
        if header != PROFILE_COLUMNS:
            raise ValueError(
                f"profile CSV header {header} does not match required {PROFILE_COLUMNS}"
            )
        # np.loadtxt warns about input without data, so it starts at the
        # first line that is not blank, if there is one.
        first = next((line for line in fh if line.strip("\r\n")), None)
        data = None if first is None else _numbers(itertools.chain((first,), fh), '"')
    if data is None or data.shape[1] != len(PROFILE_COLUMNS):
        raise ValueError(_first_bad_cell(path))
    return ProfileSet(
        t=data[:, 0],
        load_pu=data[:, 1],
        v_w=data[:, 2:4].T.copy(),
        g_eff=data[:, 4:6].T.copy(),
        t_amb=data[:, 6],
    )


def _numbers(lines, quotechar=None):
    """The comma-separated numbers of ``lines``, which must not all be
    blank, as an array with one row per line that is not, or None if some
    cell is not a number or rows differ in length."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar=quotechar, ndmin=2)
    except ValueError:
        return None


def _is_number(cell):
    """Whether the parse of ``read_profiles_csv`` reads ``cell`` as a number."""
    if not cell.strip("\r\n"):
        return False  # a blank line to np.loadtxt
    number = _numbers([cell])
    return number is not None and number.shape == (1, 1)


def _first_bad_cell(path):
    """Message naming the first cell of a profile CSV that cannot be read.
    Reads the file again: only a failed read needs the cell located."""
    width = len(PROFILE_COLUMNS)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    for i, row in enumerate(rows, start=1):
        for column, cell in zip(PROFILE_COLUMNS, row):
            if not _is_number(cell):
                return f"profile CSV data row {i}, column {column}: {cell!r} is not a number"
        if len(row) < width:
            return (f"profile CSV data row {i} has {len(row)} cells, expected {width}: "
                    f"column {PROFILE_COLUMNS[len(row)]} is missing")
        if len(row) > width:
            return (f"profile CSV data row {i} has {len(row)} cells, expected {width}: "
                    f"extra cell after column {PROFILE_COLUMNS[-1]}")
    return "profile CSV has no data rows"
