"""State-space model of the islanded microgrid frequency-control plant.

Ten states: frequency deviation, the two-stage PV lags (array + inverter) for
each PV unit, one lag per wind unit, the diesel governor + engine lags, and
the battery lag. Six power-reference inputs (one per unit) and five
disturbance channels (load plus one availability channel per renewable unit).
All powers are per-unit on ``s_base``; frequency deviation is per-unit.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .numerics import discretize

N_STATES = 10
N_CONTROLS = 6
N_DISTURBANCES = 5

SAMPLE_TIME = 0.2  # s: the sample time of the plant, the MPC and every scenario

# State ordering: [dF, X1, Ppv1, X2, Ppv2, Pwt1, Pwt2, X3, Pdu, Pbess]
IDX_FREQ = 0
IDX_PV1_LAG = 1
IDX_PV1 = 2
IDX_PV2_LAG = 3
IDX_PV2 = 4
IDX_WT1 = 5
IDX_WT2 = 6
IDX_GOV = 7
IDX_DU = 8
IDX_BESS = 9

# Control/disturbance orderings shared across the package.
CONTROL_LABELS = ("pv1", "pv2", "wt1", "wt2", "du", "bess")
DISTURBANCE_LABELS = ("load", "pv1", "pv2", "wt1", "wt2")
OUTPUT_STATE_INDICES = (IDX_PV1, IDX_PV2, IDX_WT1, IDX_WT2, IDX_DU, IDX_BESS)


# What a config field of each annotated type takes, as (description,
# types); a bool field takes only a bool, and a number field anything else.
_FIELD_KINDS = {bool: ("True or False", (bool, np.bool_)), int: ("an integer", numbers.Integral),
                float: ("a number", numbers.Real)}


def _field_kind(annotation):
    """(description, types) of what a field annotated ``annotation`` takes:
    ``_FIELD_KINDS``, or else an instance of that class."""
    if annotation in _FIELD_KINDS:
        return _FIELD_KINDS[annotation]
    name = annotation.__name__
    return f"{'an' if name[0] in 'AEIOU' else 'a'} {name}", annotation


def require_fields(config, positive=False, nonnegative=()):
    """Reject, naming the class and field, an init field of the config
    dataclass ``config`` whose value is not of its annotated type
    (``_field_kind``; a field whose default is None also takes None) or,
    with ``positive``, a float field that is not > 0 and finite, or not >= 0
    and finite if ``nonnegative`` names it (written so that NaN fails too).
    Other ranges are the class's own checks. Fields with ``init=False`` are
    skipped: they are set after the check."""
    for f in fields(config):
        if not f.init:
            continue
        kind, types = _field_kind(f.type)
        value = getattr(config, f.name)
        if value is None and f.default is None:
            continue
        name = f"{type(config).__name__}.{f.name}"
        if isinstance(value, (bool, np.bool_)) != (f.type is bool) or not isinstance(value, types):
            raise ValueError(f"{name} must be {kind}, got {value!r}")
        if positive and f.type is float:
            zero_ok = f.name in nonnegative
            if not (0 <= value if zero_ok else 0 < value) or value == math.inf:
                raise ValueError(f"{name} must be {'>=' if zero_ok else '>'} 0 and finite, "
                                 f"got {value}")


@dataclass(frozen=True)
class MicrogridParams:
    """Physical constants of the microgrid; capacities in kW, times in s.

    ``s_base`` is the per-unit power base (total load by default).
    ``bess_droop_variant`` switches the battery's frequency coupling from the
    plain -1 gain to -1/(r_droop * t_bess), as a sensitivity variant.
    """

    p_pv1: float = 80.0
    p_pv2: float = 80.0
    p_wt1: float = 60.0
    p_wt2: float = 60.0
    p_bess: float = 100.0
    p_du: float = 120.0
    p_load: float = 200.0
    t_pv1: float = 0.15
    t_pv2: float = 0.08
    t_wt: float = 0.3
    t_bess: float = 0.1
    t_du1: float = 0.4
    t_du2: float = 0.1
    r_droop: float = 3.0
    inertia: float = 0.6
    s_base: float = 200.0
    bess_droop_variant: bool = False

    def __post_init__(self):
        require_fields(self, positive=True)  # every rating, time constant, droop and inertia

    def capacities_kw(self):
        """Unit capacities in control-vector order (pv1, pv2, wt1, wt2, du, bess)."""
        return np.array([self.p_pv1, self.p_pv2, self.p_wt1, self.p_wt2, self.p_du, self.p_bess])


@dataclass(frozen=True)
class PlantModel:
    """Continuous matrices (Ac, Bc, Cc, Dc) and their ZOH discretization."""

    Ac: np.ndarray
    Bc: np.ndarray
    Cc: np.ndarray
    Dc: np.ndarray
    A: np.ndarray = None
    B: np.ndarray = None
    D: np.ndarray = None
    Ts: float = None

    @property
    def is_discretized(self):
        return self.A is not None


def build_continuous_model(params):
    """Assemble the continuous 10-state plant from the physical parameters.

    The swing row accumulates 1/(2H) from every generation power state; each
    unit is a cascade of first-order lags with -1/T diagonals; the diesel
    governor carries the droop feedback -1/(R*T_du1) from frequency, and the
    battery a direct frequency coupling.
    """
    h2 = 2.0 * params.inertia
    Ac = np.zeros((N_STATES, N_STATES))
    for idx in OUTPUT_STATE_INDICES:
        Ac[IDX_FREQ, idx] = 1.0 / h2

    Ac[IDX_PV1_LAG, IDX_PV1_LAG] = -1.0 / params.t_pv1
    Ac[IDX_PV1, IDX_PV1_LAG] = 1.0 / params.t_pv2
    Ac[IDX_PV1, IDX_PV1] = -1.0 / params.t_pv2
    Ac[IDX_PV2_LAG, IDX_PV2_LAG] = -1.0 / params.t_pv1
    Ac[IDX_PV2, IDX_PV2_LAG] = 1.0 / params.t_pv2
    Ac[IDX_PV2, IDX_PV2] = -1.0 / params.t_pv2
    Ac[IDX_WT1, IDX_WT1] = -1.0 / params.t_wt
    Ac[IDX_WT2, IDX_WT2] = -1.0 / params.t_wt
    Ac[IDX_GOV, IDX_FREQ] = -1.0 / (params.r_droop * params.t_du1)
    Ac[IDX_GOV, IDX_GOV] = -1.0 / params.t_du1
    Ac[IDX_DU, IDX_GOV] = 1.0 / params.t_du2
    Ac[IDX_DU, IDX_DU] = -1.0 / params.t_du2
    if params.bess_droop_variant:
        Ac[IDX_BESS, IDX_FREQ] = -1.0 / (params.r_droop * params.t_bess)
    else:
        Ac[IDX_BESS, IDX_FREQ] = -1.0
    Ac[IDX_BESS, IDX_BESS] = -1.0 / params.t_bess

    # Each input drives its unit's first lag with gain 1/T.
    Bc = np.zeros((N_STATES, N_CONTROLS))
    Bc[IDX_PV1_LAG, 0] = 1.0 / params.t_pv1
    Bc[IDX_PV2_LAG, 1] = 1.0 / params.t_pv1
    Bc[IDX_WT1, 2] = 1.0 / params.t_wt
    Bc[IDX_WT2, 3] = 1.0 / params.t_wt
    Bc[IDX_GOV, 4] = 1.0 / params.t_du1
    Bc[IDX_BESS, 5] = 1.0 / params.t_bess

    Cc = np.zeros((1, N_STATES))
    Cc[0, IDX_FREQ] = 1.0

    # All five disturbance channels hit the swing equation identically as
    # power deficits.
    Dc = np.zeros((N_STATES, N_DISTURBANCES))
    Dc[IDX_FREQ, :] = -1.0 / h2

    return PlantModel(Ac=Ac, Bc=Bc, Cc=Cc, Dc=Dc)


def discretize_model(model, Ts=SAMPLE_TIME):
    """Return a copy of the model with exact ZOH discrete matrices at Ts."""
    A, B, D = discretize(model.Ac, model.Bc, model.Dc, Ts)
    return PlantModel(Ac=model.Ac, Bc=model.Bc, Cc=model.Cc, Dc=model.Dc, A=A, B=B, D=D, Ts=Ts)


def build_plant(params, Ts=SAMPLE_TIME):
    """Build and discretize the plant in one call."""
    return discretize_model(build_continuous_model(params), Ts)


def step_plant(model, x, u, d):
    """One discrete step: x(k+1) = A x(k) + B u(k) + D d(k)."""
    if not model.is_discretized:
        raise ValueError("model has not been discretized")
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    d = np.asarray(d, dtype=float)
    if x.shape != (N_STATES,):
        raise ValueError(f"x must have shape ({N_STATES},), got {x.shape}")
    if u.shape != (N_CONTROLS,):
        raise ValueError(f"u must have shape ({N_CONTROLS},), got {u.shape}")
    if d.shape != (N_DISTURBANCES,):
        raise ValueError(f"d must have shape ({N_DISTURBANCES},), got {d.shape}")
    return model.A @ x + model.B @ u + model.D @ d
