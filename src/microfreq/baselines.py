"""Centralized-PI secondary control baselines with capacity allocation.

Two variants: diesel+storage only, and all six units (renewables respond
within their deloading reserve). Every participating unit applies the common
per-unit-of-capacity correction scaled by its own nameplate, so the fleet's
aggregate response grows with the participating capacity; the allocation
weights (nameplate fractions) describe how the resulting total splits and
make every unit's command trace the same shape.

Both variants share one (kp, ki) pair from ``design_pi_gains``: an
overdamped second-order design on the swing equation with the all-units
fleet gain (the binding loop), recovery time constant 1 s. The ``tune-pi``
CLI subcommand re-runs the design and checks both variants' step responses
in the closed loop (``simulate.step_response_metrics``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .lfc_model import MicrogridParams, N_CONTROLS

DESIGN_RECOVERY_TIME = 1.0  # s, closed-loop recovery constant for the design

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PiConfig:
    """PI gains, participation set, capacity allocation, and the fleet scale.

    ``capacity_scale`` is the participating nameplate sum over the power base;
    it converts the per-unit-of-capacity PI output into the fleet total.
    ``idle`` (the complement of ``participating``) and ``participants`` (its
    unit indices) are derived from the mask, for ``pi_step``.
    """

    kp: float
    ki: float
    participating: np.ndarray
    allocation_weights: np.ndarray
    capacity_scale: float
    idle: np.ndarray = field(init=False, repr=False, compare=False)
    participants: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ki <= 0:
            raise ValueError("ki must be > 0")
        if self.kp < 0:
            raise ValueError("kp must be >= 0")
        if self.capacity_scale <= 0:
            raise ValueError("capacity_scale must be > 0")
        part = np.asarray(self.participating, dtype=bool).reshape(N_CONTROLS)
        w = np.asarray(self.allocation_weights, dtype=float).reshape(N_CONTROLS)
        if np.any(w < 0):
            raise ValueError("allocation weights must be nonnegative")
        if np.any(w[~part] != 0.0):
            raise ValueError("non-participants must have zero weight")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError("allocation weights must sum to 1")
        object.__setattr__(self, "participating", part)
        object.__setattr__(self, "allocation_weights", w)
        object.__setattr__(self, "idle", ~part)
        object.__setattr__(self, "participants", tuple(np.flatnonzero(part).tolist()))


@dataclass(frozen=True)
class PiState:
    """Integrator accumulation (p.u.*s)."""

    integral: float


def initial_pi_state():
    return PiState(integral=0.0)


def _make_config(params, mask, kp, ki):
    caps = params.capacities_kw() * mask
    return PiConfig(
        kp=TUNED_KP if kp is None else kp,
        ki=TUNED_KI if ki is None else ki,
        participating=mask,
        allocation_weights=caps / caps.sum(),
        capacity_scale=caps.sum() / params.s_base,
    )


def pi_all_units_config(params, kp=None, ki=None):
    """All six units participate, allocated by nameplate capacity."""
    return _make_config(params, np.ones(N_CONTROLS, dtype=bool), kp, ki)


def pi_du_bess_config(params, kp=None, ki=None):
    """Conventional variant: only diesel and storage respond."""
    mask = np.zeros(N_CONTROLS, dtype=bool)
    mask[4] = mask[5] = True
    return _make_config(params, mask, kp, ki)


def _pi_commands(config, y, integral, limits):
    """Fleet total and clamped per-unit commands for one integrator value."""
    total = -(config.kp * y + config.ki * integral) * config.capacity_scale
    cmd = (total * config.allocation_weights).clip(limits.lo, limits.hi)
    cmd[config.idle] = 0.0
    return total, cmd


def pi_step(state, y, limits, config, Ts):
    """One PI sample.

    Total correction -(kp*y + ki*integral) * capacity_scale, split by the
    allocation weights, clamped per unit to the instant's limits.
    Conditional anti-windup: when every participating unit is clamped at the
    bound in the push direction and the error keeps pushing that way, the
    integrator holds instead of winding up.
    """
    if Ts <= 0:
        raise ValueError("Ts must be > 0")
    if not math.isfinite(y):
        raise ValueError("measurement must be finite")

    integral_new = state.integral + y * Ts
    total, cmd = _pi_commands(config, y, integral_new, limits)

    # Per participant on Python floats: the same subtraction and comparison
    # as elementwise numpy, without a gather per call.
    if total > 0:
        c, hi = cmd.tolist(), limits.hi.tolist()
        fully_saturated = all(c[i] >= hi[i] - 1e-15 for i in config.participants)
    elif total < 0:
        c, lo = cmd.tolist(), limits.lo.tolist()
        fully_saturated = all(c[i] <= lo[i] + 1e-15 for i in config.participants)
    else:
        fully_saturated = False
    pushing_deeper = (-y) * total > 0

    if fully_saturated and pushing_deeper:
        integral_new = state.integral
        total, cmd = _pi_commands(config, y, integral_new, limits)

    return PiState(integral=integral_new), cmd


def design_pi_gains(params, recovery_time=DESIGN_RECOVERY_TIME):
    """Overdamped PI design on the reduced swing model.

    Neglecting the sub-second unit lags, the secondary loop is
    2H*df'' + c*kp*df' + c*ki*df = 0 with c the participating fleet gain
    (nameplate sum / power base). Gains kp = 6H/(c*lambda),
    ki = H/(c*lambda^2) place two real poles (damping ratio 3/sqrt(2)):
    withdrawal of power after a saturated excursion is dominated by the
    proportional term, so a reserve-clamped dip cannot discharge its wound-up
    integral into an over-frequency spike, while the integral still settles a
    servable step within tens of seconds. The all-units fleet is the binding
    (highest-gain) loop, so its c sizes the shared gains; the diesel+storage
    variant runs the same gains at a lower fleet gain, even more overdamped.
    """
    if recovery_time <= 0:
        raise ValueError("recovery_time must be > 0")
    c = params.capacities_kw().sum() / params.s_base
    kp = 6.0 * params.inertia / (c * recovery_time)
    ki = params.inertia / (c * recovery_time ** 2)
    return kp, ki


# The default gains: the design on the published parameters (kp = 1.44,
# ki = 0.24 with H = 0.6 s and the all-units fleet gain c = 500/200).
TUNED_KP, TUNED_KI = design_pi_gains(MicrogridParams())
