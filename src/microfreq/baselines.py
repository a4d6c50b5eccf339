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

from .lfc_model import MicrogridParams, N_CONTROLS, SAMPLE_TIME

DESIGN_RECOVERY_TIME = 1.0  # s, closed-loop recovery constant for the design
PI_BIND_TOL = 1e-15  # p.u.: a participant's command this close to a limit binds

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class PiConfig:
    """PI gains, participation set, capacity allocation, and the fleet scale.

    ``capacity_scale`` is the participating nameplate sum over the power base;
    it converts the per-unit-of-capacity PI output into the fleet total.
    ``shares`` (each participant's unit index and allocation weight, as
    Python numbers) is derived from the mask and the weights, for ``pi_step``.
    """

    kp: float
    ki: float
    participating: np.ndarray
    allocation_weights: np.ndarray
    capacity_scale: float
    shares: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Written so that NaN fails them too.
        if not 0 < self.ki < math.inf:
            raise ValueError(f"ki must be > 0 and finite, got {self.ki}")
        if not 0 <= self.kp < math.inf:
            raise ValueError(f"kp must be >= 0 and finite, got {self.kp}")
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
        units = np.flatnonzero(part).tolist()
        object.__setattr__(self, "shares", tuple(zip(units, w[units].tolist())))


def _make_config(params, mask, kp, ki):
    """The masked units' PiConfig; a gain left None is the design on ``params``."""
    caps = params.capacities_kw() * mask
    design_kp, design_ki = design_pi_gains(params)
    return PiConfig(
        kp=design_kp if kp is None else kp,
        ki=design_ki if ki is None else ki,
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


def _clamped(total, shares, lo, hi):
    """The six commands of a fleet total: each participant's share clamped
    to its limits, with the bits ``numpy.clip`` gives, the sign of a zero
    included (which ``max`` and ``min`` would not keep); idle units get 0."""
    cmd = [0.0] * N_CONTROLS
    for unit, weight in shares:
        raw = total * weight
        low, high = lo[unit], hi[unit]
        raw = raw if raw > low else low
        cmd[unit] = raw if raw < high else high
    return cmd


def pi_step(integral, y, lo, hi, config):
    """One PI sample of ``SAMPLE_TIME``, on Python floats.

    ``integral`` is the integrator (p.u.*s) before the sample, ``y`` the
    frequency measurement and ``lo`` and ``hi`` the instant's six limits as
    sequences of floats. Returns the new integral and the six commands as a
    list.

    Total correction -(kp*y + ki*integral) * capacity_scale, split by the
    allocation weights, clamped per unit to the instant's limits
    (``_clamped``); idle units get 0. Conditional anti-windup: when every
    participating unit is clamped at the bound in the push direction and
    the error keeps pushing that way, the integrator holds instead of
    winding up. One pass clamps and tests that; only a hold clamps again.
    """
    if not math.isfinite(y):
        raise ValueError("measurement must be finite")
    kp, ki, scale, shares = config.kp, config.ki, config.capacity_scale, config.shares

    integral_new = integral + y * SAMPLE_TIME
    total = -(kp * y + ki * integral_new) * scale
    # Pushing deeper needs a nonzero total; then the push is upward when it
    # is positive, and every participant must sit at that side's bound.
    hold = (-y) * total > 0
    upward = total > 0
    cmd = [0.0] * N_CONTROLS
    for unit, weight in shares:
        raw = total * weight
        low, high = lo[unit], hi[unit]
        raw = raw if raw > low else low
        raw = raw if raw < high else high
        cmd[unit] = raw
        if hold:
            hold = raw >= high - PI_BIND_TOL if upward else raw <= low + PI_BIND_TOL

    if hold:
        return integral, _clamped(-(kp * y + ki * integral) * scale, shares, lo, hi)
    return integral_new, cmd


def design_pi_gains(params):
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
    c = params.capacities_kw().sum() / params.s_base
    kp = 6.0 * params.inertia / (c * DESIGN_RECOVERY_TIME)
    ki = params.inertia / (c * DESIGN_RECOVERY_TIME ** 2)
    return kp, ki


# The published gains: the design on the published parameters (kp = 1.44,
# ki = 0.24 with H = 0.6 s and the all-units fleet gain c = 500/200). A
# config built without gains takes the design on its own parameters.
TUNED_KP, TUNED_KI = design_pi_gains(MicrogridParams())
