"""Renewable availability models and per-step secondary-control power limits.

Wind power follows the polynomial-exponential power-coefficient curve
evaluated at the optimal tip-speed ratio; PV power follows the
irradiance/cell-temperature module model. Both are operated deloaded by a
fraction ``deload`` to hold a frequency-support reserve.

Availability and reserve limits are elementwise: a scalar input gives one
instant, an array gives a whole time grid in one call, with every input check
applied once over the grid. Both forms give the same bits per element.
"""

import math
from dataclasses import dataclass

import numpy as np

BETZ_LIMIT = 16.0 / 27.0
DELOAD_FRACTION = 0.10


@dataclass(frozen=True)
class WindParams:
    """Turbine constants; c1..c7 parameterize the power-coefficient curve."""

    rho_air: float = 1.225
    blade_radius: float = 6.51
    c1: float = 0.5176
    c2: float = 116.0
    c3: float = 0.4
    c4: float = 5.0
    c5: float = -21.0
    c6: float = 0.08
    c7: float = 0.035
    pitch_beta: float = 0.0
    omega_min: float = 3.0
    omega_max: float = 15.0
    rated_power: float = 60.0
    rated_wind_speed: float = 12.0

    def __post_init__(self):
        if self.rho_air <= 0 or self.blade_radius <= 0:
            raise ValueError("air density and blade radius must be > 0")
        if self.rated_power <= 0 or self.rated_wind_speed <= 0:
            raise ValueError("rated power and rated wind speed must be > 0")
        if self.c5 >= 0:
            raise ValueError("c5 must be negative for a bounded power coefficient")
        if not 0 <= self.omega_min < self.omega_max:
            raise ValueError("need 0 <= omega_min < omega_max")


@dataclass(frozen=True)
class PvParams:
    """PV array constants: series/parallel module counts and module ratings."""

    n_series: int = 20
    n_parallel: int = 16
    rated_module_w: float = 250.0
    ref_irradiance: float = 1000.0
    temp_coefficient: float = 0.004
    ref_cell_temp: float = 25.0
    noct: float = 45.0

    def __post_init__(self):
        if self.n_series < 1 or self.n_parallel < 1:
            raise ValueError("module counts must be >= 1")
        if self.ref_irradiance != 1000.0:
            raise ValueError("reference irradiance is the 1000 W/m^2 standard condition")
        if self.ref_cell_temp != 25.0:
            raise ValueError("reference cell temperature is the 25 C standard condition")
        if self.temp_coefficient < 0:
            raise ValueError("temp_coefficient must be >= 0")

    @property
    def rated_array_kw(self):
        return self.n_series * self.n_parallel * self.rated_module_w / 1000.0

    @property
    def temp_rise_coefficient(self):
        """Cell temperature rise per unit irradiance, (NOCT - 20) / (0.8 * G_ref)."""
        return (self.noct - 20.0) / (0.8 * self.ref_irradiance)


@dataclass(frozen=True)
class ReserveLimits:
    """Per-unit bounds on the total secondary adjustment of each unit, in
    control-vector order (pv1, pv2, wt1, wt2, du, bess).

    ``lo`` and ``hi`` have shape (6,) for one control instant, or (n, 6) for a
    time grid with one row per sample; a grid is checked as a whole.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        shape = (-1, 6) if np.ndim(self.lo) == 2 else (6,)
        lo = np.asarray(self.lo, dtype=float).reshape(shape)
        hi = np.asarray(self.hi, dtype=float).reshape(lo.shape)
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("reserve limits must be finite")
        if np.any(lo > hi + 1e-15):
            raise ValueError("lower limits exceed upper limits")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def at(self, k):
        """The limits of sample k of a grid. The grid was checked when it was
        built, so the row is not checked again."""
        row = object.__new__(ReserveLimits)
        object.__setattr__(row, "lo", self.lo[k])
        object.__setattr__(row, "hi", self.hi[k])
        return row


def power_coefficient(tip_speed_ratio, beta, params):
    """Cp(lambda, beta), floored at zero (no negative extraction)."""
    lam = float(tip_speed_ratio)
    if lam + params.c6 * beta <= 0:
        raise ValueError("tip-speed ratio out of range")
    z = 1.0 / (lam + params.c6 * beta) - params.c7 / (1.0 + beta ** 3)
    cp = params.c1 * (params.c2 * z - params.c3 * beta - params.c4) * math.exp(params.c5 * z)
    return max(0.0, cp)


def optimal_tip_speed_ratio(params, beta=None):
    """(lambda, Cp) at the interior maximum of the Cp curve for fixed pitch.

    Stationarity of c1*(c2 z - c3 b - c4)*exp(c5 z) in z gives
    z* = (c3 b + c4)/c2 - 1/c5, which is a maximum because c5 < 0.
    """
    beta = params.pitch_beta if beta is None else beta
    z_star = (params.c3 * beta + params.c4) / params.c2 - 1.0 / params.c5
    denom = z_star + params.c7 / (1.0 + beta ** 3)
    if denom <= 0:
        raise ValueError("no admissible optimal tip-speed ratio for these coefficients")
    lam_star = 1.0 / denom - params.c6 * beta
    if lam_star <= 0:
        raise ValueError("no admissible optimal tip-speed ratio for these coefficients")
    return lam_star, power_coefficient(lam_star, beta, params)


def default_wind_params(rated_kw=60.0, rated_wind_speed=12.0, cut_in_speed=3.0):
    """Turbine defaults sized to hit rated power at rated wind speed.

    The blade radius is back-solved from the aerodynamic power at the optimal
    Cp; rotor speed limits map cut-in/rated wind speeds through the fixed
    optimal tip-speed ratio.
    """
    base = WindParams()
    lam_star, cp_star = optimal_tip_speed_ratio(base)
    radius = math.sqrt(
        rated_kw * 1000.0 / (0.5 * base.rho_air * math.pi * rated_wind_speed ** 3 * cp_star)
    )
    return WindParams(
        blade_radius=radius,
        omega_min=lam_star * cut_in_speed / radius,
        omega_max=lam_star * rated_wind_speed / radius,
        rated_power=rated_kw,
        rated_wind_speed=rated_wind_speed,
    )


def default_pv_params(rated_kw=80.0):
    """PV array defaults sized to the requested nameplate rating."""
    module_w = rated_kw * 1000.0 / (20 * 16)
    return PvParams(n_series=20, n_parallel=16, rated_module_w=module_w)


def _require_nonnegative(value, message):
    """Raise ``message`` with the first negative element of ``value``."""
    negative = value < 0
    if negative.any():
        raise ValueError(f"{message}, got {value[negative][0]}")


def _require_deload(deload):
    if not 0 <= deload < 1:
        raise ValueError(f"deload must be in [0, 1), got {deload}")


def _elementwise_result(value):
    """A Python float for a scalar input, the array otherwise."""
    return float(value) if value.ndim == 0 else value


def _cube(v):
    """v ** 3 per element through the scalar power, as a scalar call computes
    it; numpy's array power differs from it in the last bit on some inputs."""
    return np.array([x ** 3 for x in v.ravel()]).reshape(v.shape)


def wind_available_power(v, params, deload=DELOAD_FRACTION):
    """Deloaded available wind power in kW at wind speed v (m/s), elementwise.

    The turbine tracks the optimal tip-speed ratio, so rotor speed is
    proportional to wind speed: zero below cut-in, (1 - deload) times the
    aerodynamic power in the normal region, and (1 - deload) times rated
    above rated rotor speed.
    """
    v = np.asarray(v, dtype=float)
    _require_nonnegative(v, "wind speed must be >= 0")
    _require_deload(deload)
    lam_star, cp_star = optimal_tip_speed_ratio(params)
    omega = lam_star * v / params.blade_radius
    # Speeds at or above rated rotor speed never reach the aerodynamic branch.
    v_cubed = _cube(np.where(omega >= params.omega_max, 0.0, v))
    aero_kw = (
        0.5 * params.rho_air * math.pi * params.blade_radius ** 2 * v_cubed * cp_star / 1000.0
    )
    deloaded_rated = (1.0 - deload) * params.rated_power
    normal = np.minimum((1.0 - deload) * aero_kw, deloaded_rated)
    power = np.where(
        omega <= params.omega_min, 0.0, np.where(omega >= params.omega_max, deloaded_rated, normal)
    )
    return _elementwise_result(power)


def pv_available_power(g_eff, t_ambient, params, deload=DELOAD_FRACTION):
    """Deloaded available PV power in kW at irradiance g_eff (W/m^2) and
    ambient temperature t_ambient (C), elementwise with broadcasting."""
    g_eff = np.asarray(g_eff, dtype=float)
    _require_nonnegative(g_eff, "irradiance must be >= 0")
    _require_deload(deload)
    t_cell = t_ambient + params.temp_rise_coefficient * g_eff
    power_kw = (
        params.rated_array_kw
        * (g_eff / params.ref_irradiance)
        * (1.0 - params.temp_coefficient * (t_cell - params.ref_cell_temp))
    )
    # max(0, power) in the scalar sense: the power only where strictly positive.
    return _elementwise_result((1.0 - deload) * np.where(power_kw > 0.0, power_kw, 0.0))


def reserve_limits(
    p_map_wt1,
    p_map_wt2,
    p_map_pv1,
    p_map_pv2,
    dispatch_du,
    dispatch_bess,
    params,
    deload=DELOAD_FRACTION,
):
    """Per-unit secondary-adjustment bounds in p.u. on s_base.

    Wind/PV bounds are the symmetric deloading reserve +-deload * P_MAP;
    diesel swings between zero output and its capacity around its dispatch;
    the battery swings across its full four-quadrant capacity. Scalar
    availabilities give the limits of one instant; arrays of n samples give
    a grid whose ``lo`` and ``hi`` are (n, 6).
    """
    p_map_wt1, p_map_wt2, p_map_pv1, p_map_pv2 = np.broadcast_arrays(
        *(np.asarray(p, dtype=float) for p in (p_map_wt1, p_map_wt2, p_map_pv1, p_map_pv2))
    )
    for name, val in (("p_map_wt1", p_map_wt1), ("p_map_wt2", p_map_wt2),
                      ("p_map_pv1", p_map_pv1), ("p_map_pv2", p_map_pv2)):
        _require_nonnegative(val, f"{name} must be >= 0")
    if not 0.0 <= dispatch_du <= params.p_du:
        raise ValueError(f"diesel dispatch {dispatch_du} kW outside [0, {params.p_du}]")
    if not -params.p_bess <= dispatch_bess <= params.p_bess:
        raise ValueError(
            f"battery dispatch {dispatch_bess} kW outside [{-params.p_bess}, {params.p_bess}]"
        )

    sb = params.s_base
    shape = p_map_wt1.shape
    lo = np.stack([
        -deload * p_map_pv1,
        -deload * p_map_pv2,
        -deload * p_map_wt1,
        -deload * p_map_wt2,
        np.full(shape, 0.0 - dispatch_du),
        np.full(shape, -params.p_bess - dispatch_bess),
    ], axis=-1) / sb
    hi = np.stack([
        deload * p_map_pv1,
        deload * p_map_pv2,
        deload * p_map_wt1,
        deload * p_map_wt2,
        np.full(shape, params.p_du - dispatch_du),
        np.full(shape, params.p_bess - dispatch_bess),
    ], axis=-1) / sb
    return ReserveLimits(lo=lo, hi=hi)
