"""Joint state and disturbance estimation from the frequency measurement.

The five disturbance channels enter the swing equation identically, so only
their aggregate is observable from frequency alone. The filter therefore runs
on the plant state augmented with one random-walk disturbance state, which is
exactly the quantity the predictive controller consumes.

The covariance and gain recursion never sees the data: it depends only on
the model, the noise matrices Q and R, and P0. In floating point it also
settles into an exact cycle, where a covariance repeats an earlier one bit
for bit and every later step repeats the steps since then (with the default
tuning and steps counted from 0, P after step 52 equals P after step 48).
The gains are therefore built once per config with ``gain_schedule``: the
recursion up to the first repeated covariance, indexed cyclically after it,
or the full sequence when nothing repeats within the runs it serves. Per
sample only the state predict/update is left, on the augmented estimate z,
which stacks x_hat and d_hat, with the control's part B_aug @ u given: the
run loop computes that product once per sample for the plant and the
filter. It hands the controller the increments of z and builds no
``EstimatorState``. ``estimator_step`` is the
single-step reference that returns one; it shares the covariance and state
updates with the schedule, so both give the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lfc_model import N_CONTROLS, N_STATES

N_AUGMENTED = N_STATES + 1

# Default tuning: near-noiseless measurement, aggressive disturbance tracking.
DEFAULT_STATE_NOISE = 1e-8
DEFAULT_DISTURBANCE_NOISE = 1e-4
DEFAULT_MEASUREMENT_NOISE = 1e-8
DEFAULT_INITIAL_COVARIANCE = 1e-2

_CLIP_LIMIT = 1e-6


@dataclass(frozen=True)
class EstimatorConfig:
    """Process and measurement noise (Q, R) and initial covariance (P0) of the
    augmented filter. Q and P0 are kept as read-only copies: a run config
    keeps the gain schedule built from them for all its runs, so they must
    not change under it."""

    Q: np.ndarray
    R_noise: float
    P0: np.ndarray

    def __post_init__(self):
        Q = np.array(self.Q, dtype=float)
        P0 = np.array(self.P0, dtype=float)
        if Q.shape != (N_AUGMENTED, N_AUGMENTED) or P0.shape != (N_AUGMENTED, N_AUGMENTED):
            raise ValueError(f"Q and P0 must be {N_AUGMENTED}x{N_AUGMENTED}")
        if self.R_noise <= 0:
            raise ValueError("R_noise must be > 0")
        if np.linalg.eigvalsh((Q + Q.T) / 2).min() < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh((P0 + P0.T) / 2).min() <= 0:
            raise ValueError("P0 must be positive definite")
        Q.flags.writeable = False
        P0.flags.writeable = False
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "P0", P0)


def default_estimator_config(
    state_noise=DEFAULT_STATE_NOISE,
    disturbance_noise=DEFAULT_DISTURBANCE_NOISE,
    measurement_noise=DEFAULT_MEASUREMENT_NOISE,
    initial_covariance=DEFAULT_INITIAL_COVARIANCE,
):
    """Diagonal tuning: ``state_noise`` on every plant state and
    ``disturbance_noise`` on the disturbance state of Q, ``measurement_noise``
    as R, and P0 = ``initial_covariance`` * I."""
    Q = np.diag([state_noise] * N_STATES + [disturbance_noise])
    return EstimatorConfig(
        Q=Q, R_noise=measurement_noise, P0=initial_covariance * np.eye(N_AUGMENTED)
    )


@dataclass(frozen=True)
class EstimatorState:
    """Filtered estimate: plant state, aggregate disturbance, covariance, and
    the previous estimates needed to form increments for the controller;
    ``innovation`` and ``gain`` are those of the step that produced it."""

    x_hat: np.ndarray
    d_hat: float
    P: np.ndarray
    prev_x_hat: np.ndarray
    prev_d_hat: float
    innovation: float = 0.0
    gain: np.ndarray = None

    @property
    def delta_x(self):
        return self.x_hat - self.prev_x_hat

    @property
    def delta_d(self):
        return self.d_hat - self.prev_d_hat


def initial_estimator_state(config=None):
    config = config or default_estimator_config()
    zeros = np.zeros(N_STATES)
    return EstimatorState(
        x_hat=zeros, d_hat=0.0, P=config.P0.copy(), prev_x_hat=zeros, prev_d_hat=0.0
    )


def augmented_matrices(model):
    """(A_aug, B_aug, C_aug) for the plant extended with a random-walk
    aggregate disturbance entering through the shared disturbance column."""
    if not model.is_discretized:
        raise ValueError("model has not been discretized")
    d_col = model.D[:, 0]  # all five columns are identical by construction
    A_aug = np.zeros((N_AUGMENTED, N_AUGMENTED))
    A_aug[:N_STATES, :N_STATES] = model.A
    A_aug[:N_STATES, N_STATES] = d_col
    A_aug[N_STATES, N_STATES] = 1.0
    B_aug = np.zeros((N_AUGMENTED, N_CONTROLS))
    B_aug[:N_STATES] = model.B
    C_aug = np.zeros((1, N_AUGMENTED))
    C_aug[0, :N_STATES] = model.Cc[0]
    return A_aug, B_aug, C_aug


def observability_report(model):
    """Diagnose the augmented pair (A_aug, C_aug).

    With twin PV and twin wind units the anti-symmetric unit modes cancel in
    the frequency output, so the observability matrix is rank deficient; the
    filter only needs detectability (every marginal/unstable mode visible).
    Returns a dict with the rank, unobservable mode count, and a detectability
    flag from the PBH test on near-unit-circle eigenvalues.
    """
    A_aug, _, C_aug = augmented_matrices(model)
    blocks = [C_aug]
    for _ in range(N_AUGMENTED - 1):
        blocks.append(blocks[-1] @ A_aug)
    obs = np.vstack(blocks)
    rank = int(np.linalg.matrix_rank(obs))

    detectable = True
    for lam in np.linalg.eigvals(A_aug):
        if abs(lam) < 1.0 - 1e-9:
            continue
        pbh = np.vstack([A_aug - lam * np.eye(N_AUGMENTED), C_aug])
        if np.linalg.matrix_rank(pbh) < N_AUGMENTED:
            detectable = False
    return {
        "observability_rank": rank,
        "n_unobservable_modes": N_AUGMENTED - rank,
        "detectable": detectable,
    }


def require_detectable(model):
    """Fail loudly if the filter cannot converge on this model."""
    report = observability_report(model)
    if not report["detectable"]:
        raise RuntimeError(
            "augmented plant is not detectable from the frequency measurement; "
            f"observability rank {report['observability_rank']}/{N_AUGMENTED}"
        )
    return report


def _condition_covariance(P):
    """Re-symmetrize and clip tiny negative eigenvalues; large clips error."""
    P = (P + P.T) / 2.0
    try:
        np.linalg.cholesky(P + 1e-14 * np.eye(P.shape[0]))
        return P
    except np.linalg.LinAlgError:
        pass
    w, V = np.linalg.eigh(P)
    worst = -w.min()
    if worst > _CLIP_LIMIT:
        raise FloatingPointError(f"covariance lost definiteness by {worst:.3e}")
    return (V * np.clip(w, 0.0, None)) @ V.T


def _covariance_step(P, A_aug, c, config):
    """Covariance predict/update of one step and the Kalman gain it uses.
    Needs no data, only the previous covariance."""
    P_pred = A_aug @ P @ A_aug.T + config.Q
    s = float(c @ P_pred @ c + config.R_noise)
    gain = P_pred @ c / s
    ikc = np.eye(N_AUGMENTED) - np.outer(gain, c)
    P_new = ikc @ P_pred @ ikc.T + config.R_noise * np.outer(gain, gain)  # Joseph form
    return gain, _condition_covariance(P_new)


def _state_update(z, bu, y, A_aug, c, gain):
    """Augmented estimate z = (x_hat, d_hat) after one predict/update with a
    precomputed gain, and the step's innovation. ``bu`` is B_aug @ u, the
    applied control's part of the prediction."""
    z_pred = A_aug @ z + bu
    innovation = float(y - c @ z_pred)
    return z_pred + gain * innovation, innovation


def estimator_step(state, u, y, model, config):
    """One predict/update cycle.

    ``u`` is the control applied over the previous sample interval and ``y``
    the current frequency measurement. Returns the new EstimatorState; the
    previous estimates are kept so delta_x / delta_d are available.
    """
    A_aug, B_aug, C_aug = augmented_matrices(model)
    c = C_aug[0]
    gain, P_new = _covariance_step(state.P, A_aug, c, config)
    u = np.asarray(u, dtype=float).reshape(N_CONTROLS)
    if not np.isfinite(y):
        raise ValueError("measurement must be finite")
    z = np.concatenate([state.x_hat, [state.d_hat]])
    z_new, innovation = _state_update(z, B_aug @ u, y, A_aug, c, gain)
    return EstimatorState(
        x_hat=z_new[:N_STATES], d_hat=float(z_new[N_STATES]), P=P_new,
        prev_x_hat=state.x_hat, prev_d_hat=state.d_hat, innovation=innovation, gain=gain,
    )


@dataclass(frozen=True)
class GainSchedule:
    """The data-free part of a run of the filter, built once.

    Entry t of ``gains`` is the Kalman gain of step t (0-based) of a run
    started from ``initial_estimator_state``. When the covariance after the
    last entry repeats the input covariance of step ``cycle_start``, later
    steps repeat the gains from there with period ``period``; ``period`` 0
    means no repeat was found and the entries cover every step there is.
    """

    A_aug: np.ndarray
    B_aug: np.ndarray
    c: np.ndarray
    gains: tuple
    cycle_start: int
    period: int

    def index(self, k):
        """Entry used by step k."""
        if k < len(self.gains):
            return k
        if not self.period:
            raise IndexError(f"step {k} is beyond the {len(self.gains)} scheduled steps")
        return self.cycle_start + (k - self.cycle_start) % self.period

    def covers(self, n_steps):
        """Whether a run of ``n_steps`` samples finds an entry for every step."""
        return bool(self.period) or n_steps <= len(self.gains)

    def update(self, z, bu, y, k):
        """Step k of the run on the augmented estimate z = (x_hat, d_hat):
        the state predict/update of ``estimator_step`` with the gain looked
        up, not recomputed. Returns the new z and the innovation. ``z`` must
        be the result of step k - 1 and ``bu`` the product B_aug @ u of the
        (6,) control u applied since. Its first rows are B @ u, bit for bit,
        so the run loop computes it once and steps the plant with them."""
        if not math.isfinite(y):
            raise ValueError("measurement must be finite")
        return _state_update(z, bu, y, self.A_aug, self.c, self.gains[self.index(k)])


def gain_schedule(model, config, n_steps):
    """Gains of the first ``n_steps`` filter steps, stopped at the first
    covariance that repeats an earlier one bit for bit."""
    A_aug, B_aug, C_aug = augmented_matrices(model)
    c = C_aug[0]
    # Input covariance of each step, by its bytes: equal bytes give equal
    # futures, because the recursion is a deterministic function of P.
    step_of_input = {config.P0.tobytes(): 0}
    gains = []
    cycle_start = period = 0
    P = config.P0
    for t in range(n_steps):
        gain, P = _covariance_step(P, A_aug, c, config)
        # Every repeat of the entry shares it, so nothing may write to it.
        gain.flags.writeable = False
        gains.append(gain)
        earlier = step_of_input.setdefault(P.tobytes(), t + 1)
        if earlier != t + 1:
            cycle_start, period = earlier, t + 1 - earlier
            break
    return GainSchedule(
        A_aug=A_aug, B_aug=B_aug, c=c, gains=tuple(gains), cycle_start=cycle_start,
        period=period,
    )
