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
The gains are therefore a fact of the config, kept in its ``GainSchedule``,
which no run length reaches: it runs the recursion as far as the longest
run so far needs, up to the first repeated covariance, and indexes the
gains cyclically after it. Per sample only the state predict/update is
left, on the augmented estimate z, which stacks x_hat and d_hat, with the
control's part B_aug @ u given: the run loop computes that product once
per sample for the plant and the filter. It hands the controller the
increments of z and builds no ``EstimatorState``. ``estimator_step`` is
the single-step reference that returns one; it shares the covariance
update with the schedule, and its state update (``_state_update``) takes
the loops' products in their order, so both give the same bits.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, cycle, islice

import numpy as np

from .lfc_model import N_CONTROLS, N_STATES, require_fields

N_AUGMENTED = N_STATES + 1

# Default tuning: near-noiseless measurement, aggressive disturbance tracking.
DEFAULT_STATE_NOISE = 1e-8
DEFAULT_DISTURBANCE_NOISE = 1e-4
DEFAULT_MEASUREMENT_NOISE = 1e-8
DEFAULT_INITIAL_COVARIANCE = 1e-2

_CLIP_LIMIT = 1e-6

# Built once: every Riccati step takes I - gain c' and tests P + 1e-14 I.
_IDENTITY = np.eye(N_AUGMENTED)
_JITTER = 1e-14 * _IDENTITY
_IDENTITY.flags.writeable = _JITTER.flags.writeable = False


@dataclass(frozen=True)
class EstimatorConfig:
    """Diagonal tuning of the augmented filter: ``state_noise`` on every
    plant state and ``disturbance_noise`` on the disturbance state of the
    process noise Q, ``measurement_noise`` as R, and the initial covariance
    P0 = ``initial_covariance`` * I. The noises must be >= 0, the other two
    > 0, all finite. Q and P0 are built when first read, read-only: a run
    config keeps the gain schedule built from them for all its runs."""

    state_noise: float = DEFAULT_STATE_NOISE
    disturbance_noise: float = DEFAULT_DISTURBANCE_NOISE
    measurement_noise: float = DEFAULT_MEASUREMENT_NOISE
    initial_covariance: float = DEFAULT_INITIAL_COVARIANCE

    def __post_init__(self):
        require_fields(self, positive=True, nonnegative=("state_noise", "disturbance_noise"))

    # cached_property writes the instance dict, which a frozen dataclass allows.
    @cached_property
    def Q(self):
        return _read_only(np.diag([self.state_noise] * N_STATES + [self.disturbance_noise]))

    @cached_property
    def P0(self):
        return _read_only(np.diag([self.initial_covariance] * N_AUGMENTED))


def _read_only(matrix):
    matrix = np.array(matrix, dtype=float)
    matrix.flags.writeable = False
    return matrix


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
    config = config or EstimatorConfig()
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
        np.linalg.cholesky(P + _JITTER)
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
    Needs no data, only the previous covariance. The outer products are
    broadcasts, which give ``np.outer``'s bits."""
    P_pred = A_aug.dot(P).dot(A_aug.T) + config.Q
    s = float(c.dot(P_pred).dot(c) + config.measurement_noise)
    gain = P_pred.dot(c) / s
    ikc = _IDENTITY - gain[:, None] * c
    # Joseph form.
    P_new = ikc.dot(P_pred).dot(ikc.T) + config.measurement_noise * (gain[:, None] * gain)
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


class GainSchedule:
    """The data-free part of a run of the filter, grown on demand.

    Entry t of ``gains`` is the Kalman gain of step t (0-based) of a run
    started from ``initial_estimator_state``. ``sequence`` extends the
    recursion from its last covariance until it covers the steps asked for
    or a covariance repeats the input covariance of step ``cycle_start``;
    from then on later steps repeat the gains from there with period
    ``period`` and nothing is computed again. ``period`` 0 means no repeat
    has been found yet.
    """

    def __init__(self, model, config):
        self.A_aug, self.B_aug, C_aug = augmented_matrices(model)
        self.c = C_aug[0]
        self.config = config
        self.gains = []
        self.cycle_start = self.period = 0
        self._P = config.P0
        # Input covariance of each step, by its bytes: equal bytes give equal
        # futures, because the recursion is a deterministic function of P.
        self._step_of_input = {config.P0.tobytes(): 0}

    def sequence(self, n_steps):
        """The gain of each of the first ``n_steps`` steps, in order: the
        entries followed by their cycle repeated."""
        gains = self.gains
        while not self.period and len(gains) < n_steps:
            gain, self._P = _covariance_step(self._P, self.A_aug, self.c, self.config)
            # Every repeat of the entry shares it, so nothing may write to it.
            gain.flags.writeable = False
            gains.append(gain)
            earlier = self._step_of_input.setdefault(self._P.tobytes(), len(gains))
            if earlier != len(gains):
                self.cycle_start, self.period = earlier, len(gains) - earlier
        return list(islice(chain(gains, cycle(gains[self.cycle_start:])), n_steps))
