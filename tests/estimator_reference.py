"""The filter's Riccati step as it stood before it chained its products with
``ndarray.dot``: ``@`` products, ``np.outer`` and a fresh ``np.eye`` (and
its 1e-14 jitter) on every step. Tests build the gain schedule with it in
place of ``microfreq.estimator._covariance_step`` and compare the gains,
``cycle_start`` and ``period`` byte for byte.

Both functions are the old ones, unchanged; ``_CLIP_LIMIT`` and
``N_AUGMENTED`` come from the program.
"""

import numpy as np

from microfreq.estimator import _CLIP_LIMIT, N_AUGMENTED


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
