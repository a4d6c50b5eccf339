"""The Ornstein-Uhlenbeck generator of the profiles as it stood before its
recursion ran on Python floats: each sample written to a numpy array and
read back as a numpy scalar. Tests compare the bytes of
``microfreq.profiles._ou_series`` against it.
"""

import numpy as np

from microfreq.lfc_model import SAMPLE_TIME


def _ou_series(rng, n, mu, theta, sigma, clip):
    """Ornstein-Uhlenbeck wander started at its mean, clipped to a band."""
    x = np.empty(n)
    x[0] = mu
    shocks = rng.normal(size=n - 1) * sigma * np.sqrt(SAMPLE_TIME)
    for k in range(n - 1):
        x[k + 1] = x[k] + theta * (mu - x[k]) * SAMPLE_TIME + shocks[k]
    return np.clip(x, *clip)
