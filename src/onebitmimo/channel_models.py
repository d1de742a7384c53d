"""Standard channel covariance models.

Both built-in models are standardized (unit diagonal) by construction:
the exponential profile for a uniform linear receive array, and the
J0-Bessel scattering-ring profile with a steering phase for transmit
correlation.
"""

import numpy as np
from scipy.special import j0

from .exceptions import DimensionError, DomainError
from .model import check_number


def exponential_covariance(n, rho):
    """Real exponential correlation matrix: entry (i, k) = rho^|i-k|."""
    n = check_number(n, "n", integral=True)
    if n < 1:
        raise DimensionError(f"n must be >= 1, got {n}")
    rho = check_number(rho, "rho")
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    idx = np.arange(n)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def bessel_tx_covariance(n_tx, delta, theta, gamma_max):
    """Transmit correlation for a ring of scatterers around the receiver.

    Entry (i, k) is J0(2 pi (k - i) delta gamma_max cos(theta)) *
    exp(-1j 2 pi (k - i) delta sin(theta)), where delta is the antenna
    spacing in wavelengths, theta the mean departure angle and gamma_max
    the angular spread.  gamma_max = 0 collapses to the rank-one steering
    outer product; the result is then only positive semidefinite.
    """
    n_tx = check_number(n_tx, "n_tx", integral=True)
    if n_tx < 1:
        raise DimensionError(f"n_tx must be >= 1, got {n_tx}")
    delta = check_number(delta, "delta")
    if not 0.0 < delta < np.inf:
        raise DomainError(f"delta must be > 0, got {delta}")
    theta = check_number(theta, "theta")
    if not np.isfinite(theta):
        raise DomainError("theta must be finite")
    gamma_max = check_number(gamma_max, "gamma_max", low=0.0)
    diff = np.arange(n_tx)[None, :] - np.arange(n_tx)[:, None]  # k - i
    mag = j0(2.0 * np.pi * diff * delta * gamma_max * np.cos(theta))
    phase = np.exp(-2j * np.pi * diff * delta * np.sin(theta))
    return mag * phase
