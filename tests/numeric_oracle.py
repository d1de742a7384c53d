"""Independent orthant oracles, for cross-checking the package.

The numeric-only integrators send every orthant probability through the
lattice integrator on the whole problem: no arcsine closed form and no
block splitting enters the value.  Truncated means follow Tallis (1961),
with the conditional covariance of coordinate k integrated at seed + k + 1.

The Monte Carlo oracles (`orthant_probability_mc`, `positive_orthant_mean_mc`)
count and average plain Philox draws, on streams 1 and 2 of the seed, and
`truncated_mean_cf_2d` is the bivariate first-moment closed form.
"""

import math

import numpy as np

from onebitmimo import sign_covariance, standardize
from onebitmimo.exceptions import AccuracyError, DimensionError, DomainError
from onebitmimo.model import _philox, check_hermitian
from onebitmimo.orthant import (
    _ARCSIN_SLACK,
    DEFAULT_MAX_SAMPLES,
    DEFAULT_REL_TOL,
    _conditional_covariance,
    _qmc_orthant,
    _validate_spd,
)

# Draws per batch of the Monte Carlo oracles; batching bounds memory and
# leaves the values unchanged.
_PROB_CHUNK = 2_000_000
_MEAN_CHUNK = 1_000_000


def numeric_orthant_probability(psi, seed, rel_tol=DEFAULT_REL_TOL,
                                max_samples=DEFAULT_MAX_SAMPLES):
    """P(u > 0) for u ~ N(0, psi), integrated numerically without splitting."""
    corr = standardize(psi)
    return _qmc_orthant(corr, rel_tol, max_samples, seed)[0]


def numeric_orthant_mean(psi, seed, rel_tol=DEFAULT_REL_TOL):
    """(E[u | u > 0], P(u > 0)) for u ~ N(0, psi) from numeric probabilities."""
    prob = numeric_orthant_probability(psi, seed, rel_tol)
    g = np.array([
        numeric_orthant_probability(_conditional_covariance(psi, k), seed + k + 1, rel_tol)
        for k in range(psi.shape[0])
    ])
    return psi @ (g / np.sqrt(2.0 * math.pi * psi.diagonal())) / prob, prob


def numeric_mmse(stats, model, obs, seed, rel_tol=DEFAULT_REL_TOL):
    """(h_hat, Pr(r)) of the posterior mean from numeric-only orthant integrals."""
    mean, prob = numeric_orthant_mean(sign_covariance(stats, obs), seed, rel_tol)
    t = obs.r_real.shape[0]
    folded = obs.r_real * mean[:t] + 1j * obs.r_imag * mean[t:]
    h_hat = stats.sigma_ch @ (model.kron_matrix.conj().T @ (stats.omega_inv @ folded))
    return h_hat, prob


def truncated_mean_cf_2d(psi):
    """Unnormalized orthant first moments of a standardized bivariate normal.

    For u ~ N(0, psi) with unit variances, returns the pair
    (E[u_1 1{u > 0}], E[u_2 1{u > 0}]) = ((1 + psi12)/(2 sqrt(2 pi)),) * 2.
    """
    psi = check_hermitian(np.asarray(psi, dtype=float), "psi")
    if psi.shape != (2, 2):
        raise DimensionError(f"psi must be 2x2, got shape {psi.shape}")
    if abs(psi[0, 0] - 1.0) > 1e-12 or abs(psi[1, 1] - 1.0) > 1e-12:
        raise DomainError("psi must be standardized (unit diagonal)")
    rho = psi[0, 1]
    if abs(rho) > 1.0 + _ARCSIN_SLACK:
        raise DomainError(f"psi12 = {rho!r} outside [-1, 1]")
    val = (1.0 + min(max(rho, -1.0), 1.0)) / (2.0 * math.sqrt(2.0 * np.pi))
    return val, val


def orthant_probability_mc(psi, n_samples, seed=0):
    """Plain Monte Carlo counting estimate of the orthant probability.

    Independent of the closed forms and of the quasi-random integrator;
    returns (estimate, standard_error).
    """
    corr = standardize(psi)
    chol = np.linalg.cholesky(corr)
    rng = np.random.Generator(_philox(seed, 1))
    n_samples = int(n_samples)
    hits = 0
    left = n_samples
    while left > 0:
        m = min(left, _PROB_CHUNK)
        z = rng.standard_normal((m, corr.shape[0]))
        hits += int(np.count_nonzero((z @ chol.T > 0.0).all(axis=1)))
        left -= m
    p = hits / n_samples
    return p, math.sqrt(max(p * (1.0 - p), 1e-300) / n_samples)


def positive_orthant_mean_mc(psi, n_samples, seed=0):
    """Rejection-sampling estimate of the truncated mean E[u | u > 0].

    Samples u ~ N(0, psi), keeps draws in the positive orthant and
    averages.  Returns (mean, standard_errors, n_accepted).
    """
    psi = _validate_spd(psi, "psi")
    n = psi.shape[0]
    chol = np.linalg.cholesky(psi)
    rng = np.random.Generator(_philox(seed, 2))
    n_samples = int(n_samples)
    total = np.zeros(n)
    total_sq = np.zeros(n)
    kept = 0
    left = n_samples
    while left > 0:
        m = min(left, _MEAN_CHUNK)
        z = rng.standard_normal((m, n)) @ chol.T
        mask = (z > 0.0).all(axis=1)
        zk = z[mask]
        total += zk.sum(axis=0)
        total_sq += (zk * zk).sum(axis=0)
        kept += int(mask.sum())
        left -= m
    if kept < 2:
        raise AccuracyError(
            f"rejection sampler accepted only {kept} of {n_samples} draws", estimate=None
        )
    mean = total / kept
    var = total_sq / kept - mean**2
    return mean, np.sqrt(np.clip(var, 0.0, None) / kept), kept
