"""Numeric-only orthant integration, for cross-checking the closed forms.

Every orthant probability here goes through the lattice integrator on the
whole problem: no arcsine closed form and no block splitting enters the
value.  Truncated means follow Tallis (1961), with the conditional
covariance of coordinate k integrated at seed + k + 1.
"""

import math

import numpy as np

from onebitmimo import sign_covariance, standardize
from onebitmimo.orthant import _conditional_covariance, _qmc_orthant


def numeric_orthant_probability(psi, seed, rel_tol=1e-4, max_samples=10_000_000):
    """P(u > 0) for u ~ N(0, psi), integrated numerically without splitting."""
    corr, _ = standardize(psi)
    return _qmc_orthant(corr, rel_tol, max_samples, seed)[0]


def numeric_orthant_mean(psi, seed, rel_tol=1e-4):
    """(E[u | u > 0], P(u > 0)) for u ~ N(0, psi) from numeric probabilities."""
    prob = numeric_orthant_probability(psi, seed, rel_tol)
    g = np.array([
        numeric_orthant_probability(_conditional_covariance(psi, k), seed + k + 1, rel_tol)
        for k in range(psi.shape[0])
    ])
    return psi @ (g / np.sqrt(2.0 * math.pi * psi.diagonal())) / prob, prob


def numeric_mmse(stats, model, obs, seed, rel_tol=1e-4):
    """(h_hat, Pr(r)) of the posterior mean from numeric-only orthant integrals."""
    mean, prob = numeric_orthant_mean(sign_covariance(stats, obs), seed, rel_tol)
    t = obs.r_real.shape[0]
    folded = obs.r_real * mean[:t] + 1j * obs.r_imag * mean[t:]
    h_hat = stats.sigma_ch @ (model.kron_matrix.conj().T @ (stats.omega_inv @ folded))
    return h_hat, prob
