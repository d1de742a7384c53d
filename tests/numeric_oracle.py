"""Independent orthant oracles, for cross-checking the package.

The numeric-only integrators send every orthant probability through the
lattice integrator on the whole problem: no arcsine closed form and no
block splitting enters the value.  Truncated means follow Tallis (1961),
with the conditional covariance of coordinate k integrated at seed + k + 1.

The Monte Carlo oracles (`orthant_probability_mc`, `positive_orthant_mean_mc`)
count and average plain Philox draws, on streams 1 and 2 of the seed, and
`truncated_mean_cf_2d` is the bivariate first-moment closed form.
`qmc_orthant_per_shift` is the lattice integrator as it was before a round
became one integrand pass over all of its shifts: one integrand call and one
sum per shift, for bit-for-bit comparison with `_qmc_orthant`.

`plackett_orthant_reference` integrates Plackett's identity for an orthant
probability with a many-node Gauss-Legendre rule, each conditional
correlation taken by a linear solve; it is the high-accuracy reference of
the package's 15-node quadrature of the same identity.

`sign_covariance` builds the sign-folded covariance S of one observation,
and `whole_s_mmse` is the posterior mean as one `positive_orthant_mean`
call over the whole of S, the route `mmse_estimate` took before it became
one row of the per-block sign tables; it is the bit-for-bit oracle of
those tables.  `solved_by_the_tables` tells, for a problem whose S is one
coupled block, which sign patterns index a row the tables solve rather
than derive by the rotation r -> j r.

`simo3_closed_batch` is the hand-written closed form of a real 1x3 point,
one pilot and three receive antennas: the arcsine orthant probabilities
and Tallis means of its two sign triples, vectorised over patterns.  The
sweep took it before every non-linear point read the sign tables; it is
the independent oracle of their closed-form rows.
"""

import math

import numpy as np
from scipy.special import ndtr, ndtri

from onebitmimo import Estimate, positive_orthant_mean, standardize
from onebitmimo.estimators import STRUCT_TOL, _check_obs
from onebitmimo.exceptions import (
    AccuracyError,
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
)
from onebitmimo.model import _philox, check_hermitian, real_form
from onebitmimo.orthant import (
    _ARCSIN_SLACK,
    _N_SHIFTS,
    _POINTS_PER_DIM,
    DEFAULT_MAX_SAMPLES,
    DEFAULT_REL_TOL,
    _cbc_vector,
    _closed_orthant,
    _conditional_covariances,
    _prime_at_most,
    _qmc_orthant,
    _reordered_cholesky,
    _validate_spd,
    arcsin_clamped,
)

# Draws per batch of the Monte Carlo oracles; batching bounds memory and
# leaves the values unchanged.
_PROB_CHUNK = 2_000_000
_MEAN_CHUNK = 1_000_000


def sign_covariance(stats, obs):
    """Covariance S of the sign-folded observation x = Diag(r) [Re b; Im b]
    for one sign pattern.

    With L = Diag([Re r; Im r]), S is the 2 tau N_R real symmetric PD matrix

        (1/2) L [[Re Omega, -Im Omega], [Im Omega, Re Omega]] L,

    and the sign pattern r is the event x > 0.
    """
    _check_obs(stats, obs)
    signs = np.concatenate([obs.r_real, obs.r_imag])
    cov = 0.5 * real_form(stats.omega_b)
    return signs[:, None] * cov * signs[None, :]


def whole_s_mmse(stats, model, obs, rel_tol=DEFAULT_REL_TOL, method="auto", seed=0):
    """Exact posterior-mean channel estimate from one orthant reduction
    over the whole sign-folded covariance S.

    method only picks the label: "auto" says "mmse-closed" when no orthant
    needed the numeric integrator and "mmse-general" otherwise; "general"
    always says "mmse-general".
    """
    _check_obs(stats, obs)
    if method not in ("auto", "general"):
        raise DomainError(f"method must be 'auto' or 'general', got {method!r}")
    res = positive_orthant_mean(sign_covariance(stats, obs), rel_tol=rel_tol, seed=seed)
    t = stats.omega_b.shape[0]
    folded = obs.r_real * res.mean[:t] + 1j * obs.r_imag * res.mean[t:]
    h_hat = stats.sigma_ch @ (model.kron_matrix.conj().T @ (stats.omega_inv @ folded))
    closed = method == "auto" and res.method == "closed-form"
    return Estimate(h_hat=h_hat, estimator="mmse-closed" if closed else "mmse-general",
                    pr_r=float(res.prob))


def solved_by_the_tables(r_real, r_imag):
    """Whether the sign tables solve the row of pattern r, for an S that is
    one coupled block in coordinate order.

    The row indexes the signs after the first coordinate, folded by the
    first, as bits; the tables solve the smaller row of each pair r, j r,
    where j r = (-r_imag, r_real).
    """
    def row(signs):
        folded = signs[1:] * signs[0] < 0.0
        return int(folded @ (1 << np.arange(len(folded))))

    return row(np.concatenate([r_real, r_imag])) < row(np.concatenate([-r_imag, r_real]))


def _is_real(sigma_ch):
    return np.abs(sigma_ch.imag).max() <= STRUCT_TOL * max(np.abs(sigma_ch).max(), 1.0)


def simo3_closed_batch(sigma_ch, pilot, noise_var, r_real, r_imag):
    """Exact MMSE estimates for one pilot, three receive antennas and a real
    channel covariance.

    Antenna k observes variance d_k = |s|^2 sigma_kk + noise_var, so the
    real and imaginary sign triples see correlations
    beta_ij = |s|^2 sigma_ij / sqrt(d_i d_j), and coordinate k of their
    truncated means carries the factor conj(s) / (2 sqrt(pi d_k)).

    r_real and r_imag have shape (..., 3); returns estimates of shape
    (..., 3) and the sign-pattern probabilities of shape (...,).
    """
    sigma = np.asarray(sigma_ch)
    if sigma.shape != (3, 3):
        raise DimensionError(f"sigma_ch must be 3x3, got shape {sigma.shape}")
    if not _is_real(sigma):
        raise DomainError("sigma_ch must be real")
    sigma = check_hermitian(sigma.real.astype(float), "sigma_ch")
    r_real, r_imag = np.asarray(r_real, dtype=float), np.asarray(r_imag, dtype=float)
    if r_real.shape[-1:] != (3,) or r_imag.shape != r_real.shape:
        raise DimensionError(f"sign arrays must be (..., 3), got {r_real.shape}, {r_imag.shape}")
    s = complex(pilot)
    noise_var = float(noise_var)
    var = abs(s) ** 2 * sigma.diagonal() + noise_var
    if var.min() <= 0.0:
        raise DomainError("every observation variance |s|^2 sigma_kk + noise_var must be positive")
    beta = (abs(s) ** 2 / np.sqrt(np.outer(var, var))) * sigma
    b12, b13, b23 = beta[0, 1], beta[0, 2], beta[1, 2]
    for name, b in (("beta12", b12), ("beta13", b13), ("beta23", b23)):
        if abs(b) >= 1.0 - 1e-14:
            raise DomainError(f"{name} = {b!r} on the boundary of (-1, 1)")
    root = np.sqrt([1.0 - b12**2, 1.0 - b13**2, 1.0 - b23**2])
    partial = np.array(
        [
            (b23 - b12 * b13) / (root[0] * root[1]),
            (b13 - b12 * b23) / (root[0] * root[2]),
            (b12 - b13 * b23) / (root[1] * root[2]),
        ]
    )
    a_partial = arcsin_clamped(partial)
    a12, a13, a23 = arcsin_clamped(b12), arcsin_clamped(b13), arcsin_clamped(b23)

    def moments(signs):
        triple = signs.prod(axis=-1)
        v = signs / 4.0 + triple[..., None] * a_partial / (2.0 * np.pi)
        p = 0.125 + (
            signs[..., 0] * signs[..., 1] * a12
            + signs[..., 0] * signs[..., 2] * a13
            + signs[..., 1] * signs[..., 2] * a23
        ) / (4.0 * np.pi)
        if np.any(p <= 0.0):
            raise NotPositiveDefiniteError(
                "sign-pattern probability came out non-positive; "
                "sigma_ch is not a valid covariance"
            )
        return v, p

    v_r, p_r = moments(r_real)
    v_i, p_i = moments(r_imag)
    front = np.conj(s) / (2.0 * np.sqrt(np.pi * var))
    h_hat = front * (v_r / p_r[..., None] + 1j * v_i / p_i[..., None]) @ sigma
    return h_hat, p_r * p_i


def plackett_orthant_reference(psi, nodes=256):
    """P(u > 0) for u ~ N(0, psi) of at most 5 coordinates by Plackett's
    identity, P(R) = 2^-n + 1/(2 pi) sum_{i<j} int_0^{arcsin R_ij}
    P_{n-2}(R(t)_{.|ij}) du along R(t) = I + t (R - I) with t R_ij = sin u,
    on a `nodes`-point Gauss-Legendre rule per pair, one pair and one node
    at a time."""
    corr = standardize(psi)
    n = corr.shape[0]
    x, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.5**n
    for i, j in zip(*np.triu_indices(n, 1)):
        pair = [i, j]
        others = [k for k in range(n) if k not in pair]
        end = math.asin(corr[i, j])
        for node, weight in zip(0.5 + 0.5 * x, 0.5 * w):
            u = end * node
            t = math.sin(u) / corr[i, j] if corr[i, j] else 0.0
            r = np.eye(n) + t * (corr - np.eye(n))
            cond = r[np.ix_(others, others)] - r[np.ix_(others, pair)] @ np.linalg.solve(
                r[np.ix_(pair, pair)], r[np.ix_(pair, others)])
            total += end * weight * float(_closed_orthant(standardize(cond))) / (2.0 * math.pi)
    return total


def numeric_orthant_probability(psi, seed, rel_tol=DEFAULT_REL_TOL,
                                max_samples=DEFAULT_MAX_SAMPLES):
    """P(u > 0) for u ~ N(0, psi), integrated numerically without splitting."""
    corr = standardize(psi)
    return _qmc_orthant(corr, rel_tol, max_samples, seed)[0]


def numeric_orthant_mean(psi, seed, rel_tol=DEFAULT_REL_TOL):
    """(E[u | u > 0], P(u > 0)) for u ~ N(0, psi) from numeric probabilities."""
    prob = numeric_orthant_probability(psi, seed, rel_tol)
    g = np.array([
        numeric_orthant_probability(cond, seed + k + 1, rel_tol)
        for k, cond in enumerate(_conditional_covariances(psi))
    ])
    return psi @ (g / np.sqrt(2.0 * math.pi * psi.diagonal())) / prob, prob


def numeric_mmse(stats, model, obs, seed, rel_tol=DEFAULT_REL_TOL):
    """(h_hat, Pr(r)) of the posterior mean from numeric-only orthant integrals."""
    mean, prob = numeric_orthant_mean(sign_covariance(stats, obs), seed, rel_tol)
    t = obs.r_real.shape[0]
    folded = obs.r_real * mean[:t] + 1j * obs.r_imag * mean[t:]
    h_hat = stats.sigma_ch @ (model.kron_matrix.conj().T @ (stats.omega_inv @ folded))
    return h_hat, prob


def _integrand_sum(chol, pts):
    """Sum of sequential-conditioning integrand values over points in [0,1)^(L-1)."""
    n_pts, _ = pts.shape
    dim = chol.shape[0]
    prob = np.full(n_pts, 0.5)
    y = np.empty((n_pts, dim - 1))
    u = 0.5 + 0.5 * pts[:, 0]
    y[:, 0] = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    for i in range(1, dim):
        s = y[:, :i] @ chol[i, :i]
        e = ndtr(s / chol[i, i])
        prob *= e
        if i < dim - 1:
            u = (1.0 - e) + pts[:, i] * e
            y[:, i] = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
    return float(prob.sum())


def qmc_orthant_per_shift(corr, rel_tol, max_samples, seed):
    """`_qmc_orthant` with one integrand call per shift of each round.

    Same rounds, points, shifts, stopping rule and AccuracyError exit, so
    the two return the same (estimate, error_estimate) bit for bit.
    """
    n = corr.shape[0]
    chol = _reordered_cholesky(corr)
    rng = np.random.Generator(_philox(seed, 10_000))
    est, err = 0.0, math.inf
    evals = 0
    target = _POINTS_PER_DIM * n
    while True:
        n_pts = _prime_at_most(max(2, min(target, (max_samples - evals) // _N_SHIFTS)))
        z = _cbc_vector(n - 1, n_pts)
        base = np.arange(n_pts)[:, None] * z[None, :] % n_pts / n_pts
        means = np.empty(_N_SHIFTS)
        for s, shift in enumerate(rng.random((_N_SHIFTS, n - 1))):
            pts = np.abs(2.0 * np.mod(base + shift, 1.0) - 1.0)
            means[s] = _integrand_sum(chol, pts) / n_pts
        evals += _N_SHIFTS * n_pts
        round_err = float(means.std(ddof=1) / math.sqrt(_N_SHIFTS))
        if err == math.inf or round_err == 0.0:
            weight = 1.0
        else:
            weight = err**2 / (err**2 + round_err**2)
        est += weight * (float(means.mean()) - est)
        err = math.sqrt(weight) * round_err
        if est > 0.0 and err <= rel_tol * est:
            return est, err
        if evals >= max_samples:
            raise AccuracyError("budget spent", estimate=est, error_estimate=err)
        target = round(target * math.sqrt(2.0))


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
