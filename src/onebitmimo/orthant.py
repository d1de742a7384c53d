"""Positive-orthant integrals of multivariate Gaussians.

Two quantities drive the optimal estimator: the orthant probability

    P(psi) = Pr[u > 0],  u ~ N(0, psi),

and the truncated mean E[u | u > 0]; the estimator takes psi to be the
covariance S of the sign-folded observation.  Each coupled block of psi
takes one of three routes, none falling back on another:

* up to dimension MAX_CLOSED_DIM = 3, the exact arcsine closed forms;
* in dimensions 4 and 5, Plackett's (1954) identity, which writes P as
  2^-n plus one-dimensional integrals of the closed form of dimension
  n - 2, taken by globally adaptive Gauss-Kronrod bisection whose
  embedded Gauss rule gives the error estimate;
* beyond that, the Genz-Bretz method: the Cholesky factor is built with
  variable reordering (the least likely coordinate conditioned first),
  and the sequential-conditioning integrand is averaged over randomly
  shifted copies of a rank-1 lattice rule whose generating vector comes
  from the fast component-by-component (CBC) construction of Nuyens and
  Cools.  The spread over the shifts gives an error estimate alongside
  the value.  Each round is one vectorised integrand pass over all of its
  shifts, with the points per call bounded.

The truncated mean is reduced to a vector of one-dimension-lower orthant
probabilities of conditional covariances (Tallis 1961), so it inherits
whichever route those take.  One routine applies that reduction, each of
its probabilities by its own size: up to MAX_CLOSED_DIM coordinates one
closed-form call over a whole stack, which gives each matrix the bits it
would get alone, and beyond that orthant_probability.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri

from .exceptions import (
    AccuracyError,
    CapabilityError,
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
)
from .model import COUPLING_TOL, _philox, below_eig_floor, check_hermitian

# Defaults of the integrator's accuracy target and evaluation budget; every
# entry point that passes them on defaults to these.
DEFAULT_REL_TOL = 1e-4
DEFAULT_MAX_SAMPLES = 10_000_000

# Largest coupled block whose orthant probability has an arcsine closed form.
MAX_CLOSED_DIM = 3

# Largest dimension the quasi-random integrator will attempt.  Block-diagonal
# inputs are split first, so only the largest coupled block counts.
MAX_QMC_DIM = 16

# Tolerance for clamping arcsine arguments that rounding pushed past +-1.
_ARCSIN_SLACK = 1e-12

# Random shifts of the lattice per round; their spread gives the error estimate.
_N_SHIFTS = 10
# Lattice points per shift in the first round, per coupled dimension.
_POINTS_PER_DIM = 100
# Most points one integrand call evaluates, unless a single shift has more.
_MAX_CALL_POINTS = 2**16

# Largest coupled block whose orthant probability is integrated by Plackett's
# identity, one dimension of quadrature over closed forms of dimension n - 2.
_MAX_PLACKETT_DIM = MAX_CLOSED_DIM + 2
# Most panels the quadrature splits a block's integrals into, over all pairs.
_PLACKETT_PANELS = 1000

# The 15-point Gauss-Kronrod rule and its embedded 7-point Gauss rule
# (QUADPACK qk15, Piessens et al. 1983), moved from [-1, 1] to [0, 1]:
# nodes ascending, Gauss weights zero at the Kronrod-only nodes.
_KRONROD_HALF = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_KRONROD_HALF_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_NODES = 0.5 + 0.5 * np.concatenate([-_KRONROD_HALF, _KRONROD_HALF[-2::-1]])
_KRONROD_WEIGHTS = 0.5 * np.concatenate([_KRONROD_HALF_WEIGHTS, _KRONROD_HALF_WEIGHTS[-2::-1]])
_GAUSS_WEIGHTS = 0.5 * np.concatenate([_GAUSS_HALF_WEIGHTS, _GAUSS_HALF_WEIGHTS[-2::-1]])


def arcsin_clamped(x):
    """arcsin with tolerance for arguments barely outside [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _ARCSIN_SLACK):
        worst = float(np.max(np.abs(x)))
        raise DomainError(f"arcsin argument {worst!r} outside [-1, 1] beyond tolerance")
    return np.arcsin(np.clip(x, -1.0, 1.0))


def _validate_spd(m, name):
    """Check a real symmetric PD matrix; return its symmetrized copy."""
    m = check_hermitian(np.asarray(m, dtype=float), name)
    w = np.linalg.eigvalsh(m)
    if below_eig_floor(w):
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return m


def check_rel_tol(rel_tol):
    """Reject a relative tolerance outside (0, 1), NaN included."""
    if not 0.0 < float(rel_tol) < 1.0:
        raise DomainError(f"rel_tol must lie in (0, 1), got {rel_tol}")


def standardize(psi):
    """Rescale a covariance to unit diagonal: the correlation matrix corr
    with psi = Diag(scale) corr Diag(scale), scale = sqrt(diag psi)."""
    psi = _validate_spd(psi, "psi")
    scale = np.sqrt(psi.diagonal())
    corr = psi / np.outer(scale, scale)
    np.fill_diagonal(corr, 1.0)
    return corr


def _closed_orthant(cov):
    """Exact orthant probabilities of a (..., L, L) stack of covariances,
    L <= MAX_CLOSED_DIM: 2^-L plus the sum of the arcsines of the
    correlations over 2^(L-1) pi, so L = 0 gives 1 and L = 1 gives 1/2.
    Each step is elementwise or a sum over the last axis, so a matrix gets
    the same bits in a stack as alone; a unit diagonal divides out exactly."""
    n = cov.shape[-1]
    if n > MAX_CLOSED_DIM:
        raise DimensionError(f"no closed form for dimension {n}")
    # the pairs (0, 1), (0, 2), (1, 2) above the diagonal, in that order
    pairs = n * (n - 1) // 2
    i, j = [0, 0, 1][:pairs], [1, 2, 2][:pairs]
    scale = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    s = arcsin_clamped(cov[..., i, j] / (scale[..., i] * scale[..., j])).sum(-1)
    return 0.5**n + s / (2.0 ** (n - 1) * np.pi)


def _coupling_graph(m):
    """Adjacency of the coupling graph of a PD matrix, diagonal included:
    i and k couple when their correlation exceeds COUPLING_TOL in
    magnitude, |m_ik| > COUPLING_TOL sqrt(m_ii m_kk)."""
    d = np.sqrt(m.diagonal())
    return np.abs(m) > COUPLING_TOL * np.outer(d, d)


def _coupling_components(m):
    """Connected components of the coupling graph of a PD matrix, each as
    ascending indices, ordered by their smallest index."""
    reach = _coupling_graph(m)
    # square the reachability matrix until it covers paths of length n - 1
    for _ in range((m.shape[0] - 1).bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0
    return [np.flatnonzero(reach[i]) for i in range(m.shape[0]) if not reach[i, :i].any()]


@lru_cache(maxsize=None)
def _pair_indices(n):
    """(i, j, others) of the n (n - 1) / 2 pairs i < j of n coordinates:
    others[p] lists the n - 2 coordinates outside pair p, ascending."""
    i, j = np.triu_indices(n, 1)
    others = np.array([[k for k in range(n) if k not in pair] for pair in zip(i, j)],
                      dtype=int).reshape(len(i), n - 2)
    for index in (i, j, others):
        index.setflags(write=False)
    return i, j, others


def _plackett_orthant(corr, rel_tol):
    """Orthant probability of a standardized covariance R of n <= 5
    coordinates by Plackett's (1954) identity, as (estimate, error estimate).

    Along R(t) = I + t (R - I), dP/dR_ij = phi_2(0, 0; R_ij) P_{n-2}(R_{.|ij}),
    with R_{.|ij} the correlation of the other coordinates given
    x_i = x_j = 0; substituting t R_ij = sin u cancels the bivariate density:

        P(R) = 2^-n + 1/(2 pi) sum_{i<j} int_0^{arcsin R_ij} P_{n-2}(R(t)_{.|ij}) du.

    The path is a convex combination of I and R, so it stays positive
    definite, and P_{n-2} is the arcsine closed form.  Each pair's integral
    starts as one panel of the 15-point Kronrod rule, whose gap to the
    embedded 7-point Gauss rule is the panel's error estimate; panels are
    bisected globally adaptively (QUADPACK) until the summed gap is at most
    rel_tol times the estimate, else AccuracyError past _PLACKETT_PANELS.
    """
    n = corr.shape[0]
    i, j, others = _pair_indices(n)
    rho = corr[i, j]
    end = arcsin_clamped(rho)
    # conditional covariance of the others given x_i = x_j = 0 at R(t): the
    # rows a, b of R(t) towards i, j are t a, t b and their correlation is s
    a, b = corr[others, i[:, None]], corr[others, j[:, None]]
    outer = lambda x, y: x[:, :, None] * y[:, None, :]
    same, cross = outer(a, a) + outer(b, b), outer(a, b) + outer(b, a)
    eye = np.eye(n - 2)
    off = corr[others[:, :, None], others[:, None, :]] * (1.0 - eye)
    # each panel's pair, left end and width on the unit interval that
    # u / arcsin R_ij runs over; kronrod and gap hold the leading panels' sums
    pair, left, width = np.arange(len(rho)), np.zeros(len(rho)), np.ones(len(rho))
    kronrod = gap = np.empty(0)
    while True:
        p, h = pair[len(kronrod):], width[len(kronrod):]
        u = (end[p] * (left[len(kronrod):] + h * _NODES[:, None]))[..., None, None]
        s, cos2, r = np.sin(u), np.cos(u) ** 2, rho[p, None, None]
        t = np.divide(s, r, out=np.zeros_like(s), where=r != 0.0)
        f = _closed_orthant(t * off[p] + eye - t * t * (same[p] - s * cross[p]) / cos2)
        k = h * np.tensordot(_KRONROD_WEIGHTS, f, axes=(0, 0))
        gap = np.concatenate([gap, np.abs(k - h * np.tensordot(_GAUSS_WEIGHTS, f, axes=(0, 0)))])
        kronrod = np.concatenate([kronrod, k])
        est = 0.5**n + float(end @ np.bincount(pair, kronrod, len(rho))) / (2.0 * np.pi)
        err = float(np.abs(end[pair]) @ gap) / (2.0 * np.pi)
        if err <= rel_tol * est:
            return est, err
        # halve the worst panel and every panel above an even share of rel_tol
        panel_err = np.abs(end[pair]) * gap / (2.0 * np.pi)
        split = panel_err > rel_tol * est / len(pair)
        split[np.argmax(panel_err)] = True
        if len(pair) + np.count_nonzero(split) > _PLACKETT_PANELS:
            raise AccuracyError(f"quadrature needs over {_PLACKETT_PANELS} panels for relative "
                                f"tolerance {rel_tol:g} (estimate {est:.6e}, error {err:.2e})",
                                estimate=est, error_estimate=err)
        half = width[split] / 2.0
        pair = np.concatenate([pair[~split], pair[split], pair[split]])
        left = np.concatenate([left[~split], left[split], left[split] + half])
        width = np.concatenate([width[~split], half, half])
        kronrod, gap = kronrod[~split], gap[~split]


def _reordered_cholesky(corr):
    """Cholesky factor of corr with the Genz-Bretz variable prioritisation.

    At step k the remaining coordinate with the smallest conditional
    probability of being positive, given the expected values of the
    coordinates already placed, goes next.  Orthant bounds [0, inf) are
    unchanged by the permutation, so the factor of the permuted matrix is
    all the sequential-conditioning integrand needs.
    """
    a = corr.copy()
    n = a.shape[0]
    chol = np.zeros((n, n))
    y = np.zeros(n)
    for k in range(n):
        var = a.diagonal()[k:] - np.einsum("ij,ij->i", chol[k:, :k], chol[k:, :k])
        if var.min() <= 0.0:
            raise NotPositiveDefiniteError("correlation matrix is not positive definite")
        shift = chol[k:, :k] @ y[:k]
        m = k + int(np.argmin(ndtr(shift / np.sqrt(var))))
        if m != k:
            a[[k, m]] = a[[m, k]]
            a[:, [k, m]] = a[:, [m, k]]
            chol[[k, m], :k] = chol[[m, k], :k]
        ckk = math.sqrt(var[m - k])
        chol[k, k] = ckk
        chol[k + 1 :, k] = (a[k + 1 :, k] - chol[k + 1 :, :k] @ chol[k, :k]) / ckk
        # mean of a standard normal truncated to (lo, inf): the inverse Mills ratio
        lo = -shift[m - k] / ckk
        y[k] = math.exp(-0.5 * lo * lo - log_ndtr(-lo)) / math.sqrt(2.0 * np.pi)
    return chol


def _prime_at_most(x):
    """Largest prime <= x, for x >= 2."""
    n = int(x)
    while n > 2 and not all(n % p for p in range(2, math.isqrt(n) + 1)):
        n -= 1
    return n


def _primitive_root(n):
    """Smallest generator of the multiplicative group modulo the odd prime n."""
    factors, m, p = [], n - 1, 2
    while p * p <= m:
        if m % p == 0:
            factors.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(2, n) if all(pow(g, (n - 1) // f, n) != 1 for f in factors))


@lru_cache(maxsize=256)
def _cbc_vector(dim, n):
    """Generating vector of an n-point rank-1 lattice rule in dim dimensions.

    Fast component-by-component construction (Nuyens & Cools 2006) for
    prime n, minimising the worst-case error in the weighted Korobov space
    with kernel B2(x) = x^2 - x + 1/6 and product weights 0.8^j.  Ordering
    the candidates by powers of a primitive root makes the search for each
    component one circular correlation, done with numpy.fft.  The result is
    read-only because the cache hands it to every caller.
    """
    z = np.ones(dim, dtype=np.int64)
    half = (n - 1) // 2
    if half >= 1:
        g = _primitive_root(n)
        powers = np.ones(half, dtype=np.int64)
        for j in range(1, half):
            powers[j] = powers[j - 1] * g % n
        folded = np.minimum(powers, n - powers)
        x = folded / n
        kernel = x * x - x + 1.0 / 6.0
        kernel_hat = np.fft.fft(kernel)
        q = 1.0 + kernel
        for s in range(1, dim):
            score = np.fft.ifft(np.conj(np.fft.fft(q)) * kernel_hat).real
            best = int(np.argmin(score))
            z[s] = folded[best]
            q *= 1.0 + 0.8**s * np.roll(kernel, -best)
    z.setflags(write=False)
    return z


def _qmc_orthant(corr, rel_tol, max_samples, seed):
    """Genz-Bretz orthant integration: reordered sequential conditioning over
    randomly shifted, tent-transformed CBC lattice rules.

    Each round uses _N_SHIFTS independent shifts of a prime-point lattice,
    the point count growing by about sqrt(2) per round, and rounds are
    combined with inverse-variance weights.  A round is one vectorised
    integrand pass over its shifts, split into calls of whole shifts of at
    most _MAX_CALL_POINTS points (one shift per call when a shift alone is
    larger); each shift's mean is the sum of its own row, so the result is
    the same as integrating shift by shift.  Returns (estimate,
    error_estimate) where the error is one standard error.  Raises
    AccuracyError when max_samples integrand evaluations do not reach
    rel_tol relative accuracy.
    """
    n = corr.shape[0]
    if n > MAX_QMC_DIM:
        raise CapabilityError(
            f"orthant integration supports coupled dimension <= {MAX_QMC_DIM}, got {n}"
        )
    if n == 1:
        return 0.5, 0.0
    chol = _reordered_cholesky(corr)
    rng = np.random.Generator(_philox(seed, 10_000))

    est, err = 0.0, math.inf
    evals = 0
    target = _POINTS_PER_DIM * n
    while True:
        n_pts = _prime_at_most(max(2, min(target, (max_samples - evals) // _N_SHIFTS)))
        z = _cbc_vector(n - 1, n_pts)
        base = np.arange(n_pts)[:, None] * z[None, :] % n_pts / n_pts
        shifts = rng.random((_N_SHIFTS, n - 1))
        # whole shifts per integrand call, as many as fit in _MAX_CALL_POINTS
        per_call = max(1, _MAX_CALL_POINTS // n_pts)
        sums = []
        for first in range(0, _N_SHIFTS, per_call):
            pts = base[None] + shifts[first : first + per_call, None, :]
            # every value lies in [0, 2), so this is mod 1 to the bit
            pts -= pts >= 1.0
            pts = np.abs(2.0 * pts - 1.0)
            values = _integrand(chol, pts.reshape(-1, n - 1)).reshape(len(pts), n_pts)
            sums.extend(float(row.sum()) for row in values)
        means = np.array(sums) / n_pts
        evals += _N_SHIFTS * n_pts
        round_err = float(means.std(ddof=1) / math.sqrt(_N_SHIFTS))
        # inverse-variance weight of this round against all earlier ones
        if err == math.inf or round_err == 0.0:
            weight = 1.0
        else:
            weight = err**2 / (err**2 + round_err**2)
        est += weight * (float(means.mean()) - est)
        err = math.sqrt(weight) * round_err
        if est > 0.0 and err <= rel_tol * est:
            return est, err
        if evals >= max_samples:
            raise AccuracyError(
                f"orthant integration used {evals} evaluations without reaching "
                f"relative tolerance {rel_tol:g} (estimate {est:.6e}, error {err:.2e})",
                estimate=est,
                error_estimate=err,
            )
        target = round(target * math.sqrt(2.0))


def _integrand(chol, pts):
    """Sequential-conditioning integrand values at points in [0,1)^(L-1)."""
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
    return prob


def _check_stream_keys(first, last):
    """DomainError unless the integrator seeds first..last can key Philox
    streams; checked for every block beyond MAX_CLOSED_DIM coordinates,
    though only the lattice, not the quadrature, reads a seed."""
    if first < 0 or last >= 2**64:
        raise DomainError(f"integrator seeds {first}..{last} must lie in [0, 2**64)")


def orthant_probability(psi, rel_tol=DEFAULT_REL_TOL, max_samples=DEFAULT_MAX_SAMPLES,
                        seed=0):
    """Probability that a N(0, psi) vector lands in the positive orthant.

    Uncoupled blocks are split off first, and each takes one route by its
    size: up to MAX_CLOSED_DIM coordinates the arcsine closed forms
    exactly, 4 and 5 Plackett's identity by adaptive quadrature (see
    _plackett_orthant), and more the quasi-random integrator at the seed.
    Both numeric routes work to relative tolerance rel_tol, which must lie
    in (0, 1), and raise AccuracyError when their budget runs out first.
    The seed must key a Philox stream, 0 <= seed < 2**64, once a block
    has 4 or more coordinates, whichever route serves it.
    """
    check_rel_tol(rel_tol)
    corr = standardize(psi)
    blocks = _coupling_components(corr)
    if max(len(comp) for comp in blocks) > MAX_CLOSED_DIM:
        _check_stream_keys(seed, seed)
    prob = 1.0
    for comp in blocks:
        sub = corr[np.ix_(comp, comp)]
        if len(comp) <= MAX_CLOSED_DIM:
            prob *= _closed_orthant(sub)
        elif len(comp) <= _MAX_PLACKETT_DIM:
            prob *= _plackett_orthant(sub, rel_tol)[0]
        else:
            prob *= _qmc_orthant(sub, rel_tol, max_samples, seed)[0]
    return prob


@dataclass(frozen=True)
class TruncatedMeanResult:
    """Positive-orthant moments of u ~ N(0, psi).

    mean is E[u | u > 0] and prob is P(u > 0).  method records whether
    every coupled block was small enough for closed forms ("closed-form")
    or some went through the numeric integrator ("reduction").
    """

    mean: np.ndarray
    prob: float
    method: str


def _conditional_covariances(psi):
    """cond[..., k, :, :], the covariance of the other coordinates of
    u ~ N(0, psi) given u_k = 0, for each k and each matrix of a (..., L, L)
    stack; elementwise, so a matrix gets the same bits in a stack as alone."""
    n = psi.shape[-1]
    others = np.array([[i for i in range(n) if i != k] for k in range(n)], dtype=int)
    f = psi[..., others, np.arange(n)[:, None]]
    diag = np.diagonal(psi, axis1=-2, axis2=-1)
    return (psi[..., others[:, :, None], others[:, None, :]]
            - f[..., :, :, None] * f[..., :, None, :] / diag[..., :, None, None])


def _mean_single_block(psi, rel_tol=DEFAULT_REL_TOL, max_samples=DEFAULT_MAX_SAMPLES,
                       seed=0):
    """(E[u | u > 0], P(u > 0)) by Tallis (see positive_orthant_mean) for
    each matrix of a (..., L, L) stack of coupled blocks, or one block when
    L > MAX_CLOSED_DIM: P(psi) at seed and P(psi_k) at seed + k + 1, each a
    stacked closed form up to MAX_CLOSED_DIM coordinates, else integrated."""

    def probability(m, seeds):
        if m.shape[-1] <= MAX_CLOSED_DIM:
            return _closed_orthant(m)
        return np.array([orthant_probability(x, rel_tol=rel_tol, max_samples=max_samples, seed=s)
                         for x, s in zip(m, seeds, strict=True)])

    prob = probability(psi[None], [seed])[0]
    g = probability(_conditional_covariances(psi), range(seed + 1, seed + psi.shape[-1] + 1))
    w = g / np.sqrt(2.0 * np.pi * np.diagonal(psi, axis1=-2, axis2=-1))
    return (psi * w[..., None, :]).sum(-1) / np.expand_dims(prob, -1), prob


def positive_orthant_mean(psi, rel_tol=DEFAULT_REL_TOL, max_samples=DEFAULT_MAX_SAMPLES,
                          seed=0):
    """Truncated mean E[u | u > 0] and probability P(u > 0) of u ~ N(0, psi).

    By Tallis (1961), E[u | u > 0] = psi g / P(psi) with
    g_k = P(psi_k) / sqrt(2 pi psi_kk), where psi_k is the covariance of
    the other coordinates given u_k = 0; each coordinate costs one orthant
    probability of one dimension less, plus one for P(psi).  Uncoupled
    blocks of psi factor the distribution and are solved independently,
    block j with seeds offset by 1000 j.  Block j of 4 or more coordinates
    may integrate at seeds seed + 1000 j + k, k = 0..len(block); these key
    Philox streams, so every one of them must lie in [0, 2**64), or
    DomainError is raised before any block is solved, whichever of
    orthant_probability's routes would have served it.
    """
    check_rel_tol(rel_tol)
    psi = _validate_spd(psi, "psi")
    blocks = _coupling_components(psi)
    for j, comp in enumerate(blocks):
        if len(comp) > MAX_CLOSED_DIM:
            _check_stream_keys(seed + 1000 * j, seed + 1000 * j + len(comp))
    mean = np.empty(psi.shape[0])
    prob = 1.0
    for j, comp in enumerate(blocks):
        sub = psi[np.ix_(comp, comp)]
        mean[comp], p = _mean_single_block(sub, rel_tol, max_samples, seed + 1000 * j)
        prob *= p
    closed = max(len(comp) for comp in blocks) <= MAX_CLOSED_DIM
    return TruncatedMeanResult(mean=mean, prob=prob,
                               method="closed-form" if closed else "reduction")
