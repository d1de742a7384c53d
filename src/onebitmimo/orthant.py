"""Positive-orthant integrals of multivariate Gaussians.

Two quantities drive the optimal estimator: the orthant probability

    P(psi) = Pr[u > 0],  u ~ N(0, psi),

and the truncated mean E[u | u > 0]; the estimator takes psi to be the
real covariance S of the sign-folded observation.  Every entry point checks
psi once, in _split, as a real matrix or non-empty stack (number_array
refuses a complex one, such as Omega), and splits it before it solves any
block; each coupled block takes one of four routes, none falling back:

* up to dimension MAX_CLOSED_DIM = 3, the exact arcsine closed forms;
* in dimensions 4 and 5, Plackett's (1954) identity, which writes P as
  2^-n plus one-dimensional integrals of the closed form of dimension
  n - 2, taken by globally adaptive Gauss-Kronrod bisection whose
  embedded Gauss rule gives the error estimate;
* in dimension 6, the same identity nested once: its integrand, an orthant
  probability of dimension 4, is that quadrature over closed forms of
  dimension 2, and both levels refine;
* from dimension 7, the Genz-Bretz method: the Cholesky factor is built with
  variable reordering (the least likely coordinate conditioned first),
  and the sequential-conditioning integrand is averaged over randomly
  shifted copies of a rank-1 lattice rule whose generating vector comes
  from the fast component-by-component (CBC) construction of Nuyens and
  Cools.  The spread over the shifts gives an error estimate alongside
  the value.  Each round is one vectorised integrand pass over all of its
  shifts, with the points per call bounded.

The truncated mean is reduced to a vector of one-dimension-lower orthant
probabilities of conditional covariances (Tallis 1961), so it inherits
whichever route those take.  One routine applies it to each block of a
stack of matrices, each probability by its size: up to MAX_CLOSED_DIM
coordinates one closed-form call over the stack, beyond that
orthant_probability per matrix; either way a matrix gets its own bits.

Only the Genz-Bretz route calls scipy.special (ndtr, ndtri, log_ndtr), so
_reordered_cholesky and _integrand import it on first use and blocks of up
to six coordinates never load scipy.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import (
    AccuracyError,
    CapabilityError,
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
)
from .model import (
    COUPLING_TOL,
    _philox,
    below_eig_floor,
    check_hermitian,
    check_number,
    number_array,
)

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
# identity, over closed forms of dimension n - 2 or, nested once, over itself.
_MAX_PLACKETT_DIM = MAX_CLOSED_DIM + 3
# Most panels the quadrature splits a block's integrals into, over all pairs;
# each tightening of a panel's nested tolerance counts as one more.
_PLACKETT_PANELS = 1000


def _unit_rule(half_nodes, half_kronrod, half_gauss):
    """(nodes, Kronrod weights, Gauss weights) of a Gauss-Kronrod rule given on
    [-1, 0], moved to [0, 1]: Gauss weights are zero at Kronrod-only nodes."""
    mirror = lambda x, sign=1.0: np.concatenate([sign * np.array(x), x[-2::-1]])
    return 0.5 + 0.5 * mirror(half_nodes, -1.0), 0.5 * mirror(half_kronrod), 0.5 * mirror(half_gauss)


# The 15-point Gauss-Kronrod rule and its embedded 7-point Gauss rule
# (QUADPACK qk15, Piessens et al. 1983) for the outer level, and the 7-point
# rule with its embedded 3-point Gauss rule (G3K7) for every nested level.
_RULE_15 = _NODES, _KRONROD_WEIGHTS, _GAUSS_WEIGHTS = _unit_rule([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
], [
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
], [
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_RULE_7 = _unit_rule([
    0.960491268708020283423507092629080, 0.774596669241483377035853079956480,
    0.434243749346802558002071502844628, 0.0,
], [
    0.104656226026467265193823857192073, 0.268488089868333440728569280666710,
    0.401397414775962222905051818618432, 0.450916538658474142345110446691140,
], [0.0, 5.0 / 9.0, 0.0, 8.0 / 9.0])


def arcsin_clamped(x):
    """arcsin with tolerance for arguments barely outside [-1, 1]."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _ARCSIN_SLACK):
        worst = float(np.max(np.abs(x)))
        raise DomainError(f"arcsin argument {worst!r} outside [-1, 1] beyond tolerance")
    return np.arcsin(np.clip(x, -1.0, 1.0))


def _validate_spd(m, name):
    """Check a real symmetric PD matrix; return its symmetrized copy."""
    m = check_hermitian(m, name)
    w = np.linalg.eigvalsh(m)
    if below_eig_floor(w):
        raise NotPositiveDefiniteError(
            f"{name} is not positive definite (eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return m


def check_rel_tol(rel_tol):
    """Reject a relative tolerance that is not a number in (0, 1), NaN included."""
    if not 0.0 < check_number(rel_tol, "rel_tol") < 1.0:
        raise DomainError(f"rel_tol must be a number in (0, 1), got {rel_tol!r}")


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
    Only the diagonal and the entries above it are read (_closed_entries)."""
    i, j = _above_diagonal(cov.shape[-1])
    return _closed_entries(np.moveaxis(np.diagonal(cov, axis1=-2, axis2=-1), -1, 0),
                           np.moveaxis(cov[..., i, j], -1, 0))


@lru_cache(maxsize=None)
def _above_diagonal(n):
    """np.triu_indices(n, 1), read-only: the entries above the diagonal."""
    out = np.triu_indices(n, 1)
    for index in out:
        index.setflags(write=False)
    return out


def _correlations(diag, upper):
    """Correlations at the entries upper (L (L - 1) / 2, ...) above the
    diagonal of a stack of covariances with diagonal diag (L, ...)."""
    i, j = _above_diagonal(len(diag))
    scale = np.sqrt(diag)
    return upper / (scale[i] * scale[j])


def _closed_entries(diag, upper):
    """_closed_orthant from the entries of _correlations (L <= MAX_CLOSED_DIM,
    as every caller routes): elementwise and summed over the entries, so a
    matrix gets the same bits in a stack as alone; a unit diagonal divides
    out exactly."""
    n = len(diag)
    s = arcsin_clamped(_correlations(diag, upper)).sum(0)
    return 0.5**n + s / (2.0 ** (n - 1) * np.pi)


def _coupling_graph(m):
    """Adjacency of the coupling graph of each PD matrix of a stack, diagonal
    included: i and k couple when their correlation exceeds COUPLING_TOL
    in magnitude, |m_ik| > COUPLING_TOL sqrt(m_ii m_kk)."""
    d = np.sqrt(np.diagonal(m, axis1=-2, axis2=-1))
    return np.abs(m) > COUPLING_TOL * (d[..., :, None] * d[..., None, :])


def _coupling_components(m):
    """Connected components of the union of the coupling graphs of a stack
    of PD matrices, each as ascending indices, ordered by the smallest."""
    reach = _coupling_graph(m).reshape(-1, *m.shape[-2:]).any(0)
    # square the reachability matrix until it covers paths of length n - 1
    for _ in range((m.shape[-1] - 1).bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0
    return [np.flatnonzero(reach[i]) for i in range(m.shape[-1]) if not reach[i, :i].any()]


@lru_cache(maxsize=None)
def _pair_indices(n):
    """Read-only (E, pairs) gathers from the entries above the diagonal of n
    coordinates, and eye (E,): the conditional matrix of the others of pair
    i < j is taken at its diagonal (eye 1), then above (eye 0); at each such
    entry, i_first locates (i, row's other), i_second (i, column's other),
    j_first and j_second likewise, off (row's other, column's other)."""
    i, j = _above_diagonal(n)
    at = np.zeros((n, n), dtype=int)
    at[i, j] = at[j, i] = np.arange(len(i))
    others = np.array([[k for k in range(n) if k not in pair] for pair in zip(i, j)],
                      dtype=int).reshape(len(i), n - 2).T
    first, second = (np.concatenate([np.arange(n - 2), index])
                     for index in _above_diagonal(n - 2))
    out = (*(at[others[index], coordinate] for coordinate in (i, j) for index in (first, second)),
           at[others[first], others[second]], (first == second) * 1.0)
    for index in out:
        index.setflags(write=False)
    return out


def _plackett_quadrature(upper, n, rel_tol, abs_tol, rule):
    """(estimates, errors) of P of M correlation matrices of n coordinates,
    upper (n (n - 1) / 2, M) their entries above the diagonal, by Plackett's
    identity (see _plackett_orthant) under rule (nodes, Kronrod and Gauss
    weights).  A panel's error is its Kronrod-Gauss gap plus, where P_{n-2}
    is this quadrature under _RULE_7, the inner errors at the Kronrod
    weights, times |arcsin R_ij| / 2 pi.  Until a matrix's error is at most
    rel_tol P + abs_tol, its worst panel and all above an even share of that
    are halved or, where the inner part outweighs the gap, taken again at
    an inner tolerance that meets the share; a matrix stops where its
    panels, tightenings counted, would pass _PLACKETT_PANELS."""
    nodes, kronrod_weights, gauss_weights = rule
    pairs, m = upper.shape
    i_first, i_second, j_first, j_second, off_at, eye = _pair_indices(n)
    # conditional covariance of the others given x_i = x_j = 0 at R(t): the
    # rows a, b of R(t) towards i, j are t a, t b and their correlation is
    # s; (E, pairs * m) entries of cell = pair * m + matrix
    end, rho = arcsin_clamped(upper).ravel(), upper.ravel()
    a, b = upper[i_first], upper[j_first]
    same = (a * upper[i_second] + b * upper[j_second]).reshape(len(eye), -1)
    cross = (a * upper[j_second] + b * upper[i_second]).reshape(len(eye), -1)
    off = (upper[off_at] * (1.0 - eye)[:, None, None]).reshape(len(eye), -1)
    eye = eye[:, None, None]
    # each panel's cell, left end and width on the unit interval that
    # u / arcsin R_ij runs over, and inner tolerance; kronrod, gap and inner
    # hold the leading panels' sums
    cell, left, width = np.arange(pairs * m), np.zeros(pairs * m), np.ones(pairs * m)
    tol = np.full(pairs * m, np.inf)
    kronrod = gap = inner = np.empty(0)
    spent, stopped = np.zeros(m, dtype=int), np.zeros(m, dtype=bool)
    while True:
        new, h = len(kronrod), width[len(kronrod):]
        q = cell[new:]
        u = end[q] * (left[new:] + h * nodes[:, None])
        s, cos2, r = np.sin(u), np.cos(u) ** 2, rho[q]
        t = s / np.where(r != 0.0, r, 1.0)  # s = 0 where r = 0
        # entries first; np.take keeps each gather contiguous
        at = lambda x: np.take(x, q, axis=1)[:, None]
        c = t * at(off) + eye - t * t * (at(same) - s * at(cross)) / cos2
        if n - 2 <= MAX_CLOSED_DIM:
            f, k_err = _closed_entries(c[: n - 2], c[n - 2 :]), np.zeros(len(q))
        else:
            f, f_err = (v.reshape(u.shape) for v in _plackett_quadrature(
                _correlations(c[: n - 2], c[n - 2 :]).reshape(-1, u.size), n - 2, 0.0,
                np.broadcast_to(tol[new:], u.shape).ravel(), _RULE_7))
            k_err = h * (kronrod_weights @ f_err)
        k = h * (kronrod_weights @ f)
        gap = np.concatenate([gap, np.abs(k - h * (gauss_weights @ f))])
        inner = np.concatenate([inner, k_err])
        kronrod = np.concatenate([kronrod, k])
        sums = np.bincount(cell, kronrod, pairs * m).reshape(pairs, m)
        est = 0.5**n + (end.reshape(pairs, m).T[:, None] @ sums.T[..., None])[:, 0, 0] / (
            2.0 * np.pi)
        panel_err = np.abs(end[cell]) * (gap + inner) / (2.0 * np.pi)
        mat = cell % m
        err, live = np.bincount(mat, panel_err, m), np.bincount(mat, minlength=m)
        goal = rel_tol * est + abs_tol
        if (err <= goal).all():
            return est, err
        # refine the worst panel and every panel above an even share of goal
        share = (goal / live)[mat]
        split = panel_err > share
        order = np.lexsort((-panel_err, mat))
        split[order[np.diff(mat[order], prepend=-1) != 0]] = True
        split &= (err > goal)[mat]
        stopped |= live + spent + np.bincount(mat[split], minlength=m) > _PLACKETT_PANELS
        split &= ~stopped[mat]
        if not split.any():
            return est, err
        tighten, halve = split & (inner > gap), split & (inner <= gap)
        spent += np.bincount(mat[tighten], minlength=m)
        # tightened panels take an inner tolerance that meets their share
        # (inner > 0 only where arcsin R_ij != 0); halved ones keep theirs
        need = 2.0 * np.pi * share[tighten] / (np.abs(end[cell[tighten]]) * width[tighten])
        tol[tighten] = np.minimum(tol[tighten], need) / 2.0
        width[halve] /= 2.0
        # kept panels, tightened ones, then both halves of each halved one
        regroup = lambda x, y: np.concatenate([x[~split], x[tighten], x[halve], y[halve]])
        left, cell, tol, width = (regroup(x, y) for x, y in (
            (left, left + width), (cell, cell), (tol, tol), (width, width)))
        kronrod, gap, inner = kronrod[~split], gap[~split], inner[~split]


def _plackett_orthant(cov, rel_tol):
    """Orthant probability of a covariance of n <= 6 coordinates, with
    correlations R, by Plackett's (1954) identity, as (estimate, error).

    Along R(t) = I + t (R - I), dP/dR_ij = phi_2(0, 0; R_ij) P_{n-2}(R_{.|ij}),
    with R_{.|ij} the correlation of the other coordinates given
    x_i = x_j = 0; substituting t R_ij = sin u cancels the bivariate density:

        P(R) = 2^-n + 1/(2 pi) sum_{i<j} int_0^{arcsin R_ij} P_{n-2}(R(t)_{.|ij}) du.

    The path is a convex combination of I and R, so it stays positive
    definite.  P_{n-2} is the arcsine closed form up to n = 5; at n = 6 it is
    this identity again over closed forms of 2 coordinates (Miwa, Hayter &
    Kuriki 2003), each conditional computed only at the entries the next
    level reads.  Each pair's integral starts as one panel of the 15-point
    Kronrod rule, the inner ones as one of the 7-point rule, whose gaps to
    the embedded Gauss rules give the error estimate; both levels are
    refined globally adaptively (QUADPACK; see _plackett_quadrature) until
    it is at most rel_tol times the estimate, else AccuracyError once the
    block's panels would pass _PLACKETT_PANELS.
    """
    n = cov.shape[0]
    i, j = _above_diagonal(n)
    upper = _correlations(cov.diagonal()[:, None], cov[i, j][:, None])
    est, err = (float(v[0]) for v in _plackett_quadrature(upper, n, rel_tol, 0.0, _RULE_15))
    if err > rel_tol * est:
        raise AccuracyError(f"quadrature needs over {_PLACKETT_PANELS} panels for relative "
                            f"tolerance {rel_tol:g} (estimate {est:.6e}, error {err:.2e})",
                            estimate=est, error_estimate=err)
    return est, err


def _reordered_cholesky(corr):
    """Cholesky factor of corr with the Genz-Bretz variable prioritisation.

    At step k the remaining coordinate with the smallest conditional
    probability of being positive, given the expected values of the
    coordinates already placed, goes next.  Orthant bounds [0, inf) are
    unchanged by the permutation, so the factor of the permuted matrix is
    all the sequential-conditioning integrand needs.
    """
    # local: only blocks of 7 or more coordinates need scipy.special
    from scipy.special import log_ndtr, ndtr

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
    """Genz-Bretz orthant integration of a correlation matrix of two or more
    coordinates: reordered sequential conditioning over randomly shifted,
    tent-transformed CBC lattice rules.

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
    # local: only blocks of 7 or more coordinates need scipy.special
    from scipy.special import ndtr, ndtri

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


def _split(psi, rel_tol, max_samples, seed, tallis):
    """(psi, blocks): a matrix or non-empty (..., n, n) stack psi, each checked
    by _validate_spd, and the coupled blocks of the union of their coupling
    graphs, after every check an orthant call makes before it solves one:
    rel_tol in (0, 1), max_samples an integer of at least one lattice round,
    2 _N_SHIFTS, seed an integer, each block at most MAX_QMC_DIM coordinates
    (else CapabilityError) and, past MAX_CLOSED_DIM, its Philox seeds in
    [0, 2**64): seed, or with tallis seed + 1000 j + k, k = 0..len(block j)."""
    check_rel_tol(rel_tol)
    check_number(max_samples, "max_samples", integral=True, low=2 * _N_SHIFTS)
    check_number(seed, "seed", integral=True)
    psi = number_array(psi, "psi")
    psi = number_array(psi, "psi", ndim=max(psi.ndim, 2))
    flat = psi.reshape(-1, *psi.shape[-2:]) if psi.ndim > 2 else [psi]
    psi = np.reshape([_validate_spd(m, "psi") for m in flat], psi.shape)
    blocks = _coupling_components(psi)
    for j, comp in enumerate(blocks):
        if len(comp) > MAX_QMC_DIM:
            raise CapabilityError(f"no orthant integrator for a coupled block of {len(comp)} "
                                  f"coordinates > {MAX_QMC_DIM}")
        if len(comp) > MAX_CLOSED_DIM:
            first, span = (seed + 1000 * j, len(comp)) if tallis else (seed, 0)
            for key in (first, first + span):
                check_number(key, "integrator seed", integral=True, low=0, high=2**64)
    return psi, blocks


def orthant_probability(psi, rel_tol=DEFAULT_REL_TOL, max_samples=DEFAULT_MAX_SAMPLES,
                        seed=0):
    """Probability that a N(0, psi) vector lands in the positive orthant.

    psi is split into uncoupled blocks (_split), and each block takes one
    route by its size: up to MAX_CLOSED_DIM coordinates the arcsine closed
    forms exactly, 4 and 5 Plackett's identity by adaptive quadrature, 6
    that quadrature nested once (see _plackett_orthant), and 7 or more the
    quasi-random integrator at the seed, the only route that standardizes.
    Both numeric routes work to relative tolerance rel_tol, which must lie
    in (0, 1), and raise AccuracyError when their budget runs out first;
    the lattice's, max_samples evaluations, must be an integer of at least
    one round, 2 _N_SHIFTS.  The seed must be an integer, 0 <= seed < 2**64
    once a block has 4 or more coordinates, whichever route serves it.
    _split checks all of these before any block is solved.
    """
    psi = number_array(psi, "psi")
    if psi.ndim != 2:
        raise DimensionError(f"psi must be a 2-d array, got shape {psi.shape}")
    psi, blocks = _split(psi, rel_tol, max_samples, seed, tallis=False)
    prob = 1.0
    for comp in blocks:
        sub = psi[np.ix_(comp, comp)]
        if len(comp) <= MAX_CLOSED_DIM:
            prob *= _closed_orthant(sub)
        elif len(comp) <= _MAX_PLACKETT_DIM:
            prob *= _plackett_orthant(sub, rel_tol)[0]
        else:
            prob *= _qmc_orthant(standardize(sub), rel_tol, max_samples, seed)[0]
    return prob


@dataclass(frozen=True)
class TruncatedMeanResult:
    """Positive-orthant moments of u ~ N(0, psi).

    mean is E[u | u > 0] and prob is P(u > 0), for each matrix of psi;
    method records whether every coupled block was small enough for closed
    forms ("closed-form") or some went through the integrator ("reduction").
    """

    mean: np.ndarray
    prob: float | np.ndarray
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


def _mean_single_block(psi, rel_tol, max_samples, seed):
    """(E[u | u > 0], P(u > 0)) by Tallis (see positive_orthant_mean) for
    each matrix of a (..., L, L) stack of coupled blocks: P(psi) at seed
    and P(psi_k) at seed + k + 1, Python ints, each term a stacked closed
    form up to MAX_CLOSED_DIM coordinates, else orthant_probability per
    matrix."""

    def probability(m, seeds):
        if m.shape[-1] <= MAX_CLOSED_DIM:
            return _closed_orthant(m)
        seeds = np.broadcast_to(np.array(seeds, dtype=object), m.shape[:-2])
        return np.reshape([orthant_probability(m[i], rel_tol=rel_tol, max_samples=max_samples,
                                               seed=s) for i, s in np.ndenumerate(seeds)],
                          seeds.shape)

    prob = probability(psi, seed)
    g = probability(_conditional_covariances(psi), range(seed + 1, seed + psi.shape[-1] + 1))
    w = g / np.sqrt(2.0 * np.pi * np.diagonal(psi, axis1=-2, axis2=-1))
    return (psi * w[..., None, :]).sum(-1) / np.expand_dims(prob, -1), prob


def positive_orthant_mean(psi, rel_tol=DEFAULT_REL_TOL, max_samples=DEFAULT_MAX_SAMPLES,
                          seed=0):
    """Truncated mean E[u | u > 0] and probability P(u > 0) of u ~ N(0, psi).

    By Tallis (1961), E[u | u > 0] = psi g / P(psi) with
    g_k = P(psi_k) / sqrt(2 pi psi_kk), where psi_k is the covariance of
    the other coordinates given u_k = 0; each coordinate costs one orthant
    probability of one dimension less, plus one for P(psi).  psi may be a
    (..., n, n) stack, such as a block's sign flips, each matrix given the
    bits it would get alone.  _split checks the call, validates each matrix
    and splits the stack on the union of their coupling graphs; uncoupled
    blocks factor the distribution and are solved independently, block j
    at seeds seed + 1000 j + k, k = 0..len(block).  The seed must be an
    integer and, past MAX_CLOSED_DIM coordinates, these seeds key Philox
    streams, so each must lie in [0, 2**64), or DomainError is raised before
    any block is solved, whichever of orthant_probability's routes serves it.
    """
    psi, blocks = _split(psi, rel_tol, max_samples, seed, tallis=True)
    mean = np.empty(psi.shape[:-1])
    prob = 1.0
    for j, comp in enumerate(blocks):
        sub = psi[..., comp[:, None], comp]
        mean[..., comp], p = _mean_single_block(sub, rel_tol, max_samples, seed + 1000 * j)
        prob *= p
    closed = max(len(comp) for comp in blocks) <= MAX_CLOSED_DIM
    return TruncatedMeanResult(mean=mean, prob=prob,
                               method="closed-form" if closed else "reduction")
