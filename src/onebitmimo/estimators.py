"""Channel estimators from one-bit quantized pilot observations.

Two families:

* ``blmmse_estimate`` is the best estimator that is linear in the sign
  vector r; it inverts the arcsine-law correlation of r and is cheap.
* ``mmse_estimate`` is the exact posterior mean.  Conditioned on r the
  scaled observation lives in a positive orthant with precision matrix C
  (built by ``build_c``), and the posterior mean reduces to orthant
  probabilities of dimension one lower.  For specific structures
  (effectively diagonal C, real two- and three-antenna single-input
  configurations) exact closed forms are dispatched instead.

The two coincide exactly when C carries at most one off-diagonal coupling
per row (see :mod:`onebitmimo.optimality`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    AssumptionError,
    NotPositiveDefiniteError,
)
from .model import below_eig_floor, check_hermitian, hermitian_inverse
from .orthant import arcsin_clamped, positive_orthant_mean
from .quantizer import arcsine_matrix

# Relative tolerance for structural pattern detection (diagonal inverse,
# real covariance, standardized diagonal).
STRUCT_TOL = 1e-10


@dataclass(frozen=True)
class Estimate:
    """Estimator output: the channel estimate, the path that produced it,
    and, when the path computes it, the probability of the observed sign
    pattern."""

    h_hat: np.ndarray
    estimator: str
    pr_r: float | None = None


def _check_obs(stats, obs):
    t = stats.omega_b.shape[0]
    if obs.r_real.shape != (t,):
        raise DimensionError(
            f"observation has length {obs.r_real.shape[0]}, expected {t}"
        )


def build_c(stats, obs):
    """Precision matrix C of the sign-folded observation for one sign pattern.

    With D_R + 1j D_I the inverse observation covariance and
    L_R = Diag(Re r), L_I = Diag(Im r) the sign diagonals, C is the
    2 tau N_R real symmetric PD matrix

        [[L_R D_R L_R,  L_R D_I^T L_I],
         [L_I D_I L_R,  L_I D_R L_I]].
    """
    _check_obs(stats, obs)
    rr = obs.r_real
    ri = obs.r_imag
    top = np.hstack([np.outer(rr, rr) * stats.d_r, np.outer(rr, ri) * stats.d_i.T])
    bot = np.hstack([np.outer(ri, rr) * stats.d_i, np.outer(ri, ri) * stats.d_r])
    c = np.vstack([top, bot])
    c = (c + c.T) / 2.0
    w = np.linalg.eigvalsh(c)
    if w[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"precision matrix C is not positive definite (min eigenvalue {w[0]:.3e})"
        )
    return c


# ---------------------------------------------------------------------------
# BLMMSE


def blmmse_operator(stats, model):
    """Fixed linear map W with h_hat = W r for the Bussgang-linear estimator."""
    m, dm = arcsine_matrix(stats.omega_b)
    m_inv = hermitian_inverse(m, "arcsin matrix")
    base = (stats.sigma_ch @ model.kron_matrix.conj().T) * dm[None, :]
    return (math.sqrt(np.pi) / 2.0) * base @ m_inv


def blmmse_estimate(stats, model, obs):
    """Bussgang-linear MMSE estimate of the stacked channel."""
    _check_obs(stats, obs)
    return Estimate(h_hat=blmmse_operator(stats, model) @ obs.r, estimator="blmmse")


# ---------------------------------------------------------------------------
# structural detection of exact linear cases


def _is_effectively_diagonal(stats):
    oi = stats.omega_inv
    scale = np.abs(oi).max()
    off = oi - np.diag(oi.diagonal())
    return np.abs(off).max() <= STRUCT_TOL * scale


def _is_real_standardized(sigma_ch):
    if np.abs(sigma_ch.imag).max() > STRUCT_TOL * max(np.abs(sigma_ch).max(), 1.0):
        return False
    return np.abs(sigma_ch.diagonal().real - 1.0).max() <= STRUCT_TOL


def _is_simo(model):
    return model.dims.n_tx == 1 and model.dims.n_pilots == 1


def matches_simo3(stats, model):
    """True when the Theorem-style three-antenna closed form applies."""
    if not (_is_simo(model) and model.dims.n_rx == 3):
        return False
    if not _is_real_standardized(stats.sigma_ch):
        return False
    return not below_eig_floor(np.linalg.eigvalsh(stats.sigma_ch.real))


@dataclass(frozen=True)
class LinearEstimator:
    """Exact linear MMSE map for a structurally linear configuration."""

    matrix: np.ndarray
    kind: str  # "diagonal" or "simo2-real"

    def __call__(self, obs):
        return self.matrix @ obs.r


def mmse_linear_operator(stats, model):
    """Return the exact linear MMSE operator when the configuration admits
    one (inverse observation covariance effectively diagonal, or a real
    standardized two-antenna single-input setup); otherwise None."""
    if _is_effectively_diagonal(stats):
        d = stats.omega_b.diagonal().real
        w = (stats.sigma_ch @ model.kron_matrix.conj().T) / np.sqrt(np.pi * d)[None, :]
        return LinearEstimator(matrix=w, kind="diagonal")
    if _is_simo(model) and model.dims.n_rx == 2 and _is_real_standardized(stats.sigma_ch):
        sigma = stats.sigma_ch.real
        s = model.pilots[0, 0]
        denom = abs(s) ** 2 + stats.noise_var
        beta = sigma[0, 1] * abs(s) ** 2 / denom
        t_off = (2.0 / np.pi) * arcsin_clamped(beta)
        t_mat = np.array([[1.0, t_off], [t_off, 1.0]])
        w = np.conj(s) * sigma @ np.linalg.inv(t_mat) / math.sqrt(np.pi * denom)
        return LinearEstimator(matrix=w, kind="simo2-real")
    return None


def _pr_linear(stats, model, lin, obs):
    """Sign-pattern probability along the linear closed forms."""
    t = stats.omega_b.shape[0]
    if lin.kind == "diagonal":
        return 4.0 ** (-t)
    sigma = stats.sigma_ch.real
    s = model.pilots[0, 0]
    beta = sigma[0, 1] * abs(s) ** 2 / (abs(s) ** 2 + stats.noise_var)
    p_x = 0.25 + arcsin_clamped(obs.r_real[0] * obs.r_real[1] * beta) / (2.0 * np.pi)
    p_y = 0.25 + arcsin_clamped(obs.r_imag[0] * obs.r_imag[1] * beta) / (2.0 * np.pi)
    return p_x * p_y


# ---------------------------------------------------------------------------
# closed forms


def linear_mmse_special_case(case, stats, model, obs):
    """Evaluate one of the exactly-linear MMSE closed forms.

    case is one of "uncorrelated-unitary", "tx-only-correlation" or
    "simo2-real".  Raises AssumptionError naming the first structural
    assumption the configuration violates.
    """
    _check_obs(stats, obs)
    dims = model.dims
    s_mat = model.pilots
    nv = stats.noise_var
    if case == "uncorrelated-unitary":
        if dims.n_pilots != dims.n_tx:
            raise AssumptionError("uncorrelated-unitary requires n_pilots == n_tx")
        if np.abs(stats.sigma_ch - np.eye(dims.channel_len)).max() > STRUCT_TOL:
            raise AssumptionError(
                "uncorrelated-unitary requires identity channel covariance"
            )
        gram = s_mat @ s_mat.conj().T
        eta = gram.diagonal().real.mean()
        if np.abs(gram - eta * np.eye(dims.n_pilots)).max() > STRUCT_TOL * max(eta, 1.0):
            raise AssumptionError(
                "uncorrelated-unitary requires scaled-unitary pilots (S S^H = eta I)"
            )
        w = np.kron(s_mat.conj().T, np.eye(dims.n_rx)) / math.sqrt(np.pi * (eta + nv))
        return Estimate(h_hat=w @ obs.r, estimator="mmse-closed",
                        pr_r=4.0 ** (-dims.obs_len))
    if case == "tx-only-correlation":
        if dims.n_pilots != dims.n_tx:
            raise AssumptionError("tx-only-correlation requires n_pilots == n_tx")
        sigma_tx = tx_covariance(stats.sigma_ch, dims)
        if sigma_tx is None:
            raise AssumptionError(
                "tx-only-correlation requires sigma_ch = kron(sigma_tx, identity)"
            )
        gram = s_mat @ s_mat.conj().T
        eta = gram.diagonal().real.mean()
        if np.abs(gram - eta * np.eye(dims.n_pilots)).max() > STRUCT_TOL * max(eta, 1.0):
            raise AssumptionError(
                "tx-only-correlation requires scaled-unitary pilots (S S^H = eta I)"
            )
        rotated = s_mat @ sigma_tx @ s_mat.conj().T
        xi = rotated.diagonal().real / eta
        if np.abs(rotated - eta * np.diag(xi)).max() > STRUCT_TOL * np.abs(rotated).max():
            raise AssumptionError(
                "tx-only-correlation requires pilots aligned with the covariance "
                "eigenbasis (S sigma_tx S^H diagonal)"
            )
        u = s_mat.conj().T / math.sqrt(eta)
        gains = xi * math.sqrt(eta) / np.sqrt(eta * xi + nv)
        w = np.kron(u * gains[None, :], np.eye(dims.n_rx)) / math.sqrt(np.pi)
        return Estimate(h_hat=w @ obs.r, estimator="mmse-closed",
                        pr_r=4.0 ** (-dims.obs_len))
    if case == "simo2-real":
        if not _is_simo(model):
            raise AssumptionError("simo2-real requires n_tx == n_pilots == 1")
        if dims.n_rx != 2:
            raise AssumptionError("simo2-real requires n_rx == 2")
        if np.abs(stats.sigma_ch.imag).max() > STRUCT_TOL:
            raise AssumptionError("simo2-real requires a real channel covariance")
        if np.abs(stats.sigma_ch.diagonal().real - 1.0).max() > STRUCT_TOL:
            raise AssumptionError("simo2-real requires a standardized covariance")
        lin = mmse_linear_operator(stats, model)
        return Estimate(h_hat=lin(obs), estimator="mmse-closed",
                        pr_r=_pr_linear(stats, model, lin, obs))
    raise DomainError(f"unknown special case {case!r}")


def tx_covariance(sigma_ch, dims):
    """Recover sigma_tx from sigma_ch = kron(sigma_tx, I_nrx), or return
    None when sigma_ch lacks that Kronecker structure within STRUCT_TOL."""
    n_rx, n_tx = dims.n_rx, dims.n_tx
    blocks = sigma_ch.reshape(n_tx, n_rx, n_tx, n_rx)
    sigma_tx = np.trace(blocks, axis1=1, axis2=3) / n_rx
    rebuilt = np.kron(sigma_tx, np.eye(n_rx))
    if np.abs(rebuilt - sigma_ch).max() > STRUCT_TOL * max(np.abs(sigma_ch).max(), 1.0):
        return None
    return sigma_tx


def simo3_closed_batch(sigma_ch, pilot, noise_var, r_real, r_imag):
    """Vectorized three-antenna closed form.

    r_real and r_imag have shape (..., 3); returns estimates of shape
    (..., 3) and the sign-pattern probabilities of shape (...,).
    """
    sigma = np.asarray(sigma_ch, dtype=float)
    s = complex(pilot)
    noise_var = float(noise_var)
    denom = abs(s) ** 2 + noise_var
    if denom <= 0.0:
        raise DomainError("pilot power plus noise variance must be positive")
    scale = abs(s) ** 2 / denom
    b12, b13, b23 = scale * sigma[0, 1], scale * sigma[0, 2], scale * sigma[1, 2]
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

    v_r, p_r = moments(np.asarray(r_real, dtype=float))
    v_i, p_i = moments(np.asarray(r_imag, dtype=float))
    front = np.conj(s) / (2.0 * math.sqrt(np.pi * denom))
    h_hat = front * (v_r / p_r[..., None] + 1j * v_i / p_i[..., None]) @ sigma
    return h_hat, p_r * p_i


def mmse_simo3(sigma_ch, pilot, noise_var, obs):
    """Exact MMSE estimate for one pilot, three receive antennas and a real
    standardized channel covariance.

    This is the genuinely non-linear closed form: each coordinate mixes the
    signs of all three antennas through the arcsines of the pairwise and
    partial correlations.
    """
    sigma = np.asarray(sigma_ch)
    if sigma.shape != (3, 3):
        raise DimensionError(f"sigma_ch must be 3x3, got shape {sigma.shape}")
    if np.abs(np.asarray(sigma, dtype=complex).imag).max() > STRUCT_TOL:
        raise DomainError("sigma_ch must be real")
    sigma = check_hermitian(np.asarray(sigma, dtype=complex).real, "sigma_ch")
    if np.abs(sigma.diagonal() - 1.0).max() > STRUCT_TOL:
        raise DomainError("sigma_ch must be standardized (unit diagonal)")
    if obs.r_real.shape != (3,):
        raise DimensionError("observation must have length 3")
    h_hat, pr = simo3_closed_batch(sigma, pilot, noise_var, obs.r_real, obs.r_imag)
    return Estimate(h_hat=h_hat, estimator="mmse-closed", pr_r=float(pr))


# ---------------------------------------------------------------------------
# general path and dispatch


def _mmse_general(stats, model, obs, rel_tol, max_samples, seed, use_closed_forms):
    res = positive_orthant_mean(
        build_c(stats, obs),
        rel_tol=rel_tol,
        max_samples=max_samples,
        seed=seed,
        use_closed_forms=use_closed_forms,
    )
    t = stats.omega_b.shape[0]
    folded = obs.r_real * res.mean[:t] + 1j * obs.r_imag * res.mean[t:]
    h_hat = stats.sigma_ch @ (model.kron_matrix.conj().T @ (stats.omega_inv @ folded))
    _, logdet = np.linalg.slogdet(stats.omega_b)
    pr = res.normalizer / (np.pi**t * math.exp(logdet))
    return Estimate(h_hat=h_hat, estimator="mmse-general", pr_r=float(pr))


def mmse_estimate(stats, model, obs, rel_tol=1e-4, max_samples=10_000_000,
                  method="auto", seed=0, use_closed_forms=True):
    """Exact posterior-mean channel estimate from a sign pattern.

    method="auto" dispatches to an exact closed form whenever the
    configuration structurally matches one (detected from the statistics,
    not from caller-supplied tags) and otherwise evaluates the general
    orthant reduction; method="general" forces the general path.
    use_closed_forms=False additionally makes the general path integrate
    every orthant numerically, for cross-validation of the closed forms.
    """
    _check_obs(stats, obs)
    if method not in ("auto", "general"):
        raise DomainError(f"method must be 'auto' or 'general', got {method!r}")
    if method == "auto":
        lin = mmse_linear_operator(stats, model)
        if lin is not None:
            return Estimate(h_hat=lin(obs), estimator="mmse-closed",
                            pr_r=_pr_linear(stats, model, lin, obs))
        if matches_simo3(stats, model):
            return mmse_simo3(
                stats.sigma_ch.real, model.pilots[0, 0], stats.noise_var, obs
            )
    return _mmse_general(stats, model, obs, rel_tol, max_samples, seed, use_closed_forms)
