"""Channel estimators from one-bit quantized pilot observations.

Two families:

* ``blmmse_estimate`` is the best estimator that is linear in the sign
  vector r; it inverts the arcsine-law correlation of r and is cheap.
* ``mmse_estimate`` is the exact posterior mean.  The sign-folded
  observation x = Diag(r) [Re b; Im b] is N(0, S), S the sign-flipped
  half real form of Omega, and the sign pattern r is the event x > 0.  So
  Pr(r) is the orthant probability P(S), and E[x | x > 0], from which the
  posterior mean follows linearly, reduces to orthant probabilities of
  dimension one lower (Tallis 1961); coupled blocks of S of size at most
  MAX_CLOSED_DIM = 3 are solved exactly by arcsine closed forms.

The two coincide exactly when the precision matrix C = S^{-1}/2 carries at
most one off-diagonal coupling per row.  C and S share their coupled
blocks, so this is the condition that every block of S has size at most
two (see :mod:`onebitmimo.optimality`); each such block is closed-form.

The posterior mean has one evaluator, the per-block sign tables of
``_sign_tables``: ``mmse_estimate`` reads one row, a sweep point a chunk
of trials.  They rest on three symmetries: the truncated mean factors
over the coupled blocks of S, whose split is the same for every sign
pattern, so each block's share of the estimate and factor of Pr(r) depend
on its own signs only; flipping every sign of a block leaves its
covariance unchanged, so that share is odd and that factor even in those
signs; and b -> j b leaves the circular prior unchanged, so the rotation
r -> j r, which maps each block onto a block, gives h_hat(j r) =
j h_hat(r) and Pr(j r) = Pr(r).  A block B that the rotation maps onto
itself (complex Omega) thus needs at most 2^(|B|-2) solves, and a pair
of blocks mapped onto each other (the real-part and imaginary-part blocks
of a real Omega) at most 2^(|B|-1) between them.  A row is solved only
when an evaluation first needs it or its rotation, all the rows a block
is missing in one stacked positive_orthant_mean call, whatever its size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, DomainError
from .model import build_pilot_model, hermitian_inverse, real_form, second_order_stats
from .optimality import is_blmmse_optimal
from .orthant import (
    DEFAULT_MAX_SAMPLES,
    DEFAULT_REL_TOL,
    MAX_CLOSED_DIM,
    _split,
    positive_orthant_mean,
)
from .quantizer import arcsine_matrix

# Relative tolerance for structural pattern detection (real covariance,
# Kronecker transmit structure).
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
    if obs.r_real.shape != (t,) or obs.r_imag.shape != (t,):
        raise DimensionError(f"observation has length {obs.r_real.shape[0]}, expected {t}")


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
# structural detection of exact closed forms


def mmse_linear_operator(stats, model):
    """Return the linear map W with posterior mean W r when the posterior
    mean is linear in r (see is_blmmse_optimal); it is then the BLMMSE
    operator.  Otherwise None."""
    if is_blmmse_optimal(stats).optimal:
        return blmmse_operator(stats, model)
    return None


# ---------------------------------------------------------------------------
# closed forms


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
    """Exact MMSE estimates for one pilot, three receive antennas and a real
    channel covariance, read from the sign tables of that point (see
    _sign_tables), whose two 3-coordinate blocks are closed-form.

    r_real and r_imag have shape (..., 3); returns estimates of shape
    (..., 3) and the sign-pattern probabilities of shape (...,).
    """
    sigma = np.asarray(sigma_ch)
    if np.abs(sigma.imag).max() > STRUCT_TOL * max(np.abs(sigma).max(), 1.0):
        raise DomainError("sigma_ch must be real")
    r_real, r_imag = np.asarray(r_real, dtype=float), np.asarray(r_imag, dtype=float)
    if r_real.shape[-1:] != (3,) or r_imag.shape != r_real.shape:
        raise DimensionError(f"sign arrays must be (..., 3), got {r_real.shape}, {r_imag.shape}")
    model = build_pilot_model([[pilot]], 3)
    evaluate, _ = _sign_tables(second_order_stats(model, sigma.real, noise_var), model,
                               DEFAULT_REL_TOL)
    h_hat, pr = evaluate((r_real + 1j * r_imag).reshape(-1, 3))
    return h_hat.reshape(r_real.shape), pr.reshape(r_real.shape[:-1])


# ---------------------------------------------------------------------------
# posterior mean


def mmse_estimate(stats, model, obs, rel_tol=DEFAULT_REL_TOL, method="auto", seed=0):
    """Exact posterior-mean channel estimate from a sign pattern.

    One row of the per-block sign tables of S (see _sign_tables).  method
    only picks the label: "auto" says "mmse-closed" when every coupled
    block of S is closed-form (at most three coordinates) and
    "mmse-general" otherwise; "general" always says "mmse-general".
    """
    _check_obs(stats, obs)
    if method not in ("auto", "general"):
        raise DomainError(f"method must be 'auto' or 'general', got {method!r}")
    evaluate, closed = _sign_tables(stats, model, rel_tol, seed)
    h_hat, pr = evaluate(obs.r[None, :])
    return Estimate(h_hat=h_hat[0],
                    estimator="mmse-closed" if method == "auto" and closed else "mmse-general",
                    pr_r=float(pr[0]))


def _sign_tables(stats, model, rel_tol, seed=0):
    """(evaluate, closed): the per-block sign tables of the posterior mean,
    which rest on the three symmetries the module docstring names.

    evaluate(r) maps an (n, tau N_R) complex sign array r = sgn(Re b) + j
    sgn(Im b) to h_hat, (n, channel_len), and Pr(r) = prod_B P_B, (n,).
    closed says every block has at most MAX_CLOSED_DIM coordinates.
    orthant._split checks and splits S once, as positive_orthant_mean would,
    so a bad rel_tol, a block beyond MAX_QMC_DIM or a bad seed is refused
    here, before any solve.  Block j keeps 2^(|B|-1) rows, indexed
    by its signs folded by the sign of its first coordinate; a row holds its
    share of h_hat, its truncated mean lifted by sigma_ch A^H Omega^{-1},
    next to P_B.  The rotation r -> j r pairs each row with a row of the same
    or another block, never with itself.  Each evaluation solves the rows it
    needs that are not yet filled: the smaller (block, row) of each pair, as
    positive_orthant_mean solves block j of S, all of a block's in one
    stacked call at seed + 1000 j.  The other row of the pair is filled with
    j times its share, sign-folded, and the same P_B.  So the tables do not
    depend on the fill order, and h_hat(j r) = j h_hat(r) holds bit for bit.
    """
    t = stats.omega_b.shape[0]
    cov, blocks = _split(0.5 * real_form(stats.omega_b), rel_tol, DEFAULT_MAX_SAMPLES, seed,
                         tallis=True)
    # column j gives coordinate k of block j the bit weight 2^k, on the row
    # that coordinate takes in the interleaved (Re, Im) float view of r
    weights = np.zeros((2 * t, len(blocks)))
    block_of = np.empty(2 * t, dtype=int)
    for j, comp in enumerate(blocks):
        weights[comp, j] = 1 << np.arange(len(comp))
        block_of[comp] = j
    all_bits = weights.sum(axis=0).astype(np.int64)
    weights = weights.reshape(2, t, -1).transpose(1, 0, 2).reshape(2 * t, -1)
    shares = [np.empty((1 << (len(comp) - 1), model.dims.channel_len), dtype=complex)
              for comp in blocks]
    probs = [np.empty(len(share)) for share in shares]
    filled = [np.zeros(len(share), dtype=bool) for share in shares]

    def unfold(j, rows):
        # signs over all 2t coordinates: each of the rows on block j, +1 elsewhere
        comp = blocks[j]
        signs = np.ones((len(rows), 2 * t))
        signs[:, comp[1:]] = 1.0 - 2.0 * ((rows[:, None] >> np.arange(len(comp) - 1)) & 1)
        return signs

    def fold(r):
        # per block of (n, t) complex signs: the row, folded by the first
        # coordinate's sign, and that sign's bit.  One float matmul finds
        # every row: each is an integer below 2^16, exact in float64
        bits = ((r.view(np.float64) < 0) @ weights).astype(np.int64)
        first = bits & 1
        return (bits ^ (first * all_bits)) >> 1, first

    # r -> j r takes (Re, Im) signs to (-Im, Re): row `row` of block j lands
    # on row image[j][row] of block partner[j], whose share is flip[j][row]
    # j times this one; own[j][row] says the pair's smaller (block, row) is
    # (j, row), the one that is solved
    partner = [int(block_of[(comp[0] + t) % (2 * t)]) for comp in blocks]
    image, flip, own = [], [], []
    for j, share in enumerate(shares):
        rows = np.arange(len(share))
        signs = unfold(j, rows)
        jr_rows, first = fold(-signs[:, t:] + 1j * signs[:, :t])
        image.append(jr_rows[:, partner[j]])
        flip.append(1.0 - 2.0 * first[:, partner[j]])
        own.append((j < partner[j]) | ((j == partner[j]) & (rows < image[j])))

    def solve(j, rows):
        # solve the own row of each rotation pair the rows of block j belong
        # to, lift each truncated mean to its share and fill both rows
        rows = np.unique(np.where(own[j][rows], rows, image[j][rows]))
        j = min(j, partner[j])
        comp = blocks[j]
        signs = unfold(j, rows)
        subs = signs[:, comp, None] * cov[np.ix_(comp, comp)] * signs[:, None, comp]
        solved = positive_orthant_mean(subs, rel_tol=rel_tol, seed=seed + 1000 * j)
        means = np.zeros((len(rows), 2 * t))
        means[:, comp] = solved.mean
        folded = signs[:, :t] * means[:, :t] + 1j * signs[:, t:] * means[:, t:]
        for row, row_folded in zip(rows, folded):
            shares[j][row] = stats.sigma_ch @ (
                model.kron_matrix.conj().T @ (stats.omega_inv @ row_folded))
        jr, jr_rows = partner[j], image[j][rows]
        shares[jr][jr_rows] = flip[j][rows, None] * 1j * shares[j][rows]
        probs[j][rows] = probs[jr][jr_rows] = solved.prob
        filled[j][rows] = filled[jr][jr_rows] = True

    def evaluate(r):
        rows, first = fold(r)
        h_hat = np.zeros((len(r), model.dims.channel_len), dtype=complex)
        pr = np.ones(len(r))
        for j in range(len(blocks)):
            idx = rows[:, j]
            missing = idx[~filled[j][idx]]
            if len(missing):
                solve(j, missing)
            h_hat += (1.0 - 2.0 * first[:, j])[:, None] * shares[j][idx]
            pr *= probs[j][idx]
        return h_hat, pr

    return evaluate, max(len(comp) for comp in blocks) <= MAX_CLOSED_DIM
