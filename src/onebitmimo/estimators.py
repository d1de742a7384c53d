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

The posterior mean has one evaluator, the sign table of ``_sign_tables``,
one array of rows ordered by (block, row): ``mmse_estimate`` reads one
sign pattern from it, a sweep point a chunk of trials.  It rests on three
symmetries: the truncated mean factors over the coupled blocks of S,
whose split is the same for every sign pattern, so each block's share of
the estimate and factor of Pr(r) depend on its own signs only; flipping
every sign of a block leaves its covariance unchanged, so that share is
odd and that factor even in those signs; and b -> j b leaves the circular
prior unchanged, so the rotation r -> j r, which maps each block onto a
block, gives h_hat(j r) = j h_hat(r) and Pr(j r) = Pr(r).  A block B
that the rotation maps onto itself (complex Omega) thus needs at most
2^(|B|-2) solves, and a pair of blocks mapped onto each other (the
real-part and imaginary-part blocks of a real Omega) at most 2^(|B|-1)
between them.  A row is solved when an evaluation first needs it or its
rotation, each pair at its smaller index, in one stacked call per block.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

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
    channel covariance, read from the sign table of that point (see
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

    One pattern read from the sign table of S (see _sign_tables).  method
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
    """(evaluate, closed): the sign table of the posterior mean, which rests
    on the three symmetries the module docstring names.

    evaluate(r) maps an (n, tau N_R) complex sign array r = sgn(Re b) + j
    sgn(Im b) to h_hat, (n, channel_len), and Pr(r) = prod_B P_B, (n,).
    closed says every block has at most MAX_CLOSED_DIM coordinates.
    orthant._split checks and splits S once, as positive_orthant_mean would,
    so a bad rel_tol, a block beyond MAX_QMC_DIM or a bad seed is refused
    here, before any solve.  The table's rows are ordered by (block, row):
    block j's 2^(|B|-1) rows start at start[j], one per sign pattern of the
    block folded by the sign of its first coordinate.  A row holds its
    signs, its share of h_hat (its truncated mean lifted by sigma_ch A^H
    Omega^{-1}) and P_B.  The rotation r -> j r pairs each row i with a row
    image[i] != i.  Each evaluation fills the rows it needs that are not yet
    filled: it solves row min(i, image[i]) of each pair, as
    positive_orthant_mean solves block j of S, a block's rows in one stacked
    call at seed + 1000 j, and gives the other row j times its share,
    sign-folded, and the same P_B.  So the table does not depend on the fill
    order, and h_hat(j r) = j h_hat(r) holds bit for bit.
    """
    t = stats.omega_b.shape[0]
    cov, blocks = _split(0.5 * real_form(stats.omega_b), rel_tol, DEFAULT_MAX_SAMPLES, seed,
                         tallis=True)
    sizes = [1 << (len(comp) - 1) for comp in blocks]
    start = np.array([*accumulate(sizes[:-1], initial=0)])
    all_bits = np.array([2 * size - 1 for size in sizes])
    # row start[j] + k of signs is a complex sign pattern: -1 on coordinate
    # m of block j when 2k has bit m, +1 elsewhere.  Coordinate c of S (Re
    # r_c, or Im r_(c-t) for c >= t) is column at[c] of the interleaved
    # (Re, Im) float view of r, to which column j of weights gives the bit
    # weight 2^m of coordinate m of block j
    at = np.arange(2 * t).reshape(t, 2).T.ravel()
    weights = np.zeros((2 * t, len(blocks)))
    signs = np.full((sum(sizes), t), 1 + 1j)
    for j, comp in enumerate(blocks):
        weights[at[comp], j] = bit = 1 << np.arange(len(comp))
        signs.view(np.float64)[start[j]:start[j] + sizes[j], at[comp]] = np.where(
            np.arange(0, 2 * sizes[j], 2)[:, None] & bit, -1.0, 1.0)
    shares = np.empty((len(signs), model.dims.channel_len), dtype=complex)
    probs = np.full(len(signs), np.nan)  # NaN until the row is filled

    def fold(r):
        # per block of (n, t) complex signs: the table row, folded by the
        # first coordinate's sign, and that sign.  One float matmul finds
        # every row: each is an integer below 2^16, exact in float64
        bits = ((r.view(np.float64) < 0) @ weights).astype(np.int64)
        first = bits & 1
        return start + ((bits ^ (first * all_bits)) >> 1), 1.0 - 2.0 * first

    # r -> j r takes (Re r_c, Im r_c), columns 2c and 2c + 1 of the float
    # view, to (-Im r_c, Re r_c), so block j onto the block to[j] that holds
    # column at[c] ^ 1, c its first coordinate: row i lands on row image[i],
    # whose share is turn[i] = +-j times that of row i
    to = weights[at[[comp[0] for comp in blocks]] ^ 1].argmax(axis=1)
    jr_rows, jr_sign = fold(1j * signs)
    pick = np.arange(0, jr_rows.size, len(blocks)) + np.repeat(to, sizes)  # flat (i, to[j])
    image, turn = jr_rows.ravel()[pick], jr_sign.ravel()[pick] * 1j

    def solve(rows):
        # solve the smaller row of the rotation pair of each of rows, all on
        # one block; lift each truncated mean to its share and fill both rows
        rows = np.unique(np.minimum(rows, image[rows]))
        j = int(start.searchsorted(rows[0], "right")) - 1
        comp, row_signs = blocks[j], signs[rows]
        on_comp = row_signs.view(np.float64)[:, at[comp]]
        subs = on_comp[:, :, None] * cov[np.ix_(comp, comp)] * on_comp[:, None, :]
        solved = positive_orthant_mean(subs, rel_tol=rel_tol, seed=seed + 1000 * j)
        means = np.zeros((len(rows), 2 * t))
        means[:, comp] = solved.mean
        folded = row_signs.real * means[:, :t] + 1j * row_signs.imag * means[:, t:]
        for row, row_folded in zip(rows, folded):
            shares[row] = stats.sigma_ch @ (
                model.kron_matrix.conj().T @ (stats.omega_inv @ row_folded))
        shares[image[rows]] = turn[rows, None] * shares[rows]
        probs[rows] = probs[image[rows]] = solved.prob

    def evaluate(r):
        rows, sign = fold(r)
        h_hat = np.zeros((len(r), model.dims.channel_len), dtype=complex)
        pr = np.ones(len(r))
        for j in range(len(blocks)):
            idx = rows[:, j]
            missing = idx[np.isnan(probs[idx])]
            if len(missing):
                solve(missing)
            h_hat += sign[:, j, None] * shares[idx]
            pr *= probs[idx]
        return h_hat, pr

    return evaluate, max(len(comp) for comp in blocks) <= MAX_CLOSED_DIM
