"""Decide when the linear estimator is exactly optimal.

The posterior mean is linear in the sign vector exactly when every row of
the orthant precision matrix C = S^{-1}/2 couples to at most one other
coordinate, where S is the covariance of the sign-folded observation
(estimators.sign_covariance).
Sign flips only change signs of entries of C, never which entries are
non-zero, so the verdict depends on the magnitude pattern of the inverse
observation covariance alone and holds for every observation at once.
"""

from dataclasses import dataclass

import numpy as np

from .model import COUPLING_TOL


@dataclass(frozen=True)
class CouplingWitness:
    """One row of C with two significant off-diagonal couplings.

    Indices refer to the 2 tau N_R real coordinates (real parts first,
    then imaginary parts)."""

    row: int
    col_a: int
    col_b: int
    magnitude_a: float
    magnitude_b: float


@dataclass(frozen=True)
class OptimalityVerdict:
    optimal: bool
    witness: CouplingWitness | None
    threshold: float


def is_blmmse_optimal(stats, eps=COUPLING_TOL):
    """Check whether the linear estimator equals the posterior mean.

    eps is relative to the largest entry magnitude of the inverse
    observation covariance; off-diagonal entries above eps * that scale
    count as couplings, so rounding noise in an exactly diagonal inverse
    does not.  When the verdict is False the witness names a row of C with
    two couplings and their magnitudes, so near-threshold calls can be
    judged by the caller.
    """
    t = stats.d_r.shape[0]
    off_dr = np.abs(stats.d_r).copy()
    np.fill_diagonal(off_dr, 0.0)
    off_di = np.abs(stats.d_i).copy()
    np.fill_diagonal(off_di, 0.0)
    threshold = eps * np.abs(stats.omega_inv).max()
    # Magnitude pattern of C: row i of the real block couples to column l
    # through |d_r[i, l]| and to column t + l through |d_i[i, l]|; the
    # imaginary block mirrors it, so one pass over the rows suffices.
    mags = np.hstack([off_dr, off_di])
    for i in range(t):
        cols = np.nonzero(mags[i] > threshold)[0]
        if len(cols) >= 2:
            a, b = int(cols[0]), int(cols[1])
            witness = CouplingWitness(
                row=i,
                col_a=a,
                col_b=b,
                magnitude_a=float(mags[i, a]),
                magnitude_b=float(mags[i, b]),
            )
            return OptimalityVerdict(optimal=False, witness=witness, threshold=threshold)
    return OptimalityVerdict(optimal=True, witness=None, threshold=threshold)
