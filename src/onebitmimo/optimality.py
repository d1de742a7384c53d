"""Decide when the linear estimator is exactly optimal.

The posterior mean is linear in the sign vector exactly when every row of
the orthant precision matrix C = S^{-1}/2 couples to at most one other
coordinate, where S is the covariance of the sign-folded observation
(see :mod:`onebitmimo.estimators`).  A PD matrix and its inverse have the same
coupled blocks, so this holds exactly when S splits into blocks of at most
two coordinates: the blocks the orthant layer splits S into.
Sign flips only change signs of entries of S, never which coordinates
couple or how strongly, so the blocks are those of the real form
[[Re Omega, -Im Omega], [Im Omega, Re Omega]] of the observation
covariance, and the verdict holds for every observation at once.
"""

from dataclasses import dataclass

import numpy as np

from .model import real_form
from .orthant import _coupling_components, _coupling_graph


@dataclass(frozen=True)
class CouplingWitness:
    """One coordinate of S coupled to two others, with the magnitudes of
    those correlations.

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
    largest_block: int


def is_blmmse_optimal(stats):
    """Check whether the linear estimator equals the posterior mean.

    Splits S into coupled blocks as the orthant layer does; the verdict is
    True when no block exceeds two coordinates.  When it is False the
    witness names a row of the first larger block with two couplings and
    their correlation magnitudes, so the caller can judge borderline calls
    against COUPLING_TOL.
    """
    om = real_form(stats.omega_b)
    blocks = _coupling_components(om)
    largest = max(len(block) for block in blocks)
    if largest <= 2:
        return OptimalityVerdict(optimal=True, witness=None, largest_block=largest)
    block = next(block for block in blocks if len(block) > 2)
    coupled = _coupling_graph(om)
    np.fill_diagonal(coupled, False)
    # a connected block of three or more has a coordinate with two couplings
    row = next(int(i) for i in block if np.count_nonzero(coupled[i]) >= 2)
    a, b = (int(k) for k in np.flatnonzero(coupled[row])[:2])
    d = np.sqrt(om.diagonal())
    corr = np.abs(om[row]) / (d[row] * d)
    witness = CouplingWitness(row=row, col_a=a, col_b=b,
                              magnitude_a=float(corr[a]), magnitude_b=float(corr[b]))
    return OptimalityVerdict(optimal=False, witness=witness, largest_block=largest)
