"""One-bit quantization of complex observations.

Each receive chain keeps only the signs of the real and imaginary parts:

    r = sgn(Re b) + 1j * sgn(Im b),   sgn(0) := +1.

The arcsine law gives the second moments of r in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, DomainError
from .model import number_array
from .orthant import arcsin_clamped


@dataclass(frozen=True)
class QuantizedObservation:
    """Sign pattern of one quantized observation, checked on construction:
    r_real and r_imag are +-1 vectors of numbers (never a bool or a
    string), non-empty, 1-d and of equal length, held as floats, and r is
    the complex combination r_real + 1j * r_imag.
    """

    r_real: np.ndarray
    r_imag: np.ndarray

    def __post_init__(self):
        for name in ("r_real", "r_imag"):
            object.__setattr__(self, name, number_array(getattr(self, name), repr(name)))
        if self.r_real.shape != self.r_imag.shape or self.r_real.ndim != 1 or self.r_real.size == 0:
            raise DimensionError("sign vectors must be non-empty 1-d arrays of equal length")
        for name in ("r_real", "r_imag"):
            if not np.all(np.abs(getattr(self, name)) == 1.0):
                raise DomainError(f"{name!r} entries must be +-1")

    @property
    def r(self):
        return self.r_real + 1j * self.r_imag


def sgn(x):
    """Elementwise sign of a real array with the tie sgn(0) = +1: +-0 maps
    to +1, nan to -1 and +-inf to +-1."""
    return 2.0 * (x >= 0.0) - 1.0


def quantize(b):
    """Quantize a complex observation vector to its sign pattern."""
    b = number_array(b, "observation b", complex, ndim=1)
    # one sign pass over the interleaved (Re, Im) parts of b
    signs = sgn(np.ascontiguousarray(b).view(np.float64))
    return QuantizedObservation(r_real=signs[0::2], r_imag=signs[1::2])


def observation_from_signs(r_real, r_imag):
    """Build a QuantizedObservation, which checks them, from +-1 sign vectors."""
    return QuantizedObservation(r_real=r_real, r_imag=r_imag)


def arcsine_matrix(omega_b):
    """Unscaled arcsine-law matrix of an observation covariance.

    Returns (m, dm) with Dm = Diag(dm) = Diag(omega)^(-1/2) and

        m = arcsin(Dm Re(omega) Dm) + 1j * arcsin(Dm Im(omega) Dm).

    For b ~ CN(0, omega_b) and r = quantize(b), (2/pi) m holds the sign
    moments: E[Re(r) Re(r)^T] is its real part and E[Im(r) Re(r)^T] its
    imaginary part.
    """
    omega_b = np.asarray(omega_b, dtype=complex)
    d = omega_b.diagonal().real
    if np.any(d <= 0.0):
        raise DomainError("omega_b must have positive diagonal")
    dm = 1.0 / np.sqrt(d)
    re = dm[:, None] * omega_b.real * dm[None, :]
    # exactly 1 in exact arithmetic; arcsin amplifies rounding near 1
    np.fill_diagonal(re, 1.0)
    im = dm[:, None] * omega_b.imag * dm[None, :]
    return arcsin_clamped(re) + 1j * arcsin_clamped(im), dm

