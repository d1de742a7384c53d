"""Covariance models: exponential receive correlation, Bessel transmit
correlation."""

import math

import numpy as np
import pytest

from onebitmimo import DimensionError, DomainError, bessel_tx_covariance, exponential_covariance


def bessel_j0_series(x, terms=40):
    """Power series sum_m (-1)^m (x/2)^(2m) / (m!)^2, independent of scipy."""
    total = 0.0
    term = 1.0
    for m in range(terms):
        total += term
        term *= -((x / 2.0) ** 2) / ((m + 1) ** 2)
    return total


def test_exponential_entries():
    rho = 0.6
    sigma = exponential_covariance(4, rho)
    for i in range(4):
        for k in range(4):
            assert sigma[i, k] == pytest.approx(rho ** abs(i - k), abs=1e-15)
    np.testing.assert_array_equal(exponential_covariance(3, 0.0), np.eye(3))


def test_exponential_negative_rho():
    sigma = exponential_covariance(3, -0.5)
    assert sigma[0, 1] == pytest.approx(-0.5)
    assert sigma[0, 2] == pytest.approx(0.25)
    assert np.linalg.eigvalsh(sigma).min() > 0.0


def test_exponential_rejects_unit_rho():
    with pytest.raises(DomainError):
        exponential_covariance(3, 1.0)
    with pytest.raises(DomainError):
        exponential_covariance(3, -1.2)
    # int() would build 2x2 for 2.7 and 3x3 for "3"; float() would read "0.5"
    for args, name in (((2.7, 0.5), "n"), (("3", 0.5), "n"), ((3, "0.5"), "rho"),
                       ((3, None), "rho")):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            exponential_covariance(*args)
    with pytest.raises(DimensionError):
        exponential_covariance(0, 0.5)


def test_exponential_positive_definite_near_boundary():
    sigma = exponential_covariance(64, 0.999)
    assert np.linalg.eigvalsh(sigma).min() > 0.0


def test_bessel_magnitude_matches_series_oracle():
    n, delta, theta, gamma = 5, 0.5, math.pi / 6.0, 0.1
    sigma = bessel_tx_covariance(n, delta, theta, gamma)
    for i in range(n):
        for k in range(n):
            arg = 2.0 * math.pi * (k - i) * delta * gamma * math.cos(theta)
            expect = bessel_j0_series(arg)
            assert abs(abs(sigma[i, k]) - abs(expect)) < 1e-12


def test_bessel_phase_structure():
    n, delta, theta = 4, 0.5, math.pi / 6.0
    sigma = bessel_tx_covariance(n, delta, theta, 0.1)
    for i in range(n):
        for k in range(n):
            phase = np.exp(-2j * math.pi * (k - i) * delta * math.sin(theta))
            mag = abs(sigma[i, k])
            np.testing.assert_allclose(sigma[i, k], mag * phase, atol=1e-12)
    assert np.abs(sigma - sigma.conj().T).max() < 1e-14
    np.testing.assert_allclose(np.diagonal(sigma), 1.0, atol=1e-15)


def test_bessel_rejects_non_numbers():
    # int() would build n_tx = 2 for 2.5; float() would read True and "0.1"
    good = {"n_tx": 3, "delta": 0.5, "theta": math.pi / 6.0, "gamma_max": 0.1}
    for name, value in (("n_tx", 2.5), ("delta", True), ("theta", "0.5"), ("gamma_max", "0.1")):
        with pytest.raises(DomainError, match=f"^{name} must be"):
            bessel_tx_covariance(**dict(good, **{name: value}))
    with pytest.raises(DimensionError):
        bessel_tx_covariance(**dict(good, n_tx=0))


def test_bessel_rejects_zero_spacing_and_infinite_angle():
    with pytest.raises(DomainError, match="delta must be > 0"):
        bessel_tx_covariance(3, 0.0, math.pi / 6.0, 0.1)
    with pytest.raises(DomainError, match="theta must be finite"):
        bessel_tx_covariance(3, 0.5, math.inf, 0.1)


def test_bessel_positive_semidefinite():
    for gamma in (0.05, 0.1, 0.3):
        sigma = bessel_tx_covariance(8, 0.5, math.pi / 6.0, gamma)
        assert np.linalg.eigvalsh(sigma).min() > -1e-12


def test_bessel_zero_spread_is_rank_one():
    # with no angle spread every antenna sees one planar wavefront
    n = 6
    sigma = bessel_tx_covariance(n, 0.5, math.pi / 4.0, 0.0)
    w = np.linalg.eigvalsh(sigma)
    assert w[-1] == pytest.approx(n, abs=1e-10)
    assert np.abs(w[:-1]).max() < 1e-10
