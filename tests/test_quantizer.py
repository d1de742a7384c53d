"""Sign quantizer conventions and the arcsine law."""

import numpy as np
import pytest

from onebitmimo import DimensionError, DomainError, observation_from_signs, quantize
from onebitmimo.quantizer import arcsine_matrix, sgn


def normalized_sign_covariance(omega_b):
    """(2/pi) times the arcsine matrix: the sign moments of quantize(b)."""
    return (2.0 / np.pi) * arcsine_matrix(omega_b)[0]


def test_sign_convention_zero_maps_to_plus_one():
    b = np.array([1.0 - 2.0j, -3.0 + 0.0j, 0.0 + 0.0j, -0.0 - 1.0j])
    obs = quantize(b)
    np.testing.assert_array_equal(obs.r_real, [1.0, -1.0, 1.0, 1.0])
    np.testing.assert_array_equal(obs.r_imag, [-1.0, 1.0, 1.0, -1.0])
    np.testing.assert_array_equal(obs.r, obs.r_real + 1j * obs.r_imag)
    # the batch form a sweep takes: one sign pass over the interleaved
    # (Re, Im) parts of a (rows, t) array, viewed as complex, is r row by row
    batch = np.empty((3, 4), dtype=complex)
    batch.real = [[1.0, -3.0, 0.0, -0.0], [-0.0, 0.0, 2.0, -1.0], [0.0, -0.0, -0.0, 0.0]]
    batch.imag = [[-2.0, 0.0, 0.0, -1.0], [-0.0, 0.0, -0.0, 5.0], [0.0, 0.0, -0.0, -0.0]]
    r = sgn(batch.view(np.float64)).view(np.complex128)
    assert r.shape == batch.shape
    for row, r_row in zip(batch, r):
        np.testing.assert_array_equal(r_row, quantize(row).r)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, -5e-324])
    np.testing.assert_array_equal(sgn(special), [-1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    np.testing.assert_array_equal(sgn(special), np.where(special >= 0.0, 1.0, -1.0))


def test_quantize_is_idempotent():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    obs = quantize(b)
    again = quantize(obs.r)
    np.testing.assert_array_equal(again.r_real, obs.r_real)
    np.testing.assert_array_equal(again.r_imag, obs.r_imag)


def test_quantize_odd_symmetry():
    rng = np.random.default_rng(1)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    np.testing.assert_array_equal(quantize(-b).r, -quantize(b).r)


def test_observation_from_signs_validates():
    with pytest.raises(DomainError):
        observation_from_signs(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        observation_from_signs(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    # a bool is not a sign, though True would read as +1
    for r_real, r_imag, name in (([True], [True], "r_real"), ([1.0], np.array([False]), "r_imag"),
                                 (["1"], [1.0], "r_real")):
        with pytest.raises(DomainError, match=f"'{name}' entries must be numbers"):
            observation_from_signs(r_real, r_imag)


def test_quantize_rejects_non_vectors_and_non_finite_entries():
    for b in (np.ones((2, 2), dtype=complex), np.array([], dtype=complex)):
        with pytest.raises(DimensionError, match="non-empty 1-d vector"):
            quantize(b)
    with pytest.raises(DomainError, match="NaN or infinite"):
        quantize(np.array([1.0, np.nan + 1j]))


def test_arcsine_matrix_rejects_non_positive_diagonal():
    with pytest.raises(DomainError, match="positive diagonal"):
        arcsine_matrix(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))


def test_normalized_sign_covariance_diagonal_input():
    omega = np.diag([1.0, 4.0, 0.25]).astype(complex)
    out = normalized_sign_covariance(omega)
    np.testing.assert_allclose(out.real, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(out.imag, 0.0, atol=1e-15)
    assert np.all(np.diagonal(out.real) == 1.0)


def test_normalized_sign_covariance_scale_invariant():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    omega = a @ a.conj().T + 2.0 * np.eye(3)
    d = np.diag([0.5, 3.0, 1.7])
    out = normalized_sign_covariance(omega)
    out_scaled = normalized_sign_covariance(d @ omega @ d)
    np.testing.assert_allclose(out_scaled, out, atol=1e-13)


def test_arcsine_law_against_sampling():
    """(2/pi)(arcsin Re + j arcsin Im) of the standardized covariance must
    reproduce E[Re(r) Re(r)^T] + j E[Im(r) Re(r)^T] of the quantized signal."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    omega = a @ a.conj().T + 1.5 * np.eye(3)
    chol = np.linalg.cholesky(omega)
    n = 400_000
    z = (
        rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    ) / np.sqrt(2.0)
    b = z @ chol.T
    rr = np.where(b.real >= 0.0, 1.0, -1.0)
    ri = np.where(b.imag >= 0.0, 1.0, -1.0)
    emp = (rr.T @ rr) / n + 1j * (ri.T @ rr) / n
    out = normalized_sign_covariance(omega)
    tol = 5.0 / np.sqrt(n)
    off = ~np.eye(3, dtype=bool)
    assert np.abs(out.real - emp.real)[off].max() < tol
    assert np.abs(out.imag - emp.imag).max() < tol
    # diagonal is exact by definition of the sign product
    np.testing.assert_array_equal(np.diagonal(emp.real), 1.0)
