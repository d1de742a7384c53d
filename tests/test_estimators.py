"""Estimators: the sign-folded covariance S, linear closed forms, the
three-antenna nonlinear closed form, and the general orthant path.

The decisive checks are pairwise agreements between independently derived
routes: hand-derived closed forms (written out here) against the
estimators, the hand-written three-antenna closed form of numeric_oracle
against the sign tables, and the general reduction with closed orthant
forms against the purely numeric integrator.
"""

import math
import os

import numpy as np
import pytest

import onebitmimo.estimators as estimators
from onebitmimo import (
    CapabilityError,
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
    QuantizedObservation,
    blmmse_estimate,
    blmmse_operator,
    build_pilot_model,
    build_pilots,
    exponential_covariance,
    is_blmmse_optimal,
    mmse_estimate,
    mmse_linear_operator,
    observation_from_signs,
    quantize,
    sample_realizations,
    second_order_stats,
)
from onebitmimo.config import load_sweep_config
from onebitmimo.model import SystemDims, observe, real_form
from onebitmimo.orthant import _coupling_components
from onebitmimo.simulate import build_covariance, build_point

from numeric_oracle import (
    numeric_mmse,
    sign_covariance,
    simo3_closed_batch,
    solved_by_the_tables,
    whole_s_mmse,
)

LINEAR_TOL = 1e-9

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def all_sign_patterns(length):
    for bits in range(4**length):
        rr = np.array(
            [1.0 if bits & (1 << i) else -1.0 for i in range(length)]
        )
        ri = np.array(
            [1.0 if bits & (1 << (i + length)) else -1.0 for i in range(length)]
        )
        yield observation_from_signs(rr, ri)


def sample_observations(stats, model, seed, count):
    b = observe(model, *sample_realizations(stats, model, seed, count))
    return [quantize(row) for row in b]


def scalar_setup(eta=10.0, nv=1.0):
    model = build_pilot_model(np.array([[math.sqrt(eta)]], dtype=complex), 1)
    stats = second_order_stats(model, np.eye(1, dtype=complex), nv)
    return stats, model


def simo_setup(sigma, pilot=2.0 + 0.0j, nv=1.0):
    sigma = np.asarray(sigma, dtype=complex)
    model = build_pilot_model(np.array([[pilot]]), sigma.shape[0])
    stats = second_order_stats(model, sigma, nv)
    return stats, model


def closed_form_operator(case, model, sigma, nv):
    """Hand-derived exact linear MMSE map W (h_hat = W r) of each linear case.

    uncorrelated-unitary: identity covariance, S S^H = eta I.
    tx-only-correlation: sigma = kron(sigma_tx, I), pilots S = sqrt(eta) U^H
    with U the eigenvectors of sigma_tx.
    simo2-real: one pilot s, two antennas, real unit-diagonal covariance.
    """
    s_mat = model.pilots
    n_rx = model.dims.n_rx
    eta = (s_mat @ s_mat.conj().T)[0, 0].real
    if case == "uncorrelated-unitary":
        return np.kron(s_mat.conj().T, np.eye(n_rx)) / math.sqrt(math.pi * (eta + nv))
    if case == "tx-only-correlation":
        sigma_tx = sigma[::n_rx, ::n_rx]
        xi = np.diag(s_mat @ sigma_tx @ s_mat.conj().T).real / eta
        gains = xi * math.sqrt(eta) / np.sqrt(eta * xi + nv)
        u = s_mat.conj().T / math.sqrt(eta)
        return np.kron(u * gains[None, :], np.eye(n_rx)) / math.sqrt(math.pi)
    assert case == "simo2-real"
    s = s_mat[0, 0]
    denom = abs(s) ** 2 + nv
    t_off = (2.0 / math.pi) * math.asin(sigma[0, 1].real * abs(s) ** 2 / denom)
    t_mat = np.array([[1.0, t_off], [t_off, 1.0]])
    return np.conj(s) * sigma.real @ np.linalg.inv(t_mat) / math.sqrt(math.pi * denom)


def simo2_pattern_probability(sigma, s, nv, obs):
    """Pr(r) of the real two-antenna case: the real and imaginary sign pairs
    are independent bivariate orthant events with the arcsine law."""
    beta = sigma[0, 1].real * abs(s) ** 2 / (abs(s) ** 2 + nv)
    p_x = 0.25 + math.asin(obs.r_real[0] * obs.r_real[1] * beta) / (2.0 * math.pi)
    p_y = 0.25 + math.asin(obs.r_imag[0] * obs.r_imag[1] * beta) / (2.0 * math.pi)
    return p_x * p_y


# ---------------------------------------------------------------------------
# sign-folded covariance


def test_sign_covariance_scalar():
    stats, _ = scalar_setup(eta=1.0, nv=1.0)  # omega = [[2]]
    for obs in all_sign_patterns(1):
        np.testing.assert_allclose(sign_covariance(stats, obs), np.eye(2), atol=1e-15)


def test_sign_covariance_inverts_to_the_precision_matrix():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    sigma = a @ a.conj().T / 4 + np.eye(4)
    pilots = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    model = build_pilot_model(pilots, 2)
    stats = second_order_stats(model, sigma, 0.9)
    obs = observation_from_signs(
        np.array([1.0, -1.0, -1.0, 1.0]), np.array([-1.0, 1.0, 1.0, 1.0])
    )
    # the paper's precision matrix C of the sign-folded observation
    lam_r = np.diag(obs.r_real)
    lam_i = np.diag(obs.r_imag)
    d_r, d_i = stats.omega_inv.real, stats.omega_inv.imag
    expect = np.block(
        [
            [lam_r @ d_r @ lam_r, lam_r @ d_i.T @ lam_i],
            [lam_i @ d_i @ lam_r, lam_i @ d_r @ lam_i],
        ]
    )
    s = sign_covariance(stats, obs)
    np.testing.assert_array_equal(s, s.T)
    assert np.linalg.eigvalsh(s).min() > 0.0
    np.testing.assert_allclose(0.5 * np.linalg.inv(s), expect, atol=1e-14)


def test_sign_covariance_rejects_wrong_length():
    stats, _ = scalar_setup()
    obs = observation_from_signs(np.ones(2), np.ones(2))
    with pytest.raises(DimensionError):
        sign_covariance(stats, obs)


# ---------------------------------------------------------------------------
# linear estimators


def test_blmmse_scalar_operator_value():
    eta, nv = 10.0, 1.0
    stats, model = scalar_setup(eta, nv)
    w = blmmse_operator(stats, model)
    expect = math.sqrt(eta) / math.sqrt(math.pi * (eta + nv))
    assert w.shape == (1, 1)
    assert w[0, 0] == pytest.approx(expect, rel=1e-14)


def test_blmmse_operator_equals_linear_mmse_when_optimal():
    # two receive antennas, real standardized covariance
    stats, model = simo_setup(exponential_covariance(2, 0.65))
    w = mmse_linear_operator(stats, model)
    assert w is not None
    np.testing.assert_allclose(blmmse_operator(stats, model), w, atol=1e-13)


def test_linear_equivalence_uncorrelated_unitary():
    rng = np.random.default_rng(1)
    for n_tx in (1, 2, 4):
        for n_rx in (1, 2, 4):
            eta = rng.uniform(1.0, 20.0)
            pilots = math.sqrt(eta) * np.eye(n_tx, dtype=complex)
            model = build_pilot_model(pilots, n_rx)
            stats = second_order_stats(
                model, np.eye(n_tx * n_rx, dtype=complex), 1.0
            )
            for obs in sample_observations(stats, model, seed=3, count=40):
                opt = mmse_estimate(stats, model, obs)
                lin = blmmse_estimate(stats, model, obs)
                assert opt.estimator == "mmse-closed"
                assert np.abs(opt.h_hat - lin.h_hat).max() < LINEAR_TOL


def test_linear_equivalence_tx_only_correlation():
    rng = np.random.default_rng(2)
    for n_tx in (2, 4):
        for n_rx in (1, 2):
            dims = SystemDims(n_tx=n_tx, n_rx=n_rx, n_pilots=n_tx)
            sigma = build_covariance(
                {"kind": "bessel-tx", "delta": 0.5, "theta": np.pi / 6, "gamma_max": 0.3},
                dims,
            )
            snr = rng.uniform(1.0, 10.0)
            pilots = build_pilots({"kind": "eigenbasis"}, dims, snr, sigma_ch=sigma)
            model = build_pilot_model(pilots, n_rx)
            stats = second_order_stats(model, sigma, 1.0)
            for obs in sample_observations(stats, model, seed=5, count=40):
                opt = mmse_estimate(stats, model, obs)
                lin = blmmse_estimate(stats, model, obs)
                assert opt.estimator == "mmse-closed"
                assert np.abs(opt.h_hat - lin.h_hat).max() < LINEAR_TOL


def test_linear_equivalence_two_antenna_simo():
    for rho in (0.35, 0.65, 0.95):
        stats, model = simo_setup(exponential_covariance(2, rho))
        for obs in all_sign_patterns(2):
            opt = mmse_estimate(stats, model, obs)
            lin = blmmse_estimate(stats, model, obs)
            assert opt.estimator == "mmse-closed"
            assert np.abs(opt.h_hat - lin.h_hat).max() < LINEAR_TOL


def test_sub_threshold_couplings_stay_closed_and_linear():
    # couplings the optimality verdict ignores must also be split off by the
    # orthant layer, so the posterior mean takes the closed path
    sigma = np.eye(4, dtype=complex)
    for i, k in ((0, 1), (1, 2), (2, 3), (0, 2)):
        sigma[i, k] = sigma[k, i] = 3e-11
    stats, model = simo_setup(sigma)
    assert is_blmmse_optimal(stats).optimal
    for obs in all_sign_patterns(4):
        opt = mmse_estimate(stats, model, obs)
        lin = blmmse_estimate(stats, model, obs)
        assert opt.estimator == "mmse-closed"
        assert np.abs(opt.h_hat - lin.h_hat).max() < LINEAR_TOL


def test_special_case_forms_match_dispatch():
    eta = 7.0
    pilots = math.sqrt(eta) * np.eye(3, dtype=complex)
    model = build_pilot_model(pilots, 2)
    stats = second_order_stats(model, np.eye(6, dtype=complex), 1.0)
    obs = sample_observations(stats, model, seed=11, count=1)[0]
    direct = closed_form_operator("uncorrelated-unitary", model, stats.sigma_ch, 1.0) @ obs.r
    auto = mmse_estimate(stats, model, obs)
    np.testing.assert_allclose(direct, auto.h_hat, atol=1e-12)
    assert auto.pr_r == pytest.approx(4.0 ** (-model.dims.obs_len), rel=1e-12)

    dims = SystemDims(n_tx=3, n_rx=2, n_pilots=3)
    sigma = build_covariance({"kind": "bessel-tx", "gamma_max": 0.2}, dims)
    pilots = build_pilots({"kind": "eigenbasis"}, dims, 5.0, sigma_ch=sigma)
    model = build_pilot_model(pilots, 2)
    stats = second_order_stats(model, sigma, 1.0)
    obs = sample_observations(stats, model, seed=12, count=1)[0]
    direct = closed_form_operator("tx-only-correlation", model, sigma, 1.0) @ obs.r
    auto = mmse_estimate(stats, model, obs)
    np.testing.assert_allclose(direct, auto.h_hat, atol=1e-12)

    sigma = exponential_covariance(2, 0.4)
    stats, model = simo_setup(sigma)
    obs = sample_observations(stats, model, seed=13, count=1)[0]
    direct = closed_form_operator("simo2-real", model, sigma, 1.0) @ obs.r
    auto = mmse_estimate(stats, model, obs)
    np.testing.assert_allclose(direct, auto.h_hat, atol=1e-12)
    pr = simo2_pattern_probability(sigma, model.pilots[0, 0], 1.0, obs)
    assert auto.pr_r == pytest.approx(pr, rel=1e-12)


# ---------------------------------------------------------------------------
# three-antenna closed form


def test_simo3_matches_general_closed_path():
    rng = np.random.default_rng(7)
    for _ in range(3):
        corr = np.eye(3)
        corr[0, 1] = corr[1, 0] = rng.uniform(-0.6, 0.6)
        corr[0, 2] = corr[2, 0] = rng.uniform(-0.6, 0.6)
        corr[1, 2] = corr[2, 1] = rng.uniform(-0.6, 0.6)
        if np.linalg.eigvalsh(corr).min() < 0.05:
            continue
        pilot = rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        nv = rng.uniform(0.4, 2.0)
        stats, model = simo_setup(corr, pilot=pilot, nv=nv)
        for obs in all_sign_patterns(3):
            h_closed, pr_closed = simo3_closed_batch(corr, pilot, nv, obs.r_real, obs.r_imag)
            general = mmse_estimate(stats, model, obs)
            assert general.estimator == "mmse-closed"
            assert np.abs(h_closed - general.h_hat).max() < 1e-12
            assert general.pr_r == pytest.approx(pr_closed, rel=1e-12)


def test_simo3_matches_reduction_on_shipped_config():
    # the hand-written closed form and the sign tables must give the same
    # posterior mean
    cfg = load_sweep_config(os.path.join(CONFIGS, "receive_correlated.yaml"))
    for snr_db in cfg.snr_grid_db:
        stats, model = build_point(cfg, snr_db)
        for obs in all_sign_patterns(3):
            h_closed, pr_closed = simo3_closed_batch(
                stats.sigma_ch.real, model.pilots[0, 0], stats.noise_var, obs.r_real, obs.r_imag
            )
            est = mmse_estimate(stats, model, obs)
            assert est.estimator == "mmse-closed"
            assert np.abs(est.h_hat - h_closed).max() <= 1e-12 * np.abs(h_closed).max()
            assert est.pr_r == pytest.approx(pr_closed, rel=1e-12)


def test_simo3_matches_reduction_for_any_real_covariance():
    # per-antenna observation variances |s|^2 sigma_kk + noise_var carry the
    # closed form from unit diagonals to every real covariance
    rng = np.random.default_rng(21)
    patterns = list(all_sign_patterns(3))
    r_real = np.array([obs.r_real for obs in patterns])
    r_imag = np.array([obs.r_imag for obs in patterns])
    for _ in range(20):
        a = rng.standard_normal((3, 5))
        sigma = a @ a.T / 5.0 + 0.1 * np.eye(3)
        pilot = rng.uniform(0.5, 3.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        nv = rng.uniform(0.4, 2.0)
        stats, model = simo_setup(sigma, pilot=pilot, nv=nv)
        h_closed, pr_closed = simo3_closed_batch(sigma, pilot, nv, r_real, r_imag)
        for obs, h, pr in zip(patterns, h_closed, pr_closed):
            est = mmse_estimate(stats, model, obs)
            assert np.abs(est.h_hat - h).max() <= 1e-12 * np.abs(h).max()
            assert est.pr_r == pytest.approx(pr, rel=1e-12)


def test_simo3_matches_numeric_integration():
    corr = np.array([[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]])
    stats, model = simo_setup(corr)
    obs = observation_from_signs(
        np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -1.0])
    )
    h_closed, pr_closed = simo3_closed_batch(
        corr, model.pilots[0, 0], stats.noise_var, obs.r_real, obs.r_imag
    )
    numeric_h, numeric_pr = numeric_mmse(stats, model, obs, seed=4)
    scale = np.abs(h_closed).max()
    assert np.abs(h_closed - numeric_h).max() < 1e-3 * scale
    assert numeric_pr == pytest.approx(pr_closed, rel=1e-3)


def test_simo3_validation():
    ones3 = np.ones(3)
    with pytest.raises(DimensionError):
        simo3_closed_batch(np.eye(2), 1.0, 1.0, ones3, ones3)
    with pytest.raises(DimensionError):
        simo3_closed_batch(np.eye(3), 1.0, 1.0, np.ones(2), np.ones(2))
    with pytest.raises(DomainError, match="real"):
        simo3_closed_batch(np.eye(3) + 0.2j * (np.eye(3, k=1) - np.eye(3, k=-1)), 1.0, 1.0,
                           ones3, ones3)
    # a non-unit diagonal is in scope: the closed form equals the reduction
    stats, model = simo_setup(2.0 * np.eye(3, dtype=complex), pilot=1.5, nv=1.0)
    for obs in all_sign_patterns(3):
        h_closed, pr_closed = simo3_closed_batch(2.0 * np.eye(3), 1.5, 1.0,
                                                 obs.r_real, obs.r_imag)
        est = mmse_estimate(stats, model, obs)
        np.testing.assert_allclose(h_closed, est.h_hat, rtol=1e-12, atol=0.0)
        assert pr_closed == pytest.approx(est.pr_r, rel=1e-12)
    # noiseless with perfect correlation sits on the arcsine boundary
    with pytest.raises(DomainError, match="boundary"):
        ones = np.full((3, 3), 1.0 - 1e-16)
        np.fill_diagonal(ones, 1.0)
        simo3_closed_batch(ones, 1.0, 0.0, ones3, ones3)


def test_simo3_rejects_sign_arrays_of_the_wrong_shape():
    sigma = exponential_covariance(3, 0.5)
    for r_real, r_imag in ((np.ones(2), np.ones(2)), (np.ones((4, 3)), np.ones(3))):
        with pytest.raises(DimensionError, match=r"sign arrays must be \(\.\.\., 3\)"):
            simo3_closed_batch(sigma, 1.0, 1.0, r_real, r_imag)


def test_simo3_rejects_invalid_correlation_triple():
    # pairwise valid correlations that no covariance can realize; the
    # partial correlation leaves [-1, 1] or a pattern probability goes
    # non-positive, depending on how degenerate the triple is
    sigma = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    obs = observation_from_signs(np.array([-1.0, 1.0, 1.0]), np.ones(3))
    with pytest.raises((NotPositiveDefiniteError, DomainError)):
        simo3_closed_batch(sigma, 10.0, 0.01, obs.r_real, obs.r_imag)


def test_simo3_view_equals_the_hand_written_closed_form():
    # the public three-antenna name reads the sign tables of the point
    cfg = load_sweep_config(os.path.join(CONFIGS, "receive_correlated.yaml"))
    patterns = list(all_sign_patterns(3))
    rr = np.array([obs.r_real for obs in patterns])
    ri = np.array([obs.r_imag for obs in patterns])
    batch = np.stack([rr, -ri]), np.stack([ri, rr])
    assert len(cfg.snr_grid_db) == 9
    for snr_db in cfg.snr_grid_db:
        stats, model = build_point(cfg, snr_db)
        args = (stats.sigma_ch.real, model.pilots[0, 0], stats.noise_var)
        for signs in ((rr, ri), batch):
            h_oracle, pr_oracle = simo3_closed_batch(*args, *signs)
            h_view, pr_view = estimators.simo3_closed_batch(*args, *signs)
            assert h_view.shape == h_oracle.shape and pr_view.shape == pr_oracle.shape
            assert np.abs(h_view - h_oracle).max() <= 1e-12 * np.abs(h_oracle).max()
            np.testing.assert_allclose(pr_view, pr_oracle, rtol=1e-12, atol=0.0)
    assert h_view.shape == (2, 64, 3)
    with pytest.raises(DomainError, match="real"):
        estimators.simo3_closed_batch(np.eye(3) + 0.2j * (np.eye(3, k=1) - np.eye(3, k=-1)),
                                      1.0, 1.0, rr, ri)


def test_simo3_conjugation_symmetry():
    corr = exponential_covariance(3, 0.7)
    stats, model = simo_setup(corr, pilot=1.3 + 0.0j)
    obs = observation_from_signs(
        np.array([1.0, -1.0, 1.0]), np.array([-1.0, 1.0, 1.0])
    )
    conj_obs = observation_from_signs(obs.r_real, -obs.r_imag)
    a = mmse_estimate(stats, model, obs)
    b = mmse_estimate(stats, model, conj_obs)
    np.testing.assert_allclose(b.h_hat, np.conj(a.h_hat), atol=1e-14)
    assert b.pr_r == pytest.approx(a.pr_r, rel=1e-14)


# ---------------------------------------------------------------------------
# general path properties


def general_complex_setup():
    """A configuration no closed form matches: two pilots on one transmit
    antenna with complex cross-correlation in the observation."""
    pilots = np.array([[1.5 + 0.5j], [0.8 - 1.2j]])
    model = build_pilot_model(pilots, 1)
    stats = second_order_stats(model, np.eye(1, dtype=complex), 1.0)
    return stats, model


def test_general_dispatch_label():
    stats, model = general_complex_setup()
    assert mmse_linear_operator(stats, model) is None
    obs = observation_from_signs(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    est = mmse_estimate(stats, model, obs)
    assert est.estimator == "mmse-general"


def test_general_odd_symmetry():
    stats, model = general_complex_setup()
    obs = observation_from_signs(np.array([1.0, -1.0]), np.array([-1.0, 1.0]))
    flipped = observation_from_signs(-obs.r_real, -obs.r_imag)
    a = mmse_estimate(stats, model, obs)
    b = mmse_estimate(stats, model, flipped)
    np.testing.assert_allclose(b.h_hat, -a.h_hat, atol=1e-13)
    assert b.pr_r == pytest.approx(a.pr_r, rel=1e-13)


def rotated(obs):
    """The sign pattern j r: (r_real, r_imag) -> (-r_imag, r_real)."""
    return observation_from_signs(-obs.r_imag, obs.r_real)


def test_rotation_invariance_closed_configs():
    # h_hat(j r) = j h_hat(r) and Pr(j r) = Pr(r): b -> j b preserves the
    # circular prior, so the invariant is exact wherever no integrator runs
    scale = np.sqrt([2.0, 1.0, 0.5])
    cases = [
        scalar_setup(eta=5.0),
        simo_setup(exponential_covariance(3, 0.6), pilot=1.0 + 0.0j),
        simo_setup(scale[:, None] * exponential_covariance(3, 0.6) * scale[None, :]),
    ]
    for stats, model in cases:
        for obs in all_sign_patterns(model.dims.obs_len):
            a = mmse_estimate(stats, model, obs)
            b = mmse_estimate(stats, model, rotated(obs))
            assert b.estimator == a.estimator == "mmse-closed"
            np.testing.assert_allclose(b.h_hat, 1j * a.h_hat, rtol=0.0, atol=1e-12)
            assert b.pr_r == pytest.approx(a.pr_r, rel=1e-12)


def test_rotation_invariance_numeric_config():
    rel_tol = 1e-4
    stats, model = general_complex_setup()
    for obs in all_sign_patterns(2):
        a = mmse_estimate(stats, model, obs, rel_tol=rel_tol, seed=2)
        b = mmse_estimate(stats, model, rotated(obs), rel_tol=rel_tol, seed=2)
        gap = np.abs(b.h_hat - 1j * a.h_hat).max() / np.abs(a.h_hat).max()
        assert gap < 10.0 * rel_tol
        assert b.pr_r == pytest.approx(a.pr_r, rel=10.0 * rel_tol)


def test_rotation_invariance_is_exact_on_numeric_blocks():
    # the tables solve one row of each pair r, j r and derive the other, so
    # the invariant holds bit for bit on a numeric 4-block too, and on the
    # two closed 3-blocks of a receive_correlated point
    numeric = general_complex_setup()
    assert [list(b) for b in _coupling_components(real_form(numeric[0].omega_b))] == [[0, 1, 2, 3]]
    cfg = load_sweep_config(os.path.join(CONFIGS, "receive_correlated.yaml"))
    closed = build_point(cfg, cfg.snr_grid_db[4])
    for (stats, model), label in ((numeric, "mmse-general"), (closed, "mmse-closed")):
        for obs in all_sign_patterns(model.dims.obs_len):
            a = mmse_estimate(stats, model, obs, rel_tol=1e-3, seed=2)
            b = mmse_estimate(stats, model, rotated(obs), rel_tol=1e-3, seed=2)
            assert b.estimator == a.estimator == label
            assert np.array_equal(b.h_hat, 1j * a.h_hat)
            assert b.pr_r == a.pr_r


def test_scalar_pattern_probability_is_quarter():
    stats, model = scalar_setup()
    for obs in all_sign_patterns(1):
        auto = mmse_estimate(stats, model, obs)
        general = mmse_estimate(stats, model, obs, method="general")
        assert auto.pr_r == pytest.approx(0.25, rel=1e-12)
        assert general.pr_r == pytest.approx(0.25, rel=1e-12)
        np.testing.assert_allclose(auto.h_hat, general.h_hat, atol=1e-12)


def test_completeness_closed_configs():
    """Sign-pattern probabilities sum to 1, the probability-weighted
    estimates sum to 0 (the prior mean), and every estimate is exact."""
    # a 1x3 real covariance with a non-unit diagonal fails the optimality
    # verdict, so the sweep reads the sign tables, which solve its two 3x3
    # blocks of S by closed forms
    scale = np.sqrt([2.0, 1.0, 0.5])
    unstandardized = simo_setup(scale[:, None] * exponential_covariance(3, 0.6) * scale[None, :])
    assert mmse_linear_operator(*unstandardized) is None
    cases = [
        scalar_setup(eta=5.0),
        simo_setup(exponential_covariance(2, 0.8)),
        simo_setup(exponential_covariance(3, 0.6), pilot=1.0 + 0.0j),
        unstandardized,
    ]
    for stats, model in cases:
        t = model.dims.obs_len
        total = 0.0
        accum = np.zeros(model.dims.channel_len, dtype=complex)
        for obs in all_sign_patterns(t):
            est = mmse_estimate(stats, model, obs)
            assert est.estimator == "mmse-closed"
            total += est.pr_r
            accum += est.pr_r * est.h_hat
        assert abs(total - 1.0) < 1e-12
        assert np.abs(accum).max() < 1e-12


def test_completeness_numeric_config():
    stats, model = general_complex_setup()
    total = 0.0
    accum = np.zeros(1, dtype=complex)
    for obs in all_sign_patterns(2):
        est = mmse_estimate(stats, model, obs, rel_tol=1e-4, seed=2)
        assert est.estimator == "mmse-general"
        total += est.pr_r
        accum += est.pr_r * est.h_hat
    assert abs(total - 1.0) < 2e-3
    assert np.abs(accum).max() < 2e-3


def test_pattern_probabilities_match_sampling():
    stats, model = general_complex_setup()
    n = 200_000
    b = observe(model, *sample_realizations(stats, model, seed=21, n_samples=n))
    rr = np.where(b.real >= 0.0, 1.0, -1.0)
    ri = np.where(b.imag >= 0.0, 1.0, -1.0)
    for obs in list(all_sign_patterns(2))[:6]:
        hits = np.all(rr == obs.r_real, axis=1) & np.all(ri == obs.r_imag, axis=1)
        freq = hits.mean()
        se = math.sqrt(freq * (1.0 - freq) / n)
        est = mmse_estimate(stats, model, obs, seed=3)
        assert abs(est.pr_r - freq) < 5.0 * se + 1e-3 * est.pr_r


def test_method_argument_validated():
    stats, model = scalar_setup()
    obs = observation_from_signs(np.ones(1), np.ones(1))
    with pytest.raises(DomainError):
        mmse_estimate(stats, model, obs, method="bogus")


@pytest.mark.parametrize("r_real, r_imag, error", [
    ([1.0, -1.0, 1.0], [1.0], DimensionError),
    ([1.0, 0.5, 1.0], [1.0, 1.0, 1.0], DomainError),
    ([1.0, -1.0], [1.0, 1.0], DimensionError),
])
def test_both_estimators_reject_malformed_observations(r_real, r_imag, error):
    # the observation checks its own signs, and each estimator its length,
    # so neither broadcasts a short r_imag nor reads 0.5 as +1
    stats, model = simo_setup(exponential_covariance(3, 0.6))
    for estimate in (blmmse_estimate, mmse_estimate):
        with pytest.raises(error):
            estimate(stats, model, QuantizedObservation(r_real=r_real, r_imag=r_imag))


@pytest.mark.parametrize("rel_tol", [5.0, float("nan"), -1.0, 0.0])
def test_rel_tol_validated_on_closed_points(rel_tol):
    # no integrator runs on a closed point, so the tables check it themselves
    stats, model = simo_setup(exponential_covariance(3, 0.6))
    obs = observation_from_signs(np.ones(3), -np.ones(3))
    with pytest.raises(DomainError, match="rel_tol"):
        mmse_estimate(stats, model, obs, rel_tol=rel_tol)


def test_mmse_estimate_equals_the_whole_s_oracle():
    # one row of the sign tables against one orthant reduction over the
    # whole of S: closed blocks of sizes 1-3 on every pattern, and a numeric
    # 4-block on the 8 of 16 patterns whose row the tables solve; the others
    # are rotations of those (test_rotation_invariance_is_exact_on_numeric_blocks)
    scale = np.sqrt([2.0, 1.0, 0.5])
    cases = [
        (scalar_setup(eta=5.0), False),
        (simo_setup(exponential_covariance(2, 0.8)), False),
        (simo_setup(scale[:, None] * exponential_covariance(3, 0.6) * scale[None, :]), False),
        (general_complex_setup(), True),
    ]
    for (stats, model), numeric in cases:
        patterns = [obs for obs in all_sign_patterns(model.dims.obs_len)
                    if not numeric or solved_by_the_tables(obs.r_real, obs.r_imag)]
        assert len(patterns) == (8 if numeric else 4 ** model.dims.obs_len)
        for obs in patterns:
            for method in ("auto", "general"):
                est = mmse_estimate(stats, model, obs, rel_tol=1e-3, method=method, seed=2)
                oracle = whole_s_mmse(stats, model, obs, rel_tol=1e-3, method=method, seed=2)
                assert np.array_equal(est.h_hat, oracle.h_hat)
                assert est.pr_r == oracle.pr_r
                assert est.estimator == oracle.estimator


def test_block_beyond_the_integrator_fails_before_any_solve(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved an orthant problem before the capability check")

    monkeypatch.setattr(estimators, "positive_orthant_mean", solve)
    # nine complex pilots on one antenna couple all 18 real coordinates of S
    rng = np.random.default_rng(9)
    pilots = rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1))
    model = build_pilot_model(pilots, 1)
    stats = second_order_stats(model, np.eye(1, dtype=complex), 1.0)
    obs = observation_from_signs(np.ones(9), -np.ones(9))
    with pytest.raises(CapabilityError, match="block of 18 coordinates > 16"):
        mmse_estimate(stats, model, obs)
