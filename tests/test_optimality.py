"""Structural test for exact optimality of the linear estimator.

The linear estimator equals the posterior mean exactly when the
sign-folded covariance S splits into coupled blocks of at most two
coordinates; the checker reads the blocks off the real form of the
observation covariance and reports a witness row when it fails.
"""

import itertools
import math
import os

import numpy as np
import pytest

from onebitmimo import (
    build_point,
    blmmse_estimate,
    blmmse_operator,
    build_pilot_model,
    build_pilots,
    exponential_covariance,
    is_blmmse_optimal,
    mmse_estimate,
    observation_from_signs,
    second_order_stats,
)
from onebitmimo.config import load_sweep_config
from onebitmimo.model import COUPLING_TOL, SystemDims
from onebitmimo.orthant import _coupling_components
from onebitmimo.simulate import build_covariance

from numeric_oracle import sign_covariance

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def simo_stats(sigma, pilot=2.0 + 0.0j, nv=1.0):
    sigma = np.asarray(sigma, dtype=complex)
    model = build_pilot_model(np.array([[pilot]]), sigma.shape[0])
    return second_order_stats(model, sigma, nv), model


def test_uncorrelated_unitary_is_optimal():
    model = build_pilot_model(math.sqrt(8.0) * np.eye(4, dtype=complex), 2)
    stats = second_order_stats(model, np.eye(8, dtype=complex), 1.0)
    verdict = is_blmmse_optimal(stats)
    assert verdict.optimal
    assert verdict.witness is None
    assert verdict.largest_block == 1


def test_two_antenna_simo_is_optimal():
    for rho in (0.35, 0.65, 0.95):
        stats, _ = simo_stats(exponential_covariance(2, rho))
        assert is_blmmse_optimal(stats).optimal


def test_three_antenna_dense_correlation_is_not_optimal():
    stats, _ = simo_stats(exponential_covariance(3, 0.5))
    verdict = is_blmmse_optimal(stats)
    assert not verdict.optimal
    assert verdict.largest_block == 3
    w = verdict.witness
    assert w is not None
    assert w.row == 0
    assert {w.col_a, w.col_b} == {1, 2}
    assert w.magnitude_a > COUPLING_TOL
    assert w.magnitude_b > COUPLING_TOL


def test_witness_magnitudes_are_correlations_of_s():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    stats, _ = simo_stats(a @ a.conj().T / 3 + 0.2 * np.eye(3), pilot=1.5 - 0.5j)
    w = is_blmmse_optimal(stats).witness
    for signs in itertools.product((1.0, -1.0), repeat=6):
        obs = observation_from_signs(np.array(signs[:3]), np.array(signs[3:]))
        s = sign_covariance(stats, obs)
        d = np.sqrt(s.diagonal())
        for col, mag in ((w.col_a, w.magnitude_a), (w.col_b, w.magnitude_b)):
            assert abs(s[w.row, col]) / (d[w.row] * d[col]) == pytest.approx(mag, rel=1e-12)


def test_degenerate_triple_is_optimal():
    # exactly one correlated pair per coordinate
    for pair in ((0, 1), (0, 2), (1, 2)):
        sigma = np.eye(3)
        sigma[pair[0], pair[1]] = sigma[pair[1], pair[0]] = 0.7
        stats, _ = simo_stats(sigma)
        assert is_blmmse_optimal(stats).optimal


def test_eigenbasis_pilots_restore_optimality():
    dims = SystemDims(n_tx=3, n_rx=2, n_pilots=3)
    sigma = build_covariance({"kind": "bessel-tx", "gamma_max": 0.3}, dims)
    aligned = build_pilots({"kind": "eigenbasis"}, dims, 5.0, sigma_ch=sigma)
    model = build_pilot_model(aligned, 2)
    assert is_blmmse_optimal(second_order_stats(model, sigma, 1.0)).optimal

    unaligned = build_pilots({"kind": "scaled-unitary"}, dims, 5.0)
    model = build_pilot_model(unaligned, 2)
    assert not is_blmmse_optimal(second_order_stats(model, sigma, 1.0)).optimal

    # the shipped eight-antenna eigenbasis sweep: Omega^{-1} is diagonal up
    # to rounding noise, which must not count as coupling at any SNR
    cfg = load_sweep_config(os.path.join(CONFIGS, "transmit_correlated.yaml"))
    for snr_db in cfg.snr_grid_db:
        stats, _ = build_point(cfg, snr_db)
        assert is_blmmse_optimal(stats).optimal, snr_db


def test_noise_floor_coupling_ignored():
    sigma = np.eye(2, dtype=complex)
    sigma[0, 1] = sigma[1, 0] = 1e-15
    model = build_pilot_model(2.0 * np.eye(2, dtype=complex), 1)
    stats = second_order_stats(model, sigma, 1.0)
    assert is_blmmse_optimal(stats).optimal


def test_verdict_agrees_with_estimators():
    """optimal=True must mean the estimates coincide; optimal=False must be
    witnessed by at least one sign pattern where they do not."""
    stats, model = simo_stats(exponential_covariance(2, 0.8))
    assert is_blmmse_optimal(stats).optimal
    worst = 0.0
    for bits in range(16):
        rr = np.array([1.0 if bits & 1 else -1.0, 1.0 if bits & 2 else -1.0])
        ri = np.array([1.0 if bits & 4 else -1.0, 1.0 if bits & 8 else -1.0])
        obs = observation_from_signs(rr, ri)
        gap = np.abs(
            mmse_estimate(stats, model, obs).h_hat
            - blmmse_estimate(stats, model, obs).h_hat
        ).max()
        worst = max(worst, gap)
    assert worst < 1e-9

    stats, model = simo_stats(exponential_covariance(3, 0.95), pilot=10.0 + 0.0j)
    assert not is_blmmse_optimal(stats).optimal
    worst = 0.0
    for bits in range(8):
        rr = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(3)])
        obs = observation_from_signs(rr, np.ones(3))
        gap = np.abs(
            mmse_estimate(stats, model, obs).h_hat
            - blmmse_estimate(stats, model, obs).h_hat
        ).max()
        worst = max(worst, gap)
    assert worst > 1e-3


def test_verdict_reads_the_blocks_the_orthant_layer_splits():
    # a badly scaled Omega: the (0, 1) coupling is tiny next to Omega_00 but
    # still a correlation of 1e-9, so S splits into blocks of three
    omega = np.diag([1e4, 1.0, 1.0])
    omega[0, 1] = omega[1, 0] = omega[1, 2] = omega[2, 1] = 1e-7
    stats, _ = simo_stats(omega - 0.5 * np.eye(3), pilot=1.0 + 0.0j, nv=0.5)
    verdict = is_blmmse_optimal(stats)
    for signs in itertools.product((1.0, -1.0), repeat=6):
        obs = observation_from_signs(np.array(signs[:3]), np.array(signs[3:]))
        blocks = _coupling_components(sign_covariance(stats, obs))
        assert verdict.optimal == all(len(b) <= 2 for b in blocks)
    assert verdict.largest_block == 3


def _short_configs():
    """(name, stats, model) of small configurations with obs_len <= 2:
    frozen-seed random real and complex 1x2 and 2x1 draws, plus the
    paper's structured cases."""
    rng = np.random.default_rng(2024)
    out = []
    for draw in range(3):
        for real in (True, False):
            def cplx(*shape):
                z = rng.standard_normal(shape)
                return z if real else z + 1j * rng.standard_normal(shape)

            kind = "real" if real else "complex"
            a = cplx(2, 2)
            sigma = (a @ a.conj().T / 2 + 0.3 * np.eye(2)).astype(complex)
            model = build_pilot_model(cplx(1, 1).astype(complex), 2)
            out.append((f"{kind} 1x2 #{draw}", second_order_stats(model, sigma, 0.5), model))
            model = build_pilot_model(cplx(2, 2).astype(complex), 1)
            out.append((f"{kind} 2x1 #{draw}", second_order_stats(model, sigma, 0.5), model))

    dims = SystemDims(n_tx=2, n_rx=1, n_pilots=2)
    model = build_pilot_model(build_pilots({"kind": "scaled-unitary"}, dims, 4.0), 1)
    out.append(("uncorrelated unitary", second_order_stats(model, np.eye(2), 1.0), model))
    sigma = build_covariance({"kind": "bessel-tx", "gamma_max": 0.5}, dims)
    model = build_pilot_model(build_pilots({"kind": "eigenbasis"}, dims, 4.0, sigma_ch=sigma), 1)
    out.append(("tx correlation, eigenbasis pilots", second_order_stats(model, sigma, 1.0), model))
    stats, model = simo_stats(exponential_covariance(2, 0.8))
    out.append(("real 1x2", stats, model))
    # purely imaginary coupling: Re b_0 pairs with Im b_1 and Im b_0 with Re b_1
    stats, model = simo_stats(np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
    out.append(("imaginary 1x2 coupling", stats, model))
    return out


def test_verdict_holds_iff_the_exact_gap_is_zero():
    """The paper's condition, both directions: enumerate every sign pattern
    and form gap = sum_r Pr(r) ||h_mmse(r) - W r||^2 / N, which by
    orthogonality is exactly MSE_blmmse - MSE_mmse.

    With obs_len <= 2 every orthant integral is closed-form except P(S) of a
    coupled 4-block, so h_mmse(r) Pr(r) is exact.  Were the true gap zero, a
    relative error e in that P(S) would leave a numeric gap of
    e^2 sum_r Pr(r) ||h_mmse(r)||^2 / N; a non-optimal gap must exceed that
    floor at 5 standard errors of the integrator."""
    rel_tol = 3e-6
    verdicts = []
    for name, stats, model in _short_configs():
        t = model.dims.obs_len
        w = blmmse_operator(stats, model)
        gap = total = power = 0.0
        for signs in itertools.product((1.0, -1.0), repeat=2 * t):
            obs = observation_from_signs(np.array(signs[:t]), np.array(signs[t:]))
            est = mmse_estimate(stats, model, obs, rel_tol=rel_tol)
            gap += est.pr_r * np.sum(np.abs(est.h_hat - w @ obs.r) ** 2)
            power += est.pr_r * np.sum(np.abs(est.h_hat) ** 2)
            total += est.pr_r
        gap /= model.dims.channel_len
        optimal = is_blmmse_optimal(stats).optimal
        verdicts.append(optimal)
        assert total == pytest.approx(1.0, abs=1e-4), name
        if optimal:
            assert gap < 1e-20, (name, gap)
        else:
            floor = (5.0 * rel_tol) ** 2 * power / model.dims.channel_len
            assert gap > floor, (name, gap, floor)
    assert any(verdicts) and not all(verdicts)
