"""Structural test for exact optimality of the linear estimator.

The linear estimator equals the posterior mean exactly when every row of
the inverse observation covariance couples its coordinate to at most one
other; the checker reads this off (D_R, D_I) and reports a witness row
when it fails.
"""

import math
import os

import numpy as np
import pytest

from onebitmimo import (
    build_point,
    blmmse_estimate,
    build_pilot_model,
    build_pilots,
    exponential_covariance,
    is_blmmse_optimal,
    mmse_estimate,
    observation_from_signs,
    second_order_stats,
)
from onebitmimo.config import load_sweep_config
from onebitmimo.model import SystemDims
from onebitmimo.simulate import build_covariance

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


def test_two_antenna_simo_is_optimal():
    for rho in (0.35, 0.65, 0.95):
        stats, _ = simo_stats(exponential_covariance(2, rho))
        assert is_blmmse_optimal(stats).optimal


def test_three_antenna_dense_correlation_is_not_optimal():
    stats, _ = simo_stats(exponential_covariance(3, 0.5))
    verdict = is_blmmse_optimal(stats)
    assert not verdict.optimal
    w = verdict.witness
    assert w is not None
    assert w.row == 0
    assert {w.col_a, w.col_b} == {1, 2}
    assert w.magnitude_a > verdict.threshold
    assert w.magnitude_b > verdict.threshold


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
    aligned = build_pilots({"kind": "eigenbasis"}, dims, 5.0, 1.0, sigma_ch=sigma)
    model = build_pilot_model(aligned, 2)
    assert is_blmmse_optimal(second_order_stats(model, sigma, 1.0)).optimal

    unaligned = build_pilots({"kind": "scaled-unitary"}, dims, 5.0, 1.0)
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


def test_threshold_scales_with_eps():
    stats, _ = simo_stats(exponential_covariance(3, 0.5))
    a = is_blmmse_optimal(stats, eps=1e-10)
    b = is_blmmse_optimal(stats, eps=1e-2)
    assert b.threshold == pytest.approx(1e8 * a.threshold, rel=1e-9)


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
