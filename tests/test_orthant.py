"""Orthant probabilities and truncated means.

Closed forms are pinned to hand-derived exact values; the quadrature of
Plackett's identity and the quasi-random integrator are cross-checked
against the closed forms, the plain Monte Carlo counting oracle, which
shares no code with either, and (the quadrature) a many-node reference of
the same identity or, for 6 equicorrelated coordinates, a one-dimensional
integral of the normal distribution function.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr

from onebitmimo import (
    AccuracyError,
    CapabilityError,
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
    build_pilot_model,
    mmse_estimate,
    observation_from_signs,
    orthant_probability,
    positive_orthant_mean,
    second_order_stats,
    standardize,
)
from onebitmimo import orthant
from onebitmimo.config import sweep_config_from_dict
from onebitmimo.model import COUPLING_TOL, real_form
from onebitmimo.orthant import (
    _N_SHIFTS,
    DEFAULT_MAX_SAMPLES,
    DEFAULT_REL_TOL,
    MAX_QMC_DIM,
    _closed_orthant,
    _conditional_covariances,
    _coupling_components,
    _mean_single_block,
    _plackett_orthant,
    _qmc_orthant,
    arcsin_clamped,
)
from onebitmimo.simulate import build_point

from numeric_oracle import (
    numeric_orthant_mean,
    numeric_orthant_probability,
    orthant_probability_mc,
    plackett_orthant_reference,
    positive_orthant_mean_mc,
    qmc_orthant_per_shift,
    sign_covariance,
    truncated_mean_cf_2d,
)

CLOSED_TOL = 1e-12


def random_correlation(n, rng, extra=2):
    a = rng.standard_normal((n, n + extra))
    c = a @ a.T
    d = 1.0 / np.sqrt(np.diagonal(c))
    corr = d[:, None] * c * d[None, :]
    np.fill_diagonal(corr, 1.0)
    return corr


def equicorrelated(n, rho):
    return (1.0 - rho) * np.eye(n) + rho * np.ones((n, n))


def sign_pattern_flip(psi, signs):
    s = np.asarray(signs, dtype=float)
    return np.outer(s, s) * psi


# ---------------------------------------------------------------------------
# closed forms


def test_closed_form_values():
    # independent scalars: 2^-L; pairwise: 1/4 + arcsin(rho)/(2 pi)
    assert abs(orthant_probability(np.eye(1)) - 0.5) < CLOSED_TOL
    assert abs(orthant_probability(np.eye(2)) - 0.25) < CLOSED_TOL
    assert abs(orthant_probability(np.eye(3)) - 0.125) < CLOSED_TOL
    assert abs(orthant_probability(equicorrelated(2, 0.5)) - 1.0 / 3.0) < CLOSED_TOL
    assert abs(orthant_probability(equicorrelated(2, -0.5)) - 1.0 / 6.0) < CLOSED_TOL
    assert abs(orthant_probability(equicorrelated(3, 0.5)) - 0.25) < CLOSED_TOL


def test_closed_form_matches_arcsine_expression():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rho = rng.uniform(-0.95, 0.95)
        expect = 0.25 + math.asin(rho) / (2.0 * math.pi)
        assert abs(orthant_probability(equicorrelated(2, rho)) - expect) < CLOSED_TOL
    for _ in range(25):
        psi = random_correlation(3, rng)
        expect = 0.125 + (
            math.asin(psi[0, 1]) + math.asin(psi[0, 2]) + math.asin(psi[1, 2])
        ) / (4.0 * math.pi)
        assert abs(orthant_probability(psi) - expect) < CLOSED_TOL


def test_closed_forms_give_each_matrix_of_a_stack_its_own_bits():
    # the sign tables fill closed rows in one stacked call, and the whole-S
    # oracle solves one block at a time: the two must agree to the bit
    rng = np.random.default_rng(16)
    assert _closed_orthant(np.empty((0, 0))) == 1.0
    assert _closed_orthant(np.eye(1)) == 0.5
    for n in (1, 2, 3):
        a = rng.standard_normal((2, 40, n, n + 1))
        psi = a @ np.swapaxes(a, -1, -2) + 0.05 * np.eye(n)
        scale = np.sqrt(np.diagonal(psi, axis1=-2, axis2=-1))
        corr = psi / (scale[..., :, None] * scale[..., None, :])
        mean, prob = _mean_single_block(psi, DEFAULT_REL_TOL, DEFAULT_MAX_SAMPLES, 0)
        probs = _closed_orthant(corr)
        assert mean.shape == (2, 40, n) and prob.shape == probs.shape == (2, 40)
        for idx in np.ndindex(2, 40):
            alone_mean, alone_prob = _mean_single_block(psi[idx], DEFAULT_REL_TOL,
                                                        DEFAULT_MAX_SAMPLES, 0)
            assert np.array_equal(alone_mean, mean[idx])
            assert alone_prob == prob[idx]
            assert _closed_orthant(corr[idx]) == probs[idx]


def test_scale_invariance():
    # every route reads its block's correlations from the covariance:
    # closed forms, quadrature (4, 5), nested quadrature (6), lattice (7)
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5, 6, 7):
        psi = random_correlation(n, rng)
        scale = np.diag(rng.uniform(0.1, 10.0, size=n))
        p_std = orthant_probability(psi, seed=5)
        p_scaled = orthant_probability(scale @ psi @ scale, seed=5)
        assert p_scaled == pytest.approx(p_std, rel=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_sign_patterns_sum_to_one(n):
    rng = np.random.default_rng(n)
    for _ in range(10):
        psi = random_correlation(n, rng)
        total = 0.0
        for bits in range(2**n):
            signs = [1.0 if bits & (1 << i) else -1.0 for i in range(n)]
            total += orthant_probability(sign_pattern_flip(psi, signs))
        assert abs(total - 1.0) < 1e-12


def test_block_diagonal_splits_exactly():
    psi = np.zeros((4, 4))
    psi[:2, :2] = equicorrelated(2, 0.7)
    psi[2:, 2:] = equicorrelated(2, -0.3)
    expect = (0.25 + math.asin(0.7) / (2 * math.pi)) * (
        0.25 + math.asin(-0.3) / (2 * math.pi)
    )
    assert abs(orthant_probability(psi) - expect) < CLOSED_TOL
    # the split-free numeric path integrates the same matrix in full
    p_numeric = numeric_orthant_probability(psi, seed=2)
    assert p_numeric == pytest.approx(expect, rel=1e-3)


def test_coupling_components_follow_chains():
    # chain couplings link the ends of a block only through every link; a
    # coupling below COUPLING_TOL links nothing
    rng = np.random.default_rng(61)
    perm = rng.permutation(11)
    blocks = [perm[:6], perm[6:7], perm[7:]]
    m = np.eye(11)
    for block in blocks:
        for i, k in zip(block[:-1], block[1:]):
            m[i, k] = m[k, i] = 0.3
    m[blocks[0][0], blocks[2][0]] = m[blocks[2][0], blocks[0][0]] = 0.5 * COUPLING_TOL
    expect = sorted(sorted(block.tolist()) for block in blocks)
    assert [comp.tolist() for comp in _coupling_components(m)] == expect


# ---------------------------------------------------------------------------
# quasi-random integrator


def test_qmc_matches_closed_forms():
    rng = np.random.default_rng(17)
    for n in (2, 3):
        for _ in range(5):
            psi = random_correlation(n, rng)
            closed = orthant_probability(psi)
            qmc = numeric_orthant_probability(psi, seed=9)
            assert qmc == pytest.approx(closed, rel=1e-3)


def test_qmc_matches_counting_oracle():
    rng = np.random.default_rng(29)
    for n in (4, 5):
        psi = random_correlation(n, rng)
        qmc = orthant_probability(psi, seed=1)
        mc, se = orthant_probability_mc(psi, 2_000_000, seed=4)
        assert abs(qmc - mc) < 5.0 * se + 1e-3 * qmc


def test_qmc_deterministic_per_seed():
    psi = random_correlation(4, np.random.default_rng(41))
    a = orthant_probability(psi, seed=7)
    b = orthant_probability(psi, seed=7)
    c = orthant_probability(psi, seed=8)
    assert a == b
    assert c == pytest.approx(a, rel=1e-3)


def test_qmc_direct_matches_counting_oracle():
    rng = np.random.default_rng(29)
    for n in (4, 5):
        psi = random_correlation(n, rng)
        qmc = _qmc_orthant(standardize(psi), orthant.DEFAULT_REL_TOL, DEFAULT_MAX_SAMPLES, 1)[0]
        mc, se = orthant_probability_mc(psi, 2_000_000, seed=4)
        assert abs(qmc - mc) < 5.0 * se + 1e-3 * qmc


def test_qmc_direct_deterministic_per_seed():
    corr = standardize(random_correlation(4, np.random.default_rng(41)))
    a = _qmc_orthant(corr, orthant.DEFAULT_REL_TOL, DEFAULT_MAX_SAMPLES, 7)[0]
    b = _qmc_orthant(corr, orthant.DEFAULT_REL_TOL, DEFAULT_MAX_SAMPLES, 7)[0]
    c = _qmc_orthant(corr, orthant.DEFAULT_REL_TOL, DEFAULT_MAX_SAMPLES, 8)[0]
    assert a == b
    assert c == pytest.approx(a, rel=1e-3)


def test_qmc_accuracy_error_carries_estimate():
    # the quadrature meets this tolerance on this 4-block (next test), so
    # the lattice's own failure is checked on the lattice itself
    psi = random_correlation(4, np.random.default_rng(5))
    with pytest.raises(AccuracyError) as info:
        _qmc_orthant(standardize(psi), 1e-10, 50_000, 0)
    assert info.value.estimate > 0.0
    assert info.value.error_estimate > 0.0


def test_quadrature_meets_a_tolerance_beyond_the_lattice_budget():
    psi = random_correlation(4, np.random.default_rng(5))
    p = orthant_probability(psi, rel_tol=1e-10, max_samples=50_000, seed=0)
    ref = plackett_orthant_reference(psi)
    assert abs(p - ref) <= 1e-10 * ref


# ---------------------------------------------------------------------------
# quadrature of Plackett's identity


def test_kronrod_rule_integrates_polynomials_exactly():
    # 15 Kronrod nodes are exact to degree 22, the embedded 7 Gauss nodes
    # to degree 13; on [0, 1] the integral of x^d is 1 / (d + 1)
    x = orthant._NODES
    for d in range(23):
        assert orthant._KRONROD_WEIGHTS @ x**d == pytest.approx(1.0 / (d + 1), rel=1e-14)
        if d <= 13:
            assert orthant._GAUSS_WEIGHTS @ x**d == pytest.approx(1.0 / (d + 1), rel=1e-14)
    assert abs(orthant._GAUSS_WEIGHTS @ x**14 - 1.0 / 15) > 1e-10


def test_nested_kronrod_rule_integrates_polynomials_exactly():
    # the 7 Kronrod nodes of the nested level are exact to degree 11, the
    # embedded 3 Gauss nodes to degree 5, and neither beyond
    x, kronrod, gauss = orthant._RULE_7
    assert len(x) == 7 and np.count_nonzero(gauss) == 3
    for d in range(12):
        assert kronrod @ x**d == pytest.approx(1.0 / (d + 1), rel=1e-14)
        if d <= 5:
            assert gauss @ x**d == pytest.approx(1.0 / (d + 1), rel=1e-14)
    assert abs(kronrod @ x**12 - 1.0 / 13) > 1e-10
    assert abs(gauss @ x**6 - 1.0 / 7) > 1e-10


def test_quadrature_equals_closed_form_on_3x3():
    # P_1 = 1/2 is constant under the substitution t R_ij = sin u, so the
    # rule integrates it exactly and the identity reduces to the arcsine sum
    a = np.random.default_rng(71).standard_normal((40, 3, 5))
    for cov in a @ np.swapaxes(a, -1, -2):
        corr = standardize(cov)
        est, err = _plackett_orthant(corr, 1e-15)
        assert abs(est - _closed_orthant(corr)) <= 1e-15
        assert err <= 1e-15


def test_quadrature_matches_counting_oracle(monkeypatch):
    monkeypatch.setattr(orthant, "_qmc_orthant", None)
    rng = np.random.default_rng(31)
    for n in (4, 5):
        for _ in range(2):
            psi = random_correlation(n, rng)
            p = orthant_probability(psi, seed=1)
            mc, se = orthant_probability_mc(psi, 2_000_000, seed=4)
            assert abs(p - mc) < 5.0 * se


@pytest.mark.parametrize("n", [4, 5])
def test_quadrature_sign_patterns_sum_to_one(monkeypatch, n):
    # the 2^n sign flips of one block cancel term by term when every flip
    # takes the same rule, so the sum is 1 to rounding, which the lattice's
    # standard error cannot reach; flips that split their integrals into
    # panels hold it to the quadrature's accuracy instead
    monkeypatch.setattr(orthant, "_qmc_orthant", None)
    rng = np.random.default_rng(n)
    for _ in range(5):
        psi = random_correlation(n, rng)
        flips = [sign_pattern_flip(psi, signs) for signs in itertools.product((-1.0, 1.0), repeat=n)]
        one_panel = [_plackett_orthant(standardize(flip), 1.0) for flip in flips]
        assert all(err <= 1e-2 * est for est, err in one_panel)
        assert abs(sum(orthant_probability(flip, rel_tol=1e-2) for flip in flips) - 1.0) < 1e-12
        assert abs(sum(orthant_probability(flip) for flip in flips) - 1.0) < 1e-8


def near_singular_blocks():
    """Four 5-blocks with two nearly equal coordinates, max |rho| above
    0.9997, where the integrand steepens towards the end of a pair's range."""
    rng = np.random.default_rng(17)
    for _ in range(4):
        a = rng.standard_normal((5, 5))
        a[1] = a[0] + 0.01 * rng.standard_normal(5)
        corr = standardize(a @ a.T)
        assert np.abs(corr - np.eye(5)).max() >= 0.9997
        yield corr


def lattice_calls(monkeypatch):
    """Log the dimension of every block handed to the lattice integrator."""
    calls = []
    qmc = orthant._qmc_orthant

    def qmc_spy(corr, *args):
        calls.append(corr.shape[0])
        return qmc(corr, *args)

    monkeypatch.setattr(orthant, "_qmc_orthant", qmc_spy)
    return calls


def test_near_singular_block_stays_on_the_quadrature(monkeypatch):
    # bisection towards the steep end meets rel_tol in the estimate and
    # against a many-node reference of the same identity
    lattice = lattice_calls(monkeypatch)
    for corr in near_singular_blocks():
        ref = plackett_orthant_reference(corr)
        fine_ref = plackett_orthant_reference(corr, nodes=1024)
        for rel_tol, reference in ((1e-3, ref), (1e-4, ref), (1e-6, fine_ref)):
            est, err = _plackett_orthant(corr, rel_tol)
            p = orthant_probability(corr, rel_tol=rel_tol, seed=3)
            assert p == est and err <= rel_tol * p
            assert abs(p - reference) <= rel_tol * reference
    assert lattice == []


def test_spent_panel_budget_raises_accuracy_error(monkeypatch):
    # a budget of one panel per pair leaves nothing to bisect, and this
    # block misses rel_tol on one panel per pair
    lattice = lattice_calls(monkeypatch)
    monkeypatch.setattr(orthant, "_PLACKETT_PANELS", 10)
    with pytest.raises(AccuracyError) as info:
        orthant_probability(next(near_singular_blocks()), rel_tol=1e-4, seed=3)
    assert info.value.estimate > 0.0
    assert info.value.error_estimate > 1e-4 * info.value.estimate
    assert lattice == []


@pytest.mark.parametrize("n", [4, 5])
def test_equicorrelated_blocks_meet_a_tight_tolerance(n):
    for rho in (0.9, 0.99, 0.999, -0.2):
        psi = equicorrelated(n, rho)
        ref = plackett_orthant_reference(psi)
        assert abs(orthant_probability(psi, rel_tol=1e-10) - ref) <= 1e-10 * ref


# ---------------------------------------------------------------------------
# nested quadrature of 6 coordinates


def equicorrelated_orthant(n, rho):
    """P_n(rho) = int phi(z) Phi(z sqrt(rho / (1 - rho)))^n dz, the orthant
    probability of n equicorrelated coordinates, rho >= 0."""
    a = math.sqrt(rho / (1.0 - rho))
    f = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * ndtr(a * z) ** n
    return integrate.quad(f, -np.inf, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def estimate_general_block():
    """S of the all-positive pattern of a 1x3 complex exponential covariance
    (rho 0.9, phase 0.7) at 10 dB: one coupled block of 6 coordinates."""
    lag = np.subtract.outer(np.arange(3), np.arange(3))
    omega = 10.0 * 0.9 ** np.abs(lag) * np.exp(0.7j * lag) + np.eye(3)
    return 0.5 * real_form(omega)


def test_six_block_equicorrelated_meets_a_tight_tolerance(monkeypatch):
    lattice = lattice_calls(monkeypatch)
    for rho in (0.5, 0.9, 0.99, 0.999):
        ref = equicorrelated_orthant(6, rho)
        p = orthant_probability(equicorrelated(6, rho), rel_tol=1e-7)
        assert abs(p - ref) <= 1e-7 * ref
    assert lattice == []


@pytest.mark.parametrize("block", ["random", "estimate-general"])
def test_six_block_sign_patterns_sum_to_one(monkeypatch, block):
    # flips that all take one pass of both levels cancel term by term, so
    # their sum is 1 to rounding; the random block's first pass misses
    # 1e-3 on some flips (up to 1.5e-2 P), whose refinement holds the sum
    # to the quadrature's accuracy instead
    monkeypatch.setattr(orthant, "_qmc_orthant", None)
    if block == "random":
        psi, one_pass_tol = random_correlation(6, np.random.default_rng(53)), 2e-2
    else:
        psi, one_pass_tol = estimate_general_block(), 1e-3
    flips = [sign_pattern_flip(psi, signs) for signs in itertools.product((-1.0, 1.0), repeat=6)]
    with monkeypatch.context() as one_pass:
        one_pass.setattr(orthant, "_PLACKETT_PANELS", 15)
        total = sum(orthant_probability(flip, rel_tol=one_pass_tol) for flip in flips)
    assert abs(total - 1.0) < 1e-12
    assert abs(sum(orthant_probability(flip, rel_tol=1e-3) for flip in flips) - 1.0) < (
        1e-12 if block == "estimate-general" else 1e-8)


def test_six_block_matches_counting_oracle(monkeypatch):
    lattice = lattice_calls(monkeypatch)
    psi = random_correlation(6, np.random.default_rng(37))
    p = orthant_probability(psi, seed=1)
    mc, se = orthant_probability_mc(psi, 2_000_000, seed=4)
    assert abs(p - mc) < 5.0 * se
    assert lattice == []


def test_six_block_spent_panel_budget_raises_accuracy_error(monkeypatch):
    # one panel per pair leaves no room to halve a panel or to tighten its
    # inner integrals, and the first pass on this block misses 1e-4
    lattice = lattice_calls(monkeypatch)
    monkeypatch.setattr(orthant, "_PLACKETT_PANELS", 15)
    with pytest.raises(AccuracyError) as info:
        orthant_probability(random_correlation(6, np.random.default_rng(53)), rel_tol=1e-4)
    assert info.value.estimate > 0.0
    assert info.value.error_estimate > 1e-4 * info.value.estimate
    assert lattice == []


def record_rounds(monkeypatch):
    """Log each lattice round of the integrator as [n_pts, rows of each
    integrand call]."""
    rounds = []
    cbc_vector, integrand = orthant._cbc_vector, orthant._integrand

    def cbc_spy(dim, n_pts):
        rounds.append([n_pts])
        return cbc_vector(dim, n_pts)

    def integrand_spy(chol, pts):
        rounds[-1].append(pts.shape[0])
        return integrand(chol, pts)

    monkeypatch.setattr(orthant, "_cbc_vector", cbc_spy)
    monkeypatch.setattr(orthant, "_integrand", integrand_spy)
    return rounds


def integrate_both(corr, rel_tol, max_samples, seed):
    """Outcome of the one-pass round and of the per-shift loop: (estimate,
    error), or the estimate and error an AccuracyError carries."""
    out = []
    for integrate in (orthant._qmc_orthant, qmc_orthant_per_shift):
        try:
            out.append(integrate(corr, rel_tol, max_samples, seed))
        except AccuracyError as exc:
            out.append(("AccuracyError", exc.estimate, exc.error_estimate))
    return out


def test_round_pass_equals_per_shift_loop(monkeypatch):
    rng = np.random.default_rng(61)
    for n in range(4, 13):
        new, old = integrate_both(random_correlation(n, rng), 1e-3, DEFAULT_MAX_SAMPLES, n)
        assert new == old
    rounds = record_rounds(monkeypatch)
    new, old = integrate_both(random_correlation(8, rng), 1e-4, DEFAULT_MAX_SAMPLES, 2)
    assert len(rounds) >= 3
    assert new == old


@pytest.mark.parametrize("cap", [2**16, 2**10])
def test_round_pass_bounds_points_per_call(monkeypatch, cap):
    # the budget runs out after a round outgrows cap / _N_SHIFTS points; at
    # 2**10 single shifts outgrow the cap itself and go one to a call
    monkeypatch.setattr(orthant, "_MAX_CALL_POINTS", cap)
    rounds = record_rounds(monkeypatch)
    corr = random_correlation(8, np.random.default_rng(3))
    new, old = integrate_both(corr, 1e-6, 300_000, 1)
    assert new[0] == "AccuracyError"
    assert new == old
    for n_pts, *rows in rounds:
        assert sum(rows) == _N_SHIFTS * n_pts
        assert all(r % n_pts == 0 and r <= max(cap, n_pts) for r in rows)
    assert any(len(rows) > 1 for _, *rows in rounds)
    assert cap == 2**16 or any(n_pts > cap for n_pts, *_ in rounds)


def test_first_round_is_one_integrand_call(monkeypatch):
    rounds = record_rounds(monkeypatch)
    orthant._qmc_orthant(random_correlation(5, np.random.default_rng(7)), 1e-3,
                         DEFAULT_MAX_SAMPLES, 0)
    assert rounds[0] == [499, _N_SHIFTS * 499]


def test_reordering_is_invisible():
    rng = np.random.default_rng(53)
    for n in (5, 6):
        psi = random_correlation(n, rng)
        perm = rng.permutation(n)
        p = orthant_probability(psi, seed=2)
        p_perm = orthant_probability(psi[np.ix_(perm, perm)], seed=2)
        assert p_perm == pytest.approx(p, rel=1e-3)


def test_reordering_is_invisible_on_the_lattice():
    # the blocks of the previous test, which the quadrature now serves,
    # on the lattice itself
    rng = np.random.default_rng(53)
    for n in (5, 6):
        psi = random_correlation(n, rng)
        perm = rng.permutation(n)
        p = numeric_orthant_probability(psi, seed=2)
        p_perm = numeric_orthant_probability(psi[np.ix_(perm, perm)], seed=2)
        assert p_perm == pytest.approx(p, rel=1e-3)


def test_numeric_path_matches_closed_forms_of_blocks():
    rng = np.random.default_rng(59)
    blocks = [random_correlation(3, rng), random_correlation(3, rng)]
    psi = np.zeros((6, 6))
    psi[:3, :3], psi[3:, 3:] = blocks
    expect = orthant_probability(blocks[0]) * orthant_probability(blocks[1])
    p_numeric = numeric_orthant_probability(psi, seed=4)
    assert p_numeric == pytest.approx(expect, rel=1e-3)


def order8_problem(r_real, r_imag):
    """Sign-folded covariance S of one sign pattern of a 1 tx, 2 rx, tau = 2
    complex config at 10 dB: the order-8 orthant problem behind Pr(r)."""
    idx = np.arange(2)
    lag = idx[:, None] - idx[None, :]
    sigma = 0.9 ** np.abs(lag) * np.exp(0.7j * lag)
    raw = {
        "dims": {"n_tx": 1, "n_rx": 2, "n_pilots": 2},
        "covariance": {"kind": "custom", "real": sigma.real.tolist(),
                       "imag": sigma.imag.tolist()},
        "pilots": {"kind": "explicit", "real": [[1.0], [0.0]], "imag": [[0.0], [1.0]]},
        "snr_grid_db": [10.0],
        "estimators": ["mmse"],
        "trials": 1,
        "seed": 0,
    }
    stats, _ = build_point(sweep_config_from_dict(raw), 10.0)
    obs = observation_from_signs(np.array(r_real, float), np.array(r_imag, float))
    return sign_covariance(stats, obs)


# Patterns on which an unreordered Richtmyer lattice spent 10^7 evaluations
# without reaching the default tolerance.
@pytest.mark.parametrize(
    "r_real, r_imag",
    [
        ([-1, 1, 1, 1], [1, 1, 1, 1]),
        ([-1, 1, 1, 1], [1, -1, 1, 1]),
        ([-1, 1, 1, -1], [1, 1, 1, 1]),
    ],
)
def test_order8_default_tolerance_completes(r_real, r_imag):
    psi = order8_problem(r_real, r_imag)
    p = orthant_probability(psi, seed=0)
    mc, se = orthant_probability_mc(psi, 4_000_000, seed=12)
    assert abs(p - mc) < 5.0 * se


def test_dimension_cap():
    psi = equicorrelated(MAX_QMC_DIM + 1, 0.3)
    with pytest.raises(CapabilityError):
        orthant_probability(psi)


def test_block_over_the_cap_refused_before_any_block(monkeypatch):
    # a servable 4-block first, then one beyond MAX_QMC_DIM: the call is
    # refused before the 4-block reaches the quadrature
    calls = []
    quadrature = orthant._plackett_orthant

    def spy(*args):
        calls.append(args)
        return quadrature(*args)

    monkeypatch.setattr(orthant, "_plackett_orthant", spy)
    psi = np.zeros((MAX_QMC_DIM + 5, MAX_QMC_DIM + 5))
    psi[:4, :4] = equicorrelated(4, 0.3)
    psi[4:, 4:] = equicorrelated(MAX_QMC_DIM + 1, 0.3)
    for entry in (orthant_probability, positive_orthant_mean):
        with pytest.raises(CapabilityError,
                           match=f"block of {MAX_QMC_DIM + 1} coordinates > {MAX_QMC_DIM}"):
            entry(psi)
    assert calls == []


# ---------------------------------------------------------------------------
# input validation


def test_standardize_splits_scale():
    corr = standardize(np.array([[4.0, 1.0], [1.0, 1.0]]))
    np.testing.assert_allclose(corr, [[1.0, 0.5], [0.5, 1.0]])


@pytest.mark.parametrize("rel_tol", [-1.0, 0.0, 1.0, math.nan, "0.001"])
def test_rel_tol_outside_unit_interval_rejected(rel_tol):
    # checked before any integration, where a negative or NaN tolerance
    # would spend the whole evaluation budget before failing
    psi = equicorrelated(4, 0.3)
    for entry in (orthant_probability, positive_orthant_mean):
        with pytest.raises(DomainError, match="rel_tol"):
            entry(psi, rel_tol=rel_tol, max_samples=10_000)


@pytest.mark.parametrize("max_samples", [0, -5, 1, 2 * _N_SHIFTS - 1, 100.0, True, "100"])
def test_max_samples_below_one_round_rejected(max_samples):
    # checked before any block is solved, where the lattice would spend a
    # whole round of 2 _N_SHIFTS evaluations past the budget first; a block
    # of 7 is the smallest the lattice serves
    psi = equicorrelated(7, 0.3)
    for entry in (orthant_probability, positive_orthant_mean):
        with pytest.raises(DomainError, match="max_samples"):
            entry(psi, rel_tol=1e-3, max_samples=max_samples)
    # one round is the smallest budget, and the lattice keeps to it
    with pytest.raises(AccuracyError, match=f"used {2 * _N_SHIFTS} evaluations"):
        orthant_probability(psi, rel_tol=1e-6, max_samples=np.int64(2 * _N_SHIFTS))


def test_seed_beyond_one_stream_key_rejected():
    # the integrator keys its stream with the seed; 2**64 would replay seed 0
    with pytest.raises(DomainError, match=r"2\*\*64"):
        orthant_probability(equicorrelated(4, 0.3), seed=2**64)
    # the truncated mean integrates coordinate k's conditional block at seed + k + 1
    with pytest.raises(DomainError, match=r"2\*\*64"):
        positive_orthant_mean(equicorrelated(5, 0.3), rel_tol=1e-2, seed=2**64 - 2)
    # int() would truncate 2.5 onto seed 2's stream and read True as seed 1;
    # a seed that is no integer is refused for every block size, closed
    # forms included, and by the estimator that passes it on
    model = build_pilot_model(np.ones((1, 1)), 1)
    stats = second_order_stats(model, np.eye(1), 1.0)
    obs = observation_from_signs(np.ones(1), np.ones(1))
    for seed in (2.5, True, "2", None):
        for psi in (equicorrelated(2, 0.3), equicorrelated(4, 0.3), equicorrelated(7, 0.3)):
            for entry in (orthant_probability, positive_orthant_mean):
                with pytest.raises(DomainError, match="seed must be an integer"):
                    entry(psi, rel_tol=1e-3, seed=seed)
        with pytest.raises(DomainError, match="seed must be an integer"):
            mmse_estimate(stats, model, obs, seed=seed)
    # a valid seed keeps its bits, as a Python or a numpy integer
    for seed in (2, np.int64(2)):
        p = orthant_probability(equicorrelated(7, 0.3), rel_tol=1e-3, seed=seed)
        assert p.hex() == "0x1.06fb559835ccep-4"


def test_rejects_indefinite_matrix():
    with pytest.raises(NotPositiveDefiniteError):
        orthant_probability(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_rejects_asymmetric_matrix():
    with pytest.raises(DomainError):
        orthant_probability(np.array([[1.0, 0.5], [0.2, 1.0]]))


def test_rejects_bad_shapes_and_values():
    with pytest.raises(DimensionError):
        orthant_probability(np.ones((2, 3)))
    with pytest.raises(DimensionError, match="psi must be a 2-d array"):
        orthant_probability(np.ones((2, 2, 2)))
    with pytest.raises(DomainError):
        orthant_probability(np.array([[1.0, np.nan], [np.nan, 1.0]]))


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 0)])
def test_empty_stack_rejected(shape):
    # a stack of no matrices, or of empty ones, has no orthant to integrate
    with pytest.raises(DimensionError, match="psi must be a non-empty 3-d array"):
        positive_orthant_mean(np.zeros(shape))


def test_arcsin_clamped():
    x = np.array([-0.5, 0.0, 0.5])
    np.testing.assert_allclose(arcsin_clamped(x), np.arcsin(x))
    assert arcsin_clamped(1.0 + 1e-13) == pytest.approx(np.pi / 2.0)
    with pytest.raises(DomainError):
        arcsin_clamped(1.1)


# ---------------------------------------------------------------------------
# truncated means


def test_mean_scalar_closed_form():
    # u ~ N(0, 1/2) on u > 0 is a half normal with mean 1/sqrt(pi)
    res = positive_orthant_mean(0.5 * np.linalg.inv([[1.0]]))
    assert res.method == "closed-form"
    assert abs(res.mean[0] - 1.0 / math.sqrt(math.pi)) < CLOSED_TOL
    assert abs(res.prob - 0.5) < CLOSED_TOL


def test_mean_independent_pair():
    res = positive_orthant_mean(0.5 * np.linalg.inv(0.5 * np.eye(2)))
    np.testing.assert_allclose(res.mean, math.sqrt(2.0 / math.pi), atol=CLOSED_TOL)
    assert abs(res.prob - 0.25) < CLOSED_TOL


def test_mean_reduction_matches_bivariate_closed_form():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = rng.uniform(-0.98, 0.98)
        psi = equicorrelated(2, rho)
        res = positive_orthant_mean(psi)
        expect = truncated_mean_cf_2d(psi)[0] / orthant_probability(psi)
        np.testing.assert_allclose(res.mean, expect, atol=1e-10)


def test_mean_matches_rejection_oracle():
    rng = np.random.default_rng(37)
    a = rng.standard_normal((4, 6))
    psi = 0.5 * np.linalg.inv(a @ a.T / 6.0 + 0.5 * np.eye(4))
    res = positive_orthant_mean(psi, seed=3)
    mc_mean, mc_se, kept = positive_orthant_mean_mc(psi, 400_000, seed=8)
    assert kept > 1000
    assert np.all(np.abs(res.mean - mc_mean) < 5.0 * mc_se + 1e-3 * res.mean)


def test_mean_block_splitting():
    c = np.zeros((3, 3))
    c[0, 0] = 2.0
    c[1:, 1:] = np.array([[1.0, 0.3], [0.3, 1.0]])
    psi = 0.5 * np.linalg.inv(c)
    res = positive_orthant_mean(psi)
    assert res.method == "closed-form"
    assert abs(res.mean[0] - 1.0 / math.sqrt(2.0 * math.pi)) < CLOSED_TOL
    sub = positive_orthant_mean(psi[1:, 1:])
    np.testing.assert_allclose(res.mean[1:], sub.mean, atol=CLOSED_TOL)
    scalar = positive_orthant_mean(psi[:1, :1])
    assert abs(res.prob - scalar.prob * sub.prob) < CLOSED_TOL


def test_mean_numeric_path_agrees():
    # a closed 3-block, and a 4-block whose conditional given u_0 = 0
    # couples coordinate 1 to the others below COUPLING_TOL: that
    # conditional is one stacked closed form, not a product over its split
    rng = np.random.default_rng(19)
    a = rng.standard_normal((3, 5))
    e = 3e-12
    weak = np.array([[1.0, 0.5, 0.4, 0.3], [0.5, 1.0, 0.2 + e, 0.15 + e],
                     [0.4, 0.2 + e, 1.0, 0.35], [0.3, 0.15 + e, 0.35, 1.0]])
    assert len(_coupling_components(_conditional_covariances(weak)[0])) == 2
    cases = [(0.5 * np.linalg.inv(a @ a.T / 5.0 + 0.4 * np.eye(3)), "closed-form"),
             (weak, "reduction")]
    for psi, method in cases:
        res = positive_orthant_mean(psi)
        numeric_mean, numeric_prob = numeric_orthant_mean(psi, seed=6)
        assert res.method == method
        np.testing.assert_allclose(numeric_mean, res.mean, rtol=2e-3)
        assert numeric_prob == pytest.approx(res.prob, rel=2e-3)


@pytest.mark.parametrize("n, calls", [(4, 1), (5, 6), (6, 7)])
def test_tallis_terms_call_orthant_probability_past_closed_dim(monkeypatch, n, calls):
    # P(psi) at seed and P(psi_k) at seed + k + 1 each take the public entry
    # only past MAX_CLOSED_DIM coordinates, so a 4-block's 3-coordinate
    # conditionals are one stacked closed form; rel_tol goes by keyword,
    # where the benchmark's tracer reads it
    seen = []
    solve = orthant.orthant_probability

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(orthant, "orthant_probability", spy)
    psi = sign_pattern_flip(random_correlation(n, np.random.default_rng(n)),
                            [1.0, -1.0, -1.0, 1.0, -1.0, 1.0][:n])
    mean, prob = _mean_single_block(psi, rel_tol=1e-3, max_samples=DEFAULT_MAX_SAMPLES,
                                    seed=2**63 + 7)
    assert len(seen) == calls
    assert all(kwargs.get("rel_tol") == 1e-3 for kwargs in seen)
    seeds = [kwargs["seed"] for kwargs in seen]
    assert seeds == ([2**63 + 7] if n == 4 else list(range(2**63 + 7, 2**63 + n + 8)))
    assert all(type(seed) is int for seed in seeds)
    assert mean.shape == (n,) and 0.0 < prob < 1.0


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stacked_mean_gives_each_matrix_its_own_bits(n):
    # the sign tables solve a block's sign flips in one stacked call; each
    # must get the bits of its own call, here next to an uncoupled 2-block
    # that is solved as block 1, at seeds offset by 1000
    rng = np.random.default_rng(40 + n)
    scale = rng.uniform(0.5, 2.0, n + 2)
    psi = np.zeros((n + 2, n + 2))
    psi[:n, :n] = random_correlation(n, rng)
    psi[n:, n:] = [[1.0, -0.4], [-0.4, 1.0]]
    psi *= np.outer(scale, scale)
    signs = rng.choice([-1.0, 1.0], size=(2, 3, n + 2))
    stack = signs[..., :, None] * psi * signs[..., None, :]
    res = positive_orthant_mean(stack, rel_tol=1e-3, seed=2**63 + 7)
    assert res.mean.shape == (2, 3, n + 2) and res.prob.shape == (2, 3)
    assert res.method == ("closed-form" if n == 3 else "reduction")
    for idx in np.ndindex(2, 3):
        alone = positive_orthant_mean(stack[idx], rel_tol=1e-3, seed=2**63 + 7)
        assert np.array_equal(alone.mean, res.mean[idx])
        assert alone.prob == res.prob[idx]


def test_cf_2d_validation():
    val = truncated_mean_cf_2d(np.eye(2))[0]
    assert abs(val - 1.0 / (2.0 * math.sqrt(2.0 * math.pi))) < CLOSED_TOL
    with pytest.raises(DimensionError):
        truncated_mean_cf_2d(np.eye(3))
    with pytest.raises(DomainError):
        truncated_mean_cf_2d(np.array([[2.0, 0.5], [0.5, 1.0]]))


def test_rejection_oracle_needs_acceptances():
    with pytest.raises(AccuracyError):
        positive_orthant_mean_mc(equicorrelated(3, -0.49), 4, seed=0)


def test_counting_oracle_sanity():
    p, se = orthant_probability_mc(np.eye(2), 400_000, seed=1)
    assert abs(p - 0.25) < 5.0 * se


def test_oracles_key_large_seeds_exactly():
    # as a float64 key both seeds would round to 2**63 and share one stream
    psi = equicorrelated(3, 0.4)
    a = orthant_probability_mc(psi, 100_000, seed=2**63)
    b = orthant_probability_mc(psi, 100_000, seed=2**63 + 5)
    assert a[0] != b[0]
    mean_a = positive_orthant_mean_mc(psi, 10_000, seed=2**63)[0]
    mean_b = positive_orthant_mean_mc(psi, 10_000, seed=2**63 + 5)[0]
    assert np.abs(mean_a - mean_b).max() > 0.0
