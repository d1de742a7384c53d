"""System model: stacking convention, second-order statistics, sampling,
and the count and array rules every entry point applies."""

import dataclasses

import numpy as np
import pytest
import yaml
from scipy.special import ndtri

from onebitmimo import (
    DimensionError,
    DomainError,
    NotPositiveDefiniteError,
    SingularMatrixError,
    SweepConfig,
    SystemDims,
    bessel_tx_covariance,
    build_pilot_model,
    build_pilots,
    exponential_covariance,
    orthant_probability,
    positive_orthant_mean,
    quantize,
    sample_realizations,
    second_order_stats,
    standardize,
)
from onebitmimo.config import load_sweep_config
from onebitmimo.model import _philox, hermitian_inverse, observe
from onebitmimo.simulate import NOISE_VAR


def random_hermitian_pd(n, rng, ridge=0.5):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + ridge * np.eye(n)


def random_pilots(n_pilots, n_tx, rng):
    return rng.standard_normal((n_pilots, n_tx)) + 1j * rng.standard_normal(
        (n_pilots, n_tx)
    )


def test_dims_lengths():
    dims = SystemDims(n_tx=2, n_rx=3, n_pilots=4)
    assert dims.channel_len == 6
    assert dims.obs_len == 12


def test_stacking_convention():
    """The stacked observation must equal kron(S, I) @ vec(H) + vec(N)."""
    rng = np.random.default_rng(0)
    n_tx, n_rx, n_pilots = 3, 2, 4
    h_mat = rng.standard_normal((n_rx, n_tx)) + 1j * rng.standard_normal((n_rx, n_tx))
    n_mat = rng.standard_normal((n_rx, n_pilots)) + 1j * rng.standard_normal(
        (n_rx, n_pilots)
    )
    pilots = random_pilots(n_pilots, n_tx, rng)
    model = build_pilot_model(pilots, n_rx)
    b_mat = h_mat @ pilots.T + n_mat
    b_vec = b_mat.flatten(order="F")
    h_vec = h_mat.flatten(order="F")
    n_vec = n_mat.flatten(order="F")
    np.testing.assert_allclose(
        model.kron_matrix @ h_vec + n_vec, b_vec, atol=1e-12
    )


def test_kron_matrix_shape_and_content():
    pilots = np.array([[1.0 + 1j, 2.0], [0.5, -1j]])
    model = build_pilot_model(pilots, 3)
    assert model.kron_matrix.shape == (6, 6)
    np.testing.assert_allclose(model.kron_matrix, np.kron(pilots, np.eye(3)))
    assert model.dims == SystemDims(n_tx=2, n_rx=3, n_pilots=2)
    # int() would truncate 2.7 and read "3" and True; SystemDims refuses them
    for n_rx in (2.7, "3", True):
        with pytest.raises(DomainError, match="n_rx"):
            build_pilot_model(pilots, n_rx)


def test_stats_uncorrelated_unitary():
    eta, nv = 4.0, 1.0
    model = build_pilot_model(np.sqrt(eta) * np.eye(2, dtype=complex), 2)
    stats = second_order_stats(model, np.eye(4, dtype=complex), nv)
    np.testing.assert_allclose(stats.omega_b, (eta + nv) * np.eye(4), atol=1e-12)
    np.testing.assert_allclose(stats.omega_inv.real, np.eye(4) / (eta + nv), atol=1e-12)
    np.testing.assert_allclose(stats.omega_inv.imag, 0.0, atol=1e-15)


def test_inverse_reconstruction():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sigma = random_hermitian_pd(6, rng)
        pilots = random_pilots(3, 2, rng)
        model = build_pilot_model(pilots, 3)
        stats = second_order_stats(model, sigma, 0.7)
        t = stats.omega_b.shape[0]
        resid = stats.omega_inv @ stats.omega_b - np.eye(t)
        assert np.abs(resid).max() < 1e-9
        # exactly Hermitian by construction
        assert np.array_equal(stats.omega_inv, stats.omega_inv.conj().T)


def test_omega_from_definition():
    rng = np.random.default_rng(21)
    sigma = random_hermitian_pd(4, rng)
    pilots = random_pilots(2, 2, rng)
    model = build_pilot_model(pilots, 2)
    nv = 0.3
    stats = second_order_stats(model, sigma, nv)
    a = model.kron_matrix
    expect = a @ sigma @ a.conj().T + nv * np.eye(4)
    np.testing.assert_allclose(stats.omega_b, expect, atol=1e-12)


def test_noiseless_allowed_when_covariance_full_rank():
    rng = np.random.default_rng(2)
    sigma = random_hermitian_pd(2, rng)
    model = build_pilot_model(np.eye(1, dtype=complex) * 2.0, 2)
    stats = second_order_stats(model, sigma, 0.0)
    assert stats.noise_var == 0.0
    resid = stats.omega_inv @ stats.omega_b - np.eye(2)
    assert np.abs(resid).max() < 1e-10


def test_negative_noise_rejected():
    model = build_pilot_model(np.eye(2, dtype=complex), 1)
    with pytest.raises(DomainError):
        second_order_stats(model, np.eye(2, dtype=complex), -0.1)
    # float() would read "1" and True as 1.0
    for noise_var in ("1", True):
        with pytest.raises(DomainError, match="noise_var"):
            second_order_stats(model, np.eye(2, dtype=complex), noise_var)


def test_non_hermitian_covariance_rejected():
    model = build_pilot_model(np.eye(2, dtype=complex), 1)
    sigma = np.array([[1.0, 0.5], [0.2, 1.0]], dtype=complex)
    with pytest.raises(DomainError):
        second_order_stats(model, sigma, 1.0)


def test_covariance_dimension_mismatch_rejected():
    model = build_pilot_model(np.eye(2, dtype=complex), 2)
    with pytest.raises(DimensionError):
        second_order_stats(model, np.eye(3, dtype=complex), 1.0)


def test_pilots_must_be_a_matrix():
    with pytest.raises(DimensionError, match="pilots must be a non-empty 2-d array"):
        build_pilot_model(np.ones(2, dtype=complex), 2)


def test_indefinite_covariance_with_definite_omega_rejected():
    # omega = sigma + I is positive definite, but sigma has eigenvalue -0.5
    # and no channel can be drawn from it
    sigma = np.array([[1.0, 1.5], [1.5, 1.0]], dtype=complex)
    with pytest.raises(NotPositiveDefiniteError, match="sigma_ch has negative eigenvalue"):
        second_order_stats(build_pilot_model([[1.0]], 2), sigma, 1.0)


def test_snr_definition():
    # snr = ||S||_F^2 / (n_pilots n_tx noise_var)
    pilots = build_pilots({"kind": "scalar"}, SystemDims(1, 1, 1), 10.0)
    assert np.linalg.norm(pilots) ** 2 == pytest.approx(10.0 * NOISE_VAR)
    pilots = build_pilots({"kind": "scaled-unitary"}, SystemDims(3, 2, 3), 2.0)
    # S = sqrt(eta) I_3 has ||S||_F^2 = 3 eta, so eta = snr n_tx noise_var
    np.testing.assert_allclose(pilots, np.sqrt(2.0 * 3 * NOISE_VAR) * np.eye(3), atol=1e-14)


def test_sampling_moments():
    rng = np.random.default_rng(4)
    sigma = random_hermitian_pd(3, rng)
    model = build_pilot_model(random_pilots(3, 3, rng), 1)
    nv = 0.8
    stats = second_order_stats(model, sigma, nv)
    n = 200_000
    h, noise = sample_realizations(stats, model, seed=10, n_samples=n)
    b = observe(model, h, noise)
    tol = 5.0 * np.sqrt(2.0 / n) * max(np.abs(sigma).max(), nv, 1.0)
    cov_h = h.T.conj() @ h / n
    assert np.abs(cov_h.T - sigma).max() < tol
    pseudo = h.T @ h / n
    assert np.abs(pseudo).max() < tol
    cov_n = noise.T.conj() @ noise / n
    assert np.abs(cov_n.T - nv * np.eye(3)).max() < tol
    cov_b = b.T.conj() @ b / n
    assert np.abs(cov_b.T - stats.omega_b).max() < 5.0 * tol


def test_sampling_is_chunk_invariant():
    rng = np.random.default_rng(14)
    sigma = random_hermitian_pd(2, rng)
    model = build_pilot_model(random_pilots(2, 1, rng), 2)
    stats = second_order_stats(model, sigma, 1.0)
    h_all, n_all = sample_realizations(stats, model, seed=3, n_samples=40)
    h_a, n_a = sample_realizations(stats, model, seed=3, n_samples=25)
    h_b, n_b = sample_realizations(
        stats, model, seed=3, n_samples=15, start_stream=25
    )
    np.testing.assert_array_equal(np.vstack([h_a, h_b]), h_all)
    np.testing.assert_array_equal(np.vstack([n_a, n_b]), n_all)
    np.testing.assert_array_equal(
        np.vstack([observe(model, h_a, n_a), observe(model, h_b, n_b)]),
        observe(model, h_all, n_all),
    )


def word_normals(raw):
    """The sampling map from uint64 words to standard normals."""
    return ndtri(((raw >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52)


def stream_normals(seed, word, count):
    """Normals at uint64 words [word, word + count) of the Philox stream keyed
    (seed, 0), reached by writing the block counter into the state."""
    bits = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    state = bits.state
    block = word // 4
    state["state"]["counter"] = np.array(
        [(block >> (64 * i)) % 2**64 for i in range(4)], dtype=np.uint64
    )
    bits.state = state
    return word_normals(bits.random_raw(word % 4 + count)[word % 4 :])


def test_sampling_reproduces_per_seed_and_trial():
    model = build_pilot_model(np.ones((1, 1), dtype=complex), 2)
    stats = second_order_stats(model, np.eye(2, dtype=complex), 1.0)
    a = sample_realizations(stats, model, 5, 4, start_stream=3)[0]
    b = sample_realizations(stats, model, 5, 4, start_stream=3)[0]
    c = sample_realizations(stats, model, 5, 4, start_stream=4)[0]
    d = sample_realizations(stats, model, 6, 4, start_stream=3)[0]
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 0.0
    assert np.abs(a - d).max() > 0.0


def test_sampling_rows_are_stream_words():
    # identity covariance and noise variance 2 make every draw reappear exactly
    model = build_pilot_model(np.ones((1, 1), dtype=complex), 2)
    stats = second_order_stats(model, np.eye(2, dtype=complex), 2.0)
    nh, nn = 2, 2
    w = 2 * (nh + nn)
    fresh = np.random.Philox(key=np.array([11, 0], dtype=np.uint64)).random_raw(10 * w)
    np.testing.assert_array_equal(stream_normals(11, 7 * w, 3 * w), word_normals(fresh[7 * w :]))
    for seed, start in ((0, 0), (11, 7), (2**63 + 5, 3), (2**64 - 1, 2**64 - 4)):
        h, noise = sample_realizations(stats, model, seed, 3, start_stream=start)
        for t in range(3):
            z = stream_normals(seed, (start + t) * w, w)
            np.testing.assert_array_equal(h[t], (z[:nh] + 1j * z[nh : 2 * nh]) / np.sqrt(2.0))
            np.testing.assert_array_equal(noise[t], z[2 * nh : 2 * nh + nn] + 1j * z[2 * nh + nn :])


def test_sampling_is_chunk_invariant_inside_a_block():
    # width 6 puts trials 1, 2, 3 at words 6, 12, 18: mid-block, aligned, mid-block
    model = build_pilot_model(np.array([[1.0], [1j]]), 1)
    stats = second_order_stats(model, np.eye(1, dtype=complex), 0.5)
    h_all, n_all = sample_realizations(stats, model, seed=4, n_samples=12)
    b_all = observe(model, h_all, n_all)
    for start in (1, 2, 3, 5, 6, 7):
        h, n = sample_realizations(stats, model, seed=4, n_samples=5, start_stream=start)
        np.testing.assert_array_equal(h, h_all[start : start + 5])
        np.testing.assert_array_equal(n, n_all[start : start + 5])
        np.testing.assert_array_equal(observe(model, h, n), b_all[start : start + 5])


def test_sampling_one_row_equals_its_batch_row():
    # a lone draw must not take a different matrix-product path than a batch
    rng = np.random.default_rng(9)
    model = build_pilot_model(np.ones((1, 1), dtype=complex), 2)
    for _ in range(200):
        stats = second_order_stats(model, random_hermitian_pd(2, rng), 0.5)
        batch = sample_realizations(stats, model, seed=9, n_samples=8)
        batch = (*batch, observe(model, *batch))
        for t in (0, 5):
            alone = sample_realizations(stats, model, seed=9, n_samples=1, start_stream=t)
            alone = (*alone, observe(model, *alone))
            for x, y in zip(alone, batch):
                assert x.shape == (1, y.shape[1])
                np.testing.assert_array_equal(x[0], y[t])


def test_sampling_large_seeds_and_validation():
    model = build_pilot_model(np.ones((1, 1), dtype=complex), 1)
    stats = second_order_stats(model, np.eye(1, dtype=complex), 1.0)
    a = sample_realizations(stats, model, 2**63, 2)[0]
    b = sample_realizations(stats, model, 2**63 + 1, 2)[0]
    assert np.abs(a - b).max() > 0.0
    with pytest.raises(DomainError):
        sample_realizations(stats, model, -1, 2)
    with pytest.raises(DomainError):
        sample_realizations(stats, model, 0, 2, start_stream=-1)
    # int() would replay seed 2 for 2.5, seed 1 for True and seed 3 for "3",
    # draw 2 rows for 2.7 and start 1.5 at trial 1; each is refused by name
    for kwargs, name in (({"seed": 2.5}, "seed"), ({"seed": True}, "seed"),
                         ({"seed": "3"}, "seed"), ({"seed": None}, "seed"),
                         ({"n_samples": 2.7}, "n_samples"), ({"n_samples": True}, "n_samples"),
                         ({"start_stream": 1.5}, "start_stream")):
        args = {"seed": 0, "n_samples": 2, **kwargs}
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            sample_realizations(stats, model, **args)
    with pytest.raises(DimensionError, match="n_samples must be >= 1"):
        sample_realizations(stats, model, 0, 0)


def test_stream_key_beyond_uint64_rejected():
    # folding 2**64 into range would replay the stream of seed 0
    _philox(2**64 - 1, 2**64 - 1)
    with pytest.raises(DomainError, match=r"2\*\*64"):
        _philox(2**64, 0)
    with pytest.raises(DomainError, match=r"2\*\*64"):
        _philox(0, 2**64)


def test_hermitian_inverse():
    rng = np.random.default_rng(6)
    m = random_hermitian_pd(4, rng)
    inv = hermitian_inverse(m, "m")
    np.testing.assert_allclose(inv @ m, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(inv, inv.conj().T, atol=1e-12)
    singular = np.outer(np.ones(3), np.ones(3)).astype(complex)
    with pytest.raises(SingularMatrixError):
        hermitian_inverse(singular, "singular")


# Each entry point that takes a matrix or vector: (call, the name its errors
# give the argument, an integer-valued argument, whether the math is real).
_M = [[2, 1], [1, 2]]
ARRAY_ENTRY_POINTS = {
    "orthant_probability": (orthant_probability, "psi", _M, True),
    "positive_orthant_mean": (positive_orthant_mean, "psi", _M, True),
    "standardize": (standardize, "psi", _M, True),
    "build_pilot_model": (lambda m: build_pilot_model(m, 2), "pilots", _M, False),
    "second_order_stats": (lambda m: second_order_stats(build_pilot_model([[1.0]], 2), m, 1.0),
                           "sigma_ch", _M, False),
    "quantize": (quantize, "observation b", [1, -2], False),
    "build_pilots-eigenbasis": (
        lambda m: build_pilots({"kind": "eigenbasis"}, SystemDims(2, 1, 2), 1.0, sigma_ch=m),
        "sigma_ch", _M, False),
}


def _with_first_entry(m, x):
    m = np.array(m, dtype=object)
    m.flat[0] = x
    return m.tolist()


@pytest.mark.parametrize("entry, bad", [
    (entry, bad) for entry, (_, _, _, real) in ARRAY_ENTRY_POINTS.items()
    for bad in ("bool", "string", "complex")[: 3 if real else 2]
])
def test_array_rule_refuses_bool_string_and_complex_where_real(entry, bad):
    # True would read as 1, "2" as 2 and 2+0j as 2 under a plain conversion;
    # a complex Hermitian matrix where a real one belongs lost its imaginary
    # part with only a warning
    call, name, m, _ = ARRAY_ENTRY_POINTS[entry]
    x = {"bool": True, "string": "2", "complex": 2 + 0j}[bad]
    with pytest.raises(DomainError, match=f"{name} entries must be numbers"):
        call(_with_first_entry(m, x))
    if bad == "complex":
        with pytest.raises(DomainError, match=f"{name} entries must be numbers"):
            call(np.array([[1.0, 0.5j], [-0.5j, 1.0]]))


def _bits(result):
    if dataclasses.is_dataclass(result):
        return tuple(_bits(getattr(result, f.name)) for f in dataclasses.fields(result))
    a = np.asarray(result)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
def test_array_rule_gives_numeric_inputs_one_result(entry):
    # a list of ints or floats and an int, float or (where allowed) complex
    # ndarray are the same argument, to the bit
    call, _, m, real = ARRAY_ENTRY_POINTS[entry]
    # eigenbasis pilots read sigma_ch in its own dtype: a real one gives
    # real pilots
    dtypes = (int, float) if real or entry == "build_pilots-eigenbasis" else (int, float, complex)
    forms = [np.array(m, dtype=float).tolist()] + [np.array(m, dtype=t) for t in dtypes]
    expected = _bits(call(m))
    for form in forms:
        assert _bits(call(form)) == expected


def _ragged(m):
    """m with its last row cut short, a vector's entries made rows first."""
    rows = [row if isinstance(row, list) else [row, row] for row in m]
    return rows[:-1] + [rows[-1][:-1]]


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
def test_array_rule_refuses_ragged_rows(entry):
    # numpy's "inhomogeneous shape" ValueError, or "entries must be numbers"
    # naming a whole row, was the answer before the rule read rows
    call, name, m, _ = ARRAY_ENTRY_POINTS[entry]
    with pytest.raises(DimensionError, match=f"^{name} has rows of unequal length"):
        call(_ragged(m))


def _sampling_inputs():
    model = build_pilot_model([[1.0]], 1)
    return second_order_stats(model, [[1.0]], 1.0), model


def _config_file_dims(n, tmp_path):
    """dims of a sweep config file whose n_pilots entry is n; YAML holds no
    numpy scalar, so np.int64(2) is written as 2."""
    raw = {"dims": {"n_tx": 1, "n_rx": 1, "n_pilots": n.item() if isinstance(n, np.generic) else n},
           "covariance": {"kind": "identity"}, "pilots": {"kind": "scalar"},
           "snr_grid_db": [0], "estimators": ["mmse"], "trials": 1, "seed": 0}
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return load_sweep_config(str(path)).dims


# Each door that takes a count: (call of the count and a scratch directory,
# the name its errors give the count).
COUNT_DOORS = {
    "SystemDims-n_tx": (lambda n, _: SystemDims(n, 1, 1), "n_tx"),
    "SystemDims-n_rx": (lambda n, _: SystemDims(1, n, 1), "n_rx"),
    "SystemDims-n_pilots": (lambda n, _: SystemDims(1, 1, n), "n_pilots"),
    "build_pilot_model": (lambda n, _: build_pilot_model([[1.0]], n).dims, "n_rx"),
    "sample_realizations": (lambda n, _: sample_realizations(*_sampling_inputs(), 0, n),
                            "n_samples"),
    "exponential_covariance": (lambda n, _: exponential_covariance(n, 0.5), "n"),
    "bessel_tx_covariance": (lambda n, _: bessel_tx_covariance(n, 0.5, 0.0, 0.1), "n_tx"),
    "SweepConfig": (lambda n, _: SweepConfig(
        dims=SystemDims(1, 1, 1), covariance={"kind": "identity"}, pilots={"kind": "scalar"},
        snr_grid_db=(0.0,), estimators=("mmse",), trials=n, seed=0), "trials"),
    "config-file-dims": (_config_file_dims, "n_pilots"),
}


@pytest.mark.parametrize("door", sorted(COUNT_DOORS))
def test_count_rule(door, tmp_path):
    # int() would read True as 1, truncate 2.5 and parse "3"; each door
    # refuses them, and a count below 1, by the one rule and by name
    call, name = COUNT_DOORS[door]
    for value in (True, 2.5, "3"):
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            call(value, tmp_path)
    for value in (0, -1):
        with pytest.raises(DimensionError, match=f"^{name} must be >= 1, got {value}"):
            call(value, tmp_path)
    out = call(np.int64(2), tmp_path)
    if isinstance(out, SystemDims):
        assert {type(getattr(out, f.name)) for f in dataclasses.fields(out)} == {int}
