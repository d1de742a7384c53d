"""Monte Carlo sweep harness: determinism, CSV output, and statistical
agreement with the analytic scalar error."""

import dataclasses
import hashlib
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

import onebitmimo.estimators as estimators
import onebitmimo.orthant as orthant
import onebitmimo.simulate as simulate
from onebitmimo import (
    CapabilityError,
    DimensionError,
    DomainError,
    MseSweepResult,
    SingularMatrixError,
    SweepConfig,
    SystemDims,
    build_covariance,
    build_pilots,
    build_point,
    exponential_covariance,
    observation_from_signs,
    render_csv,
    run_mse_sweep,
)
from onebitmimo.config import load_sweep_config
from onebitmimo.model import real_form
from onebitmimo.orthant import _coupling_components
from onebitmimo.simulate import NOISE_VAR

from numeric_oracle import solved_by_the_tables, whole_s_mmse

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def scalar_config(**overrides):
    base = dict(
        dims=SystemDims(1, 1, 1),
        covariance={"kind": "identity"},
        pilots={"kind": "scalar"},
        snr_grid_db=(10.0,),
        estimators=("mmse", "blmmse"),
        trials=20_000,
        seed=7,
    )
    base.update(overrides)
    return SweepConfig(**base)


def snr_of(pilots, noise_var):
    """Pilot SNR: ||S||_F^2 / (n_pilots n_tx noise_var)."""
    return np.linalg.norm(pilots) ** 2 / (pilots.size * noise_var)


def analytic_scalar_mse(eta, nv=1.0):
    """Per-antenna error of the sign-based estimate of a unit scalar channel."""
    return 1.0 - 2.0 * eta / (math.pi * (eta + nv))


def test_sweep_deterministic():
    cfg = scalar_config(trials=2_000)
    a = run_mse_sweep(cfg)
    b = run_mse_sweep(cfg)
    assert a.rows == b.rows
    assert render_csv(a) == render_csv(b)


def test_sweep_chunk_invariant(monkeypatch):
    cfg = scalar_config(trials=1_000)
    baseline = run_mse_sweep(cfg)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    odd_chunks = run_mse_sweep(cfg)
    assert odd_chunks.rows == baseline.rows


def _exact_sum_cases():
    rng = np.random.default_rng(23)
    wide = 10.0 ** rng.uniform(-300.0, 300.0, 3000)
    tiny = np.concatenate([np.full(40, 5e-324), 10.0 ** rng.uniform(-323.0, -300.0, 400)])
    mixed = np.concatenate([wide, tiny, np.zeros(50), -wide[:700], [1e300, 1.0, -1e300]])
    yield np.array([0.1])
    yield np.array([5e-324])
    yield np.zeros(3)
    yield tiny
    yield mixed
    yield rng.exponential(size=20_000) ** 3
    yield rng.permutation(np.concatenate([mixed, rng.standard_normal(20_000 - mixed.size)]))


@pytest.mark.parametrize("case", range(7))
def test_exact_sum_equals_fsum_bit_for_bit(case):
    # fsum is correctly rounded, so any exact sum that rounds once gives its
    # double whatever the chunking and order in which values are folded in
    v = list(_exact_sum_cases())[case]
    rng = np.random.default_rng(case)
    expect = math.fsum(v.tolist())
    for _ in range(4):
        cuts = np.sort(rng.integers(0, v.size + 1, size=int(rng.integers(0, 9))))
        chunks = [c for c in np.split(v, cuts) if c.size]
        acc = simulate._ExactSum()
        for i in rng.permutation(len(chunks)):
            acc.add(chunks[i])
        assert acc.value().hex() == expect.hex()


def test_exact_sum_takes_a_chunk_without_a_finite_value():
    for chunks in (([math.inf], [1.0]), ([1.0, 2.0], [math.nan, -math.inf])):
        acc = simulate._ExactSum()
        for chunk in chunks:
            acc.add(np.array(chunk))
        assert repr(acc.value()) == repr(math.fsum([x for chunk in chunks for x in chunk]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_error_reads_as_under_fsum(monkeypatch, bad):
    # one trial's blmmse estimate is non-finite: that row's MSE is the
    # non-finite sum (nan, or inf) and its stderr nan, as math.fsum gives;
    # the mmse row is untouched, and no RuntimeWarning is raised
    resolve = simulate._resolve_estimators

    def poisoned(*args):
        evals = resolve(*args)
        blmmse = evals["blmmse"]

        def evaluate(r):
            out = blmmse(r)
            out[3, 0] = bad
            return out

        return {**evals, "blmmse": evaluate}

    cfg = scalar_config(trials=300)
    clean = run_mse_sweep(cfg).rows
    monkeypatch.setattr(simulate, "_resolve_estimators", poisoned)
    monkeypatch.setattr(simulate, "_CHUNK", 64)
    rows = {row.estimator: row for row in run_mse_sweep(cfg).rows}
    assert rows["mmse"] == next(r for r in clean if r.estimator == "mmse")
    assert repr(rows["blmmse"].mse) == repr(bad)
    assert math.isnan(rows["blmmse"].stderr)


def test_linear_point_evaluates_its_shared_map_once_per_chunk(monkeypatch):
    # at an exactly linear point mmse and blmmse resolve to one linear map:
    # the sweep runs it once per point and chunk, and reads both rows from
    # the same sums
    cfg = dataclasses.replace(load_sweep_config(os.path.join(CONFIGS, "scalar.yaml")),
                              trials=1_000)
    monkeypatch.setattr(simulate, "_CHUNK", 400)
    clean = run_mse_sweep(cfg).rows
    resolve = simulate._resolve_estimators
    calls = []

    def spied(*args):
        evals = resolve(*args)
        shared = evals["mmse"]
        assert evals["blmmse"] is shared

        def spy(*evaluate_args):
            calls.append(len(evaluate_args[0]))
            return shared(*evaluate_args)

        return {name: spy for name in evals}

    monkeypatch.setattr(simulate, "_resolve_estimators", spied)
    rows = run_mse_sweep(cfg).rows
    points = len(cfg.snr_grid_db)
    assert calls == [n for n in (400, 400, 200) for _ in range(points)]
    assert rows == clean
    by_point = {}
    for row in rows:
        by_point.setdefault(row.snr_db, {})[row.estimator] = row
    assert len(by_point) == points
    for pair in by_point.values():
        assert dataclasses.replace(pair["mmse"], estimator="blmmse") == pair["blmmse"]


def test_sweep_memory_does_not_grow_with_trials(monkeypatch):
    # ten times the trials in chunks of 64 may not raise the traced peak:
    # the sweep keeps per (point, estimator) state of fixed size
    monkeypatch.setattr(simulate, "_CHUNK", 64)
    cfg = scalar_config(snr_grid_db=(0.0, 10.0, 20.0))

    def peak(trials):
        run_mse_sweep(dataclasses.replace(cfg, trials=trials))
        tracemalloc.start()
        try:
            run_mse_sweep(dataclasses.replace(cfg, trials=trials))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(1_280)
    assert peak(12_800) <= small + 32 * 1024


def test_scalar_mse_matches_analytic_value():
    cfg = scalar_config(trials=20_000)
    result = run_mse_sweep(cfg)
    expect = analytic_scalar_mse(10.0)
    for row in result.rows:
        assert abs(row.mse - expect) < 5.0 * row.stderr
        assert row.trials == 20_000


def test_linear_case_rows_coincide():
    cfg = scalar_config(trials=5_000)
    rows = {r.estimator: r for r in run_mse_sweep(cfg).rows}
    assert abs(rows["mmse"].mse - rows["blmmse"].mse) < 1e-12


def test_mse_decreases_with_snr():
    cfg = scalar_config(
        trials=20_000, snr_grid_db=(-10.0, 0.0, 10.0, 20.0), estimators=("mmse",)
    )
    rows = run_mse_sweep(cfg).rows
    mses = [r.mse for r in rows]
    assert all(a > b for a, b in zip(mses, mses[1:]))


def test_rows_sorted_and_csv_parses():
    cfg = scalar_config(
        trials=500, snr_grid_db=(10.0, -5.0, 0.0), estimators=("mmse", "blmmse")
    )
    result = run_mse_sweep(cfg)
    keys = [(r.snr_db, r.estimator) for r in result.rows]
    assert keys == sorted(keys)
    text = render_csv(result)
    lines = text.strip().split("\n")
    preamble = [ln for ln in lines if ln.startswith("#")]
    assert preamble[0] == "# one-bit mimo mse sweep"
    assert any("pilot_energy_per_symbol" in ln for ln in preamble)
    header_at = len(preamble)
    assert lines[header_at] == "SNR_dB,estimator,MSE,stderr,trials"
    data = lines[header_at + 1 :]
    assert len(data) == len(result.rows)
    for ln, row in zip(data, result.rows):
        snr, name, mse, stderr, trials = ln.split(",")
        assert float(snr) == row.snr_db
        assert name == row.estimator
        assert float(mse) == pytest.approx(row.mse, rel=1e-11)
        assert int(trials) == row.trials


def test_emit_results_byte_identical(tmp_path):
    cfg = scalar_config(trials=300)
    result = run_mse_sweep(cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    simulate.emit_results(result, p1)
    simulate.emit_results(run_mse_sweep(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_metadata_echoes_config():
    cfg = scalar_config(trials=100)
    meta = run_mse_sweep(cfg).metadata
    assert meta["trials"] == "100"
    assert meta["seed"] == "7"
    assert "kind=identity" in meta["covariance"]
    assert "snr_db=10" in meta["pilot_energy_per_symbol"]
    assert meta["sampling"] == (
        "philox4x64 key=(seed,0), normal=ndtri(((word>>12)+0.5)*2^-52), "
        "trial t at words [t*w,(t+1)*w)"
    )


def test_general_path_dimension_capability():
    # nine complex pilots on one antenna couple all 18 real coordinates of S
    # into one block, beyond the integrator's MAX_QMC_DIM
    rng = np.random.default_rng(9)
    cfg = SweepConfig(
        dims=SystemDims(1, 1, 9),
        covariance={"kind": "identity"},
        pilots={"kind": "explicit", "real": rng.standard_normal((9, 1)).tolist(),
                "imag": rng.standard_normal((9, 1)).tolist()},
        snr_grid_db=(10.0,),
        estimators=("mmse",),
        trials=10,
        seed=0,
    )
    with pytest.raises(CapabilityError, match="block of 18 coordinates"):
        run_mse_sweep(cfg)


def test_real_nine_antenna_sweep_runs_on_two_blocks():
    # a real 1x9 configuration splits S into two uncoupled 9-blocks, each
    # within MAX_QMC_DIM, so the general path serves it
    cfg = SweepConfig(
        dims=SystemDims(1, 9, 1),
        covariance={"kind": "exponential", "rho": 0.5},
        pilots={"kind": "scalar"},
        snr_grid_db=(10.0,),
        estimators=("mmse", "blmmse"),
        trials=10,
        seed=0,
    )
    rows = {r.estimator: r for r in run_mse_sweep(cfg).rows}
    mmse, bl = rows["mmse"], rows["blmmse"]
    assert mmse.mse <= bl.mse + 5.0 * math.hypot(mmse.stderr, bl.stderr)


def test_general_estimator_used_in_sweep():
    # two complex pilots on one antenna admit no closed form; the sweep
    # solves each of the 8 sign patterns of the one coupled 4-block, up to
    # a flip of all its signs, once and looks the rest up, so the run stays
    # cheap
    cfg = SweepConfig(
        dims=SystemDims(1, 1, 2),
        covariance={"kind": "identity"},
        pilots={"kind": "explicit", "real": [[1.5], [0.8]], "imag": [[0.5], [-1.2]]},
        snr_grid_db=(10.0,),
        estimators=("mmse", "blmmse"),
        trials=3_000,
        seed=1,
    )
    rows = {r.estimator: r for r in run_mse_sweep(cfg).rows}
    assert rows["mmse"].mse < rows["blmmse"].mse + 3.0 * rows["blmmse"].stderr


# ---------------------------------------------------------------------------
# config building blocks


def test_config_validation():
    with pytest.raises(DomainError):
        scalar_config(snr_grid_db=())
    with pytest.raises(DomainError):
        scalar_config(snr_grid_db=(1.0, 1.0))
    with pytest.raises(DomainError):
        scalar_config(estimators=("bogus",))
    with pytest.raises(DomainError, match="estimators must not be empty"):
        scalar_config(estimators=())
    with pytest.raises(DomainError):
        scalar_config(trials=0)
    with pytest.raises(DomainError):
        scalar_config(seed=-1)
    with pytest.raises(DomainError):
        scalar_config(rel_tol=2.0)
    # int() would read True as 1 and truncate 2.5; float() would read "10";
    # a spec parameter follows the same rule, entry by entry in a matrix
    exponential = lambda rho: {"kind": "exponential", "rho": rho}
    for key, value in (("trials", True), ("trials", 2.5), ("seed", 2.5), ("seed", True),
                       ("snr_grid_db", ("10",)), ("snr_grid_db", (True,)),
                       ("rel_tol", "1e-3"), ("rel_tol", True),
                       ("covariance", exponential([0.5])), ("covariance", exponential(None)),
                       ("covariance", exponential({"a": 1})), ("covariance", exponential("0.5")),
                       ("covariance", exponential(True)),
                       ("covariance", {"kind": "bessel-tx", "delta": None}),
                       ("covariance", {"kind": "custom", "real": [["1.0"]]}),
                       ("covariance", {"kind": "custom", "real": [[1.0]], "imag": [[False]]}),
                       ("pilots", {"kind": "explicit", "real": [[1.0, [2.0]]]})):
        with pytest.raises(DomainError, match="must be (an integer|a number|numbers)"):
            scalar_config(**{key: value})
    # a config built in Python meets the type checks a YAML file does
    for key, value, message in (("covariance", [["kind", "identity"]], "covariance spec must be a mapping"),
                                ("pilots", "scalar", "pilot spec must be a mapping"),
                                ("snr_grid_db", 5, "snr_grid_db must be a list or tuple"),
                                ("estimators", ("mmse", ["x"]), r"unknown estimator \['x'\]"),
                                ("dims", (1, 1, 1), "dims must be a SystemDims")):
        with pytest.raises(DomainError, match=message):
            scalar_config(**{key: value})


def test_seed_beyond_one_stream_key_rejected():
    # Philox is keyed by one uint64 word: 2**64 + 1 would replay seed 1
    scalar_config(seed=2**64 - 1)
    with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
        scalar_config(seed=2**64 + 1)


def test_unservable_point_fails_before_any_sampling(monkeypatch):
    # fully correlated transmit antennas: at 130 dB the observation
    # covariance is numerically singular, which the 0 dB point does not show
    calls = []

    def sample(*args, **kwargs):
        calls.append(args)
        raise AssertionError("sampled before every point was built")

    monkeypatch.setattr(simulate, "sample_realizations", sample)
    cfg = SweepConfig(
        dims=SystemDims(2, 1, 2),
        covariance={"kind": "bessel-tx", "gamma_max": 0},
        pilots={"kind": "scaled-unitary"},
        snr_grid_db=(0.0, 130.0),
        estimators=("mmse", "blmmse"),
        trials=200_000,
        seed=3,
    )
    with pytest.raises(SingularMatrixError):
        run_mse_sweep(cfg)
    assert calls == []


def _count_solved_rows(monkeypatch):
    # the sign-folded block rows the tables hand to each stacked solve
    rows = []
    solve = estimators.positive_orthant_mean

    def counted(psi, *args, **kwargs):
        rows.extend(m.tobytes() for m in psi.reshape(-1, *psi.shape[-2:]))
        return solve(psi, *args, **kwargs)

    monkeypatch.setattr(estimators, "positive_orthant_mean", counted)
    return rows


def test_unstandardized_real_simo3_sweep_takes_closed_form(monkeypatch):
    # the sign tables fill both 3-blocks of S in closed form: every solve
    # is a stack of 3x3 rows, and no orthant probability takes the general
    # route
    def leave(*args, **kwargs):
        raise AssertionError("the sweep left the closed form")

    rows = _count_solved_rows(monkeypatch)
    monkeypatch.setattr(orthant, "orthant_probability", leave)
    scale = np.sqrt([2.0, 1.0, 0.5])
    sigma = scale[:, None] * exponential_covariance(3, 0.6) * scale[None, :]
    cfg = SweepConfig(
        dims=SystemDims(1, 3, 1),
        covariance={"kind": "custom", "real": sigma.tolist()},
        pilots={"kind": "scalar"},
        snr_grid_db=(0.0, 20.0),
        estimators=("mmse", "blmmse"),
        trials=500,
        seed=3,
    )
    assert len(run_mse_sweep(cfg).rows) == 4
    # each solved row is a 3x3 block of float64
    assert rows and all(len(row) == 3 * 3 * 8 for row in rows)


def test_preamble_tells_matrix_specs_apart():
    def covariance_line(imag01):
        cfg = scalar_config(
            dims=SystemDims(1, 2, 1),
            covariance={"kind": "custom", "real": [[1.0, 0.5], [0.5, 1.0]],
                        "imag": [[0.0, imag01], [-imag01, 0.0]]},
            estimators=("blmmse",),
            trials=10,
        )
        text = render_csv(run_mse_sweep(cfg))
        return next(line for line in text.splitlines() if line.startswith("# covariance:"))

    line = covariance_line(0.1)
    assert line.startswith("# covariance: imag=2x2:sha256:")
    assert " kind=custom real=2x2:sha256:" in line
    assert line != covariance_line(0.3)
    assert line == covariance_line(0.1)


def test_build_covariance_kinds():
    dims = SystemDims(2, 3, 2)
    assert np.array_equal(build_covariance({"kind": "identity"}, dims), np.eye(6))
    sigma = build_covariance({"kind": "bessel-tx", "gamma_max": 0.2}, dims)
    assert sigma.shape == (6, 6)
    with pytest.raises(DomainError):
        build_covariance({"kind": "exponential", "rho": 0.5}, dims)
    with pytest.raises(DomainError):
        build_covariance({"kind": "nope"}, dims)
    custom = {
        "kind": "custom",
        "real": np.eye(2).tolist(),
        "imag": np.zeros((2, 2)).tolist(),
    }
    simo = SystemDims(1, 2, 1)
    assert np.array_equal(build_covariance(custom, simo), np.eye(2))
    with pytest.raises(DimensionError):
        build_covariance(custom, dims)
    with pytest.raises(DomainError, match="missing 'real' matrix"):
        build_covariance({"kind": "custom"}, simo)
    with pytest.raises(DimensionError, match="'imag' shape"):
        build_covariance(dict(custom, imag=[[0.0, 0.0]]), simo)
    for spec in ("identity", [("kind", "identity")], None):
        with pytest.raises(DomainError, match="covariance spec must be a mapping"):
            build_covariance(spec, dims)


def test_build_pilots_hit_target_snr():
    for spec, dims in [
        ({"kind": "scalar"}, SystemDims(1, 2, 1)),
        ({"kind": "scaled-unitary"}, SystemDims(3, 2, 3)),
        (
            {
                "kind": "explicit",
                "real": [[1.0, 0.2], [0.1, 1.0], [0.3, 0.4]],
            },
            SystemDims(2, 1, 3),
        ),
    ]:
        for snr in (0.5, 4.0):
            pilots = build_pilots(spec, dims, snr)
            assert pilots.shape == (dims.n_pilots, dims.n_tx)
            assert snr_of(pilots, NOISE_VAR) == pytest.approx(snr, rel=1e-12)


def test_build_pilots_eigenbasis_diagonalizes():
    dims = SystemDims(3, 2, 3)
    sigma = build_covariance({"kind": "bessel-tx", "gamma_max": 0.3}, dims)
    pilots = build_pilots({"kind": "eigenbasis"}, dims, 2.0, sigma_ch=sigma)
    assert snr_of(pilots, NOISE_VAR) == pytest.approx(2.0, rel=1e-12)
    sigma_tx = sigma.reshape(3, 2, 3, 2)[:, 0, :, 0]
    rotated = pilots @ sigma_tx @ pilots.conj().T
    off = rotated - np.diag(np.diagonal(rotated))
    assert np.abs(off).max() < 1e-10 * np.abs(rotated).max()


def test_build_pilots_eigenbasis_judges_sigma_ch():
    # sigma_ch passes the check second_order_stats applies before its
    # transmit covariance is read, in its own dtype, so a list gives the
    # ndarray's pilots to the bit
    spec, dims = {"kind": "eigenbasis"}, SystemDims(3, 2, 3)
    sigma = build_covariance({"kind": "bessel-tx", "gamma_max": 0.3}, dims)
    pilots = build_pilots(spec, dims, 2.0, sigma_ch=sigma)
    assert np.array_equal(build_pilots(spec, dims, 2.0, sigma_ch=sigma.tolist()), pilots)
    with pytest.raises(DomainError, match="sigma_ch entries must be numbers"):
        build_pilots(spec, dims, 2.0, sigma_ch=sigma.astype(str))
    for bad in (sigma[:5, :5], sigma[:, :5]):
        with pytest.raises(DimensionError, match=r"sigma_ch has shape .*, expected \(6, 6\)"):
            build_pilots(spec, dims, 2.0, sigma_ch=bad)
    with pytest.raises(DomainError, match="sigma_ch is not Hermitian"):
        build_pilots(spec, dims, 2.0, sigma_ch=sigma + np.triu(np.ones((6, 6)), 1))


def test_build_pilots_validation():
    dims = SystemDims(2, 1, 2)
    with pytest.raises(DomainError):
        build_pilots({"kind": "scalar"}, dims, 1.0)
    with pytest.raises(DomainError):
        build_pilots({"kind": "scaled-unitary"}, dims, -1.0)
    with pytest.raises(DomainError):
        build_pilots({"kind": "eigenbasis"}, dims, 1.0)
    not_kron = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    with pytest.raises(DomainError, match="kron"):
        build_pilots({"kind": "eigenbasis"}, SystemDims(1, 2, 1), 1.0, sigma_ch=not_kron)
    with pytest.raises(DomainError):
        build_pilots({"kind": "nope"}, dims, 1.0)
    bad = {"kind": "explicit", "real": [[0.0, 0.0], [0.0, 0.0]]}
    with pytest.raises(DomainError):
        build_pilots(bad, dims, 1.0)
    with pytest.raises(DimensionError, match="explicit pilots have shape"):
        build_pilots({"kind": "explicit", "real": [[1.0, 0.0]]}, dims, 1.0)
    # two transmit antennas, three pilots
    for kind in ("scaled-unitary", "eigenbasis"):
        with pytest.raises(DomainError, match=f"{kind} pilots require n_pilots == n_tx"):
            build_pilots({"kind": kind}, SystemDims(2, 1, 3), 1.0)
    for spec in ("scalar", [("kind", "scalar")], None):
        with pytest.raises(DomainError, match="pilot spec must be a mapping"):
            build_pilots(spec, SystemDims(1, 1, 1), 1.0)
    # True would pass as 1 and "3" or None reach the comparison
    for snr_linear in (True, "3", None):
        with pytest.raises(DomainError, match="snr_linear must be a number"):
            build_pilots({"kind": "scalar"}, SystemDims(1, 1, 1), snr_linear)
    for snr_linear in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="snr_linear must be positive and finite"):
            build_pilots({"kind": "scalar"}, SystemDims(1, 1, 1), snr_linear)


def test_result_types():
    result = run_mse_sweep(scalar_config(trials=50))
    assert isinstance(result, MseSweepResult)
    assert {r.estimator for r in result.rows} == {"mmse", "blmmse"}


# ---------------------------------------------------------------------------
# per-block sign tables of the numeric posterior mean


def general_sweep_config(n_rx=2, rho=0.9, phi=0.7, **overrides):
    """Scalar-pilot 1 x n_rx sweep on sigma_ik = rho^|i-k| e^{j phi (i-k)}:
    for phi != 0, S is one coupled block of 2 n_rx coordinates."""
    lag = np.arange(n_rx)[:, None] - np.arange(n_rx)[None, :]
    sigma = rho ** np.abs(lag) * np.exp(1j * phi * lag)
    base = dict(
        dims=SystemDims(1, n_rx, 1),
        covariance={"kind": "custom", "real": sigma.real.tolist(),
                    "imag": sigma.imag.tolist()},
        pilots={"kind": "scalar"},
        snr_grid_db=(0.0, 10.0, 20.0),
        estimators=("mmse", "blmmse"),
        trials=2_000,
        seed=1,
        rel_tol=1e-3,
    )
    base.update(overrides)
    return SweepConfig(**base)


def real_two_block_config(**overrides):
    # a real covariance splits S into a real-part and an imaginary-part
    # 4-block, both integrated numerically
    return general_sweep_config(n_rx=4, phi=0.0, rho=0.7, **overrides)


# sha256 of render_csv of general_sweep_config(seed=s), the numeric path's
# bytes; a change that moves any of them has to say so here
GENERAL_SWEEP_CSV_SHA256 = {
    1: "9cd60c70160819a8ea62cdeae74b242a69baec9bd4f6405a8dec99a421e88ac0",
    2: "8f5e2d4c8beeb3c5c26a582dd75791f905bc14aa2dd964f6d3554aeb4c465f07",
    3: "bac8c546ea26cefbe78662f104a47259a4cf53ea54f87c565286f43e065c5a4c",
}


@pytest.mark.parametrize("seed", sorted(GENERAL_SWEEP_CSV_SHA256))
def test_general_sweep_keeps_its_csv_bytes(seed):
    csv = render_csv(run_mse_sweep(general_sweep_config(seed=seed)))
    assert hashlib.sha256(csv.encode()).hexdigest() == GENERAL_SWEEP_CSV_SHA256[seed]


def test_near_singular_sweep_stays_off_the_lattice(monkeypatch):
    # receive correlation 0.999 at 40 dB makes near-singular 5-blocks, which
    # the quadrature bisects towards their steep end instead of handing
    # them to the lattice integrator
    calls = []
    qmc = orthant._qmc_orthant

    def qmc_spy(corr, *args):
        calls.append(corr.shape[0])
        return qmc(corr, *args)

    monkeypatch.setattr(orthant, "_qmc_orthant", qmc_spy)
    cfg = SweepConfig(
        dims=SystemDims(1, 5, 1),
        covariance={"kind": "exponential", "rho": 0.999},
        pilots={"kind": "scalar"},
        snr_grid_db=(40.0,),
        estimators=("mmse", "blmmse"),
        trials=2_000,
        seed=1,
        rel_tol=1e-4,
    )
    rows = {r.estimator: r for r in run_mse_sweep(cfg).rows}
    assert calls == []
    assert rows["mmse"].mse <= rows["blmmse"].mse


def _tables_and_oracle(cfg, snr_db):
    """The sign tables' evaluate of one sweep point, and its whole-S oracle
    mapping sign arrays to (h_hat, pr) the same way."""
    stats, model = build_point(cfg, snr_db)
    evaluate, _ = estimators._sign_tables(stats, model, cfg.rel_tol)

    def oracle(r_real, r_imag):
        ests = [whole_s_mmse(stats, model, observation_from_signs(rr, ri), rel_tol=cfg.rel_tol)
                for rr, ri in zip(r_real, r_imag)]
        return np.array([est.h_hat for est in ests]), np.array([est.pr_r for est in ests])

    return evaluate, oracle


def _assert_flip_and_rotation_exact(evaluate, r_real, r_imag):
    # h_hat(-r) = -h_hat(r), h_hat(j r) = j h_hat(r) and equal Pr, bit for bit
    h_hat, pr = evaluate(r_real + 1j * r_imag)
    for (image_real, image_imag), factor in (((-r_real, -r_imag), -1.0), ((-r_imag, r_real), 1j)):
        h_image, pr_image = evaluate(image_real + 1j * image_imag)
        assert np.array_equal(h_image, factor * h_hat)
        assert np.array_equal(pr_image, pr)


def test_sign_tables_equal_the_reduction_on_every_pattern():
    # one 4-block that r -> j r maps onto itself: the rows the tables solve,
    # one per rotation pair, equal the reduction; the others are rotations
    cfg = general_sweep_config()
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    r_real, r_imag = signs[:, :2], signs[:, 2:]
    solved = np.array([solved_by_the_tables(rr, ri) for rr, ri in zip(r_real, r_imag)])
    assert solved.sum() == 8
    for snr_db in cfg.snr_grid_db:
        stats, _ = build_point(cfg, snr_db)
        assert [list(b) for b in _coupling_components(real_form(stats.omega_b))] == [[0, 1, 2, 3]]
        evaluate, oracle = _tables_and_oracle(cfg, snr_db)
        h_hat, pr = evaluate(r_real + 1j * r_imag)
        h_oracle, pr_oracle = oracle(r_real[solved], r_imag[solved])
        assert np.array_equal(h_hat[solved], h_oracle)
        assert np.array_equal(pr[solved], pr_oracle)
        _assert_flip_and_rotation_exact(evaluate, r_real, r_imag)


def test_sign_tables_equal_the_reduction_on_two_numeric_blocks():
    # a real Omega: r -> j r maps the real-part block onto the imaginary-part
    # block, so the tables solve the real-part rows and turn them by j
    cfg = real_two_block_config()
    stats, _ = build_point(cfg, 10.0)
    assert [len(b) for b in _coupling_components(real_form(stats.omega_b))] == [4, 4]
    signs = np.where(np.random.default_rng(11).random((24, 8)) < 0.5, -1.0, 1.0)
    r_real, r_imag = signs[:, :4], signs[:, 4:]
    evaluate, oracle = _tables_and_oracle(cfg, 10.0)
    h_hat, _ = evaluate(r_real + 1j * r_imag)
    assert np.array_equal(h_hat.real, oracle(r_real, r_imag)[0].real)
    assert np.array_equal(h_hat.imag, oracle(r_imag, r_imag)[0].real)
    _assert_flip_and_rotation_exact(evaluate, r_real, r_imag)


def test_sign_tables_rotation_invariance_is_exact_on_two_blocks():
    cfg = real_two_block_config()
    evaluate, _ = estimators._sign_tables(*build_point(cfg, 10.0), cfg.rel_tol)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=8)))
    _assert_flip_and_rotation_exact(evaluate, signs[:, :4], signs[:, 4:])


def test_sign_tables_solve_each_block_pattern_once(monkeypatch):
    rows = _count_solved_rows(monkeypatch)
    # 2000 trials hit all 16 patterns, which fold onto the 8 rows of the
    # block; r -> j r pairs those rows, and one row of each pair is solved,
    # however the trials are chunked
    for chunk in (simulate._CHUNK, 7):
        rows.clear()
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        run_mse_sweep(general_sweep_config(snr_grid_db=(10.0,)))
        assert len(rows) == 4
    # a real Omega: only the real-part block's 8 rows are solved
    for trials in (20, 3_000):
        rows.clear()
        run_mse_sweep(real_two_block_config(snr_grid_db=(10.0,), estimators=("mmse",),
                                            trials=trials))
        assert 0 < len(rows) <= 8


def _closed_simo3_config():
    # a real 1x3 point: two closed 3-blocks the rotation maps onto each other
    cfg = load_sweep_config(os.path.join(CONFIGS, "receive_correlated.yaml"))
    return dataclasses.replace(cfg, snr_grid_db=(20.0,), estimators=("mmse",), trials=2_000)


def test_closed_estimate_solves_only_its_own_rows(monkeypatch):
    # Im r = -Re r puts both blocks on one rotation pair: one row is solved,
    # not the table's 4; independent signs need one row per block
    rows = _count_solved_rows(monkeypatch)
    stats, model = build_point(_closed_simo3_config(), 20.0)
    r_real = np.array([1.0, -1.0, 1.0])
    for r_imag, solved in ((-r_real, 1), (np.array([1.0, 1.0, -1.0]), 2)):
        rows.clear()
        est = estimators.mmse_estimate(stats, model, observation_from_signs(r_real, r_imag))
        assert est.estimator == "mmse-closed"
        assert len(rows) == solved


def test_closed_sweep_solves_each_own_row_at_most_once(monkeypatch):
    rows = _count_solved_rows(monkeypatch)
    # the real-part block's 4 rows are the own rows; the imaginary-part
    # block's are their rotations
    for chunk in (simulate._CHUNK, 7):
        rows.clear()
        monkeypatch.setattr(simulate, "_CHUNK", chunk)
        run_mse_sweep(_closed_simo3_config())
        assert 0 < len(rows) == len(set(rows)) <= 4


def test_sign_tables_fill_order_leaves_rows_unchanged(monkeypatch):
    cfg = general_sweep_config(trials=500)
    baseline = run_mse_sweep(cfg)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    assert run_mse_sweep(cfg).rows == baseline.rows


def _lone_row_configs():
    # 71 trials in chunks of 7 leave a last chunk of one trial
    transmit = load_sweep_config(os.path.join(CONFIGS, "transmit_correlated.yaml"))
    return [
        scalar_config(trials=71, snr_grid_db=(-10.0, 0.0, 10.0, 20.0)),
        general_sweep_config(trials=71),
        dataclasses.replace(transmit, trials=71),
    ]


def test_each_point_of_a_sweep_equals_that_point_swept_alone(monkeypatch):
    # the points share each trial's draw; a point's row must not depend on
    # which other points the sweep holds
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    for cfg in _lone_row_configs():
        rows = run_mse_sweep(cfg).rows
        alone = [row for snr_db in sorted(cfg.snr_grid_db)
                 for row in run_mse_sweep(dataclasses.replace(cfg, snr_grid_db=(snr_db,))).rows]
        assert len(rows) == len(cfg.snr_grid_db) * len(cfg.estimators)
        assert rows == alone


def test_sweep_draws_each_chunk_once_for_all_points(monkeypatch):
    starts = []
    sample = simulate.sample_realizations

    def counted(*args, **kwargs):
        starts.append(kwargs["start_stream"])
        return sample(*args, **kwargs)

    monkeypatch.setattr(simulate, "sample_realizations", counted)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    for cfg in _lone_row_configs():
        for grid in (cfg.snr_grid_db[:1], cfg.snr_grid_db):
            starts.clear()
            run_mse_sweep(dataclasses.replace(cfg, snr_grid_db=grid))
            assert starts == list(range(0, 71, 7))


def test_linear_point_builds_its_map_once(monkeypatch):
    # blmmse and the exactly linear mmse share one W per point, whether a
    # caller reaches blmmse_operator through simulate or estimators
    calls = []
    operator = estimators.blmmse_operator

    def counted(stats, model):
        calls.append(stats)
        return operator(stats, model)

    monkeypatch.setattr(simulate, "blmmse_operator", counted)
    monkeypatch.setattr(estimators, "blmmse_operator", counted)
    transmit = load_sweep_config(os.path.join(CONFIGS, "transmit_correlated.yaml"))
    assert transmit.estimators == ("mmse", "blmmse") and len(transmit.snr_grid_db) == 7
    result = run_mse_sweep(dataclasses.replace(transmit, trials=10))
    assert len(calls) == 7
    assert len(result.rows) == 14
