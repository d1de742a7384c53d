"""Command line interface, driven through main(argv)."""

import hashlib
import os

import numpy as np
import pytest

from onebitmimo.cli import main

SCALAR_CFG = """
dims: {n_tx: 1, n_rx: 1, n_pilots: 1}
covariance: {kind: identity}
pilots: {kind: scalar}
snr_grid_db: [0, 10]
estimators: [mmse, blmmse]
trials: 400
seed: 11
"""

SIMO3_CFG = """
dims: {n_tx: 1, n_rx: 3, n_pilots: 1}
covariance: {kind: exponential, rho: 0.5}
pilots: {kind: scalar}
snr_grid_db: [10]
estimators: [mmse, blmmse]
trials: 200
seed: 5
"""


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")

# sha256 of the CSV each shipped config writes; a change that moves any
# byte of these sweeps has to say so here
SHIPPED_CSV_SHA256 = {
    "scalar": "c42381fd5007277dab79bd8013e3115d8623d334e5fed165ef6649d827da57d7",
    "receive_correlated": "f4f37e9c8d7ef78205fdea29f558c5c49f09d2d8a0a9cb60c8e93a7d24744256",
    "transmit_correlated": "160f641d6717d24e0fe71f0a41ba42573ea1ce099ad4e3d437b5bad60a3e1c6e",
}


def write(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_simulate_writes_csv(tmp_path, capsys):
    cfg = write(tmp_path, SCALAR_CFG, "cfg.yaml")
    out = tmp_path / "sweep.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert "wrote 4 rows" in capsys.readouterr().out
    lines = out.read_text().strip().split("\n")
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert data[0] == "SNR_dB,estimator,MSE,stderr,trials"
    assert len(data) == 5

    out2 = tmp_path / "sweep2.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("name", sorted(SHIPPED_CSV_SHA256))
def test_shipped_configs_keep_their_csv_bytes(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    cfg = os.path.join(CONFIGS, f"{name}.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SHIPPED_CSV_SHA256[name]


def test_estimate_sampled_observation(tmp_path, capsys):
    cfg = write(tmp_path, SCALAR_CFG, "cfg.yaml")
    assert main(["estimate", "--config", cfg, "--sample"]) == 0
    text = capsys.readouterr().out
    assert "sampled observation" in text
    assert "(path: mmse-closed)" in text
    assert "(path: blmmse)" in text
    assert "Pr(r) = 0.25" in text
    assert "linear estimator optimal: True" in text
    gap = float(text.split("max |mmse - blmmse| = ")[1].split()[0])
    assert gap < 1e-9


def test_estimate_observation_file(tmp_path, capsys):
    cfg = write(tmp_path, SIMO3_CFG, "cfg.yaml")
    obs = write(
        tmp_path,
        "r_real: [1, -1, 1]\nr_imag: [1, 1, -1]\n",
        "obs.yaml",
    )
    assert main(["estimate", "--config", cfg, "--obs", obs, "--estimator", "mmse"]) == 0
    text = capsys.readouterr().out
    assert "(path: mmse-closed)" in text
    assert "Pr(r)" in text


def test_estimate_raw_observation_file(tmp_path, capsys):
    cfg = write(tmp_path, SCALAR_CFG, "cfg.yaml")
    obs = write(tmp_path, "b_real: [-0.3]\nb_imag: [2.0]\n", "obs.yaml")
    assert main(["estimate", "--config", cfg, "--obs", obs]) == 0
    text = capsys.readouterr().out
    assert "[0] -1.000000000 +1.000000000j" in text


def test_check_optimality(tmp_path, capsys):
    cfg = write(tmp_path, SIMO3_CFG, "cfg.yaml")
    assert main(["check-optimality", "--config", cfg]) == 0
    text = capsys.readouterr().out
    assert "linear estimator optimal: False" in text
    assert "largest coupled block: 3" in text
    assert "witness: row 0" in text

    cfg2 = write(tmp_path, SCALAR_CFG, "scalar.yaml")
    assert main(["check-optimality", "--config", cfg2]) == 0
    assert "linear estimator optimal: True" in capsys.readouterr().out


def test_orthant_text_matrix(tmp_path, capsys):
    mat = write(tmp_path, "1.0 0.5\n0.5 1.0\n", "psi.txt")
    assert main(["orthant", "--matrix", mat]) == 0
    value = float(capsys.readouterr().out.split("orthant probability:")[1])
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_orthant_yaml_matrix_with_mean(tmp_path, capsys):
    mat = write(tmp_path, "matrix:\n- [1.0, 0.0]\n- [0.0, 1.0]\n", "psi.yaml")
    assert main(["orthant", "--matrix", mat, "--mean"]) == 0
    text = capsys.readouterr().out
    assert "orthant probability: 0.25" in text
    assert "truncated mean (closed-form):" in text
    vals = [float(ln.split()[-1]) for ln in text.strip().split("\n")[-2:]]
    np.testing.assert_allclose(vals, np.sqrt(2.0 / np.pi), atol=1e-12)


def test_orthant_mean_reads_a_covariance(tmp_path, capsys):
    # u ~ N(0, psi) with unit variances and correlation 1/2: P(u > 0) = 1/3
    # and E[u_i 1{u > 0}] = (1 + 1/2) / (2 sqrt(2 pi))
    mat = write(tmp_path, "1.0 0.5\n0.5 1.0\n", "psi.txt")
    assert main(["orthant", "--matrix", mat, "--mean"]) == 0
    text = capsys.readouterr().out
    vals = [float(ln.split()[-1]) for ln in text.strip().split("\n")[-2:]]
    np.testing.assert_allclose(vals, 3.0 * 1.5 / (2.0 * np.sqrt(2.0 * np.pi)), atol=1e-12)


def test_missing_file_reports_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", "x"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_reports_error(tmp_path, capsys):
    cfg = write(tmp_path, SCALAR_CFG + "bogus: 2\n", "bad.yaml")
    assert main(["estimate", "--config", cfg, "--sample"]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_spec_parameter_of_the_wrong_type_reports_error(tmp_path, capsys):
    # a list where a number belongs: an error line naming the key, not a TypeError
    cfg = write(tmp_path, SIMO3_CFG.replace("rho: 0.5", "rho: [0.5]"), "list_rho.yaml")
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'rho' must be a number" in err
    assert not out.exists()


def test_overflowing_snr_reports_error(tmp_path, capsys):
    # 4000 dB has no finite linear value: an error line, not a traceback
    cfg = write(tmp_path, SCALAR_CFG.replace("[0, 10]", "[0, 4000]"), "grid.yaml")
    out = tmp_path / "never.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert "no finite positive linear value" in capsys.readouterr().err
    assert not out.exists()
    cfg = write(tmp_path, SCALAR_CFG + "snr_db: 4000\n", "point.yaml")
    assert main(["check-optimality", "--config", cfg]) == 1
    assert "no finite positive linear value" in capsys.readouterr().err


def test_bad_observation_reports_error(tmp_path, capsys):
    cfg = write(tmp_path, SCALAR_CFG, "cfg.yaml")
    obs = write(tmp_path, "r_real: [1, 0.5]\nr_imag: [1, 1]\n", "obs.yaml")
    assert main(["estimate", "--config", cfg, "--obs", obs]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_config_yaml_reports_error(tmp_path, capsys):
    cfg = write(tmp_path, "dims: {n_tx: 1, n_rx: 1\n", "truncated.yaml")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "truncated.yaml" in err


def test_repeated_observation_key_reports_error(tmp_path, capsys):
    cfg = write(tmp_path, SCALAR_CFG, "cfg.yaml")
    obs = write(tmp_path, "r_real: [1]\nr_imag: [1]\nr_real: [-1]\n", "twice_obs.yaml")
    assert main(["estimate", "--config", cfg, "--obs", obs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "twice_obs.yaml" in err and "duplicate key 'r_real'" in err


def test_repeated_matrix_key_reports_error(tmp_path, capsys):
    mat = write(tmp_path, "matrix: [[1.0, 0.5], [0.5, 1.0]]\nmatrix: [[1.0]]\n", "psi.yaml")
    assert main(["orthant", "--matrix", mat]) == 1
    assert "duplicate key 'matrix'" in capsys.readouterr().err


def test_malformed_observation_yaml_reports_error(tmp_path, capsys):
    cfg = write(tmp_path, SCALAR_CFG, "cfg.yaml")
    obs = write(tmp_path, "r_real: [1, -1\n", "truncated_obs.yaml")
    assert main(["estimate", "--config", cfg, "--obs", obs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "truncated_obs.yaml" in err


@pytest.mark.parametrize("text, key", [
    ("r_real: [true]\nr_imag: [1]\n", "r_real"),
    ("r_real: [1]\nr_imag: ['1']\n", "r_imag"),
    ("b_real: ['-0.3']\n", "b_real"),
    ("b_real: [0.5]\nb_imag: [true]\n", "b_imag"),
    ("b_real: [0.5]\nb_imag: null\n", "b_imag"),
])
def test_observation_entry_that_is_no_number_reports_error(tmp_path, capsys, text, key):
    # a bool or a string is no sign and no observation, whatever float() makes of it
    cfg = write(tmp_path, SCALAR_CFG, "cfg.yaml")
    obs = write(tmp_path, text, "obs.yaml")
    assert main(["estimate", "--config", cfg, "--obs", obs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{key!r} entries must be numbers" in err


@pytest.mark.parametrize("text", [
    "matrix: [[true, '0.5'], ['0.5', 1]]\n",
    "- [1.0, '0.5']\n- [0.5, 1.0]\n",
])
def test_matrix_entry_that_is_no_number_reports_error(tmp_path, capsys, text):
    mat = write(tmp_path, text, "psi.yaml")
    assert main(["orthant", "--matrix", mat]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "entries must be numbers" in captured.err
    assert "orthant probability" not in captured.out


@pytest.mark.parametrize("text, message", [
    # a misspelt b_imag would quantize as if the imaginary part were zero
    ("b_real: [0.5, -0.2, 0.1]\nb_imga: [1.0, 1.0, -1.0]\n",
     "unknown observation file keys: ['b_imga']"),
    # signs and raw values together: which one is meant is not for us to pick
    ("r_real: [1, -1, 1]\nr_imag: [1, 1, -1]\nb_real: [0.5, -0.2, 0.1]\n",
     "got keys ['b_real', 'r_imag', 'r_real']"),
    # one b_imag entry would be broadcast over three b_real entries
    ("b_real: [0.5, -0.2, 0.1]\nb_imag: [-1.0]\n", "'b_imag' has shape (1,), 'b_real' (3,)"),
    ("r_real: [1, -1, 1]\n", "must hold r_real and r_imag sign vectors"),
], ids=["misspelt-key", "signs-and-raw", "short-b-imag", "r-real-alone"])
def test_observation_file_with_the_wrong_keys_reports_error(tmp_path, capsys, text, message):
    cfg = write(tmp_path, SIMO3_CFG, "cfg.yaml")
    obs = write(tmp_path, text, "obs.yaml")
    assert main(["estimate", "--config", cfg, "--obs", obs]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert "estimate (path" not in captured.out


@pytest.mark.parametrize("text, message", [
    ("matrx:\n- [1.0, 0.5]\n- [0.5, 1.0]\n", "unknown matrix file keys: ['matrx']"),
    ("matrix: [[1.0, 0.5], [0.5, 1.0]]\nmean: true\n", "unknown matrix file keys: ['mean']"),
    ("{}\n", "has no 'matrix' key"),
], ids=["misspelt-key", "extra-key", "empty-mapping"])
def test_matrix_file_with_the_wrong_keys_reports_error(tmp_path, capsys, text, message):
    mat = write(tmp_path, text, "psi.yaml")
    assert main(["orthant", "--matrix", mat]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and message in captured.err
    assert "orthant probability" not in captured.out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", [
    "matrx\n",
    "matrix: [[1.0, 0.5], [0.5, 1.0]]\n---\nmatrix: [[1.0]]\n",
    "1.0 0.5\n0.5\n",
    "",
], ids=["bare-word", "two-documents", "ragged-grid", "empty"])
def test_matrix_file_in_no_accepted_form_reports_error(tmp_path, capsys, text):
    # an empty file must not reach loadtxt, which warns before it fails
    mat = write(tmp_path, text, "psi.txt")
    assert main(["orthant", "--matrix", mat]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "holds no matrix: give a 'matrix:' mapping, " \
        "a YAML list of rows or a whitespace grid of numbers" in captured.err
    assert "orthant probability" not in captured.out


def test_orthant_tab_separated_matrix(tmp_path, capsys):
    # YAML refuses the tabs; the grid reader takes the file
    mat = write(tmp_path, "1.0\t0.5\n0.5\t1.0\n", "psi.tsv")
    assert main(["orthant", "--matrix", mat]) == 0
    value = float(capsys.readouterr().out.split("orthant probability:")[1])
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
