"""scipy loads on first use, not with the package.

Each case runs in a fresh interpreter: other test modules have already
imported scipy into this one.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECEIVE_CORRELATED = os.path.join(ROOT, "configs", "receive_correlated.yaml")

CLI = """
import json, sys
from onebitmimo.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "scipy" in sys.modules]))
"""

# the first call of each function that imports scipy.special itself;
# every value comes back as the hex of its bits
PROBES = f"""
import numpy as np
import onebitmimo as obm
from onebitmimo.config import load_sweep_config

def sample():
    stats, model = obm.build_point(load_sweep_config({RECEIVE_CORRELATED!r}), 20.0)
    h, noise = obm.sample_realizations(stats, model, 7, 5)
    return h.tobytes().hex() + noise.tobytes().hex()

def lattice():
    psi = 0.7 * np.eye(7) + 0.3
    return obm.orthant_probability(psi, rel_tol=1e-3, seed=2).hex()

def bessel():
    return obm.bessel_tx_covariance(8, 0.5, np.pi / 6, 0.1).tobytes().hex()
"""

FIRST_USE = PROBES + """
import json, sys
cold = "scipy" not in sys.modules
value = globals()[sys.argv[1]]()
print(json.dumps([cold, "scipy" in sys.modules, value]))
"""


def fresh(code, *args):
    """Last stdout line of `python -c code args...`, parsed as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src") + (os.pathsep + path if path else ""))
    out = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    return json.loads(out.strip().split("\n")[-1])


def test_import_loads_no_scipy():
    assert fresh("import json, sys, onebitmimo; print(json.dumps('scipy' in sys.modules))") is False


@pytest.mark.parametrize("argv, loads_scipy", [
    (["check-optimality", "--config", RECEIVE_CORRELATED], False),
    (["estimate", "--config", RECEIVE_CORRELATED, "--obs", "{obs}"], False),
    (["orthant", "--matrix", "{psi}", "--mean"], False),
    # sampling draws its normals with ndtri
    (["estimate", "--config", RECEIVE_CORRELATED, "--sample"], True),
], ids=["check-optimality", "estimate-obs", "orthant-mean", "estimate-sample"])
def test_cli_loads_scipy_only_to_sample(tmp_path, argv, loads_scipy):
    obs = tmp_path / "obs.yaml"
    obs.write_text("r_real: [1, -1, 1]\nr_imag: [1, 1, -1]\n", encoding="utf-8")
    psi = tmp_path / "psi.txt"
    psi.write_text("1.0 0.5\n0.5 1.0\n", encoding="utf-8")
    argv = [a.format(obs=obs, psi=psi) for a in argv]
    assert fresh(CLI, *argv) == [0, loads_scipy]


@pytest.mark.parametrize("name", ["sample", "lattice", "bessel"])
def test_first_use_of_scipy_keeps_the_bits(name):
    cold, loaded, value = fresh(FIRST_USE, name)
    assert cold and loaded
    probes = {}
    exec(PROBES, probes)
    assert value == probes[name]()
