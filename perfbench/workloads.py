"""Workload definitions, input generation, timed units and correctness checks.

Three workloads, each run in one process by one caller (a closed loop with
one client):

* ``sweep-configs``: ``run_mse_sweep`` on the three shipped configs with the
  workload seed and a fixed trial count.  Sampling dominates; the orthant
  layer does no work.
* ``sweep-general``: ``run_mse_sweep`` on a 1x2, tau=1, scalar-pilot custom
  complex covariance.  Every mmse trial takes the general path through the
  sweep's pattern cache, and every sign pattern is hit, so the orthant work is
  the same for every seed.
* ``estimate-general``: what ``onebitmimo estimate --estimator auto`` does,
  on a 1x3 version of the same covariance at 10 dB, over distinct
  observations drawn from the workload seed.  No pattern is reused.

The workload seed goes into the sweep configs and the observation draws; the
program receives only the generated inputs.
"""

import dataclasses
import math
import os

import numpy as np

from onebitmimo import config as config_mod
from onebitmimo import estimators, optimality, quantizer, simulate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SHIPPED_CONFIGS = ("scalar", "receive_correlated", "transmit_correlated")
SWEEP_CONFIGS_TRIALS = 4000

# Complex exponential covariance sigma_ik = rho^|i-k| e^{j phi (i-k)} of the
# two general workloads.  The phase makes the precision matrix C of every
# sign pattern fully coupled, so no closed form applies.
GENERAL_RHO = 0.9
GENERAL_PHI = 0.7

# 2000 trials hit every one of the 16 sign patterns at each SNR point: the
# rarest has probability 0.0076 (at 20 dB), so a run misses one with
# probability near 1e-6, and the solves are the same for every seed.
# Both general workloads integrate at rel_tol 1e-3, which keeps a unit short
# enough that a run holds many.  At the default 1e-4 one sweep
# takes 15 s, and one observation 0.9-6.6 s depending on its sign pattern.
SWEEP_GENERAL = {"n_rx": 2, "snr_grid_db": (0.0, 10.0, 20.0), "trials": 2000,
                 "rel_tol": 1e-3}
ESTIMATE_GENERAL = {"n_rx": 3, "snr_db": 10.0, "rel_tol": 1e-3}

# A statistical check fails beyond K_STDERR standard errors: a correct
# estimator exceeds that with probability below 1e-6 per check.
K_STDERR = 5.0
# Estimates are checked only for gross error: beyond GROSS_ERROR times the
# integrator's rel_tol, relative to the stored reference.  Over all 64 patterns
# of estimate-general the package reaches Pr(r) within 1.4x rel_tol, but h_hat
# only within 14.7x: the truncated mean sums terms that partly cancel.
GROSS_ERROR = 30.0
# The transmit-correlated configuration is exactly linear, so its mmse and
# blmmse rows agree to rounding.
LINEAR_RTOL = 1e-9


def general_covariance(n, rho=GENERAL_RHO, phi=GENERAL_PHI):
    idx = np.arange(n)
    lag = idx[:, None] - idx[None, :]
    return rho ** np.abs(lag) * np.exp(1j * phi * lag)


def general_config_dict(n_rx, snr_grid_db, trials, seed, rel_tol):
    """Raw config mapping, as a YAML file would hold it, of a general workload."""
    sigma = general_covariance(n_rx)
    return {
        "dims": {"n_tx": 1, "n_rx": n_rx, "n_pilots": 1},
        "covariance": {"kind": "custom", "real": sigma.real.tolist(),
                       "imag": sigma.imag.tolist()},
        "pilots": {"kind": "scalar"},
        "snr_grid_db": list(snr_grid_db),
        "estimators": ["mmse", "blmmse"],
        "trials": trials,
        "seed": seed,
        "rel_tol": rel_tol,
    }


def observation_covariance(n_rx, snr_db):
    """Omega = |s|^2 sigma + I of a scalar-pilot 1 x n_rx point, unit noise."""
    return 10.0 ** (snr_db / 10.0) * general_covariance(n_rx) + np.eye(n_rx)


def load_sweep_configs(seed):
    """The three shipped configs with the workload seed and trial count."""
    out = []
    for name in SHIPPED_CONFIGS:
        cfg = config_mod.load_sweep_config(os.path.join(ROOT, "configs", name + ".yaml"))
        out.append((name, dataclasses.replace(cfg, seed=seed, trials=SWEEP_CONFIGS_TRIALS)))
    return out


def load_sweep_general(seed):
    p = SWEEP_GENERAL
    raw = general_config_dict(p["n_rx"], p["snr_grid_db"], p["trials"], seed, p["rel_tol"])
    return [("general", config_mod.sweep_config_from_dict(raw))]


def estimate_config(seed):
    """(config, snr_db) of the estimate workload, loaded as the CLI loads a file."""
    p = ESTIMATE_GENERAL
    raw = general_config_dict(p["n_rx"], [p["snr_db"]], 1, seed, p["rel_tol"])
    raw["snr_db"] = p["snr_db"]
    cfg = config_mod.sweep_config_from_dict(raw)
    return cfg, config_mod.point_snr_db(raw, cfg)


def build_estimate_point(seed):
    """(stats, model, rel_tol) of the estimate workload, built as the CLI does."""
    cfg, snr_db = estimate_config(seed)
    stats, model = simulate.build_point(cfg, snr_db)
    return stats, model, cfg.rel_tol


def observations(seed, count):
    """count raw observations b ~ CN(0, Omega) of the estimate workload."""
    p = ESTIMATE_GENERAL
    chol = np.linalg.cholesky(observation_covariance(p["n_rx"], p["snr_db"]))
    z = np.random.default_rng([seed, 0xE57]).standard_normal((count, 2, p["n_rx"]))
    return (z[:, 0] + 1j * z[:, 1]) @ chol.T / math.sqrt(2.0)


def sweep_trial_points(configs):
    """Trials x SNR points of one unit (one sweep of each config)."""
    return sum(cfg.trials * len(cfg.snr_grid_db) for _, cfg in configs)


def estimate_once(stats, model, rel_tol, b):
    """What ``estimate --estimator auto`` computes for one raw observation.

    Calls go through the module attributes so a tracer can wrap them.
    """
    obs = quantizer.quantize(b)
    mmse = estimators.mmse_estimate(stats, model, obs, rel_tol=rel_tol)
    blmmse = estimators.blmmse_estimate(stats, model, obs)
    verdict = optimality.is_blmmse_optimal(stats)
    return obs, mmse, blmmse, verdict


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of failure messages


def analytic_scalar_mse(snr_db):
    eta = 10.0 ** (snr_db / 10.0)
    return 1.0 - 2.0 * eta / (math.pi * (eta + 1.0))


def _rows_by_snr(result):
    rows = {}
    for row in result.rows:
        rows.setdefault(row.snr_db, {})[row.estimator] = row
    return rows


def check_sweep(name, result, exact=None, k=K_STDERR):
    """Check one sweep result; the number of checked rows is len(result.rows).

    exact maps an SNR point to the exact MSE of each estimator, when known.
    """
    failures = []
    for snr_db, rows in _rows_by_snr(result).items():
        mmse, bl = rows["mmse"], rows["blmmse"]
        for row in (mmse, bl):
            if not (math.isfinite(row.mse) and row.stderr > 0.0):
                failures.append(f"{name} {snr_db:g} dB {row.estimator}: mse {row.mse}, "
                                f"stderr {row.stderr}")
        if name == "scalar":
            want = analytic_scalar_mse(snr_db)
            for row in (mmse, bl):
                if abs(row.mse - want) > k * row.stderr:
                    failures.append(f"scalar {snr_db:g} dB {row.estimator}: mse {row.mse:.6g} "
                                    f"vs analytic {want:.6g} beyond {k:g} stderr")
        elif name == "transmit_correlated":
            if abs(mmse.mse - bl.mse) > LINEAR_RTOL * bl.mse:
                failures.append(f"transmit_correlated {snr_db:g} dB: mmse {mmse.mse!r} "
                                f"differs from blmmse {bl.mse!r} on a linear config")
        elif mmse.mse > bl.mse + k * math.hypot(mmse.stderr, bl.stderr):
            failures.append(f"{name} {snr_db:g} dB: mmse {mmse.mse:.6g} above blmmse "
                            f"{bl.mse:.6g} by more than {k:g} stderr")
        for row in (mmse, bl) if exact is not None else ():
            want = exact[snr_db][row.estimator]
            if abs(row.mse - want) > k * row.stderr:
                failures.append(f"{name} {snr_db:g} dB {row.estimator}: mse {row.mse:.6g} "
                                f"vs exact {want:.6g} beyond {k:g} stderr")
    return failures


def pattern_key(r_real, r_imag):
    """Sign pattern as a string of '+'/'-', real parts first."""
    return "".join("+" if s > 0 else "-" for s in np.concatenate([r_real, r_imag]))


def check_estimate(obs, mmse, blmmse, verdict, ref, rel_tol, gross=GROSS_ERROR):
    """Check one estimate against its stored reference entry."""
    failures = []
    key = pattern_key(obs.r_real, obs.r_imag)
    if ref is None:
        return [f"pattern {key}: no stored reference"]
    h_ref = np.asarray(ref["h_real"]) + 1j * np.asarray(ref["h_imag"])
    h_err = np.linalg.norm(mmse.h_hat - h_ref) / np.linalg.norm(h_ref)
    if not h_err <= gross * rel_tol:
        failures.append(f"pattern {key}: mmse h_hat off the reference by {h_err:.3g} relative")
    pr_err = abs(mmse.pr_r - ref["pr"]) / ref["pr"]
    if not pr_err <= gross * rel_tol:
        failures.append(f"pattern {key}: Pr(r) {mmse.pr_r:.6g} vs reference {ref['pr']:.6g}")
    if mmse.estimator != "mmse-general":
        failures.append(f"pattern {key}: mmse took path {mmse.estimator}, not mmse-general")
    if not np.all(np.isfinite(blmmse.h_hat)):
        failures.append(f"pattern {key}: blmmse estimate is not finite")
    if verdict.optimal:
        failures.append("optimality check calls a non-linear configuration optimal")
    return failures
