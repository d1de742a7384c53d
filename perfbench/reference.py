"""Independent reference values for the two general workloads.

The package computes the posterior mean through the precision matrix C of the
sign-folded observation and its own lattice integrator.  The reference takes
another route: with x = Diag(r) [Re b; Im b] ~ N(0, S), the sign pattern r is
the event x > 0, so

    Pr(r) = P(S),   E[x | x > 0] = S g / P(S),
    g_k = P(S_k) / sqrt(2 pi S_kk),

where S_k is the covariance of the other coordinates given x_k = 0 (Tallis
1961), and E[h | r] = sigma A^H Omega^{-1} E[b | r].  Every orthant
probability comes from scipy's Genz-Bretz integrator at RELATIVE_TARGET,
1000x tighter than the workloads' rel_tol.

Inputs depend only on the sign pattern, never on the workload seed: the
sweep hits every pattern and the estimate workload has 64, so one table
serves every seed.  It takes a few minutes to build, never inside a timed
run:

    PYTHONPATH=src python3 perfbench/reference.py
"""

import json
import math
import os
import sys
import time
from itertools import product

import numpy as np
from scipy.stats import multivariate_normal

import workloads

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Target three-standard-error bound of each probability, relative to it.
RELATIVE_TARGET = 1e-6
# Two probability problems of one dimension match when their correlation
# matrices agree to this; distinct sign patterns differ by O(0.1).
MATCH_TOL = 1e-7


def standardize(cov):
    d = np.sqrt(cov.diagonal())
    corr = cov / np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    return (corr + corr.T) / 2.0


def orthant_problems(omega, r_real, r_imag):
    """[S, S_0, ..., S_{n-1}] for one sign pattern: the covariance of the
    sign-folded real observation and its conditional covariances."""
    cov = 0.5 * np.block([[omega.real, -omega.imag], [omega.imag, omega.real]])
    signs = np.concatenate([r_real, r_imag])
    s = signs[:, None] * cov * signs[None, :]
    out = [s]
    for k in range(s.shape[0]):
        rest = np.delete(np.arange(s.shape[0]), k)
        out.append(s[np.ix_(rest, rest)] - np.outer(s[rest, k], s[k, rest]) / s[k, k])
    return out


def genz_orthant(cov, rel=RELATIVE_TARGET, seed=0):
    """P(x > 0) for x ~ N(0, cov) by scipy's Genz-Bretz QMC integrator."""
    corr = standardize(cov)
    n = corr.shape[0]
    upper, lower = np.full(n, np.inf), np.zeros(n)
    rough = multivariate_normal(np.zeros(n), corr, abseps=1e-5).cdf(
        upper, lower_limit=lower, rng=np.random.default_rng(seed))
    # scipy 1.17 stops on the absolute error only, so set it from the value.
    dist = multivariate_normal(np.zeros(n), corr, abseps=rel * rough, releps=0.0,
                               maxpts=10**10)
    return float(dist.cdf(upper, lower_limit=lower, rng=np.random.default_rng(seed + 1)))


def estimate_from_probs(omega, sigma, pilot, r_real, r_imag, probs):
    """(h_hat, Pr(r)) from the orthant probabilities of orthant_problems."""
    s = orthant_problems(omega, r_real, r_imag)[0]
    t = len(r_real)
    g = np.asarray(probs[1:]) / np.sqrt(2.0 * np.pi * s.diagonal())
    m = s @ g / probs[0]
    eb = r_real * m[:t] + 1j * r_imag * m[t:]
    h = np.conj(pilot) * sigma @ np.linalg.solve(omega, eb)
    return h, probs[0]


def patterns(t):
    for bits in product((1.0, -1.0), repeat=2 * t):
        yield np.array(bits[:t]), np.array(bits[t:])


def point_table(n_rx, snr_db):
    """Reference entries, keyed by pattern, for one 1 x n_rx SNR point."""
    omega = workloads.observation_covariance(n_rx, snr_db)
    sigma = workloads.general_covariance(n_rx)
    pilot = math.sqrt(10.0 ** (snr_db / 10.0))
    solved = {}
    table = {}
    for r_real, r_imag in patterns(n_rx):
        probs = []
        for cov in orthant_problems(omega, r_real, r_imag):
            key = cov.tobytes()
            if key not in solved:
                solved[key] = genz_orthant(cov)
            probs.append(solved[key])
        h, pr = estimate_from_probs(omega, sigma, pilot, r_real, r_imag, probs)
        table[workloads.pattern_key(r_real, r_imag)] = {
            "pr": pr, "h_real": h.real.tolist(), "h_imag": h.imag.tolist(), "probs": probs}
    return table


def exact_mse(table, sigma):
    """Exact per-coefficient MSE of the posterior mean and of the best linear
    estimator W r, from the table entries of every sign pattern of one point.

    With C_hr = E[h r^H] = sum Pr(r) h_hat(r) r^H and C_rr = E[r r^H], the
    linear MSE is (tr sigma - tr C_hr C_rr^{-1} C_hr^H) / N and the posterior
    mean's is (tr sigma - sum Pr(r) |h_hat(r)|^2) / N.
    """
    pr = np.array([e["pr"] for e in table.values()])
    h = np.array([np.asarray(e["h_real"]) + 1j * np.asarray(e["h_imag"]) for e in table.values()])
    signs = np.array([[1.0 if c == "+" else -1.0 for c in key] for key in table])
    t = signs.shape[1] // 2
    r = signs[:, :t] + 1j * signs[:, t:]
    c_hr = (pr[:, None] * h).T @ r.conj()
    c_rr = (pr[:, None] * r).T @ r.conj()
    trace = np.trace(sigma).real
    n = sigma.shape[0]
    mmse = (trace - pr @ np.sum(np.abs(h) ** 2, axis=1)) / n
    linear = (trace - np.trace(c_hr @ np.linalg.solve(c_rr, c_hr.conj().T)).real) / n
    return {"mmse": float(mmse), "blmmse": float(linear)}


def workload_params():
    """What the stored table depends on; a mismatch means it is stale."""
    return {"rho": workloads.GENERAL_RHO, "phi": workloads.GENERAL_PHI,
            "sweep-general": {"n_rx": workloads.SWEEP_GENERAL["n_rx"],
                              "snr_grid_db": list(workloads.SWEEP_GENERAL["snr_grid_db"])},
            "estimate-general": {"n_rx": workloads.ESTIMATE_GENERAL["n_rx"],
                                 "snr_grid_db": [workloads.ESTIMATE_GENERAL["snr_db"]]},
            "relative_target": RELATIVE_TARGET}


def build():
    params = workload_params()
    out = {"params": params, "tables": {}}
    for name in ("sweep-general", "estimate-general"):
        n_rx = params[name]["n_rx"]
        out["tables"][name] = {}
        for snr_db in params[name]["snr_grid_db"]:
            t0 = time.perf_counter()
            out["tables"][name][f"{snr_db:g}"] = point_table(n_rx, snr_db)
            print(f"{name} {snr_db:g} dB: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return out


def load(path=PATH):
    """The stored table; raises ValueError when the workloads have changed."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if data["params"] != workload_params():
        raise ValueError(f"{path} was built for other workload parameters; rebuild it")
    return data


class ProbabilityLookup:
    """Reference orthant probabilities of one workload, found by matrix."""

    def __init__(self, data, name):
        n_rx = data["params"][name]["n_rx"]
        by_dim = {}
        for snr, table in data["tables"][name].items():
            omega = workloads.observation_covariance(n_rx, float(snr))
            for r_real, r_imag in patterns(n_rx):
                probs = table[workloads.pattern_key(r_real, r_imag)]["probs"]
                for cov, p in zip(orthant_problems(omega, r_real, r_imag), probs):
                    corr = standardize(cov)
                    by_dim.setdefault(corr.shape[0], []).append((corr, p))
        self._stacked = {d: (np.stack([c for c, _ in v]), np.array([p for _, p in v]))
                         for d, v in by_dim.items()}

    def find(self, psi):
        """Reference P(psi), or None when no stored problem matches."""
        corr = standardize(np.asarray(psi, dtype=float))
        stack = self._stacked.get(corr.shape[0])
        if stack is None:
            return None
        dist = np.abs(stack[0] - corr).max(axis=(1, 2))
        i = int(np.argmin(dist))
        return float(stack[1][i]) if dist[i] <= MATCH_TOL else None


def compare_with_package(data):
    """Largest relative gaps between the package and the table (a sanity check)."""
    from onebitmimo import config as config_mod
    from onebitmimo import estimators, quantizer, simulate
    for name, table_by_snr in data["tables"].items():
        n_rx = data["params"][name]["n_rx"]
        rel_tol = (workloads.SWEEP_GENERAL if name == "sweep-general"
                   else workloads.ESTIMATE_GENERAL)["rel_tol"]
        for snr, table in table_by_snr.items():
            raw = workloads.general_config_dict(n_rx, [float(snr)], 1, 0, rel_tol)
            stats, model = simulate.build_point(config_mod.sweep_config_from_dict(raw), float(snr))
            h_gap = pr_gap = 0.0
            for r_real, r_imag in patterns(n_rx):
                ref = table[workloads.pattern_key(r_real, r_imag)]
                est = estimators.mmse_estimate(stats, model, quantizer.observation_from_signs(
                    r_real, r_imag), rel_tol=rel_tol, method="general")
                h_ref = np.asarray(ref["h_real"]) + 1j * np.asarray(ref["h_imag"])
                h_gap = max(h_gap, np.linalg.norm(est.h_hat - h_ref) / np.linalg.norm(h_ref))
                pr_gap = max(pr_gap, abs(est.pr_r - ref["pr"]) / ref["pr"])
            print(f"{name} {snr} dB at rel_tol {rel_tol:g}: max h_hat gap {h_gap:.3g}, "
                  f"max Pr gap {pr_gap:.3g}", file=sys.stderr)


if __name__ == "__main__":
    table = build()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    compare_with_package(table)
