"""Command line interface.

Subcommands:

* estimate: channel estimate(s) for one observation (file or sampled).
* simulate: Monte Carlo MSE sweep to CSV.
* check-optimality: does the linear estimator equal the posterior mean?
* orthant: orthant probability (and optionally truncated mean) of a
  covariance matrix read from a file.
"""

import argparse
import contextlib
import io
import sys

import numpy as np
import yaml

from . import config as config_mod
from .estimators import blmmse_estimate, mmse_estimate
from .exceptions import DimensionError, DomainError
from .model import number_array, observe, sample_realizations
from .optimality import is_blmmse_optimal
from .orthant import (
    DEFAULT_MAX_SAMPLES,
    DEFAULT_REL_TOL,
    orthant_probability,
    positive_orthant_mean,
)
from .quantizer import observation_from_signs, quantize
from .simulate import build_point, emit_results, run_mse_sweep


def _fmt_vector(v):
    return "\n".join(
        f"  [{i}] {z.real:+.9f} {z.imag:+.9f}j" for i, z in enumerate(np.asarray(v))
    )


def _load_observation(path):
    """The observation an observation file holds: exactly r_real and r_imag
    sign vectors, or b_real raw observations with an optional b_imag of the
    same length.  Entries must be numbers, never a bool or a string."""
    raw = config_mod.check_mapping(config_mod.load_yaml(path, "observation file"),
                                   {"r_real", "r_imag", "b_real", "b_imag"}, "observation file")
    keys = sorted(raw)
    if keys == ["r_imag", "r_real"]:
        return observation_from_signs(raw["r_real"], raw["r_imag"])
    if keys not in (["b_real"], ["b_imag", "b_real"]):
        raise DomainError("observation file must hold r_real and r_imag sign vectors, or "
                          f"b_real raw observations with an optional b_imag; got keys {keys}")
    b_real = number_array(raw["b_real"], "observation 'b_real'")
    b_imag = number_array(raw.get("b_imag", np.zeros_like(b_real)), "observation 'b_imag'")
    if b_imag.shape != b_real.shape:
        raise DimensionError(f"observation 'b_imag' has shape {b_imag.shape}, "
                             f"'b_real' {b_real.shape}")
    return quantize(b_real + 1j * b_imag)


def _load_point(path):
    """Config, SNR and (stats, model) of the single point a config file names."""
    raw = config_mod.load_raw(path)
    cfg = config_mod.sweep_config_from_dict(raw)
    snr_db = config_mod.point_snr_db(raw, cfg)
    stats, model = build_point(cfg, snr_db)
    return cfg, snr_db, stats, model


def _cmd_estimate(args):
    cfg, snr_db, stats, model = _load_point(args.config)
    if args.obs is not None:
        obs = _load_observation(args.obs)
    else:
        h, noise = sample_realizations(stats, model, cfg.seed, 1)
        obs = quantize(observe(model, h, noise)[0])
        print(f"sampled observation (seed {cfg.seed}), true channel:")
        print(_fmt_vector(h[0]))
    print(f"snr_db: {snr_db:g}")
    print("r:")
    print(_fmt_vector(obs.r))
    results = {}
    if args.estimator in ("mmse", "auto"):
        results["mmse"] = mmse_estimate(stats, model, obs, rel_tol=cfg.rel_tol)
    if args.estimator in ("blmmse", "auto"):
        results["blmmse"] = blmmse_estimate(stats, model, obs)
    for name, est in results.items():
        print(f"{name} estimate (path: {est.estimator}):")
        print(_fmt_vector(est.h_hat))
        if est.pr_r is not None:
            print(f"  Pr(r) = {est.pr_r:.9g}")
    if len(results) == 2:
        gap = np.abs(results["mmse"].h_hat - results["blmmse"].h_hat).max()
        print(f"max |mmse - blmmse| = {gap:.3e}")
        verdict = is_blmmse_optimal(stats)
        print(f"linear estimator optimal: {verdict.optimal}")
    return 0


def _cmd_simulate(args):
    cfg = config_mod.load_sweep_config(args.config)
    result = run_mse_sweep(cfg)
    emit_results(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


def _cmd_check_optimality(args):
    _, snr_db, stats, _ = _load_point(args.config)
    verdict = is_blmmse_optimal(stats)
    print(f"snr_db: {snr_db:g}")
    print(f"linear estimator optimal: {verdict.optimal}")
    print(f"largest coupled block: {verdict.largest_block}")
    if verdict.witness is not None:
        w = verdict.witness
        print(
            f"witness: row {w.row} couples to columns {w.col_a} "
            f"(|corr| {w.magnitude_a:.6e}) and {w.col_b} (|corr| {w.magnitude_b:.6e})"
        )
    return 0


def _load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.load(text, Loader=config_mod.UniqueKeyLoader)
    except yaml.constructor.ConstructorError as exc:
        raise DomainError(f"matrix file {path} is not valid YAML: {exc}") from exc
    except yaml.YAMLError:
        raw = text  # no YAML, but maybe a grid: YAML refuses tabs, for one
    if isinstance(raw, dict):
        if "matrix" not in config_mod.check_mapping(raw, {"matrix"}, "matrix file"):
            raise DomainError(f"matrix file {path} has no 'matrix' key")
        return number_array(raw["matrix"], "matrix file 'matrix'")
    if isinstance(raw, list):
        return number_array(raw, "matrix file")
    # None is a file without a YAML value, on which loadtxt would only warn
    if raw is not None:
        with contextlib.suppress(ValueError):
            return np.loadtxt(io.StringIO(text), ndmin=2)
    raise DomainError(f"matrix file {path} holds no matrix: give a 'matrix:' mapping, "
                      "a YAML list of rows or a whitespace grid of numbers")


def _cmd_orthant(args):
    psi = _load_matrix(args.matrix)
    kwargs = dict(rel_tol=args.rel_tol, max_samples=args.max_samples, seed=args.seed)
    if not args.mean:
        print(f"orthant probability: {orthant_probability(psi, **kwargs):.12g}")
        return 0
    # the truncated mean integrates P(psi) on the way, so print that value
    res = positive_orthant_mean(psi, **kwargs)
    print(f"orthant probability: {res.prob:.12g}")
    print(f"truncated mean ({res.method}):")
    for i, v in enumerate(res.mean):
        print(f"  [{i}] {v:.12g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="onebitmimo",
        description="Channel estimation from one-bit quantized MIMO pilots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate the channel for one observation")
    p_est.add_argument("--config", required=True, help="YAML config file")
    group = p_est.add_mutually_exclusive_group(required=True)
    group.add_argument("--obs", help="YAML observation file (r_real/r_imag or b_real/b_imag)")
    group.add_argument("--sample", action="store_true",
                       help="sample an observation from the config seed")
    p_est.add_argument("--estimator", choices=("mmse", "blmmse", "auto"), default="auto")
    p_est.set_defaults(func=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="run an MSE-versus-SNR sweep")
    p_sim.add_argument("--config", required=True, help="YAML config file")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("check-optimality",
                           help="check whether the linear estimator is exactly optimal")
    p_opt.add_argument("--config", required=True, help="YAML config file")
    p_opt.set_defaults(func=_cmd_check_optimality)

    p_orth = sub.add_parser("orthant",
                            help="orthant probability of a covariance matrix")
    p_orth.add_argument("--matrix", required=True,
                        help="matrix file (YAML 'matrix:' mapping, YAML list of rows or "
                             "whitespace grid)")
    p_orth.add_argument("--mean", action="store_true",
                        help="also print the positive-orthant truncated mean")
    p_orth.add_argument("--rel-tol", type=float, default=DEFAULT_REL_TOL, dest="rel_tol")
    p_orth.add_argument("--max-samples", type=int, default=DEFAULT_MAX_SAMPLES,
                        dest="max_samples")
    p_orth.add_argument("--seed", type=int, default=0)
    p_orth.set_defaults(func=_cmd_orthant)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, np.linalg.LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
