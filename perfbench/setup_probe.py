"""One cold set-up of a workload, timed in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports the package, loads or builds the workload's configs, builds every
SNR point and constructs the estimator operators, then prints the timings as
one JSON object.  The benchmark runs it several times per run and reports the
median.
"""

import json
import os
import statistics
import sys
import time

t_start = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import onebitmimo  # noqa: E402,F401

t_import = time.perf_counter()

import workloads  # noqa: E402
from onebitmimo import estimators, simulate  # noqa: E402


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main(workload, seed):
    if workload == "estimate-general":
        (cfg, snr_db), config_s = _timed(workloads.estimate_config, seed)
        points = [(cfg, snr_db)]
    else:
        loader = (workloads.load_sweep_configs if workload == "sweep-configs"
                  else workloads.load_sweep_general)
        configs, config_s = _timed(loader, seed)
        points = [(cfg, snr_db) for _, cfg in configs for snr_db in cfg.snr_grid_db]
    build_s, op_s = [], []
    for cfg, snr_db in points:
        (stats, model), dt = _timed(simulate.build_point, cfg, snr_db)
        build_s.append(dt)
        op_s.append(_timed(estimators.blmmse_operator, stats, model)[1])
        estimators.mmse_linear_operator(stats, model)
    end = time.perf_counter()
    print(json.dumps({
        "setup_s": end - t_start,
        "import.s": t_import - t_start,
        "config.load.ms": 1e3 * config_s,
        "simulate.build_point.ms": 1e3 * statistics.median(build_s),
        "estimators.blmmse_operator.ms": 1e3 * statistics.median(op_s),
    }))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
