"""Benchmark of the onebitmimo package: MSE sweeps and single-observation estimates.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: sweep-configs, sweep-general, estimate-general (see workloads.py).
The package is imported from ./src.  One process, one caller: each unit of
work starts after the previous one ends.  BLAS is pinned to one thread.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json; --trace 1
runs each unit once untraced and once with spans around each layer, and
prints the per-layer metrics.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  Details (environment,
unit times, failures, spans) go to .perfbench_out/ under the repository root.
METRICS.md defines every metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set in the environment before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Cold set-ups per run; setup_s is their median.
SETUP_PROBES = 7
# Observations drawn for estimate-general, far more than a run gets through.
MAX_OBSERVATIONS = 16384


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep-configs", "sweep-general", "estimate-general"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def environment(args):
    import numpy
    import platform
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_env": {k: os.environ[k] for k in BLAS_ENV}}


def probe_setup(workload, seed):
    """Median timings of SETUP_PROBES cold set-ups, each in its own interpreter."""
    runs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
                              str(seed)], capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


class Bench:
    """The units of one workload: unit(i, tracer) runs unit i and returns its
    wall time; attempted and failures accumulate the correctness checks."""

    def __init__(self, workload, seed):
        import reference
        import workloads
        self.w = workloads
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.lookup = None
        self.exact = None
        if workload == "estimate-general":
            self.stats, self.model, self.rel_tol = workloads.build_estimate_point(seed)
            self.obs = workloads.observations(seed, MAX_OBSERVATIONS)
            data = reference.load()
            snr = f"{workloads.ESTIMATE_GENERAL['snr_db']:g}"
            self.refs = data["tables"][workload][snr]
            self.lookup = reference.ProbabilityLookup(data, workload)
            self.limit = MAX_OBSERVATIONS
            self.trial_points = 1
            self.estimates = 1
            self.timed_singly = True
            self.unit = self._estimate_unit
        else:
            loader = (workloads.load_sweep_configs if workload == "sweep-configs"
                      else workloads.load_sweep_general)
            self.configs = loader(seed)
            if workload == "sweep-general":
                data = reference.load()
                self.lookup = reference.ProbabilityLookup(data, workload)
                sigma = workloads.general_covariance(workloads.SWEEP_GENERAL["n_rx"])
                self.exact = {float(snr): reference.exact_mse(table, sigma)
                              for snr, table in data["tables"][workload].items()}
            self.limit = sys.maxsize
            self.trial_points = workloads.sweep_trial_points(self.configs)
            self.estimates = sum(cfg.trials * len(cfg.snr_grid_db) * len(cfg.estimators)
                                 for _, cfg in self.configs)
            self.timed_singly = False
            self.unit = self._sweep_unit

    def check(self, ops, messages):
        """Count ops checked operations, of which min(ops, len(messages)) failed."""
        for msg in messages:
            print(f"check failed: {msg}", file=sys.stderr)
        self.failures.extend(messages)
        self.attempted += ops
        self.failed += min(ops, len(messages))

    def _sweep_unit(self, i, tracer=None):
        import tracing
        from onebitmimo import simulate
        results = []
        t0 = time.perf_counter()
        for name, cfg in self.configs:
            span = (nullcontext() if tracer is None else
                    tracer.span(tracing.SWEEP_SPAN, trial_points=cfg.trials * len(cfg.snr_grid_db)))
            try:
                with span:
                    results.append((name, cfg, simulate.run_mse_sweep(cfg)))
            except Exception as exc:  # a failed sweep is counted, the run goes on
                results.append((name, cfg, exc))
        elapsed = time.perf_counter() - t0
        for name, cfg, res in results:
            rows = len(cfg.snr_grid_db) * len(cfg.estimators)
            if isinstance(res, Exception):
                self.check(rows, [f"{name}: {type(res).__name__}: {res}"] * rows)
            else:
                self.check(rows, self.w.check_sweep(name, res, self.exact))
        return elapsed

    def _estimate_unit(self, i, tracer=None):
        import tracing
        b = self.obs[i]
        t0 = time.perf_counter()
        try:
            with nullcontext() if tracer is None else tracer.span(tracing.ESTIMATE_SPAN):
                out = self.w.estimate_once(self.stats, self.model, self.rel_tol, b)
        except Exception as exc:  # a failed observation is counted, the run goes on
            out = exc
        elapsed = time.perf_counter() - t0
        if isinstance(out, Exception):
            self.check(1, [f"observation {i}: {type(out).__name__}: {out}"])
        else:
            obs = out[0]
            ref = self.refs.get(self.w.pattern_key(obs.r_real, obs.r_imag))
            self.check(1, self.w.check_estimate(*out, ref, self.rel_tol))
        return elapsed

    def measure(self, seconds, tracer=None):
        """Run units until the next one would likely end past `seconds` (at least one).

        With a tracer each unit runs twice, untraced and then traced, so drift
        in machine speed falls on both sides of trace.overhead alike.
        Returns (untraced unit times, traced unit times).
        """
        import tracing
        plain, traced = [], []
        start = time.perf_counter()
        while len(plain) < self.limit:
            i = len(plain)
            plain.append(self.unit(i))
            if tracer is not None:
                with tracer:
                    tracing.install(tracer)
                    traced.append(self.unit(i, tracer))
            per_unit = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
            if time.perf_counter() - start + per_unit > seconds:
                break
        return plain, traced


def end_to_end(bench, times, setup):
    import resource
    total = sum(times)
    # A sweep's estimates cannot be timed one by one; there the run's mean
    # time per estimate stands in for the median.
    per_estimate = (statistics.median(times) if bench.timed_singly
                    else total / (bench.estimates * len(times)))
    return {
        "trials_per_s": bench.trial_points * len(times) / total,
        "estimate_p50_s": per_estimate,
        "estimates_per_s": bench.estimates * len(times) / total,
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - bench.failed / bench.attempted,
    }


def per_layer(bench, seconds, setup):
    import tracing
    import workloads
    tracer = tracing.Tracer()
    untraced, traced = bench.measure(seconds, tracer)
    metrics, checked, failures = tracing.layer_metrics(tracer.spans, len(traced), bench.lookup,
                                                       gross=workloads.GROSS_ERROR)
    bench.check(checked, failures)
    for key in ("import.s", "config.load.ms", "simulate.build_point.ms",
                "estimators.blmmse_operator.ms"):
        metrics[key] = setup[key]
    metrics["trace.overhead"] = sum(traced) / sum(untraced) - 1.0
    return metrics, untraced + traced, tracer.to_json()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "onebitmimo")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [SRC, HERE]

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup = probe_setup(args.workload, args.seed)
    bench = Bench(args.workload, args.seed)
    record = {"setup": setup}
    if args.trace:
        values, record["unit_seconds"], record["spans"] = per_layer(bench, args.seconds, setup)
    else:
        record["unit_seconds"], _ = bench.measure(args.seconds)
        values = end_to_end(bench, record["unit_seconds"], setup)
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    env = environment(args)
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": values, "failures": bench.failures, **record}, fh)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
