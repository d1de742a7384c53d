"""Run the benchmark over several seeds and summarize each metric.

Usage, from the repository root:

    python3 perfbench/prove.py --trace 0 --seeds 1-10 [--workloads a,b] [--out FILE [--section NAME]]

Runs ``run.py`` once per workload and seed, one after another, with the
run_seconds of BENCHMARK.json.  For every metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the number of runs, and flags an end-to-end spread
above a third of the metric's bound.  With --out the summary is merged into
that JSON file under --section (default "trace0" or "trace1"), with the
environment the runs recorded.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--workloads", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--section", default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    env = None
    steady = True
    for workload in names:
        runs = []
        for seed in args.seeds:
            env, res = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr, flush=True)
        stats = {}
        for metric in runs[0]["metrics"]:
            stats[metric] = summarize([r["metrics"][metric] for r in runs])
            s = stats[metric]
            flag = ""
            if metric in bounds and metric != "setup_s" and s["spread"] > bounds[metric] / 3:
                flag = f"  SPREAD ABOVE {bounds[metric] / 3:.4f}"
                steady = False
            print(f"{workload:17s} {metric:38s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} n {s['n']}{flag}")
        summary[workload] = {"metrics": stats, "runs": runs}
    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        section = data.setdefault(args.section or f"trace{args.trace}", {})
        section.update(summary)
        section["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed")}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
