"""Steadiness check: run each workload of BENCHMARK.json ``--runs`` times
on one commit, with seeds 1, 2, ..., and report every end-to-end metric's
median, quartiles and spread (interquartile distance over median) against
its bound, then one traced run per workload with its tracing overhead.

    python3 perfbench/steady.py --runs 10

Exits 1 when a spread exceeds its bound, or when a run is incorrect or the
share of failed queries differs between runs of one workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload, seed, seconds, trace):
    """One benchmark run; returns its output lines and its parsed result."""
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=seconds + 600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in range(1, args.runs + 1):
            _, res = run_once(bench["command"], workload, seed, seconds, 0)
            results.append(res)
            print(f"# {workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()
            ), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(
            f"{workload}: correct={correct} queries attempted={attempted} failed={failed} "
            f"failed share per run={sorted(shares)}"
        )
        if len(shares) != 1 or not correct:
            steady = False
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER")
            if spread > bound:
                steady = False
            print(
                f"  {name:16s} median {med:10.4f} {units[name]:3s} q1 {q1:10.4f}  q3 {q3:10.4f}  "
                f"spread {spread:6.3f}  bound {bound:.2f}  {flag}"
            )
        lines, _ = run_once(bench["command"], workload, 1, seconds, 1)
        for line in lines:
            print(f"  traced {line}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
