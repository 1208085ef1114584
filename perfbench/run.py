"""Benchmark entry point for loopnil.

    python3 perfbench/run.py --workload collect --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout holding ``src/loopnil``.  For ``--seconds``
it starts clients one after another, each a fresh single-threaded process
(``worker.py``) that sets up, runs a cold and a warm query stream and checks
every answer; it then prints each end-to-end metric (``--trace 0``) or each
per-layer metric (``--trace 1``) and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

A traced run alternates untraced and traced clients: the traced ones wrap the
program's entry points (``tracing.py``) and write their spans under
``.perfbench_out/``; the difference between the two kinds of client is
reported as the tracing overhead.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("collect", "quotients", "layers")
MIN_CLIENTS = 3
CLIENT_TIMEOUT_S = 150
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name):
    if name.endswith(".self_s") or name == "trace.overhead_s":
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


class ClientError(RuntimeError):
    pass


def run_client(workload, seed, trace, index, spans=None):
    """One client process; returns its parsed report."""
    workdir = WORK_DIR / f"{os.getpid()}-{index}"
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
        "--workdir",
        str(workdir),
    ]
    if spans:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CLIENT_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise ClientError(f"client {index} exceeded {CLIENT_TIMEOUT_S}s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ClientError(f"client {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(values, q):
    """Nearest-rank percentile; failed queries are +inf."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(reports):
    latencies = [
        math.inf if v is None else v for r in reports for v in r["latencies_ms"]
    ]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "cold_s": statistics.median(r["cold_s"] for r in reports),
        "warm_s": statistics.median(r["warm_s"] for r in reports),
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }


def per_layer(plain, traced):
    """Per-layer medians over traced clients, and the tracing overhead:
    the median over pairs of clients that ran the same inputs of the traced
    client's stream time minus the untraced one's.  Returns the metrics and
    whether the overhead stands out of the noise, that is whether the
    quartiles of the pair differences both lie on one side of 0."""
    names = traced[0]["trace"].keys()
    out = {name: statistics.median(r["trace"][name] for r in traced) for name in names}
    pairs = [(p["cold_s"] + p["warm_s"], t["cold_s"] + t["warm_s"]) for p, t in zip(plain, traced)]
    diffs = [t - p for p, t in pairs]
    out["trace.overhead_s"] = statistics.median(diffs)
    out["trace.overhead_share"] = statistics.median(t / p - 1 for p, t in pairs)
    q1, _, q3 = statistics.quantiles(diffs, n=4)
    return out, q1 > 0 or q3 < 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "loopnil" / "__init__.py").is_file():
        print(f"perfbench: no loopnil sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spans_prefix = f"spans-{args.workload}-"
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        for old in OUT_DIR.glob(spans_prefix + "*"):
            old.unlink()
    deadline = time.monotonic() + args.seconds
    plain, traced, durations = [], [], []
    index = 0
    try:
        while True:
            left = deadline - time.monotonic()
            enough = len(plain) + len(traced) >= MIN_CLIENTS and (
                not args.trace or len(traced) >= 2
            )
            # stop when the next client would mostly run past the deadline
            if enough and left < 0.5 * statistics.median(durations):
                break
            traced_client = bool(args.trace) and index % 2 == 1
            spans = OUT_DIR / f"{spans_prefix}{args.seed}-{index}.tsv.gz" if traced_client else None
            # every client draws its own inputs, so a run's medians average
            # over inputs as well as over the host's timing noise; a traced
            # client repeats the inputs of the untraced one before it
            pair = index // 2 if args.trace else index
            client_seed = args.seed * 1000 + 2 * pair
            started = time.monotonic()
            report = run_client(args.workload, client_seed, int(traced_client), index, spans)
            durations.append(time.monotonic() - started)
            (traced if traced_client else plain).append(report)
            index += 1
    except ClientError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reports = plain + traced
    for r in reports:
        for line in r["errors"]:
            print(f"perfbench: {line}", file=sys.stderr)
    if args.trace:
        values, resolved = per_layer(plain, traced)
    else:
        values = end_to_end(plain)
    metrics = {}
    for name, value in values.items():
        unit = END_TO_END_UNITS[name] if not args.trace else layer_unit(name)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if args.trace:
        print(
            f"{args.workload} tracing overhead "
            + ("resolved: outside" if resolved else "unresolved: within")
            + " the quartiles of the traced-minus-untraced differences"
        )
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(f"{args.workload} clients = {len(reports)}, queries attempted = {attempted}, failed = {failed}")
    result = {
        # worker.py counts every failure but the known fault as an error
        "correct": all(not r["errors"] for r in reports),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
