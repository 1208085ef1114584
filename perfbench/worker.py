"""One benchmark client in a fresh single-threaded process.

Sets up a workload (imports, input generation, input files), runs its cold
stream and then its warm stream as a closed loop, one query at a time, checks
every answer afterwards, and prints one JSON report line on stdout.

    python3 perfbench/worker.py --workload collect --seed 1 --workdir DIR
"""

import argparse
import importlib
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_stream(queries, tracer, first_id, failure_types):
    """Run queries back to back; returns (CPU seconds, [(output, error,
    CPU seconds)])."""
    results = []
    if tracer:
        tracer.active = True
    start = time.process_time()
    for i, query in enumerate(queries):
        if tracer:
            tracer.query = first_id + i
        t = time.process_time()
        try:
            out, err = query.run(), None
        except failure_types as exc:
            out, err = None, exc
        results.append((out, err, time.process_time() - t))
    cpu = time.process_time() - start
    if tracer:
        tracer.active = False
    return cpu, results


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import loopnil

    if Path(loopnil.__file__).resolve().parent != ROOT / "src" / "loopnil":
        raise SystemExit(f"loopnil imported from {loopnil.__file__}, not from this checkout")
    from loopnil.errors import LoopnilError
    from query import QueryFailed

    workload = importlib.import_module(f"wl_{args.workload}")
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        streams = [
            workload.make_stream(random.Random(args.seed + i), workdir / f"stream{i}")
            for i in (0, 1)
        ]
        failure_types = (LoopnilError, QueryFailed)
        # CPU time since process start: interpreter start, imports, inputs
        setup_s = time.process_time()
        cold_s, cold = run_stream(streams[0], tracer, 0, failure_types)
        warm_s, warm = run_stream(streams[1], tracer, len(streams[0]), failure_types)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        errors = []
        failed = 0
        latencies = []
        for query, (out, err, seconds) in zip(streams[0] + streams[1], cold + warm):
            if err is not None:
                failed += 1
                latencies.append(None)
                # any failure but the known fault makes the run incorrect
                if not query.known_fault:
                    errors.append(f"{query.kind}: failed: {type(err).__name__}: {err}")
                continue
            latencies.append(seconds * 1000.0)
            bad = query.check(out)
            if bad:
                errors.append(f"{query.kind}: {bad}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "errors": errors[:20],
    }
    if tracer:
        report["trace"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
