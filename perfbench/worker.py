"""One workload in one fresh interpreter: set up, run timed rounds, check.

``run.py`` starts this with the BLAS and OpenMP pools pinned to one
thread and bytecode writing off.  It prints its raw measurements as one
JSON object on the last line of standard output.

    python3 perfbench/worker.py --workload csv-io --seed 1 --seconds 15 --trace 0
    python3 perfbench/worker.py --workload csv-io --seed 1 --seconds 15 --setup-only
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def run_rounds(workload, first: int, seconds: float | None = None,
               rounds: int | None = None):
    """Whole rounds from index ``first`` on, until ``seconds`` have passed
    (at least one round) or for exactly ``rounds`` rounds.  Returns each
    round's timed seconds and the operations that failed."""
    times, failed = [], 0
    start = time.perf_counter()
    i = first
    while True:
        gc.collect()
        t = time.perf_counter()
        outcome = workload.run_round(i)
        times.append(time.perf_counter() - t)
        failed += workload.record(i, outcome)
        i += 1
        if rounds is not None:
            if len(times) >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return times, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    ndc = importlib.import_module("ndc")
    importlib.import_module("ndc.cli")
    import_s = time.perf_counter() - t0
    if not Path(ndc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported ndc from {ndc.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        t1 = time.perf_counter()
        workload = WORKLOADS[args.workload](workdir, args.seed)
        inputs_s = time.perf_counter() - t1
        result = {"setup": {"import_s": import_s, "inputs_s": inputs_s,
                            "setup_s": import_s + inputs_s}}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        # the first round pays one-time costs (first touch of memory, lazy
        # imports) that later rounds do not; it is checked but not timed
        warmup, failed = run_rounds(workload, 0, rounds=1)
        if args.trace == 0:
            times, more_failed = run_rounds(workload, 1, seconds=args.seconds)
            rounds = 1 + len(times)
        else:
            # untraced rounds first, then the same rounds again under the tracer
            times, more_failed = run_rounds(workload, 1, seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_failed = run_rounds(workload, 1, rounds=len(times))
            finally:
                tracer.uninstall()
            more_failed += traced_failed
            rounds = 1 + len(times) + len(traced)
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
            layers = layer_metrics(tracer.spans, len(traced))
            # round i sees the same inputs in both passes, so the difference is the tracer's
            layers["bench.trace_overhead_s"] = (sum(traced) - sum(times)) / len(traced)
            result["layers"] = layers
            result["traced_round_s"] = traced
        result.update(
            warmup_s=warmup[0],
            round_s=times,
            attempted=rounds * workload.ops_per_round,
            failed=failed + more_failed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        result["problems"] = workload.check()
        result["reference"] = workload.reference()
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
