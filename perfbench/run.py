"""Benchmark for ndc: four workloads, each in a fresh interpreter.

    python3 perfbench/run.py                  # every workload, one after another
    python3 perfbench/run.py --workload sim4-study --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload wide-cv --seed 3 --trace 1

Run from the root of a checkout.  Each workload runs in a worker
interpreter whose BLAS and OpenMP pools are pinned to one thread and
which compiles ndc from source (no bytecode is written or found).  Set-up
is measured in SETUP_SAMPLES interpreters, before and after the measuring
one, and reported as the median.

With ``--trace 0`` the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
``setup_s``, ``wall_s`` (median seconds of one round) and
``peak_rss_mb``.  With ``--trace 1`` the same workload runs again under
the tracer and the metrics are the per-layer ones.  Metric names and
units are those declared in BENCHMARK.json.  Every run also writes its
full record to ``perfbench/out/``.

``--seconds`` is the measuring time; it defaults to ``run_seconds`` in
BENCHMARK.json and may be 1 to MAX_SECONDS, so that a run of the slowest
workload, with its set-up samples and warm-up round, ends within
DEADLINE_S.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("sim4-study", "wide-cv", "csv-io", "oracle-exact")
SETUP_SAMPLES = 7
MAX_SECONDS = 60
DEADLINE_S = 170
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, seconds: float, extra: list[str],
               deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerFailed(f"{workload}: out of time before starting a worker")
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: worker still running at the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited {proc.returncode}\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 units: dict[str, str]) -> tuple[dict, dict]:
    """The printed result of one run, and the worker's full record.
    ``units`` maps each metric that the run must report to its unit."""
    deadline = time.monotonic() + DEADLINE_S
    # set-up samples are taken before and after the measuring worker, so
    # that their median is not one moment's load on the machine
    setups = [run_worker(workload, seed, seconds, ["--setup-only"], deadline)["setup"]
              for _ in range(SETUP_SAMPLES // 2)]
    raw = run_worker(workload, seed, seconds, ["--trace", str(trace)], deadline)
    setups.append(raw["setup"])
    setups += [run_worker(workload, seed, seconds, ["--setup-only"], deadline)["setup"]
               for _ in range(SETUP_SAMPLES // 2)]

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    if trace:
        values = dict(raw["layers"])
        values["bench.import_s"] = setup_median("import_s")
        values["bench.inputs_s"] = setup_median("inputs_s")
    else:
        values = {"setup_s": setup_median("setup_s"),
                  "wall_s": statistics.median(raw["round_s"]),
                  "peak_rss_mb": raw["peak_rss_mb"]}
    if set(values) != set(units):
        raise WorkerFailed(f"{workload}: metrics {sorted(set(values) ^ set(units))} are "
                           "reported but not declared in BENCHMARK.json, or the other way round")
    result = {"correct": not raw["problems"], "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "result": result, "setup_samples": setups, **raw}
    with open(OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return result, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark for ndc.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all of them, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run, 1 to %d (default: run_seconds in "
                        "BENCHMARK.json)" % MAX_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ndc" / "__init__.py").is_file():
        print(f"error: no ndc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if not 1 <= seconds <= MAX_SECONDS:
        parser.error(f"--seconds must lie in [1, {MAX_SECONDS}], got {seconds:g}")
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            result, raw = run_workload(name, args.seed, seconds, args.trace, units)
            results[name] = result
            for problem in raw["problems"]:
                print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
            if not args.workload:
                figures = "  ".join(f"{k}={m['value']:.6g} {m['unit']}"
                                    for k, m in result["metrics"].items())
                print(f"{name}: {figures}  attempted={result['attempted']} "
                      f"failed={result['failed']} correct={result['correct']}")
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
