"""Steadiness of the benchmark: two sets of runs of the same code,
interleaved in time, compared with the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --runs 5                    # every workload
    python3 perfbench/steady.py --runs 5 --workload sim4-study

Set A takes the seeds ``--first-seed``, ``--first-seed`` + 2, ... and
set B the seeds between them, so every run has its own seed; which set
runs first alternates.
For each workload and end-to-end metric it prints each set's median and
quartiles, the spread (quartile distance over median) of each set and
of all runs together, and how far B's median moved from A's.  A metric
agrees when the medians differ by no more than its bound and, except
for setup_s, the spread of all runs stays within the bound too.  The
failed share of operations must be the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def one_run(workload: str, seed: int) -> dict:
    """One end-to-end run, measuring for run_seconds of BENCHMARK.json."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="Two interleaved sets of benchmark runs.")
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: {"A": [], "B": []} for w in workloads}
    started = time.monotonic()
    for i in range(args.runs):
        for w in workloads:
            for side in (("A", "B") if i % 2 == 0 else ("B", "A")):
                seed = args.first_seed + 2 * i + (side == "B")
                runs[w][side].append(one_run(w, seed))
        print(f"# {i + 1}/{args.runs} rounds of runs done after "
              f"{time.monotonic() - started:.0f} s", file=sys.stderr, flush=True)

    ok = True
    summary = {}
    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3]':<30} {'B median [q1, q3]':<30} "
          f"{'sprA':>6} {'sprB':>6} {'sprAll':>6} {'shift':>7} {'bound':>5}  agree")
    for w in workloads:
        shares = {side: {Fraction(r["failed"], r["attempted"]) for r in runs[w][side]}
                  for side in "AB"}
        same_share = len(shares["A"] | shares["B"]) == 1
        ok &= same_share
        for name, bound in bounds.items():
            values = {side: [r["metrics"][name]["value"] for r in runs[w][side]] for side in "AB"}
            a, a1, a3, sa = spread(values["A"])
            b, b1, b3, sb = spread(values["B"])
            *_, s_all = spread(values["A"] + values["B"])
            shift = (b - a) / a
            agree = abs(shift) <= bound and (name == "setup_s" or s_all <= bound)
            ok &= agree
            summary[f"{w}/{name}"] = {"A": values["A"], "B": values["B"], "spread_all": s_all,
                                      "shift": shift, "bound": bound, "agree": agree}
            print(f"{w:<13} {name:<12} {f'{a:.4g} [{a1:.4g}, {a3:.4g}]':<30} "
                  f"{f'{b:.4g} [{b1:.4g}, {b3:.4g}]':<30} {sa:6.3f} {sb:6.3f} {s_all:6.3f} "
                  f"{shift:+7.3f} {bound:5.2f}  {'yes' if agree else 'NO'}")
        print(f"{w:<13} failed share A {sorted(map(str, shares['A']))} B {sorted(map(str, shares['B']))}: "
              f"{'same' if same_share else 'DIFFERENT'}")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"steady-{int(time.time())}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
