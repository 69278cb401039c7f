"""Run workloads repeatedly and report the spread of every metric.

    python3 perfbench/steady.py                      # each workload once
    python3 perfbench/steady.py --runs 10 --seed 1   # seeds 1..10
    python3 perfbench/steady.py --runs 10 --summary  # one line per metric

Each run is `run.py` in its own process, one after the other, with seeds
`--seed`, `--seed`+1, ...  The report gives, per workload, operations
attempted and failed, and per metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, their
distance as a share of the median.  End-to-end metrics show the bound from
`BENCHMARK.json` and are flagged with `!` when the spread exceeds a third
of it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(lines[-1])


def spread_of(values):
    if len(values) < 2:
        return median(values), values[0], values[0], 0.0
    q1, q2, q3 = quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--summary", action="store_true",
                    help="one diffable line per workload and metric")
    args = ap.parse_args(argv)

    for workload in names:
        results = [run_once(workload, args.seed + i, spec["run_seconds"],
                            args.trace)
                   for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        if not args.summary:
            print(f"{workload}: {args.runs} runs, seeds {args.seed}.."
                  f"{args.seed + args.runs - 1}, attempted {attempted}, "
                  f"failed {failed}, correct {correct}")
        else:
            print(f"{workload} ops attempted={attempted} failed={failed} "
                  f"correct={correct}")
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            values = [r["metrics"][name]["value"] for r in results]
            mid, q1, q3, spread = spread_of(values)
            bound = bounds.get(name)
            flag = "!" if bound is not None and spread > bound / 3 else ""
            if args.summary:
                print(f"{workload} {name} {unit} median={mid:.6g} "
                      f"spread={spread:.3f}{flag}")
            else:
                limit = f"  bound {bound}" if bound is not None else ""
                print(f"  {name:32s} {mid:12.6g} {unit:6s} q1 {q1:.6g}  "
                      f"q3 {q3:.6g}  spread {spread:.3f}{limit} {flag}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
