"""Run one benchmark workload against opra's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times the set-up (import
`opra`, load the graph files, parse and validate the queries) several
times, then runs whole passes over the operation list, one call at a time,
until `--seconds` have passed.  Each pass's outputs are reduced to a digest
per output, outside the timing; each distinct output is kept once and
checked after the timed passes against answers computed without the
engine.  The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 1` the first third of the time runs untraced, the rest with
`tracing.Tracer` installed; the metrics are then the per-layer ones plus
the tracing overhead, and the spans go to `perfbench/out/`.

Exits with 2, printing no result, when the opra sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 15  # set-ups per run; setup_s is their median


class Failure:
    """An operation that raised; kept in place of its output."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.text = str(exc)

    def __repr__(self):
        return f"Failure({self.kind!r}, {self.text!r})"


def _opra_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "opra" or name.startswith("opra.")}


def import_fresh():
    """Import opra from scratch, as a new process would."""
    for name in _opra_modules():
        del sys.modules[name]
    return importlib.import_module("opra")


def timed_setup(workload):
    """(set-up, seconds) of one import from scratch plus the set-up."""
    start = perf_counter()
    setup = workload.setup(import_fresh())
    return setup, perf_counter() - start


def run_pass(ops, tracer=None):
    """One pass: (wall seconds, per-op seconds, outputs)."""
    latencies, outputs = [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation; the run goes on
            out = Failure(exc)
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    return perf_counter() - start, latencies, outputs


class Outputs:
    """The outputs of every pass over one operation list, kept small: each
    distinct output of an operation is stored once, with the number of
    passes that gave it, so memory does not grow with the pass count."""

    def __init__(self, ops):
        self.ops = ops
        self.passes = 0
        self.distinct = {}  # (op index, digest) -> [output, times seen]

    def add(self, outputs):
        self.passes += 1
        for i, out in enumerate(outputs):
            digest = hash(repr(out))  # 64 bits: a collision is negligible
            entry = self.distinct.setdefault((i, digest), [out, 0])
            entry[1] += 1

    def check(self):
        """(attempted, failed, wrong); prints each kind of failure once to
        stderr."""
        failed = wrong = 0
        seen = set()
        for (i, _), (out, times) in self.distinct.items():
            op = self.ops[i]
            verdict = _verdict(op, out)
            if verdict == "ok":
                continue
            failed += times
            if verdict == "wrong":
                wrong += times
            if (op.label, verdict) not in seen:
                seen.add((op.label, verdict))
                print(f"failed: {op.label}: {verdict}", file=sys.stderr)
        return len(self.ops) * self.passes, failed, wrong


def _verdict(op, out) -> str:
    if isinstance(out, Failure):
        return f"{out.kind}: {out.text}"
    if isinstance(out, tuple) and len(out) == 2 and out[1] is False:
        return "inconclusive"
    try:
        return "ok" if op.check(out) else "wrong"
    except Exception:  # a checker crash is reported, never hidden
        traceback.print_exc()
        return "wrong"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "opra" / "__init__.py").is_file():
        print(f"perfbench: no opra sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    outdir = OUT / f"{args.workload}-{args.seed}"
    workload = workloads.make(args.workload, args.seed, outdir,
                              SRC / "opra" / "data")

    # one set-up feeds the untraced passes; the other set-ups follow them,
    # so that peak_rss_mb shows the engine's memory, not repeated imports
    setup, seconds = timed_setup(workload)
    setup_times = [seconds]
    ops = workload.operations(setup, setup.opra.Engine())

    start = perf_counter()
    plain_until = args.seconds / 3 if args.trace else args.seconds
    plain, traced, latencies = [], [], []
    outputs = Outputs(ops)
    while not plain or perf_counter() - start < plain_until:
        wall, lat, outs = run_pass(ops)
        plain.append(wall)
        latencies.extend(lat)
        outputs.add(outs)
        del outs  # hold one pass of outputs beside the kept ones
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases = [outputs]

    # the extra imports are timed and dropped: opra imports some names
    # lazily, so objects of the first import need its modules back
    first = _opra_modules()
    for _ in range(SETUP_REPS - 1):
        setup_times.append(timed_setup(workload)[1])
    for name in _opra_modules():
        del sys.modules[name]
    sys.modules.update(first)

    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(setup.opra)
        snapshots = []
        try:
            setup = workload.setup(setup.opra)
            setup_counts = tracer.snapshot()
            ops = workload.operations(setup, setup.opra.Engine())
            outputs = Outputs(ops)
            while not traced or perf_counter() - start < args.seconds:
                tracer.reset()
                wall, _, outs = run_pass(ops, tracer)
                snapshots.append(tracer.snapshot())
                traced.append(wall)
                outputs.add(outs)
                del outs
        finally:
            tracer.uninstall()
        phases.append(outputs)
        layers = tracing.layer_metrics(setup_counts, snapshots)
        if any(s[k] != snapshots[0][k] for s in snapshots
               for k in tracing.COUNTS):
            print("perfbench: per-layer counts differ between passes",
                  file=sys.stderr)
        outdir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(outdir / "spans.jsonl")

    failed = wrong = attempted = 0
    for outputs in phases:
        a, f, w = outputs.check()
        attempted, failed, wrong = attempted + a, failed + f, wrong + w

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
        metrics["trace.overhead_s"] = {
            "value": median(traced) - median(plain), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "run_s": {"value": median(plain), "unit": "s"},
        }
        cuts = quantiles(latencies, n=10, method="inclusive")
        metrics["op_p50_ms"] = {"value": median(latencies) * 1e3, "unit": "ms"}
        metrics["op_p90_ms"] = {"value": cuts[8] * 1e3, "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}

    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes of {len(ops)} operations, "
          f"{failed} of {attempted} failed", file=sys.stderr)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
