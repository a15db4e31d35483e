"""The bandkh benchmark.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    python3 bench/run.py --record-reference

Workloads: random-small, les (see BENCHMARK.json).
Each run makes whole passes over the workload, each pass in a fresh process
and one operation at a time, for about ``--seconds``.  The latencies are each
operation's mean over the run's passes; each pass process also times its own
set-up (import, input generation, warm-up), and ``setup_s`` is the median of
those.  Every time is reported at a reference speed: between operations the
passes time a fixed loop, and times are scaled by ``REF_LOOP_S`` over the
loop's mean time in the run, which cancels most of the shared host's drift
(measured at up to 2x over minutes).  The unscaled mean pass time and the
scale factor go on the facts line.  A traced run cycles traced, plain and
traced passes.  Every operation's output is compared with ``bench/reference.json``
and with the oracles in ``workloads.py``.  Only random-small draws its
inputs from ``--seed``; les has fixed inputs.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
machine facts, the seed and the hash of the generated inputs.  ``--out``
also writes the whole result to FILE and refuses to overwrite it.

``--record-reference`` writes ``bench/reference.json`` from the current
program, over every input any seed can select; it refuses to overwrite.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
REFERENCE = os.path.join(BENCH, "reference.json")
WORK = os.path.join(ROOT, ".bench-work")
WORKLOADS = ("random-small", "les")

#: The reference loop's time at the reference speed, about its best on the
#: 2-vCPU Xeon (2.0 GHz) the benchmark was built on.  Times are reported at
#: that speed: see :func:`speed_scale`.
REF_LOOP_S = 0.005
#: Every worker is stopped by this many seconds after the run started.
RUN_DEADLINE_S = 170
#: Whole passes always run, even past ``--seconds``.
MIN_PASSES = 2
#: A traced run's passes: the size counters must agree between the two
#: traced passes, and the plain pass between them gives the tracing overhead.
TRACED_CYCLE = (True, False, True)

#: per-layer metric -> (unit, kind, source): the mean self time of a span
#: over the traced passes, a size counter of one traced pass, a ratio of two
#: counters, or the tracing overhead.
PER_LAYER = {
    "homology.snf_s": ("s", "self", "homology.snf"),
    "homology.snf_calls": ("count", "count", "snf_calls"),
    "homology.snf_cells": ("count", "count", "snf_cells"),
    "homology.snf_distinct_ratio": ("ratio", "ratio", ("snf_distinct", "snf_calls")),
    "state_complex.enumerate_s": ("s", "self", "state_complex.enumerate"),
    "state_complex.differential_s": ("s", "self", "state_complex.differential"),
    "state_complex.d2_s": ("s", "self", "state_complex.d2"),
    "state_complex.states": ("count", "count", "states"),
    "state_complex.max_block": ("count", "count", "max_block"),
    "state_complex.nnz": ("count", "count", "nnz"),
    "state_complex.density": ("ratio", "ratio", ("nnz", "cells")),
    "diagram.smooth_s": ("s", "self", "diagram.smooth"),
    "surface.classify_s": ("s", "self", "surface.classify"),
    "skein.bracket_s": ("s", "self", "skein.bracket"),
    "skein.phi_expand_s": ("s", "self", "skein.phi_expand"),
    "chainmaps.les_s": ("s", "self", "chainmaps.les"),
    "chainmaps.map_build_s": ("s", "self", "chainmaps.map_build"),
    "chainmaps.les_positions": ("count", "count", "les_positions"),
    "cli.parse_s": ("s", "self", "cli.parse"),
    "trace.overhead_s": ("s", "overhead", None),
}


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule: always an observed value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def spawn(args: list[str], started: float) -> dict:
    """Run the worker and return its last stdout line as JSON."""
    timeout = max(1.0, RUN_DEADLINE_S - (time.perf_counter() - started))
    proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_passes(args, started: float) -> list[dict]:
    """Passes until the next one would end past --seconds."""
    kinds = itertools.cycle(TRACED_CYCLE if args.trace else (False,))
    min_passes = len(TRACED_CYCLE) if args.trace else MIN_PASSES
    workload = ["--workload", args.workload, "--seed", str(args.seed)]
    passes: list[dict] = []
    while True:
        traced = next(kinds)
        result = spawn([*workload, "--trace", str(int(traced))], started)
        result["traced"] = traced
        passes.append(result)
        n = len(passes)
        if n >= min_passes and (time.perf_counter() - started) * (n + 1) / n > args.seconds:
            return passes


def speed_scale(passes: list[dict]) -> float:
    """Factor that brings times measured in these passes to the reference
    speed: ``REF_LOOP_S`` over the reference loop's mean time in them."""
    return REF_LOOP_S / statistics.mean(
        t for p in passes for t in p["loop_samples"])


def mean_times(passes: list[dict]) -> list[float]:
    """Each operation's mean time over the passes, at the reference speed."""
    scale = speed_scale(passes)
    return [statistics.mean(times) * scale
            for times in zip(*(p["latencies"] for p in passes))]


def end_to_end(plain: list[dict]) -> dict:
    """Latencies from each operation's mean over the plain passes; set-up
    time is the median over the pass processes."""
    ops = mean_times(plain)
    return {
        "wall_s": (sum(ops), "s"),
        "op_p50_s": (nearest_rank(ops, 0.5), "s"),
        "op_p90_s": (nearest_rank(ops, 0.9), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in plain), "MB"),
        "success_rate": (1 - sum(p["failed"] for p in plain)
                         / sum(p["attempted"] for p in plain), "ratio"),
        "setup_s": (statistics.median(p["setup_s"] for p in plain)
                    * speed_scale(plain), "s"),
    }


def per_layer(traced: list[dict], plain: list[dict]) -> dict:
    counts = traced[0]["trace"]["counts"]
    scale = speed_scale(traced)
    out = {}
    for name, (unit, kind, source) in PER_LAYER.items():
        if kind == "self":
            value = statistics.mean(p["trace"]["self_s"][source]
                                    for p in traced) * scale
        elif kind == "count":
            value = counts[source]
        elif kind == "ratio":
            num, den = source
            value = counts[num] / counts[den] if counts[den] else 0.0
        else:
            value = sum(mean_times(traced)) - sum(mean_times(plain))
        out[name] = (value, unit)
    return out


def record_reference() -> int:
    if os.path.exists(REFERENCE):
        print(f"error: {REFERENCE} exists; remove it to record again",
              file=sys.stderr)
        return 2
    merged: dict[str, str] = {}
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        for name in WORKLOADS:
            path = os.path.join(tmp, f"{name}.json")
            proc = subprocess.run([sys.executable, WORKER, "--workload", name,
                                   "--record", path], cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                print(f"error: recording {name} failed", file=sys.stderr)
                return 1
            with open(path, encoding="utf-8") as handle:
                merged.update(json.load(handle))
    with open(REFERENCE, "x", encoding="utf-8") as handle:
        json.dump(dict(sorted(merged.items())), handle, indent=0)
        handle.write("\n")
    print(f"recorded {len(merged)} reference outputs")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the full result here (never overwritten)")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "bandkh", "__init__.py")):
        print(f"error: no bandkh sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.out and os.path.exists(args.out):
        print(f"error: {args.out} exists; results never overwrite a baseline",
              file=sys.stderr)
        return 2

    passes = run_passes(args, time.perf_counter())
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    problems = [x for p in passes for x in p["problems"]]
    if len({p["input_hash"] for p in passes}) != 1:
        problems.append("passes of one run generated different inputs")
    if any(p["trace"]["counts"] != traced[0]["trace"]["counts"] for p in traced):
        problems.append("size counters differ between traced passes: "
                        + json.dumps([p["trace"]["counts"] for p in traced]))
    metrics = per_layer(traced, plain) if args.trace else end_to_end(plain)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not problems
    facts = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "seconds": args.seconds, "nproc": os.cpu_count(),
             "cpu": cpu_model(), "platform": platform.platform(),
             "python": platform.python_version(),
             "input_hash": passes[0]["input_hash"], "passes": len(passes),
             "traced_passes": len(traced),
             "operations": sum(len(p["latencies"]) for p in plain),
             "speed_scale": speed_scale(plain),
             "unscaled_wall_s": statistics.mean(p["wall_s"] for p in plain),
             "problems": problems}
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": value, "unit": unit}
                           for name, (value, unit) in metrics.items()}}
    if args.out:
        with open(args.out, "x", encoding="utf-8") as handle:
            json.dump({"facts": facts, "result": summary, "passes": passes},
                      handle, indent=1)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
