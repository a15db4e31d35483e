"""One pass of one workload in a fresh process.

Run by ``run.py``, which starts one worker per pass so that every pass
starts from the same state: in one long-lived process the later passes ran
on a warm heap and read faster than the first, so the figures depended on
how many passes fit into a run.  The worker sets up (import, input
generation, warm-up), runs the pass, checks every output and prints one
JSON object on its last stdout line.  The operations write to a captured
buffer, so nothing else reaches stdout.

    python3 bench/worker.py --workload NAME --seed N [--trace 0|1]
    python3 bench/worker.py --workload NAME --record PATH
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

T0 = time.perf_counter()

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench-work")


def import_program() -> None:
    """Import bandkh from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import bandkh

    if not os.path.abspath(bandkh.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bandkh imported from {bandkh.__file__}, not {SRC}")


def traced_pass(workload, reference: dict) -> tuple:
    """Run one pass with every layer span installed; return (runner, trace)."""
    from counters import Counters
    from spans import Tracer
    from workloads import Runner

    counters = Counters(workload.expected_sizes,
                        {item.text: item.name for item in workload.inputs})
    tracer = Tracer(counters.observers())
    runner = Runner(reference, tracer=tracer, after_op=counters.after_op)
    tracer.install()
    try:
        workload.run_pass(runner)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    problems = counters.problems + counters.missing()
    for name in workload.expected_spans:
        calls, self_s = totals[name]
        if calls == 0 or self_s <= 0:
            problems.append(f"span {name} did not fire on {workload.name}")
    return runner, {"self_s": {name: s for name, (_c, s) in totals.items()},
                    "calls": {name: c for name, (c, _s) in totals.items()},
                    "counts": counters.pass_counts, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="write reference digests of every input here")
    args = parser.parse_args()

    import_program()
    from workloads import WORKLOADS, Runner

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir,
                                            full=args.record is not None)
        workload.setup()
        workload.warm_up(Runner({}, record={}))
        setup_s = time.perf_counter() - T0
        if args.record is not None:
            recorder = Runner({}, record={})
            workload.run_pass(recorder)
            if recorder.failed:
                print("\n".join(recorder.problems), file=sys.stderr)
                return 1
            with open(args.record, "w", encoding="utf-8") as handle:
                json.dump(recorder.record, handle)
            return 0
        with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as handle:
            reference = json.load(handle)
        if args.trace:
            runner, trace = traced_pass(workload, reference)
        else:
            runner, trace = Runner(reference), None
            workload.run_pass(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": sum(runner.latencies),
        "latencies": runner.latencies,
        "loop_samples": runner.loop_samples,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems + (trace["problems"] if trace else []),
        "trace": trace,
        "input_hash": workload.input_hash(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
