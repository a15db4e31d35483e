"""Smoke tests of the benchmark against the current program.

The traced benchmark wraps functions of every layer by name (``bench/spans.py``)
and counts block sizes through ``GradedComplex`` (``bench/counters.py``).
Renaming or re-binding one of those names must fail here, not only in a
traced benchmark run.  One short traced run of ``bench/run.py`` checks that
the harness itself still runs and that its outputs still match the reference.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import counters  # noqa: E402
import spans  # noqa: E402

from bandkh import chainmaps  # noqa: E402
from bandkh.homology import homology  # noqa: E402
from bandkh.state_complex import GradedComplex  # noqa: E402

from helpers import DISK, twist_pair  # noqa: E402


def test_tracer_wraps_every_span_and_counters_read_blocks():
    d = twist_pair(DISK, "", 2)
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises TracingError if a target is left unwrapped
        tracer.active = True
        homology(GradedComplex(d))
        # Through the module: the tracer patches bandkh's own bindings only.
        assert chainmaps.long_exact_sequence_check(chainmaps.skein_triple(d, 0)).ok
        tracer.active = False
    finally:
        tracer.uninstall()
    calls = {name: c for name, (c, _s) in tracer.totals().items()}
    for name in ("state_complex.enumerate", "state_complex.differential",
                 "state_complex.d2", "homology.snf", "chainmaps.les",
                 "chainmaps.map_build", "diagram.smooth", "surface.classify"):
        assert calls[name] > 0, name
    # A (2, 2) twist has 3^2 + 3 states and a largest block of 2.
    states, largest, nnz, cells = counters.dense_block_sizes(GradedComplex(d))
    assert (states, largest) == (12, 2)
    assert 0 < nnz <= cells


def test_map_build_span_counts_every_map_build():
    """Every chain map, inside one diagram or between two, is built by
    ``ChainMap.build``, so each build is one ``chainmaps.map_build`` call."""
    d = twist_pair(DISK, "", 2)
    cx = GradedComplex(d)
    t = chainmaps.skein_triple(d, 0, cx)
    counts = []
    tracer = spans.Tracer()
    try:
        tracer.install()
        for build in (lambda: chainmaps.viro_alpha(t), lambda: chainmaps.eta(cx),
                      lambda: chainmaps.rho_I(d, ("edge", 0))):
            tracer.active = True
            build()
            tracer.active = False
            counts.append(tracer.totals()["chainmaps.map_build"][0])
    finally:
        tracer.uninstall()
    assert counts == [1, 2, 3]


def test_d_squared_blocks_alone_records_the_d2_span():
    """``verify --suite=d2`` calls only GradedComplex.d_squared_blocks."""
    cx = GradedComplex(twist_pair(DISK, "", 2))
    tracer = spans.Tracer()
    try:
        tracer.install()
        tracer.active = True
        assert all(cx.d_squared_blocks().values())
        tracer.active = False
    finally:
        tracer.uninstall()
    calls, self_s = tracer.totals()["state_complex.d2"]
    assert calls > 0 and self_s > 0


def test_bench_runs_one_traced_les_pass():
    """Outputs match ``bench/reference.json`` and every expected span fires."""
    run = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "les",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True


def test_bench_runs_one_traced_random_small_pass():
    """Outputs match ``bench/reference.json`` and every expected span fires,
    ``diagram.smooth``, ``surface.classify`` and ``skein.bracket`` included."""
    run = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "random-small",
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["correct"] is True
