"""The benchmark workloads, their operations and output checks.

An operation is one call to ``bandkh.cli.main`` with stdout captured, or one
call to a documented library function.  Each operation's output is digested
and compared with the reference recorded in ``reference.json``; the
workloads add the independent oracles that the theory provides:

* the Euler characteristic of the Z table equals ``phi_expand`` of the
  recursive bracket,
* the state-sum bracket equals the recursive bracket,
* a negative kink shifts the table by (i, j) = (-1, -3),
* every position of the skein long exact sequence is exact.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import bandkh
import bandkh.cli
import bandkh.skein
from bandkh import Diagram, emit_diagram

from inputs import (
    ANNULUS,
    DISK,
    MOEBIUS,
    PANTS,
    TORUS_HOLE,
    random_pool,
    random_selection,
    twist_pair,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def op_key(input_text: str, label: str) -> str:
    """Reference key of one operation: its input diagram and its arguments."""
    return digest(input_text + "\0" + label)


# ---------------------------------------------------------------------------
# Running and checking operations
# ---------------------------------------------------------------------------

@dataclass
class Result:
    label: str
    rc: int | None
    text: str
    value: object = None
    wrong: bool = False


#: A reference-loop sample is taken before an operation when this long has
#: passed since the last one.
SAMPLE_EVERY_S = 0.25


def reference_loop() -> int:
    """Fixed interpreter work, independent of bandkh, that gauges the host.

    On a shared host this process's speed drifts by up to 2x over minutes.
    Timed between operations, the loop slows with the operations, and its
    mean time over a run gives the factor that ``run.py`` scales times by.
    """
    s = 0
    for i in range(60_000):
        s += i * i % 7
    return s


@dataclass
class Runner:
    """Times operations one at a time and counts the wrong ones.

    With ``record`` set, digests are stored into it instead of compared.
    ``tracer`` (when given) is made active for the duration of each call.
    Between operations, every ``SAMPLE_EVERY_S``, it times
    :func:`reference_loop` into ``loop_samples``.
    """

    reference: dict[str, str]
    record: dict[str, str] | None = None
    tracer: object = None
    after_op: Callable[[Result], None] | None = None
    latencies: list[float] = field(default_factory=list)
    loop_samples: list[float] = field(default_factory=list)
    last_sample: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, label: str, input_text: str,
           call: Callable[[], tuple[int, str, object]]) -> Result:
        self.attempted += 1
        start = time.perf_counter()
        if start - self.last_sample >= SAMPLE_EVERY_S:
            reference_loop()
            self.last_sample = time.perf_counter()
            self.loop_samples.append(self.last_sample - start)
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            rc, text, value = call()
            error = None
        except (Exception, SystemExit) as exc:  # a crash is a wrong answer
            rc, text, value, error = None, "", None, exc
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
        self.latencies.append(elapsed)
        result = Result(label, rc, text, value)
        if self.after_op is not None:
            self.after_op(result)
        if error is not None:
            self.wrong(result, f"raised {type(error).__name__}: {error}")
            return result
        key = op_key(input_text, label)
        got = digest(f"{rc}\n{text}")
        if self.record is not None:
            self.record[key] = got
        elif key not in self.reference:
            self.wrong(result, "no reference output recorded")
        elif self.reference[key] != got:
            self.wrong(result, "output differs from the reference")
        return result

    def cli(self, args: list[str], path: str, input_text: str) -> Result:
        argv = [args[0], path, *args[1:]]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = bandkh.cli.main(argv)
            return rc, out.getvalue(), None

        return self.op(" ".join(args), input_text, call)

    def wrong(self, result: Result, why: str) -> None:
        if not result.wrong:
            result.wrong = True
            self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{result.label}: {why}")

    def expect(self, ok: bool, result: Result, why: str) -> None:
        if not ok:
            self.wrong(result, why)


# ---------------------------------------------------------------------------
# Oracles on the printed tables
# ---------------------------------------------------------------------------

Table = dict[tuple[int, int, str], tuple[int, tuple[int, ...]]]


def parse_table(text: str) -> Table:
    """``i j s rank torsion`` rows of ``bandkh homology`` output."""
    out: Table = {}
    for line in text.splitlines():
        i, j, s, rank, torsion = line.split("\t")
        tors = () if torsion == "-" else tuple(int(t) for t in torsion.split(","))
        out[(int(i), int(j), s)] = (int(rank), tors)
    return out


def euler_of_table(table: Table) -> dict[str, dict[int, int]]:
    """Alternating rank sum per s-grading, as {s text: {A exponent: coef}}."""
    acc: dict[str, dict[int, int]] = {}
    for (i, j, s), (rank, _t) in table.items():
        sign = -1 if ((j - i) // 2) % 2 else 1
        poly = acc.setdefault(s, {})
        poly[j] = poly.get(j, 0) + sign * rank
    return {s: {e: c for e, c in p.items() if c}
            for s, p in acc.items() if any(p.values())}


def phi_of_recursive(text: str) -> tuple[int, str, object]:
    """The library operation ``phi_expand(bracket_recursive(d))``."""
    expansion = bandkh.skein.bracket_recursive(bandkh.parse_diagram(text))
    q = bandkh.skein.phi_expand(expansion)
    polys = {s.text: dict(p.terms) for s, p in q.items()}
    text = "".join(f"{s.text}\t{q[s].text}\n"
                   for s in sorted(q, key=lambda g: g.sort_key))
    return 0, text, (expansion, polys)


def bracket_text(expansion) -> str:
    text = bandkh.skein.expansion_text(expansion)
    return text + ("\n" if text else "")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Input:
    name: str
    diagram: Diagram
    text: str
    path: str


class Workload:
    """Inputs are written in :meth:`setup`; :meth:`run_pass` runs them once."""

    name = ""
    #: Spans that must fire, with nonzero self time, in a traced pass.
    expected_spans: tuple[str, ...] = ()
    #: Expected (states, largest block) of unfrozen complexes by input name.
    expected_sizes: dict[str, tuple[int, int]] = {}

    def __init__(self, seed: int, workdir: str, full: bool = False):
        """``full`` asks for every input any seed can select, to record
        reference outputs; only random-small draws from the seed."""
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.full = full
        self.inputs: list[Input] = []

    def write_input(self, name: str, diagram: Diagram) -> Input:
        text = emit_diagram(diagram)
        path = os.path.join(self.workdir, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return Input(name, diagram, text, path)

    def add_input(self, name: str, diagram: Diagram) -> Input:
        item = self.write_input(name, diagram)
        self.inputs.append(item)
        return item

    def input_hash(self) -> str:
        h = hashlib.sha256()
        for item in self.inputs:
            h.update(f"{item.name}\0{item.text}\0".encode())
        return h.hexdigest()

    def setup(self) -> None:
        raise NotImplementedError

    def warm_up(self, runner: Runner) -> None:
        raise NotImplementedError

    def run_pass(self, runner: Runner) -> None:
        raise NotImplementedError


class RandomSmall(Workload):
    """Seeded random diagrams with at most 4 crossings on all five surfaces.

    The acceptance-suite traffic: thousands of tiny blocks, so a fast path
    that costs per-call overhead shows here as a regression.
    """

    name = "random-small"
    expected_spans = ("cli.parse", "homology.snf", "state_complex.enumerate",
                      "state_complex.differential", "state_complex.d2",
                      "diagram.smooth", "surface.classify", "skein.bracket",
                      "skein.phi_expand")

    def setup(self) -> None:
        pool = random_pool()
        if self.full:
            chosen = [d for diagrams in pool for d in diagrams]
        else:
            chosen = random_selection(pool, self.rng)
        for n, diagram in enumerate(chosen):
            self.add_input(f"r{n:03d}", diagram)

    def warm_up(self, runner: Runner) -> None:
        small = self.write_input("warm", twist_pair(DISK, "", 3))
        self._one(runner, small)

    def run_pass(self, runner: Runner) -> None:
        for item in self.inputs:
            self._one(runner, item)

    def _one(self, runner: Runner, item: Input) -> None:
        site = "e0:left" if item.diagram.edges else "l0:left"
        z = runner.cli(["homology"], item.path, item.text)
        moved = runner.cli(["moves", "--move=r1neg", f"--site={site}"],
                           item.path, item.text)
        kinked = None
        if not moved.wrong:
            path = item.path + ".kink"
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(moved.text)
            kinked = runner.cli(["homology"], path, moved.text)
        bracket = runner.cli(["bracket"], item.path, item.text)
        phi = runner.op("phi_expand(bracket_recursive)", item.text,
                        lambda: phi_of_recursive(item.text))
        if z.wrong:
            return
        table = parse_table(z.text)
        if kinked is not None and not kinked.wrong:
            shifted = {(i - 1, j - 3, s): g for (i, j, s), g in table.items()}
            runner.expect(parse_table(kinked.text) == shifted, kinked,
                          "negative kink did not shift the table by (-1, -3)")
        if not phi.wrong:
            expansion, polys = phi.value
            runner.expect(euler_of_table(table) == polys, phi,
                          "Euler characteristic differs from phi(bracket)")
            runner.expect(bracket.text == bracket_text(expansion), bracket,
                          "state-sum bracket differs from the recursive bracket")


class LES(Workload):
    """``verify --suite=les`` on 4-crossing twists on all five surfaces:
    every crossing's skein long exact sequence, over Q and Z/2.

    Fraction elimination in the exactness check dominates.  The only
    workload that runs the chain maps.  Each operation takes about 0.3 s,
    so a run averages each one over about twenty passes; at 5 crossings an
    operation took 2 to 4 s, and a run held too few passes to be steady.
    """

    name = "les"
    expected_spans = ("cli.parse", "chainmaps.les", "chainmaps.map_build",
                      "state_complex.enumerate", "state_complex.differential",
                      "diagram.smooth", "surface.classify")
    #: (input name, surface, curve word) of each twist.
    CURVES = (("disk", DISK, ""), ("annulus-a", ANNULUS, "a"),
              ("pants-a", PANTS, "a"), ("pants-b", PANTS, "b"),
              ("pants-ab", PANTS, "a b"), ("torus-a", TORUS_HOLE, "a"),
              ("moebius-a", MOEBIUS, "a"))
    # A (2, k) twist has 3^k + 3 states, and its largest block is the
    # largest trinomial coefficient k! / (a! b! c!).
    expected_sizes = {name: (84, 12) for name, _s, _w in CURVES}

    def setup(self) -> None:
        for name, surface, word in self.CURVES:
            self.add_input(name, twist_pair(surface, word, 4))

    def warm_up(self, runner: Runner) -> None:
        self._one(runner, self.write_input("warm", twist_pair(DISK, "", 2)))

    def run_pass(self, runner: Runner) -> None:
        for item in self.inputs:
            self._one(runner, item)

    @staticmethod
    def _one(runner: Runner, item: Input) -> None:
        verify = runner.cli(["verify", "--suite=les"], item.path, item.text)
        want = [f"PASS les (crossing={c})" for c in item.diagram.crossings]
        runner.expect(verify.rc == 0 and verify.text.splitlines() == want,
                      verify, "long exact sequence not exact at every crossing")


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (RandomSmall, LES)}
