"""Enhanced states and the triply-graded chain complex of a diagram.

An enhanced state is a marker vector (one sign per crossing) together with a
sign label on every circle of the resulting smoothing.  Its gradings are

* ``i``  -- positive minus negative markers,
* ``tau`` -- positive minus negative *trivial* circles,
* ``j = i + 2 tau``,
* ``s``  -- the signed sum of the unbounding circle classes.

Labels of Moebius-bounding circles are stored but contribute to neither
``tau`` nor ``s``.

The differential lowers ``i`` by 2 and preserves ``j`` and ``s``.  Its
matrix entry from S to S' is ``(-1)^t`` when the two states differ exactly
by one marker turning from +1 to -1, all untouched circles keep their
labels, ``j`` is preserved, and the signed label sum of every nontrivial
class is conserved (Moebius-bounding classes included, even though the
gradings ignore them); ``t`` counts the negative markers at crossings
ordered after the flipped one.  The local label rules (the merge/split
table) are *derived* from these conditions, never hard-coded.

Frozen markers
--------------
A :class:`GradedComplex` may freeze some crossings at a fixed marker.  The
frozen complex is canonically the complex of the diagram with those
crossings smoothed away, without rebuilding the diagram: the gradings count
free crossings only, and the differential never flips a frozen crossing.
This representation is what the skein-triple and Reidemeister chain maps
are built on, since all their states live over one common diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from .diagram import Circle, Diagram, MarkerVector, smooth
from .surface import CurveKind, GradingS

Matrix = list[list[int]]
GradingKey = tuple[int, int, GradingS]


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class EnhancedState:
    """One basis state: full markers plus one label per circle.

    The cached gradings refer to the owning complex: ``i`` and ``m_neg``
    count free crossings only.
    """

    markers: MarkerVector
    labels: tuple[int, ...]
    i: int = field(compare=False)
    tau: int = field(compare=False)
    j: int = field(compare=False)
    s: GradingS = field(compare=False)
    m_neg: int = field(compare=False)

    @property
    def grading(self) -> GradingKey:
        return (self.i, self.j, self.s)


def _state_text(circles: Sequence[Circle], markers: MarkerVector,
                labels: Sequence[int]) -> str:
    marks = "".join("+" if m > 0 else "-" for m in markers)
    parts = []
    for circ, lab in zip(circles, labels):
        sign = "+" if lab > 0 else "-"
        if circ.kind is CurveKind.TRIVIAL:
            parts.append(f"(triv:{sign})")
        else:
            parts.append(f"({circ.cls.text}:{sign}0)")
    return marks + " " + "".join(parts) if parts else marks


class StateKey(NamedTuple):
    """A state named by its markers and labels, the key of ``GradedComplex.index``;
    only enumeration builds the graded :class:`EnhancedState` objects."""

    markers: MarkerVector
    labels: tuple[int, ...]


@dataclass
class _Smoothing:
    """Cached data of one marker vector's smoothing."""

    circles: tuple[Circle, ...]
    trivial: tuple[int, ...]
    unbounding: tuple[tuple[int, object], ...]  # (circle index, CurveClass)


def _analyze(diagram: Diagram, markers: MarkerVector) -> _Smoothing:
    circles = smooth(diagram, markers)
    trivial = tuple(k for k, c in enumerate(circles) if c.kind is CurveKind.TRIVIAL)
    unb = tuple((k, c.cls) for k, c in enumerate(circles)
                if c.kind is CurveKind.UNBOUNDING)
    return _Smoothing(circles, trivial, unb)


@dataclass(frozen=True)
class _FlipRule:
    """Turning the +1 marker at one crossing into -1, for every state over
    one marker vector: ``table`` maps the labels of the source circles at the
    crossing (``touched``) to each allowed labelling of the target circles at
    it; target circle ``k`` takes entry ``gather[k]`` of the source labels
    followed by that labelling.  ``signs[counted]`` is ``(-1)^t``.
    """

    target: MarkerVector
    touched: tuple[int, ...]
    gather: tuple[int, ...]
    table: dict[tuple[int, ...], tuple[tuple[int, ...], ...]]
    signs: dict[int, int]

    def targets(self, labels: tuple[int, ...]) -> list[StateKey]:
        return [StateKey(self.target, tuple(map((labels + a).__getitem__, self.gather)))
                for a in self.table[tuple(map(labels.__getitem__, self.touched))]]


class GradedComplex:
    """The chain complex of a diagram, optionally with frozen markers.

    States are enumerated deterministically: free markers in binary order
    (+1 before -1, earliest crossing most significant), then labels in the
    same order per circle, circles in their canonical smoothing order.
    """

    def __init__(self, diagram: Diagram, frozen: Mapping[int, int] | None = None):
        self.diagram = diagram
        self.frozen = dict(frozen or {})
        for pos, mark in self.frozen.items():
            if not 0 <= pos < diagram.n_crossings or mark not in (1, -1):
                raise ComplexError(f"bad frozen marker {pos}:{mark}")
        self.free = tuple(k for k in range(diagram.n_crossings)
                          if k not in self.frozen)
        self._smooth_cache: dict[MarkerVector, _Smoothing] = {}
        self.buckets: dict[GradingKey, list[EnhancedState]] = {}
        self.index: dict[StateKey, tuple[GradingKey, int]] = {}
        self._blocks: dict[GradingKey, Matrix] = {}
        self._flips: dict[tuple[MarkerVector, int], _FlipRule] = {}
        self._enumerate()

    # -- construction ---------------------------------------------------

    def smoothing(self, markers: MarkerVector) -> _Smoothing:
        try:
            return self._smooth_cache[markers]
        except KeyError:
            data = _analyze(self.diagram, markers)
            self._smooth_cache[markers] = data
            return data

    def _full_markers(self, free_markers: Sequence[int]) -> MarkerVector:
        out = [0] * self.diagram.n_crossings
        for pos, mark in self.frozen.items():
            out[pos] = mark
        for pos, mark in zip(self.free, free_markers):
            out[pos] = mark
        return tuple(out)

    def make_state(self, markers: MarkerVector, labels: Sequence[int]) -> EnhancedState:
        """The enumerated state with these markers and labels."""
        key, n = self.locate(markers, labels)
        return self.buckets[key][n]

    def _enumerate(self) -> None:
        """Compute ``i``, ``m_neg`` and each ``s`` once per smoothing; only
        ``tau`` is summed per state."""
        for free_markers in itertools.product((1, -1), repeat=len(self.free)):
            markers = self._full_markers(free_markers)
            data = self.smoothing(markers)
            i = sum(free_markers)
            m_neg = free_markers.count(-1)
            classes = [cls for _, cls in data.unbounding]
            s_of = {u: GradingS.from_pairs(zip(classes, u))
                    for u in itertools.product((1, -1), repeat=len(classes))}
            for labels in itertools.product((1, -1), repeat=len(data.circles)):
                tau = sum(labels[k] for k in data.trivial)
                s = s_of[tuple(labels[k] for k, _ in data.unbounding)]
                state = EnhancedState(markers, labels, i, tau, i + 2 * tau, s, m_neg)
                bucket = self.buckets.setdefault(state.grading, [])
                self.index[StateKey(markers, labels)] = (state.grading, len(bucket))
                bucket.append(state)

    # -- queries ----------------------------------------------------------

    def dim(self, key: GradingKey) -> int:
        return len(self.buckets.get(key, ()))

    def gradings(self) -> list[GradingKey]:
        return sorted(self.buckets, key=lambda k: (k[1], k[2].sort_key, k[0]))

    def locate(self, markers: MarkerVector, labels: Sequence[int]) -> tuple[GradingKey, int]:
        return self.index[(markers, tuple(labels))]

    def state_text(self, state: EnhancedState) -> str:
        return _state_text(self.smoothing(state.markers).circles,
                           state.markers, state.labels)

    def t_count(self, state: EnhancedState, pos: int) -> int:
        """Negative free markers at crossings ordered after ``pos``."""
        return sum(1 for q in self.free if q > pos and state.markers[q] < 0)

    # -- the differential ---------------------------------------------------

    def resmoothings(self, state: EnhancedState | StateKey,
                     pos: int) -> list[StateKey]:
        """States reached by turning the +1 marker at ``pos`` into -1.

        Untouched circles keep their labels; the circles through the
        crossing are relabeled in every way that raises the trivial-circle
        sum by one and preserves the signed class sum of the nontrivial
        circles: exactly the incidence condition of the differential.

        The conservation law covers Moebius-bounding classes as well, even
        though they enter neither the j- nor the s-grading: dropping them
        from it makes the partial derivatives at two crossings stop
        commuting on the Moebius band (a folded boundary-parallel loop is a
        counterexample), while with them the local rules reproduce the
        merge/split table including its one-sided rows.
        """
        if state.markers[pos] <= 0:
            return []
        return self._flip(state.markers, pos).targets(state.labels)

    def _flip(self, markers: MarkerVector, pos: int) -> _FlipRule:
        rule = self._flips.get((markers, pos))
        if rule is None:
            rule = self._flips[(markers, pos)] = self._derive_flip(markers, pos)
        return rule

    def _derive_flip(self, markers: MarkerVector, pos: int) -> _FlipRule:
        """The rule of :meth:`resmoothings` for every state over ``markers``."""
        src = self.smoothing(markers)
        flipped = markers[:pos] + (-1,) + markers[pos + 1:]
        tgt = self.smoothing(flipped)
        cid = self.diagram.crossings[pos]
        vslots = {(cid, s) for s in range(4)}
        touched = [k for k, c in enumerate(src.circles) if c.slots & vslots]
        kept = {c.key: k for k, c in enumerate(src.circles) if not c.slots & vslots}
        gather, new = [], []
        for c in tgt.circles:
            if c.slots & vslots:
                gather.append(len(src.circles) + len(new))
                new.append(c)
            else:
                gather.append(kept[c.key])

        def sums(circles: Sequence[Circle], labels: Sequence[int]) -> tuple:
            tau, psi = 0, {}
            for circ, lab in zip(circles, labels):
                if circ.kind is CurveKind.TRIVIAL:
                    tau += lab
                else:
                    psi[circ.cls] = psi.get(circ.cls, 0) + lab
            return tau, {c: x for c, x in psi.items() if x}

        outcomes = [(a, sums(new, a))
                    for a in itertools.product((1, -1), repeat=len(new))]
        table = {}
        for pattern in itertools.product((1, -1), repeat=len(touched)):
            tau, psi = sums([src.circles[k] for k in touched], pattern)
            table[pattern] = tuple(a for a, got in outcomes if got == (tau + 1, psi))
        signs = {c: (-1) ** sum(1 for q in self.free if q > pos and markers[q] == c)
                 for c in (1, -1)}
        return _FlipRule(flipped, tuple(touched), tuple(gather), table, signs)

    def _assemble(self, key: GradingKey, counted: int) -> Matrix:
        """Matrix out of ``key`` with entries ``(-1)^t``, where ``t`` counts
        the free markers equal to ``counted`` after the flipped crossing."""
        i, j, s = key
        src = self.buckets.get(key, [])
        tgt_key = (i - 2, j, s)
        mat = [[0] * len(src) for _ in range(self.dim(tgt_key))]
        for col, state in enumerate(src):
            markers = state.markers
            for pos in self.free:
                if markers[pos] <= 0:
                    continue
                rule = self._flip(markers, pos)
                sign = rule.signs[counted]
                for target in rule.targets(state.labels):
                    tkey, row = self.index[target]
                    assert tkey == tgt_key
                    mat[row][col] += sign
        return mat

    def differential(self, key: GradingKey) -> Matrix:
        """Matrix of d from the bucket at ``key`` to the bucket at i-2."""
        if key not in self._blocks:
            self._blocks[key] = self._assemble(key, -1)
        return self._blocks[key]

    def d_squared_blocks(self) -> dict[tuple[int, GradingS], bool]:
        """Whether d composed with itself vanishes on each (j, s) block.

        The keys come in (j, s) order.
        """
        ok: dict[tuple[int, GradingS], bool] = {}
        for (i, j, s) in list(self.buckets):
            upper = self.differential((i + 2, j, s))
            lower = self.differential((i, j, s))
            zero = (not upper or not lower
                    or not any(any(row) for row in _mat_mul(lower, upper)))
            ok[(j, s)] = ok.get((j, s), True) and zero
        return {k: ok[k] for k in sorted(ok, key=lambda k: (k[0], k[1].sort_key))}

    def check_d_squared(self) -> None:
        """Raise :class:`ComplexError` unless d composed with itself is zero."""
        for (j, s), zero in self.d_squared_blocks().items():
            if not zero:
                raise ComplexError(
                    f"differential does not square to zero in block "
                    f"(j={j},s={s.text}); the diagram is not drawable on the "
                    "declared surface")

    def dual_matrices(self) -> dict[GradingKey, Matrix]:
        """Cochain blocks: the map out of (i, j, s) raising i by 2.

        The block at (i, j, s) is the transpose of the differential block at
        (i+2, j, s); identifying each state with its dual basis vector makes
        this the coboundary.
        """
        out = {}
        for (i, j, s) in self.buckets:
            out[(i, j, s)] = _transpose(self.differential((i + 2, j, s)),
                                        self.dim((i, j, s)), self.dim((i + 2, j, s)))
        return out

    def d_plus(self, key: GradingKey) -> Matrix:
        """Differential signed by positive markers after the crossing instead."""
        return self._assemble(key, 1)


def incidence_number(complex_: GradedComplex, s_from: EnhancedState | StateKey,
                     s_to: EnhancedState | StateKey, pos: int) -> int:
    """1 when the flip at ``pos`` connects the two states, else 0."""
    return int(StateKey(s_to.markers, s_to.labels)
               in complex_.resmoothings(s_from, pos))


# ---------------------------------------------------------------------------
# Small exact integer matrix helpers shared across modules
# ---------------------------------------------------------------------------

def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in range(len(a))]
    n, k, m = len(a), len(b), len(b[0])
    out = [[0] * m for _ in range(n)]
    for r in range(n):
        ar = a[r]
        orow = out[r]
        for t in range(k):
            x = ar[t]
            if x:
                brow = b[t]
                for c in range(m):
                    if brow[c]:
                        orow[c] += x * brow[c]
    return out


def _transpose(mat: Matrix, rows: int, cols: int) -> Matrix:
    out = [[0] * rows for _ in range(cols)]
    for r in range(rows):
        for c in range(cols):
            if mat[r][c]:
                out[c][r] = mat[r][c]
    return out
