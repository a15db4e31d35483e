"""Band-link diagrams on a disk-with-bands surface.

A diagram consists of crossings, edges and crossingless free loops.  All
crossings live in the disk chart of the surface; an edge records the word of
band traversals performed between its two endpoints.

Crossing convention
-------------------
A crossing is referred to by its id.  Its four half-edge slots are numbered
0..3 counterclockwise in the disk chart, with the over-strand passing
through slots 0 and 2.  Smoothing a crossing with marker +1 joins the slot
pairs (0,1) and (2,3); marker -1 joins (1,2) and (3,0).  These two pairings
are the only data the state sum ever uses.

Mirror convention
-----------------
Switching a crossing exchanges over- and under-strand.  In slot terms every
edge endpoint (c, s) moves to (c, s+1 mod 4); this keeps the over-strand on
slots 0 and 2 while exchanging the two smoothing pairings, so the +1
smoothing of the mirror is the -1 smoothing of the original.

Edges are directed only for bookkeeping: traversing an edge from endpoint
``a`` to ``b`` reads its word, the other way its inverse.  Nothing depends
on the direction.

The diagram does not verify that the input is actually drawable on the
surface beyond slot matching; the caller asserts embeddability.  Homology
of a non-embeddable diagram raises only when the differential fails to
square to zero, which catches some undrawable input but not all: ``loop :
a a`` on the annulus, ``loop : a`` beside ``loop : b`` on the torus with
one hole, and two ``loop : a`` on the Moebius band pass every check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .surface import (
    CurveClass,
    CurveKind,
    SurfaceModel,
    Word,
    classify,
    free_reduce,
    inverse_word,
)

Slot = tuple[str, int]
MarkerVector = tuple[int, ...]
Site = tuple[str, int]  # ("edge", index) or ("loop", index)


class DiagramError(ValueError):
    """Raised for structurally invalid diagrams."""


class SiteError(ValueError):
    """Raised when a move site does not exist or is malformed."""


@dataclass(frozen=True)
class Edge:
    a: Slot
    b: Slot
    word: Word = ()

    def other(self, end: str) -> Slot:
        return self.b if end == "a" else self.a

    def word_from(self, end: str) -> Word:
        """Word read when traversing away from the given endpoint."""
        return self.word if end == "a" else inverse_word(self.word)


class Circle(NamedTuple):
    """One closed loop of a smoothed diagram: a traced circle enters an arc at
    each integer slot ``ints[0::2]`` (named ``names[slot]``), free loop ``k``
    has no slots and ``loop == k``.  ``slots`` and ``key``, which no code in
    the package reads, are built on read for callers."""

    word: Word
    cls: CurveClass
    ints: tuple[int, ...] = ()
    names: tuple[Slot, ...] = ()
    loop: int | None = None

    @property
    def kind(self) -> CurveKind:
        return self.cls.kind

    @property
    def slots(self) -> frozenset[Slot]:
        return frozenset(self.names[k] for k in self.ints)

    @property
    def key(self) -> tuple:
        """("slots", sorted slots) of a traced circle, ("loop", k) of free loop k."""
        return (("slots", tuple(sorted(self.slots))) if self.loop is None
                else ("loop", self.loop))


@dataclass(frozen=True)
class Diagram:
    surface: SurfaceModel
    crossings: tuple[str, ...] = ()
    edges: tuple[Edge, ...] = ()
    loops: tuple[Word, ...] = ()

    def __post_init__(self):
        if len(set(self.crossings)) != len(self.crossings):
            raise DiagramError("duplicate crossing ids")
        wanted = {(c, s) for c in self.crossings for s in range(4)}
        seen: set[Slot] = set()
        for e in self.edges:
            for p in (e.a, e.b):
                if p not in wanted:
                    raise DiagramError(f"edge endpoint {p} does not name a crossing slot")
                if p in seen:
                    raise DiagramError(f"slot {p} used by more than one edge endpoint")
                seen.add(p)
            self.surface.check_word(e.word)
        if seen != wanted:
            missing = sorted(wanted - seen)
            raise DiagramError(f"unmatched crossing slots: {missing}")
        for w in self.loops:
            self.surface.check_word(w)

    # -- lookups ------------------------------------------------------------

    @cached_property
    def slot_tables(self) -> "_SlotTables":
        """The diagram compiled into slot tables, built on first use."""
        return _SlotTables(self)

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    def edge_at(self, slot: Slot) -> tuple[int, str]:
        """(edge index, 'a'|'b') of the edge endpoint at ``slot``."""
        try:
            return self.slot_tables.ends[slot]
        except KeyError:
            raise SiteError(f"no edge endpoint at slot {slot}") from None

    def marker_vectors(self) -> Iterable[MarkerVector]:
        """All marker vectors, +1 before -1, crossing 0 most significant."""
        return itertools.product((1, -1), repeat=self.n_crossings)


# ---------------------------------------------------------------------------
# Smoothing
# ---------------------------------------------------------------------------

class _SlotTables:
    """A diagram on integer slots: slot ``4 k + s`` is slot ``s`` of crossing
    ``k``, its +1 arc partner is ``slot ^ 1`` and its -1 partner ``slot ^ 3``;
    ``succ[slot]`` is the slot at the other end of its edge and
    ``words[slot]`` the word read leaving along it, ``names[slot]`` its
    (crossing id, s) and ``ends`` maps that name to its (edge index,
    'a'|'b').  ``classes`` memoizes the class of each reduced word, filled
    lazily with equal values whoever fills it."""

    def __init__(self, diagram: Diagram):
        self.surface = diagram.surface
        self.names = tuple((c, s) for c in diagram.crossings for s in range(4))
        index = {name: slot for slot, name in enumerate(self.names)}
        self.succ, self.words = [0] * len(index), [()] * len(index)
        self.ends: dict[Slot, tuple[int, str]] = {}
        for k, e in enumerate(diagram.edges):
            self.ends[e.a], self.ends[e.b] = (k, "a"), (k, "b")
            a, b = index[e.a], index[e.b]
            self.succ[a], self.words[a] = b, e.word
            self.succ[b], self.words[b] = a, inverse_word(e.word)
        self.classes: dict[Word, CurveClass] = {}
        self.loops = tuple(Circle(w, self.class_of(w), loop=k)
                           for k, w in enumerate(map(free_reduce, diagram.loops)))

    def class_of(self, word: Word) -> CurveClass:
        return self.classes.get(word) or self.classes.setdefault(
            word, classify(word, self.surface))


def smooth(diagram: Diagram, markers: MarkerVector) -> tuple[Circle, ...]:
    """Circles of the diagram smoothed according to the marker vector.

    Circle order is canonical: traced circles sorted by their smallest
    incident (crossing index, slot), free loops last in declaration order.
    """
    if len(markers) != diagram.n_crossings:
        raise DiagramError("marker vector length must equal the crossing count")
    tables = diagram.slot_tables
    succ, words, arc = tables.succ, tables.words, [1 if m > 0 else 3 for m in markers]
    seen = [False] * len(succ)
    circles: list[Circle] = []
    for start in range(len(succ)):
        if seen[start]:
            continue
        slots, cur = [], start
        while True:
            partner = cur ^ arc[cur >> 2]
            seen[cur] = seen[partner] = True
            slots += (cur, partner)
            cur = succ[partner]
            if cur == start:
                break
        w = free_reduce(itertools.chain.from_iterable(words[k] for k in slots[1::2]))
        circles.append(Circle(w, tables.class_of(w), tuple(slots), tables.names))
    return tuple(circles) + tables.loops


def smooth_crossing(diagram: Diagram, pos: int, marker: int) -> Diagram:
    """Replace one crossing by its marker smoothing, keeping the others.

    The remaining crossings inherit their order.  Edges joined by a
    smoothing arc are concatenated; an arc closing an edge onto itself
    produces a new free loop (appended after the existing ones).
    """
    cid = diagram.crossings[pos]
    arcs = ((0, 1), (2, 3)) if marker > 0 else ((1, 2), (3, 0))
    edges: list[Edge] = list(diagram.edges)
    loops: list[Word] = list(diagram.loops)

    def locate(slot: Slot) -> tuple[int, str]:
        for k, e in enumerate(edges):
            if e.a == slot:
                return k, "a"
            if e.b == slot:
                return k, "b"
        raise DiagramError(f"slot {slot} not found")

    for s1, s2 in arcs:
        p1, p2 = (cid, s1), (cid, s2)
        k1, end1 = locate(p1)
        k2, end2 = locate(p2)
        if k1 == k2:
            # The arc closes this edge into a crossingless component.
            e = edges.pop(k1)
            loops.append(free_reduce(e.word_from(end1)))
            continue
        e1, e2 = edges[k1], edges[k2]
        # Traverse: other(e1) -> s1 -arc- s2 -> other(e2).
        w1 = e1.word if end1 == "b" else inverse_word(e1.word)
        w2 = e2.word_from(end2)
        merged = Edge(e1.other(end1), e2.other(end2), free_reduce(w1 + w2))
        for k in sorted((k1, k2), reverse=True):
            edges.pop(k)
        edges.append(merged)

    return Diagram(diagram.surface,
                   diagram.crossings[:pos] + diagram.crossings[pos + 1:],
                   tuple(edges), tuple(loops))


# ---------------------------------------------------------------------------
# Mirror image and crossing reordering
# ---------------------------------------------------------------------------

def mirror(diagram: Diagram) -> Diagram:
    """Switch every crossing; the crossing order is kept."""
    rot = lambda p: (p[0], (p[1] + 1) % 4)
    edges = tuple(Edge(rot(e.a), rot(e.b), e.word) for e in diagram.edges)
    return replace(diagram, edges=edges)


def reorder_crossings(diagram: Diagram, permutation: Sequence[int]) -> Diagram:
    """Reorder so that new position k holds old crossing ``permutation[k]``."""
    if sorted(permutation) != list(range(diagram.n_crossings)):
        raise DiagramError("not a permutation of the crossing positions")
    crossings = tuple(diagram.crossings[k] for k in permutation)
    return replace(diagram, crossings=crossings)


# ---------------------------------------------------------------------------
# Reidemeister moves
# ---------------------------------------------------------------------------

def _fresh_ids(diagram: Diagram, n: int) -> list[str]:
    used = set(diagram.crossings)
    out = []
    k = 1
    while len(out) < n:
        cand = f"n{k}"
        if cand not in used:
            out.append(cand)
            used.add(cand)
        k += 1
    return out


def _take_site(diagram: Diagram, site: Site) -> tuple[str, int]:
    kind, idx = site
    if kind == "edge":
        if not 0 <= idx < len(diagram.edges):
            raise SiteError(f"no edge {idx}")
    elif kind == "loop":
        if not 0 <= idx < len(diagram.loops):
            raise SiteError(f"no loop {idx}")
    else:
        raise SiteError(f"bad site kind {kind!r}")
    return kind, idx


def apply_r1_neg(diagram: Diagram, site: Site, side: str = "left") -> Diagram:
    """Add a negative kink on an edge or free loop.

    The new crossing is placed first in the crossing order.  Its -1
    smoothing splits off a small trivial circle (so the kink multiplies the
    bracket by -A^-3); the +1 smoothing restores the plain strand.
    """
    kind, idx = _take_site(diagram, site)
    if side not in ("left", "right"):
        raise SiteError("side must be 'left' or 'right'")
    (x,) = _fresh_ids(diagram, 1)
    edges = list(diagram.edges)
    loops = list(diagram.loops)
    if kind == "edge":
        e = edges.pop(idx)
        if side == "left":
            new = [Edge(e.a, (x, 3), e.word), Edge((x, 0), e.b), Edge((x, 1), (x, 2))]
        else:
            new = [Edge(e.a, (x, 1), e.word), Edge((x, 2), e.b), Edge((x, 3), (x, 0))]
    else:
        u = loops.pop(idx)
        if side == "left":
            new = [Edge((x, 0), (x, 3), u), Edge((x, 1), (x, 2))]
        else:
            new = [Edge((x, 2), (x, 1), u), Edge((x, 3), (x, 0))]
    return Diagram(diagram.surface, (x,) + diagram.crossings,
                   tuple(edges) + tuple(new), tuple(loops))


def apply_r1_pos(diagram: Diagram, site: Site, side: str = "left") -> Diagram:
    """Positive-kink companion of :func:`apply_r1_neg` (bracket factor -A^3):
    the negative kink on the other side, with its crossing switched (each
    of its slots rotated by one)."""
    other = {"left": "right", "right": "left"}.get(side, side)
    kinked = apply_r1_neg(diagram, site, other)
    x = kinked.crossings[0]

    def turn(slot: Slot) -> Slot:
        return (x, (slot[1] + 1) % 4) if slot[0] == x else slot

    return replace(kinked, edges=tuple(Edge(turn(e.a), turn(e.b), e.word)
                                       for e in kinked.edges))


def apply_r2(diagram: Diagram, site_x: Site, site_y: Site) -> Diagram:
    """Push strand X over strand Y (second Reidemeister move).

    Creates crossings v, w placed first and second in the crossing order,
    with X the over-strand at both.  The (v:-1, w:+1) smoothing restores the
    original two strands; (v:+1, w:-1) yields the opposite connection plus a
    small trivial circle.

    Either site may be a free loop, in which case the loop is clasped around
    the other strand.
    """
    kx = _take_site(diagram, site_x)
    ky = _take_site(diagram, site_y)
    if kx == ky:
        raise SiteError("the two strands of an R2 move must be distinct")
    v, w = _fresh_ids(diagram, 2)
    edges = list(diagram.edges)
    loops = list(diagram.loops)

    def pop_strand(kind_idx, middle_in: Slot, middle_out: Slot, far_in: Slot,
                   far_out: Slot) -> list[Edge]:
        kind, idx = kind_idx
        if kind == "edge":
            e = edges[idx]
            return [Edge(e.a, far_in, e.word), Edge(middle_out, middle_in),
                    Edge(far_out, e.b)]
        u = loops[idx]
        return [Edge(far_out, far_in, u), Edge(middle_out, middle_in)]

    new_edges = []
    # X: enters w at slot 0, leaves w at 2 toward v slot 0, leaves v at 2.
    new_edges += pop_strand(kx, (v, 0), (w, 2), (w, 0), (v, 2))
    # Y: enters w at slot 3, leaves w at 1 toward v slot 1, leaves v at 3.
    new_edges += pop_strand(ky, (v, 1), (w, 1), (w, 3), (v, 3))

    for kind, idx in sorted((kx, ky), key=lambda t: -t[1]):
        if kind == "edge":
            edges.pop(idx)
        else:
            loops.pop(idx)
    return Diagram(diagram.surface, (v, w) + diagram.crossings,
                   tuple(edges) + tuple(new_edges), tuple(loops))


@dataclass(frozen=True)
class R3Site:
    """A third-Reidemeister triangle.

    ``p`` is the crossing of strands b and c; ``v`` the crossing of the
    sliding strand a with b; ``w`` the crossing of a with c.  ``e_a``,
    ``e_vp`` and ``e_wp`` are the indices of the three word-free edges
    bounding the triangle: a between w and v, b between v and p, c between
    w and p.  The strand a runs A -> w -> v -> A'.
    """

    p: str
    v: str
    w: str
    e_a: int
    e_vp: int
    e_wp: int


def _edge_slot_at(edge: Edge, crossing: str) -> int:
    hits = [pt[1] for pt in (edge.a, edge.b) if pt[0] == crossing]
    if len(hits) != 1:
        raise SiteError(f"edge {edge} does not have exactly one end at {crossing}")
    return hits[0]


def validate_r3_site(diagram: Diagram, site: R3Site) -> tuple[int, int, int]:
    """Check the triangle relations; return the slots (beta_v, gamma_w, xi).

    beta_v is the slot of e_a at v, gamma_w its slot at w, xi the slot of
    e_vp at p.  The required cyclic relations pin down the triangle shape:
    e_vp sits one slot counterclockwise of e_a at v, e_wp one slot clockwise
    of e_a at w, and e_vp one slot clockwise of e_wp at p.  A strand is
    over at a crossing when its slots there are even, so a is over b iff
    beta_v is even, a is over c iff gamma_w is even, and b is over c iff xi
    is even; the two cyclic triangles, where no strand is on top, are not
    R3 sites.
    """
    for c in (site.p, site.v, site.w):
        if c not in diagram.crossings:
            raise SiteError(f"no crossing {c!r}")
    try:
        e_a = diagram.edges[site.e_a]
        e_vp = diagram.edges[site.e_vp]
        e_wp = diagram.edges[site.e_wp]
    except IndexError:
        raise SiteError("triangle edge index out of range") from None
    for e in (e_a, e_vp, e_wp):
        if e.word:
            raise SiteError("triangle edges must carry empty words")
    ends = lambda e: {e.a[0], e.b[0]}
    if ends(e_a) != {site.v, site.w}:
        raise SiteError("e_a must join v and w")
    if ends(e_vp) != {site.v, site.p}:
        raise SiteError("e_vp must join v and p")
    if ends(e_wp) != {site.w, site.p}:
        raise SiteError("e_wp must join w and p")
    beta_v = _edge_slot_at(e_a, site.v)
    gamma_w = _edge_slot_at(e_a, site.w)
    xi = _edge_slot_at(e_vp, site.p)
    if _edge_slot_at(e_vp, site.v) != (beta_v + 1) % 4:
        raise SiteError("e_vp must sit one slot counterclockwise of e_a at v")
    if _edge_slot_at(e_wp, site.w) != (gamma_w + 3) % 4:
        raise SiteError("e_wp must sit one slot clockwise of e_a at w")
    if _edge_slot_at(e_wp, site.p) != (xi + 1) % 4:
        raise SiteError("e_vp must sit one slot clockwise of e_wp at p")
    if beta_v % 2 == xi % 2 != gamma_w % 2:
        raise SiteError("cyclic triangle: no strand passes over the other two")
    return beta_v, gamma_w, xi


def apply_r3(diagram: Diagram, site: R3Site) -> Diagram:
    """Slide strand a to the other side of the crossing p.

    The output reorders the crossings so that p, w, v come first (in that
    order); the remaining crossings keep their relative order.  Over/under
    data at all three crossings is preserved.
    """
    beta_v, gamma_w, xi = validate_r3_site(diagram, site)
    p, v, w = site.p, site.v, site.w
    m4 = lambda x: x % 4
    remap = {
        (w, m4(gamma_w + 2)): (v, m4(beta_v)),       # A-in
        (v, m4(beta_v + 2)): (w, m4(gamma_w)),       # A-out
        (v, m4(beta_v + 3)): (p, m4(xi)),            # B-in
        (p, m4(xi + 2)): (v, m4(beta_v + 1)),        # B-out
        (w, m4(gamma_w + 1)): (p, m4(xi + 1)),       # C-in
        (p, m4(xi + 3)): (w, m4(gamma_w + 3)),       # C-out
    }
    internal = {site.e_a, site.e_vp, site.e_wp}
    edges = []
    for k, e in enumerate(diagram.edges):
        if k in internal:
            continue
        edges.append(Edge(remap.get(e.a, e.a), remap.get(e.b, e.b), e.word))
    edges.append(Edge((v, m4(beta_v + 2)), (w, m4(gamma_w + 2))))  # new e_a
    edges.append(Edge((p, m4(xi + 2)), (v, m4(beta_v + 3))))       # new e_vp
    edges.append(Edge((p, m4(xi + 3)), (w, m4(gamma_w + 1))))      # new e_wp
    rest = tuple(c for c in diagram.crossings if c not in (p, v, w))
    return Diagram(diagram.surface, (p, w, v) + rest, tuple(edges), diagram.loops)
