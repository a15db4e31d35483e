import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from bandkh.diagram import (
    Circle,
    Diagram,
    DiagramError,
    Edge,
    SiteError,
    apply_r1_neg,
    apply_r1_pos,
    apply_r2,
    apply_r3,
    mirror,
    reorder_crossings,
    smooth,
    smooth_crossing,
)
from bandkh import diagram as diagram_module
from bandkh.textformat import emit_diagram, parse_diagram
from bandkh.chainmaps import mirror_map, r2_pair, r3_data, reorder_iso, rho_I, rho_II
from bandkh.homology import homology
from bandkh.skein import kauffman_bracket
from bandkh.state_complex import GradedComplex
from bandkh.surface import CurveKind, SurfaceModel, inverse_word, parse_word

import dense_oracle
from helpers import (
    ALL_SURFACES,
    DISK,
    MOEBIUS,
    PANTS,
    crosscap_shadow,
    disjoint_union,
    loops_diagram,
    random_diagram,
    surface_words,
    trefoil,
    triangle_closure,
    twist_pair,
)


def kink_split_diagram():
    """One crossing, edges at (0,1) and (2,3): the +1 smoothing splits."""
    return Diagram(DISK, ("x",), (Edge(("x", 0), ("x", 1)), Edge(("x", 2), ("x", 3))))


def test_smooth_free_loop_only():
    d = loops_diagram(SurfaceModel.planar_holes(1), "a")
    (circle,) = smooth(d, ())
    assert circle.word == parse_word("a")
    assert circle.key == ("loop", 0)


def test_smooth_kink_counts():
    d = kink_split_diagram()
    plus = smooth(d, (1,))
    minus = smooth(d, (-1,))
    assert len(plus) == 2 and all(c.kind is CurveKind.TRIVIAL for c in plus)
    assert len(minus) == 1 and minus[0].kind is CurveKind.TRIVIAL


def test_smooth_partitions_all_slots():
    rng = random.Random(0)
    for surface in ALL_SURFACES:
        for _ in range(5):
            d = random_diagram(surface, rng, max_crossings=4)
            for markers in d.marker_vectors():
                circles = smooth(d, markers)
                slots = [s for c in circles for s in c.slots]
                assert len(slots) == 4 * d.n_crossings
                assert len(set(slots)) == len(slots)


def test_circle_count_changes_by_one_or_zero_never_trivially():
    """Flips merge or split; a count-preserving flip keeps both sides nontrivial."""
    rng = random.Random(1)
    for surface in ALL_SURFACES:
        for _ in range(6):
            d = random_diagram(surface, rng, max_crossings=4)
            for markers in d.marker_vectors():
                for pos in range(d.n_crossings):
                    flipped = markers[:pos] + (-markers[pos],) + markers[pos + 1:]
                    delta = len(smooth(d, flipped)) - len(smooth(d, markers))
                    assert delta in (-1, 0, 1)
                    if delta == 0:
                        cid = d.crossings[pos]
                        vslots = {(cid, s) for s in range(4)}
                        for m in (markers, flipped):
                            for c in smooth(d, m):
                                if c.slots & vslots:
                                    assert c.kind is not CurveKind.TRIVIAL


def test_mirror_exchanges_smoothings():
    d = kink_split_diagram()
    m = mirror(d)
    assert len(smooth(m, (1,))) == len(smooth(d, (-1,)))
    assert len(smooth(m, (-1,))) == len(smooth(d, (1,)))


def test_mirror_fixes_crossingless_diagrams():
    d = loops_diagram(MOEBIUS, "a", "a a")
    assert mirror(d) == d


def test_mirror_involution():
    rng = random.Random(2)
    for surface in ALL_SURFACES:
        d = random_diagram(surface, rng, max_crossings=3)
        mm = mirror(mirror(d))
        for markers in d.marker_vectors():
            a = sorted(c.cls.canonical for c in smooth(d, markers))
            b = sorted(c.cls.canonical for c in smooth(mm, markers))
            assert a == b


def test_reorder_preserves_smoothings():
    d = trefoil()
    perm = [2, 0, 1]
    d2 = reorder_crossings(d, perm)
    for markers in d.marker_vectors():
        permuted = tuple(markers[perm[k]] for k in range(3))
        assert len(smooth(d, markers)) == len(smooth(d2, permuted))
    with pytest.raises(DiagramError):
        reorder_crossings(d, [0, 0, 1])


def test_r1_neg_smoothing_convention():
    d = loops_diagram(SurfaceModel.planar_holes(1), "a")
    for side in ("left", "right"):
        k = apply_r1_neg(d, ("loop", 0), side)
        assert k.n_crossings == 1
        assert len(smooth(k, (-1,))) == 2  # the negative marker splits off a circle
        assert len(smooth(k, (1,))) == 1


def test_r1_pos_smoothing_convention():
    d = loops_diagram(DISK, "")
    for side in ("left", "right"):
        k = apply_r1_pos(d, ("loop", 0), side)
        assert len(smooth(k, (1,))) == 2
        assert len(smooth(k, (-1,))) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(ALL_SURFACES), st.integers(0, 7),
       st.sampled_from(("left", "right")))
@example(0, DISK, 0, "up")
@example(0, DISK, 99, "left")
def test_r1_pos_matches_edge_by_edge_oracle(seed, surface, k, side):
    """A switched negative kink on the other side is the positive kink the
    old edge-by-edge construction built, down to the edge order; bad sites
    and sides raise the same errors."""
    d = random_diagram(surface, random.Random(seed), max_crossings=3)
    sites = [("edge", n) for n in range(len(d.edges))] + \
        [("loop", n) for n in range(len(d.loops))]
    site = sites[k % len(sites)] if k < 99 else ("edge", k)
    try:
        want = dense_oracle.apply_r1_pos(d, site, side)
    except SiteError as exc:
        with pytest.raises(SiteError, match=re.escape(str(exc))):
            apply_r1_pos(d, site, side)
    else:
        assert apply_r1_pos(d, site, side) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(ALL_SURFACES + (None,)),
       st.lists(st.integers(0, 7), max_size=2))
@example(0, None, [])
@example(5, MOEBIUS, [2, 5])
def test_smooth_matches_slot_pair_oracle(seed, surface, loops):
    """The slot-table tracer returns the circles of the (crossing, slot)
    tracer it replaced, in order and field by field, on every marker
    vector: random diagrams on all five surfaces with extra free loops (an
    odd ``k`` adds a freely trivial, unreduced word), and the non-embeddable
    crosscap shadow (surface None)."""
    if surface is None:
        d = crosscap_shadow()
    else:
        d = random_diagram(surface, random.Random(seed), max_crossings=4)
        options = [parse_word(w) for w in surface_words(surface)]
        words = [options[k % len(options)] for k in loops]
        words = [w + inverse_word(w) if k % 2 else w for k, w in zip(loops, words)]
        d = Diagram(surface, d.crossings, d.edges, d.loops + tuple(words))
    for markers in d.marker_vectors():
        got, want = smooth(d, markers), dense_oracle.smooth(d, markers)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert (a.word, a.cls, a.slots, a.key) == (b.word, b.cls, b.slots, b.key)
            assert (a.cls.kind, a.cls.sided) == (b.cls.kind, b.cls.sided)
    for bad in ((), (1,) * (d.n_crossings + 1)):
        if len(bad) != d.n_crossings:
            with pytest.raises(DiagramError, match="marker vector length"):
                smooth(d, bad)


def test_smoothing_classifies_each_word_once_per_surface(monkeypatch):
    """The word -> class memo belongs to the surface object: a parsed split
    diagram, its ``smooth_crossing`` children, a kink of it and its split
    complex's components classify each distinct word once, however many
    marker vectors and calls meet it, and a fresh parse classifies again."""
    calls = []
    real = diagram_module.classify
    monkeypatch.setattr(diagram_module, "classify",
                        lambda word, surface: calls.append(word) or real(word, surface))
    text = emit_diagram(disjoint_union(twist_pair(PANTS, "a", 3, extra_loops=("b", "")),
                                       twist_pair(PANTS, "", 2)))
    runs = []
    for _ in range(2):
        calls.clear()
        d = parse_diagram(text)
        family = [d, smooth_crossing(d, 0, 1), smooth_crossing(d, 0, -1),
                  apply_r1_neg(d, ("loop", 0))]
        for _ in range(2):
            words = {c.word for x in family for m in x.marker_vectors() for c in smooth(x, m)}
        homology(GradedComplex(d))
        assert sorted(calls) == sorted(set(calls)) and words <= set(calls)
        runs.append(list(calls))
    assert runs[0] == runs[1] and len(runs[0]) >= 3


def test_bracket_and_homology_build_no_slot_names(monkeypatch):
    """The state-sum bracket, homology and the maps between two diagrams
    read each circle's kind, class and integer slots: no circle builds its
    ``slots`` or ``key``."""
    reads = []
    for name in ("slots", "key"):
        real = getattr(Circle, name)
        monkeypatch.setattr(Circle, name, property(
            lambda c, real=real, name=name: reads.append(name) or real.fget(c)))
    d = twist_pair(PANTS, "a", 4, extra_loops=("b", ""))
    kauffman_bracket(d)
    homology(GradedComplex(d))
    small = twist_pair(PANTS, "a", 2, extra_loops=("b", ""))
    mirror_map(small)
    reorder_iso(small, (1, 0))
    rho_I(small, ("edge", 0))
    rho_I(small, ("loop", 0), "right")
    big = apply_r2(small, ("loop", 1), ("edge", 0))
    rho_II(r2_pair(GradedComplex(big), 0, 1))
    r3_data(*triangle_closure(PANTS, 1, "a", extra_loops=("b",)))
    assert reads == []
    circle = smooth(d, (1,) * d.n_crossings)[0]
    assert circle.slots and reads == ["slots"]
    assert circle.key and reads[1] == "key"


def test_r2_parallel_resolution_restores_strands():
    d = loops_diagram(SurfaceModel.planar_holes(2), "a", "b")
    big = apply_r2(d, ("loop", 0), ("loop", 1))
    assert big.crossings[:2] == ("n1", "n2")
    circles = smooth(big, (-1, 1))
    assert sorted(c.cls.text for c in circles) == ["a", "b"]
    other = smooth(big, (1, -1))
    # Opposite connection merges the two loops, plus the small circle.
    assert len(other) == 2
    assert sorted(c.cls.text for c in other) == ["", "a b'"]
    assert sum(1 for c in other if c.kind is CurveKind.TRIVIAL) == 1


def test_r3_crossing_count_and_order():
    d, site = triangle_closure(DISK, 0)
    moved = apply_r3(d, site)
    assert moved.n_crossings == d.n_crossings
    assert moved.crossings == ("p", "w", "v")


def test_smooth_crossing_matches_frozen_smoothing():
    rng = random.Random(3)
    for surface in ALL_SURFACES:
        d = random_diagram(surface, rng, max_crossings=3)
        if not d.n_crossings:
            continue
        for marker in (1, -1):
            small = smooth_crossing(d, 0, marker)
            assert small.n_crossings == d.n_crossings - 1
            for rest in small.marker_vectors():
                full = (marker,) + rest
                a = sorted(c.cls.canonical for c in smooth(d, full))
                b = sorted(c.cls.canonical for c in smooth(small, rest))
                assert a == b


def test_crossing_count_deltas_of_moves():
    d = twist_pair(DISK, "", 2)
    assert apply_r1_neg(d, ("edge", 0)).n_crossings == 3
    with_loop = Diagram(d.surface, d.crossings, d.edges, d.loops + ((),))
    assert apply_r2(with_loop, ("loop", 0), ("edge", 0)).n_crossings == 4
    t, site = triangle_closure(DISK, 1)
    assert apply_r3(t, site).n_crossings == 3


def test_edge_validation():
    with pytest.raises(DiagramError):
        Diagram(DISK, ("x",), (Edge(("x", 0), ("x", 1)),))
    with pytest.raises(DiagramError):
        Diagram(DISK, ("x",), (Edge(("x", 0), ("x", 1)),
                               Edge(("x", 2), ("x", 3)),
                               Edge(("y", 0), ("y", 1))))
