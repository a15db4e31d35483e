import dataclasses
import gc
import io
import itertools
import random
import weakref
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
from bandkh import chainmaps
from bandkh.chainmaps import mirror_map, r2_pair, reorder_iso, rho_I, skein_triple
from bandkh.cli import main, run_euler, run_verify
from bandkh.diagram import (Diagram, Edge, apply_r1_neg, apply_r1_pos, apply_r2, mirror,
                            reorder_crossings, smooth)
from bandkh import state_complex
from bandkh.homology import COEFFICIENTS, homology
from bandkh.linalg import _direct_sum, _mat_mul, invariant_factors
from bandkh.state_complex import ComplexError, GradedComplex
from bandkh.surface import CurveKind, GradingS, inverse_word, parse_word
from bandkh.skein import kauffman_bracket, phi_expand
from bandkh.textformat import emit_diagram, parse_diagram

from helpers import (
    ALL_SURFACES,
    ANNULUS,
    DISK,
    MOEBIUS,
    PANTS,
    clasp_params,
    clasp,
    chain3,
    crosscap_shadow,
    disjoint_union,
    euler_characteristic_consistent,
    incidence_number,
    loops_diagram,
    random_diagram,
    self_fold,
    spiral3,
    state_text,
    surface_words,
    t_count,
    TORUS_HOLE,
    trefoil,
    twist_pair,
    twist_params,
    two_crossing_classes,
    classify_two_crossing,
    wrap_cross,
)


def test_enumerate_trivial_loop():
    cx = GradedComplex(loops_diagram(DISK, ""))
    keys = set(cx.buckets)
    assert {(i, j) for (i, j, s) in keys} == {(0, 2), (0, -2)}
    assert all(s == GradingS.zero() for (_, _, s) in keys)


def test_enumerate_loop_a():
    cx = GradedComplex(loops_diagram(ANNULUS, "a"))
    keys = sorted((i, j, s.text) for (i, j, s) in cx.buckets)
    assert keys == [(0, 0, "a:+1"), (0, 0, "a:-1")]


def test_enumerate_kink_counts():
    d = apply_r1_pos(loops_diagram(DISK, ""), ("loop", 0))
    cx = GradedComplex(d)
    total = sum(len(b) for b in cx.buckets.values())
    assert total == 6  # marker +: two circles (4 states), marker -: one (2)
    by_i = {}
    for (i, j, s), bucket in cx.buckets.items():
        by_i[i] = by_i.get(i, 0) + len(bucket)
    assert by_i == {1: 4, -1: 2}


def test_state_parity_and_gradings():
    rng = random.Random(4)
    for surface in ALL_SURFACES:
        d = random_diagram(surface, rng, max_crossings=4)
        cx = GradedComplex(d)
        for (i, j, s), bucket in cx.buckets.items():
            assert (j - i) % 2 == 0
            assert i % 2 == d.n_crossings % 2
            for state in bucket:
                assert state.j == state.i + 2 * state.tau


def test_empty_diagram_complex():
    cx = GradedComplex(Diagram(DISK))
    ((key, bucket),) = cx.buckets.items()
    assert key[0] == 0 and key[1] == 0 and key[2] == GradingS.zero()
    assert len(bucket) == 1


# ---------------------------------------------------------------------------
# The merge/split label rules, derived from the incidence conditions
# ---------------------------------------------------------------------------

def _rule(cx, markers, labels, pos):
    state = cx.make_state(markers, labels)
    return sorted(t.labels for t in cx.resmoothings(state, pos))


def test_rule_merge_two_trivial():
    d = Diagram(DISK, ("x",), (Edge(("x", 0), ("x", 1)), Edge(("x", 2), ("x", 3))))
    cx = GradedComplex(d)
    assert _rule(cx, (1,), (1, 1), 0) == []
    assert _rule(cx, (1,), (1, -1), 0) == [(1,)]
    assert _rule(cx, (1,), (-1, 1), 0) == [(1,)]
    assert _rule(cx, (1,), (-1, -1), 0) == [(-1,)]


def test_rule_split_trivial():
    d = Diagram(DISK, ("x",), (Edge(("x", 1), ("x", 2)), Edge(("x", 3), ("x", 0))))
    cx = GradedComplex(d)
    assert _rule(cx, (1,), (1,), 0) == [(1, 1)]
    assert _rule(cx, (1,), (-1,), 0) == [(-1, 1), (1, -1)]


def test_rule_split_trivial_into_unbounding_pair():
    # A nullhomotopic lasso around the annulus band: pieces a and a.
    d = Diagram(ANNULUS, ("x",),
                (Edge(("x", 0), ("x", 3), parse_word("a")),
                 Edge(("x", 1), ("x", 2), parse_word("a"))))
    cx = GradedComplex(d)
    plus = cx.smoothing((1,))
    assert [c.kind for c in plus.circles] == [CurveKind.TRIVIAL]
    assert _rule(cx, (1,), (1,), 0) == []
    assert _rule(cx, (1,), (-1,), 0) == [(-1, 1), (1, -1)]


def test_rule_split_trivial_into_moebius_pair():
    d = Diagram(MOEBIUS, ("x",),
                (Edge(("x", 0), ("x", 3), parse_word("a a")),
                 Edge(("x", 1), ("x", 2), parse_word("a a"))))
    cx = GradedComplex(d)
    minus = cx.smoothing((-1,))
    assert all(c.kind is CurveKind.MOEBIUS_BOUNDING for c in minus.circles)
    # Moebius labels obey the same signed conservation as unbounding ones.
    assert _rule(cx, (1,), (1,), 0) == []
    assert _rule(cx, (1,), (-1,), 0) == [(-1, 1), (1, -1)]


def test_rule_moebius_split_keeps_label():
    d = apply_r1_neg(loops_diagram(MOEBIUS, "a a"), ("loop", 0))
    cx = GradedComplex(d)
    data = cx.smoothing((1,))
    assert [c.kind for c in data.circles] == [CurveKind.MOEBIUS_BOUNDING]
    for eps in (1, -1):
        # M(eps) -> (M(eps), T(+)) only: the one-sided label is conserved.
        out = cx.resmoothings(cx.make_state((1,), (eps,)), 0)
        labelled = []
        for t in out:
            circles = cx.smoothing(t.markers).circles
            labelled.append(sorted((c.kind.value, lab)
                                   for c, lab in zip(circles, t.labels)))
        assert labelled == [sorted([("moebius_bounding", eps), ("trivial", 1)])]


def test_rule_unbounding_merge_forced():
    # (T(-), N(eps)) -> N(eps); (T(+), N(eps)) -> nothing.
    d = apply_r1_pos(loops_diagram(ANNULUS, "a"), ("loop", 0))
    cx = GradedComplex(d)
    circles = cx.smoothing((1,)).circles
    kinds = [c.kind for c in circles]
    assert sorted(k.value for k in kinds) == ["trivial", "unbounding"]
    ti = kinds.index(CurveKind.TRIVIAL)
    for eps in (1, -1):
        labels = [0, 0]
        labels[ti] = -1
        labels[1 - ti] = eps
        out = cx.resmoothings(cx.make_state((1,), labels), 0)
        assert len(out) == 1 and out[0].labels == (eps,)
        labels[ti] = 1
        assert cx.resmoothings(cx.make_state((1,), labels), 0) == []


def test_incidence_number_symbols():
    d = Diagram(DISK, ("x",), (Edge(("x", 0), ("x", 1)), Edge(("x", 2), ("x", 3))))
    cx = GradedComplex(d)
    s_from = cx.make_state((1,), (1, -1))
    s_to = cx.make_state((-1,), (1,))
    assert incidence_number(cx, s_from, s_to, 0) == 1
    assert incidence_number(cx, s_from, cx.make_state((-1,), (-1,)), 0) == 0
    assert t_count(cx, cx.make_state((1,), (1, 1)), 0) == 0


def _check_flip_rules(cx):
    """Cached-rule targets equal the per-state oracle and the incident states."""
    circles = {}
    by_markers: dict = {}
    for key in cx.index:
        by_markers.setdefault(key.markers, []).append(key)
    for markers in by_markers:  # each circle's slots and key, built once
        circles[markers] = [SimpleNamespace(key=c.key, slots=c.slots, kind=c.kind, cls=c.cls)
                            for c in cx.smoothing(markers).circles]
    for key in cx.index:
        for pos in cx.free:
            if key.markers[pos] < 0:
                continue
            fast = cx.resmoothings(key, pos)
            flipped = key.markers[:pos] + (-1,) + key.markers[pos + 1:]
            incident = {t for t in by_markers[flipped]
                        if dense_oracle._incident(cx.diagram, circles, key, t)}
            assert len(set(fast)) == len(fast)
            assert set(fast) == set(dense_oracle.resmoothings(cx, key, pos)) \
                == incident


def _check_blocks(cx):
    """Every dense block of d and d+, and every (j, s) verdict of d o d,
    equal the per-block oracle's."""
    keys = set(cx.buckets) | {(i + 2, j, s) for (i, j, s) in cx.buckets}
    for key in keys:
        assert cx.differential(key) == dense_oracle.assemble(cx, key)
        assert cx.d_plus(key) == dense_oracle.assemble(cx, key, 1)
    assert list(cx.d_squared_blocks().items()) == \
        list(dense_oracle.d_squared_blocks(cx).items())


def _oracle_complexes(seed, surface):
    """The unfrozen complex of a random diagram, a skein triple's frozen
    ones, an R2 pair's and a non-embeddable diagram's."""
    rng = random.Random(seed)
    d = random_diagram(ALL_SURFACES[surface], rng, max_crossings=4)
    complexes = [GradedComplex(d), GradedComplex(crosscap_shadow())]
    if d.n_crossings:
        triple = skein_triple(d, rng.randrange(d.n_crossings))
        complexes += [triple.c0, triple.cinf]
    sites = [("edge", k) for k in range(len(d.edges))]
    sites += [("loop", k) for k in range(len(d.loops))]
    if sites:
        with_loop = Diagram(d.surface, d.crossings, d.edges, d.loops + ((),))
        pair = r2_pair(GradedComplex(apply_r2(with_loop, ("loop", len(d.loops)),
                                              rng.choice(sites))), 0, 1)
        complexes += [pair.small, pair.tilde]
    return complexes


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, len(ALL_SURFACES) - 1))
@example(0, 4)
def test_differential_matches_dense_oracle(seed, surface):
    """The one-sweep sparse blocks, their d o d verdicts and the bit-coded
    resmoothings against the per-state oracle."""
    for cx in _oracle_complexes(seed, surface):
        _check_flip_rules(cx)
        _check_blocks(cx)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_SURFACES + (None,)))
@example(0, None)
@example(3, MOEBIUS)
def test_skein_triple_complexes_match_the_dense_oracle(seed, surface):
    """The frozen complexes of a skein triple, read off ``cp``, against the
    state-by-state oracle at every crossing: block keys and sizes in order
    and the row of every state (``enumerate_states``), every dense block of
    d and d+ (``assemble``), the invariant factors of each block of d in
    order (the oracle's Smith form of its dense block) and the three Viro
    maps block by block.  Surface None stands for the trefoil, which has
    torsion, and the non-embeddable crosscap shadow."""
    if surface is None:
        diagrams = [trefoil(), crosscap_shadow()]
    else:
        diagrams = [random_diagram(surface, random.Random(seed), max_crossings=4)]
    for d in diagrams:
        cp = GradedComplex(d)
        for p in range(d.n_crossings):
            t = skein_triple(d, p, cp)
            for cx in (t.c0, t.cinf):
                buckets, index = dense_oracle.enumerate_states(cx)
                assert list(cx.sizes.items()) == [(k, len(b)) for k, b in buckets.items()]
                assert list(cx.index.items()) == list(index.items())
                for key in set(cx.sizes) | {(i + 2, j, s) for i, j, s in cx.sizes}:
                    assert cx.differential(key) == dense_oracle.assemble(cx, key), (p, key)
                    assert cx.d_plus(key) == dense_oracle.assemble(cx, key, 1), (p, key)
                assert list(cx.factors().items()) == [
                    (key, tuple(dense_oracle._snf_diagonal(dense_oracle.assemble(cx, key))))
                    for key in cx.sizes]
            for name in ("viro_alpha", "viro_beta", "viro_gamma_hat"):
                a, b = getattr(chainmaps, name)(t), getattr(dense_oracle, name)(t)
                assert list(a.blocks.items()) == list(b.blocks.items()), (p, name)


def test_share_must_freeze_a_subset_of_the_markers():
    """A complex reads its states off ``share`` only when its frozen markers
    extend those of ``share``; a nested share reads the same complex."""
    d = twist_pair(PANTS, "a", 3)
    c0 = GradedComplex(d, {1: 1}, share=GradedComplex(d))
    for frozen in ({}, {1: -1}, {0: 1}, {0: -1, 2: 1}):
        with pytest.raises(ComplexError, match="subset of these markers"):
            GradedComplex(d, frozen, share=c0)
    nested, alone = GradedComplex(d, {1: 1, 2: -1}, share=c0), GradedComplex(d, {2: -1, 1: 1})
    assert list(nested.index) == list(alone.index)
    assert all(nested.columns(key) == alone.columns(key) for key in alone.sizes)


def test_a_frozen_complex_does_not_keep_its_parent():
    """Once built, a frozen complex sweeps d and d+ off its own row tables:
    the complex it was restricted from can be freed."""
    d = twist_pair(PANTS, "a", 3)
    cp = GradedComplex(d)
    c0 = GradedComplex(d, {1: 1}, share=cp)
    for key in c0.sizes:
        c0.differential(key)
        c0.d_plus(key)
    parent = weakref.ref(cp)
    del cp
    gc.collect()
    assert parent() is None


def _fields(state):
    return tuple(getattr(state, f.name) for f in dataclasses.fields(state))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, len(ALL_SURFACES) - 1))
@example(0, 4)
def test_decoded_states_match_eager_enumeration(seed, surface):
    """The decoded buckets (order, rows and every field) and index, the
    block sizes, locate and make_state against the eager enumeration; locate
    and make_state refuse states that were not enumerated."""
    for cx in _oracle_complexes(seed, surface):
        buckets, index = dense_oracle.enumerate_states(cx)
        assert list(cx.buckets) == list(buckets)
        assert {key: [_fields(s) for s in bucket] for key, bucket in cx.buckets.items()} \
            == {key: [_fields(s) for s in bucket] for key, bucket in buckets.items()}
        assert list(cx.index.items()) == list(index.items())
        assert cx.sizes == {key: len(bucket) for key, bucket in buckets.items()}
        for (markers, labels), (key, row) in index.items():
            assert cx.locate(markers, labels) == (key, row)
            assert _fields(cx.make_state(markers, list(labels))) == \
                _fields(buckets[key][row])
        markers, labels = next(reversed(index))
        bad = [(markers + (1,), labels), (markers, labels + (1,))]
        if labels:
            bad += [(markers, labels[1:]), (markers, (0,) + labels[1:]),
                    (markers, labels[:-1] + (2,))]
        if cx.frozen:
            pos, mark = next(iter(cx.frozen.items()))
            bad.append((markers[:pos] + (-mark,) + markers[pos + 1:], labels))
        for args in bad:
            with pytest.raises(KeyError):
                cx.locate(*args)
            with pytest.raises(KeyError):
                cx.make_state(*args)


def _enumerated_blocks(cx):
    """The invariant factors of d out of each key of ``sizes`` and the d o d
    verdicts in (j, s) order, read off the complex's own enumerated and
    swept blocks: the path that a complex with free loops replaces."""
    factors = {(i, j, s): invariant_factors(cx.columns((i, j, s)), cx.dim((i - 2, j, s)))
               for (i, j, s) in cx.sizes}
    ok: dict = {}
    for (i, j, s) in cx.gradings():
        zero = not any(_mat_mul(cx.columns((i - 2, j, s)), cx.columns((i, j, s))))
        ok[(j, s)] = ok.get((j, s), True) and zero
    return factors, ok


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, len(ALL_SURFACES) - 1),
       st.lists(st.integers(0, 11), min_size=1, max_size=3))
@example(0, 0, [0, 0])  # two trivial loops, whose mixed labellings share a key
@example(2, 1, [1])  # an unbounding loop
@example(5, 2, [1, 2, 3])  # three unbounding classes on the pants
@example(3, 4, [2, 1, 0])  # a Moebius-bounding, an unbounding and a trivial loop
def test_free_loops_split_off_as_full_enumeration_finds(seed, surface, loops):
    """A complex with free loops lifts its sizes, the invariant factors of
    its blocks and its d o d verdicts off its loop-free core: each equals,
    in order, what the complex's own enumerated states and swept blocks
    give.  Loops of every kind are added to random diagrams on all five
    surfaces: trivial, unbounding, and Moebius-bounding on the band."""
    surface = ALL_SURFACES[surface]
    d = random_diagram(surface, random.Random(seed), max_crossings=4)
    words = surface_words(surface)
    d = Diagram(surface, d.crossings, d.edges,
                d.loops + tuple(parse_word(words[k % len(words)]) for k in loops))
    _assert_split_matches_full_enumeration(GradedComplex(d))


def _connected(d: Diagram) -> bool:
    """Loop-free, with at most one crossing-connected component."""
    return not d.loops and len(state_complex._crossing_groups(d)) <= 1


def _assert_split_matches_full_enumeration(cx):
    """``sizes`` (as a mapping, listed in ``gradings`` order), the factors
    and the d o d verdicts of a split complex, lifted off its components,
    equal what its own enumerated states and swept blocks give.  Returns
    the three, as lists in order."""
    assert cx._groups is not None and cx._parts is None
    sizes = dict(cx.sizes)
    factors, d2 = list(cx.factors().items()), list(cx.d_squared_blocks().items())
    assert "_rows" not in vars(cx) or not all(cx.d_squared_blocks().values())
    assert all(_connected(part.diagram) for part in cx._parts
               if isinstance(part, GradedComplex))
    assert list(sizes) == cx.gradings()
    buckets, _ = dense_oracle.enumerate_states(cx)
    assert sizes == {key: len(bucket) for key, bucket in buckets.items()}
    full_factors, full_d2 = _enumerated_blocks(cx)
    assert d2 == list(full_d2.items())
    assert factors == list(full_factors.items())
    return list(sizes.items()), factors, d2


def _split_union(seed, surface, n_random, special, loops) -> Diagram:
    """Random diagrams beside the trefoil's twists or the crosscap shadow,
    and free loops, their crossings interleaved."""
    surface, rng = ALL_SURFACES[surface], random.Random(seed)
    parts = [random_diagram(surface, rng, max_crossings=2) for _ in range(n_random)]
    if special == "trefoil":  # Z/2 torsion; two bring (Z -2-> Z) (x) (Z -2-> Z)
        parts[1:] = [twist_pair(surface, "", 3)] * n_random
    elif special == "crosscap":
        parts.append(dataclasses.replace(crosscap_shadow(), surface=surface))
    words = surface_words(surface)
    parts.append(Diagram(surface, loops=tuple(parse_word(words[k % len(words)])
                                               for k in loops)))
    return disjoint_union(*parts, rng=rng)


def _state_count(d: Diagram) -> int:
    """The number of states of the complex of ``d``."""
    return sum(GradedComplex(d).sizes.values())


#: The most states of a drawn union in the test below.  Its time grows with
#: the state count, about 30 us a state, and draws reached 86 400 states
#: and 2.6 s each, so the test took 5 to 30 s by the hypothesis seed.  The
#: explicit examples are not bounded: one has 43 200 states.
SPLIT_DRAW_STATES = 10_000


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, len(ALL_SURFACES) - 1),
                 st.integers(1, 2), st.sampled_from(["crosscap", "none", "trefoil"]),
                 st.lists(st.integers(0, 11), max_size=2)).filter(
    lambda args: _state_count(_split_union(*args)) <= SPLIT_DRAW_STATES))
@example((0, 0, 1, "trefoil", []))  # the trefoil beside a random disk diagram
@example((3, 0, 2, "trefoil", [0]))  # three components and a trivial loop
@example((1, 2, 1, "trefoil", [1, 2]))  # torsion beside unbounding loops
@example((7, 0, 1, "crosscap", []))  # the crosscap shadow beside a twist or kink
@example((4, 4, 2, "crosscap", [2]))  # ... on the Moebius band, with a loop
@example((5, 3, 2, "none", [1]))
def test_split_diagrams_match_full_enumeration(args):
    """A diagram with two or three crossing-connected components, and free
    loops, lifts its sizes, factors and d o d verdicts off its components by
    the Kunneth formula: each equals what full enumeration gives, in order.
    The components interleave in the crossing order; the trefoil's twist
    brings Z/2 torsion, so the Tor term of two such pieces is exercised, and
    the crosscap shadow fails d o d beside its neighbours.  A complex that
    reads its own rows first (its buckets, or a chain map for odd seeds)
    builds the same components on its first read of factors or verdicts,
    and gives the same result.  Over Z, Q and Z/2, homology equals what
    the formula ``dim - rank out - rank in`` reads off the enumerated
    blocks' factors (``dense_oracle.homology_from_factors``), or raises
    if d o d fails.  Drawn unions have at most ``SPLIT_DRAW_STATES``
    states."""
    seed = args[0]
    d = _split_union(*args)
    if len(state_complex._crossing_groups(d)) + len(d.loops) > 1:
        lifted = _assert_split_matches_full_enumeration(first := GradedComplex(d))
        sizes, factors, d2 = map(dict, lifted)
        for ring in COEFFICIENTS:
            if all(d2.values()):
                assert homology(first, ring) == \
                    dense_oracle.homology_from_factors(sizes, factors, ring)
            else:
                with pytest.raises(ComplexError):
                    homology(first, ring)
        cx = GradedComplex(d)
        (chainmaps.eta if seed % 2 else lambda cx: cx.buckets)(cx)  # its own rows first
        assert cx._parts is None
        assert (list(cx.sizes.items()), list(cx.factors().items()),
                list(cx.d_squared_blocks().items())) == lifted
        assert [p.diagram for p in cx._parts] == [p.diagram for p in first._parts]


def _twists_beside(seed, surface, twists, loops) -> Diagram:
    """Per entry of ``twists``, the trefoil's twist (True) or a random
    diagram, and free loops, their crossings interleaved."""
    surface, rng = ALL_SURFACES[surface], random.Random(seed)
    parts = [twist_pair(surface, "", 3) if twist else random_diagram(surface, rng, max_crossings=2)
             for twist in twists]
    words = surface_words(surface)
    parts.append(Diagram(surface, loops=tuple(parse_word(words[k % len(words)])
                                               for k in loops)))
    return disjoint_union(*parts, rng=rng)


#: The most states of a drawn union in the test below, whose dense oracle
#: reduces each block of the whole union: two twists side by side, 900
#: states, take about 0.4 s over the three rings.
LIFT_DRAW_STATES = 1_000


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, len(ALL_SURFACES) - 1),
                 st.lists(st.booleans(), min_size=1, max_size=3),
                 st.lists(st.integers(0, 11), max_size=2)).filter(
    lambda args: _state_count(_twists_beside(*args)) <= LIFT_DRAW_STATES))
@example((0, 0, [True, True], []))  # (Z -2-> Z) (x) (Z -2-> Z): the Tor term, on the disk
@example((1, 4, [True, True], []))  # ... on the Moebius band
@example((2, 2, [True, False], [1, 2]))  # a twist beside a random diagram and unbounding loops
@example((3, 4, [False], [1, 2]))  # one random component and loops on the Moebius band
@example((4, 3, [True], [1]))  # a twist and an unbounding loop on the punctured torus
def test_split_homology_lifts_as_the_dense_oracle_finds(args):
    """homology of a split complex whose components pass d o d pairs only
    the pieces that homology sees, and enumerates no state of its own: over
    Z, Q and Z/2 its table equals what the dense oracle reads off the
    complex's own enumerated blocks, its groups in ``gradings`` order, as
    a connected draw's are too.  One to three components, each the
    trefoil's twist (Z/2 torsion; two bring the Tor term) or a random
    diagram, and zero to two free loops, on all five surfaces.  Drawn
    unions have at most ``LIFT_DRAW_STATES`` states."""
    cx = GradedComplex(_twists_beside(*args))
    split = cx._groups is not None
    tables = [homology(cx, ring) for ring in COEFFICIENTS]
    assert not split or "_rows" not in vars(cx)
    for table, ring in zip(tables, COEFFICIENTS):
        assert table == dense_oracle.block_homology(cx, ring)
        assert list(table.groups) == [key for key in cx.gradings() if key in table.groups]


def test_the_d2_suite_sizes_and_gradings_of_a_split_complex_reduce_no_component_block(
        monkeypatch):
    """verify --suite=d2 on a split diagram reads no component's invariant
    factors, and its verdicts are those of the dense oracle; ``sizes`` and
    ``gradings()`` of a split complex sweep no component block either: the
    sizes convolve the components', and every verdict is True as each
    component passes d o d."""
    d = disjoint_union(twist_pair(PANTS, "a", 2), twist_pair(PANTS, "", 2),
                       loops_diagram(PANTS, "b", ""), rng=random.Random(3))
    want = "".join(f"{'PASS' if ok else 'FAIL'} d2 (j={j},s={s.text})\n" for (j, s), ok
                   in dense_oracle.d_squared_blocks(GradedComplex(d)).items())
    built = []
    real = GradedComplex.__init__
    monkeypatch.setattr(GradedComplex, "__init__",
                        lambda self, *args, **kw: built.append(self) or real(self, *args, **kw))
    out = io.StringIO()
    assert run_verify(d, ["d2"], out) == 0 and out.getvalue() == want
    top, *parts = built
    assert top._parts == parts and len(parts) == 2
    assert all(part._factors is None for part in parts)
    cx = GradedComplex(d)
    assert list(cx.sizes) == cx.gradings()
    assert all(part._factors is None and part._d2 is None and not part._blocks
               for part in cx._parts)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, len(ALL_SURFACES) - 1), st.booleans())
@example(5, 2, True)  # unbounding classes on the pants, two components
@example(3, 4, False)  # the Moebius band
def test_equal_gradings_are_one_object_in_the_oracle_order(seed, surface, split):
    """A random diagram parsed twice, so on two surface objects: equal s
    values in both complexes' ``sizes``, both homology tables and both
    ``phi_expand`` results are one object, with the sort key of the old
    formula.  ``gradings()`` lists ``sizes`` in the oracle's (j, s, i)
    order for connected, split and frozen complexes, and the d o d
    verdicts follow that order."""
    surface, rng = ALL_SURFACES[surface], random.Random(seed)
    d = random_diagram(surface, rng, max_crossings=4)
    if split:
        d = disjoint_union(d, random_diagram(surface, rng, max_crossings=2), rng=rng)
    text = emit_diagram(d)
    diagrams = [parse_diagram(text), parse_diagram(text)]
    assert diagrams[0].surface is not diagrams[1].surface
    tops, complexes, tables, expansions = [], [], [], []
    for diagram in diagrams:
        tops.append(cx := GradedComplex(diagram))
        tables.append(homology(cx).groups)
        expansions.append(phi_expand(kauffman_bracket(diagram)))
        complexes += [cx] + [p for p in cx._parts or () if isinstance(p, GradedComplex)]
        if diagram.n_crossings:
            complexes.append(GradedComplex(diagram, {0: -1}, share=cx))
    assert list(tops[0].sizes.items()) == list(tops[1].sizes.items())
    assert tables[0] == tables[1] and expansions[0] == expansions[1]
    ids: dict[tuple, set] = {}
    for s in [s for cx in tops for _, _, s in cx.sizes] + [
            s for groups in tables for _, _, s in groups] + [
            s for expansion in expansions for s in expansion]:
        assert s.sort_key == dense_oracle.grading_sort_key(s)
        value = tuple((c.canonical, c.kind, c.sided, coef) for c, coef in s.entries)
        ids.setdefault(value, set()).add(id(s))
    assert all(len(objects) == 1 for objects in ids.values())
    for cx in complexes:
        want = sorted(cx.sizes, key=lambda k: (k[1], dense_oracle.grading_sort_key(k[2]), k[0]))
        assert cx.gradings() == want
        assert list(cx.d_squared_blocks()) == list(dict.fromkeys((j, s) for _, j, s in want))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_crosscap_shadow_beside_a_twist_fails_d_squared_at_the_enumerated_blocks(k):
    """The crosscap shadow split off beside a twist: d o d fails at the
    (j, s) chains full enumeration names, and the first one is reported.
    One component fails d o d, so the complex reads its own blocks."""
    d = disjoint_union(twist_pair(DISK, "", k), crosscap_shadow(("",)), rng=random.Random(k))
    cx = GradedComplex(d)
    with pytest.raises(ComplexError) as failed:
        cx.check_d_squared()
    assert "_rows" in vars(cx) and not all(all(p.d_squared_blocks().values()) for p in cx._parts)
    _, full_d2 = _enumerated_blocks(cx)
    assert list(cx.d_squared_blocks().items()) == list(full_d2.items())
    j, s = next(block for block, ok in full_d2.items() if not ok)
    assert str(failed.value) == (
        f"differential does not square to zero in block (j={j},s={s.text}); "
        "the diagram is not drawable on the declared surface")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(1, 12), max_size=4), min_size=1, max_size=4))
@example([[1, 2], [3]])  # Z/2 + Z/3 is Z/6: the merge adds a unit
@example([[2], [2], [1]])
def test_merged_factors_are_those_of_the_direct_sum(diagonals):
    """Merging the invariant factors of blocks gives those of their direct
    sum, each block a diagonal matrix on its own rows and columns."""
    parts = [invariant_factors([[(r, v)] for r, v in enumerate(diag)], len(diag))
             for diag in diagonals]
    columns, rows = [], 0
    for diag in diagonals:
        columns += [[(rows + r, v)] for r, v in enumerate(diag)]
        rows += len(diag)
    assert _direct_sum(x for factors in parts for x in factors) == invariant_factors(columns, rows)


@pytest.mark.parametrize("extra_loops", [("",), ("", ""), ("", "", "")])
def test_crosscap_shadow_with_loops_fails_d_squared_at_the_enumerated_block(extra_loops):
    """The non-embeddable input with free loops fails d o d at the same
    (j, s) blocks as its enumerated blocks do, and names the first one."""
    cx = GradedComplex(crosscap_shadow(extra_loops))
    with pytest.raises(ComplexError) as failed:
        cx.check_d_squared()
    _, full_d2 = _enumerated_blocks(cx)
    assert list(cx.d_squared_blocks().items()) == list(full_d2.items())
    j, s = next(block for block, ok in full_d2.items() if not ok)
    assert str(failed.value) == (
        f"differential does not square to zero in block (j={j},s={s.text}); "
        "the diagram is not drawable on the declared surface")


@pytest.mark.parametrize("rows_first", [False, True])
def test_lifted_sizes_that_differ_from_the_enumerated_ones_raise(monkeypatch, rows_first):
    """A split complex whose block sizes lifted off its components differ
    from those of its own states raises :class:`ComplexError` in either
    read order: its rows enumerated after the lift, or the lift after its
    rows."""
    real = state_complex._kunneth

    def shifted(parts):
        lifted = real(parts)
        key, (size, factors) = next(iter(lifted.items()))
        return {**lifted, key: (size + 1, factors)}

    monkeypatch.setattr(state_complex, "_kunneth", shifted)
    cx = GradedComplex(twist_pair(PANTS, "a", 2, extra_loops=("b", "")))
    reads = [lambda: cx.buckets, cx.factors]
    first, second = reads if rows_first else reads[::-1]
    first()
    with pytest.raises(ComplexError, match="^the enumerated blocks differ from those "
                                           "lifted off the components$"):
        second()


def _count_enumerations(monkeypatch) -> list:
    enumerated = []
    real = GradedComplex._enumerate
    monkeypatch.setattr(GradedComplex, "_enumerate",
                        lambda self: enumerated.append(self.diagram) or real(self))
    return enumerated


@pytest.mark.parametrize("read", ["buckets", "columns", "chain map"])
def test_homology_of_a_loop_diagram_enumerates_its_core_only(monkeypatch, read):
    """homology over every ring enumerates the loop-free core only.  The
    first read that names the states of a complex with loops (its buckets,
    a block of d, a chain map) enumerates it, once for every later read."""
    enumerated = _count_enumerations(monkeypatch)
    d = twist_pair(PANTS, "a", 3, extra_loops=("b", ""))
    cx = GradedComplex(d)
    for coefficients in COEFFICIENTS:
        homology(cx, coefficients)
    assert enumerated == [cx._parts[0].diagram] and _connected(enumerated[0])
    reads = {"buckets": lambda: cx.buckets,
             "columns": lambda: cx.columns(next(iter(cx.sizes))),
             "chain map": lambda: chainmaps.eta(cx)}
    reads[read]()
    assert enumerated[1:] == [d]
    for other in reads.values():
        other()
    assert enumerated[1:] == [d]


def test_euler_and_the_d2_euler_reidemeister_suites_enumerate_loop_free_cores_only(
        monkeypatch):
    """Every complex these build, the moved diagrams' included, reads its
    sizes, factors and d o d verdicts off its components: only connected,
    loop-free complexes are enumerated.  A kink on a free loop is a
    component of its own, whose complex the r1neg check reduces."""
    enumerated = _count_enumerations(monkeypatch)
    kinked_loop = apply_r1_neg(loops_diagram(PANTS, ""), ("loop", 0))
    for d in (twist_pair(PANTS, "a", 3, extra_loops=("b", "")),
              disjoint_union(twist_pair(PANTS, "a", 2), kinked_loop, loops_diagram(PANTS, "b", ""),
                             rng=random.Random(1))):
        enumerated.clear()
        assert run_verify(d, ["d2", "euler", "reidemeister"], io.StringIO()) == 0
        assert run_euler(d, io.StringIO()) == 0
        assert enumerated and all(_connected(x) for x in enumerated)
    assert any(x.crossings == ("n1_1",) for x in enumerated)  # the kink on the loop


def test_a_split_complex_builds_no_component_it_does_not_read(monkeypatch):
    """A split complex that is only restricted or mapped enumerates itself,
    not its components: the unfrozen parent of a frozen complex built
    without ``share``, and the complexes of ``rho_I``, ``mirror_map`` and
    ``reorder_iso``.  Its first read of sizes, factors or d o d verdicts
    builds the complexes of its two crossing-connected components, each
    once; the free loop builds none."""
    enumerated = _count_enumerations(monkeypatch)
    d = disjoint_union(twist_pair(PANTS, "b", 2), apply_r1_neg(loops_diagram(PANTS, "a"),
                                                              ("loop", 0)),
                       loops_diagram(PANTS, ""), rng=random.Random(2))
    GradedComplex(d, {0: 1})
    assert enumerated == [d]
    enumerated.clear()
    _, kinked = rho_I(d, ("edge", 0))
    assert enumerated == [d, kinked]
    enumerated.clear()
    mirror_map(d)
    assert enumerated == [d, mirror(d)]
    enumerated.clear()
    reorder_iso(d, [2, 0, 1])
    assert enumerated == [d, reorder_crossings(d, [2, 0, 1])]
    for read in (lambda cx: cx.sizes, GradedComplex.factors, GradedComplex.d_squared_blocks):
        enumerated.clear()
        cx = GradedComplex(d)
        assert enumerated == []
        read(cx)
        cx.sizes, cx.factors(), cx.d_squared_blocks()
        assert enumerated == [part.diagram for part in cx._parts] and len(cx._parts) == 2
        assert all(_connected(x) for x in enumerated)


def test_homology_path_builds_no_state_objects(monkeypatch):
    """homology over Z, Q and Z/2, the d o d check and the block queries
    read the block sizes and row tables only: no EnhancedState or StateKey
    is built until buckets or index is first read."""
    built = []
    for name in ("EnhancedState", "StateKey"):
        cls = getattr(state_complex, name)
        monkeypatch.setattr(state_complex, name,
                            lambda *args, cls=cls: built.append(cls) or cls(*args))
    cx = GradedComplex(twist_pair(PANTS, "a", 4))
    for coefficients in ("Z", "Q", "Z2"):
        assert euler_characteristic_consistent(cx, homology(cx, coefficients))
    cx.check_d_squared()
    assert dense_oracle.dual_matrices(cx) and cx.gradings()
    assert built == []
    states = sum(cx.dim(key) for key in cx.gradings())
    assert sum(len(bucket) for bucket in cx.buckets.values()) == states
    assert len(cx.index) == states and len(built) == 2 * states


def test_flip_rule_derived_once_per_markers_and_crossing(monkeypatch):
    derived = []
    original = GradedComplex._derive_flip

    def counting(self, markers, pos):
        derived.append((markers, pos))
        return original(self, markers, pos)

    monkeypatch.setattr(GradedComplex, "_derive_flip", counting)
    cx = GradedComplex(twist_pair(PANTS, "a", 4))
    homology(cx, "Z")
    flips = [(state.markers, pos) for bucket in cx.buckets.values()
             for state in bucket for pos in cx.free if state.markers[pos] > 0]
    assert sorted(derived) == sorted(set(flips))
    assert len(derived) < len(flips)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_SURFACES + (None,)),
       st.lists(st.integers(0, 7), max_size=3))
@example(0, None, [])
@example(5, MOEBIUS, [2, 5, 1])
def test_flip_rules_match_key_matching_oracle(seed, surface, loops):
    """Every flip rule, field by field, against the oracle that matches
    untouched circles by key, and every smoothing against the (crossing,
    slot) tracer in all fields: random diagrams on all five surfaces with
    extra free loops (an odd ``k`` adds a freely trivial, unreduced word),
    the frozen complexes of a skein triple, and the non-embeddable crosscap
    shadow (surface None)."""
    rng = random.Random(seed)
    if surface is None:
        d = crosscap_shadow()
    else:
        d = random_diagram(surface, rng, max_crossings=4)
        options = [parse_word(w) for w in surface_words(surface)]
        words = [options[k % len(options)] for k in loops]
        words = [w + inverse_word(w) if k % 2 else w for k, w in zip(loops, words)]
        d = Diagram(surface, d.crossings, d.edges, d.loops + tuple(words))
    cx = GradedComplex(d)
    complexes = [cx]
    if d.n_crossings:
        triple = skein_triple(d, rng.randrange(d.n_crossings), cx)
        complexes += [triple.c0, triple.cinf]
    for markers in d.marker_vectors():
        assert smooth(d, markers) == dense_oracle.smooth(d, markers)
    for c in complexes:
        for markers in c._rows:
            for pos in c.free:
                if markers[pos] > 0:
                    rule = c._flip(markers, pos)
                    assert (rule.target, rule.width, rule.kept, rule.mask, rule.local) \
                        == dense_oracle.flip_rule(c, markers, pos)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(ALL_SURFACES + (None,)),
       st.lists(st.integers(0, 7), max_size=3))
@example(0, None, [])
@example(5, MOEBIUS, [2, 5, 1])
@example(1, PANTS, [1, 2])
def test_shape_maps_and_label_recipes_match_per_state_derivation(seed, surface, loops):
    """The code maps read off one table per flip shape, field by field, and
    the row tables read off one label recipe per smoothing signature, code
    by code with the block keys and sizes in bucket order, against their
    derivation per (markers, crossing) and per label code: random diagrams
    on all five surfaces with extra free loops (an odd ``k`` adds a freely
    trivial, unreduced word) and a twist beside them, the frozen complexes
    of a skein triple, and the crosscap shadow (surface None)."""
    rng = random.Random(seed)
    if surface is None:
        diagrams = [crosscap_shadow()]
    else:
        d = random_diagram(surface, rng, max_crossings=4)
        options = [parse_word(w) for w in surface_words(surface)]
        words = [options[k % len(options)] for k in loops]
        words = [w + inverse_word(w) if k % 2 else w for k, w in zip(loops, words)]
        d = Diagram(surface, d.crossings, d.edges, d.loops + tuple(words))
        w, k = twist_params(surface)[seed % len(twist_params(surface))]
        diagrams = [d, disjoint_union(d, twist_pair(surface, w, k), rng=rng)]
    for d in diagrams:
        cx = GradedComplex(d)
        rows, keys, counts = dense_oracle.enumerate_rows(cx)
        assert list(cx._rows.items()) == list(rows.items())
        assert cx._keys == list(cx.buckets) == keys
        assert [cx.sizes[key] for key in keys] == counts
        complexes = [cx]
        if d.n_crossings:
            triple = skein_triple(d, rng.randrange(d.n_crossings), cx)
            complexes += [triple.c0, triple.cinf]
        for c in complexes:
            for markers in c._rows:
                for pos in c.free:
                    if markers[pos] > 0:
                        rule = c._flip(markers, pos)
                        assert (rule.target, rule.width, rule.kept, rule.mask, rule.local,
                                rule.base, rule.images) \
                            == dense_oracle.derive_flip(c, markers, pos)


# ---------------------------------------------------------------------------
# d^2 = 0 and commuting partial derivatives
# ---------------------------------------------------------------------------

def two_crossing_instances():
    out = []
    for surface in ALL_SURFACES:
        words = surface_words(surface)
        for w in words:
            base = loops_diagram(surface, w)
            for op1 in (apply_r1_neg, apply_r1_pos):
                for s1 in ("left", "right"):
                    k1 = op1(base, ("loop", 0), s1)
                    for op2 in (apply_r1_neg, apply_r1_pos):
                        for s2 in ("left", "right"):
                            for e in range(len(k1.edges)):
                                out.append((surface, op2(k1, ("edge", e), s2)))
            out.append((surface, self_fold(surface, w)))
        for (w, k) in twist_params(surface):
            if k == 2:
                out.append((surface, twist_pair(surface, w, 2)))
        for (x, y) in clasp_params(surface):
            out.append((surface, clasp(surface, x, y)))
        if surface.generators:
            out.append((surface, spiral3(surface, surface.generators[0])))
    for (srf, x, y) in ((TORUS_HOLE, "a", "b"), (MOEBIUS, "a", "a")):
        base = wrap_cross(srf, x, y)
        for op in (apply_r1_neg, apply_r1_pos):
            for side in ("left", "right"):
                for e in range(len(base.edges)):
                    out.append((srf, op(base, ("edge", e), side)))
    out.append((TORUS_HOLE, chain3(TORUS_HOLE, "a", "b", "a")))
    return out


def test_exactly_five_abstract_classes():
    assert len(two_crossing_classes()) == 5


#: Which abstract configurations admit an embedded representative where.
#: Pairs of distinct curves crossing once (C2, C3) need odd intersection
#: numbers, impossible on planar surfaces, and C3 needs two disjoint odd
#: partners, impossible on the Moebius band; the interleaved self-crossing
#: pattern C5 has a nonplanar Gauss code, impossible on the disk.
EXPECTED_COVERAGE = {
    "planar_holes 0": {"C1", "C4"},
    "planar_holes 1": {"C1", "C4", "C5"},
    "planar_holes 2": {"C1", "C4", "C5"},
    "orientable 1 1": {"C1", "C2", "C3", "C4", "C5"},
    "moebius": {"C1", "C2", "C4", "C5"},
}


def test_two_crossing_suite_covers_the_five_classes():
    names = {rep: f"C{k+1}" for k, rep in enumerate(sorted(two_crossing_classes()))}
    seen: dict = {}
    for surface, d in two_crossing_instances():
        seen.setdefault(surface.describe(), set()).add(
            names[classify_two_crossing(d)])
    assert seen == EXPECTED_COVERAGE
    assert set().union(*seen.values()) == {"C1", "C2", "C3", "C4", "C5"}


def test_d_squared_and_dvdw_exhaustive_two_crossings():
    for surface, d in two_crossing_instances():
        cx = GradedComplex(d)
        cx.check_d_squared()
        for bucket in cx.buckets.values():
            for state in bucket:
                for v, w in itertools.permutations(range(2), 2):
                    lhs = sorted((u.markers, u.labels)
                                 for t in cx.resmoothings(state, v)
                                 for u in cx.resmoothings(t, w))
                    rhs = sorted((u.markers, u.labels)
                                 for t in cx.resmoothings(state, w)
                                 for u in cx.resmoothings(t, v))
                    assert lhs == rhs


def test_dvdw_on_random_diagrams():
    rng = random.Random(6)
    for surface in ALL_SURFACES:
        for _ in range(3):
            d = random_diagram(surface, rng, max_crossings=4)
            cx = GradedComplex(d)
            for bucket in cx.buckets.values():
                for state in bucket:
                    for v, w in itertools.combinations(range(d.n_crossings), 2):
                        lhs = sorted((u.markers, u.labels)
                                     for t in cx.resmoothings(state, v)
                                     for u in cx.resmoothings(t, w))
                        rhs = sorted((u.markers, u.labels)
                                     for t in cx.resmoothings(state, w)
                                     for u in cx.resmoothings(t, v))
                        assert lhs == rhs


def test_non_embeddable_input_fails_d_squared():
    with pytest.raises(ComplexError, match=r"square.*\(j=0,s=0\)"):
        GradedComplex(crosscap_shadow()).check_d_squared()


def test_sweep_rejects_an_entry_off_its_grading(monkeypatch, tmp_path, capsys):
    """A flip rule that labels every new circle +1 sends some states of the
    trefoil off (i-2, j, s): assembling d raises ComplexError naming the
    source block and the block the state landed in, and ``homology`` exits
    1 with one error line."""
    real, corrupted = GradedComplex._derive_flip, []

    def derive_flip(self, markers, pos):
        rule = real(self, markers, pos)
        if corrupted:
            return rule
        corrupted.append((markers, pos))
        # ``images=None`` derives the map's code pairs again, from the new
        # ``local``, instead of sharing those of the flip shape.
        return dataclasses.replace(rule, local={bits: (0,) for bits in rule.local},
                                   images=None)

    monkeypatch.setattr(GradedComplex, "_derive_flip", derive_flip)
    d = twist_pair(DISK, "", 3)
    cx = GradedComplex(d)
    with pytest.raises(ComplexError, match=r"^state lands in \(.*\), expected \(.*\), from \("):
        cx.columns(next(iter(cx.sizes)))
    assert len(corrupted) == 1
    corrupted.clear()
    path = tmp_path / "d.txt"
    path.write_text(emit_diagram(d))
    assert main(["homology", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: state lands in (") and err.count("\n") == 1


def test_gradings_constant_along_differential():
    rng = random.Random(7)
    d = random_diagram(ANNULUS, rng, max_crossings=4)
    cx = GradedComplex(d)
    for (i, j, s), bucket in cx.buckets.items():
        for state in bucket:
            for pos in cx.free:
                for target in cx.resmoothings(state, pos):
                    assert cx.locate(*target)[0] == (i - 2, j, s)


@st.composite
def dense_pair(draw):
    """Integer a (m x k) and b (k x n) with small entries, so that sums
    cancel often; any of m, k and n may be 0."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.integers(-2, 2)
    a = [[draw(entry) for _ in range(k)] for _ in range(m)]
    b = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return a, b, n


@settings(max_examples=300, deadline=None)
@given(dense_pair())
@example(([[1, 1]], [[1], [-1]], 1))  # the one entry cancels to zero
@example(([[1, 2]], [[], []], 0))  # no columns
@example(([], [[1, 0], [0, 1]], 2))  # no rows
@example(([[], []], [], 3))  # an empty inner dimension
def test_sparse_product_and_transpose_match_dense(case):
    a, b, n = case
    m, k = len(a), len(b)
    sa, sb = dense_oracle.sparse_columns(a, k), dense_oracle.sparse_columns(b, n)
    prod = _mat_mul(sa, sb)
    assert len(prod) == n
    for column in prod:
        assert all(v for _r, v in column)
        assert len({r for r, _v in column}) == len(column)
    dense = dense_oracle.dense_matrix(prod, m)
    assert dense_oracle.mats_equal(dense, dense_oracle._mat_mul(a, b))
    assert dense == [[sum(a[r][t] * b[t][c] for t in range(k)) for c in range(n)]
                     for r in range(m)]
    at = dense_oracle._transpose(sa, m)
    assert len(at) == m
    assert dense_oracle.dense_matrix(at, k) == [[a[r][c] for r in range(m)]
                                                for c in range(k)]
    assert dense_oracle._transpose(at, k) == sa


def test_dual_matrices_are_transposes():
    d = twist_pair(DISK, "", 2)
    cx = GradedComplex(d)
    duals = dense_oracle.dual_matrices(cx)
    for (i, j, s), columns in duals.items():
        up = (i + 2, j, s)
        orig = cx.differential(up)
        assert len(columns) == cx.dim((i, j, s))
        block = dense_oracle.dense_matrix(columns, cx.dim(up))
        assert len(block) == cx.dim(up)
        for r in range(len(orig)):
            for c in range(len(orig[r]) if orig else 0):
                assert orig[r][c] == block[c][r]
        # double transpose returns the original
        assert [sorted(col) for col in dense_oracle._transpose(columns, cx.dim(up))] == \
            [sorted(col) for col in cx.columns(up)]
    # rank equality is checked in homology tests


def test_state_serialization():
    d = apply_r1_neg(loops_diagram(ANNULUS, "a"), ("loop", 0))
    cx = GradedComplex(d)
    state = cx.make_state((-1,), (1, -1))
    text = state_text(cx, state)
    assert text.startswith("-")
    assert "(a:+0)" in text or "(a:-0)" in text
    assert "(triv:+)" in text or "(triv:-)" in text
