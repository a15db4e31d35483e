import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bandkh.diagram import Diagram, apply_r1_neg, apply_r1_pos, smooth_crossing
from bandkh.homology import homology
from bandkh.skein import (
    BasisElement,
    LaurentPolyA,
    SkeinError,
    bracket_recursive,
    euler_characteristic,
    expansion_text,
    kauffman_bracket,
    moebius_grouped_sums,
    phi_expand,
    phi_of_basis,
    recover_p,
)
from bandkh.state_complex import GradedComplex
from bandkh.surface import CurveKind, GradingS, classify, parse_word

import dense_oracle
from dense_oracle import LOOP_FACTOR
from helpers import (
    ALL_SURFACES,
    ANNULUS,
    DISK,
    MOEBIUS,
    PANTS,
    TORUS_HOLE,
    add_expansions,
    loops_diagram,
    random_diagram,
    scale_expansion,
    surface_words,
    trefoil,
)


def poly(d):
    return LaurentPolyA.from_dict(d)


def cls(surface, text):
    return classify(parse_word(text), surface)


def test_poly_arithmetic():
    a = poly({1: 1})
    assert (a * a).terms == ((2, 1),)
    assert (a - a) == LaurentPolyA.zero()
    assert LOOP_FACTOR.text == "-1*A^-2 + -1*A^2"


def test_trivial_loop_bracket():
    e = kauffman_bracket(loops_diagram(DISK, ""))
    assert e == {BasisElement(): LOOP_FACTOR}


def test_loop_a_bracket():
    e = kauffman_bracket(loops_diagram(ANNULUS, "a"))
    assert e == {BasisElement.from_classes([cls(ANNULUS, "a")]): poly({0: 1})}


def test_negative_kink_bracket():
    k = apply_r1_neg(loops_diagram(DISK, ""), ("loop", 0))
    expected = {BasisElement(): poly({-1: 1, -5: 1})}  # -A^-3 times the loop value
    assert kauffman_bracket(k) == expected
    assert bracket_recursive(k) == expected


def test_positive_kink_bracket():
    k = apply_r1_pos(loops_diagram(DISK, ""), ("loop", 0))
    assert kauffman_bracket(k) == {BasisElement(): poly({1: 1, 5: 1})}


def test_state_sum_equals_recursion():
    rng = random.Random(21)
    for surface in ALL_SURFACES:
        for _ in range(4):
            d = random_diagram(surface, rng, max_crossings=5)
            assert kauffman_bracket(d) == bracket_recursive(d)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(ALL_SURFACES),
       st.lists(st.integers(0, 3), max_size=2), st.booleans())
@example(0, MOEBIUS, [2, 1], True)
@example(3, PANTS, [0, 3], False)
def test_counted_brackets_match_the_per_node_oracle(seed, surface, loops, kink):
    """Both counted brackets equal the recursion that builds a polynomial per
    node, and phi of each basis element equals the expansion that sorts each
    monomial, on random diagrams of up to five crossings on all five
    surfaces with extra free loops (on the Moebius band including the
    Moebius-bounding ``a a``) and, with ``kink``, one more kink."""
    rng = random.Random(seed)
    d = random_diagram(surface, rng, max_crossings=5)
    words = surface_words(surface)
    d = Diagram(surface, d.crossings, d.edges,
                d.loops + tuple(parse_word(words[k % len(words)]) for k in loops))
    sites = [("edge", k) for k in range(len(d.edges))]
    sites += [("loop", k) for k in range(len(d.loops))]
    if kink and sites:
        move = rng.choice((apply_r1_neg, apply_r1_pos))
        d = move(d, rng.choice(sites), rng.choice(("left", "right")))
    want = dense_oracle.bracket_recursive(d)
    assert kauffman_bracket(d) == want
    assert bracket_recursive(d) == want
    for elt in want:
        assert phi_of_basis(elt) == dense_oracle.phi_of_basis(elt)


def test_skein_relation():
    rng = random.Random(22)
    for surface in ALL_SURFACES:
        d = random_diagram(surface, rng, max_crossings=4)
        for p in range(d.n_crossings):
            lhs = kauffman_bracket(d)
            a_part = scale_expansion(kauffman_bracket(smooth_crossing(d, p, 1)),
                                     LaurentPolyA.monomial(1))
            b_part = scale_expansion(kauffman_bracket(smooth_crossing(d, p, -1)),
                                     LaurentPolyA.monomial(-1))
            assert lhs == add_expansions(a_part, b_part)


def test_disjoint_trivial_loop_multiplies():
    rng = random.Random(23)
    d = random_diagram(PANTS, rng, max_crossings=3)
    with_loop = Diagram(d.surface, d.crossings, d.edges, d.loops + ((),))
    assert kauffman_bracket(with_loop) == scale_expansion(kauffman_bracket(d),
                                                          LOOP_FACTOR)


def test_phi_of_two_parallel_copies():
    gamma = cls(ANNULUS, "a")
    b = BasisElement.from_classes([gamma, gamma])
    q = phi_of_basis(b)
    key2 = GradingS.from_pairs([(gamma, 2)])
    key0 = GradingS.zero()
    keym2 = GradingS.from_pairs([(gamma, -2)])
    assert q == {key2: poly({0: 1}), key0: poly({0: 2}), keym2: poly({0: 1})}


def test_phi_moebius_class_is_two():
    m = cls(MOEBIUS, "a a")
    assert m.kind is CurveKind.MOEBIUS_BOUNDING
    q = phi_of_basis(BasisElement.from_classes([m]))
    assert q == {GradingS.zero(): poly({0: 2})}
    assert phi_expand({}) == {}


def test_euler_characteristic_examples():
    table = homology(GradedComplex(loops_diagram(DISK, "")))
    assert euler_characteristic(table, GradingS.zero()) == LOOP_FACTOR
    table_a = homology(GradedComplex(loops_diagram(ANNULUS, "a")))
    s = GradingS.from_pairs([(cls(ANNULUS, "a"), 1)])
    assert euler_characteristic(table_a, s) == poly({0: 1})
    assert euler_characteristic(table_a, GradingS.zero()) == LaurentPolyA.zero()


def test_categorification_small():
    rng = random.Random(24)
    for surface in ALL_SURFACES:
        for _ in range(3):
            d = random_diagram(surface, rng, max_crossings=4)
            table = homology(GradedComplex(d))
            q = phi_expand(bracket_recursive(d))
            for s in {s for (_, _, s) in table.groups} | set(q):
                assert euler_characteristic(table, s) == q.get(s, LaurentPolyA.zero())


def test_recover_p_inverts_phi():
    gamma = cls(ANNULUS, "a")
    b = BasisElement.from_classes([gamma, gamma])
    q = phi_of_basis(b)
    assert recover_p(q, ANNULUS) == {b: poly({0: 1})}
    assert recover_p({}, ANNULUS) == {}


def test_recover_p_roundtrip_random():
    rng = random.Random(25)
    for surface in (ANNULUS, PANTS, TORUS_HOLE):
        for _ in range(6):
            d = random_diagram(surface, rng, max_crossings=4)
            e = kauffman_bracket(d)
            assert recover_p(phi_expand(e), surface) == e


def test_recover_p_rejects_unorientable():
    with pytest.raises(SkeinError):
        recover_p({}, MOEBIUS)


def test_moebius_grouped_sums():
    m = cls(MOEBIUS, "a a")
    core = cls(MOEBIUS, "a")
    b = BasisElement.from_classes([core])
    bm = BasisElement.from_classes([core, m])
    one = poly({0: 1})
    assert moebius_grouped_sums({b: one}, MOEBIUS) == {b: one}
    assert moebius_grouped_sums({bm: one}, MOEBIUS) == {b: poly({0: 2})}
    assert moebius_grouped_sums({b: one, bm: one}, MOEBIUS) == {b: poly({0: 3})}


def test_trefoil_bracket_value():
    # chi of the computed homology must reproduce the bracket exactly
    table = homology(GradedComplex(trefoil()))
    chi = euler_characteristic(table, GradingS.zero())
    q = phi_expand(bracket_recursive(trefoil()))[GradingS.zero()]
    assert chi == q
    assert expansion_text({BasisElement(): q}).startswith("1 ;")
