import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import bandkh
from bandkh.surface import (
    Catalogue,
    CurveKind,
    GradingS,
    SurfaceModel,
    SurfaceError,
    classify,
    grading_add,
    grading_flip,
    grading_negate,
    inverse_word,
    parse_word,
    reduce_cyclic,
    word_text,
)

DISK = SurfaceModel.planar_holes(0)
ANNULUS = SurfaceModel.planar_holes(1)
PANTS = SurfaceModel.planar_holes(2)
TORUS = SurfaceModel.orientable(1, 1)
MOEBIUS = SurfaceModel.moebius_band()


def test_parse_and_print_words():
    assert parse_word("a b'") == (("a", 1), ("b", -1))
    assert word_text(parse_word("a b' a")) == "a b' a"
    assert parse_word("") == ()


def test_reduce_cyclic_examples():
    assert reduce_cyclic(parse_word("a a'")) == ()
    assert reduce_cyclic(parse_word("a' b a")) == parse_word("b")
    assert reduce_cyclic(parse_word("b a a' b")) == parse_word("b b")


words = st.lists(
    st.tuples(st.sampled_from("abc"), st.sampled_from((1, -1))), max_size=10
).map(tuple)


@given(words)
def test_reduce_cyclic_idempotent(w):
    once = reduce_cyclic(w)
    assert reduce_cyclic(once) == once


@given(words)
def test_reduce_cyclic_inversion_invariant(w):
    assert reduce_cyclic(w) == reduce_cyclic(inverse_word(w))


@given(words, st.integers(0, 9))
def test_reduce_cyclic_rotation_invariant(w, k):
    if w:
        k %= len(w)
        assert reduce_cyclic(w) == reduce_cyclic(w[k:] + w[:k])


@given(words, st.integers(0, 9))
def test_classify_constant_on_class(w, k):
    surface = SurfaceModel.planar_holes(3)
    rotated = w[k % len(w):] + w[:k % len(w)] if w else w
    assert classify(w, surface) == classify(rotated, surface)
    assert classify(w, surface) == classify(inverse_word(w), surface)


def test_classify_kinds():
    assert classify((), DISK).kind is CurveKind.TRIVIAL
    got = classify(parse_word("a a"), MOEBIUS)
    assert got.kind is CurveKind.MOEBIUS_BOUNDING
    assert got.sided == 1
    core = classify(parse_word("a"), MOEBIUS)
    assert core.kind is CurveKind.UNBOUNDING
    assert core.sided == -1
    simple = classify(parse_word("a"), PANTS)
    assert simple.kind is CurveKind.UNBOUNDING
    assert simple.sided == 1
    # every nonempty class on an orientable surface is unbounding
    for text in ("a", "a b", "b a' b"):
        assert classify(parse_word(text), TORUS).kind is CurveKind.UNBOUNDING


def test_classify_rejects_foreign_generators():
    with pytest.raises(SurfaceError):
        classify(parse_word("z"), ANNULUS)


def test_moebius_higher_powers_are_unbounding():
    assert classify(parse_word("a a a"), MOEBIUS).kind is CurveKind.UNBOUNDING


def test_catalogue_invariants():
    assert DISK.catalogue is Catalogue.PLANAR_HOLES and DISK.generators == ()
    assert ANNULUS.attachment == ("a", "a")
    assert PANTS.attachment == ("a", "a", "b", "b")
    assert TORUS.attachment == ("a", "b", "a", "b")
    assert SurfaceModel.orientable(1, 2).attachment == ("a", "b", "a", "b", "c", "c")
    assert MOEBIUS.bands[0].flipped
    assert not TORUS.flipped_symbols()
    with pytest.raises(SurfaceError):
        SurfaceModel.orientable(1, 0)


def _s(surface, *pairs):
    return GradingS.from_pairs(
        (classify(parse_word(w), surface), c) for w, c in pairs)


def test_grading_arithmetic():
    gamma = _s(ANNULUS, ("a", 1))
    assert grading_add(gamma, grading_negate(gamma)) == GradingS.zero()
    two = _s(PANTS, ("a", 2), ("b", -1))
    assert grading_negate(two) == _s(PANTS, ("a", -2), ("b", 1))
    flip = {classify(parse_word("a"), PANTS): -1}
    assert grading_flip(two, flip) == _s(PANTS, ("a", -2), ("b", -1))
    assert two.text == "a:+2,b:-1"
    assert GradingS.zero().text == "0"


def test_grading_rejects_non_unbounding_keys():
    with pytest.raises(ValueError):
        GradingS.from_pairs([(classify((), DISK), 1)])


def test_classes_and_gradings_pickle_without_their_stored_hash():
    """CurveClass and GradingS store their hash when built, but pickle by
    their fields: unpickled under another string-hash seed, a value hashes
    like an equal value built there."""
    cls = classify(parse_word("a b"), PANTS)
    values = (cls, GradingS.from_pairs([(cls, 2), (classify(parse_word("a"), PANTS), -1)]))
    for value in values:
        data = pickle.dumps(value)
        assert b"_hash" not in data
        back = pickle.loads(data)
        assert back == value and hash(back) == hash(value)
    src = os.path.dirname(os.path.dirname(bandkh.__file__))
    probe = ("import pickle, sys\n"
             "from bandkh.surface import GradingS, SurfaceModel, classify, parse_word\n"
             "pants = SurfaceModel.planar_holes(2)\n"
             "cls = classify(parse_word('a b'), pants)\n"
             "fresh = (cls, GradingS.from_pairs([(cls, 2), "
             "(classify(parse_word('a'), pants), -1)]))\n"
             "back = pickle.loads(sys.stdin.buffer.read())\n"
             "print(back == fresh, {v: k for k, v in enumerate(fresh)}[back[1]],"
             " [hash(v) for v in back] == [hash(v) for v in fresh])\n")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        run = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps(values),
                             env=env, capture_output=True, timeout=60)
        assert run.stdout.decode() == "True 1 True\n", run.stderr.decode()
