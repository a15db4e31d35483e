import os
import pickle
import subprocess
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import bandkh
from bandkh import surface
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


def test_invalid_gradings_raise_on_every_construction():
    """Entries on a non-unbounding class, with a zero coefficient or out of
    class order raise ``ValueError`` each time they are built, as before
    hash-consing: no invalid value enters the intern table."""
    a, b = classify(parse_word("a"), PANTS), classify(parse_word("b"), PANTS)
    bad = {((classify((), PANTS), 1),): "s-grading keys must be unbounding classes",
           ((a, 1), (b, 0)): "zero coefficients must be dropped",
           ((b, 1), (a, 1)): "entries must be strictly sorted by class",
           ((a, 1), (a, 2)): "entries must be strictly sorted by class"}
    for entries, message in bad.items():
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}$"):
                GradingS(entries)
        assert entries not in surface._GRADINGS


def test_classes_and_gradings_pickle_without_their_stored_hash():
    """CurveClass stores its hash when built and GradingS is hash-consed,
    but both pickle by their fields: unpickled under another string-hash
    seed, a value hashes like an equal value built there, and a GradingS
    unpickled in the process that pickled it is the interned object."""
    cls = classify(parse_word("a b"), PANTS)
    values = (cls, GradingS.from_pairs([(cls, 2), (classify(parse_word("a"), PANTS), -1)]))
    for value in values:
        data = pickle.dumps(value)
        assert b"_hash" not in data
        back = pickle.loads(data)
        assert back == value and hash(back) == hash(value)
    assert pickle.loads(pickle.dumps(values[1])) is values[1]
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


def test_threads_that_build_one_grading_get_one_object():
    """Threads that build the same new values at once, each from classes of
    its own surface, get one object per value: the intern table's lookups
    take no lock, but a miss inserts under one."""
    coefficients = range(10**6, 10**6 + 2000)
    got: dict[int, list[GradingS]] = {}
    start = threading.Barrier(6)

    def build(n: int) -> None:
        torus = SurfaceModel.orientable(1, 1)
        a, ab = classify(parse_word("a"), torus), classify(parse_word("a b"), torus)
        start.wait(timeout=30)
        got[n] = [GradingS.from_pairs([(ab, k), (a, -k)]) for k in coefficients]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(n,)) for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and len(got) == 6
    assert all(x is y for row in got.values() for x, y in zip(got[0], row, strict=True))


def test_the_intern_table_holds_only_live_gradings():
    """The intern table holds its values weakly: values no one holds leave
    it, so a run over many distinct s values does not grow it, and a value
    built again after its last holder let go is built, validated and
    ranked anew, and equals the old one by value."""
    torus = SurfaceModel.orientable(1, 1)
    a, ab = classify(parse_word("a"), torus), classify(parse_word("a b"), torus)
    kept = GradingS.from_pairs([(ab, 3), (a, -5)])
    before = len(surface._GRADINGS)
    for k in range(2 * 10**6, 2 * 10**6 + 2000):
        s = GradingS.from_pairs([(ab, k), (a, -k)])
        assert s.sort_key == ((a.sort_key, -k), (ab.sort_key, k))
    del s
    assert len(surface._GRADINGS) <= before
    assert GradingS(((a, -5), (ab, 3))) is kept
    text, key = kept.text, kept.sort_key
    del kept
    again = GradingS.from_pairs([(a, -5), (ab, 3)])
    assert (again.text, again.sort_key) == (text, key) and surface._GRADINGS[again.entries] is again
