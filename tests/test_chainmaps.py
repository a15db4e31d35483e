import collections
import io
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from bandkh import chainmaps, cli, linalg, state_complex
from bandkh.diagram import Diagram, apply_r2, apply_r3, mirror
from bandkh.homology import COEFFICIENTS, AbelianGroup, homology, table_isomorphic
from bandkh.linalg import rank_over
from bandkh.chainmaps import (
    _block_rank,
    ChainMap,
    ChainMapError,
    duality_check,
    eta,
    f_embed,
    g_embed,
    gamma_r2,
    long_exact_sequence_check,
    mirror_map,
    r2_pair,
    r3_data,
    reorder_iso,
    rho_I,
    rho_II,
    rho_II_section,
    skein_triple,
    viro_alpha,
    viro_alpha_bar,
    viro_beta,
    viro_beta_bar,
    viro_gamma,
    viro_gamma_hat,
)
from bandkh.state_complex import ComplexError, GradedComplex

import dense_oracle
from dense_oracle import (
    _mat_mul,
    dense_matrix,
    induced_rank,
    iota_embed,
    mat_add,
    mats_equal,
    rank,
    sparse_columns,
)
from helpers import (
    ALL_SURFACES,
    ANNULUS,
    DISK,
    MOEBIUS,
    PANTS,
    TORUS_HOLE,
    c_prime_columns,
    crosscap_shadow,
    g_conjugates_differentials,
    loops_diagram,
    membership_in_c_prime,
    mirror_intertwines,
    random_diagram,
    surface_words,
    trefoil,
    triangle_closure,
    twist_pair,
)


def suite(seed, count_per_surface=2, max_crossings=3):
    rng = random.Random(seed)
    out = []
    for surface in ALL_SURFACES:
        for _ in range(count_per_surface):
            out.append(random_diagram(surface, rng, max_crossings=max_crossings))
    return out


def test_viro_maps_are_chain_maps_and_sequence_is_exact():
    for d in suite(31) + [trefoil()]:
        for p in range(d.n_crossings):
            t = skein_triple(d, p)
            assert viro_alpha(t).commutes()
            assert viro_beta(t).commutes()
            assert viro_gamma(t).commutes()
            assert viro_gamma_hat(t).commutes(-1)
            composite = viro_beta(t).compose(viro_alpha(t))
            assert all(not any(r) for key in composite.blocks
                       for r in composite.block(key))
            report = long_exact_sequence_check(t)
            assert report.ok, report.failures
            assert report.positions_checked > 0


@st.composite
def map_and_differentials(draw):
    """Integer f (m x n), a (p x n) and b (m x q); any side may be 0."""
    m, n, p, q = (draw(st.integers(0, 6)) for _ in range(4))
    entry = st.integers(-3, 3)

    def mat(rows, cols):
        return [[draw(entry) for _ in range(cols)] for _ in range(rows)]

    return mat(m, n), mat(p, n), mat(m, q), n


def _formula(field, f, a, b, f_sparse, a_sparse, b_sparse):
    """The check's rank of the sparse block matrix [[f, b], [a, 0]], less
    the dense ranks of a and b."""
    factors = _block_rank(f_sparse, a_sparse, b_sparse, len(f), len(a))
    return rank_over(factors, field) - rank(a, field) - rank(b, field)


@settings(max_examples=300, deadline=None)
@given(map_and_differentials())
def test_block_rank_formula_matches_kernel_oracle(fabn):
    f, a, b, n = fabn
    for ftag in ("Q", "Z2"):
        assert _formula(ftag, f, a, b, sparse_columns(f, n), sparse_columns(a, n),
                        sparse_columns(b, len(b[0]) if b else 0)) \
            == induced_rank(f, a, b, n, ftag)


def test_block_rank_formula_on_skein_triple_maps():
    for d in suite(44, 1) + [trefoil()]:
        for p in range(d.n_crossings):
            t = skein_triple(d, p)
            for chmap in (viro_alpha(t), viro_beta(t), viro_gamma_hat(t)):
                for key in chmap.source.buckets:
                    ti, tj, ts = chmap.grading(key)
                    b_key = (ti + 2, tj, ts)
                    f = chmap.block(key)
                    a = chmap.source.differential(key)
                    b = chmap.target.differential(b_key)
                    n = chmap.source.dim(key)
                    for ftag in ("Q", "Z2"):
                        assert _formula(ftag, f, a, b, chmap.columns(key),
                                        chmap.source.columns(key),
                                        chmap.target.columns(b_key)) \
                            == induced_rank(f, a, b, n, ftag)


def test_les_check_reports_a_zeroed_connecting_map(monkeypatch):
    real = chainmaps.viro_gamma_hat
    monkeypatch.setattr(chainmaps, "viro_gamma_hat", lambda t: real(t).scale(0))
    report = long_exact_sequence_check(skein_triple(trefoil(), 0))
    assert not report.ok
    assert report.failures == ["Q: not exact at D_0 (i=2,j=4,s=0)",
                               "Q: not exact at D_inf (i=2,j=6,s=0)"]


#: Mutations of the skein-triple maps: (function name, scale), None for none.
#: Scaling gamma_hat by 0 empties its blocks; scaling alpha by 2 keeps its
#: blocks nonzero over Z but makes them zero over Z/2.
_LES_MUTATIONS = (None, ("viro_gamma_hat", 0), ("viro_alpha", 2))


@settings(max_examples=60, deadline=None)
@given(surface=st.sampled_from(ALL_SURFACES), seed=st.integers(0, 10**6),
       mutation=st.sampled_from(_LES_MUTATIONS))
@example(surface=None, seed=0, mutation=None)
@example(surface=None, seed=0, mutation=_LES_MUTATIONS[1])
@example(surface=None, seed=0, mutation=_LES_MUTATIONS[2])
def test_les_check_matches_every_block_oracle(surface, seed, mutation):
    """The report equals the one computed with every rank of d read per call
    and every map block reduced, field by field, at every crossing;
    ``surface`` None stands for the trefoil."""
    d = trefoil() if surface is None else random_diagram(
        surface, random.Random(seed), max_crossings=4)
    with pytest.MonkeyPatch.context() as mp:
        if mutation:
            name, x = mutation
            real = getattr(chainmaps, name)
            mp.setattr(chainmaps, name, lambda t: real(t).scale(x))
        for p in range(d.n_crossings):
            for fields in (("Q", "Z2"), ("Z2",)):
                t = skein_triple(d, p)
                got = long_exact_sequence_check(t, fields)
                want = dense_oracle.les_report(t, fields)
                assert (got.ok, got.failures, got.positions_checked) \
                    == (want.ok, want.failures, want.positions_checked)


@settings(max_examples=30, deadline=None)
@given(surface=st.sampled_from(ALL_SURFACES), seed=st.integers(0, 10**6),
       mutation=st.sampled_from(_LES_MUTATIONS),
       fields=st.sampled_from((("Q",), ("Z2",), ("Z2", "Q"))))
@example(surface=None, seed=0, mutation=None, fields=("Z2", "Q"))
@example(surface=None, seed=0, mutation=_LES_MUTATIONS[2], fields=("Z2", "Q"))
@example(surface=None, seed=0, mutation=_LES_MUTATIONS[2], fields=("Q",))
def test_les_check_matches_the_oracle_under_each_field_choice(surface, seed, mutation,
                                                              fields):
    """The report equals the oracle's under one field alone and with Z/2
    listed first, with the skein-triple maps unmutated or scaled as in
    :data:`_LES_MUTATIONS`; ``surface`` None stands for the trefoil."""
    d = trefoil() if surface is None else random_diagram(
        surface, random.Random(seed), max_crossings=4)
    with pytest.MonkeyPatch.context() as mp:
        if mutation:
            name, x = mutation
            real = getattr(chainmaps, name)
            mp.setattr(chainmaps, name, lambda t: real(t).scale(x))
        for p in range(d.n_crossings):
            t = skein_triple(d, p)
            got = long_exact_sequence_check(t, fields)
            want = dense_oracle.les_report(t, fields)
            assert (got.ok, got.failures, got.positions_checked) \
                == (want.ok, want.failures, want.positions_checked)


def test_les_check_reads_each_rank_once_per_field(monkeypatch):
    """Every factor list goes through ``rank_over`` once per ring: Z/2, which
    decides where homology lives, is not read twice when it is a field.  The
    ranks of d are read in the complex's rank table, the induced ranks in the
    check, so both bindings are recorded."""
    tags = []
    real = linalg.rank_over
    for module in (state_complex, chainmaps):
        monkeypatch.setattr(module, "rank_over",
                            lambda factors, ftag: tags.append(ftag) or real(factors, ftag))
    d = twist_pair(PANTS, "a", 3)
    for fields, rings in ((("Q", "Z2"), {"Q", "Z2"}), (("Z2", "Q"), {"Q", "Z2"}),
                          (("Z2",), {"Z2"}), (("Q",), {"Q", "Z2"})):
        tags.clear()
        assert long_exact_sequence_check(skein_triple(d, 1), fields).ok
        counts = collections.Counter(tags)
        assert set(counts) == rings and len(set(counts.values())) == 1, counts


class _Tagged(tuple):
    """A factor list told apart by identity from equal lists of other
    complexes: an equal plain tuple, such as ``(1,)``, may be one object."""


def test_verify_reads_each_rank_of_cp_once_per_ring(monkeypatch):
    """One ``verify --suite=les`` builds the rank table of its complex once,
    not once per crossing: each of cp's factor lists goes through
    ``rank_over`` once per ring."""
    tagged, calls = {}, collections.Counter()
    real_factors, real_rank = GradedComplex.factors, state_complex.rank_over

    def factors(cx):
        if cx.frozen:
            return real_factors(cx)
        if id(cx) not in tagged:  # keeps cx, so its id stays its own
            tagged[id(cx)] = cx, {key: _Tagged(f) for key, f in real_factors(cx).items()}
        return tagged[id(cx)][1]

    def rank_over(factors, ring):
        if isinstance(factors, _Tagged):
            calls[id(factors), ring] += 1
        return real_rank(factors, ring)

    monkeypatch.setattr(GradedComplex, "factors", factors)
    monkeypatch.setattr(state_complex, "rank_over", rank_over)
    d = twist_pair(PANTS, "a", 4)
    out = io.StringIO()
    assert cli.run_verify(d, ["les"], out) == 0
    assert out.getvalue().count("PASS les") == d.n_crossings == 4
    (_, lists), = tagged.values()
    assert dict(calls) == {(id(f), ring): 1 for f in lists.values() for ring in ("Q", "Z2")}


@pytest.mark.parametrize("mutation", _LES_MUTATIONS)
def test_les_check_on_one_cp_matches_the_oracle_under_each_tag_tuple(monkeypatch,
                                                                     mutation):
    """Checks whose triples share one cp, and so its stored rank tables,
    report what the oracle does under Q, Z/2, and both in either order, with
    the skein-triple maps unmutated or scaled as in :data:`_LES_MUTATIONS`.
    The trefoil has Z/2 torsion, so its Q and Z/2 ranks of d differ."""
    if mutation:
        name, x = mutation
        real = getattr(chainmaps, name)
        monkeypatch.setattr(chainmaps, name, lambda t: real(t).scale(x))
    d = trefoil()
    cp = GradedComplex(d)
    for fields in (("Q",), ("Z2",), ("Z2", "Q"), ("Q", "Z2")):
        for p in range(d.n_crossings):
            t = skein_triple(d, p, cp)
            got = long_exact_sequence_check(t, fields)
            want = dense_oracle.les_report(t, fields)
            assert (got.ok, got.failures, got.positions_checked) \
                == (want.ok, want.failures, want.positions_checked), (fields, p)


def _capture_les_maps(mp, mutation=None):
    """Patch the skein-triple maps on :mod:`bandkh.chainmaps`, scaled as
    ``mutation`` asks (see :data:`_LES_MUTATIONS`), to record every map they
    build, and ``_block_rank`` to record the map block of every reduction.
    Returns the two lists: the maps, and the reduced blocks."""
    maps, reduced = [], []
    for name in ("viro_alpha", "viro_beta", "viro_gamma_hat"):
        x = mutation[1] if mutation and mutation[0] == name else 1
        real = getattr(chainmaps, name)
        mp.setattr(chainmaps, name,
                   lambda t, real=real, x=x: maps.append(real(t).scale(x)) or maps[-1])
    real_rank = chainmaps._block_rank
    mp.setattr(chainmaps, "_block_rank",
               lambda f, *args: reduced.append(f) or real_rank(f, *args))
    return maps, reduced


def test_les_check_reduces_only_nonzero_map_blocks(monkeypatch):
    """One block-matrix reduction per (map, key) pair whose block has a
    nonzero entry and whose source and target keys both have nonzero
    homology over Z/2; nonzero blocks at a key with none are there too."""
    maps, reduced = _capture_les_maps(monkeypatch)
    d = twist_pair(PANTS, "a", 4)
    for p in range(d.n_crossings):
        maps.clear()
        reduced.clear()
        t = skein_triple(d, p)
        assert long_exact_sequence_check(t).ok
        z2 = {cx: homology(cx, "Z2") for cx in (t.cp, t.c0, t.cinf)}
        nonzero = [(chmap, key) for chmap in maps
                   for key, block in chmap.blocks.items() if any(block)]
        live = [chmap.blocks[key] for chmap, key in nonzero
                if z2[chmap.source].group(key).rank
                and z2[chmap.target].group(chmap.grading(key)).rank]
        assert 0 < len(live) < len(nonzero)
        assert len(reduced) == len(live)
        assert {id(f) for f in reduced} == {id(f) for f in live}


@settings(max_examples=40, deadline=None)
@given(surface=st.sampled_from(ALL_SURFACES), seed=st.integers(0, 10**6),
       mutation=st.sampled_from(_LES_MUTATIONS))
@example(surface=DISK, seed=0, mutation=None)
def test_les_check_leaves_unreduced_only_blocks_inducing_zero(surface, seed, mutation):
    """Every map block the check does not reduce induces rank 0 over Q and
    over Z/2 by the oracle's block-rank formula, at every crossing, with the
    skein-triple maps unmutated or scaled as in :data:`_LES_MUTATIONS`."""
    d = random_diagram(surface, random.Random(seed), max_crossings=4)
    with pytest.MonkeyPatch.context() as mp:
        maps, reduced = _capture_les_maps(mp, mutation)
        for p in range(d.n_crossings):
            maps.clear()
            reduced.clear()
            long_exact_sequence_check(skein_triple(d, p))  # may fail if mutated
            done = {id(f) for f in reduced}
            skipped = [(chmap, key) for chmap in maps
                       for key, block in chmap.blocks.items() if id(block) not in done]
            for chmap, key in skipped:
                assert dense_oracle.les_induced_ranks(chmap, key) == (0, 0), \
                    (p, chmap.name, key)


def test_les_workload_checks_every_position():
    """The check at every crossing of the seven 4-crossing twists of the
    ``les`` benchmark workload counts 3 168 (position, field) pairs: no
    position is skipped."""
    curves = ((DISK, ""), (ANNULUS, "a"), (PANTS, "a"), (PANTS, "b"),
              (PANTS, "a b"), (TORUS_HOLE, "a"), (MOEBIUS, "a"))
    total = 0
    for surface, word in curves:
        d = twist_pair(surface, word, 4)
        cx = GradedComplex(d)
        for p in range(d.n_crossings):
            report = long_exact_sequence_check(skein_triple(d, p, cx))
            assert report.ok, report.failures
            total += report.positions_checked
    assert total == 3168


def test_les_check_builds_each_induced_block_once(monkeypatch):
    """One ChainMap.columns read per distinct (map, key) pair, shared by both
    fields, and no dense ChainMap.block view."""
    calls, dense = [], []
    real = chainmaps.ChainMap.columns

    def columns(self, key):
        calls.append((self.name, key))
        return real(self, key)

    monkeypatch.setattr(chainmaps.ChainMap, "columns", columns)
    monkeypatch.setattr(chainmaps.ChainMap, "block",
                        lambda self, key: dense.append(key))
    d = twist_pair(PANTS, "a", 4)
    for p in range(d.n_crossings):
        t = skein_triple(d, p)
        calls.clear()
        assert long_exact_sequence_check(t).ok
        assert calls and len(calls) == len(set(calls))
    assert not dense


def test_les_check_reduces_each_block_once_for_every_field(monkeypatch):
    """A second field adds no reduction: every block's ranks over Q and Z/2
    are read off one Smith normal form of its residue.  The d blocks are
    reduced once per complex, so a second check on the same triple reduces
    only its block matrices."""
    calls = []
    real = linalg.smith_normal_form

    def smith_normal_form(matrix):
        calls.append(matrix)
        return real(matrix)

    monkeypatch.setattr(linalg, "smith_normal_form", smith_normal_form)
    d = twist_pair(PANTS, "a", 4)
    for p in range(d.n_crossings):
        counts = []
        for fields in (("Q",), ("Z2",), ("Q", "Z2")):
            t = skein_triple(d, p)
            calls.clear()
            assert long_exact_sequence_check(t, fields).ok
            counts.append(len(calls))
        assert counts[0] > 0 and len(set(counts)) == 1
        calls.clear()
        assert long_exact_sequence_check(t).ok
        assert len(calls) == counts[-1] - (
            len(t.cp.sizes) + len(t.c0.sizes) + len(t.cinf.sizes))


def test_homology_and_les_check_reduce_each_block_of_the_complex_once(monkeypatch):
    """``homology`` over Z, Q and Z/2 and the LES check at every crossing of
    triples built on one complex share one reduction of each block of d."""
    reduced = []
    real = linalg.eliminate_units

    def eliminate_units(columns, rows):
        reduced.append(columns)
        return real(columns, rows)

    monkeypatch.setattr(linalg, "eliminate_units", eliminate_units)
    d = twist_pair(PANTS, "a", 3)
    cx = GradedComplex(d)
    for coefficients in COEFFICIENTS:
        homology(cx, coefficients)
    for p in range(d.n_crossings):
        assert long_exact_sequence_check(skein_triple(d, p, cx)).ok
    # A stored block is reduced as itself; block matrices are new lists.
    assert [sum(m is cx.columns(key) for m in reduced) for key in cx.sizes] \
        == [1] * len(cx.sizes)


def test_les_check_builds_no_dense_differential(monkeypatch):
    """The check reads the stored sparse blocks: at most one differential
    call per complex, the one that assembles its blocks."""
    calls = []
    real = GradedComplex.differential

    def differential(self, key):
        calls.append(self)
        return real(self, key)

    monkeypatch.setattr(GradedComplex, "differential", differential)
    d = twist_pair(PANTS, "a", 4)
    for p in range(d.n_crossings):
        t = skein_triple(d, p)
        calls.clear()
        assert long_exact_sequence_check(t).ok
        assert calls
        assert len(calls) == len(set(map(id, calls))) <= 3


def _r2_big(d, site):
    """``d`` with a fresh free loop pushed across ``site`` by a second move."""
    with_loop = Diagram(d.surface, d.crossings, d.edges, d.loops + ((),))
    return apply_r2(with_loop, ("loop", len(d.loops)), site)


def test_les_check_builds_no_state_objects(monkeypatch):
    """The skein triples, their maps and the check read the row tables
    only, and so do the maps between two diagrams and the R3 package with
    its C' columns: no EnhancedState or StateKey is built."""
    assert not {"EnhancedState", "StateKey"} & set(vars(chainmaps))
    built = []
    for name in ("EnhancedState", "StateKey"):
        cls = getattr(state_complex, name)
        monkeypatch.setattr(state_complex, name,
                            lambda *args, cls=cls: built.append(cls) or cls(*args))
    d = twist_pair(PANTS, "a", 4)
    cx = GradedComplex(d)
    for p in range(d.n_crossings):
        assert long_exact_sequence_check(skein_triple(d, p, cx)).ok
    mirror_map(d)
    reorder_iso(d, [2, 0, 3, 1])
    rho_I(d, ("edge", 1), "right")
    rho_II(r2_pair(GradedComplex(_r2_big(d, ("edge", 2))), 0, 1))
    data = r3_data(*triangle_closure(TORUS_HOLE, 1, surface_words(TORUS_HOLE)[-1]))
    for key in data.triple.cp.sizes:
        c_prime_columns(data, key)
    assert built == []


def test_skein_triple_shares_the_smoothings_of_cp():
    d = twist_pair(PANTS, "a", 3)
    cx = GradedComplex(d)
    t = skein_triple(d, 1, cx)
    for frozen in (t.c0, t.cinf):
        assert frozen._smooth_cache is cx._smooth_cache
        assert frozen._class_ids is cx._class_ids
        assert frozen._flips is cx._flips
    with pytest.raises(ComplexError, match="same diagram"):
        GradedComplex(trefoil(), share=cx)


def test_no_frozen_complex_enumerates_itself(monkeypatch):
    """A frozen complex, built with ``share`` or without, reads its states
    off the complex it extends: ``_enumerate`` runs on unfrozen complexes
    only, once for each one built (a frozen complex without ``share`` builds
    its diagram's), so an R2 pair's ``small`` and ``tilde`` enumerate
    nothing.  Every block of d and d+ of them is then swept."""
    enumerated = []

    def guarded(self, real=GradedComplex._enumerate):
        if self.frozen:
            raise AssertionError(f"_enumerate ran on a complex frozen at {self.frozen}")
        enumerated.append(self.diagram)
        return real(self)

    monkeypatch.setattr(GradedComplex, "_enumerate", guarded)
    d = twist_pair(PANTS, "a", 3)
    big = _r2_big(d, ("edge", 2))
    pairs = [r2_pair(GradedComplex(big), 0, 1), r2_pair(GradedComplex(big, {3: -1}), 0, 1)]
    data = r3_data(*triangle_closure(TORUS_HOLE, 1, surface_words(TORUS_HOLE)[-1]))
    complexes = [GradedComplex(d, {0: 1})]
    for t in (skein_triple(d, 1), skein_triple(d, 1, GradedComplex(d)),
              data.triple, data.triple2):
        complexes += [t.c0, t.cinf]
    for pair in pairs + [data.pair, data.pair2]:
        complexes += [pair.big, pair.small, pair.tilde]
    assert len(enumerated) == 7
    assert [enumerated.count(x) for x in (d, big, data.diagram, data.moved)] == [3, 2, 1, 1]
    for cx in complexes:
        for key in cx.sizes:
            cx.differential(key)
            cx.d_plus(key)


def test_r3_data_enumerates_each_diagram_once(monkeypatch):
    """``r3_data`` builds one unfrozen complex per diagram: each R2 pair is
    read off its skein triple's ``c0``."""
    calls = []
    real = GradedComplex._enumerate
    monkeypatch.setattr(GradedComplex, "_enumerate",
                        lambda self: calls.append(self.diagram) or real(self))
    data = r3_data(*triangle_closure(TORUS_HOLE, 1, surface_words(TORUS_HOLE)[-1]))
    assert calls == [data.diagram, data.moved]
    assert data.pair.big is data.triple.c0 and data.pair2.big is data.triple2.c0


def test_les_check_derives_each_flip_rule_once_per_diagram(monkeypatch):
    """A skein triple's frozen complexes reuse the flip rules of ``cp``: the
    checks at every crossing derive one rule per (markers, crossing) with a
    +1 marker there, 2^(n-1) n in all."""
    derived = []
    real = GradedComplex._derive_flip

    def derive_flip(self, markers, pos):
        derived.append((markers, pos))
        return real(self, markers, pos)

    monkeypatch.setattr(GradedComplex, "_derive_flip", derive_flip)
    d = twist_pair(PANTS, "a", 4)
    cx = GradedComplex(d)
    for p in range(d.n_crossings):
        assert long_exact_sequence_check(skein_triple(d, p, cx)).ok
    assert len(derived) == len(set(derived)) == 32


def _same_map(got, want):
    assert got.name == want.name and list(got.blocks) == list(want.blocks)
    assert got.blocks == want.blocks
    assert all(got.grading(key) == want.grading(key) for key in got.blocks)


def test_row_maps_match_state_by_state_builds():
    """Every map built from the row tables equals the state-by-state build
    it replaced, block by block and entry by entry, in order: the
    skein-triple maps at every crossing, the sign maps, the second-move maps,
    the mirror, reorder and first-move maps between two diagrams, and the
    R3 transports on every triangle closure."""
    rng = random.Random(11)
    for d in [twist_pair(PANTS, "a", 3), trefoil()] + suite(12, 2, 4):
        cx = GradedComplex(d)
        for name, build in dense_oracle.SIGN_MAPS.items():
            _same_map(getattr(chainmaps, name)(cx), build(cx))
        for p in range(d.n_crossings):
            t = skein_triple(d, p, cx)
            for name, build in dense_oracle.VIRO_MAPS.items():
                _same_map(getattr(chainmaps, name)(t), build(t))
        sites = [("edge", k) for k in range(len(d.edges))]
        sites += [("loop", k) for k in range(len(d.loops))]
        pair = r2_pair(GradedComplex(_r2_big(d, rng.choice(sites))), 0, 1)
        for name, build in dense_oracle.R2_MAPS.items():
            _same_map(getattr(chainmaps, name)(pair), build(pair))
        _same_map(g_embed(pair), dense_oracle.g_embed(pair))
        _same_map(mirror_map(d)[0], dense_oracle.mirror_map(d))
        perm = rng.sample(range(d.n_crossings), d.n_crossings)
        _same_map(reorder_iso(d, perm), dense_oracle.reorder_iso(d, perm))
        site, side = rng.choice(sites), rng.choice(("left", "right"))
        _same_map(rho_I(d, site, side)[0], dense_oracle.rho_I(d, site, side))
    for surface in ALL_SURFACES:
        for closure in range(5):
            d, site = triangle_closure(surface, closure, surface_words(surface)[-1])
            data = r3_data(d, site)
            nu, f_inf = dense_oracle.r3_transports(d, site)
            _same_map(data.nu, nu)
            _same_map(data.f_inf, f_inf)


def test_rho_I_and_reorder_iso_match_state_by_state_builds_at_every_site():
    """rho_I equals its state-by-state build at every edge and loop site, on
    both sides, of diagrams with three and four free loops, so kinking a
    loop that is not the last shifts the loops after it; reorder_iso equals
    its build under every permutation of three crossings, with free loops."""
    for d in (twist_pair(PANTS, "a", 2, extra_loops=("b", "", "a")),
              loops_diagram(PANTS, "a", "", "b", "")):
        sites = [("edge", k) for k in range(len(d.edges))]
        sites += [("loop", k) for k in range(len(d.loops))]
        for site in sites:
            for side in ("left", "right"):
                _same_map(rho_I(d, site, side)[0], dense_oracle.rho_I(d, site, side))
    d = twist_pair(PANTS, "a", 3, extra_loops=("b", ""))
    for perm in itertools.permutations(range(d.n_crossings)):
        _same_map(reorder_iso(d, perm), dense_oracle.reorder_iso(d, perm))


def test_transport_rejects_circles_that_do_not_correspond():
    """A wrong anchor table raises ChainMapError, not KeyError: the mirror
    without its slot rotation (a target circle reaches several source circles)
    and with no anchors at all (no source circle is matched).  g_embed at the
    twist bigon of the Hopf link, which is no R2 site, fails its
    small-circle count."""
    d = trefoil()
    cx, cxm = GradedComplex(d), GradedComplex(mirror(d))
    negate = lambda markers: tuple(-m for m in markers)
    for anchors in (list(range(12)), [-1] * 12):
        step = chainmaps._transport(cx, cxm, anchors, negate, negate=True)
        with pytest.raises(ChainMapError, match="do not correspond"):
            ChainMap.build(cx, cxm, chainmaps._negate_key, step, "mirror")
    with pytest.raises(ChainMapError, match="R2 small-circle detection failed"):
        g_embed(r2_pair(GradedComplex(twist_pair(DISK, "", 2)), 0, 1,
                        internal_edges=frozenset({0})))


def test_row_map_rejects_an_entry_off_its_grading(monkeypatch):
    """Within one diagram and between two, an image off ``grading(key)``
    raises with the map's name."""
    t = skein_triple(trefoil(), 1)
    with pytest.raises(ChainMapError, match=r"alpha: state lands in .*, expected"):
        ChainMap.build(t.cinf, t.cp, lambda key: key, lambda m: (1, m, None), "alpha")
    # rho_I's transport under the identity grading, not its (-1, -3) shift.
    monkeypatch.setattr(chainmaps, "_shift", lambda di, dj: lambda key: key)
    with pytest.raises(ChainMapError, match=r"rho_I: state lands in .*, expected"):
        rho_I(trefoil(), ("edge", 0))


def test_les_check_rejects_unknown_field():
    with pytest.raises(ChainMapError, match="unknown field"):
        long_exact_sequence_check(skein_triple(trefoil(), 0), ("Q", "R"))


def test_les_check_rejects_an_empty_field_tuple():
    """With no field there is nothing to check, so no report says ok."""
    with pytest.raises(ChainMapError, match="no field"):
        long_exact_sequence_check(skein_triple(trefoil(), 0), ())


@pytest.mark.parametrize("fields", [("Q", "Z2"), ("Q",)])
@pytest.mark.parametrize("p", [0, 1])
def test_les_check_refuses_a_complex_whose_d_does_not_square_to_zero(p, fields):
    """The exactness ranks assume d o d = 0: on the crosscap shadow, where
    the every-block oracle reports Q failures, the check raises instead of
    reporting ok."""
    t = skein_triple(crosscap_shadow(), p)
    assert not dense_oracle.les_report(t, fields).ok
    with pytest.raises(ComplexError, match=r"does not square to zero in block \(j=0,s=0\)"):
        long_exact_sequence_check(t, fields)


def test_skein_triple_reuses_only_the_unfrozen_complex_of_its_diagram():
    d = trefoil()
    cx = GradedComplex(d)
    assert skein_triple(d, 1, cx).cp is cx
    for wrong in (GradedComplex(d, {0: 1}), GradedComplex(twist_pair(DISK, "", 2))):
        with pytest.raises(ChainMapError, match="unfrozen complex"):
            skein_triple(d, 1, wrong)
    with pytest.raises(ChainMapError, match="bad distinguished crossing"):
        skein_triple(d, 3, cx)


#: Small complexes for random chain maps; under the shifted gradings some
#: target blocks are empty, so 0-row blocks occur.
_SMALL = (GradedComplex(twist_pair(DISK, "", 2)), GradedComplex(trefoil()))
_GRADINGS = (lambda key: key, lambda key: (key[0], key[1] + 2, key[2]),
             lambda key: (key[0] - 2, key[1], key[2]))


@st.composite
def random_map(draw, source=None, target=None, grading=None):
    """A ChainMap with random blocks (entries -2..2) between small complexes."""
    src = source or draw(st.sampled_from(_SMALL))
    tgt = target or draw(st.sampled_from(_SMALL))
    grade = grading or draw(st.sampled_from(_GRADINGS))
    blocks = {}
    for key in src.buckets:
        cols = src.dim(key)
        mat = [[draw(st.integers(-2, 2)) for _ in range(cols)]
               for _ in range(tgt.dim(grade(key)))]
        blocks[key] = sparse_columns(mat, cols)
    return ChainMap(src, tgt, grade, blocks)


def _check_dense(chmap, key, want):
    """``chmap.block(key)`` has its full shape and equals ``want``."""
    got = chmap.block(key)
    rows, cols = chmap.target.dim(chmap.grading(key)), chmap.source.dim(key)
    assert len(got) == rows and all(len(row) == cols for row in got)
    assert mats_equal(got, want)
    for column in chmap.columns(key):
        assert all(v for _r, v in column)
        assert len({r for r, _v in column}) == len(column)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_add_and_scale_match_dense(data):
    m1 = data.draw(random_map())
    m2 = data.draw(random_map(m1.source, m1.target, m1.grading))
    x = data.draw(st.integers(-2, 2))
    total, scaled = m1.add(m2), m1.scale(x)
    for key in m1.source.buckets:
        _check_dense(total, key, mat_add(m1.block(key), m2.block(key)))
        _check_dense(scaled, key, [[x * v for v in row] for row in m1.block(key)])
    # m - m cancels to the zero map.
    zero = m1.add(m1.scale(-1))
    assert all(not column for m in zero.blocks.values() for column in m)


def test_add_pads_a_block_that_one_side_lacks():
    """A block missing from one operand counts as zero, not as an empty
    block that empties the sum."""
    cx = GradedComplex(twist_pair(PANTS, "a", 2))
    whole = eta(cx)
    assert [[(0, 1)]] in whole.blocks.values()
    for key in cx.sizes:
        part = ChainMap(cx, cx, whole.grading,
                        {k: v for k, v in whole.blocks.items() if k != key}, "part")
        for total in (whole.add(part), part.add(whole)):
            assert total.columns(key) == whole.columns(key)
            assert all(total.columns(k) == whole.scale(2).columns(k)
                       for k in cx.sizes if k != key)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_compose_matches_dense_product(data):
    inner = data.draw(random_map())
    outer = data.draw(random_map(inner.target))
    composite = outer.compose(inner)
    for key in inner.source.buckets:
        _check_dense(composite, key, _mat_mul(outer.block(inner.grading(key)),
                                              inner.block(key)))


def _dense_commutes(chmap, sign):
    """The dense check of commutes(): d . M == sign * M . d on dense views."""
    for key in set(chmap.source.buckets) | set(chmap.blocks):
        i, j, s = key
        lhs = _mat_mul(chmap.target.differential(chmap.grading(key)),
                       chmap.block(key))
        rhs = _mat_mul(chmap.block((i - 2, j, s)), chmap.source.differential(key))
        if not mats_equal(lhs, [[sign * v for v in row] for row in rhs]):
            return False
    return True


def _perturbed(chmap):
    """``chmap`` with 1 added at one entry whose target row d does not kill,
    which must break commutation; None when there is no such entry."""
    for key in chmap.source.buckets:
        d_out = chmap.target.columns(chmap.grading(key))
        row = next((r for r, column in enumerate(d_out) if column), None)
        if row is None:
            continue
        blocks = dict(chmap.blocks)
        column = dict(blocks[key][0])
        column[row] = column.get(row, 0) + 1
        blocks[key] = [[(r, v) for r, v in column.items() if v]] + blocks[key][1:]
        return ChainMap(chmap.source, chmap.target, chmap.grading, blocks)
    return None


def test_commutes_matches_dense_check():
    perturbed = 0
    for d in suite(45, 1) + [trefoil()]:
        maps = [(eta(GradedComplex(d)), -1)]
        for p in range(d.n_crossings):
            t = skein_triple(d, p)
            maps += [(viro_alpha(t), 1), (viro_beta(t), 1), (viro_gamma(t), 1),
                     (viro_gamma_hat(t), -1)]
        for chmap, sign in maps:
            assert chmap.commutes(sign) and _dense_commutes(chmap, sign)
            assert chmap.commutes(-sign) == _dense_commutes(chmap, -sign)
            bad = _perturbed(chmap)
            if bad is not None:
                perturbed += 1
                assert not bad.commutes(sign)
                assert not _dense_commutes(bad, sign)
    assert perturbed > 0


def test_viro_splittings():
    d = suite(32, 1)[1]
    for p in range(d.n_crossings):
        t = skein_triple(d, p)
        beta, beta_bar = viro_beta(t), viro_beta_bar(t)
        alpha, alpha_bar = viro_alpha(t), viro_alpha_bar(t)
        for key in t.c0.buckets:
            n = t.c0.dim(key)
            prod = _mat_mul(beta.block(beta_bar.grading(key)), beta_bar.block(key))
            assert mats_equal(prod, [[1 if r == c else 0 for c in range(n)]
                                     for r in range(n)])
        for key in t.cinf.buckets:
            n = t.cinf.dim(key)
            prod = _mat_mul(alpha_bar.block(alpha.grading(key)), alpha.block(key))
            ident = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
            assert mats_equal(prod, ident)


def test_gamma_hat_is_minus_one_to_m_times_gamma():
    d = suite(33, 1)[2]
    for p in range(d.n_crossings):
        t = skein_triple(d, p)
        g, gh = viro_gamma(t), viro_gamma_hat(t)
        for key, bucket in t.c0.buckets.items():
            gb, ghb = g.block(key), gh.block(key)
            for c, state in enumerate(bucket):
                sign = (-1) ** state.m_neg
                for r in range(len(gb)):
                    assert ghb[r][c] == sign * gb[r][c]


def test_eta_antichain_and_skew_commutation():
    for d in suite(34, 1):
        cx = GradedComplex(d)
        e = eta(cx)
        assert e.commutes(-1)
        square = e.compose(e)
        for key in cx.buckets:
            n = cx.dim(key)
            assert mats_equal(square.block(key),
                              [[1 if r == c else 0 for c in range(n)] for r in range(n)])
        for p in range(d.n_crossings):
            t = skein_triple(d, p)
            al = viro_alpha(t)
            lhs = al.compose(eta(t.cinf))
            rhs = eta(t.cp).compose(al).scale(-1)
            for key in t.cinf.buckets:
                assert mats_equal(lhs.block(key), rhs.block(key))


def test_g_map_conjugates_d_to_d_plus():
    for d in suite(35, 1):
        assert g_conjugates_differentials(GradedComplex(d))


def test_mirror_map_intertwines_and_duality_holds():
    for d in suite(36, 1) + [trefoil()]:
        assert mirror_intertwines(d)
        report = duality_check(d)
        assert report.ok, report.failures


def test_duality_check_names_gradings_as_text(monkeypatch):
    """A mirror table off by one free rank and a Z/2 in every group fails
    duality at each grading, named (i=..,j=..,s=..) by the text of s."""
    real, tables = chainmaps.homology, []

    def perturbed(cx):
        tables.append(real(cx))
        if len(tables) == 2:
            table = tables[-1]
            for key, group in table.groups.items():
                table.groups[key] = AbelianGroup(group.rank + 1, (2,))
        return tables[-1]

    monkeypatch.setattr(chainmaps, "homology", perturbed)
    assert duality_check(loops_diagram(ANNULUS, "a")).failures == [
        f"{what} mismatch at (i=0,j=0,s=a:{sign}1)"
        for what in ("rank", "torsion") for sign in "+-"]


def test_duality_check_reuses_only_the_unfrozen_complex_of_its_diagram():
    d = trefoil()
    cx = GradedComplex(d)
    assert duality_check(d, cx) == duality_check(d)
    assert cx._factors is not None  # the table was read off the passed complex
    for wrong in (GradedComplex(d, {0: 1}), GradedComplex(mirror(d))):
        with pytest.raises(ChainMapError, match="unfrozen complex"):
            duality_check(d, wrong)


def test_duality_zero_crossing_self_mirror():
    report = duality_check(loops_diagram(ANNULUS, "a"))
    assert report.ok


def test_reorder_iso_chain_map_and_naturality():
    rng = random.Random(37)
    for d in suite(38, 1):
        if d.n_crossings < 2:
            continue
        n = d.n_crossings
        p1 = list(range(n)); rng.shuffle(p1)
        f12 = reorder_iso(d, p1)
        assert f12.commutes()
        # naturality: composing two reorderings equals the combined one
        from bandkh.diagram import reorder_crossings
        d2 = reorder_crossings(d, p1)
        p2 = list(range(n)); rng.shuffle(p2)
        f23 = reorder_iso(d2, p2)
        p13 = [p1[p2[k]] for k in range(n)]
        f13 = reorder_iso(d, p13)
        comp = f23.compose(f12)
        for key in f13.source.buckets:
            assert mats_equal(comp.block(key), f13.block(key))


def test_reorder_transposition_signs():
    d = random_diagram(DISK, random.Random(39), max_crossings=2)
    if d.n_crossings == 2:
        f = reorder_iso(d, [1, 0])
        for key, bucket in f.source.buckets.items():
            blk = f.block(key)
            for c, state in enumerate(bucket):
                negatives = sum(1 for m in state.markers if m < 0)
                expected = -1 if negatives == 2 else 1
                row = f.target.locate(tuple(state.markers[[1, 0][k]] for k in range(2)),
                                      _relabel(f, state))[1]
                assert blk[row][c] == expected


def _relabel(f, state):
    src = f.source.smoothing(state.markers)
    by_key = {c.key: lab for c, lab in zip(src.circles, state.labels)}
    markers2 = tuple(state.markers[[1, 0][k]] for k in range(2))
    tgt = f.target.smoothing(markers2)
    return tuple(by_key[c.key] for c in tgt.circles)


def test_rho_I_chain_map_and_iso():
    rng = random.Random(40)
    for d in suite(41, 1):
        sites = [("edge", k) for k in range(len(d.edges))]
        sites += [("loop", k) for k in range(len(d.loops))]
        site = rng.choice(sites)
        side = rng.choice(("left", "right"))
        cm, kinked = rho_I(d, site, side)
        assert cm.commutes()
        assert table_isomorphic(homology(GradedComplex(d)),
                                homology(GradedComplex(kinked)), (-1, -3))


def test_rho_II_full_identity_suite():
    rng = random.Random(42)
    for d in suite(43, 1):
        with_loop = Diagram(d.surface, d.crossings, d.edges, d.loops + ((),))
        fresh = len(with_loop.loops) - 1
        sites = [("edge", k) for k in range(len(d.edges))]
        sites += [("loop", k) for k in range(len(d.loops))]
        if not sites:
            continue
        big = apply_r2(with_loop, ("loop", fresh), rng.choice(sites))
        pair = r2_pair(GradedComplex(big), 0, 1)
        r2m = rho_II(pair)
        assert r2m.commutes()
        assert gamma_r2(pair).commutes()
        f, g, io, gm = f_embed(pair), g_embed(pair), iota_embed(pair), gamma_r2(pair)
        iog = io.compose(gm)
        # d f = f d + (-1)^m iota gamma
        for key in pair.small.buckets:
            i, j, s = key
            lhs = _mat_mul(pair.big.differential(f.grading(key)), f.block(key))
            fd = _mat_mul(f.block((i - 2, j, s)), pair.small.differential(key))
            cols = pair.small.buckets[key]
            blk = iog.block(key)
            corr = [[blk[r][c] * (-1) ** cols[c].m_neg for c in range(len(cols))]
                    for r in range(len(blk))]
            assert mats_equal(lhs, mat_add(fd, corr))
        # d g = g d + (-1)^{m+1} iota
        for key in pair.tilde.buckets:
            i, j, s = key
            lhs = _mat_mul(pair.big.differential(g.grading(key)), g.block(key))
            gd = _mat_mul(g.block((i - 2, j, s)), pair.tilde.differential(key))
            cols = pair.tilde.buckets[key]
            blk = io.block(key)
            corr = [[blk[r][c] * (-1) ** (cols[c].m_neg + 1)
                     for c in range(len(cols))] for r in range(len(blk))]
            assert mats_equal(lhs, mat_add(gd, corr))
        # rho_II has a left inverse on its image, given by the projection
        sec = rho_II_section(pair)
        comp = sec.compose(r2m)
        for key in pair.small.buckets:
            n = pair.small.dim(key)
            assert mats_equal(comp.block(key),
                              [[1 if r == c else 0 for c in range(n)] for r in range(n)])
        # homology invariance of the move
        assert table_isomorphic(homology(GradedComplex(with_loop)),
                                homology(GradedComplex(big)), (0, 0))
        # eta skew-commutes with f and with g.gamma
        e_small, e_big = eta(pair.small), eta(pair.big)
        for chmap in (f, g.compose(gm)):
            lhs = chmap.compose(e_small)
            rhs = e_big.compose(chmap).scale(-1)
            for key in pair.small.buckets:
                assert mats_equal(lhs.block(key), rhs.block(key))


def test_r3_homology_invariance_all_closures():
    for surface in ALL_SURFACES:
        for closure in range(5):
            for b_over in (True, False):
                word = surface_words(surface)[-1]
                d, site = triangle_closure(surface, closure, word, b_over=b_over)
                moved = apply_r3(d, site)
                assert table_isomorphic(homology(GradedComplex(d)),
                                        homology(GradedComplex(moved)), (0, 0))


def test_rho_III_identities():
    for surface, closure in ((DISK, 0), (ANNULUS, 3), (MOEBIUS, 4), (TORUS_HOLE, 1)):
        word = surface_words(surface)[-1]
        d, site = triangle_closure(surface, closure, word, b_over=True)
        data = r3_data(d, site)
        assert data.nu.commutes()
        assert data.f_inf.commutes()
        # rho_III . alpha == alpha' . f  everywhere
        lhs = data.rho_III.compose(viro_alpha(data.triple))
        rhs = viro_alpha(data.triple2).compose(data.f_inf)
        for key in data.triple.cinf.buckets:
            assert mats_equal(lhs.block(key), rhs.block(key))
        # beta' . rho_III == rho . beta, on the subcomplex C'
        b2r = viro_beta(data.triple2).compose(data.rho_III)
        rb = data.rho.compose(viro_beta(data.triple))
        outside = 0
        for key in data.triple.cp.buckets:
            cols = dense_matrix(c_prime_columns(data, key), data.triple.cp.dim(key))
            assert mats_equal(_mat_mul(b2r.block(key), cols),
                              _mat_mul(rb.block(key), cols))
            # C' is a subcomplex and rho_III is a chain map on it
            img = _mat_mul(data.triple.cp.differential(key), cols)
            low = (key[0] - 2, key[1], key[2])
            for c in range(len(img[0]) if img else 0):
                assert membership_in_c_prime(
                    data, low, [(r, row[c]) for r, row in enumerate(img) if row[c]])
            lhs2 = _mat_mul(data.triple2.cp.differential(key),
                            _mat_mul(data.rho_III.block(key), cols))
            assert mats_equal(lhs2, _mat_mul(data.rho_III.block(low), img))
            # A state with a positive marker at p outside the undone
            # (v:-1, w:+1) pattern is not in C'.
            for n, state in enumerate(data.triple.cp.buckets[key]):
                if state.markers[0] > 0 and state.markers[1:3] != (-1, 1):
                    outside += 1
                    assert not membership_in_c_prime(data, key, [(n, 1)])
        assert outside
        # f . gamma_hat == gamma_hat' . rho on the image subcomplex
        fg = data.f_inf.compose(viro_gamma_hat(data.triple))
        gr = viro_gamma_hat(data.triple2).compose(data.rho)
        r2m = rho_II(data.pair)
        for key in data.pair.small.buckets:
            cols = r2m.block(key)
            assert mats_equal(_mat_mul(fg.block(key), cols),
                              _mat_mul(gr.block(key), cols))


def test_rho_III_rejects_wrong_parity():
    d, site = triangle_closure(DISK, 0, b_over=False)
    with pytest.raises(ChainMapError):
        r3_data(d, site)
