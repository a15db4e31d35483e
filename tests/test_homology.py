import random
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
from dense_oracle import _mat_mul
from bandkh.chainmaps import skein_triple
from bandkh.diagram import mirror, reorder_crossings
from bandkh import linalg
from bandkh.homology import (
    COEFFICIENTS,
    AbelianGroup,
    HomologyError,
    aggregate_handlebody,
    divisor_chain,
    homology,
    table_isomorphic,
)
from bandkh.linalg import eliminate_units, invariant_factors, rank_over, smith_normal_form
from bandkh.state_complex import GradedComplex
from bandkh.surface import grading_flip, grading_negate

from helpers import (
    ALL_SURFACES,
    ANNULUS,
    DISK,
    PANTS,
    TORUS_HOLE,
    euler_characteristic_consistent,
    loops_diagram,
    random_diagram,
    surface_words,
    trefoil,
    twist_pair,
)


#: U . diag(1, 1, 1, 1, 2, 3) . V, on which the oracle's entries once grew
#: without bound when it pivoted on the first nonzero entry.
PLANTED_8X7 = [[7, 0, 1, 1, 0, -5, 0], [-8, 1, 3, 4, 0, 0, -5],
               [0, 0, 2, 2, 0, -2, -2], [-6, 0, 0, 0, 0, 3, 0],
               [1, 0, 3, 2, 0, -2, -1], [-8, 1, 3, 4, 0, 0, -5],
               [6, -1, -2, -2, 0, -1, 2], [7, -1, -2, -2, 0, -2, 2]]


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 0]]) == (2,)
    assert smith_normal_form([[1, 1], [1, 1]]) == (1,)
    assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
    assert smith_normal_form([]) == ()
    assert smith_normal_form([[0, 0], [0, 0]]) == ()
    assert smith_normal_form([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == (1, 1, 6)
    assert smith_normal_form(PLANTED_8X7) == (1, 1, 1, 1, 1, 6)


def test_snf_random_properties():
    rng = random.Random(9)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        inv = smith_normal_form(m)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        for field in ("Q", "Z2"):
            assert rank_over(inv, field) == dense_oracle.rank(m, field)


@st.composite
def integer_matrices(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, -6))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
@example(PLANTED_8X7)
def test_snf_matches_naive_oracle(m):
    assert smith_normal_form(m) == tuple(dense_oracle._snf_diagonal(m))


def _unimodular(n: int, rng: random.Random):
    """A random n x n integer matrix of determinant +-1."""
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            u[a] = [-x for x in u[a]]
        else:
            f = rng.choice((-1, 1))
            u[a] = [x + f * y for x, y in zip(u[a], u[b])]
            u[a], u[b] = u[b], u[a]
    return u


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2),
       st.sampled_from((((2, 6, 0), (2, 6)), ((2, 3), (1, 6)))),
       st.randoms(use_true_random=False))
def test_snf_finds_planted_torsion(units, extra_rows, extra_cols, planted, rng):
    """U . diag(1, ..., 1, torsion) . V: the unit pivots come first, then a
    residue whose divisor chain may need the divisibility fix-up."""
    diagonal, expected = planted
    diagonal = (1,) * units + diagonal
    rows, cols = len(diagonal) + extra_rows, len(diagonal) + extra_cols
    d = [[diagonal[r] if r == c and r < len(diagonal) else 0 for c in range(cols)]
         for r in range(rows)]
    m = _mat_mul(_mat_mul(_unimodular(rows, rng), d), _unimodular(cols, rng))
    assert smith_normal_form(m) == (1,) * units + expected \
        == tuple(dense_oracle._snf_diagonal(m))


def _check_elimination(m, cols):
    """Unit elimination plus Smith normal form on its residue agrees with
    the dense routines on the whole matrix, over Z, Q and Z/2."""
    columns = dense_oracle.sparse_columns(m, cols)
    before = [list(col) for col in columns]
    units, residue = eliminate_units(columns, len(m))
    assert columns == before
    assert not any(v in (1, -1) for row in residue for v in row)
    assert all(any(row) for row in residue)
    assert all(any(col) for col in zip(*residue))
    assert (1,) * units + smith_normal_form(residue) == smith_normal_form(m) \
        == tuple(dense_oracle._snf_diagonal(m))
    factors = invariant_factors(columns, len(m))
    assert factors == smith_normal_form(m)
    for field in ("Q", "Z2"):
        assert units + dense_oracle.rank(residue, field) \
            == rank_over(factors, field) == dense_oracle.rank(m, field)
    return units, residue


@st.composite
def sparse_matrices(draw):
    """(dense matrix, column count): zero rows and zero columns allowed, and
    mostly +-1 entries, so that pivots fill in and create new units."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    entry = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -4, 6))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)], cols


@settings(max_examples=400, deadline=None)
@given(sparse_matrices())
@example((PLANTED_8X7, 7))
@example(([], 0))
@example(([], 3))
@example(([[0, 0], [0, 0], [0, 0]], 2))
@example(([[2, 1], [1, 1]], 2))
def test_unit_elimination_matches_dense_routines(mc):
    _check_elimination(*mc)


def test_unit_elimination_examples():
    assert eliminate_units([], 0) == (0, [])
    assert eliminate_units([[], []], 4) == (0, [])
    assert eliminate_units([[(0, 2), (1, 3)]], 2) == (0, [[2], [3]])
    # One pivot turns the other column's 4 into 4 - 2 * 1 = 2.
    assert eliminate_units([[(0, 1), (1, 2)], [(0, 1), (1, 4)]], 2) == (1, [[2]])
    # After the pivot at (0, 0) the fill-in 2 - 1 = 1 is a new unit.
    assert eliminate_units([[(0, 1), (1, 1)], [(0, 1), (1, 2)]], 2) == (2, [])
    _check_elimination(PLANTED_8X7, 7)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 2), st.integers(0, 2),
       st.sampled_from((((2, 6, 0), (2, 6)), ((2, 3), (1, 6)),
                        ((3, 3, 9), (3, 3, 9)))),
       st.randoms(use_true_random=False))
def test_unit_elimination_keeps_planted_torsion(units, extra_rows, extra_cols,
                                                 planted, rng):
    diagonal, expected = planted
    diagonal = (1,) * units + diagonal
    rows, cols = len(diagonal) + extra_rows, len(diagonal) + extra_cols
    d = [[diagonal[r] if r == c and r < len(diagonal) else 0 for c in range(cols)]
         for r in range(rows)]
    m = _mat_mul(_mat_mul(_unimodular(rows, rng), d), _unimodular(cols, rng))
    _check_elimination(m, cols)
    assert smith_normal_form(m) == (1,) * units + expected


def test_divisor_chain():
    assert divisor_chain([2, 4]) == (2, 4)
    assert divisor_chain([2, 3]) == (6,)
    assert divisor_chain([2, 2, 3]) == (2, 6)
    assert divisor_chain([]) == ()


#: Cyclic orders: 0, +-1, and signed products of small prime powers, so that
#: primes repeat across orders and within one.
cyclic_orders = st.lists(st.one_of(
    st.sampled_from((0, 1, -1)),
    st.builds(lambda sign, a, b, c, d: sign * 2 ** a * 3 ** b * 5 ** c * 7 ** d,
              st.sampled_from((1, -1)), st.integers(0, 4), st.integers(0, 3),
              st.integers(0, 2), st.integers(0, 1))), max_size=7)


@settings(max_examples=300, deadline=None)
@given(cyclic_orders)
@example([4, 2, 8, 8, 6, 9, 0, 1])
def test_divisor_chain_matches_oracles(orders):
    """The gcd/lcm merge against the trial-division oracle and against the
    naive Smith form of the diagonal matrix of the orders."""
    chain = divisor_chain(orders)
    assert chain == dense_oracle.divisor_chain(orders)
    diagonal = [[n if r == c else 0 for c in range(len(orders))]
                for r, n in enumerate(orders)]
    assert chain == tuple(t for t in dense_oracle._snf_diagonal(diagonal) if t > 1)


def test_divisor_chain_time_is_bounded_for_large_primes():
    """Trial division of 2p, with p = 10^16 + 61 prime, runs for seconds."""
    p = 10 ** 16 + 61
    start = time.perf_counter()
    assert divisor_chain([2 * p, 3]) == (6 * p,)
    assert time.perf_counter() - start < 1.0


def test_abelian_group_validation():
    with pytest.raises(HomologyError):
        AbelianGroup(1, (4, 2))
    with pytest.raises(HomologyError):
        AbelianGroup(0, (1,))
    with pytest.raises(HomologyError):
        AbelianGroup(0, (0, 2))  # checked for entries above 1 before divisibility
    assert AbelianGroup(2, (2, 4)).text == "Z^2 + Z/2 + Z/4"


def test_single_trivial_loop_table():
    table = homology(GradedComplex(loops_diagram(DISK, "")))
    assert {(i, j) for (i, j, s) in table.groups} == {(0, 2), (0, -2)}
    assert all(g.text == "Z" for g in table.groups.values())


def test_loop_on_genus_surface_gives_z_squared():
    table = homology(GradedComplex(loops_diagram(TORUS_HOLE, "a")))
    agg = aggregate_handlebody(table)
    assert set(agg) == {(0, 0)} and agg[(0, 0)].rank == 2


def test_two_loops_give_z_fourth():
    table = homology(GradedComplex(loops_diagram(PANTS, "a", "b")))
    assert len(table.groups) == 4
    assert all(k[:2] == (0, 0) for k in table.groups)
    agg = aggregate_handlebody(table)
    assert set(agg) == {(0, 0)} and agg[(0, 0)].rank == 4


def test_trefoil_has_torsion():
    table = homology(GradedComplex(trefoil()))
    torsions = [g.torsion for g in table.groups.values() if g.torsion]
    assert torsions == [(2,)]


def test_table_isomorphic_shifts():
    t = homology(GradedComplex(loops_diagram(DISK, "")))
    assert table_isomorphic(t, t)
    assert not table_isomorphic(t, homology(GradedComplex(loops_diagram(ANNULUS, "a"))))


def test_euler_characteristic_consistency():
    rng = random.Random(10)
    for surface in ALL_SURFACES:
        for _ in range(3):
            d = random_diagram(surface, rng, max_crossings=4)
            cx = GradedComplex(d)
            assert euler_characteristic_consistent(cx, homology(cx, "Q"))


def test_field_dimensions_uct():
    rng = random.Random(11)
    suite = [random_diagram(s, rng, max_crossings=4) for s in ALL_SURFACES] + [trefoil()]
    for d in suite:
        cx = GradedComplex(d)
        tz, tq, t2 = homology(cx), homology(cx, "Q"), homology(cx, "Z2")
        keys = set(tz.groups) | set(t2.groups) | set(tq.groups)
        keys |= {(i + 2, j, s) for (i, j, s) in tz.groups}
        for (i, j, s) in keys:
            assert tq.group((i, j, s)).rank == tz.group((i, j, s)).rank
            even_here = sum(1 for t in tz.group((i, j, s)).torsion if t % 2 == 0)
            even_prev = sum(1 for t in tz.group((i - 2, j, s)).torsion if t % 2 == 0)
            assert t2.group((i, j, s)).rank == \
                tz.group((i, j, s)).rank + even_here + even_prev


def test_sign_flip_symmetry():
    rng = random.Random(12)
    for surface in (ANNULUS, PANTS, TORUS_HOLE):
        for _ in range(4):
            d = random_diagram(surface, rng, max_crossings=4)
            table = homology(GradedComplex(d))
            classes = {cls for (_, _, s) in table.groups for cls, _ in s.entries}
            if not classes:
                continue
            flips = {cls: rng.choice((1, -1)) for cls in classes}
            remap = lambda s: grading_flip(s, flips)
            moved = {(i, j, remap(s)): g for (i, j, s), g in table.groups.items()}
            assert moved == table.groups


def test_reorder_invariance():
    rng = random.Random(13)
    for surface in ALL_SURFACES:
        d = random_diagram(surface, rng, max_crossings=4)
        if d.n_crossings < 2:
            continue
        table = homology(GradedComplex(d))
        for _ in range(5):
            perm = list(range(d.n_crossings))
            rng.shuffle(perm)
            table2 = homology(GradedComplex(reorder_crossings(d, perm)))
            assert table.groups == table2.groups


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(ALL_SURFACES))
def test_tables_survive_reorder_and_mirror(seed, surface):
    """Every ring's table is unchanged by a crossing reorder; over a field
    the mirror's table is the table at (-i, -j, -s), and mirroring twice
    gives the table over Z back."""
    rng = random.Random(seed)
    d = random_diagram(surface, rng, max_crossings=4)
    perm = list(range(d.n_crossings))
    rng.shuffle(perm)
    cx, cx_m = GradedComplex(d), GradedComplex(mirror(d))
    cx_r = GradedComplex(reorder_crossings(d, perm))
    for coefficients in COEFFICIENTS:
        table = homology(cx, coefficients)
        assert homology(cx_r, coefficients).groups == table.groups
        if coefficients != "Z":
            dual = {(-i, -j, grading_negate(s)): g
                    for (i, j, s), g in table.groups.items()}
            assert homology(cx_m, coefficients).groups == dual
    assert homology(GradedComplex(mirror(mirror(d)))).groups \
        == homology(cx).groups


def test_tsv_output_shape():
    table = homology(GradedComplex(loops_diagram(ANNULUS, "a")))
    lines = table.to_tsv().splitlines()
    assert lines == ["0\t0\ta:-1\t1\t-", "0\t0\ta:+1\t1\t-"]


def test_homology_reduces_each_block_once(monkeypatch):
    """Z, Q and Z/2 on one complex share one Smith normal form per block;
    a split complex reduces the blocks of its crossing-connected components,
    and its free loops none: a complex with only loops has no component."""
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return smith_normal_form(matrix)

    monkeypatch.setattr(linalg, "smith_normal_form", counted)
    rng = random.Random(12)
    for cx in [GradedComplex(trefoil())] + [
            GradedComplex(random_diagram(surface, rng, max_crossings=4))
            for surface in ALL_SURFACES]:
        calls.clear()
        for coefficients in ("Z", "Q", "Z2"):
            homology(cx, coefficients)
        assert len(calls) == sum(len(part.sizes) for part in
                                 ([cx] if cx._parts is None else cx._parts))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, len(ALL_SURFACES) - 1),
       st.sampled_from(surface_words(PANTS)))
@example(0, 2, "a b")
def test_connected_homology_reads_as_the_factor_formula_finds(seed, surface, word):
    """Over Z, Q and Z/2, homology of a connected complex equals what the
    formula ``dim - rank out - rank in`` reads off its block sizes and
    invariant factors (``dense_oracle.homology_from_factors``): the
    crossing-connected components of a random diagram on each of the five
    surfaces, and the trefoil's twist around a curve of the pants, whose
    Z/2 torsion counts at both ends of its piece over Z/2."""
    cx = GradedComplex(random_diagram(ALL_SURFACES[surface], random.Random(seed),
                                      max_crossings=4))
    twist = GradedComplex(twist_pair(PANTS, word, 3))
    assert any(g.torsion for g in homology(twist).groups.values())
    for part in [twist] + ([cx] if cx._groups is None else cx._components()):
        assert part._groups is None
        for ring in COEFFICIENTS:
            assert homology(part, ring) == \
                dense_oracle.homology_from_factors(part.sizes, part.factors(), ring)


def test_homology_matches_dense_block_oracle():
    """Unit elimination on the sparse blocks gives the tables of the old
    per-block dense reduction, over Z, Q and Z/2."""
    rng = random.Random(15)
    diagrams = [random_diagram(surface, rng, max_crossings=4)
                for surface in ALL_SURFACES for _ in range(2)]
    complexes = [GradedComplex(d) for d in diagrams]
    for d in diagrams[::2] + [trefoil()]:
        for p in range(d.n_crossings):
            t = skein_triple(d, p)
            complexes += [t.c0, t.cp, t.cinf]
    complexes.append(GradedComplex(twist_pair(PANTS, "a", 6)))
    assert any(cx.frozen for cx in complexes)
    for cx in complexes:
        for coefficients in COEFFICIENTS:
            assert homology(cx, coefficients) == \
                dense_oracle.block_homology(cx, coefficients)
