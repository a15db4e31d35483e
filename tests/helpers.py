"""Shared builders and identity checks for the test suite.

Every constructor here produces a diagram together with an embedding that
actually exists on the named surface; the constructions are local (kinks,
clasps of a loop around a strand, twist regions between parallel copies,
triangle closures) so realizability is guaranteed by inspection.  The random
generator composes only these safe moves, which is what makes the
differential-squares-to-zero and exactness suites meaningful: on a surface
those identities can fail for slot-data that is not actually drawable.
"""

from __future__ import annotations

import random

from bandkh.chainmaps import (
    R3Data,
    _negate_key,
    g_map,
    mirror_map,
    rho_II,
    rho_II_section,
    viro_beta,
    viro_beta_bar,
)
from bandkh.diagram import (
    Diagram,
    Edge,
    R3Site,
    apply_r1_neg,
    apply_r1_pos,
    apply_r2,
    reorder_crossings,
)
from bandkh.homology import HomologyTable
from bandkh.linalg import Columns, _mat_mul, _same
from bandkh.skein import BracketExpansion, LaurentPolyA, _tidy
from bandkh.state_complex import GradedComplex, GradingKey, StateKey
from bandkh.surface import CurveKind, GradingS, SurfaceModel, Word, classify, parse_word

from dense_oracle import _transpose

# ---------------------------------------------------------------------------
# Surfaces and their families of pairwise-disjoint simple curve words
# ---------------------------------------------------------------------------

DISK = SurfaceModel.planar_holes(0)
ANNULUS = SurfaceModel.planar_holes(1)
PANTS = SurfaceModel.planar_holes(2)
TORUS_HOLE = SurfaceModel.orientable(1, 1)
MOEBIUS = SurfaceModel.moebius_band()

ALL_SURFACES = (DISK, ANNULUS, PANTS, TORUS_HOLE, MOEBIUS)

# Words whose curves can be drawn pairwise disjointly (parallel copies
# allowed except for the one-sided Moebius core "a").
DISJOINT_WORDS: dict[int, tuple[str, ...]] = {
    id(DISK): ("",),
    id(ANNULUS): ("", "a"),
    id(PANTS): ("", "a", "b", "a b"),
    id(TORUS_HOLE): ("", "a"),
    id(MOEBIUS): ("", "a", "a a"),
}


def surface_words(surface: SurfaceModel) -> tuple[str, ...]:
    return DISJOINT_WORDS[id(surface)]


def loops_diagram(surface: SurfaceModel, *words: str) -> Diagram:
    return Diagram(surface, loops=tuple(parse_word(w) for w in words))


# ---------------------------------------------------------------------------
# Twist regions: two parallel copies of one curve crossing k times
# ---------------------------------------------------------------------------

def twist_pair(surface: SurfaceModel, word: str, k: int,
               extra_loops: tuple[str, ...] = ()) -> Diagram:
    """The (2, k) twist pattern on two parallel copies of a curve.

    Both closure strands carry the curve word.  k = 3 with the empty word on
    the disk is the standard trefoil diagram.
    """
    if k < 1:
        raise ValueError("need at least one crossing")
    u = parse_word(word)
    ids = tuple(f"t{n}" for n in range(1, k + 1))
    edges = []
    for a, b in zip(ids, ids[1:]):
        edges.append(Edge((a, 1), (b, 2)))
        edges.append(Edge((a, 0), (b, 3)))
    edges.append(Edge((ids[-1], 1), (ids[0], 2), u))
    edges.append(Edge((ids[-1], 0), (ids[0], 3), u))
    return Diagram(surface, ids, tuple(edges),
                   tuple(parse_word(w) for w in extra_loops))


def trefoil() -> Diagram:
    return twist_pair(DISK, "", 3)


# Twist-region parameters that are actually drawable, per surface: two
# closed curves must cross with the parity of their intersection number, so
# e.g. two Moebius cores (odd pairing) admit only odd twist counts.
def twist_params(surface: SurfaceModel) -> list[tuple[str, int]]:
    out = []
    for w in surface_words(surface):
        for k in (1, 2, 3):
            if surface is MOEBIUS and w == "a" and k % 2 == 0:
                continue
            out.append((w, k))
    return out


# Clasp pairs (loop pushed over loop) that are drawable: the two classes
# must admit disjoint representatives (even crossing parity).
def clasp_params(surface: SurfaceModel) -> list[tuple[str, str]]:
    words = surface_words(surface)
    out = []
    for x in words:
        for y in words:
            if surface is MOEBIUS and x == "a" and y == "a":
                continue
            out.append((x, y))
    return out


def clasp(surface: SurfaceModel, word_x: str, word_y: str) -> Diagram:
    base = loops_diagram(surface, word_x, word_y)
    return apply_r2(base, ("loop", 0), ("loop", 1))


def self_fold(surface: SurfaceModel, word: str,
              extra_loops: tuple[str, ...] = ()) -> Diagram:
    """Fold a single loop into a U and push one arc over the other (R2).

    Always drawable: bend any embedded circle into a U and push.  The two
    U-sides follow the apply_r2 wiring; the bends join the two top ends
    (carrying the word) and the two bottom ends.
    """
    u = parse_word(word)
    v, w = "v", "w"
    edges = (Edge((w, 2), (v, 0)), Edge((w, 1), (v, 1)),
             Edge((v, 2), (v, 3), u), Edge((w, 3), (w, 0)))
    return Diagram(surface, (v, w), edges, tuple(parse_word(t) for t in extra_loops))


def crosscap_shadow(extra_loops: tuple[str, ...] = ()) -> Diagram:
    """A deliberately non-embeddable disk input: the fold with crossed bends.

    The slot data is fine but the pattern needs a crosscap, so the
    differential does not square to zero over the disk.  Used to exercise
    the failure paths.
    """
    v, w = "v", "w"
    edges = (Edge((w, 2), (v, 0)), Edge((w, 1), (v, 1)),
             Edge((v, 2), (w, 3)), Edge((v, 3), (w, 0)))
    return Diagram(DISK, (v, w), edges, tuple(parse_word(t) for t in extra_loops))


def wrap_cross(surface: SurfaceModel, word_x: str, word_y: str,
               extra_loops: tuple[str, ...] = ()) -> Diagram:
    """Two closed curves meeting at exactly one crossing.

    Only drawable when the two classes have odd intersection number: the
    torus generators, or two Moebius cores.
    """
    edges = (Edge(("w", 2), ("w", 0), parse_word(word_x)),
             Edge(("w", 1), ("w", 3), parse_word(word_y)))
    return Diagram(surface, ("w",), edges, tuple(parse_word(t) for t in extra_loops))


def chain3(surface: SurfaceModel, word_a: str, word_b: str, word_c: str,
           extra_loops: tuple[str, ...] = ()) -> Diagram:
    """Three curves A, B, C with A meeting B once and B meeting C once.

    Drawable on the torus with one hole with A = C = a and B = b.
    """
    edges = (Edge(("v", 0), ("v", 2), parse_word(word_a)),
             Edge(("v", 1), ("w", 0), parse_word(word_b)),
             Edge(("w", 2), ("v", 3)),
             Edge(("w", 1), ("w", 3), parse_word(word_c)))
    return Diagram(surface, ("v", "w"), edges,
                   tuple(parse_word(t) for t in extra_loops))


def spiral3(surface: SurfaceModel, letter: str,
            extra_loops: tuple[str, ...] = ()) -> Diagram:
    """A curve winding three times through one band, with two crossings.

    Three parallel passes through the band close up cyclically; the closing
    arc of the third pass crosses the other two return arcs.  This is the
    minimal diagram of the cubed core class and realizes the interleaved
    (abab Gauss code) two-crossing pattern, which no planar diagram can.
    """
    u = parse_word(letter)
    # v = jump x arc1, w = jump x arc2; jump over both.
    edges = (Edge(("v", 2), ("w", 0)),          # jump between its crossings
             Edge(("w", 2), ("v", 1), u),       # band pass 1 into arc1
             Edge(("v", 3), ("w", 1), u),       # band pass 2 into arc2
             Edge(("w", 3), ("v", 0), u))       # band pass 3 into the jump
    return Diagram(surface, ("v", "w"), edges,
                   tuple(parse_word(t) for t in extra_loops))


# ---------------------------------------------------------------------------
# Triangle closures: closed diagrams containing a third-Reidemeister site
# ---------------------------------------------------------------------------

#: The five noncrossing ways to join the six triangle stubs, as pairs into
#: the cyclic sequence (A_in, B_out, C_out, A_out, B_in, C_in).
_CLOSURES = (
    ((0, 1), (2, 3), (4, 5)),
    ((0, 1), (2, 5), (3, 4)),
    ((0, 5), (1, 2), (3, 4)),
    ((0, 5), (1, 4), (2, 3)),
    ((0, 3), (1, 2), (4, 5)),
)


def triangle_closure(surface: SurfaceModel, closure: int = 0, word: str = "",
                     worded_arc: int = 0, b_over: bool = True,
                     extra_loops: tuple[str, ...] = ()) -> tuple[Diagram, R3Site]:
    """A closed 3-crossing diagram around the standard triangle.

    The triangle has the sliding strand ``a`` over both of its crossings and
    (with ``b_over``) strand b over c at p, which is the variant the chain
    map construction supports.  ``closure`` picks one of the five noncrossing
    stub matchings; one closure arc (``worded_arc``) may carry a band word,
    drawn as the outermost arc.
    """
    p, v, w = "p", "v", "w"
    if b_over:
        e_vp = Edge((v, 1), (p, 0))
        e_wp = Edge((w, 1), (p, 1))
        stub_b_out, stub_c_out = (p, 2), (p, 3)
    else:
        e_vp = Edge((v, 1), (p, 3))
        e_wp = Edge((w, 1), (p, 0))
        stub_b_out, stub_c_out = (p, 1), (p, 2)
    # Stub order around the triangle: A_in, B_out, C_out, A_out, B_in, C_in.
    stubs = [(w, 0), stub_b_out, stub_c_out, (v, 2), (v, 3), (w, 3)]
    edges = [Edge((w, 2), (v, 0)), e_vp, e_wp]
    u = parse_word(word)
    pairs = _CLOSURES[closure]
    for n, (x, y) in enumerate(pairs):
        edges.append(Edge(stubs[x], stubs[y], u if n == worded_arc else ()))
    diagram = Diagram(surface, (p, v, w), tuple(edges),
                      tuple(parse_word(t) for t in extra_loops))
    return diagram, R3Site(p, v, w, 0, 1, 2)


# ---------------------------------------------------------------------------
# Crossing slides: isotope a crossing through an untwisted band
# ---------------------------------------------------------------------------

def slide_crossing(diagram: Diagram, pos: int, symbol: str) -> Diagram:
    """Append a band passage to all four strand ends of one crossing.

    Only valid for untwisted bands (a flipped band would mirror the
    crossing); circles keep their classes since the four insertions cancel
    in pairs along any transversal.
    """
    if symbol in diagram.surface.flipped_symbols():
        raise ValueError("cannot slide through a flipped band")
    cid = diagram.crossings[pos]
    edges = []
    for e in diagram.edges:
        word = e.word
        if e.b[0] == cid:
            word = word + ((symbol, 1),)
        if e.a[0] == cid:
            word = ((symbol, -1),) + word
        edges.append(Edge(e.a, e.b, word))
    return Diagram(diagram.surface, diagram.crossings, tuple(edges),
                   diagram.loops)


def disjoint_union(*diagrams: Diagram, rng: random.Random | None = None) -> Diagram:
    """The diagrams side by side on the first one's surface: crossing c of
    diagram n becomes ``c_n``, loops follow in order, and ``rng`` shuffles
    the crossings so that the components interleave.  Two curves that must
    meet stay apart, so the union need not be drawable; its complex is the
    tensor product of theirs all the same."""
    crossings, edges, loops = [], [], []
    for n, d in enumerate(diagrams):
        rename = lambda slot, n=n: (f"{slot[0]}_{n}", slot[1])
        crossings += [f"{c}_{n}" for c in d.crossings]
        edges += [Edge(rename(e.a), rename(e.b), e.word) for e in d.edges]
        loops += d.loops
    union = Diagram(diagrams[0].surface, tuple(crossings), tuple(edges), tuple(loops))
    if rng is not None and union.n_crossings > 1:
        perm = list(range(union.n_crossings))
        rng.shuffle(perm)
        union = reorder_crossings(union, perm)
    return union


# ---------------------------------------------------------------------------
# Random realizable diagrams
# ---------------------------------------------------------------------------

def random_diagram(surface: SurfaceModel, rng: random.Random,
                   max_crossings: int = 4, ensure_trivial_loop: bool = False,
                   ) -> Diagram:
    """A random diagram assembled from realizability-preserving moves."""
    words = surface_words(surface)
    seeds: list[str] = []
    core_used = False
    for _ in range(rng.randint(1, 2)):
        w = rng.choice(words)
        if surface is MOEBIUS and w == "a":
            if core_used:
                continue
            core_used = True
        seeds.append(w)
    diagram = loops_diagram(surface, *seeds)

    start_choices = ["loops"]
    params = [(w, k) for (w, k) in twist_params(surface) if k <= max_crossings
              and not (surface is MOEBIUS and w == "a" and core_used)]
    if params:
        start_choices.append("twist")
    if rng.choice(start_choices) == "twist":
        w, k = rng.choice(params)
        diagram = twist_pair(surface, w, k, extra_loops=tuple(seeds))

    while diagram.n_crossings < max_crossings:
        room = max_crossings - diagram.n_crossings
        moves = ["kink"]
        if room >= 2:
            moves.append("clasp")
        if diagram.n_crossings and not surface.flipped_symbols() \
                and surface.generators:
            moves.append("slide")
        moves.append("stop")
        move = rng.choice(moves)
        if move == "stop":
            break
        if move == "kink":
            sites = [("edge", k) for k in range(len(diagram.edges))]
            sites += [("loop", k) for k in range(len(diagram.loops))]
            if not sites:
                break
            op = rng.choice((apply_r1_neg, apply_r1_pos))
            diagram = op(diagram, rng.choice(sites), rng.choice(("left", "right")))
        elif move == "clasp":
            # Clasp a fresh trivial loop around any existing strand.
            with_loop = Diagram(diagram.surface, diagram.crossings,
                                diagram.edges, diagram.loops + ((),))
            fresh = len(with_loop.loops) - 1
            sites = [("edge", k) for k in range(len(diagram.edges))]
            sites += [("loop", k) for k in range(len(diagram.loops))]
            if not sites:
                break
            diagram = apply_r2(with_loop, ("loop", fresh), rng.choice(sites))
        else:
            diagram = slide_crossing(diagram,
                                     rng.randrange(diagram.n_crossings),
                                     rng.choice(diagram.surface.generators))
    if ensure_trivial_loop and all(classify(w, surface).kind.value != "trivial"
                                   for w in diagram.loops):
        diagram = Diagram(surface, diagram.crossings, diagram.edges,
                          diagram.loops + ((),))
    if diagram.n_crossings > 1:
        perm = list(range(diagram.n_crossings))
        rng.shuffle(perm)
        diagram = reorder_crossings(diagram, perm)
    return diagram


# ---------------------------------------------------------------------------
# The abstract two-crossing configurations
# ---------------------------------------------------------------------------

_ENDS = tuple((vw, k) for vw in "vw" for k in range(4))


_D4 = ([lambda x, k=k: (x + k) % 4 for k in range(4)]
       + [lambda x, k=k: (k - x) % 4 for k in range(4)])


def _canonical_matching(matching: frozenset) -> tuple:
    """Orbit representative under vertex exchange and per-vertex dihedral moves.

    Every dihedral relabeling of one vertex's slots maps the two smoothing
    pairings {01,23} and {12,30} onto themselves (possibly exchanged), so
    states, incidence numbers and partial derivatives of two diagrams in the
    same orbit correspond bijectively up to renaming markers.  There are
    exactly five orbits of connected pairings.
    """
    best = None
    for gv in _D4:
        for gw in _D4:
            for do_swap in (False, True):
                def act(end):
                    vw, s = end
                    s2 = gv(s) if vw == "v" else gw(s)
                    if do_swap:
                        vw = "w" if vw == "v" else "v"
                    return (vw, s2)
                moved = frozenset(frozenset(act(e) for e in pair)
                                  for pair in matching)
                key = tuple(sorted(tuple(sorted(p)) for p in moved))
                if best is None or key < best:
                    best = key
    return best


def two_crossing_classes() -> dict:
    """All connected pairings of the eight crossing ends, up to symmetry."""
    classes: dict = {}
    ends = list(_ENDS)
    for matching in _matchings(ends):
        if not any(a[0] != b[0] for a, b in matching):
            continue  # disconnected at the graph level
        rep = _canonical_matching(frozenset(frozenset(p) for p in matching))
        classes.setdefault(rep, []).append(matching)
    return classes


def _matchings(items: list):
    if not items:
        yield []
        return
    first = items[0]
    for k in range(1, len(items)):
        rest = items[1:k] + items[k + 1:]
        for sub in _matchings(rest):
            yield [(first, items[k])] + sub


def classify_two_crossing(diagram: Diagram) -> frozenset:
    """Orbit representative of a 2-crossing diagram's abstract pairing."""
    if diagram.n_crossings != 2:
        raise ValueError("need exactly two crossings")
    names = {diagram.crossings[0]: "v", diagram.crossings[1]: "w"}
    pairs = []
    for e in diagram.edges:
        pairs.append(((names[e.a[0]], e.a[1]), (names[e.b[0]], e.b[1])))
    return _canonical_matching(frozenset(frozenset(p) for p in pairs))


# ---------------------------------------------------------------------------
# Reading states of a complex
# ---------------------------------------------------------------------------

def state_text(cx, state) -> str:
    """A state as its markers, then per circle its class and label."""
    marks = "".join("+" if m > 0 else "-" for m in state.markers)
    parts = []
    for circ, lab in zip(cx.smoothing(state.markers).circles, state.labels):
        sign = "+" if lab > 0 else "-"
        if circ.kind is CurveKind.TRIVIAL:
            parts.append(f"(triv:{sign})")
        else:
            parts.append(f"({circ.cls.text}:{sign}0)")
    return marks + " " + "".join(parts) if parts else marks


def t_count(cx, state, pos: int) -> int:
    """Negative free markers at crossings ordered after ``pos``."""
    return sum(1 for q in cx.free if q > pos and state.markers[q] < 0)


def incidence_number(cx, s_from, s_to, pos: int) -> int:
    """1 when the flip at ``pos`` connects the two states, else 0."""
    return int(StateKey(s_to.markers, s_to.labels) in cx.resmoothings(s_from, pos))


# ---------------------------------------------------------------------------
# Identity checks on the library's expansions, complexes and chain maps
# ---------------------------------------------------------------------------

def add_expansions(e1: BracketExpansion, e2: BracketExpansion) -> BracketExpansion:
    out = dict(e1)
    for b, p in e2.items():
        out[b] = out.get(b, LaurentPolyA.zero()) + p
    return _tidy(out)


def scale_expansion(e: BracketExpansion, poly: LaurentPolyA) -> BracketExpansion:
    return _tidy({b: poly * p for b, p in e.items()})


def euler_characteristic_consistent(cx: GradedComplex, table: HomologyTable) -> bool:
    """Alternating block dimensions match alternating homology ranks per (j, s)."""
    sums: dict[tuple[int, GradingS], int] = {}
    for (i, j, s) in cx.sizes:
        sign = -1 if ((j - i) // 2) % 2 else 1
        sums[(j, s)] = sums.get((j, s), 0) + sign * cx.dim((i, j, s))
    for (i, j, s), g in table.groups.items():
        sign = -1 if ((j - i) // 2) % 2 else 1
        sums[(j, s)] = sums.get((j, s), 0) - sign * g.rank
    return all(v == 0 for v in sums.values())


def g_conjugates_differentials(cx: GradedComplex) -> bool:
    """Check g . d == d+ . g on every block."""
    g = g_map(cx)
    for key in cx.sizes:
        i, j, s = key
        lhs = _mat_mul(g.columns((i - 2, j, s)), cx.columns(key))
        rhs = _mat_mul(cx.columns(key, 1), g.columns(key))
        if not _same(lhs, rhs):
            return False
    return True


def mirror_intertwines(diagram: Diagram) -> bool:
    """Check mirror_map . d~ == d+ . mirror_map, with d~ the transposed d."""
    phi, cx, cxm = mirror_map(diagram)
    for key in cx.sizes:
        i, j, s = key
        up = (i + 2, j, s)
        d_tilde = _transpose(cx.columns(up), cx.dim(key))
        lhs = _mat_mul(phi.columns(up), d_tilde)
        rhs = _mat_mul(cxm.columns(_negate_key(key), 1), phi.columns(key))
        if not _same(lhs, rhs):
            return False
    return True


# The maps of the last R3Data that the C' checks read:
# [data, (beta, rho_II section, rho_II, beta_bar . rho_II)].
_C_PRIME_MAPS: list = [None, None]


def _c_prime_maps(data: R3Data) -> tuple:
    """beta, the rho_II section, rho_II and the lift beta_bar . rho_II of
    ``data``'s triple and pair, built once per R3Data."""
    if _C_PRIME_MAPS[0] is not data:
        rho2 = rho_II(data.pair)
        _C_PRIME_MAPS[:] = [data, (viro_beta(data.triple), rho_II_section(data.pair),
                                   rho2, viro_beta_bar(data.triple).compose(rho2))]
    return _C_PRIME_MAPS[1]


def c_prime_columns(data: R3Data, key: GradingKey) -> Columns:
    """Sparse columns spanning the subcomplex C' of C(D) at one grading key.

    C' is spanned by all states with a negative marker at p together with
    the image of the undone complex under beta_bar . rho_II.
    """
    cp = data.triple.cp
    bid = cp._keys.index(key) if key in cp.sizes else -1
    i, j, s0 = key
    # Rows of a block are numbered in enumeration order, as _rows runs.
    return ([[(row, 1)] for markers, rows in cp._rows.items() if markers[0] < 0
             for b, row in rows if b == bid]
            + _c_prime_maps(data)[3].columns((i - 1, j - 1, s0)))


def membership_in_c_prime(data: R3Data, key: GradingKey,
                          column: list[tuple[int, int]]) -> bool:
    """x (one sparse column) is in C' iff beta(x) equals rho_II of its
    (v:-1, w:+1) component."""
    beta, section, rho2, _lift = _c_prime_maps(data)
    i, j, s0 = key
    bkey = (i - 1, j - 1, s0)
    y = _mat_mul(beta.columns(key), [column])
    small = _mat_mul(section.columns(bkey), y)
    back = _mat_mul(rho2.columns(bkey), small)
    return _same(y, back)
