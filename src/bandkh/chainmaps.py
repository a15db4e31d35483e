"""Executable chain-level maps and their verification.

All maps are integer matrices between the graded blocks of two
:class:`~bandkh.state_complex.GradedComplex` objects, stored like the blocks
of d as sparse columns (per source state, its (row, entry) pairs).  The
complexes of the two smoothings of a crossing are represented as the same
diagram with that crossing's marker frozen, so every state of every complex
in a skein triple lives over one diagram and no circle matching across
diagrams is needed.

Naming note: several classical letters are overloaded in the literature.
Here ``reorder_iso`` is the crossing-reorder isomorphism, ``f_embed`` and
``g_embed`` are the two second-Reidemeister embeddings, ``g_map`` is the
coefficient sign map relating the differentials d and d+, and
``mirror_map`` is the grading-reversing map onto the mirror diagram.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .diagram import (
    Diagram,
    MarkerVector,
    R3Site,
    apply_r1_neg,
    apply_r3,
    mirror,
    reorder_crossings,
    validate_r3_site,
)
from .homology import homology
from .linalg import (
    Columns,
    Matrix,
    _dense_view,
    _mat_mul,
    _same,
    invariant_factors,
    rank_over,
)
from .state_complex import ComplexError, GradedComplex, GradingKey, _CodeMap, _images
from .surface import grading_negate


class ChainMapError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Chain maps
# ---------------------------------------------------------------------------

@dataclass
class ChainMap:
    """A graded map given by one sparse block per source grading key: per
    source state, the (row, entry) pairs of its image, rows indexing the
    target bucket at ``grading(key)``, zero entries dropped."""

    source: GradedComplex
    target: GradedComplex
    grading: Callable[[GradingKey], GradingKey]
    blocks: dict[GradingKey, Columns]
    name: str = ""

    @staticmethod
    def build(source: GradedComplex, target: GradedComplex,
              grading: Callable[[GradingKey], GradingKey],
              step: Callable, name: str = "") -> "ChainMap":
        """The map filled in the source's one walk over its row tables, as d
        is: ``step(markers)`` is None where the map vanishes, else one part
        (sign, target markers, code map) of ``GradedComplex._fill``; a code
        map of None keeps each label code.  An entry off the target block at
        ``grading(key)`` raises :class:`ChainMapError` naming the map."""
        try:
            blocks = source._fill(target, grading,
                                  lambda m: () if (part := step(m)) is None else (part,))
        except ComplexError as exc:
            raise ChainMapError(f"{name or 'map'}: {exc}") from exc
        return ChainMap(source, target, grading, blocks, name)

    def columns(self, key: GradingKey) -> Columns:
        """The stored sparse block out of ``key``; ``[]`` for a key with no
        source bucket.  Shared, not copied: read it only."""
        return self.blocks.get(key, [])

    def block(self, key: GradingKey) -> Matrix:
        """A new dense view of the block out of ``key``."""
        return _dense_view(self.columns(key), self.target.dim(self.grading(key)))

    def commutes(self, sign: int = 1) -> bool:
        """d_target . M == sign * M . d_source on every block."""
        for key in set(self.source.sizes) | set(self.blocks):
            i, j, s = key
            ti, tj, ts = self.grading(key)
            if self.grading((i - 2, j, s)) != (ti - 2, tj, ts):
                raise ChainMapError("commutes() needs a shift-type grading map")
            lhs = _mat_mul(self.target.columns((ti, tj, ts)), self.columns(key))
            rhs = _mat_mul(self.columns((i - 2, j, s)), self.source.columns(key))
            if not _same(lhs, rhs, sign):
                return False
        return True

    def compose(self, inner: "ChainMap", name: str = "") -> "ChainMap":
        """self . inner (inner applied first)."""
        if not _compatible(inner.target, self.source):
            raise ChainMapError("composition target/source mismatch")
        grading = lambda key, g1=inner.grading, g2=self.grading: g2(g1(key))
        blocks = {key: _mat_mul(self.columns(inner.grading(key)), inner.columns(key))
                  for key in inner.source.sizes}
        return ChainMap(inner.source, self.target, grading, blocks,
                        name or f"{self.name}.{inner.name}")

    def add(self, other: "ChainMap", name: str = "") -> "ChainMap":
        if not (_compatible(other.source, self.source)
                and _compatible(other.target, self.target)):
            raise ChainMapError("sum needs identical source and target")
        blocks = {}
        for key in {**self.blocks, **other.blocks}:
            empty = [[]] * self.source.dim(key)  # a block that one side lacks
            columns = []
            for x, y in zip(self.columns(key) or empty, other.columns(key) or empty):
                acc = dict(x)
                for r, v in y:
                    acc[r] = acc.get(r, 0) + v
                columns.append([(r, v) for r, v in acc.items() if v])
            blocks[key] = columns
        return ChainMap(self.source, self.target, self.grading, blocks,
                        name or f"{self.name}+{other.name}")

    def scale(self, x: int) -> "ChainMap":
        return ChainMap(self.source, self.target, self.grading,
                        {k: [[(r, x * v) for r, v in col if x] for col in m]
                         for k, m in self.blocks.items()},
                        self.name)


def _compatible(a: GradedComplex, b: GradedComplex) -> bool:
    """Complexes agree when built from equal diagrams and frozen patterns.

    Deterministic enumeration makes their bucket bases coincide, so their
    matrices are interchangeable.
    """
    return a is b or (a.diagram == b.diagram and a.frozen == b.frozen)


def _shift(di: int, dj: int) -> Callable[[GradingKey], GradingKey]:
    return lambda key: (key[0] + di, key[1] + dj, key[2])


def identity_grading(key: GradingKey) -> GradingKey:
    return key


def _transport(src_cx: GradedComplex, tgt_cx: GradedComplex, anchors: Sequence[int],
               marker_map, sign=lambda m: 1, negate: bool = False) -> Callable:
    """A step of :meth:`ChainMap.build` moving states between two diagrams.
    ``anchors[a]`` is the source slot on the strand of target slot ``a``, or
    -1, free loop k of an n-crossing diagram being slot 4n + k.  Once per
    marker vector, each target circle takes the label of the one source
    circle its anchored slots reach through the smoothing's ``at``, or is
    new, labelled -1, if they reach none; ``negate`` then reverses every
    label, and the states over ``m`` are signed by ``sign(m)``.  Its code
    map keeps the matched circles, and its ``base`` is the image of code 0
    (:func:`~bandkh.state_complex._images`).
    Raises :class:`ChainMapError` unless the matched source circles are
    distinct and cover the source smoothing."""
    n_loops, tloop = len(src_cx.diagram.loops), 4 * tgt_cx.diagram.n_crossings

    def step(markers: MarkerVector):
        tmarkers = marker_map(markers)
        src, tgt = src_cx.smoothing(markers), tgt_cx.smoothing(tmarkers)
        width_src, width = len(src.circles), len(tgt.circles)
        reach = src.at + list(range(width_src - n_loops, width_src))  # loops come last
        base, pairs, matched = (1 << width) - 1 if negate else 0, [], []
        for k, c in enumerate(tgt.circles):
            hits = {reach[x] for a in c.ints or (tloop + c.loop,) if (x := anchors[a]) >= 0}
            matched += hits
            if len(hits) == 1:
                pairs.append((1 << width_src - 1 - matched[-1], 1 << width - 1 - k))
            elif not hits:
                base ^= 1 << width - 1 - k
        if len(pairs) != len(matched) or sorted(matched) != list(range(width_src)):
            raise ChainMapError(f"the circles over markers {markers} do not "
                                "correspond between the two diagrams")
        return sign(markers), tmarkers, _CodeMap(tmarkers, width,
                                                 _images(pairs, 0, {0: (0,)}, base))
    return step


def _sign(markers: MarkerVector) -> int:
    return (-1) ** sum(m < 0 for m in markers)


def _resmooth(cx: GradedComplex, pos: int, sign=lambda m: 1) -> Callable:
    """Turn the +1 marker at ``pos`` into -1, signing the states over ``m``
    by ``sign(m)``: a step of :meth:`ChainMap.build`, its code map the flip
    rule that the sweep of d uses."""
    def step(m: MarkerVector):
        rule = cx._flip(m, pos)
        return sign(m), rule.target, rule
    return step


# ---------------------------------------------------------------------------
# Sign maps
# ---------------------------------------------------------------------------

def eta(cx: GradedComplex) -> ChainMap:
    """S -> (-1)^{m(S)} S with m the number of negative markers; d eta = -eta d."""
    return ChainMap.build(cx, cx, identity_grading,
                          lambda m: (_sign([m[q] for q in cx.free]), m, None), "eta")


def g_map(cx: GradedComplex) -> ChainMap:
    """Sign map turning d into d+ (positive markers counted after the crossing).

    u(S) counts positively marked free crossings whose 0-based position rank
    has the same parity as the total crossing count; then g . d = d+ . g.
    """
    counted = [pos for rank, pos in enumerate(cx.free) if rank % 2 == len(cx.free) % 2]
    return ChainMap.build(cx, cx, identity_grading,
                          lambda m: (_sign([-m[q] for q in counted]), m, None), "g")


# ---------------------------------------------------------------------------
# Mirror image and duality
# ---------------------------------------------------------------------------

def _negate_key(key: GradingKey) -> GradingKey:
    i, j, s = key
    return (-i, -j, grading_negate(s))


def mirror_map(diagram: Diagram) -> tuple[ChainMap, GradedComplex, GradedComplex]:
    """The grading-reversing bijection onto the mirror diagram.

    Sends a state to the state of the mirror with all markers and all circle
    labels reversed; it intertwines the transposed differential with d+.
    """
    cx = GradedComplex(diagram)
    cxm = GradedComplex(mirror(diagram))
    n4 = 4 * diagram.n_crossings
    # The mirror moves each edge end from slot s to s + 1 of its crossing.
    anchors = [t & ~3 | (t - 1) & 3 if t < n4 else t
               for t in range(n4 + len(diagram.loops))]
    step = _transport(cx, cxm, anchors, lambda markers: tuple(-m for m in markers),
                      negate=True)
    return ChainMap.build(cx, cxm, _negate_key, step, "mirror"), cx, cxm


@dataclass
class DualityReport:
    ok: bool
    failures: list[str] = field(default_factory=list)


def duality_check(diagram: Diagram, cx: GradedComplex | None = None) -> DualityReport:
    """Free ranks match the mirror at reversed gradings; torsion shifts by i-2.

    ``cx``, the unfrozen complex of ``diagram``, is built unless the caller
    passes the one it holds; the mirror's complex is always built here."""
    if cx is None:
        cx = GradedComplex(diagram)
    elif cx.frozen or cx.diagram != diagram:
        raise ChainMapError("cx must be the unfrozen complex of the diagram")
    table = homology(cx)
    table_m = homology(GradedComplex(mirror(diagram)))
    failures = []
    keys = set(table.groups) | {_negate_key(k) for k in table_m.groups}
    keys |= {(i + 2, j, s) for (i, j, s) in table.groups}
    for key in keys:
        i, j, s = key
        gm = table_m.group(_negate_key(key))
        if gm.rank != table.group(key).rank:
            failures.append(f"rank mismatch at (i={i},j={j},s={s.text})")
        if gm.torsion != table.group((i - 2, j, s)).torsion:
            failures.append(f"torsion mismatch at (i={i},j={j},s={s.text})")
    return DualityReport(not failures, sorted(failures))


# ---------------------------------------------------------------------------
# Crossing reordering
# ---------------------------------------------------------------------------

def reorder_iso(diagram: Diagram, permutation: Sequence[int]) -> ChainMap:
    """Chain isomorphism between the two crossing orders.

    A state goes to itself with the sign of the permutation induced on its
    negatively marked crossings.
    """
    d2 = reorder_crossings(diagram, permutation)
    cx, cx2 = GradedComplex(diagram), GradedComplex(d2)
    new_pos = {diagram.crossings[old]: k for k, old in enumerate(permutation)}

    def sign(markers: MarkerVector) -> int:
        seq = [new_pos[c] for c, m in zip(diagram.crossings, markers) if m < 0]
        return (-1) ** sum(1 for a, b in itertools.combinations(seq, 2) if a > b)

    n4 = 4 * diagram.n_crossings
    anchors = [4 * permutation[t >> 2] | t & 3 if t < n4 else t
               for t in range(n4 + len(diagram.loops))]
    step = _transport(cx, cx2, anchors,
                      lambda markers: tuple(markers[old] for old in permutation), sign)
    return ChainMap.build(cx, cx2, identity_grading, step, "f12")


# ---------------------------------------------------------------------------
# Skein triples and the Viro maps
# ---------------------------------------------------------------------------

@dataclass
class SkeinTriple:
    """A diagram with a distinguished crossing and its two smoothings.

    ``c0``/``cinf`` are the complexes of the +1/-1 smoothings, realised as
    the full diagram with that crossing frozen; both take their states and
    smoothings from ``cp`` and sweep their own d and d+.
    """

    diagram: Diagram
    p: int
    cp: GradedComplex
    c0: GradedComplex
    cinf: GradedComplex


def skein_triple(diagram: Diagram, p: int,
                 cp: GradedComplex | None = None) -> SkeinTriple:
    """The triple at crossing ``p``; ``cp``, the unfrozen complex of
    ``diagram``, is built unless the caller passes the one it holds."""
    if not 0 <= p < diagram.n_crossings:
        raise ChainMapError(f"bad distinguished crossing {p}")
    if cp is None:
        cp = GradedComplex(diagram)
    elif cp.frozen or cp.diagram != diagram:
        raise ChainMapError("cp must be the unfrozen complex of the diagram")
    return SkeinTriple(diagram, p, cp, GradedComplex(diagram, {p: 1}, share=cp),
                       GradedComplex(diagram, {p: -1}, share=cp))


def viro_alpha(t: SkeinTriple) -> ChainMap:
    """Embedding of the infinity smoothing with a negative marker at p."""
    return ChainMap.build(t.cinf, t.cp, _shift(-1, -1),
                          lambda m: (_sign(m[:t.p]), m, None), "alpha")


def viro_beta(t: SkeinTriple) -> ChainMap:
    """Projection onto the states carrying a positive marker at p."""
    return ChainMap.build(t.cp, t.c0, _shift(-1, -1),
                          lambda m: (1, m, None) if m[t.p] > 0 else None, "beta")


def viro_alpha_bar(t: SkeinTriple) -> ChainMap:
    return ChainMap.build(t.cp, t.cinf, _shift(1, 1),
                          lambda m: (_sign(m[:t.p]), m, None) if m[t.p] < 0 else None,
                          "alpha_bar")


def viro_beta_bar(t: SkeinTriple) -> ChainMap:
    return ChainMap.build(t.c0, t.cp, _shift(1, 1), lambda m: (1, m, None), "beta_bar")


def viro_gamma(t: SkeinTriple) -> ChainMap:
    """Resmooth the distinguished crossing: the composite alpha0 . d_p . beta_bar."""
    return ChainMap.build(t.c0, t.cinf, _shift(0, 2), _resmooth(t.c0, t.p), "gamma")


def viro_gamma_hat(t: SkeinTriple) -> ChainMap:
    """gamma with the sign (-1)^{m(S)} (every negative marker of a c0 state
    is free); anti-commutes with the differential."""
    return ChainMap.build(t.c0, t.cinf, _shift(0, 2), _resmooth(t.c0, t.p, _sign),
                          "gamma_hat")


# ---------------------------------------------------------------------------
# Homology-level exactness over a field
# ---------------------------------------------------------------------------

def _block_rank(f: Columns, a: Columns, b: Columns, f_rows: int,
                a_rows: int) -> tuple[int, ...]:
    """The invariant factors of the block matrix [[f, b], [a, 0]].

    Its rank over a field is read off them (:func:`rank_over`).  With
    ``a`` the differential out of f's source and ``b`` the differential into
    f's target, that rank is rank a + rank b + the rank that f induces on
    homology (Marsaglia and Styan's rank identity), so no kernel basis is
    needed.  All three are sparse columns: ``f`` has ``f_rows`` rows, ``a``
    has ``a_rows`` rows and one column per column of f, and ``b`` has f's
    rows.
    """
    stacked = [[(f_rows + r, v) for r, v in a_col] + f_col
               for a_col, f_col in zip(a, f)]
    return invariant_factors(stacked + b, f_rows + a_rows)


@dataclass
class LESReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    positions_checked: int = 0


def long_exact_sequence_check(t: SkeinTriple,
                              fields: Iterable[str] = ("Q", "Z2")) -> LESReport:
    """Exactness of the induced long sequence at every position.

    At each middle term the rank of the incoming induced map plus the rank
    of the outgoing one must equal the homology dimension.  The connecting
    map is gamma_hat restricted to cycles.  The ranks of d and the homology
    dimensions come from each complex's :meth:`GradedComplex.rank_table`,
    built once per complex and tag tuple.  A map block f induces the rank
    of [[f, b], [a, 0]] less rank a and rank b (:func:`_block_rank`): that
    identity assumes d o d = 0 and a chain map, so the check first runs
    ``t.cp.check_d_squared()``, which raises :class:`ComplexError`.  That
    covers ``c0`` and ``cinf`` too: the d of ``c0`` is the diagonal block of
    ``cp``'s d on the states with +1 at p, and that of ``cinf`` the block on
    those with -1, conjugated by the sign -1 to the number of -1 markers
    before p.  d never turns -1 into +1, so these diagonal blocks of d o d
    are the squares of those blocks.  A zero f induces 0 unreduced, as
    [[0, b], [a, 0]] is block-diagonal.  So does f when its source or
    target key has zero homology over Z/2: for a chain map, rank f_* is at
    most either dimension, and the Z/2 dimension bounds the Q one
    (universal coefficients).  Only positions with nonzero homology over
    some tag are visited; the others are counted in ``positions_checked``
    but cannot fail, since both maps at them induce 0.  An empty or unknown
    field raises :class:`ChainMapError`.
    """
    fields = tuple(fields)
    if not fields:
        raise ChainMapError("no field to check exactness over")
    for ftag in fields:
        if ftag not in ("Q", "Z2"):
            raise ChainMapError(f"unknown field {ftag!r}")
    t.cp.check_d_squared()
    alpha, beta, gamma_hat = viro_alpha(t), viro_beta(t), viro_gamma_hat(t)
    failures: list[str] = []
    tags = fields if "Z2" in fields else fields + ("Z2",)
    live = tags.index("Z2")  # the tag that decides which blocks are reduced
    zero = (0,) * len(tags)
    tables = {cx: cx.rank_table(tags) for cx in (t.cp, t.c0, t.cinf)}
    empty = (zero, zero)
    ranks: dict[tuple[str, GradingKey], tuple[int, ...]] = {}

    def induced_rank(chmap: ChainMap, key: GradingKey) -> tuple[int, ...]:
        """Ranks induced on homology, one per tag; the map out of one
        position is the map into the next."""
        got = ranks.get((chmap.name, key))
        if got is None:
            got, t_key = zero, chmap.grading(key)
            d_src, h_src = tables[chmap.source].get(key, empty)
            h_tgt = tables[chmap.target].get(t_key, empty)[1]
            # stored columns hold no 0, so any() tells a zero block
            if h_src[live] and h_tgt[live] and any(block := chmap.columns(key)):
                (i, j, s), (ti, tj, ts) = key, t_key
                b_key = (ti + 2, tj, ts)
                factors = _block_rank(
                    block, chmap.source.columns(key), chmap.target.columns(b_key),
                    chmap.target.dim(t_key), chmap.source.dim((i - 2, j, s)))
                got = tuple(rank_over(factors, f) - a - b for f, a, b in zip(
                    tags, d_src, tables[chmap.target].get(b_key, empty)[0]))
            ranks[(chmap.name, key)] = got
        return got

    # Each candidate (i, j, s) gives three positions per field: D_p at
    # (i-1, j-1, s), D_0 at (i-2, j-2, s) and D_inf at (i-2, j, s).
    candidates = {(i + di, j + dj, s)
                  for cx, (di, dj) in ((t.cinf, (0, 0)), (t.cp, (1, 1)),
                                       (t.c0, (2, 2)), (t.cinf, (2, 0)))
                  for (i, j, s) in cx.sizes}

    # (position, its complex, incoming map, shift from a key to the map's
    # source key, outgoing map); the outgoing map starts at the position.
    for name, cx, into, (di, dj), out_of in (
            ("D_p", t.cp, alpha, (1, 1), beta),
            ("D_0", t.c0, beta, (1, 1), gamma_hat),
            ("D_inf", t.cinf, gamma_hat, (0, -2), alpha)):
        for (i, j, s), (_, h) in tables[cx].items():
            if not any(h):
                continue
            r_in = induced_rank(into, (i + di, j + dj, s))
            r_out = induced_rank(out_of, (i, j, s))
            # zip stops at ``fields``: an appended Z/2 tag is not checked
            failures += [f"{ftag}: not exact at {name} (i={i},j={j},s={s.text})"
                         for ftag, a, b, dim in zip(fields, r_in, r_out, h)
                         if a + b != dim]
    return LESReport(not failures, sorted(set(failures)),
                     3 * len(fields) * len(candidates))


# ---------------------------------------------------------------------------
# First Reidemeister move
# ---------------------------------------------------------------------------

def rho_I(diagram: Diagram, site, side: str = "left",
          ) -> tuple[ChainMap, Diagram]:
    """Chain map onto the diagram with a negative kink added at ``site``.

    A state acquires a negative marker at the new crossing and a new trivial
    circle labeled -1; the map shifts the grading by (-1, -3, 0) and induces
    an isomorphism on homology.
    """
    kinked = apply_r1_neg(diagram, site, side)
    kind, idx = site
    cx = GradedComplex(diagram)
    cx2 = GradedComplex(kinked)
    # Slot t is kinked slot t + 4.  On a loop site later loops shift down by
    # one, and the kink slots off the new circle run along the kinked loop.
    n4 = 4 * diagram.n_crossings
    anchors = [-1] * 4 + [t for t in range(n4 + len(diagram.loops))
                          if kind == "edge" or t != n4 + idx]
    if kind == "loop":
        for s in (0, 3) if side == "left" else (1, 2):
            anchors[s] = n4 + idx
    step = _transport(cx, cx2, anchors, lambda m: (-1,) + m)
    return ChainMap.build(cx, cx2, _shift(-1, -3), step, "rho_I"), kinked


# ---------------------------------------------------------------------------
# Second Reidemeister move
# ---------------------------------------------------------------------------

@dataclass
class R2Pair:
    """An R2 crossing pair (v, w) inside a diagram, v before w in the order.

    ``small`` is the undone diagram's complex, realised as the frozen
    (v:-1, w:+1) pattern (the smoothing that restores the original strands);
    ``tilde`` is the frozen (v:-1, w:-1) pattern (the opposite connection);
    ``big`` keeps both crossings free, and ``small`` and ``tilde`` take their
    states and smoothings from it.  ``big``'s own frozen markers (for
    triples) are carried along unchanged.  ``internal`` lists the edge
    indices owned by the site; the small circle created at the site is the
    unique circle traversing internal edges only.
    """

    diagram: Diagram
    v: int
    w: int
    big: GradedComplex
    small: GradedComplex
    tilde: GradedComplex
    internal: frozenset[int]


def r2_pair(big: GradedComplex, v: int, w: int,
            internal_edges: frozenset[int] | None = None) -> R2Pair:
    """Wrap an R2 crossing pair (v, w) of ``big``'s diagram, wired like the
    apply_r2 output, with ``big``'s frozen markers carried along.

    The (v:-1, w:+1) smoothing must be the parallel pattern restoring the
    undone strands (true for apply_r2 results and for even slot rotations
    of them, such as the triangle sites).  By default the two middle edges
    joining v and w are located by their slots; a site routed through extra
    frozen crossings passes its internal edges explicitly.
    """
    diagram = big.diagram
    small = GradedComplex(diagram, {**big.frozen, v: -1, w: 1}, share=big)
    tilde = GradedComplex(diagram, {**big.frozen, v: -1, w: -1}, share=big)
    if internal_edges is None:
        cv, cw = diagram.crossings[v], diagram.crossings[w]
        ends = [{(cv, 0), (cw, 2)}, {(cv, 1), (cw, 1)}]
        found = [k for k, e in enumerate(diagram.edges) if {e.a, e.b} in ends]
        if len(found) != 2:
            raise ChainMapError("(v, w) does not carry the apply_r2 middle edges")
        internal_edges = frozenset(found)
    return R2Pair(diagram, v, w, big, small, tilde, frozenset(internal_edges))


def f_embed(pair: R2Pair) -> ChainMap:
    """Identity embedding of the undone complex as the (v:-1, w:+1) states."""
    return ChainMap.build(pair.small, pair.big, identity_grading, lambda m: (1, m, None),
                          "f_embed")


def gamma_r2(pair: R2Pair) -> ChainMap:
    """Resmoothing of the R2 site; the analogue of the skein-triple gamma."""
    return ChainMap.build(pair.small, pair.tilde, _shift(0, 2),
                          _resmooth(pair.small, pair.w), "gamma_r2")


def g_embed(pair: R2Pair) -> ChainMap:
    """Embedding of the opposite connection as the (v:+1, w:-1) pattern, with
    the new circle labeled -1."""
    d = pair.diagram
    # Every slot stays put but those on the site's internal edges, so the
    # small circle, which runs along internal edges only, is the new one.
    names = d.slot_tables.names
    anchors = [-1 if d.edge_at(name)[0] in pair.internal else t
               for t, name in enumerate(names)]
    anchors += range(len(names), len(names) + len(d.loops))
    moved = lambda m: m[:pair.v] + (1,) + m[pair.v + 1:]
    move = _transport(pair.tilde, pair.big, anchors, moved)

    def step(m: MarkerVector):
        width = len(pair.tilde.smoothing(m).circles)
        if len(pair.big.smoothing(moved(m)).circles) != width + 1:
            raise ChainMapError("R2 small-circle detection failed")
        return move(m)

    return ChainMap.build(pair.tilde, pair.big, _shift(0, -2), step, "g_embed")


def rho_II(pair: R2Pair) -> ChainMap:
    """The second-Reidemeister chain map f + g . gamma."""
    f = f_embed(pair)
    gg = g_embed(pair).compose(gamma_r2(pair))
    return f.add(gg, "rho_II")


def rho_II_section(pair: R2Pair) -> ChainMap:
    """Left inverse of rho_II on its image: read off the (v:-1, w:+1) rows."""
    return ChainMap.build(pair.big, pair.small, identity_grading, lambda m: (1, m, None)
                          if (m[pair.v], m[pair.w]) == (-1, 1) else None, "rho_II_inv")


# ---------------------------------------------------------------------------
# Third Reidemeister move
# ---------------------------------------------------------------------------

@dataclass
class R3Data:
    """Everything rho_III needs, for a diagram with the triangle first.

    The input diagram must carry the site crossings at positions p=0, v=1,
    w=2; the strand ``a`` must be the over-strand at v and w and ``b`` the
    over-strand at p (these parities are what the construction was derived
    for).  ``moved`` is the diagram after the move, with crossing order
    (p, w, v, rest).
    """

    diagram: Diagram
    site: R3Site
    moved: Diagram
    triple: SkeinTriple
    triple2: SkeinTriple
    pair: R2Pair
    pair2: R2Pair
    nu: ChainMap           # undone complex of D  ->  undone complex of D'
    f_inf: ChainMap        # C(D_inf) -> C(D'_inf), the geometric transport
    rho: ChainMap          # C(D_0) -> C(D'_0), defined on the image subcomplex
    rho_III: ChainMap      # C(D) -> C(D'), defined on C'


def r3_data(diagram: Diagram, site: R3Site) -> R3Data:
    beta_v, gamma_w, xi = validate_r3_site(diagram, site)
    if (diagram.crossings[0], diagram.crossings[1], diagram.crossings[2]) != (
            site.p, site.v, site.w):
        raise ChainMapError("rho_III needs the site crossings first, in order p, v, w")
    if beta_v % 2 or gamma_w % 2:
        raise ChainMapError("rho_III is implemented for the sliding strand over")
    if xi % 2:
        raise ChainMapError("rho_III is implemented for b over c at p")
    moved = apply_r3(diagram, site)

    internal = {site.e_a, site.e_vp, site.e_wp}
    # apply_r3 keeps external edges first, in their original relative order,
    # so edge k < n_ext of the moved diagram is edge externals[k].
    externals = [k for k in range(len(diagram.edges)) if k not in internal]
    n_ext = len(externals)
    new_internal = {n_ext, n_ext + 1, n_ext + 2}

    triple = skein_triple(diagram, 0)
    triple2 = skein_triple(moved, 0)
    pair = r2_pair(triple.c0, 1, 2, frozenset(internal))
    # The moved site carries the mirror handedness: its parallel pattern
    # marks the a-over-b crossing (id v, now third) with -1.
    pair2 = r2_pair(triple2.c0, 2, 1, frozenset(new_internal))

    # Each end of moved edge k < n_ext is that end of edge externals[k].
    slot_of = {name: t for t, name in enumerate(diagram.slot_tables.names)}
    anchors = [slot_of[getattr(diagram.edges[externals[k]], end)] if k < n_ext else -1
               for k, end in map(moved.edge_at, moved.slot_tables.names)]
    anchors += range(len(slot_of), len(slot_of) + len(diagram.loops))

    def marker_small(markers):
        # Undone pattern of the moved side: order (p, w, v) frozen (+1, +1, -1).
        return (1, 1, -1) + markers[3:]

    nu = ChainMap.build(pair.small, pair2.small, identity_grading,
                        _transport(pair.small, pair2.small, anchors, marker_small), "nu")

    # With the moved ordering (p, w, v) the geometric identification of the
    # two minus-smoothings is position-preserving (the strand crossing a at
    # position 1 is the B-to-C hybrid on both sides), so the transport
    # carries no reordering sign.
    f_inf = ChainMap.build(triple.cinf, triple2.cinf, identity_grading,
                           _transport(triple.cinf, triple2.cinf, anchors,
                                      lambda markers: markers),
                           "f_inf")

    beta, section = viro_beta(triple), rho_II_section(pair)
    rho = rho_II(pair2).compose(nu).compose(section, "rho")
    term1 = viro_beta_bar(triple2).compose(rho).compose(beta)
    term2 = viro_alpha(triple2).compose(f_inf).compose(viro_alpha_bar(triple))
    rho3 = term1.add(term2, "rho_III")
    return R3Data(diagram, site, moved, triple, triple2, pair, pair2, nu, f_inf,
                  rho, rho3)

