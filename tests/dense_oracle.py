"""Brute-force homology oracle: all states at once, dense matrices, no
(j, s)-block structure.

Used to cross-check the optimized pipeline.  The circle tracer, state
bookkeeping, the incidence rule, the differential assembly and the Smith
reduction are reimplemented here in the plainest possible way (circles
traced on (crossing, slot) pairs, states grouped by total degree alone, one
dense matrix per homological level and j-value, naive Euclidean Smith
reduction).

:func:`smooth` traces circles on (crossing id, slot) pairs, edge by edge,
as the library did before it compiled each diagram into integer slot
tables.

:func:`resmoothings` derives the targets of one crossing flip state by
state, as the library did before it cached one rule per (markers, crossing).
:func:`assemble` builds one dense block of d (or d+) state by state from it,
and :func:`d_squared_blocks` multiplies those dense blocks: the per-block
path the library used before its one-sweep sparse assembly.

:func:`dense_matrix`, :func:`_mat_mul`, :func:`mats_equal` and
:func:`mat_add` are the dense matrix helpers the library used before its
differentials and chain maps became sparse columns.

:func:`enumerate_states` is the eager enumeration that built every
``EnhancedState`` and ``index`` entry before the library kept only row
tables and block sizes and decoded its ``buckets`` and ``index`` on first
read.

:func:`block_homology` is the per-block dense reduction that
:func:`bandkh.homology.homology` ran before it eliminated unit pivots on the
sparse blocks.  :func:`divisor_chain` builds a divisor chain by trial
division, as the library did before it merged orders by gcd and lcm.

:func:`induced_rank` is the field algebra the long-exact-sequence check
used before it moved to block ranks: a kernel basis by ``Fraction`` (or
Z/2) row reduction, its image, and the rank modulo the boundaries.  The
same row reduction gives :func:`rank` over Q and Z/2, the oracle for the
ranks that the library reads off invariant factors over Z.

:func:`les_report` is the long-exact-sequence check as it ran before it
kept one rank table per complex and skipped zero map blocks and blocks
between keys with no Z/2 homology: every rank of d read off ``factors()``
per call, and every map block reduced (:func:`les_induced_ranks`).

:func:`apply_r1_pos` spells out the edges of a positive kink, as the
library did before it built one as a switched negative kink.

:func:`bracket_recursive` builds and multiplies one ``LaurentPolyA`` per
recursion node, as ``skein.bracket_recursive`` did before both bracket
paths counted their states and collected the counts once.  Its leaves are
traced by :func:`smooth`, so it shares no class memo with the library.
:func:`phi_of_basis` rebuilds and sorts each monomial and sums each
grading's polynomial, as ``skein.phi_of_basis`` did before it extended
monomials in the element's class order.

:func:`build` is the state-by-state chain-map builder: it decodes every
source state and ``locate``s each of its images in the target, as
``ChainMap.build`` did before it walked the row tables once per marker
vector, in the walk that also fills d and d+.  :data:`VIRO_MAPS`, :data:`SIGN_MAPS` and :data:`R2_MAPS` build
the skein-triple maps, the sign maps and the second-move maps that stay
inside one diagram's complexes through it.  :func:`mirror_map`,
:func:`reorder_iso`, :func:`rho_I`, :func:`g_embed` and
:func:`r3_transports` (the R3 maps ``nu`` and ``f_inf``) build the maps
between two diagrams through it, each state moved by matching its circles
by key (:func:`_transport`), as the library did before it matched circles
through integer anchor tables.  The keys are the library's old ones:
:func:`rho_I` finds the kink's new circle by
:func:`r1_neg_small_circle_slots`, :func:`g_embed` keys an R2 pair's
circles by their external edges (:func:`circle_key`, once
``R2Pair.circle_key``), and :func:`r3_transports` keys circles by their
external edges (:func:`_external_edge_keys`) on its own.

:func:`dual_matrices` gives the cochain blocks of a complex, each the
transpose (:func:`_transpose`) of a block of d.  :func:`iota_embed`, the
embedding of the (v:-1, w:-1) pattern in the second move, has no library
twin: only the identities of ``rho_II`` read it.
"""

from __future__ import annotations

import itertools
from math import comb
from fractions import Fraction

from bandkh import chainmaps
from bandkh.chainmaps import (
    ChainMap,
    ChainMapError,
    r2_pair,
    skein_triple,
)
from bandkh.diagram import (
    Circle,
    Diagram,
    DiagramError,
    Edge,
    Site,
    SiteError,
    _fresh_ids,
    _take_site,
    apply_r1_neg,
    apply_r3,
    mirror,
    reorder_crossings,
    smooth_crossing,
)
from bandkh.homology import AbelianGroup, HomologyTable
from bandkh.linalg import rank_over, smith_normal_form
from bandkh.skein import LOOP_FACTOR, BasisElement, BracketExpansion, LaurentPolyA
from bandkh.state_complex import EnhancedState, GradedComplex, StateKey
from bandkh.surface import CurveKind, GradingS, classify, free_reduce, grading_negate


def _arc_partner(slot: int, marker: int) -> int:
    if marker > 0:
        return slot ^ 1  # 0<->1, 2<->3
    return {0: 3, 3: 0, 1: 2, 2: 1}[slot]


def smooth(diagram: Diagram, markers) -> tuple[Circle, ...]:
    """Circles of the diagram smoothed according to the marker vector,
    traced slot by slot: traced circles sorted by their smallest incident
    (crossing index, slot), free loops last in declaration order."""
    if len(markers) != diagram.n_crossings:
        raise DiagramError("marker vector length must equal the crossing count")
    cidx = {c: k for k, c in enumerate(diagram.crossings)}
    visited: set = set()
    circles: list[Circle] = []
    order = tuple(sorted(((c, s) for c in diagram.crossings for s in range(4)),
                         key=lambda p: (cidx[p[0]], p[1])))
    for start in order:
        if start in visited:
            continue
        word: list = []
        slots: list = []
        cur = start
        while True:
            partner = (cur[0], _arc_partner(cur[1], markers[cidx[cur[0]]]))
            visited.update((cur, partner))
            slots += (cur, partner)
            k, end = diagram.edge_at(partner)
            edge = diagram.edges[k]
            word.extend(edge.word_from(end))
            cur = edge.other(end)
            if cur == start:
                break
        w = free_reduce(word)
        circles.append(Circle(w, classify(w, diagram.surface),
                              tuple(4 * cidx[c] + s for c, s in slots), order))
    for k, w in enumerate(diagram.loops):
        circles.append(Circle(free_reduce(w), classify(w, diagram.surface), loop=k))
    return tuple(circles)


def _states(diagram: Diagram):
    """List of (markers, labels, i, j) with circles cached per marker."""
    out = []
    circ_cache = {}
    for markers in itertools.product((1, -1), repeat=diagram.n_crossings):
        circles = smooth(diagram, markers)
        circ_cache[markers] = circles
        for labels in itertools.product((1, -1), repeat=len(circles)):
            i = sum(markers)
            tau = sum(l for c, l in zip(circles, labels)
                      if c.kind is CurveKind.TRIVIAL)
            out.append((markers, tuple(labels), i, i + 2 * tau))
    return out, circ_cache


def enumerate_states(complex_):
    """(buckets, index) of ``complex_``, built eagerly state by state: the
    enumeration the library ran before it kept only row tables and block
    sizes.  Free markers in binary order (+1 first), then labels; each
    bucket in enumeration order, ``index`` mapping a ``StateKey`` to its
    (grading key, row)."""
    buckets: dict = {}
    index: dict = {}
    for free_markers in itertools.product((1, -1), repeat=len(complex_.free)):
        full = dict(complex_.frozen)
        full.update(zip(complex_.free, free_markers))
        markers = tuple(full[pos] for pos in range(complex_.diagram.n_crossings))
        circles = smooth(complex_.diagram, markers)
        i = sum(free_markers)
        for labels in itertools.product((1, -1), repeat=len(circles)):
            tau = sum(lab for c, lab in zip(circles, labels)
                      if c.kind is CurveKind.TRIVIAL)
            s = GradingS.from_pairs((c.cls, lab) for c, lab in zip(circles, labels)
                                    if c.kind is CurveKind.UNBOUNDING)
            key = (i, i + 2 * tau, s)
            bucket = buckets.setdefault(key, [])
            index[StateKey(markers, labels)] = (key, len(bucket))
            bucket.append(EnhancedState(markers, labels, i, tau, i + 2 * tau, s,
                                        free_markers.count(-1)))
    return buckets, index


def _incident(diagram, circ_cache, s_from, s_to):
    """Incidence of two states: markers differ at one crossing, + to -, with
    matching untouched labels and conserved label sums per class."""
    m1, l1 = s_from[0], s_from[1]
    m2, l2 = s_to[0], s_to[1]
    diffs = [k for k in range(len(m1)) if m1[k] != m2[k]]
    if len(diffs) != 1 or m1[diffs[0]] != 1:
        return 0
    v = diffs[0]
    cid = diagram.crossings[v]
    vslots = {(cid, s) for s in range(4)}
    c1, c2 = circ_cache[m1], circ_cache[m2]
    lab1 = {c.key: l for c, l in zip(c1, l1)}
    lab2 = {c.key: l for c, l in zip(c2, l2)}
    for c in c1:
        if not (c.slots & vslots) and lab2.get(c.key) != lab1[c.key]:
            return 0
    sums1: dict = {}
    sums2: dict = {}
    for circles, labs, sums in ((c1, l1, sums1), (c2, l2, sums2)):
        tau = 0
        for c, l in zip(circles, labs):
            if c.slots & vslots:
                key = "tau" if c.kind is CurveKind.TRIVIAL else c.cls
                sums[key] = sums.get(key, 0) + l
    if sums2.get("tau", 0) != sums1.get("tau", 0) + 1:
        return 0
    a = {k: x for k, x in sums1.items() if k != "tau" and x}
    b = {k: x for k, x in sums2.items() if k != "tau" and x}
    if a != b:
        return 0
    t = sum(1 for q in range(v + 1, len(m1)) if m1[q] < 0)
    return -1 if t % 2 else 1


def flip_rule(complex_, markers, pos):
    """(target, width, kept, mask, local) of turning the +1 marker at ``pos``
    into -1 for every state over ``markers``: the fields of the complex's
    flip rule, with each untouched target circle matched to the source
    circle of the same key, and ``local`` read off :func:`resmoothings`
    state by state."""
    flipped = markers[:pos] + (-1,) + markers[pos + 1:]
    src = smooth(complex_.diagram, markers)
    tgt = smooth(complex_.diagram, flipped)
    cid = complex_.diagram.crossings[pos]
    vslots = {(cid, s) for s in range(4)}
    src_bit = lambda k: 1 << len(src) - 1 - k
    tgt_bit = lambda k: 1 << len(tgt) - 1 - k
    touched = [k for k, c in enumerate(src) if c.slots & vslots]
    new = [k for k, c in enumerate(tgt) if c.slots & vslots]
    untouched = {c.key: k for k, c in enumerate(src) if k not in touched}
    kept = tuple((src_bit(untouched[c.key]), tgt_bit(k))
                 for k, c in enumerate(tgt) if k not in new)
    local = {}
    for chosen in itertools.product((1, -1), repeat=len(touched)):
        labels = dict(zip(touched, chosen))
        state = StateKey(markers, tuple(labels.get(k, 1) for k in range(len(src))))
        local[sum(src_bit(k) for k, lab in labels.items() if lab < 0)] = tuple(
            sum(tgt_bit(k) for k in new if t.labels[k] < 0)
            for t in resmoothings(complex_, state, pos))
    return flipped, len(tgt), kept, sum(map(src_bit, touched)), local


def resmoothings(complex_, state, pos):
    """States of ``complex_`` reached by turning the +1 marker at ``pos``
    into -1, derived for this one state from the incidence conditions."""
    if state.markers[pos] <= 0:
        return []
    src = complex_.smoothing(state.markers).circles
    flipped = state.markers[:pos] + (-1,) + state.markers[pos + 1:]
    tgt = complex_.smoothing(flipped).circles
    cid = complex_.diagram.crossings[pos]
    vslots = {(cid, s) for s in range(4)}

    labels_by_key = {}
    tau_src = 0
    psi_src: dict = {}
    for circ, lab in zip(src, state.labels):
        if not circ.slots & vslots:
            labels_by_key[circ.key] = lab
        elif circ.kind is CurveKind.TRIVIAL:
            tau_src += lab
        else:
            psi_src[circ.cls] = psi_src.get(circ.cls, 0) + lab

    # Untouched circles keep their labels; the others are filled below.
    kept = [0] * len(tgt)
    new_circles: list[int] = []
    for k, c in enumerate(tgt):
        if c.slots & vslots:
            new_circles.append(k)
        else:
            kept[k] = labels_by_key[c.key]

    out = []
    for assignment in itertools.product((1, -1), repeat=len(new_circles)):
        tau_tgt = 0
        psi_tgt: dict = {}
        for k, lab in zip(new_circles, assignment):
            circ = tgt[k]
            if circ.kind is CurveKind.TRIVIAL:
                tau_tgt += lab
            else:
                psi_tgt[circ.cls] = psi_tgt.get(circ.cls, 0) + lab
        if tau_tgt != tau_src + 1:
            continue
        if {c: x for c, x in psi_tgt.items() if x} != \
                {c: x for c, x in psi_src.items() if x}:
            continue
        labels = kept.copy()
        for k, lab in zip(new_circles, assignment):
            labels[k] = lab
        out.append(StateKey(flipped, tuple(labels)))
    return out


def assemble(complex_, key, counted=-1):
    """Dense block of ``complex_`` out of ``key``, entry ``(-1)^t`` where
    ``t`` counts the free markers equal to ``counted`` after the flipped
    crossing (-1 for d, +1 for d+)."""
    i, j, s = key
    src = complex_.buckets.get(key, [])
    tgt_key = (i - 2, j, s)
    mat = [[0] * len(src) for _ in range(complex_.dim(tgt_key))]
    for col, state in enumerate(src):
        for pos in complex_.free:
            if state.markers[pos] <= 0:
                continue
            t = sum(1 for q in complex_.free
                    if q > pos and state.markers[q] == counted)
            for target in resmoothings(complex_, state, pos):
                tkey, row = complex_.index[target]
                assert tkey == tgt_key
                mat[row][col] += (-1) ** t
    return mat


def sparse_columns(mat, cols):
    """The sparse columns, (row, entry) pairs, of a dense matrix with
    ``cols`` columns: the form ``GradedComplex.columns`` returns."""
    return [[(r, row[c]) for r, row in enumerate(mat) if row[c]]
            for c in range(cols)]


def dense_matrix(columns, rows):
    """The dense ``rows`` x ``len(columns)`` matrix of sparse columns."""
    mat = [[0] * len(columns) for _ in range(rows)]
    for c, column in enumerate(columns):
        for r, v in column:
            mat[r][c] += v
    return mat


def _transpose(mat, rows):
    """The transpose of the sparse columns ``mat``, which has ``rows`` rows."""
    out = [[] for _ in range(rows)]
    for c, column in enumerate(mat):
        for r, v in column:
            out[r].append((c, v))
    return out


def dual_matrices(cx):
    """Cochain blocks of ``cx`` as sparse columns: the map out of (i, j, s)
    raising i by 2.

    The block at (i, j, s) is the transpose of the differential block at
    (i+2, j, s); identifying each state with its dual basis vector makes
    this the coboundary.
    """
    return {key: _transpose(cx.columns((key[0] + 2, key[1], key[2])), cx.dim(key))
            for key in cx.sizes}


def _mat_mul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][c] for t in range(inner)) for c in range(cols)]
            for row in a]


def mats_equal(a, b):
    """Entrywise equality, shorter rows and missing rows read as zeros
    (dense products of degenerate shapes lose widths)."""
    for r in range(max(len(a), len(b))):
        ra = a[r] if r < len(a) else ()
        rb = b[r] if r < len(b) else ()
        for c in range(max(len(ra), len(rb))):
            va = ra[c] if c < len(ra) else 0
            vb = rb[c] if c < len(rb) else 0
            if va != vb:
                return False
    return True


def mat_add(a, b):
    """Entrywise sum, zero-padded to the larger shape."""
    rows = max(len(a), len(b))
    out = []
    for r in range(rows):
        ra = a[r] if r < len(a) else ()
        rb = b[r] if r < len(b) else ()
        cols = max(len(ra), len(rb))
        out.append([(ra[c] if c < len(ra) else 0) + (rb[c] if c < len(rb) else 0)
                    for c in range(cols)])
    return out


def d_squared_blocks(complex_):
    """Whether d o d vanishes on each (j, s) block, in (j, s) order."""
    ok = {}
    for (i, j, s) in complex_.buckets:
        upper = assemble(complex_, (i + 2, j, s))
        lower = assemble(complex_, (i, j, s))
        zero = not any(any(row) for row in _mat_mul(lower, upper))
        ok[(j, s)] = ok.get((j, s), True) and zero
    return {k: ok[k] for k in sorted(ok, key=lambda k: (k[0], k[1].sort_key))}


def _snf_diagonal(mat):
    """Naive Smith reduction: Euclidean steps from a pivot of minimal
    absolute value, picked afresh whenever a step leaves a remainder, so
    that the pivot shrinks at every step.  (Pivoting on the first nonzero
    entry, or keeping a remainder as the pivot and sweeping on, let the
    entries of some small matrices grow without bound.)"""
    m = [row[:] for row in mat]
    rows, cols = len(m), len(m[0]) if m else 0
    diag = []
    top = 0
    while top < rows and top < cols:
        nonzero = [(abs(m[r][c]), r, c) for r in range(top, rows)
                   for c in range(top, cols) if m[r][c]]
        if not nonzero:
            break
        _, pr, pc = min(nonzero)
        m[top], m[pr] = m[pr], m[top]
        for row in m:
            row[top], row[pc] = row[pc], row[top]
        p = m[top][top]
        for r in range(top + 1, rows):
            q = m[r][top] // p
            for c in range(top, cols):
                m[r][c] -= q * m[top][c]
        for c in range(top + 1, cols):
            q = m[top][c] // p
            for r in range(top, rows):
                m[r][c] -= q * m[r][top]
        if any(m[r][top] for r in range(top + 1, rows)) or \
                any(m[top][c] for c in range(top + 1, cols)):
            continue  # a remainder smaller than p is the next pivot
        bad = next((r for r in range(top + 1, rows)
                    for c in range(top + 1, cols) if m[r][c] % p), None)
        if bad is not None:
            for c in range(top, cols):
                m[top][c] += m[bad][c]
            continue
        diag.append(abs(p))
        top += 1
    return diag


def dense_homology_by_ij(diagram: Diagram):
    """Map (i, j) -> (rank, sorted torsion list), all s-gradings combined."""
    states, circ_cache = _states(diagram)
    by_ij: dict = {}
    for n, st in enumerate(states):
        by_ij.setdefault((st[2], st[3]), []).append(st)
    result = {}
    for (i, j), bucket in by_ij.items():
        below = by_ij.get((i - 2, j), [])
        above = by_ij.get((i + 2, j), [])
        d_out = [[_incident(diagram, circ_cache, s, t) for s in bucket]
                 for t in below]
        d_in = [[_incident(diagram, circ_cache, s, t) for s in above]
                for t in bucket]
        out_diag = _snf_diagonal(d_out)
        in_diag = _snf_diagonal(d_in)
        rank = len(bucket) - len(out_diag) - len(in_diag)
        torsion = sorted(t for t in in_diag if t > 1)
        if rank or torsion:
            result[(i, j)] = (rank, torsion)
    return result


def divisor_chain(factors):
    """Canonical divisor chain of a direct sum of cyclic groups: each order
    factored by trial division, the k-th largest power of every prime
    multiplied into the k-th entry from the top."""
    primes: dict[int, list[int]] = {}
    for n in factors:
        n = abs(n)
        if n <= 1:
            continue
        d = 2
        while d * d <= n:
            if n % d == 0:
                e = 0
                while n % d == 0:
                    n //= d
                    e += 1
                primes.setdefault(d, []).append(e)
            d += 1
        if n > 1:
            primes.setdefault(n, []).append(1)
    if not primes:
        return ()
    depth = max(len(v) for v in primes.values())
    chain = []
    for k in range(depth):
        term = 1
        for p, exps in primes.items():
            exps_sorted = sorted(exps, reverse=True)
            if k < len(exps_sorted):
                term *= p ** exps_sorted[k]
        chain.append(term)
    return tuple(reversed(chain))


def block_homology(complex_, coefficients="Z"):
    """The homology table by the per-block path the library used before
    unit-pivot elimination: a dense view of every block of d, reduced whole
    by ``smith_normal_form`` over Z or by row reduction over the field."""
    complex_.check_d_squared()
    factors = {}
    for key in complex_.buckets:
        d_out = complex_.differential(key)
        if coefficients == "Z":
            factors[key] = smith_normal_form(d_out)
        else:
            factors[key] = (1,) * rank(d_out, coefficients)
    groups = {}
    for (i, j, s), out in factors.items():
        into = factors.get((i + 2, j, s), ())
        free = complex_.dim((i, j, s)) - len(out) - len(into)
        torsion = divisor_chain(t for t in into if t > 1)
        if free or torsion:
            groups[(i, j, s)] = AbelianGroup(free, torsion)
    return HomologyTable(groups, coefficients)


# ---------------------------------------------------------------------------
# Ranks over Q or Z/2, and the induced rank on homology through an explicit
# kernel basis
# ---------------------------------------------------------------------------

def _lift(mat, field):
    """An integer matrix over Q (as Fractions) or over Z/2."""
    if field == "Q":
        return [[Fraction(v) for v in row] for row in mat]
    return [[v & 1 for v in row] for row in mat]


def _rref(m, field):
    """Reduced row echelon form over Q (Fractions) or Z/2; (rows, pivots)."""
    m = [row[:] for row in m]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((k for k in range(r, rows) if m[k][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        if field == "Q" and m[r][c] != 1:
            inv = m[r][c]
            m[r] = [v / inv for v in m[r]]
        for k in range(rows):
            if k != r and m[k][c]:
                f = m[k][c]
                if field == "Q":
                    m[k] = [a - f * b for a, b in zip(m[k], m[r])]
                else:
                    m[k] = [a ^ b for a, b in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(m, field):
    """Rank of an integer matrix over ``field``, "Q" or "Z2"."""
    return len(_rref(_lift(m, field), field)[1])


def induced_rank(f, a, b, cols: int, field: str) -> int:
    """Rank of the map ``f`` induces from ker ``a`` to coker ``b``.

    ``f`` maps a ``cols``-dimensional space; ``a`` is the differential out
    of it and ``b`` the differential into f's target.  ``field`` is "Q" or
    "Z2".
    """
    if cols == 0:
        return 0
    red, pivots = _rref(_lift(a if a else [[0] * cols], field), field)
    kernel = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc] if field == "Q" else red[r][fc]
        kernel.append(vec)
    # Images of the kernel vectors, one column each, beside the columns of b.
    fz = [[sum(x * v for x, v in zip(row, vec)) for vec in kernel]
          for row in _lift(f, field)]
    bf = _lift(b, field)
    aug = [fr + br for fr, br in zip(fz, bf)] if bf else fz
    if field == "Z2":
        aug = [[v & 1 for v in row] for row in aug]
    return len(_rref(aug, field)[1]) - len(_rref(bf, field)[1])


# ---------------------------------------------------------------------------
# The long-exact-sequence check, every block reduced
# ---------------------------------------------------------------------------

def _d_rank(cx, key, fields):
    factors = cx.factors().get(key, ())
    return tuple(rank_over(factors, f) for f in fields)


def les_induced_ranks(chmap, key, fields=("Q", "Z2")):
    """The ranks ``chmap`` induces on homology out of ``key``, one per field,
    by the block-rank formula: rank [[f, b], [a, 0]] less rank a and rank b,
    every rank of d read off ``factors()`` on this call and the block
    reduced even when it is zero."""
    i, j, s = key
    ti, tj, ts = chmap.grading(key)
    b_key = (ti + 2, tj, ts)
    factors = chainmaps._block_rank(
        chmap.columns(key), chmap.source.columns(key),
        chmap.target.columns(b_key), chmap.target.dim((ti, tj, ts)),
        chmap.source.dim((i - 2, j, s)))
    return tuple(rank_over(factors, f) - a - b for f, a, b in zip(
        fields, _d_rank(chmap.source, key, fields),
        _d_rank(chmap.target, b_key, fields)))


def les_report(t, fields=("Q", "Z2")):
    """The report of :func:`bandkh.chainmaps.long_exact_sequence_check`,
    computed as the check did before it kept one rank table per complex:
    the ranks of d are read off ``cx.factors()`` on every call, and every
    map block, zero or not, goes through ``_block_rank``
    (:func:`les_induced_ranks`).  The maps are looked up on
    :mod:`bandkh.chainmaps` at call time, so a test that patches one there
    mutates both sides."""
    fields = tuple(fields)
    for ftag in fields:
        if ftag not in ("Q", "Z2"):
            raise ChainMapError(f"unknown field {ftag!r}")
    alpha = chainmaps.viro_alpha(t)
    beta = chainmaps.viro_beta(t)
    gamma_hat = chainmaps.viro_gamma_hat(t)
    failures = []
    checked = 0
    ranks = {}

    def induced(chmap, key):
        got = ranks.get((chmap.name, key))
        if got is None:
            got = ranks[(chmap.name, key)] = les_induced_ranks(chmap, key, fields)
        return got

    def h_dims(cx, key):
        i, j, s = key
        return (cx.dim(key) - a - b for a, b in zip(
            _d_rank(cx, key, fields), _d_rank(cx, (i + 2, j, s), fields)))

    candidates = {(i + di, j + dj, s)
                  for cx, (di, dj) in ((t.cinf, (0, 0)), (t.cp, (1, 1)),
                                       (t.c0, (2, 2)), (t.cinf, (2, 0)))
                  for (i, j, s) in cx.sizes}
    for (i, j, s) in candidates:
        key_inf, key_p, key_0 = (i, j, s), (i - 1, j - 1, s), (i - 2, j - 2, s)
        key_inf2 = (i - 2, j, s)
        for name, cx, key, into, src_key, out_of in (
                ("D_p", t.cp, key_p, alpha, key_inf, beta),
                ("D_0", t.c0, key_0, beta, key_p, gamma_hat),
                ("D_inf", t.cinf, key_inf2, gamma_hat, key_0, alpha)):
            for ftag, r_in, r_out, h in zip(fields, induced(into, src_key),
                                            induced(out_of, key), h_dims(cx, key)):
                checked += 1
                if r_in + r_out != h:
                    failures.append(f"{ftag}: not exact at {name} "
                                    f"(i={key[0]},j={key[1]},s={key[2].text})")
    return chainmaps.LESReport(not failures, sorted(set(failures)), checked)


# ---------------------------------------------------------------------------
# The positive kink, edge by edge
# ---------------------------------------------------------------------------

def apply_r1_pos(diagram: Diagram, site: Site, side: str = "left") -> Diagram:
    """A positive kink on an edge or free loop, its edges written out."""
    kind, idx = _take_site(diagram, site)
    if side not in ("left", "right"):
        raise SiteError("side must be 'left' or 'right'")
    (x,) = _fresh_ids(diagram, 1)
    edges = list(diagram.edges)
    loops = list(diagram.loops)
    if kind == "edge":
        e = edges.pop(idx)
        if side == "left":
            new = [Edge(e.a, (x, 2), e.word), Edge((x, 3), e.b), Edge((x, 0), (x, 1))]
        else:
            new = [Edge(e.a, (x, 0), e.word), Edge((x, 1), e.b), Edge((x, 2), (x, 3))]
    else:
        u = loops.pop(idx)
        if side == "left":
            new = [Edge((x, 3), (x, 2), u), Edge((x, 0), (x, 1))]
        else:
            new = [Edge((x, 1), (x, 0), u), Edge((x, 2), (x, 3))]
    return Diagram(diagram.surface, (x,) + diagram.crossings,
                   tuple(edges) + tuple(new), tuple(loops))


# ---------------------------------------------------------------------------
# The bracket and phi, one polynomial at a time
# ---------------------------------------------------------------------------

def bracket_recursive(diagram: Diagram) -> BracketExpansion:
    """The bracket by resolving crossing 0 with ``smooth_crossing`` down to
    crossingless diagrams, each leaf a product of loop factors and each node
    the sum of its children times A and A^-1."""
    if diagram.n_crossings == 0:
        poly = LaurentPolyA.monomial(0)
        classes = []
        for circle in smooth(diagram, ()):
            if circle.kind is CurveKind.TRIVIAL:
                poly = poly * LOOP_FACTOR
            else:
                classes.append(circle.cls)
        return {BasisElement.from_classes(classes): poly}
    out: BracketExpansion = {}
    for marker in (1, -1):
        weight = LaurentPolyA.monomial(marker)
        for elt, poly in bracket_recursive(smooth_crossing(diagram, 0, marker)).items():
            out[elt] = out.get(elt, LaurentPolyA.zero()) + weight * poly
    return {elt: poly for elt, poly in out.items() if poly}


def phi_of_basis(elt: BasisElement) -> dict[GradingS, LaurentPolyA]:
    """phi of one basis element, each monomial rebuilt as a class -> exponent
    dict and sorted, and each grading's polynomial summed term by term."""
    # A monomial is its (class, exponent) pairs, sorted by class.
    acc: dict[tuple, int] = {(): 1}
    for cls, mult in elt.components:
        if cls.kind is CurveKind.MOEBIUS_BOUNDING:
            acc = {key: coef * 2 ** mult for key, coef in acc.items()}
            continue
        new_acc: dict[tuple, int] = {}
        for key, coef in acc.items():
            for k in range(mult + 1):
                power = mult - 2 * k
                nd = dict(key)
                if power:
                    nd[cls] = nd.get(cls, 0) + power
                    if nd[cls] == 0:
                        del nd[cls]
                nk = tuple(sorted(nd.items(), key=lambda p: p[0].sort_key))
                new_acc[nk] = new_acc.get(nk, 0) + coef * comb(mult, k)
        acc = new_acc
    out: dict[GradingS, LaurentPolyA] = {}
    for key, coef in acc.items():
        s = GradingS.from_pairs(key)
        out[s] = out.get(s, LaurentPolyA.zero()) + LaurentPolyA.monomial(0, coef)
    return out


# ---------------------------------------------------------------------------
# Chain maps, state by state
# ---------------------------------------------------------------------------

def build(source, target, grading, entries, name=""):
    """A ChainMap built state by state: ``entries(state)`` lists the
    (coefficient, target state) pairs of each decoded source state, and each
    target state is ``locate``d in ``target``, in the block at
    ``grading(key)``."""
    blocks = {}
    for key, bucket in source.buckets.items():
        tkey = grading(key)
        columns = []
        for state in bucket:
            column = {}
            for coef, tstate in entries(state):
                if coef == 0:
                    continue
                got, row = target.locate(tstate.markers, tstate.labels)
                if got != tkey:
                    raise ChainMapError(
                        f"{name or 'map'}: state lands in {got}, expected {tkey}")
                column[row] = column.get(row, 0) + coef
            columns.append([(r, v) for r, v in column.items() if v])
        blocks[key] = columns
    return ChainMap(source, target, grading, blocks, name)


def _t_before(t, state) -> int:
    return sum(1 for q in range(t.p) if q in t.cp.free and state.markers[q] < 0)


def _shift(di: int, dj: int):
    return lambda key: (key[0] + di, key[1] + dj, key[2])


def viro_alpha(t) -> ChainMap:
    return build(t.cinf, t.cp, _shift(-1, -1),
                          lambda s: [((-1) ** _t_before(t, s), s)], "alpha")


def viro_beta(t) -> ChainMap:
    return build(t.cp, t.c0, _shift(-1, -1),
                          lambda s: [] if s.markers[t.p] < 0 else [(1, s)], "beta")


def viro_alpha_bar(t) -> ChainMap:
    def entries(s):
        if s.markers[t.p] > 0:
            return []
        return [((-1) ** _t_before(t, s), s)]
    return build(t.cp, t.cinf, _shift(1, 1), entries, "alpha_bar")


def viro_beta_bar(t) -> ChainMap:
    return build(t.c0, t.cp, _shift(1, 1), lambda s: [(1, s)], "beta_bar")


def viro_gamma(t) -> ChainMap:
    return build(t.c0, t.cinf, _shift(0, 2),
                          lambda s: [(1, x) for x in t.c0.resmoothings(s, t.p)],
                          "gamma")


def viro_gamma_hat(t) -> ChainMap:
    def entries(s):
        sign = (-1) ** s.m_neg
        return [(sign, x) for x in t.c0.resmoothings(s, t.p)]
    return build(t.c0, t.cinf, _shift(0, 2), entries, "gamma_hat")


#: name -> state-by-state builder of each skein-triple map.
VIRO_MAPS = {f.__name__: f for f in (viro_alpha, viro_beta, viro_alpha_bar,
                                     viro_beta_bar, viro_gamma, viro_gamma_hat)}


def eta(cx) -> ChainMap:
    return build(cx, cx, lambda key: key, lambda s: [((-1) ** s.m_neg, s)], "eta")


def g_map(cx) -> ChainMap:
    n = len(cx.free)

    def entries(s):
        u = sum(1 for rank, pos in enumerate(cx.free)
                if s.markers[pos] > 0 and rank % 2 == n % 2)
        return [((-1) ** u, s)]

    return build(cx, cx, lambda key: key, entries, "g")


#: name -> state-by-state builder of each sign map of one complex.
SIGN_MAPS = {f.__name__: f for f in (eta, g_map)}


def f_embed(pair) -> ChainMap:
    return build(pair.small, pair.big, lambda key: key,
                          lambda s: [(1, s)], "f_embed")


def gamma_r2(pair) -> ChainMap:
    return build(pair.small, pair.tilde, _shift(0, 2),
                          lambda s: [(1, x) for x in pair.small.resmoothings(s, pair.w)],
                          "gamma_r2")


def iota_embed(pair) -> ChainMap:
    return build(pair.tilde, pair.big, _shift(-2, -2), lambda s: [(1, s)], "iota")


def rho_II_section(pair) -> ChainMap:
    def entries(s):
        if s.markers[pair.v] == -1 and s.markers[pair.w] == 1:
            return [(1, s)]
        return []
    return build(pair.big, pair.small, lambda key: key, entries, "rho_II_inv")


#: name -> state-by-state builder of each second-move map inside one diagram.
R2_MAPS = {f.__name__: f for f in (f_embed, gamma_r2, rho_II_section)}


# ---------------------------------------------------------------------------
# The maps between two diagrams, state by state
# ---------------------------------------------------------------------------

def _transport(src_cx, tgt_cx, src_key_of, tgt_key_of, marker_map):
    """State transport between two diagrams via circle-key translation; a
    target circle keyed None is new, labelled -1."""
    def move(s):
        markers2 = marker_map(s.markers)
        src = src_cx.smoothing(s.markers)
        by_key = {src_key_of(c): lab for c, lab in zip(src.circles, s.labels)}
        by_key[None] = -1
        tgt = tgt_cx.smoothing(markers2)
        return StateKey(markers2, tuple(by_key[tgt_key_of(c)] for c in tgt.circles))
    return move


def _rot_key(circle):
    if circle.key[0] == "loop":
        return circle.key
    return ("slots", tuple(sorted((c, (s + 1) % 4) for c, s in circle.key[1])))


def _negate_key(key):
    return (-key[0], -key[1], grading_negate(key[2]))


def mirror_map(diagram) -> ChainMap:
    cx, cxm = GradedComplex(diagram), GradedComplex(mirror(diagram))
    move = _transport(cx, cxm, _rot_key, lambda c: c.key,
                      lambda markers: tuple(-m for m in markers))

    def entries(s):
        moved = move(s)
        return [(1, StateKey(moved.markers, tuple(-lab for lab in moved.labels)))]

    return build(cx, cxm, _negate_key, entries, "mirror")


def reorder_iso(diagram, permutation) -> ChainMap:
    d2 = reorder_crossings(diagram, permutation)
    cx, cx2 = GradedComplex(diagram), GradedComplex(d2)
    new_pos = {diagram.crossings[old]: k for k, old in enumerate(permutation)}
    move = _transport(cx, cx2, lambda c: c.key, lambda c: c.key,
                      lambda markers: tuple(markers[old] for old in permutation))

    def entries(s):
        seq = [new_pos[c] for c, m in zip(diagram.crossings, s.markers) if m < 0]
        inversions = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
        return [((-1) ** inversions, move(s))]

    return build(cx, cx2, lambda key: key, entries, "f12")


def r1_neg_small_circle_slots(kink_id: str, side: str = "left") -> frozenset:
    """Slots of the small circle split off by the -1 smoothing of the kink."""
    pair = (1, 2) if side == "left" else (3, 0)
    return frozenset((kink_id, s) for s in pair)


def rho_I(diagram, site, side="left") -> ChainMap:
    kinked = apply_r1_neg(diagram, site, side)
    kink = kinked.crossings[0]
    o_slots = r1_neg_small_circle_slots(kink, side)
    kslots = {(kink, k) for k in range(4)}
    kind, idx = site
    cx, cx2 = GradedComplex(diagram), GradedComplex(kinked)

    def src_key_of(circle):
        if circle.slots == o_slots:
            return None
        if circle.key[0] == "loop":
            m = circle.key[1]
            if kind == "loop":
                return ("loop", m if m < idx else m + 1)
            return circle.key
        stripped = circle.slots - kslots
        if stripped:
            return ("slots", tuple(sorted(stripped)))
        return ("loop", idx)

    move = _transport(cx, cx2, lambda c: c.key, src_key_of, lambda m: (-1,) + m)
    return build(cx, cx2, _shift(-1, -3), lambda s: [(1, move(s))], "rho_I")


def circle_key(pair, circle) -> tuple:
    """Identify a circle of an R2 pair's diagram by the external edges it
    traverses."""
    if circle.key[0] == "loop":
        return circle.key
    edges = {pair.diagram.edge_at(slot)[0] for slot in circle.slots}
    return ("edges", frozenset(edges - pair.internal))


def _g_embed_state(pair, s):
    """Transport a tilde state to the (v:+1, w:-1) pattern with a -1 circle."""
    markers = s.markers[:pair.v] + (1,) + s.markers[pair.v + 1:]
    src = pair.tilde.smoothing(s.markers)
    by_key = {circle_key(pair, c): lab for c, lab in zip(src.circles, s.labels)}
    keys = [circle_key(pair, c) for c in pair.big.smoothing(markers).circles]
    small = ("edges", frozenset())
    if keys.count(small) != 1:
        raise ChainMapError("R2 small-circle detection failed")
    by_key[small] = -1
    return StateKey(markers, tuple(by_key[k] for k in keys))


def g_embed(pair) -> ChainMap:
    return build(pair.tilde, pair.big, _shift(0, -2),
                 lambda s: [(1, _g_embed_state(pair, s))], "g_embed")


def _external_edge_keys(diagram: Diagram, internal: set[int]):
    """Map a circle to the frozenset of non-internal edge indices it uses."""
    def key_of(circle) -> tuple:
        if circle.key[0] == "loop":
            return circle.key
        edges = {diagram.edge_at(slot)[0] for slot in circle.slots}
        ext = frozenset(e for e in edges if e not in internal)
        if not ext:
            raise ChainMapError("circle with no stable edges; cannot transport")
        return ("edges", ext)
    return key_of


def r3_transports(diagram, site) -> tuple[ChainMap, ChainMap]:
    """``nu`` and ``f_inf`` of ``chainmaps.r3_data(diagram, site)``."""
    moved = apply_r3(diagram, site)
    internal = {site.e_a, site.e_vp, site.e_wp}
    externals = [k for k in range(len(diagram.edges)) if k not in internal]
    n_ext = len(externals)
    new_internal = {n_ext, n_ext + 1, n_ext + 2}
    triple, triple2 = skein_triple(diagram, 0), skein_triple(moved, 0)
    pair = r2_pair(triple.c0, 1, 2, frozenset(internal))
    pair2 = r2_pair(triple2.c0, 2, 1, frozenset(new_internal))
    key_src = _external_edge_keys(diagram, internal)
    raw_tgt = _external_edge_keys(moved, new_internal)

    def key_tgt(circle):
        key = raw_tgt(circle)
        if key[0] != "edges":
            return key
        return ("edges", frozenset(externals[k] for k in key[1]))

    move_small = _transport(pair.small, pair2.small, key_src, key_tgt,
                            lambda markers: (1, 1, -1) + markers[3:])
    move_inf = _transport(triple.cinf, triple2.cinf, key_src, key_tgt,
                          lambda markers: markers)
    return (build(pair.small, pair2.small, lambda key: key,
                  lambda s: [(1, move_small(s))], "nu"),
            build(triple.cinf, triple2.cinf, lambda key: key,
                  lambda s: [(1, move_inf(s))], "f_inf"))

