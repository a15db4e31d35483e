"""Enhanced states and the triply-graded chain complex of a diagram.

An enhanced state is a marker vector (one sign per crossing) together with a
sign label on every circle of the resulting smoothing.  Its gradings are

* ``i``  -- positive minus negative markers,
* ``tau`` -- positive minus negative *trivial* circles,
* ``j = i + 2 tau``,
* ``s``  -- the signed sum of the unbounding circle classes.

Labels of Moebius-bounding circles are stored but contribute to neither
``tau`` nor ``s``.

The differential lowers ``i`` by 2 and preserves ``j`` and ``s``.  Its
matrix entry from S to S' is ``(-1)^t`` when the two states differ exactly
by one marker turning from +1 to -1, all untouched circles keep their
labels, ``j`` is preserved, and the signed label sum of every nontrivial
class is conserved (Moebius-bounding classes included, even though the
gradings ignore them); ``t`` counts the negative markers at crossings
ordered after the flipped one.  The local label rules (the merge/split
table) are *derived* from these conditions, never hard-coded.

Frozen markers
--------------
A :class:`GradedComplex` may freeze some crossings at a fixed marker: it is
then the complex of the diagram with those crossings smoothed away, without
rebuilding the diagram.  The gradings count free crossings only, and d never
flips a frozen crossing, so the skein-triple and Reidemeister chain maps
have all their states over one diagram.  As C(D) is the mapping cone of the
resmoothing map, a frozen complex reads its states off the one it extends
(``share``, else its diagram's unfrozen complex), up to a grading shift, and
sweeps its own d and d+ over them, ``t`` counting free markers only.

Split diagrams
--------------
Crossings of different crossing-connected components never touch the same
circle, so the complex of a split diagram D1 + D2 is C(D1) (x) C(D2), the
gradings adding (Kunneth; Khovanov, arXiv:math/9908171); the two sign
conventions differ by a diagonal +-1 change of basis, which changes no
invariant factor and no d o d verdict.  A free loop is the component
without crossings: Z^2 with d = 0, its label e shifting j by 2e if it is
trivial, s by e times its class if it is unbounding, and no grading if it
bounds a Moebius band.  An unfrozen complex with free loops or two or more
crossing-connected components is split: it builds the complex of each
crossing-connected component on first need, and each read lifts only what
it needs off them and the free loops, through one pairing loop
(:func:`_kunneth`) over one table of pieces per tensor factor.  ``sizes``
pairs every state as a free piece, a convolution that reduces no block;
the d o d verdicts are all True if d o d vanishes on each component;
:meth:`~GradedComplex.factors` pairs every piece of the components'
factors; and homology pairs only the pieces it sees
(:meth:`~GradedComplex._homology_pieces`, the one table homology reads
of any complex).  If a component fails d o d, the verdicts, factors and
pieces are read off the complex's own blocks instead.  Its lifted block
sizes must equal those of its own states once both are read.

Label codes
-----------
Inside a complex a state is an integer pair: its marker vector's row table
and its *label code*, the position of its labels in
``itertools.product((1, -1), repeat=c)`` -- bit ``c-1-k`` is set iff circle
``k`` is labelled -1.  The row table maps each label code to the state's
(block id, row).  Only this module reads the row tables: one walk over
them (:meth:`GradedComplex._fill`) assembles, as sparse columns, every
block of every chain map and of d and d+ of every complex.  The local
work is done once per process: each flip shape's code map, with its
(source code, target code) pairs, is kept in ``_FLIP_MAPS``, and each
smoothing signature's label recipe in ``_LABEL_RECIPES``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .diagram import Circle, Diagram, MarkerVector, smooth
from .linalg import (
    Columns,
    Matrix,
    _dense_view,
    _direct_sum,
    _mat_mul,
    invariant_factors,
    rank_over,
)
from .surface import CurveClass, CurveKind, GradingS, grading_add

GradingKey = tuple[int, int, GradingS]


class ComplexError(ValueError):
    pass


@dataclass(frozen=True)
class EnhancedState:
    """One basis state: full markers plus one label per circle.

    The cached gradings refer to the owning complex: ``i`` and ``m_neg``
    count free crossings only.
    """

    markers: MarkerVector
    labels: tuple[int, ...]
    i: int = field(compare=False)
    tau: int = field(compare=False)
    j: int = field(compare=False)
    s: GradingS = field(compare=False)
    m_neg: int = field(compare=False)

    @property
    def grading(self) -> GradingKey:
        return (self.i, self.j, self.s)


class StateKey(NamedTuple):
    """A state named by its markers and labels, the key of ``GradedComplex.index``;
    only ``GradedComplex.buckets`` builds graded :class:`EnhancedState` objects."""

    markers: MarkerVector
    labels: tuple[int, ...]


@dataclass
class _Smoothing:
    """Cached data of one marker vector's smoothing."""

    circles: tuple[Circle, ...]
    cids: tuple[int, ...]  # per circle: 0 if trivial, else its class id
    at: list[int]  # integer slot -> index of the circle through it


def _code(labels: Sequence[int]) -> int:
    """Label code: the position of ``labels`` in ``product((1, -1), ...)``."""
    code = 0
    for lab in labels:
        code = code << 1 | (lab < 0)
    return code


def _labels(code: int, width: int) -> tuple[int, ...]:
    return tuple(-1 if code >> k & 1 else 1 for k in range(width - 1, -1, -1))


def _mask(circles: Sequence[int], width: int) -> int:
    """The label-code bits of these circles of a ``width``-circle smoothing."""
    return sum(1 << width - 1 - k for k in circles)


def _order(key: GradingKey) -> tuple:
    """The sort key of :meth:`GradedComplex.gradings`: (j, s, i)."""
    return (key[1], key[2].sort_key, key[0])


def _crossing_groups(diagram: Diagram) -> list[list[int]]:
    """The crossing positions of each crossing-connected component, in
    order of their first crossing."""
    succ, groups, seen = diagram.slot_tables.succ, [], set()
    for start in range(diagram.n_crossings):
        if start not in seen:
            group, stack = set(), [start]
            while stack:
                if (k := stack.pop()) not in group:
                    group.add(k)
                    stack += [succ[slot] >> 2 for slot in range(4 * k, 4 * k + 4)]
            seen |= group
            groups.append(sorted(group))
    return groups


#: A tensor factor's pieces over Z (see :func:`_kunneth`): key -> (free
#: pieces Z at it, {modulus: count} of the elementary pieces out of it).
_Pieces = dict[GradingKey, tuple[int, dict[int, int]]]


_NO_MODULI: dict[int, int] = {}  # shared by the pieces with no modulus: read only


def _free(sizes: Mapping[GradingKey, int]) -> _Pieces:
    """Every state a free piece: pairing these tables convolves the block
    sizes."""
    return {key: (n, _NO_MODULI) for key, n in sizes.items()}


def _pieces(sizes: Mapping[GradingKey, int], out: Mapping[GradingKey, tuple[int, ...]],
            units: bool) -> _Pieces:
    """The pieces of a complex with these block sizes and invariant factors
    of d out of each key (d o d = 0): one elementary piece (Z -m-> Z) out
    of key a per invariant factor m out of a, and the rest of a free.
    Without ``units`` the unit pieces (Z -1-> Z), which homology never
    sees, are dropped, and so are the keys left with no piece."""
    table: _Pieces = {}
    for (i, j, s), n in sizes.items():
        factors = out.get((i, j, s), ())
        free = n - len(factors) - len(out.get((i + 2, j, s), ()))
        moduli: dict[int, int] = {}
        for m in factors if units else factors[factors.count(1):]:
            moduli[m] = moduli.get(m, 0) + 1
        if units or free or moduli:
            table[(i, j, s)] = (free, moduli)
    return table


def _loop_pieces(loop: Circle) -> _Pieces:
    """The pieces of a free loop, the component without crossings: Z^2
    with d = 0, one free piece per label."""
    sizes: dict[GradingKey, int] = {}
    for lab in (1, -1):
        key = (0, 2 * lab if loop.kind is CurveKind.TRIVIAL else 0, GradingS.from_pairs(
            [(loop.cls, lab)] if loop.kind is CurveKind.UNBOUNDING else []))
        sizes[key] = sizes.get(key, 0) + 1
    return _free(sizes)


_UNIT: GradingKey = (0, 0, GradingS.zero())  # the key of the empty diagram's state


def _kunneth(tables: list[_Pieces]) -> _Pieces:
    """The pieces of the tensor product of complexes with these pieces (each
    with d o d = 0), in one pass over them: Z (x) Z is free,
    Z (x) (Z -m-> Z) is (Z -m-> Z), and (Z -m-> Z) (x) (Z -n-> Z) has d
    out of its top and out of its middle key with one invariant factor
    gcd(m, n) each, the second being the Tor term.  Keys add, each sum of
    two s gradings built once.  A modulus 1 may appear when two moduli are
    coprime."""
    sums: dict[tuple[GradingS, GradingS], GradingS] = {}
    acc: _Pieces = {_UNIT: (1, _NO_MODULI)}
    for pieces in tables:
        new: dict[GradingKey, list] = {}
        for (i, j, s), (x, ma) in acc.items():
            for (i2, j2, s2), (y, mb) in pieces.items():
                t = s if not s2.entries else s2 if not s.entries else (
                    sums.get((s, s2)) or sums.setdefault((s, s2), grading_add(s, s2)))
                key = (i + i2, j + j2, t)
                entry = new.get(key) or new.setdefault(key, [0, {}])
                entry[0] += x * y
                if not (ma or mb):
                    continue
                got = entry[1]
                for m, count in ma.items():
                    got[m] = got.get(m, 0) + count * y
                for n, count in mb.items():
                    got[n] = got.get(n, 0) + x * count
                if ma and mb:
                    mid = new.get(below := (key[0] - 2, key[1], key[2])) \
                        or new.setdefault(below, [0, {}])
                    for m, c1 in ma.items():
                        for n, c2 in mb.items():
                            g = gcd(m, n)
                            got[g] = got.get(g, 0) + c1 * c2
                            mid[1][g] = mid[1].get(g, 0) + c1 * c2
        acc = new
    return acc


class _Lazy:
    """An attribute of a split complex, filled on first read by ``fill``:
    ``sizes``, ``_d2`` and ``_factors``, each by its own lift
    (:meth:`GradedComplex._lift_sizes` and the two after it), or the row
    tables ``_rows``, ``_keys`` and ``_bids``, with ``sizes`` if not yet
    filled, by enumerating its own states.  Every other complex stores
    them when built, and an instance attribute hides this descriptor, so
    reads cost no call.  (A ``__getattr__`` hook would instead slow every
    attribute read of every complex, by about 3 % on ``les``.)"""

    def __init__(self, fill: Callable[[GradedComplex], None]):
        self.fill = fill

    def __set_name__(self, owner: type, name: str):
        self.name = name

    def __get__(self, cx: GradedComplex | None, owner: type | None = None):
        if cx is None:
            return self
        self.fill(cx)
        return vars(cx)[self.name]


@dataclass(frozen=True)
class _CodeMap:
    """A map on the label codes of the states over one marker vector, into
    the ``width``-circle smoothing of ``target``: code c goes to ``base``
    with the target bit of each source bit of c in ``kept`` toggled, joined
    with each entry of ``local[c & mask]``.  A crossing flip (``base`` 0)
    relabels the circles at the crossing by the merge/split table; the
    complexes of one diagram share it, as it ignores the frozen markers.
    A transport between two diagrams keeps every circle (``mask`` 0).
    ``images`` lists every (source code, target code) pair in source code
    order, derived from the other fields when not given; a flip shares it
    with every flip of its shape (``_FLIP_MAPS``).
    """

    target: MarkerVector
    width: int  # circles of the target smoothing
    kept: tuple[tuple[int, int], ...]
    mask: int
    local: dict[int, tuple[int, ...]]
    base: int = 0
    images: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.images is None:
            object.__setattr__(self, "images", tuple(
                (code, new) for code in range(1 << len(self.kept) + self.mask.bit_count())
                for new in self.targets(code)))

    def targets(self, code: int) -> list[int]:
        out = self.base
        for src, tgt in self.kept:
            if code & src:
                out ^= tgt
        return [out | new for new in self.local[code & self.mask]]


def _local_rule(touched: list[tuple[int, int]],
                new: list[tuple[int, int]]) -> dict[int, tuple[int, ...]]:
    """The merge/split rule of one shape.

    ``touched`` and ``new`` give the (label-code bit, class id) of the
    circles through the crossing before and after the flip, class id 0 for
    trivial circles.  Each labelling of the touched circles (its bits) maps
    to the bits of every labelling of the new circles that raises the
    trivial-circle sum by one and conserves the signed label sum of every
    other class.
    """
    def outcomes(places: list[tuple[int, int]]) -> list[tuple]:
        out = []
        for labels in itertools.product((1, -1), repeat=len(places)):
            bits, tau, psi = 0, 0, {}
            for (bit, c), lab in zip(places, labels):
                if lab < 0:
                    bits |= bit
                if c:
                    psi[c] = psi.get(c, 0) + lab
                else:
                    tau += lab
            out.append((bits, tau, {c: x for c, x in psi.items() if x}))
        return out

    after = [(bits, (tau, psi)) for bits, tau, psi in outcomes(new)]
    return {bits: tuple(b for b, got in after if got == (tau + 1, psi))
            for bits, tau, psi in outcomes(touched)}


def _label_recipe(width: int, trivial: int, unbounding: tuple[tuple[int, int], ...]
                  ) -> tuple[list[tuple], list[tuple[int, int]]]:
    """The label recipe of a smoothing signature: its ``width``, the code
    bits of its ``trivial`` circles and the (code bit, local class id) of
    its ``unbounding`` ones.  A local block is a (tau, sorted signed
    local-class sums) pair; the recipe lists them in order of their first
    code, each as (tau, sums, first code, size), and gives each label code,
    in code order, its (local block, rank inside that block)."""
    blocks: dict[tuple, list[int]] = {}  # local block -> [index, first code, size]
    codes = []
    for code in range(1 << width):
        sums: dict[int, int] = {}
        for bit, lid in unbounding:
            sums[lid] = sums.get(lid, 0) + (-1 if code & bit else 1)
        local = (trivial.bit_count() - 2 * (code & trivial).bit_count(),
                 tuple(sorted((lid, x) for lid, x in sums.items() if x)))
        block = blocks.get(local) or blocks.setdefault(local, [len(blocks), code, 0])
        codes.append((block[0], block[2]))
        block[2] += 1
    return [(*local, first, size) for local, (_, first, size) in blocks.items()], codes


#: Each flip shape code's code map, its target empty (``_derive_flip``), and
#: each smoothing signature's label recipe (``_enumerate``), derived once per
#: process: an entry depends on its key alone, so every complex reads the
#: same tables, and two threads that fill one entry store equal values.
_FLIP_MAPS: dict[int, _CodeMap] = {}
_LABEL_RECIPES: dict[tuple, tuple[list, list[tuple[int, int]]]] = {}


class GradedComplex:
    """The chain complex of a diagram, optionally with frozen markers.

    States are enumerated deterministically: free markers in binary order
    (+1 before -1, earliest crossing most significant), then labels in the
    same order per circle, circles in their canonical smoothing order.

    A frozen complex reads its row tables off ``share``, a complex of the
    same diagram frozen at a subset of these markers, else off its diagram's
    unfrozen complex, built here for that alone, and shares that one's
    smoothing cache, class ids and flip rules, but does not keep it.

    Homology reads every complex off one table of pieces
    (:meth:`_homology_pieces`).  An unfrozen complex of a split diagram
    (see Split diagrams above) lifts ``sizes`` off its components, and
    :meth:`factors`, the d o d verdicts and that table too if each passes
    d o d, each read lifting only what it needs, and lists ``sizes`` in
    :meth:`gradings` order.  Its own row tables are enumerated when first
    read, by what names states: ``buckets``, ``index``, ``locate``, d and
    d+, and the chain maps.
    """

    def __init__(self, diagram: Diagram, frozen: Mapping[int, int] | None = None,
                 *, share: GradedComplex | None = None):
        self.diagram = diagram
        self.frozen = dict(frozen or {})
        for pos, mark in self.frozen.items():
            if not 0 <= pos < diagram.n_crossings or mark not in (1, -1):
                raise ComplexError(f"bad frozen marker {pos}:{mark}")
        self.free = tuple(k for k in range(diagram.n_crossings)
                          if k not in self.frozen)
        self._class_ids: dict[CurveClass, int] = {}
        self._smooth_cache: dict[MarkerVector, _Smoothing] = {}
        self._flips: dict[tuple[MarkerVector, int], _CodeMap] = {}
        if share is None and self.frozen:
            share = GradedComplex(diagram)
        if share is not None:
            if share.diagram != diagram or not share.frozen.items() <= self.frozen.items():
                raise ComplexError("a shared complex must be of the same diagram and "
                                   "freeze a subset of these markers")
            self._class_ids, self._smooth_cache, self._flips = (
                share._class_ids, share._smooth_cache, share._flips)
        # Block ids number the blocks in order: ``_keys[bid]`` is a block's key
        # and ``_bids[key]`` its id, ``sizes[key]`` its size, ``_rows[markers][code]``
        # a state's (block id, row), ``_blocks[counted]`` d (-1) or d+ (+1) by key;
        # ``_d2`` and ``_factors`` are None until computed.  A split complex
        # fills all six on first read (_Lazy).
        self.sizes: dict[GradingKey, int]
        self._keys: list[GradingKey]
        self._rows: dict[MarkerVector, list[tuple[int, int]]]
        self._bids: dict[GradingKey, int]
        self._d2: dict[tuple[int, GradingS], bool] | None
        self._factors: dict[GradingKey, tuple[int, ...]] | None
        self._blocks: dict[int, dict[GradingKey, Columns]] = {}
        self._buckets: Mapping[GradingKey, list[EnhancedState]] | None = None
        self._index: Mapping[StateKey, tuple[GradingKey, int]] | None = None
        self._rank_tables: dict[tuple[str, ...], dict[GradingKey, tuple]] = {}
        self._groups: list[list[int]] | None = None
        self._parts: list[GradedComplex] | None = None
        if share is not None:
            self._store(*self._restrict(share))
            return
        groups = _crossing_groups(diagram)
        if diagram.loops or len(groups) > 1:
            self._groups = groups  # split: the rest is filled on first read
        else:
            self._store(*self._enumerate())

    def _store(self, rows: dict, keys: list[GradingKey], counts: list[int]) -> None:
        """Keep the row tables and block sizes.  A split complex's factors
        and d o d verdicts are filled by :meth:`_lift_factors` and
        :meth:`_lift_d2` alone."""
        self._rows, self._keys = rows, keys
        self._bids = {key: bid for bid, key in enumerate(keys)}
        if self._groups is None:
            self.sizes, self._factors, self._d2 = dict(zip(keys, counts)), None, None
        else:
            self._keep_sizes(dict(zip(keys, counts)))

    def _keep_sizes(self, sizes: dict[GradingKey, int]) -> None:
        """Keep a split complex's block sizes, enumerated or lifted, whichever
        come first, in :meth:`gradings` order; the other must equal them."""
        if "sizes" not in vars(self):
            self.sizes = dict(sorted(sizes.items(), key=lambda item: _order(item[0])))
        elif self.sizes != sizes:
            raise ComplexError("the enumerated blocks differ from those lifted off "
                               "the components")

    def _lift_sizes(self) -> None:
        """Fill a split complex's ``sizes``: its components' and free loops'
        block sizes paired as free pieces (:func:`_kunneth`), a convolution
        that reduces no block."""
        self._keep_sizes({key: free for key, (free, _) in _kunneth(
            self._tables(lambda part: _free(part.sizes))).items()})

    def _lift_d2(self) -> None:
        """Fill a split complex's ``_d2``: if d o d vanishes on each
        component, every verdict is True, one per (j, s) of ``sizes``, as
        d o d is d1 o d1 (x) 1 +- 1 (x) d2 o d2; else None, and
        :meth:`d_squared_blocks` reads them off its own blocks."""
        self._d2 = dict.fromkeys(((j, s) for _, j, s in self.sizes), True) \
            if self._parts_pass() else None

    def _lift_factors(self) -> None:
        """Fill a split complex's ``_factors``: if d o d vanishes on each
        component, pair every piece of its components and free loops
        (:func:`_kunneth`).  A key's size, its free pieces plus the pieces
        out of it and into it, must equal ``sizes`` (:meth:`_keep_sizes`),
        and its moduli merge as a direct sum (:func:`_direct_sum`).  Else
        None, and :meth:`factors` reduces its own blocks."""
        if not self._parts_pass():
            self._factors = None
            return
        product = _kunneth(self._tables(lambda part: _pieces(part.sizes, part.factors(), True)))
        out = {key: sum(moduli.values()) for key, (_, moduli) in product.items()}
        self._keep_sizes({(i, j, s): free + out[(i, j, s)] + out.get((i + 2, j, s), 0)
                          for (i, j, s), (free, _) in product.items()})
        self._factors = {key: _direct_sum(m for m, c in product[key][1].items()
                                          for _ in range(c)) for key in self.sizes}

    def _homology_pieces(self) -> _Pieces:
        """What homology sees of the complex: its free pieces and its
        elementary pieces of modulus above 1 out of each key.  A split
        complex whose components pass d o d pairs those of its components
        and free loops (:func:`_kunneth`): a unit piece (Z -1-> Z) paired
        with any piece gives unit pieces alone, so dropping them is exact.
        Any other complex checks d o d on its own blocks, which raises the
        error of full enumeration, and reads its pieces off :meth:`factors`."""
        if self._groups is not None and self._parts_pass():
            return _kunneth(self._tables(GradedComplex._homology_pieces))
        self.check_d_squared()
        return _pieces(self.sizes, self.factors(), False)

    def _tables(self, pieces: Callable[[GradedComplex], _Pieces]) -> list[_Pieces]:
        """One table per tensor factor of a split complex: ``pieces`` of
        each crossing-connected component, then those of each free loop."""
        return [pieces(part) for part in self._components()] + [
            _loop_pieces(loop) for loop in self.diagram.slot_tables.loops]

    def _parts_pass(self) -> bool:
        """Whether d o d vanishes on each component of a split complex."""
        return all(all(part.d_squared_blocks().values()) for part in self._components())

    def _components(self) -> list[GradedComplex]:
        """The complex of each crossing-connected component of a split
        complex (same surface, its crossings and the edges between them),
        built on first call."""
        if self._parts is None:
            d, self._parts = self.diagram, []
            for group in self._groups:
                ids = {d.crossings[k] for k in group}
                self._parts.append(GradedComplex(Diagram(
                    d.surface, tuple(d.crossings[k] for k in group),
                    tuple(e for e in d.edges if e.a[0] in ids))))
        return self._parts

    def _own_rows(self) -> None:
        self._store(*self._enumerate())

    sizes, _d2, _factors = _Lazy(_lift_sizes), _Lazy(_lift_d2), _Lazy(_lift_factors)
    _rows, _keys, _bids = _Lazy(_own_rows), _Lazy(_own_rows), _Lazy(_own_rows)

    # -- construction ---------------------------------------------------

    def smoothing(self, markers: MarkerVector) -> _Smoothing:
        try:
            return self._smooth_cache[markers]
        except KeyError:
            circles = smooth(self.diagram, markers)
            ids, at = self._class_ids, [0] * (4 * self.diagram.n_crossings)
            for k, c in enumerate(circles):
                for slot in c.ints:
                    at[slot] = k
            data = self._smooth_cache[markers] = _Smoothing(circles, tuple(
                0 if c.kind is CurveKind.TRIVIAL else ids.setdefault(c.cls, len(ids) + 1)
                for c in circles), at)
            return data

    def make_state(self, markers: MarkerVector, labels: Sequence[int]) -> EnhancedState:
        """The enumerated state with these markers and labels."""
        key, n = self.locate(markers, labels)
        return self.buckets[key][n]

    def _enumerate(self) -> tuple[dict, list[GradingKey], list[int]]:
        """The row tables, block keys and block sizes.  A smoothing's label
        codes follow the recipe of its signature (:func:`_label_recipe`),
        read off ``_LABEL_RECIPES``: each local block of the recipe maps to
        a block id, a ``GradingS`` is built once per value and a grading key
        once per block."""
        bids: dict[tuple, int] = {}  # (i, tau, sorted signed class-id sums)
        s_values: dict[tuple, GradingS] = {}
        tables: dict[MarkerVector, list[tuple[int, int]]] = {}
        keys: list[GradingKey] = []
        counts: list[int] = []
        for markers in self.diagram.marker_vectors():
            data = self.smoothing(markers)
            i, width = sum(markers), len(data.circles)
            unb = [(1 << width - 1 - k, data.cids[k], c.cls)
                   for k, c in enumerate(data.circles) if c.kind is CurveKind.UNBOUNDING]
            ids: dict[int, int] = {}  # class id -> local class id, by first appearance
            signature = (width, _mask([k for k, cid in enumerate(data.cids) if not cid], width),
                         tuple((bit, ids.setdefault(cid, len(ids))) for bit, cid, _ in unb))
            recipe = _LABEL_RECIPES.get(signature)
            if recipe is None:
                recipe = _LABEL_RECIPES[signature] = _label_recipe(*signature)
            cids, bid_of, start = list(ids), [], []
            for tau, sums, first, size in recipe[0]:
                block = (i, tau, tuple(sorted((cids[lid], x) for lid, x in sums)))
                bid = bids.setdefault(block, len(counts))
                if bid == len(counts):
                    if block[2] not in s_values:
                        s_values[block[2]] = GradingS.from_pairs(
                            (cls, -1 if first & bit else 1) for bit, _, cls in unb)
                    keys.append((i, i + 2 * tau, s_values[block[2]]))
                    counts.append(0)
                bid_of.append(bid)
                start.append(counts[bid])
                counts[bid] += size
            tables[markers] = [(bid_of[lb], start[lb] + rank) for lb, rank in recipe[1]]
        return tables, keys, counts

    def _restrict(self, share: GradedComplex) -> tuple[dict, list[GradingKey], list[int]]:
        """The row tables, block keys and block sizes read off ``share``:
        its states with these frozen markers, in its order, block (i, j, s)
        there being (i - x, j - x, s) here, x the sum of the newly frozen
        markers."""
        new = self.frozen.items() - share.frozen.items()
        x = sum(mark for _, mark in new)
        blocks: dict[int, list[int]] = {}  # block id there -> [block id, size] here
        tables: dict[MarkerVector, list[tuple[int, int]]] = {}
        for markers, rows in share._rows.items():
            if all(markers[pos] == mark for pos, mark in new):
                table = tables[markers] = []
                for bid, _ in rows:
                    block = blocks.setdefault(bid, [len(blocks), 0])
                    table.append((block[0], block[1]))
                    block[1] += 1
        keys = [(i - x, j - x, s) for i, j, s in map(share._keys.__getitem__, blocks)]
        return tables, keys, [size for _, size in blocks.values()]

    @property
    def buckets(self) -> Mapping[GradingKey, list[EnhancedState]]:
        """The enumerated states by grading key, each list in row order:
        decoded from the row tables on first read.  Read only."""
        if self._buckets is None:
            buckets: list[list] = [[None] * self.sizes[key] for key in self._keys]
            for markers, labels, bid, row in self._states():
                i, j, s = self._keys[bid]
                buckets[bid][row] = EnhancedState(markers, labels, i, (j - i) // 2, j, s,
                                                  sum(markers[p] < 0 for p in self.free))
            self._buckets = MappingProxyType(dict(zip(self._keys, buckets)))
        return self._buckets

    @property
    def index(self) -> Mapping[StateKey, tuple[GradingKey, int]]:
        """The grading key and row of every state, in enumeration order:
        decoded from the row tables on first read.  Read only."""
        if self._index is None:
            self._index = MappingProxyType({StateKey(m, labels): (self._keys[bid], row)
                                            for m, labels, bid, row in self._states()})
        return self._index

    def _states(self) -> Iterator[tuple[MarkerVector, tuple[int, ...], int, int]]:
        """(markers, labels, block id, row) of every state, in enumeration order."""
        for markers, rows in self._rows.items():
            width = len(self.smoothing(markers).circles)
            for code, (bid, row) in enumerate(rows):
                yield markers, _labels(code, width), bid, row

    # -- queries ----------------------------------------------------------

    def dim(self, key: GradingKey) -> int:
        return self.sizes.get(key, 0)

    def gradings(self) -> list[GradingKey]:
        return sorted(self.sizes, key=_order)

    def locate(self, markers: MarkerVector, labels: Sequence[int]) -> tuple[GradingKey, int]:
        """The grading key and row of an enumerated state; ``KeyError`` for
        any other markers and labels."""
        rows = self._rows[markers]
        if len(rows) != 1 << len(labels) or not set(labels) <= {1, -1}:
            raise KeyError((markers, tuple(labels)))
        bid, row = rows[_code(labels)]
        return self._keys[bid], row

    # -- the differential ---------------------------------------------------

    def resmoothings(self, state: EnhancedState | StateKey,
                     pos: int) -> list[StateKey]:
        """States reached by turning the +1 marker at ``pos`` into -1.

        Untouched circles keep their labels; the circles through the
        crossing are relabeled in every way that raises the trivial-circle
        sum by one and preserves the signed class sum of the nontrivial
        circles: exactly the incidence condition of the differential.

        The conservation law covers Moebius-bounding classes as well, even
        though they enter neither the j- nor the s-grading: dropping them
        from it makes the partial derivatives at two crossings stop
        commuting on the Moebius band (a folded boundary-parallel loop is a
        counterexample), while with them the local rules reproduce the
        merge/split table including its one-sided rows.
        """
        if state.markers[pos] <= 0:
            return []
        rule = self._flip(state.markers, pos)
        return [StateKey(rule.target, _labels(code, rule.width))
                for code in rule.targets(_code(state.labels))]

    def _flip(self, markers: MarkerVector, pos: int) -> _CodeMap:
        rule = self._flips.get((markers, pos))
        if rule is None:
            rule = self._flips[(markers, pos)] = self._derive_flip(markers, pos)
        return rule

    def _derive_flip(self, markers: MarkerVector, pos: int) -> _CodeMap:
        """The rule of :meth:`resmoothings` for every state over ``markers``,
        its code map but the target read off ``_FLIP_MAPS``.  Untouched
        circles keep their slots, so their order by smallest slot, and free
        loops come last: ``kept`` pairs them in order."""
        src = self.smoothing(markers)
        flipped = markers[:pos] + (-1,) + markers[pos + 1:]
        tgt = self.smoothing(flipped)
        width_src, width = len(src.circles), len(tgt.circles)
        touched = sorted({src.at[4 * pos], src.at[4 * pos + 2]})  # on the arcs (0 1), (2 3)
        new = sorted({tgt.at[4 * pos], tgt.at[4 * pos + 1]})  # on the arcs (3 0), (1 2)
        # The shape as one integer: the source width, then per side the
        # circle count, then per circle its label-code bit position (below
        # 2^20, as a smoothing has fewer circles) and its class id renumbered
        # by first appearance, as the rule reads only which ids are 0 and
        # which are equal.
        shape, ids = width_src, {0: 0}
        for width_, data, circles in ((width_src, src, touched), (width, tgt, new)):
            shape = shape << 2 | len(circles)
            for k in circles:
                shape = shape << 24 | width_ - 1 - k << 4 | ids.setdefault(data.cids[k], len(ids))
        rule = _FLIP_MAPS.get(shape)
        if rule is None:
            rule = _FLIP_MAPS[shape] = _CodeMap((), width, tuple(
                (1 << width_src - 1 - a, 1 << width - 1 - b) for a, b in zip(
                    (k for k in range(width_src) if k not in touched),
                    (k for k in range(width) if k not in new))),
                _mask(touched, width_src), _local_rule(
                    [(1 << width_src - 1 - k, src.cids[k]) for k in touched],
                    [(1 << width - 1 - k, tgt.cids[k]) for k in new]))
        return _CodeMap(flipped, width, rule.kept, rule.mask, rule.local, 0, rule.images)


    def _fill(self, target: GradedComplex, grading: Callable[[GradingKey], GradingKey],
              parts: Callable[[MarkerVector], Iterable[tuple]]) -> dict[GradingKey, Columns]:
        """Every block of a map to ``target``, by key, from one walk over the
        row tables: a part (sign, target markers, code map) of
        ``parts(markers)`` sends label code c to ``sign`` times each target
        code paired with c in the code map's ``images``, or to c for None.
        An entry off the block at ``grading(key)`` raises
        :class:`ComplexError`."""
        blocks: list[Columns] = [[[] for _ in range(self.sizes[key])] for key in self._keys]
        want = [target._bids.get(grading(key), -1) for key in self._keys]
        for markers, rows in self._rows.items():
            for sign, tmarkers, rule in parts(markers):
                trows = target._rows[tmarkers]
                for src, tgt in enumerate(range(len(rows))) if rule is None else rule.images:
                    bid, col = rows[src]
                    got, row = trows[tgt]
                    if got != want[bid]:
                        raise ComplexError(
                            f"state lands in {target._keys[got]}, expected "
                            f"{grading(self._keys[bid])}, from {self._keys[bid]}")
                    blocks[bid][col].append((row, sign))
        return dict(zip(self._keys, blocks))

    def _sweep(self, counted: int) -> dict[GradingKey, Columns]:
        """Every block of the map lowering ``i`` by 2 with entries
        ``(-1)^t``, ``t`` counting the free markers equal to ``counted`` after
        the flipped crossing: one walk, one part per free +1 crossing with its
        flip rule, each entry checked to land at (i-2, j, s)."""
        fixed = [sum(q > pos and mark == counted for q, mark in self.frozen.items())
                 for pos in range(self.diagram.n_crossings)]

        def parts(markers: MarkerVector) -> Iterator[tuple]:
            for pos in self.free:
                if markers[pos] > 0:
                    rule = self._flip(markers, pos)
                    yield ((-1) ** (markers[pos + 1:].count(counted) - fixed[pos]),
                           rule.target, rule)
        return self._fill(self, lambda key: (key[0] - 2, key[1], key[2]), parts)

    def _dense(self, key: GradingKey, counted: int) -> Matrix:
        """Dense view of a block of d or d+ (``counted`` -1 or +1), swept once."""
        if counted not in self._blocks:
            self._blocks[counted] = self._sweep(counted)
        return _dense_view(self.columns(key, counted), self.dim((key[0] - 2, key[1], key[2])))

    def differential(self, key: GradingKey) -> Matrix:
        """Matrix of d from the bucket at ``key`` to the bucket at i-2: a new
        dense view of the stored sparse block."""
        return self._dense(key, -1)

    def d_plus(self, key: GradingKey) -> Matrix:
        """Differential signed by positive markers after the crossing instead."""
        return self._dense(key, 1)

    def columns(self, key: GradingKey, counted: int = -1) -> Columns:
        """The stored sparse block of d (``counted`` -1) or d+ (+1) out of
        ``key``: per column, its (row, entry) pairs, rows indexing the bucket
        at i-2.  ``[]`` for a key with no bucket.  The block is shared, not
        copied: read it only.  The blocks are assembled on first use through
        :meth:`differential` or :meth:`d_plus`, the assembly's one entry."""
        if counted not in self._blocks:
            (self.differential if counted < 0 else self.d_plus)(next(iter(self.sizes)))
        return self._blocks[counted].get(key, [])

    def d_squared_blocks(self) -> dict[tuple[int, GradingS], bool]:
        """Whether d composed with itself vanishes on each (j, s) block.

        The keys come in (j, s) order.  A split complex whose components
        pass d o d lifts these, all True (see :meth:`_lift_d2`).  Computed on
        the first call and stored: read the result only.
        """
        if self._d2 is None:
            ok: dict[tuple[int, GradingS], bool] = {}
            for (i, j, s) in self.gradings():
                ok[(j, s)] = ok.get((j, s), True) and not any(
                    _mat_mul(self.columns((i - 2, j, s)), self.columns((i, j, s))))
            self._d2 = ok
        return self._d2

    def check_d_squared(self) -> None:
        """Raise :class:`ComplexError` unless d composed with itself is zero."""
        for (j, s), zero in self.d_squared_blocks().items():
            if not zero:
                raise ComplexError(
                    f"differential does not square to zero in block "
                    f"(j={j},s={s.text}); the diagram is not drawable on the "
                    "declared surface")

    def factors(self) -> dict[GradingKey, tuple[int, ...]]:
        """The invariant factors over Z of d out of each key of ``sizes``
        (:func:`~bandkh.linalg.invariant_factors`), in the order of
        ``sizes``.  A split complex whose components pass d o d lifts these
        by the Kunneth formula (see :meth:`_lift_factors`).  Computed on the first
        call and stored: read the result only.
        """
        if self._factors is None:
            self._factors = {
                (i, j, s): invariant_factors(self.columns((i, j, s)),
                                             self.dim((i - 2, j, s)))
                for (i, j, s) in self.sizes}
        return self._factors

    def rank_table(self, tags: tuple[str, ...]) -> dict[GradingKey, tuple]:
        """key -> (ranks of d out of it, homology dimensions at it), one per
        ring of ``tags`` (:func:`~bandkh.linalg.rank_over`), read off
        :meth:`factors` for each key of ``sizes``; a key with no bucket is
        missing and reads zero.  Computed once per tag tuple and stored:
        read the result only.

        >>> from bandkh.diagram import Diagram
        >>> from bandkh.surface import SurfaceModel
        >>> cx = GradedComplex(Diagram(SurfaceModel.planar_holes(0), loops=((),)))
        >>> cx.rank_table(("Q", "Z2"))
        {(0, -2, GradingS(0)): ((0, 0), (1, 1)), (0, 2, GradingS(0)): ((0, 0), (1, 1))}
        >>> cx.rank_table(("Q", "Z2")) is cx.rank_table(("Q", "Z2"))
        True
        """
        table = self._rank_tables.get(tags)
        if table is None:
            zero = (0,) * len(tags)
            d_ranks = {key: tuple(rank_over(factors, ring) for ring in tags)
                       for key, factors in self.factors().items()}
            table = self._rank_tables[tags] = {
                key: (r, tuple(self.dim(key) - a - b for a, b in zip(
                    r, d_ranks.get((key[0] + 2, key[1], key[2]), zero))))
                for key, r in d_ranks.items()}
        return table
