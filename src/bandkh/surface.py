"""Compact surfaces with boundary, presented as a disk with attached bands.

The surface F is a closed disk with k bands glued to its boundary circle.
Each band contributes one free generator to pi_1(F) (the fundamental group
is free because F has nonempty boundary), so a closed curve on F is encoded
by the word of band traversals it performs.  A band may be glued with a half
twist ("flipped"); a curve crossing a flipped band an odd number of times is
one-sided.

Supported surfaces (the catalogue):

* ``planar_holes(h)`` -- disk with h untwisted, unlinked bands (pattern
  ``a a b b ...`` around the boundary); a planar surface with h + 1 boundary
  circles.  ``planar_holes(0)`` is the disk, ``planar_holes(1)`` the annulus.
* ``orientable(g, b)`` -- orientable surface of genus g with b >= 1 boundary
  circles: g interleaved band pairs (``a b a b``) plus b - 1 unlinked bands.
* ``moebius_band()`` -- one flipped band.

Other unorientable surfaces (in particular any surface containing a
projective plane) are outside the catalogue and are rejected at
construction/parse time.

Words are tuples of letters; a letter is ``(symbol, exponent)`` with
exponent +1 or -1.  The textual form writes an inverse with a trailing
apostrophe, e.g. ``"a b'"`` for a * b^-1.

Closed curves are always unoriented and considered up to free homotopy, so
the canonical form of a word is the minimum over all rotations of the word
and of its inverse, after free and cyclic reduction.  Letters are ordered
``a < a' < b < b' < ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from string import ascii_lowercase
from typing import Iterable, Mapping

Letter = tuple[str, int]
Word = tuple[Letter, ...]


class SurfaceError(ValueError):
    """Raised for invalid surface data or out-of-catalogue surfaces."""


class UnsupportedSurfaceError(SurfaceError):
    """Raised for surfaces on which the integral theory is undefined."""


UNSUPPORTED_MESSAGE = (
    "unsupported surface: the projective plane and closed surfaces are not "
    "in the catalogue (the integral differential does not square to zero "
    "over such a base)"
)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

def parse_word(text: str) -> Word:
    """Parse a space-separated word, apostrophe marking an inverse letter.

    >>> parse_word("a b'")
    (('a', 1), ('b', -1))
    >>> parse_word("")
    ()
    """
    letters = []
    for token in text.split():
        if token.endswith("'"):
            sym, exp = token[:-1], -1
        else:
            sym, exp = token, 1
        if not sym or not sym.isalpha():
            raise ValueError(f"bad letter {token!r}")
        letters.append((sym, exp))
    return tuple(letters)


def word_text(word: Word) -> str:
    """Inverse of :func:`parse_word`; the empty word prints as ''."""
    return " ".join(sym + ("'" if exp < 0 else "") for sym, exp in word)


def inverse_word(word: Word) -> Word:
    return tuple((sym, -exp) for sym, exp in reversed(word))


def free_reduce(word: Iterable[Letter]) -> Word:
    """Cancel adjacent ``g g'`` pairs until none remain."""
    out: list[Letter] = []
    for sym, exp in word:
        if out and out[-1][0] == sym and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((sym, exp))
    return tuple(out)


def _letter_rank(letter: Letter) -> tuple[str, int]:
    sym, exp = letter
    return (sym, 0 if exp > 0 else 1)


def _word_rank(word: Word) -> tuple[tuple[str, int], ...]:
    return tuple(_letter_rank(let) for let in word)


def reduce_cyclic(word: Word) -> Word:
    """Canonical representative of an unoriented free homotopy class.

    Freely and cyclically reduces, then takes the minimum over all rotations
    of the word and of its inverse under the letter order ``a < a' < b < ...``.

    >>> reduce_cyclic((('a', 1), ('a', -1)))
    ()
    >>> reduce_cyclic((('a', -1), ('b', 1), ('a', 1)))
    (('b', 1),)
    >>> reduce_cyclic((('b', 1), ('a', 1), ('a', -1), ('b', 1)))
    (('b', 1), ('b', 1))
    """
    w = free_reduce(word)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = free_reduce(w[1:-1])
    if not w:
        return ()
    candidates = []
    for base in (w, inverse_word(w)):
        for k in range(len(base)):
            candidates.append(base[k:] + base[:k])
    return min(candidates, key=_word_rank)


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

class Catalogue(Enum):
    PLANAR_HOLES = "planar_holes"
    ORIENTABLE = "orientable"
    MOEBIUS = "moebius"


@dataclass(frozen=True)
class Band:
    symbol: str
    flipped: bool = False


@dataclass(frozen=True)
class SurfaceModel:
    """A disk-with-bands surface.

    ``attachment`` is the cyclic sequence of band-end tokens met along the
    disk boundary; every band symbol occurs exactly twice.  Outside its
    fields it keeps its generator set and the word -> class memo of its
    diagrams' smoothings.
    """

    bands: tuple[Band, ...]
    attachment: tuple[str, ...]
    catalogue: Catalogue
    params: tuple[int, ...] = ()

    def __post_init__(self):
        syms = [b.symbol for b in self.bands]
        if len(set(syms)) != len(syms):
            raise SurfaceError("duplicate band symbols")
        counts = {s: 0 for s in syms}
        for tok in self.attachment:
            if tok not in counts:
                raise SurfaceError(f"attachment names unknown band {tok!r}")
            counts[tok] += 1
        if any(c != 2 for c in counts.values()):
            raise SurfaceError("every band must occur exactly twice in the attachment")
        flipped = [b for b in self.bands if b.flipped]
        if self.catalogue is Catalogue.MOEBIUS:
            if len(self.bands) != 1 or not self.bands[0].flipped:
                raise SurfaceError("the Moebius band has exactly one band, flipped")
        elif flipped:
            raise SurfaceError(UNSUPPORTED_MESSAGE)
        if self.catalogue is Catalogue.PLANAR_HOLES:
            expected = tuple(s for b in self.bands for s in (b.symbol, b.symbol))
            if self.attachment != expected:
                raise SurfaceError("planar bands must be attached in the pattern a a b b ...")
        object.__setattr__(self, "_gens", frozenset(self.generators))
        object.__setattr__(self, "_classes", {})

    # -- constructors -------------------------------------------------------

    @staticmethod
    def planar_holes(holes: int) -> "SurfaceModel":
        if holes < 0:
            raise SurfaceError("hole count must be nonnegative")
        syms = _symbols(holes)
        bands = tuple(Band(s) for s in syms)
        attachment = tuple(s for s in syms for _ in range(2))
        return SurfaceModel(bands, attachment, Catalogue.PLANAR_HOLES, (holes,))

    @staticmethod
    def orientable(genus: int, boundary: int) -> "SurfaceModel":
        if genus < 0 or boundary < 1:
            raise SurfaceError("need genus >= 0 and at least one boundary circle")
        syms = _symbols(2 * genus + boundary - 1)
        bands = tuple(Band(s) for s in syms)
        attachment: list[str] = []
        for h in range(genus):
            x, y = syms[2 * h], syms[2 * h + 1]
            attachment += [x, y, x, y]
        for s in syms[2 * genus:]:
            attachment += [s, s]
        return SurfaceModel(bands, tuple(attachment), Catalogue.ORIENTABLE,
                            (genus, boundary))

    @staticmethod
    def moebius_band() -> "SurfaceModel":
        return SurfaceModel((Band("a", flipped=True),), ("a", "a"), Catalogue.MOEBIUS)

    # -- queries ------------------------------------------------------------

    @property
    def generators(self) -> tuple[str, ...]:
        return tuple(b.symbol for b in self.bands)

    @property
    def orientable_surface(self) -> bool:
        return not any(b.flipped for b in self.bands)

    def flipped_symbols(self) -> frozenset[str]:
        return frozenset(b.symbol for b in self.bands if b.flipped)

    def check_word(self, word: Word) -> None:
        for sym, exp in word:
            if sym not in self._gens:
                raise SurfaceError(f"word uses generator {sym!r} absent from the surface")
            if exp not in (1, -1):
                raise SurfaceError(f"bad exponent {exp} in word")

    def describe(self) -> str:
        if self.catalogue is Catalogue.PLANAR_HOLES:
            return f"planar_holes {self.params[0]}"
        if self.catalogue is Catalogue.ORIENTABLE:
            return f"orientable {self.params[0]} {self.params[1]}"
        return "moebius"


def _symbols(n: int) -> tuple[str, ...]:
    if n > len(ascii_lowercase):
        raise SurfaceError("too many bands for single-letter generator names")
    return tuple(ascii_lowercase[:n])


# ---------------------------------------------------------------------------
# Curve classes
# ---------------------------------------------------------------------------

class CurveKind(Enum):
    TRIVIAL = "trivial"
    MOEBIUS_BOUNDING = "moebius_bounding"
    UNBOUNDING = "unbounding"


_MOEBIUS_BOUNDARY: Word = (("a", 1), ("a", 1))


@dataclass(frozen=True, order=False)
class CurveClass:
    """Canonical form of an unoriented free homotopy class of a closed curve."""

    canonical: Word
    kind: CurveKind
    sided: int  # +1 two-sided, -1 one-sided

    def __post_init__(self):
        # Hashed once, and pickled by fields: string hashes vary by process.
        object.__setattr__(self, "_hash", hash((self.canonical, self.kind, self.sided)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return CurveClass, (self.canonical, self.kind, self.sided)

    @property
    def sort_key(self) -> tuple:
        return (len(self.canonical), _word_rank(self.canonical))

    def __lt__(self, other: "CurveClass") -> bool:
        return self.sort_key < other.sort_key

    @property
    def text(self) -> str:
        return word_text(self.canonical)

    def __repr__(self):
        return f"CurveClass({self.text or '1'})"


def classify(word: Word, surface: SurfaceModel) -> CurveClass:
    """Classify a closed-curve word as trivial, Moebius-bounding or unbounding.

    On the catalogue surfaces triviality is exact (pi_1 is free); the only
    Moebius-bounding class is ``a a`` on the Moebius band.
    """
    surface.check_word(word)
    canon = reduce_cyclic(word)
    if not canon:
        return CurveClass((), CurveKind.TRIVIAL, 1)
    flipped = surface.flipped_symbols()
    parity = sum(1 for sym, _ in canon if sym in flipped) % 2
    sided = -1 if parity else 1
    if surface.catalogue is Catalogue.MOEBIUS and canon == _MOEBIUS_BOUNDARY:
        return CurveClass(canon, CurveKind.MOEBIUS_BOUNDING, 1)
    return CurveClass(canon, CurveKind.UNBOUNDING, sided)


# ---------------------------------------------------------------------------
# The s-grading: finite signed sums of unbounding classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradingS:
    """Element of the free abelian group on unbounding curve classes."""

    entries: tuple[tuple[CurveClass, int], ...] = ()

    def __post_init__(self):
        for cls, coef in self.entries:
            if cls.kind is not CurveKind.UNBOUNDING:
                raise ValueError("s-grading keys must be unbounding classes")
            if coef == 0:
                raise ValueError("zero coefficients must be dropped")
        keys = [cls.sort_key for cls, _ in self.entries]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("entries must be strictly sorted by class")
        object.__setattr__(self, "_hash", hash(self.entries))  # as in CurveClass

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GradingS, (self.entries,)

    @staticmethod
    def zero() -> "GradingS":
        return GradingS(())

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[CurveClass, int]]) -> "GradingS":
        acc: dict[CurveClass, int] = {}
        for cls, coef in pairs:
            acc[cls] = acc.get(cls, 0) + coef
        kept = [(cls, coef) for cls, coef in acc.items() if coef != 0]
        kept.sort(key=lambda pair: pair[0].sort_key)
        return GradingS(tuple(kept))

    @property
    def text(self) -> str:
        if not self.entries:
            return "0"
        return ",".join(f"{cls.text}:{coef:+d}" for cls, coef in self.entries)

    @property
    def sort_key(self) -> tuple:
        return tuple((cls.sort_key, coef) for cls, coef in self.entries)

    def __repr__(self):
        return f"GradingS({self.text})"


def grading_add(s1: GradingS, s2: GradingS) -> GradingS:
    return GradingS.from_pairs(tuple(s1.entries) + tuple(s2.entries))


def grading_negate(s: GradingS) -> GradingS:
    return GradingS.from_pairs((cls, -coef) for cls, coef in s.entries)


def grading_flip(s: GradingS, signs: Mapping[CurveClass, int]) -> GradingS:
    """Act by a sign assignment per class; classes absent from ``signs`` keep +1."""
    return GradingS.from_pairs(
        (cls, signs.get(cls, 1) * coef) for cls, coef in s.entries)
