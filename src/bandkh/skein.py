"""Kauffman bracket expansions in the crossingless basis of the surface.

The bracket of a diagram is computed as a state sum: each marker vector
contributes ``A`` to the power of its marker sum times ``-(A^2 + A^-2)`` per
trivial circle, and the remaining circle classes form a crossingless basis
element (a multiset of nontrivial curve classes).  A second, recursive
implementation resolves one crossing at a time by edge surgery and serves
as an independent oracle for the state sum and for the Euler-characteristic
identity.  Both count states by nontrivial classes, A exponent and trivial
circles, and build each basis element and its polynomial once.

The substitution ``phi`` sends an unbounding class c to ``x_c + x_c^-1`` and
a Moebius-bounding class to 2; monomials in the x-variables are identified
with s-gradings, giving one Laurent polynomial ``q_s`` per grading.  On an
orientable surface the substitution is triangular and invertible, which is
what :func:`recover_p` implements (binomial inversion, exact over the
integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping

from .diagram import Circle, Diagram, smooth, smooth_crossing
from .homology import HomologyTable
from .surface import CurveClass, CurveKind, GradingS, SurfaceModel


class SkeinError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Laurent polynomials in A
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaurentPolyA:
    """Integer Laurent polynomial in A, stored as sorted (exponent, coef)."""

    terms: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(coefs: Mapping[int, int]) -> "LaurentPolyA":
        return LaurentPolyA(tuple(sorted((e, c) for e, c in coefs.items() if c)))

    @staticmethod
    def zero() -> "LaurentPolyA":
        return LaurentPolyA()

    @staticmethod
    def monomial(exp: int = 0, coef: int = 1) -> "LaurentPolyA":
        return LaurentPolyA.from_dict({exp: coef})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "LaurentPolyA") -> "LaurentPolyA":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPolyA.from_dict(acc)

    def __sub__(self, other: "LaurentPolyA") -> "LaurentPolyA":
        return self + other.scale(-1)

    def __mul__(self, other: "LaurentPolyA") -> "LaurentPolyA":
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
        return LaurentPolyA.from_dict(acc)

    def scale(self, x: int) -> "LaurentPolyA":
        return LaurentPolyA.from_dict({e: x * c for e, c in self.terms})

    @property
    def text(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*A^{e}" for e, c in self.terms)

    def __repr__(self):
        return f"LaurentPolyA({self.text})"


LOOP_FACTOR = LaurentPolyA.from_dict({2: -1, -2: -1})  # -(A^2 + A^-2)


# ---------------------------------------------------------------------------
# Basis elements and expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisElement:
    """Multiset of nontrivial curve classes; the empty element is ()."""

    components: tuple[tuple[CurveClass, int], ...] = ()

    def __post_init__(self):
        for cls, mult in self.components:
            if cls.kind is CurveKind.TRIVIAL:
                raise SkeinError("basis elements contain no trivial classes")
            if mult <= 0:
                raise SkeinError("multiplicities must be positive")
        keys = [cls.sort_key for cls, _ in self.components]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise SkeinError("components must be strictly sorted")

    @staticmethod
    def from_classes(classes: Iterable[CurveClass]) -> "BasisElement":
        acc: dict[CurveClass, int] = {}
        for cls in classes:
            acc[cls] = acc.get(cls, 0) + 1
        return BasisElement(tuple(sorted(acc.items(), key=lambda p: p[0].sort_key)))

    @property
    def text(self) -> str:
        if not self.components:
            return "1"
        return "*".join(f"({cls.text})^{m}" for cls, m in self.components)

    @property
    def sort_key(self) -> tuple:
        return tuple((cls.sort_key, m) for cls, m in self.components)

    def __repr__(self):
        return f"BasisElement({self.text})"


BracketExpansion = dict[BasisElement, LaurentPolyA]
QCoefficients = dict[GradingS, LaurentPolyA]


def _tidy(expansion: BracketExpansion) -> BracketExpansion:
    return {b: p for b, p in expansion.items() if p}


# A bracket count: nontrivial classes -> (A exponent, trivial circles) -> states.
_Counts = dict[tuple[CurveClass, ...], dict[tuple[int, int], int]]


def _count(counts: _Counts, circles: tuple[Circle, ...], exp: int) -> None:
    classes = tuple(c.cls for c in circles if c.kind is not CurveKind.TRIVIAL)
    terms, key = counts.setdefault(classes, {}), (exp, len(circles) - len(classes))
    terms[key] = terms.get(key, 0) + 1


def _expansion(counts: _Counts) -> BracketExpansion:
    """Collect counts by basis element: t trivial circles contribute the
    loop factor's power, the sum over k of (-1)^t C(t, k) A^(2t - 4k)."""
    acc: dict[BasisElement, dict[int, int]] = {}
    for classes, terms in counts.items():
        coefs = acc.setdefault(BasisElement.from_classes(classes), {})
        for (exp, t), n in terms.items():
            for k in range(t + 1):
                e = exp + 2 * t - 4 * k
                coefs[e] = coefs.get(e, 0) + (-1) ** t * n * comb(t, k)
    return _tidy({elt: LaurentPolyA.from_dict(c) for elt, c in acc.items()})


def kauffman_bracket(diagram: Diagram) -> BracketExpansion:
    """Full state-sum bracket, collected by crossingless basis element."""
    counts: _Counts = {}
    for markers in diagram.marker_vectors():
        _count(counts, smooth(diagram, markers), sum(markers))
    return _expansion(counts)


def bracket_recursive(diagram: Diagram) -> BracketExpansion:
    """Independent bracket oracle by resolving one crossing at a time; each
    crossingless leaf counts with the marker sum of its path."""
    counts: _Counts = {}
    stack = [(diagram, 0)]
    while stack:
        d, exp = stack.pop()
        if d.n_crossings:
            stack += ((smooth_crossing(d, 0, m), exp + m) for m in (-1, 1))
        else:
            _count(counts, smooth(d, ()), exp)
    return _expansion(counts)


# ---------------------------------------------------------------------------
# The phi substitution and its inverse
# ---------------------------------------------------------------------------

def phi_of_basis(elt: BasisElement) -> QCoefficients:
    """Expand one basis element into monomials, i.e. s-gradings."""
    # A monomial is its (class, exponent) pairs in the element's class order,
    # so the terms of (x_c + x_c^-1)^m extend each monomial to distinct ones.
    acc: dict[tuple, int] = {(): 1}
    for cls, mult in elt.components:
        if cls.kind is CurveKind.MOEBIUS_BOUNDING:
            acc = {key: coef * 2 ** mult for key, coef in acc.items()}
        else:
            acc = {key + (((cls, mult - 2 * k),) if 2 * k != mult else ()):
                   coef * comb(mult, k) for key, coef in acc.items() for k in range(mult + 1)}
    return {GradingS(key): LaurentPolyA.monomial(0, coef) for key, coef in acc.items()}


def phi_expand(expansion: BracketExpansion) -> QCoefficients:
    """The multiplicative substitution applied to a bracket expansion."""
    out: QCoefficients = {}
    for elt, poly in expansion.items():
        for s, coef in phi_of_basis(elt).items():
            out[s] = out.get(s, LaurentPolyA.zero()) + coef * poly
    return {s: p for s, p in out.items() if p}


def euler_characteristic(table: HomologyTable, s: GradingS) -> LaurentPolyA:
    """Alternating A-graded rank sum of the homology at a fixed s-grading."""
    if table.coefficients not in ("Z", "Q"):
        raise SkeinError("Euler characteristics need Z or Q coefficients")
    acc: dict[int, int] = {}
    for (i, j, s0), group in table.groups.items():
        if s0 != s:
            continue
        sign = -1 if ((j - i) // 2) % 2 else 1
        acc[j] = acc.get(j, 0) + sign * group.rank
    return LaurentPolyA.from_dict(acc)


def recover_p(q: QCoefficients, surface: SurfaceModel) -> BracketExpansion:
    """Invert phi on an orientable surface by descending-degree elimination.

    The leading monomial of phi(b) is the full exponent profile of b with
    coefficient 1, so peeling maximal-total-degree gradings recovers every
    basis coefficient exactly.
    """
    if not surface.orientable_surface:
        raise SkeinError("basis recovery requires an orientable surface")
    remaining = {s: p for s, p in q.items() if p}
    out: BracketExpansion = {}
    budget = 8 * (len(remaining) + 1)
    while remaining:
        budget -= 1
        if budget < 0:
            raise SkeinError("coefficients are not in the image of the substitution")
        s = max(remaining,
                key=lambda g: (sum(abs(c) for _, c in g.entries), g.sort_key))
        poly = remaining[s]
        elt = BasisElement(tuple((cls, abs(c)) for cls, c in s.entries))
        out[elt] = out.get(elt, LaurentPolyA.zero()) + poly
        for s2, coef in phi_of_basis(elt).items():
            cur = remaining.get(s2, LaurentPolyA.zero()) - coef * poly
            if cur:
                remaining[s2] = cur
            else:
                remaining.pop(s2, None)
    return _tidy(out)


def moebius_grouped_sums(expansion: BracketExpansion,
                         surface: SurfaceModel) -> BracketExpansion:
    """Group by the Moebius-free part, weighting by 2 per Moebius component."""
    out: BracketExpansion = {}
    for elt, poly in expansion.items():
        weight = 0
        base = []
        for cls, mult in elt.components:
            if cls.kind is CurveKind.MOEBIUS_BOUNDING:
                weight += mult
            else:
                base.append((cls, mult))
        key = BasisElement(tuple(base))
        out[key] = out.get(key, LaurentPolyA.zero()) + poly.scale(2 ** weight)
    return _tidy(out)


def expansion_text(expansion: BracketExpansion) -> str:
    lines = []
    for elt in sorted(expansion, key=lambda b: b.sort_key):
        lines.append(f"{elt.text} ; {expansion[elt].text}")
    return "\n".join(lines)
