"""Exact homology of the graded integer complexes.

Each block of the differential is reduced once, over Z, to its invariant
factors (:func:`invariant_factors`).  :func:`eliminate_units` first
eliminates +-1 pivots on the sparse columns that
:class:`~bandkh.state_complex.GradedComplex` stores: each step is a
unimodular row-and-column operation (a Schur complement on a unit pivot),
so each pivot is one invariant factor 1.  What survives is a small dense
residue, reduced by :func:`smith_normal_form`.  Every ring reads its answer
off the factors (:func:`rank_over`): Z its rank and torsion, Q their count
and Z/2 the count of odd ones.  Exact integer arithmetic; no modular
shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .state_complex import Columns, GradedComplex, GradingKey, Matrix
from .surface import GradingS


class HomologyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Unit-pivot elimination, Smith normal form and ranks
# ---------------------------------------------------------------------------

def eliminate_units(columns: Columns, rows: int) -> tuple[int, Matrix]:
    """Eliminate +-1 pivots of a sparse integer matrix; (pivots, residue).

    ``columns`` holds each column's (row, entry) pairs, entries nonzero and
    each row at most once per column; ``rows`` is the row count.  Each pivot
    is a Schur complement on a unit entry, a unimodular row-and-column
    operation, so the matrix is equivalent over Z to the identity of size
    ``pivots`` beside the residue: its invariant factors are ``pivots`` ones
    followed by the residue's, and its rank over any field is ``pivots``
    plus the residue's.  The residue is dense, holds no +-1 entry and keeps
    its surviving rows and columns in their original order; rows and
    columns left empty drop out, so it may be ``[]``.  The input is not
    modified.

    Pivots are taken column by column in order of nonzero count, each at the
    unit entry whose row has the fewest nonzeros, which keeps the fill-in
    small; passes repeat while fill-in creates new units.

    >>> eliminate_units([[(0, 1), (1, 2)], [(0, 1), (1, 4)]], 2)
    (1, [[2]])
    """
    live = {c: dict(col) for c, col in enumerate(columns) if col}
    where: list[set[int]] = [set() for _ in range(rows)]
    for c, col in live.items():
        for r in col:
            where[r].add(c)
    units = 0
    found = True
    while found:
        found = False
        for c in sorted(live, key=lambda c: len(live[c])):
            col = live.get(c)
            if col is None:
                continue
            pivot = None
            for r, v in col.items():
                if (v == 1 or v == -1) and (
                        pivot is None or len(where[r]) < len(where[pivot])):
                    pivot = r
            if pivot is None:
                continue
            found = True
            units += 1
            u = col.pop(pivot)
            del live[c]
            for r in col:
                where[r].discard(c)
            hit = where[pivot]
            hit.discard(c)
            # Clear the pivot row from every other column: with u = +-1 the
            # multiplier of column c is the other column's entry times u.
            for c2 in hit:
                other = live[c2]
                f = other.pop(pivot) * u
                for r, v in col.items():
                    x = other.get(r, 0) - f * v
                    if x:
                        if r not in other:
                            where[r].add(c2)
                        other[r] = x
                    else:
                        del other[r]
                        where[r].discard(c2)
                if not other:
                    del live[c2]
            hit.clear()
    if not live:
        return units, []
    kept = sorted(live)
    at = {r: k for k, r in enumerate(r for r in range(rows) if where[r])}
    residue = [[0] * len(kept) for _ in at]
    for k, c in enumerate(kept):
        for r, v in live[c].items():
            residue[at[r]][k] = v
    return units, residue


def smith_normal_form(matrix: Matrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr (all positive, r = rank).

    >>> smith_normal_form([[2, 0], [0, 0]])
    (2,)
    >>> smith_normal_form([[1, 1], [1, 1]])
    (1,)
    >>> smith_normal_form([[2, 4], [6, 8]])
    (2, 4)
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    invariants: list[int] = []
    top = 0
    while top < rows and top < cols:
        # Locate a pivot of minimal absolute value in the active submatrix.
        pivot = None
        best = None
        for r in range(top, rows):
            for c in range(top, cols):
                v = m[r][c]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (r, c)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        r, c = pivot
        m[top], m[r] = m[r], m[top]
        for row in m:
            row[top], row[c] = row[c], row[top]
        while True:
            # Clear the pivot column, then the pivot row, by division with
            # remainder; restart whenever a smaller remainder appears.
            p = m[top][top]
            dirty = False
            for r in range(top + 1, rows):
                if m[r][top]:
                    q = m[r][top] // p
                    if q:
                        for c in range(top, cols):
                            m[r][c] -= q * m[top][c]
                    if m[r][top]:
                        m[top], m[r] = m[r], m[top]
                        dirty = True
                        break
            if dirty:
                continue
            for c in range(top + 1, cols):
                if m[top][c]:
                    q = m[top][c] // p
                    if q:
                        for r in range(top, rows):
                            m[r][c] -= q * m[r][top]
                    if m[top][c]:
                        for row in m:
                            row[top], row[c] = row[c], row[top]
                        dirty = True
                        break
            if not dirty:
                break
        # Enforce divisibility of the remaining submatrix by the pivot; a
        # unit pivot divides every entry, so only larger ones need the scan.
        p = m[top][top]
        offender = None
        if abs(p) != 1:
            for r in range(top + 1, rows):
                for c in range(top + 1, cols):
                    if m[r][c] % p:
                        offender = r
                        break
                if offender is not None:
                    break
        if offender is not None:
            for c in range(top, cols):
                m[top][c] += m[offender][c]
            continue
        invariants.append(abs(p))
        top += 1
    return tuple(invariants)


def invariant_factors(columns: Columns, rows: int) -> tuple[int, ...]:
    """Invariant factors of a sparse integer matrix, as in
    :func:`eliminate_units`: its unit pivots, then the residue's.

    >>> invariant_factors([[(0, 1), (1, 2)], [(0, 1), (1, 4)]], 2)
    (1, 2)
    """
    units, residue = eliminate_units(columns, rows)
    return (1,) * units + smith_normal_form(residue)


def rank_over(factors: tuple[int, ...], ring: str) -> int:
    """Rank over ``ring`` ("Z", "Q" or "Z2") of a matrix with these invariant
    factors: U and V in U A V = diag stay invertible over Q and mod 2, so Z
    and Q count every factor and Z/2 the odd ones.

    >>> rank_over((1, 2, 6), "Q"), rank_over((1, 2, 6), "Z2")
    (3, 1)
    """
    return sum(d & 1 for d in factors) if ring == "Z2" else len(factors)


# ---------------------------------------------------------------------------
# Abelian groups and homology tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AbelianGroup:
    """Finitely generated abelian group: free rank plus a divisor chain."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise HomologyError("negative rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise HomologyError("torsion must form a divisor chain")
        if any(t <= 1 for t in self.torsion):
            raise HomologyError("torsion entries must exceed 1")

    @property
    def trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    @property
    def text(self) -> str:
        if self.trivial:
            return "0"
        parts = []
        if self.rank:
            parts.append("Z" if self.rank == 1 else f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)

    def __repr__(self):
        return f"AbelianGroup({self.text})"


def divisor_chain(factors: Iterable[int]) -> tuple[int, ...]:
    """Canonical divisor chain of a direct sum of cyclic groups."""
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


@dataclass
class HomologyTable:
    """Map (i, j, s) -> group, with the coefficient tag it was computed over."""

    groups: dict[GradingKey, AbelianGroup]
    coefficients: str = "Z"

    def group(self, key: GradingKey) -> AbelianGroup:
        return self.groups.get(key, AbelianGroup(0))

    def keys_sorted(self) -> list[GradingKey]:
        return sorted(self.groups, key=lambda k: (k[1], k[2].sort_key, k[0]))

    def total_rank(self) -> int:
        return sum(g.rank for g in self.groups.values())

    def to_tsv(self) -> str:
        lines = []
        for (i, j, s) in self.keys_sorted():
            g = self.groups[(i, j, s)]
            torsion = ",".join(str(t) for t in g.torsion) or "-"
            lines.append(f"{i}\t{j}\t{s.text}\t{g.rank}\t{torsion}")
        return "\n".join(lines)


COEFFICIENTS = ("Z", "Q", "Z2")


def homology(cx: GradedComplex, coefficients: str = "Z") -> HomologyTable:
    """Homology of every (i, j, s) block.

    Over Z the result is rank plus torsion divisor chain; over Q and Z/2 the
    rank field holds the dimension and torsion is empty.  Each differential
    block is reduced once, from its stored sparse columns, to its invariant
    factors over Z: it is d_out of its own key and d_in of the key two steps
    below.  Every ring reads its ranks off those factors.
    """
    if coefficients not in COEFFICIENTS:
        raise HomologyError(f"unknown coefficients {coefficients!r}")
    cx.check_d_squared()
    # Invariant factors of d out of each key.
    factors = {(i, j, s): invariant_factors(cx.columns((i, j, s)),
                                            cx.dim((i - 2, j, s)))
               for (i, j, s) in cx.sizes}
    groups: dict[GradingKey, AbelianGroup] = {}
    for (i, j, s), out in factors.items():
        # No bucket at i + 2 means d_in has no columns.
        into = factors.get((i + 2, j, s), ())
        rank = (cx.dim((i, j, s)) - rank_over(out, coefficients)
                - rank_over(into, coefficients))
        torsion = (divisor_chain(t for t in into if t > 1)
                   if coefficients == "Z" else ())
        if rank or torsion:
            groups[(i, j, s)] = AbelianGroup(rank, torsion)
    return HomologyTable(groups, coefficients)


def aggregate_handlebody(table: HomologyTable) -> dict[tuple[int, int], AbelianGroup]:
    """Direct sum over the s-grading, leaving a table indexed by (i, j)."""
    ranks: dict[tuple[int, int], int] = {}
    torsions: dict[tuple[int, int], list[int]] = {}
    for (i, j, _s), g in table.groups.items():
        ranks[(i, j)] = ranks.get((i, j), 0) + g.rank
        torsions.setdefault((i, j), []).extend(g.torsion)
    out = {}
    for ij in ranks:
        grp = AbelianGroup(ranks[ij], divisor_chain(torsions[ij]))
        if not grp.trivial:
            out[ij] = grp
    return out


def table_isomorphic(t1: HomologyTable, t2: HomologyTable,
                     shift: tuple[int, int] = (0, 0),
                     s_map: Callable[[GradingS], GradingS] | None = None) -> bool:
    """Entrywise equality of t1 at (i, j, s) with t2 at (i+di, j+dj, s_map(s))."""
    di, dj = shift
    remap = s_map or (lambda s: s)
    moved = {(i + di, j + dj, remap(s)): g for (i, j, s), g in t1.groups.items()}
    return moved == t2.groups


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
