"""Exact integer linear algebra on sparse matrices.

A sparse matrix (:data:`Columns`) holds, for each column, its (row, entry)
pairs, entries nonzero; a dense one (:data:`Matrix`) is a list of rows.
The blocks of d and of every chain map are stored sparse, and each block
is reduced once, over Z, to its invariant factors
(:func:`invariant_factors`).  :func:`eliminate_units` first eliminates +-1
pivots on the sparse columns: each step is a unimodular row-and-column
operation (a Schur complement on a unit pivot), so each pivot is one
invariant factor 1.  What survives is a small dense residue, reduced by
:func:`smith_normal_form`, which ends with :func:`_direct_sum` and so with
:func:`divisor_chain`, the one routine that builds divisor chains.  The
rank over each ring is read off the factors (:func:`rank_over`): over Z
and Q their count, over Z/2 the count of odd ones.  Exact integer
arithmetic; no modular shortcuts.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

Matrix = list[list[int]]
#: A sparse block: for each source column, its (row, entry) pairs.
Columns = list[list[tuple[int, int]]]


def _mat_mul(a: Columns, b: Columns) -> Columns:
    """The product a . b: column c is ``a`` applied to column c of ``b``.
    Entries that cancel are dropped; rows come in no fixed order."""
    out = []
    for column in b:
        acc: dict[int, int] = {}
        for r, v in column:
            for r2, w in a[r]:
                acc[r2] = acc.get(r2, 0) + v * w
        # In the d o d check nearly every column cancels: the scan keeps
        # the product as fast as testing for zero alone.
        out.append([(r, v) for r, v in acc.items() if v]
                   if any(acc.values()) else [])
    return out


def _dense_view(mat: Columns, rows: int) -> Matrix:
    """A new dense ``rows`` x ``len(mat)`` copy of ``mat``."""
    out = [[0] * len(mat) for _ in range(rows)]
    for c, column in enumerate(mat):
        for r, v in column:
            out[r][c] = v
    return out


def _same(a: Columns, b: Columns, sign: int = 1) -> bool:
    """Whether ``a == sign * b``, both with zero entries dropped."""
    return len(a) == len(b) and all(
        sorted(x) == sorted((r, sign * v) for r, v in y) for x, y in zip(a, b))


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


def divisor_chain(orders: Iterable[int]) -> tuple[int, ...]:
    """The divisor chain of a direct sum of cyclic groups of these orders:
    entries above 1, ascending, each dividing the next.  Each order n merges
    in from the top, as Z/d + Z/n is Z/lcm + Z/gcd: d becomes lcm(d, n) and
    gcd(d, n) carries down to the next entry until it is 1.

    >>> divisor_chain([2, 2, 3])
    (2, 6)
    """
    chain: list[int] = []
    for n in orders:
        n = abs(n)
        k = len(chain)
        while n > 1 and k:
            k -= 1
            d = chain[k]
            g = gcd(d, n)
            chain[k] = d // g * n
            n = g
        if n > 1:
            chain.insert(0, n)
    return tuple(chain)


def smith_normal_form(matrix: Matrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr (all positive, r = rank): the
    diagonal left by row and column steps, normalized by :func:`_direct_sum`.

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
    diagonal: list[int] = []
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
        diagonal.append(abs(m[top][top]))
        top += 1
    return _direct_sum(diagonal)


def _direct_sum(factors: Iterable[int]) -> tuple[int, ...]:
    """The invariant factors of a direct sum of matrices whose invariant
    factors, all together, are ``factors``: the entries above 1 merged by
    :func:`divisor_chain`, preceded by ones up to their total count."""
    factors = list(factors)
    chain = divisor_chain(x for x in factors if x > 1)
    return (1,) * (len(factors) - len(chain)) + chain


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
