"""Exact homology of the graded integer complexes, read over every ring off
one table of pieces over Z
(:meth:`~bandkh.state_complex.GradedComplex._homology_pieces`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import divisor_chain, smith_normal_form  # noqa: F401 (re-exported)
from .state_complex import GradedComplex, GradingKey, _order, _Pieces


class HomologyError(ValueError):
    pass


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
        if any(t <= 1 for t in self.torsion):
            raise HomologyError("torsion entries must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise HomologyError("torsion must form a divisor chain")

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


@dataclass
class HomologyTable:
    """Map (i, j, s) -> group, with the coefficient tag it was computed over."""

    groups: dict[GradingKey, AbelianGroup]
    coefficients: str = "Z"

    def group(self, key: GradingKey) -> AbelianGroup:
        return self.groups.get(key, AbelianGroup(0))

    def keys_sorted(self) -> list[GradingKey]:
        return sorted(self.groups, key=_order)

    def to_tsv(self) -> str:
        lines = []
        for (i, j, s) in self.keys_sorted():
            g = self.groups[(i, j, s)]
            torsion = ",".join(str(t) for t in g.torsion) or "-"
            lines.append(f"{i}\t{j}\t{s.text}\t{g.rank}\t{torsion}")
        return "\n".join(lines)


COEFFICIENTS = ("Z", "Q", "Z2")


def homology(cx: GradedComplex, coefficients: str = "Z") -> HomologyTable:
    """Homology of every (i, j, s) block, its groups in
    :meth:`~bandkh.state_complex.GradedComplex.gradings` order.

    Over Z the result is rank plus torsion divisor chain; over Q and Z/2 the
    rank field holds the dimension and torsion is empty.  Every ring reads
    its groups off one table of pieces over Z
    (:meth:`~bandkh.state_complex.GradedComplex._homology_pieces`): the
    free pieces at each key and the elementary pieces (Z -m-> Z) of
    modulus m above 1 out of it (see :func:`_groups`).  A connected complex
    checks d o d and reads its pieces off the invariant factors of its
    blocks (``cx.factors()``, reduced once per complex); a split complex
    whose components pass d o d pairs the pieces of its components'
    homology alone, and reads neither its own factors nor its d o d
    verdicts.
    """
    if coefficients not in COEFFICIENTS:
        raise HomologyError(f"unknown coefficients {coefficients!r}")
    return HomologyTable(_groups(cx._homology_pieces(), coefficients), coefficients)


_NO_PIECE = (0, {})


def _groups(pieces: _Pieces, coefficients: str) -> dict[GradingKey, AbelianGroup]:
    """The groups of a complex, in :meth:`GradedComplex.gradings` order, off
    its free pieces and its elementary pieces (Z -m-> Z) of modulus m above
    1 (``cx._homology_pieces()``): a free piece is Z at its key, a piece out
    of key + 2 is Z/m at the key, and mod 2 a piece of even m is Z/2 at both
    its ends.  So Z reads rank ``free`` and the divisor chain of the moduli
    at key + 2, Q ``free``, and Z/2 ``free`` plus the even moduli at the key
    and at key + 2."""
    keys = set(pieces)
    keys.update((i - 2, j, s) for (i, j, s), (_, moduli) in pieces.items() if moduli)
    groups: dict[GradingKey, AbelianGroup] = {}
    for (i, j, s) in sorted(keys, key=_order):
        rank, out = pieces.get((i, j, s), _NO_PIECE)
        into = pieces.get((i + 2, j, s), _NO_PIECE)[1]
        torsion: tuple[int, ...] = ()
        if coefficients == "Z":
            torsion = divisor_chain(m for m, count in into.items() for _ in range(count))
        elif coefficients == "Z2":
            rank += sum(count for m, count in out.items() if not m & 1) + sum(
                count for m, count in into.items() if not m & 1)
        if rank or torsion:
            groups[(i, j, s)] = AbelianGroup(rank, torsion)
    return groups


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
                     shift: tuple[int, int] = (0, 0)) -> bool:
    """Entrywise equality of t1 at (i, j, s) with t2 at (i+di, j+dj, s)."""
    di, dj = shift
    moved = {(i + di, j + dj, s): g for (i, j, s), g in t1.groups.items()}
    return moved == t2.groups

