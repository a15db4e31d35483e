"""Frozen input generators for the benchmark workloads.

The diagram constructors below are copies of the test-suite helpers of the
same names, kept here so that editing the tests cannot shift a workload.
Every construction is realizable on its surface: twist regions between
parallel curve copies, kinks, clasps of a fresh trivial loop and crossing
slides through untwisted bands.

All randomness flows from an explicit ``random.Random``; the same seed gives
the same diagrams.
"""

from __future__ import annotations

import random

from bandkh import (
    Diagram,
    Edge,
    SurfaceModel,
    apply_r1_neg,
    apply_r1_pos,
    apply_r2,
    parse_word,
    reorder_crossings,
    smooth,
)

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


def loops_diagram(surface: SurfaceModel, *words: str) -> Diagram:
    return Diagram(surface, loops=tuple(parse_word(w) for w in words))


def twist_pair(surface: SurfaceModel, word: str, k: int,
               extra_loops: tuple[str, ...] = ()) -> Diagram:
    """The (2, k) twist pattern on two parallel copies of a curve."""
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


def twist_params(surface: SurfaceModel) -> list[tuple[str, int]]:
    """Drawable (word, k) twist regions: two Moebius cores need odd k."""
    out = []
    for w in DISJOINT_WORDS[id(surface)]:
        for k in (1, 2, 3):
            if surface is MOEBIUS and w == "a" and k % 2 == 0:
                continue
            out.append((w, k))
    return out


def slide_crossing(diagram: Diagram, pos: int, symbol: str) -> Diagram:
    """Append a band passage to all four strand ends of one crossing."""
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


def random_diagram(surface: SurfaceModel, rng: random.Random,
                   max_crossings: int = 4) -> Diagram:
    """A random diagram assembled from realizability-preserving moves."""
    words = DISJOINT_WORDS[id(surface)]
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
        sites = [("edge", k) for k in range(len(diagram.edges))]
        sites += [("loop", k) for k in range(len(diagram.loops))]
        if move == "kink":
            if not sites:
                break
            op = rng.choice((apply_r1_neg, apply_r1_pos))
            diagram = op(diagram, rng.choice(sites), rng.choice(("left", "right")))
        elif move == "clasp":
            # Clasp a fresh trivial loop around any existing strand.
            with_loop = Diagram(diagram.surface, diagram.crossings,
                                diagram.edges, diagram.loops + ((),))
            if not sites:
                break
            diagram = apply_r2(with_loop, ("loop", len(with_loop.loops) - 1),
                               rng.choice(sites))
        else:
            diagram = slide_crossing(diagram,
                                     rng.randrange(diagram.n_crossings),
                                     rng.choice(diagram.surface.generators))
    if diagram.n_crossings > 1:
        perm = list(range(diagram.n_crossings))
        rng.shuffle(perm)
        diagram = reorder_crossings(diagram, perm)
    return diagram


def state_count(diagram: Diagram) -> int:
    """Number of enhanced states: the sum over markers of 2^(#circles)."""
    return sum(2 ** len(smooth(diagram, m)) for m in diagram.marker_vectors())


# ---------------------------------------------------------------------------
# The random-small corpus
# ---------------------------------------------------------------------------

#: Diagrams drawn per surface for the pool, the way the acceptance suite
#: draws them: ``random_diagram(surface, rng, max_crossings=4)``, so the pool
#: keeps that generator's own mix of crossing counts.
POOL_DRAWS = 48
#: Pool members per selected diagram; each selection picks one of this many
#: neighbours in cost order.
POOL_FACTOR = 2
#: Fixed seed of the pool.  A run's own seed only selects from the pool, so
#: every diagram a run can meet has a recorded reference output.
POOL_SEED = 20040913


def random_pool() -> list[list[Diagram]]:
    """Pool of random diagrams, one list per surface.

    Each list holds ``POOL_DRAWS`` natural draws, sorted by state count (ties
    by repr), so that picking one diagram from each run of ``POOL_FACTOR``
    neighbours gives every seed nearly the same total work.
    """
    rng = random.Random(POOL_SEED)
    pool = [[random_diagram(surface, rng) for _ in range(POOL_DRAWS)]
            for surface in ALL_SURFACES]
    for diagrams in pool:
        diagrams.sort(key=lambda d: (state_count(d), repr(d)))
    return pool


def random_selection(pool: list[list[Diagram]],
                     rng: random.Random) -> list[Diagram]:
    """Each surface's costliest diagram, and one diagram from each group of
    ``POOL_FACTOR`` cost neighbours among the rest.

    The costliest draws always run because their cost is far from their
    neighbours': the one on the disk takes over a tenth of a pass, so a seed
    that swapped it for its neighbour would move the pass time by more than
    the host's noise.
    """
    chosen = []
    for diagrams in pool:
        *rest, costliest = diagrams
        chosen.append(costliest)
        for start in range(0, len(rest), POOL_FACTOR):
            chosen.append(rng.choice(rest[start:start + POOL_FACTOR]))
    rng.shuffle(chosen)
    return chosen
