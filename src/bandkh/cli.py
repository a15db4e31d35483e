"""Command-line front end.  Exit codes: 0 success, 1 verification failure,
2 input error.  The diagram text format is :mod:`bandkh.textformat`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .chainmaps import (
    ChainMapError,
    duality_check,
    long_exact_sequence_check,
    skein_triple,
)
from .diagram import (
    Diagram,
    DiagramError,
    R3Site,
    SiteError,
    apply_r1_neg,
    apply_r2,
    apply_r3,
    validate_r3_site,
)
from .homology import HomologyError, aggregate_handlebody, homology, table_isomorphic
from .skein import (
    LaurentPolyA,
    SkeinError,
    bracket_recursive,
    euler_characteristic,
    expansion_text,
    kauffman_bracket,
    phi_expand,
)
from .state_complex import ComplexError, GradedComplex
from .surface import CurveKind, SurfaceError, UnsupportedSurfaceError
# parse_diagram is bound here too, for callers of cli.parse_diagram.
from .textformat import ParseError, emit_diagram, load_diagram, parse_diagram


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_homology(diagram: Diagram, coefficients: str, aggregate: bool,
                 out) -> int:
    table = homology(GradedComplex(diagram), coefficients)
    if aggregate:
        combined = aggregate_handlebody(table)
        for (i, j) in sorted(combined, key=lambda k: (k[1], k[0])):
            g = combined[(i, j)]
            torsion = ",".join(str(t) for t in g.torsion) or "-"
            out.write(f"{i}\t{j}\t{g.rank}\t{torsion}\n")
    else:
        text = table.to_tsv()
        out.write(text + ("\n" if text else ""))
    return 0


def run_bracket(diagram: Diagram, recursive: bool, out) -> int:
    expansion = bracket_recursive(diagram) if recursive else kauffman_bracket(diagram)
    text = expansion_text(expansion)
    out.write(text + ("\n" if text else ""))
    return 0


def run_euler(diagram: Diagram, out) -> int:
    table = homology(GradedComplex(diagram))
    gradings = sorted({s for (_i, _j, s) in table.groups}, key=lambda s: s.sort_key)
    for s in gradings:
        out.write(f"{s.text}\t{euler_characteristic(table, s).text}\n")
    return 0


def _find_r3_sites(diagram: Diagram, limit: int = 2) -> list[R3Site]:
    sites = []
    ids = diagram.crossings
    plain = [k for k, e in enumerate(diagram.edges) if not e.word]
    for p in ids:
        for v in ids:
            for w in ids:
                if len({p, v, w}) != 3:
                    continue
                join = lambda x, y: [k for k in plain
                                     if {diagram.edges[k].a[0],
                                         diagram.edges[k].b[0]} == {x, y}]
                for e_a in join(v, w):
                    for e_vp in join(v, p):
                        for e_wp in join(w, p):
                            site = R3Site(p, v, w, e_a, e_vp, e_wp)
                            try:
                                validate_r3_site(diagram, site)
                            except SiteError:
                                continue
                            sites.append(site)
                            if len(sites) >= limit:
                                return sites
    return sites


def run_verify(diagram: Diagram, suites: list[str], out) -> int:
    failed = False

    def report(ok: bool, label: str, failures=()):
        nonlocal failed
        out.write(f"{'PASS' if ok else 'FAIL'} {label}\n")
        out.writelines(f"  {failure}\n" for failure in failures)
        failed = failed or not ok

    cx = GradedComplex(diagram)
    if "d2" in suites:
        for (j, s), ok in cx.d_squared_blocks().items():
            report(ok, f"d2 (j={j},s={s.text})")
    try:
        cx.check_d_squared()  # the other suites mean nothing unless d o d = 0
    except ComplexError as exc:
        for suite in suites:
            if suite == "les":
                for c in diagram.crossings:
                    report(False, f"les (crossing={c})", [str(exc)])
            elif suite != "d2":
                report(False, f"{suite} (differential does not square to zero)")
        return 1
    if "euler" in suites:
        table = homology(cx)
        q = phi_expand(bracket_recursive(diagram))
        gradings = sorted({s for (_, _, s) in table.groups} | set(q),
                          key=lambda s: s.sort_key)
        for s in gradings:
            ok = euler_characteristic(table, s) == q.get(s, LaurentPolyA.zero())
            report(ok, f"euler (s={s.text})")
    if "reidemeister" in suites:
        table = homology(cx)  # d's blocks are reduced once, in cx.factors()
        for kind, count in (("edge", len(diagram.edges)), ("loop", len(diagram.loops))):
            for k in range(count):
                moved = apply_r1_neg(diagram, (kind, k))
                ok = table_isomorphic(table, homology(GradedComplex(moved)), (-1, -3))
                report(ok, f"r1neg ({kind}={k})")
        trivial_loops = [k for k, c in enumerate(diagram.slot_tables.loops)
                         if c.kind is CurveKind.TRIVIAL]
        if diagram.edges and trivial_loops:
            moved = apply_r2(diagram, ("loop", trivial_loops[0]), ("edge", 0))
            ok = table_isomorphic(table, homology(GradedComplex(moved)), (0, 0))
            report(ok, f"r2 (loop={trivial_loops[0]},edge=0)")
        else:
            out.write("SKIP r2 (needs a trivial free loop and an edge)\n")
        sites = _find_r3_sites(diagram)
        if sites:
            for site in sites:
                moved = apply_r3(diagram, site)
                ok = table_isomorphic(table, homology(GradedComplex(moved)), (0, 0))
                report(ok, f"r3 (p={site.p},v={site.v},w={site.w})")
        else:
            out.write("SKIP r3 (no valid triangle site found)\n")
    if "les" in suites:
        for p in range(diagram.n_crossings):
            result = long_exact_sequence_check(skein_triple(diagram, p, cx))
            report(result.ok, f"les (crossing={diagram.crossings[p]})", result.failures)
        if diagram.n_crossings == 0:
            out.write("SKIP les (no crossings)\n")
    if "duality" in suites:
        result = duality_check(diagram, cx)
        report(result.ok, "duality", result.failures)
    return 1 if failed else 0


def _parse_move_site(token: str) -> tuple[str, int]:
    kind = {"e": "edge", "l": "loop"}.get(token[:1])
    if kind is None or not token[1:].isdecimal():
        raise SiteError(f"bad site token {token!r} (use e<k> or l<k>)")
    return (kind, int(token[1:]))


def run_moves(diagram: Diagram, move: str, site: str, out_path: str | None,
              out) -> int:
    if move == "r1neg":
        token, _, side = site.partition(":")
        moved = apply_r1_neg(diagram, _parse_move_site(token), side or "left")
    elif move == "r2":
        tokens = site.split(",")
        if len(tokens) != 2:
            raise SiteError("r2 needs --site=<strand>,<strand>")
        moved = apply_r2(diagram, _parse_move_site(tokens[0]),
                         _parse_move_site(tokens[1]))
    elif move == "r3":
        tokens = site.split(",")
        if len(tokens) != 6 or not all(t.isdecimal() for t in tokens[3:]):
            raise SiteError("r3 needs --site=p,v,w,<e_a>,<e_vp>,<e_wp> "
                            "with edge indices")
        moved = apply_r3(diagram, R3Site(*tokens[:3], *map(int, tokens[3:])))
    else:
        raise SiteError(f"unknown move {move!r}")
    text = emit_diagram(moved)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="bandkh",
        description="Khovanov-type homology of band-link diagrams on surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_hom = sub.add_parser("homology", help="print the (i, j, s) homology table")
    p_hom.add_argument("file")
    p_hom.add_argument("--coefficients", choices=("Z", "Q", "Z2"), default="Z")
    p_hom.add_argument("--aggregate", action="store_true",
                       help="sum over the s-grading")

    p_br = sub.add_parser("bracket", help="print the bracket expansion")
    p_br.add_argument("file")
    p_br.add_argument("--recursive", action="store_true",
                      help="use the recursive resolution instead of the state sum")

    p_eu = sub.add_parser("euler", help="print the A-graded Euler characteristics")
    p_eu.add_argument("file")

    p_ver = sub.add_parser("verify", help="run structural identity suites")
    p_ver.add_argument("file")
    p_ver.add_argument("--suite", default="all",
                       choices=("d2", "euler", "reidemeister", "les",
                                "duality", "all"))

    p_mv = sub.add_parser("moves", help="apply a Reidemeister move")
    p_mv.add_argument("file")
    p_mv.add_argument("--move", required=True, choices=("r1neg", "r2", "r3"))
    p_mv.add_argument("--site", required=True)
    p_mv.add_argument("--out", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        diagram = load_diagram(args.file)
        if args.command == "homology":
            return run_homology(diagram, args.coefficients, args.aggregate, out)
        if args.command == "bracket":
            return run_bracket(diagram, args.recursive, out)
        if args.command == "euler":
            return run_euler(diagram, out)
        if args.command == "verify":
            suites = (["d2", "euler", "reidemeister", "les", "duality"]
                      if args.suite == "all" else [args.suite])
            return run_verify(diagram, suites, out)
        if args.command == "moves":
            return run_moves(diagram, args.move, args.site, args.out, out)
        raise AssertionError(args.command)
    except (ParseError, UnsupportedSurfaceError, SurfaceError, DiagramError,
            SiteError, HomologyError, ChainMapError, SkeinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
