import gc
import itertools
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import bandkh
import dense_oracle
from bandkh import cli, state_complex
from bandkh.chainmaps import ChainMapError
from bandkh.cli import _find_r3_sites, main
from bandkh.diagram import R3Site, SiteError, apply_r3, mirror, validate_r3_site
from bandkh.homology import HomologyError, homology, table_isomorphic
from bandkh.skein import SkeinError
from bandkh.state_complex import GradedComplex
from bandkh.surface import UnsupportedSurfaceError
from bandkh.textformat import ParseError, emit_diagram, load_diagram, parse_diagram

from helpers import (
    ALL_SURFACES,
    DISK,
    MOEBIUS,
    PANTS,
    crosscap_shadow,
    disjoint_union,
    loops_diagram,
    random_diagram,
    triangle_closure,
    twist_pair,
)

LOOP_A = """\
surface planar_holes 1
loop : a
"""

TWO_CROSSING = """\
surface planar_holes 2   # pair of pants
crossing x1
crossing x2
edge x1.0 x2.1 : a b'
edge x1.1 x2.0 :
edge x1.2 x2.3 : b
edge x1.3 x2.2 :
loop : a
"""


def test_parse_example_file():
    d = parse_diagram(TWO_CROSSING)
    assert d.crossings == ("x1", "x2")
    assert d.edges[0].word == (("a", 1), ("b", -1))
    assert d.loops == ((("a", 1),),)


def test_roundtrip_parse_emit():
    rng = random.Random(50)
    for surface in ALL_SURFACES:
        d = random_diagram(surface, rng, max_crossings=4)
        assert parse_diagram(emit_diagram(d)) == d
    d = parse_diagram(TWO_CROSSING)
    assert parse_diagram(emit_diagram(d)) == d
    # emit . parse is the identity on canonical files
    assert emit_diagram(parse_diagram(LOOP_A)) == LOOP_A


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_diagram("surface planar_holes 1\nedge x1.0 x1.1 :\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        parse_diagram("loop : a\n")  # surface missing
    with pytest.raises(ParseError) as err:
        parse_diagram("surface planar_holes 1\ncrossing x1\nedge x1.9 x1.1 :\n")
    assert "slot" in str(err.value)


def test_unsupported_surfaces_refused():
    """Refused by type, with the line number every other bad input gets."""
    with pytest.raises(UnsupportedSurfaceError) as err:
        parse_diagram("surface rp2\n")
    assert "projective" in str(err.value)
    assert str(err.value).startswith("line 1: ")
    with pytest.raises(UnsupportedSurfaceError, match=r"^line 3: "):
        parse_diagram("# closed surfaces are refused\n\nsurface torus\n")


def run_cli(tmp_path, content, *args, capsys=None):
    path = tmp_path / "d.txt"
    path.write_text(content)
    return main([args[0], str(path), *args[1:]])


def test_cli_homology_loop_a(tmp_path, capsys):
    code = run_cli(tmp_path, LOOP_A, "homology")
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines() == ["0\t0\ta:-1\t1\t-", "0\t0\ta:+1\t1\t-"]


def test_cli_homology_aggregate(tmp_path, capsys):
    code = run_cli(tmp_path, LOOP_A, "homology", "--aggregate")
    assert code == 0
    assert capsys.readouterr().out == "0\t0\t2\t-\n"


def test_cli_bracket_and_euler(tmp_path, capsys):
    assert run_cli(tmp_path, LOOP_A, "bracket") == 0
    assert capsys.readouterr().out == "(a)^1 ; 1*A^0\n"
    assert run_cli(tmp_path, LOOP_A, "bracket", "--recursive") == 0
    assert capsys.readouterr().out == "(a)^1 ; 1*A^0\n"
    assert run_cli(tmp_path, LOOP_A, "euler") == 0
    out = capsys.readouterr().out
    assert "a:+1\t1*A^0" in out


def test_cli_parser_is_built_once_and_reused(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--coefficients=R", "d.txt"])
    assert exc.value.code == 2
    capsys.readouterr()
    outs = []
    for _ in range(2):
        assert run_cli(tmp_path, TWO_CROSSING, "homology", "--coefficients=Q") == 0
        outs.append(capsys.readouterr().out.encode())
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("args", [
    ("homology",), ("homology", "--coefficients=Q"), ("bracket",),
    ("bracket", "--recursive"), ("euler",), ("verify", "--suite=all")])
def test_cli_main_after_the_first_leaves_no_cycles(tmp_path, args):
    """Only the first ``main`` call builds the parser, and with it argparse's
    cyclic formatter objects: a later call leaves nothing for the cycle
    collector, so its peak heap does not depend on when the collector ran."""
    assert run_cli(tmp_path, TWO_CROSSING, *args) == 0
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.garbage.clear()
        assert run_cli(tmp_path, TWO_CROSSING, *args) == 0
        gc.collect()
        cyclic = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert cyclic == []


def test_package_import_leaves_the_cli_unloaded():
    """``import bandkh`` loads neither argparse, the CLI nor the chain maps,
    so ``python -m bandkh.cli`` runs without runpy's RuntimeWarning about a
    module found in sys.modules before its execution."""
    src = os.path.dirname(os.path.dirname(bandkh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys, bandkh; print(sorted(m for m in sys.modules if m in "
             "('argparse', 'bandkh.cli', 'bandkh.chainmaps')))")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (0, "[]\n"), run.stderr
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                          "bandkh.cli", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: bandkh") and not run.stderr


def test_split_diagram_output_does_not_depend_on_the_hash_seed(tmp_path, capsys):
    """A split diagram's tables are lifted off dictionaries keyed by
    ``GradingS`` objects, which hash by identity: ``python -m bandkh.cli``
    prints the same bytes under PYTHONHASHSEED 0 and 1 as ``main`` does
    in-process, for homology over Z and Z/2, euler and verify --suite=d2,
    on two twists with Z/2 torsion side by side and on a Moebius-band
    diagram with free loops."""
    src = os.path.dirname(os.path.dirname(bandkh.__file__))
    diagrams = [disjoint_union(twist_pair(PANTS, "a", 3), twist_pair(PANTS, "", 3),
                               rng=random.Random(5)),
                disjoint_union(twist_pair(MOEBIUS, "a", 2),
                               loops_diagram(MOEBIUS, "a", "a a", ""), rng=random.Random(6))]
    commands = [["homology"], ["homology", "--coefficients=Z2"], ["euler"],
                ["verify", "--suite=d2"]]
    outputs = []
    for n, d in enumerate(diagrams):
        path = tmp_path / f"d{n}.txt"
        path.write_text(emit_diagram(d))
        for command in commands:
            argv = [command[0], str(path), *command[1:]]
            code = main(argv)
            want = (code, *capsys.readouterr())
            assert code == 0 and want[1]
            outputs.append(want[1])
            for seed in ("0", "1"):
                env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                    filter(None, (src, os.environ.get("PYTHONPATH")))))
                run = subprocess.run([sys.executable, "-m", "bandkh.cli", *argv], env=env,
                                     capture_output=True, text=True, timeout=60)
                assert (run.returncode, run.stdout, run.stderr) == want, (seed, argv)
    assert any(line.split("\t")[-1] != "-" for line in outputs[0].splitlines())  # torsion


def test_cli_verify_all_passes(tmp_path, capsys):
    code = run_cli(tmp_path, TWO_CROSSING, "verify", "--suite=all")
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "PASS d2" in out and "PASS les" in out and "PASS duality" in out


def test_verify_all_computes_d_squared_once_per_complex(tmp_path, capsys,
                                                      monkeypatch):
    """The d o d products run once per complex, however many suites read
    the verdict: each stored block of d is the right factor of at most one
    state_complex._mat_mul call under verify --suite=all."""
    factors = []
    real = state_complex._mat_mul

    def mat_mul(a, b):
        factors.append(b)  # kept alive, so ids are not reused
        return real(a, b)

    monkeypatch.setattr(state_complex, "_mat_mul", mat_mul)
    assert run_cli(tmp_path, TWO_CROSSING, "verify", "--suite=all") == 0
    assert "FAIL" not in capsys.readouterr().out
    assert factors
    assert len(factors) == len({id(b) for b in factors})


def test_verify_les_builds_the_unfrozen_complex_once(tmp_path, capsys,
                                                    monkeypatch):
    """verify --suite=les hands the diagram's complex to every crossing's
    skein triple: a 4-crossing diagram builds it once and two frozen
    complexes per crossing, 9 in all."""
    built = []
    real = GradedComplex.__init__

    def init(self, diagram, frozen=None, **kwargs):
        built.append(dict(frozen or {}))
        real(self, diagram, frozen, **kwargs)

    monkeypatch.setattr(GradedComplex, "__init__", init)
    path = tmp_path / "d.txt"
    path.write_text(emit_diagram(twist_pair(PANTS, "a", 4)))
    assert main(["verify", "--suite=les", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(built) == 9 and built.count({}) == 1


@pytest.mark.parametrize("suite", ["duality", "all"])
def test_verify_builds_the_unfrozen_complex_of_the_input_once(tmp_path, capsys,
                                                              monkeypatch, suite):
    """verify hands its complex of the diagram to the duality suite, which
    builds only the mirror's: one unfrozen complex of the input, whatever
    the suites."""
    built = []
    real = GradedComplex.__init__

    def init(self, diagram, frozen=None, **kwargs):
        built.append((diagram, dict(frozen or {})))
        real(self, diagram, frozen, **kwargs)

    monkeypatch.setattr(GradedComplex, "__init__", init)
    d = twist_pair(PANTS, "a", 4)
    path = tmp_path / "d.txt"
    path.write_text(emit_diagram(d))
    assert main(["verify", f"--suite={suite}", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert built.count((d, {})) == 1
    assert built.count((mirror(d), {})) == 1


def test_verify_les_smooths_each_marker_vector_once(tmp_path, capsys, monkeypatch):
    """The frozen complexes of every skein triple share the smoothings of
    the unfrozen one: a 4-crossing diagram is smoothed at each of its 16
    marker vectors exactly once."""
    seen = []
    real = state_complex.smooth
    monkeypatch.setattr(state_complex, "smooth",
                        lambda diagram, markers: seen.append(markers) or real(diagram, markers))
    path = tmp_path / "d.txt"
    path.write_text(emit_diagram(twist_pair(PANTS, "a", 4)))
    assert main(["verify", "--suite=les", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert sorted(seen) == sorted(itertools.product((1, -1), repeat=4))


def test_cli_verify_catches_non_embeddable_input(tmp_path, capsys):
    bad = """\
surface planar_holes 0
crossing v
crossing w
edge w.2 v.0 :
edge w.1 v.1 :
edge v.2 w.3 :
edge v.3 w.0 :
"""
    code = run_cli(tmp_path, bad, "verify", "--suite=d2")
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL d2" in out


def test_cli_verify_les_reports_d_squared_on_non_embeddable_input(tmp_path, capsys,
                                                                  monkeypatch):
    """On an undrawable diagram verify --suite=les fails every crossing with
    the d o d block that fails, and builds no skein triple."""
    monkeypatch.setattr(cli, "skein_triple", lambda *args: pytest.fail("rank work ran"))
    code = run_cli(tmp_path, emit_diagram(crosscap_shadow()), "verify", "--suite=les")
    cause = ("  differential does not square to zero in block (j=0,s=0); "
             "the diagram is not drawable on the declared surface\n")
    assert code == 1
    assert capsys.readouterr().out == \
        f"FAIL les (crossing=v)\n{cause}FAIL les (crossing=w)\n{cause}"


def test_cli_verify_all_reports_d_squared_in_every_suite(tmp_path, capsys):
    """On an undrawable diagram verify --suite=all runs every suite: each
    one after d2 fails on the d o d verdict, and nothing is printed as an
    error."""
    code = run_cli(tmp_path, emit_diagram(crosscap_shadow()), "verify", "--suite=all")
    cause = ("  differential does not square to zero in block (j=0,s=0); "
             "the diagram is not drawable on the declared surface")
    out, err = capsys.readouterr()
    assert code == 1 and not err
    assert out.splitlines() == [
        "PASS d2 (j=-4,s=0)", "PASS d2 (j=-2,s=0)", "FAIL d2 (j=0,s=0)",
        "PASS d2 (j=2,s=0)", "PASS d2 (j=4,s=0)",
        "FAIL euler (differential does not square to zero)",
        "FAIL reidemeister (differential does not square to zero)",
        "FAIL les (crossing=v)", cause, "FAIL les (crossing=w)", cause,
        "FAIL duality (differential does not square to zero)"]


@pytest.mark.parametrize("suite", ["reidemeister", "duality"])
def test_cli_verify_suite_reports_d_squared(tmp_path, capsys, suite):
    code = run_cli(tmp_path, emit_diagram(crosscap_shadow()), "verify", f"--suite={suite}")
    assert code == 1
    assert capsys.readouterr() == (
        f"FAIL {suite} (differential does not square to zero)\n", "")


def test_cli_homology_rejects_non_embeddable_input(tmp_path, capsys):
    bad = """\
surface planar_holes 0
crossing v
crossing w
edge w.2 v.0 :
edge w.1 v.1 :
edge v.2 w.3 :
edge v.3 w.0 :
"""
    code = run_cli(tmp_path, bad, "homology")
    assert code == 1
    assert "square" in capsys.readouterr().err


@pytest.mark.parametrize("k", [1, 3])
def test_cli_d2_and_homology_fail_on_the_crosscap_shadow_beside_a_twist(tmp_path, capsys, k):
    """A split diagram with an undrawable component: verify --suite=d2
    prints each (j, s) verdict, and homology the first failing block, that
    the dense oracle finds on the fully enumerated complex."""
    d = disjoint_union(twist_pair(DISK, "", k), crosscap_shadow(("",)), rng=random.Random(k))
    verdicts = dense_oracle.d_squared_blocks(GradedComplex(d))
    assert run_cli(tmp_path, emit_diagram(d), "verify", "--suite=d2") == 1
    assert capsys.readouterr() == ("".join(
        f"{'PASS' if ok else 'FAIL'} d2 (j={j},s={s.text})\n" for (j, s), ok in verdicts.items()),
        "")
    j, s = next(block for block, ok in verdicts.items() if not ok)
    assert run_cli(tmp_path, emit_diagram(d), "homology") == 1
    assert capsys.readouterr() == ("", (
        f"error: differential does not square to zero in block (j={j},s={s.text}); "
        "the diagram is not drawable on the declared surface\n"))


def test_cli_parse_error_exit_code(tmp_path, capsys):
    code = run_cli(tmp_path, "surface planar_holes 1\nedge x1.0 x1.1 :\n", "homology")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_moves_roundtrip(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text(LOOP_A)
    out_path = tmp_path / "moved.txt"
    assert main(["moves", str(path), "--move=r1neg", "--site=l0:left",
                 f"--out={out_path}"]) == 0
    moved = parse_diagram(out_path.read_text())
    assert moved.n_crossings == 1
    # homology of the moved file matches the shift
    assert main(["homology", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["-1\t-3\ta:-1\t1\t-", "-1\t-3\ta:+1\t1\t-"]


def test_cli_moves_r2_and_r3(tmp_path, capsys):
    content = "surface planar_holes 1\nloop : a\nloop :\n"
    path = tmp_path / "d.txt"
    path.write_text(content)
    assert main(["moves", str(path), "--move=r2", "--site=l1,l0"]) == 0
    moved = parse_diagram(capsys.readouterr().out)
    assert moved.n_crossings == 2

    d, site = triangle_closure(DISK, 0)
    path.write_text(emit_diagram(d))
    assert main(["moves", str(path), "--move=r3",
                 f"--site={site.p},{site.v},{site.w},{site.e_a},{site.e_vp},{site.e_wp}"]) == 0
    moved = parse_diagram(capsys.readouterr().out)
    assert moved.crossings == ("p", "w", "v")


def test_cli_moves_bad_site(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_text(LOOP_A)
    assert main(["moves", str(path), "--move=r1neg", "--site=e5"]) == 2
    assert main(["moves", str(path), "--move=r1neg", "--site=e\u00b2"]) == 2


def test_cli_moves_r3_non_integer_edge(tmp_path, capsys):
    d, _site = triangle_closure(DISK, 0)
    path = tmp_path / "d.txt"
    path.write_text(emit_diagram(d))
    assert main(["moves", str(path), "--move=r3", "--site=t1,t2,t3,x,1,2"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_non_utf8_file_names_its_line(tmp_path, capsys):
    path = tmp_path / "d.txt"
    path.write_bytes(b"surface planar_holes 1\nloop : a\n# caf\xe9\n")
    assert main(["homology", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3:")
    assert "UTF-8" in err
    path.write_bytes(b"surface planar_holes 1\rloop : a\r\n# caf\xe9\n")
    assert main(["homology", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 3:")


@pytest.mark.parametrize("command, runner, error", [
    ("homology", "run_homology", HomologyError),
    ("verify", "run_verify", ChainMapError),
    ("bracket", "run_bracket", SkeinError)])
def test_cli_library_errors_exit_2(tmp_path, capsys, monkeypatch, command,
                                   runner, error):
    def fail(*_args):
        raise error("no such group")

    monkeypatch.setattr(cli, runner, fail)
    assert run_cli(tmp_path, LOOP_A, command) == 2
    assert capsys.readouterr().err == "error: no such group\n"


def test_cli_verify_triangle_runs_r3(tmp_path, capsys):
    d, _site = triangle_closure(DISK, 4)
    path = tmp_path / "d.txt"
    path.write_text(emit_diagram(d))
    assert main(["verify", str(path), "--suite=reidemeister"]) == 0
    out = capsys.readouterr().out
    assert "PASS r3" in out and "PASS r1neg" in out


# ---------------------------------------------------------------------------
# Parser robustness
# ---------------------------------------------------------------------------

DUPLICATE_ID = """\
surface planar_holes 0
crossing x
crossing x
edge x.0 x.1 :
edge x.2 x.3 :
"""

_SLOT_REFS = st.sampled_from(["x.0", "x.1", "x.2", "x.3", "y.0", "y.2", "x.4",
                              "x.\u00b2", "z.1", "x", ".1"])
_WORDS = st.sampled_from(["", "a", "b'", "a b", "c", "a''", "'"])
_LINES = st.one_of(
    st.sampled_from(["surface planar_holes 1", "surface orientable 1 1",
                     "surface moebius", "surface rp2", "surface planar_holes -1",
                     "surface"]),
    st.builds("crossing {}".format, st.sampled_from(["x", "y", "x y", ""])),
    st.builds("edge {} {} : {}".format, _SLOT_REFS, _SLOT_REFS, _WORDS),
    st.builds("loop : {}".format, _WORDS),
    st.text(max_size=10))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.lists(_LINES, max_size=12).map("\n".join)))
@example("surface planar_holes 1\ncrossing x\nedge x.\u00b2 x.1 :\n")
@example(DUPLICATE_ID)
def test_parse_raises_only_input_errors(text):
    try:
        parse_diagram(text)
    except (ParseError, UnsupportedSurfaceError):
        pass


_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(), st.builds(
    lambda lines, sep: sep.join(lines).encode(),
    st.lists(_LINES, max_size=12), _BREAKS)))
@example(b"surface planar_holes 1\r\nloop : a\r# caf\xe9\n")
def test_load_raises_only_input_errors(data):
    handle, path = tempfile.mkstemp()
    try:
        with os.fdopen(handle, "wb") as out:
            out.write(data)
        load_diagram(path)
    except (ParseError, UnsupportedSurfaceError):
        pass
    finally:
        os.unlink(path)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from(ALL_SURFACES))
def test_emit_parse_roundtrip(seed, surface):
    d = random_diagram(surface, random.Random(seed), max_crossings=4)
    text = emit_diagram(d)
    assert parse_diagram(text) == d
    assert emit_diagram(parse_diagram(text)) == text


def test_parse_errors_name_the_offending_line():
    with pytest.raises(ParseError, match=r"^line 3: duplicate crossing id 'x'"):
        parse_diagram(DUPLICATE_ID)
    reused = "surface planar_holes 0\ncrossing x\nedge x.0 x.1 :\nedge x.1 x.2 :\n" \
             "edge x.3 x.2 :\n"
    with pytest.raises(ParseError, match=r"^line 4: slot 'x.1' used by more"):
        parse_diagram(reused)
    unmatched = "surface planar_holes 0\ncrossing x\ncrossing y\nedge x.0 x.1 :\n" \
                "edge x.2 x.3 :\n\n\n"
    with pytest.raises(ParseError, match=r"^line 3: unmatched crossing slots: "
                                         r"\[\('y', 0\), \('y', 1\)"):
        parse_diagram(unmatched)
    # A form feed, NEL or U+2028 inside a comment ends neither the comment
    # nor the line; \r and \r\n do end a line.
    commented = "surface planar_holes 0\n# note\x0c here\x85 and\u2028 there\nloop :"
    assert parse_diagram(commented).loops == ((),)
    with pytest.raises(ParseError, match=r"^line 4: unknown declaration 'bogus'"):
        parse_diagram(commented + "\r\nbogus\n")
    with pytest.raises(ParseError, match=r"^line 3: unknown declaration 'bogus'"):
        parse_diagram("surface planar_holes 0\r# x\x0c y\rbogus\r")


def test_cli_superscript_slot_exits_2(tmp_path, capsys):
    """A slot is exactly one ASCII digit from 0 to 3: a superscript two, a
    leading zero and an Arabic-Indic three are refused, not read as slots."""
    for slot in ("\u00b2", "01", "\u0663"):
        text = f"surface planar_holes 1\ncrossing x\nedge x.{slot} x.0 :\n"
        assert run_cli(tmp_path, text, "homology") == 2
        assert capsys.readouterr().err.startswith(
            f"error: line 3: bad slot reference 'x.{slot}'")


# ---------------------------------------------------------------------------
# Cyclic triangles are not R3 sites
# ---------------------------------------------------------------------------

def _slot_parities(d, site):
    """(beta_v, gamma_w, xi) mod 2, read off the edges directly."""
    def slot(k, crossing):
        e = d.edges[k]
        return (e.a[1] if e.a[0] == crossing else e.b[1]) % 2
    return slot(site.e_a, site.v), slot(site.e_a, site.w), slot(site.e_vp, site.p)


def _cyclic_sites(d):
    out = []
    for p, v, w in itertools.permutations(d.crossings, 3):
        for edges in itertools.product(range(len(d.edges)), repeat=3):
            site = R3Site(p, v, w, *edges)
            try:
                validate_r3_site(d, site)
            except SiteError as exc:
                if "cyclic" in str(exc):
                    out.append(site)
    return out


@pytest.mark.parametrize("index", [2, 9, 28, 30])
def test_r3_refuses_cyclic_triangles(tmp_path, capsys, index):
    """Diagrams of the seed-2024 acceptance suite whose only triangles are
    cyclic (slot parities (1, 0, 1); their mirrors give (0, 1, 0))."""
    rng = random.Random(2024)
    suite50 = [random_diagram(surface, rng, max_crossings=4)
               for surface in ALL_SURFACES for _ in range(10)]
    base = suite50[index]
    for d, parity in ((base, (1, 0, 1)), (mirror(base), (0, 1, 0))):
        cyclic = _cyclic_sites(d)
        assert cyclic and {_slot_parities(d, c) for c in cyclic} == {parity}
        assert not set(_find_r3_sites(d, 100)) & set(cyclic)
        site = cyclic[0]
        path = tmp_path / "d.txt"
        path.write_text(emit_diagram(d))
        assert main(["moves", str(path), "--move=r3",
                     f"--site={site.p},{site.v},{site.w},"
                     f"{site.e_a},{site.e_vp},{site.e_wp}"]) == 2
        assert "cyclic triangle" in capsys.readouterr().err
        _assert_found_sites_keep_the_table(d)


def _assert_found_sites_keep_the_table(d):
    table = homology(GradedComplex(d))
    for site in _find_r3_sites(d, 100):
        assert _slot_parities(d, site) not in ((1, 0, 1), (0, 1, 0))
        assert table_isomorphic(table, homology(GradedComplex(apply_r3(d, site))))


def test_found_r3_sites_keep_the_table():
    for closure in range(5):
        for b_over in (True, False):
            d, site = triangle_closure(DISK, closure, b_over=b_over)
            assert site in _find_r3_sites(d, 100)
            _assert_found_sites_keep_the_table(d)
            _assert_found_sites_keep_the_table(mirror(d))
