import random

import pytest

from bandkh.cli import (
    ParseError,
    emit_diagram,
    main,
    parse_diagram,
)
from bandkh.surface import UnsupportedSurfaceError

from helpers import ALL_SURFACES, DISK, random_diagram, triangle_closure

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
    with pytest.raises(UnsupportedSurfaceError) as err:
        parse_diagram("surface rp2\n")
    assert "projective" in str(err.value)
    with pytest.raises(UnsupportedSurfaceError):
        parse_diagram("surface torus\n")


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


def test_cli_verify_all_passes(tmp_path, capsys):
    code = run_cli(tmp_path, TWO_CROSSING, "verify", "--suite=all")
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "PASS d2" in out and "PASS les" in out and "PASS duality" in out


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


def test_cli_verify_triangle_runs_r3(tmp_path, capsys):
    d, _site = triangle_closure(DISK, 4)
    path = tmp_path / "d.txt"
    path.write_text(emit_diagram(d))
    assert main(["verify", str(path), "--suite=reidemeister"]) == 0
    out = capsys.readouterr().out
    assert "PASS r3" in out and "PASS r1neg" in out
