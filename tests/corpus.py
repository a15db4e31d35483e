"""The byte-identity corpus of the command line.

``corpus_inputs.json`` freezes the input files as text, one per name, and
``corpus_digests.json`` holds, per input, one SHA-256 digest over the exit
code, stdout and stderr of each of its :func:`commands`.
``test_corpus.py`` runs the commands again and names every input whose
digest changed.

The inputs:

* ``pool/...`` -- the 240 random diagrams of the benchmark pool
  (``bench/inputs.py``, ``random_pool``),
* ``kink/...`` -- a negative kink of every third of them,
* ``split/...`` -- loop diagrams, twists beside loops and unions of two or
  three crossing-connected components on all five surfaces,
* ``crosscap/...`` -- the crosscap shadow alone, with a loop and beside a
  twist: d o d fails (exit 1),
* ``bad/...`` -- input errors (exit 2),
* ``undrawable/...`` -- three inputs that no surface can draw but that no
  check refuses today.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/corpus.py --inputs    # freeze the inputs
    PYTHONPATH=src python tests/corpus.py             # record the digests

Each refuses to overwrite its file.  An intended output change removes
``corpus_digests.json`` and records it again, and names in ``CHANGES.md``
every input whose digest changed, and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import random
import sys
import tempfile

TESTS = pathlib.Path(__file__).resolve().parent
INPUTS = TESTS / "corpus_inputs.json"
DIGESTS = TESTS / "corpus_digests.json"

#: The commands of the corpus, the input file's path after the first word
#: (:func:`commands` picks those of each input).  ``verify --suite=all``
#: repeats the single suites and is left out.
COMMANDS = (
    ("homology",),
    ("homology", "--coefficients=Q"),
    ("homology", "--coefficients=Z2"),
    ("homology", "--aggregate"),
    ("euler",),
    ("bracket",),
    ("bracket", "--recursive"),
    ("verify", "--suite=d2"),
    ("verify", "--suite=euler"),
    ("verify", "--suite=reidemeister"),
    ("verify", "--suite=les"),
    ("verify", "--suite=duality"),
    ("moves", "--move=r1neg", "--site=e0:left"),
    ("moves", "--move=r1neg", "--site=l0:right"),
    ("moves", "--move=r2", "--site=l0,e0"),
)

#: The two costliest suites, about two thirds of the corpus's time.  They
#: run on every third pool diagram, the ones whose kinks are in the corpus,
#: and on every input that is not a pool diagram or a kink, so that the
#: corpus stays within about 10 s.  The Reidemeister suite of a pool
#: diagram checks the homology of its kink at ``e0:left`` too.
COSTLY = (("verify", "--suite=reidemeister"), ("verify", "--suite=les"))


def commands(name: str) -> tuple[tuple[str, ...], ...]:
    """The commands run on the input of this name."""
    group, _, number = name.partition("/")
    if group == "kink" or group == "pool" and int(number) % 3:
        return tuple(command for command in COMMANDS if command not in COSTLY)
    return COMMANDS


def write_input(path: pathlib.Path, text: str) -> None:
    """Write an input's text; lone surrogates stand for bytes that are not
    UTF-8, as ``surrogateescape`` decodes them."""
    path.write_bytes(text.encode("utf-8", "surrogateescape"))


def run(argv: list[str]) -> tuple[int, str, str]:
    """``bandkh.cli.main`` in-process: (exit code, stdout, stderr)."""
    from bandkh.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(path: pathlib.Path, name: str) -> str:
    """The digest of the exit code, stdout and stderr of each command of
    the input ``name`` on the input file at ``path``."""
    runs = [[list(command), *run([command[0], str(path), *command[1:]])]
            for command in commands(name)]
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


def digests(inputs: dict[str, str]) -> dict[str, str]:
    """Each input's digest, its text written to a scratch file first.  Equal
    texts under equal commands share one run: 26 pool diagrams repeat."""
    out: dict[str, str] = {}
    seen: dict[tuple, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.txt"
        for name, text in inputs.items():
            key = (text, commands(name))
            if key not in seen:
                write_input(path, text)
                seen[key] = digest(path, name)
            out[name] = seen[key]
    return out


def load_inputs() -> dict[str, str]:
    with open(INPUTS, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Building the inputs (once: the file freezes them)
# ---------------------------------------------------------------------------

BAD_INPUTS = {
    "empty": "",
    "no-surface": "loop : a\n",
    "unknown-surface": "surface torus\n",
    "projective-plane": "surface rp2\n",
    "negative-holes": "surface planar_holes -1\n",
    "bad-slot": "surface planar_holes 1\ncrossing x1\nedge x1.9 x1.1 :\n",
    "superscript-slot": "surface planar_holes 1\ncrossing x\nedge x.² x.1 :\n",
    "duplicate-crossing": "surface planar_holes 0\ncrossing x\ncrossing x\n"
                          "edge x.0 x.1 :\nedge x.2 x.3 :\n",
    "slot-used-twice": "surface planar_holes 0\ncrossing x\nedge x.0 x.1 :\n"
                       "edge x.1 x.2 :\nedge x.3 x.2 :\n",
    "unmatched-slots": "surface planar_holes 0\ncrossing x\ncrossing y\n"
                       "edge x.0 x.1 :\nedge x.2 x.3 :\n\n\n",
    "unknown-letter": "surface planar_holes 1\nloop : c\n",
    "unknown-declaration": "surface planar_holes 0\r# x\x0c y\rbogus\r",
    "not-utf8": "surface planar_holes 1\r\nloop : a\r# caf\udce9\n",
}

UNDRAWABLE = {
    "annulus-aa": "surface planar_holes 1\nloop : a a\n",
    "torus-a-b": "surface orientable 1 1\nloop : a\nloop : b\n",
    "moebius-two-cores": "surface moebius\nloop : a\nloop : a\n",
}


def build_inputs() -> dict[str, str]:
    """Every input of the corpus, as text."""
    sys.path.insert(0, str(TESTS.parent / "bench"))
    import inputs as bench_inputs
    from bandkh.diagram import apply_r1_neg
    from bandkh.textformat import emit_diagram
    from helpers import (ALL_SURFACES, DISK, crosscap_shadow, disjoint_union, loops_diagram,
                         random_diagram, surface_words, twist_pair, twist_params)

    out: dict[str, str] = {}
    pool = [d for diagrams in bench_inputs.random_pool() for d in diagrams]
    for n, d in enumerate(pool):
        out[f"pool/{n:03d}"] = emit_diagram(d)
    for n, d in enumerate(pool[::3]):
        site = ("edge", 0) if d.edges else ("loop", 0)
        out[f"kink/{3 * n:03d}"] = emit_diagram(apply_r1_neg(d, site, "left"))
    rng = random.Random(20261021)
    for name, surface in zip(("disk", "annulus", "pants", "torus", "moebius"), ALL_SURFACES):
        words = surface_words(surface)
        word, k = twist_params(surface)[-1]
        loops = loops_diagram(surface, *words)
        split = {
            "loops": loops,
            "twist-loops": twist_pair(surface, word, k, extra_loops=words),
            "trefoils": disjoint_union(twist_pair(surface, "", 3), twist_pair(surface, "", 3),
                                       rng=rng),
            "random-pair": disjoint_union(random_diagram(surface, rng, max_crossings=1),
                                          random_diagram(surface, rng, max_crossings=1),
                                          loops, rng=rng),
            "three": disjoint_union(twist_pair(surface, "", 2),
                                    random_diagram(surface, rng, max_crossings=1),
                                    twist_pair(surface, word, 1), rng=rng),
        }
        for key, d in split.items():
            out[f"split/{name}/{key}"] = emit_diagram(d)
    out["crosscap/alone"] = emit_diagram(crosscap_shadow())
    out["crosscap/loop"] = emit_diagram(crosscap_shadow(("",)))
    out["crosscap/twist"] = emit_diagram(disjoint_union(crosscap_shadow(), twist_pair(DISK, "", 2),
                                                        rng=random.Random(7)))
    out.update((f"bad/{name}", text) for name, text in BAD_INPUTS.items())
    out.update((f"undrawable/{name}", text) for name, text in UNDRAWABLE.items())
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--inputs", action="store_true",
                        help="freeze the inputs instead of recording the digests")
    args = parser.parse_args()
    path = INPUTS if args.inputs else DIGESTS
    if path.exists():
        print(f"error: {path.name} exists; remove it to record again", file=sys.stderr)
        return 2
    table = build_inputs() if args.inputs else digests(load_inputs())
    with open(path, "x", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0)
        handle.write("\n")
    print(f"recorded {len(table)} {'inputs' if args.inputs else 'digests'} in {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
