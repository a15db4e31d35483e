"""CLI output on the committed corpus stays byte-identical (``corpus.py``)."""

import json
import os
import subprocess
import sys

import pytest

import bandkh
import corpus


@pytest.fixture(scope="module")
def inputs():
    return corpus.load_inputs()


def test_cli_output_matches_the_recorded_corpus(inputs):
    """Every command's exit code, stdout and stderr on every input digest to
    what was recorded; a mismatch names the inputs."""
    with open(corpus.DIGESTS, encoding="utf-8") as handle:
        want = json.load(handle)
    assert list(want) == list(inputs)
    got = corpus.digests(inputs)
    changed = [name for name in inputs if got[name] != want[name]]
    assert not changed, f"CLI output changed on {len(changed)} corpus inputs: {changed}"


@pytest.mark.parametrize("group, code", [("bad/", 2), ("crosscap/", 1), ("undrawable/", 0)])
def test_corpus_inputs_exit_as_their_group_says(inputs, tmp_path, group, code):
    """Input errors exit 2, the crosscap shadow fails d o d (exit 1), and
    the undrawable inputs are not refused yet (exit 0), under ``homology``."""
    path = tmp_path / "input.txt"
    names = [name for name in inputs if name.startswith(group)]
    assert names
    for name in names:
        corpus.write_input(path, inputs[name])
        assert corpus.run(["homology", str(path)])[0] == code, name


#: Inputs and commands run as ``python -m bandkh.cli`` under two hash seeds:
#: a split diagram with Z/2 torsion, a kink, the crosscap shadow beside a
#: twist and a bad input.
SUBPROCESS_RUNS = (
    ("split/pants/trefoils", ("homology", "--coefficients=Z2")),
    ("kink/003", ("euler",)),
    ("crosscap/twist", ("verify", "--suite=d2")),
    ("bad/not-utf8", ("homology",)),
)


def test_corpus_output_does_not_depend_on_the_hash_seed(inputs, tmp_path):
    """A handful of the corpus commands print, as ``python -m bandkh.cli``
    under PYTHONHASHSEED 0 and 1, what ``main`` prints in-process."""
    src = os.path.dirname(os.path.dirname(bandkh.__file__))
    for n, (name, command) in enumerate(SUBPROCESS_RUNS):
        path = tmp_path / f"input{n}.txt"
        corpus.write_input(path, inputs[name])
        argv = [command[0], str(path), *command[1:]]
        want = corpus.run(argv)
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                filter(None, (src, os.environ.get("PYTHONPATH")))))
            run = subprocess.run([sys.executable, "-m", "bandkh.cli", *argv], env=env,
                                 capture_output=True, text=True, timeout=60)
            assert (run.returncode, run.stdout, run.stderr) == want, (name, seed)
