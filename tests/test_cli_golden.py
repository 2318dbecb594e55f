"""Exact CLI output and in-process reuse of the command-line parser.

The golden hashes are sha256 digests of stdout for pinned invocations, with
the exit code. Heat-trace and exercise output is left out: it prints floats
from libm, which may differ in the last digit between platforms.
"""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import make_fcc_torus, make_skew_dicosm
from platycosms import cli
from platycosms.cli import build_parser, main
from platycosms.euclid import (
    Isometry, Lattice, PlatycosmPresentation, presentation_to_json, preset,
)
from platycosms.linalg import mat, mat_mul, mat_vec, vec, vec_add, vec_sub

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

GOLDEN = [
    (("spectrum", "--space", "tetra", "--max-key", "6400"), 0,
     "c3803093e0de722f2b864e4afedf1eefa9f9f815810825322c69dff4e9e3c548"),
    (("spectrum", "--space", "tetra", "--max-key", "6400", "--format", "csv"), 0,
     "1b9c8aa2d34904de53243a23f055aa41690bb03c3a2cc67a7c897e03900dc334"),
    (("spectrum", "--space", "didi", "--max-key", "6400"), 0,
     "c3803093e0de722f2b864e4afedf1eefa9f9f815810825322c69dff4e9e3c548"),
    (("spectrum", "--space", "didi", "--max-key", "6400", "--format", "csv"), 0,
     "1b9c8aa2d34904de53243a23f055aa41690bb03c3a2cc67a7c897e03900dc334"),
    (("verify", "--left", "tetra", "--right", "didi", "--max-key", "400"), 0,
     "df90f62b5678a6aacd1c6304b010579ff7b61130f8ccf5f595e41c8142e3ea11"),
    (("verify", "--left", "tetra", "--right", "two_tall", "--max-key", "400"), 1,
     "655ce3e5b57f131e820c6e023fc28439fe198070d38288d2b545bf399fdfec49"),
    (("geodesics", "--space", "didi", "--max-length", "9/2"), 0,
     "d2bc2d6a9ed73cfa23b17869f34675e21c0a0bc4b4083661ad6ece73dc0079e8"),
    (("geodesics", "--space", "didi", "--max-length", "9/2", "--format", "csv"), 0,
     "12b5d15cea8ea1c822dff410d1d5bca2f3d8520c833d6f98702ba9c8f19527f7"),
    (("balance", "--left", "tetra", "--right", "didi", "--max-length", "9/2"), 0,
     "0fbaed4fd8159ef62c20239ce9389a7dc74f1e0c6a13f5c30c13f06a79801a6e"),
    (("balance", "--left", "tetra", "--right", "didi", "--max-length", "9/2",
      "--format", "csv"), 0,
     "29166066b1d7bca49d917699a15ee67d1332dadbc07f13c38036eceda6e19c50"),
]


def run(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN,
    ids=["-".join(a for a in argv if not a.startswith("--")) for argv, _, _ in GOLDEN],
)
def test_output_matches_golden_hash(capsys, argv, code, digest):
    got_code, out, err = run(capsys, argv)
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _moved(P: PlatycosmPresentation) -> PlatycosmPresentation:
    """P with its lattice on a unimodularly changed basis and its origin
    shifted by a rational vector s, (B, b) -> (B, b + s - B s): the same
    space, presented differently."""
    s = vec(Fraction(1, 3), Fraction(-1, 2), Fraction(1, 5))
    reps = tuple(
        Isometry(g.rot, vec_add(g.trans, vec_sub(s, mat_vec(g.rot, s))))
        for g in P.holonomy_reps
    )
    lattice = Lattice(mat_mul(mat([[1, 1, 0], [0, 1, 1], [1, 1, 1]]), P.lattice.basis))
    return PlatycosmPresentation(P.name, lattice, reps)


# {tetra} and {didi} stand for space files of the moved presets, and
# {fcc_torus} and {skew_dicosm} for spaces whose dual form is not diagonal
GOLDEN_FILES = [
    (("geodesics", "--space-file", "{tetra}", "--max-length", "9/2"), 0,
     "9f13ee3c5491da15c6214dccb29e836d24cd8a7f93143ea16f1ce5269ffb093b"),
    (("geodesics", "--space-file", "{didi}", "--max-length", "9/2"), 0,
     "70143fcce6a498eee831838178242c54bab9c8fc170ec1e666bed8889ef1d565"),
    (("balance", "--left-file", "{tetra}", "--right-file", "{didi}", "--max-length", "9/2"), 0,
     "8214cfd3d6a7598add0737d5f65aed7409fa8d110480429ca6f5d6fc0750a5d3"),
    (("spectrum", "--space-file", "{fcc_torus}", "--max-key", "300"), 0,
     "4fedc7e1aef7b2eeb297e1947a05d8cb4ae3b63162c0b483bf52d5870e9da0ab"),
    (("spectrum", "--space-file", "{skew_dicosm}", "--max-key", "300"), 0,
     "41be9c66a2f632850e0905c144fc113ea7e4db46988038260af7eaa74f755db0"),
]


@pytest.mark.parametrize(
    "argv, code, digest", GOLDEN_FILES,
    ids=["-".join(a.strip("{}") for a in argv if not a.startswith("--") and a != "9/2")
         for argv, _, _ in GOLDEN_FILES],
)
def test_space_file_output_matches_golden_hash(tmp_path, capsys, argv, code, digest):
    spaces = {
        "tetra": _moved(preset("tetra")),
        "didi": _moved(preset("didi")),
        "fcc_torus": make_fcc_torus(),
        "skew_dicosm": make_skew_dicosm(),
    }
    paths = {}
    for name, space in spaces.items():
        # the file name is printed as the space label
        paths[name] = tmp_path / f"{name}_moved.json"
        paths[name].write_text(json.dumps(presentation_to_json(space)))
    got_code, out, err = run(capsys, [a.format(**paths) for a in argv])
    assert (got_code, err) == (code, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


REPEATED = [
    ("balance", "--left", "tetra", "--right", "didi", "--max-length", "9/2", "--format", "csv"),
    ("spectrum", "--space", "tetra", "--max-key", "20"),
    ("geodesics", "--space", "no_such_space", "--max-length", "1"),  # exit 2, stderr
]


@pytest.mark.parametrize("argv", REPEATED, ids=lambda a: a[0])
def test_repeated_call_is_byte_identical(capsys, argv):
    first = run(capsys, argv)
    assert first == run(capsys, argv)


def test_usage_error_and_help_do_not_change_later_calls(capsys):
    argv = ("spectrum", "--space", "tetra", "--max-key", "20")
    before = run(capsys, argv)
    # options that argv leaves at their defaults are set by this call
    assert run(capsys, ("spectrum", "--circle", "1/2", "--max-key", "20", "--format", "csv"))[0] == 0
    with pytest.raises(SystemExit) as usage:
        main(["spectrum", "--space", "didi", "--max-key", "not-a-number"])
    assert usage.value.code == 2
    with pytest.raises(SystemExit) as usage:
        main(["balance", "--left", "tetra"])
    assert usage.value.code == 2
    with pytest.raises(SystemExit) as helped:
        main(["spectrum", "--help"])
    assert helped.value.code == 0
    capsys.readouterr()
    assert run(capsys, argv) == before
    assert vars(cli._parser.parse_args(list(argv))) == vars(build_parser().parse_args(list(argv)))


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    run(capsys, ("spectrum", "--space", "tetra", "--max-key", "4"))
    run(capsys, ("spectrum", "--space", "didi", "--max-key", "4"))
    assert len(built) == 1


def test_import_does_not_build_the_parser():
    # any ArgumentParser built during the import would raise
    code = (
        "import argparse\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('parser built at import')\n"
        "argparse.ArgumentParser.__init__ = refuse\n"
        "import platycosms.cli\n"
        "assert platycosms.cli._parser is None\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
