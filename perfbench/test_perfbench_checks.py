"""The benchmark's own tests: every oracle check passes on the package's
real output and fails when one multiplicity, one weight or one value is
planted wrong; the variant generator keeps the manifold; the command
refuses to run without the package source."""

import copy
import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracles  # noqa: E402
import variants  # noqa: E402
import workloads  # noqa: E402
import platycosms  # noqa: E402
from platycosms import (  # noqa: E402
    HeatTraceConfig,
    geometric_heat_trace,
    is_isospectral,
    presentation_from_json,
    preset,
    spectral_heat_trace,
    spectrum_table,
)
from platycosms import cli  # noqa: E402

HALF = Fraction(1, 2)


def test_closed_form_spectrum_catches_planted_multiplicity():
    expected = oracles.tetra_spectrum(300)
    entries = list(spectrum_table(preset("didi"), 300).entries)
    oracles.check_spectrum(entries, expected)
    planted = list(entries)
    key, mult = planted[40]
    planted[40] = (key, mult + 1)
    with pytest.raises(oracles.CheckFailed, match=f"key {key}"):
        oracles.check_spectrum(planted, expected)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_spectrum(entries[:-1], expected)


def _dicosm(kind: int = 0):
    return presentation_from_json(variants.variant("dicosm", kind, "dicosm", random.Random(kind)))


def test_dicosm_closed_form():
    oracles.check_spectrum(spectrum_table(_dicosm(), 300).entries,
                           oracles.dicosm_spectrum(300))


def test_verdict_check():
    tetra = oracles.tetra_spectrum(100)
    verdict = is_isospectral(preset("tetra"), preset("didi"), 100).to_json_dict()
    oracles.check_verdict(verdict, 100, tetra, tetra)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_verdict(dict(verdict, verdict="differs"), 100, tetra, tetra)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_verdict(verdict, 101, tetra, tetra)


def test_verdict_check_on_the_control_pair():
    tetra, dicosm = oracles.tetra_spectrum(100), oracles.dicosm_spectrum(100)
    verdict = is_isospectral(preset("tetra"), _dicosm(), 100).to_json_dict()
    oracles.check_verdict(verdict, 100, tetra, dicosm)
    assert verdict["verdict"] == "differs"
    # an "equal" that compared nothing, and a wrong first key or multiplicity
    equal = dict(verdict, verdict="equal", first_differing_key=None,
                 left_multiplicity=None, right_multiplicity=None)
    for planted in (equal, dict(verdict, first_differing_key=5),
                    dict(verdict, right_multiplicity=3)):
        with pytest.raises(oracles.CheckFailed):
            oracles.check_verdict(planted, 100, tetra, dicosm)


def test_verify_op_catches_a_verdict_that_compared_nothing(tmp_path, monkeypatch):
    workload = workloads.VerifyCold(3, str(tmp_path))
    workload.setup(platycosms)
    ops = workload.round_ops(0, 0)
    (control,) = [op for op in ops if op.label.startswith("dicosm")]
    control.check(control.run())
    monkeypatch.setattr(platycosms, "is_isospectral",
                        lambda P1, P2, K: platycosms.IsospectralVerdict(True, K))
    with pytest.raises(oracles.CheckFailed):
        control.check(control.run())


@pytest.mark.parametrize("kind", [0, 15])
def test_variants_keep_the_spectrum(kind):
    rng = random.Random(kind)
    for base, expected in (("tetra", oracles.tetra_spectrum(120)),
                           ("didi", oracles.tetra_spectrum(120)),
                           ("dicosm", oracles.dicosm_spectrum(120))):
        P = presentation_from_json(variants.variant(base, kind, f"{base}-v{kind}", rng))
        oracles.check_spectrum(spectrum_table(P, 120).entries, expected)


def _balance_doc(tmp_path, max_length: str):
    rng = random.Random(7)
    paths = []
    for base, kind in (("tetra", 13), ("didi", 6)):
        path = tmp_path / f"{base}.json"
        path.write_text(json.dumps(variants.variant(base, kind, base, rng)))
        paths.append(str(path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["balance", "--left-file", paths[0], "--right-file", paths[1],
                         "--max-length", max_length])
    assert code == 0
    return json.loads(out.getvalue())


def test_balance_check_catches_planted_weights(tmp_path):
    doc = _balance_doc(tmp_path, "1")
    oracles.check_balance(doc, Fraction(1), "tetra.json", "didi.json")

    def planted(edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        with pytest.raises(oracles.CheckFailed):
            oracles.check_balance(bad, Fraction(1), "tetra.json", "didi.json")

    def weight(d):
        d["rows"][1]["right"]["entries"][0]["w"] = "3"

    def total(d):
        d["rows"][1]["left"]["w_l"] = "3"
        d["rows"][1]["right"]["w_l"] = "3"

    def census(d):
        # weights and totals still agree; only the census differs
        d["rows"][0]["right"]["entries"] = [{"n": 2, "t": "1/4", "k": 1, "w": "4"}]

    def missing_row(d):
        del d["rows"][1]

    for edit in (weight, total, census, missing_row):
        planted(edit)


def test_expected_weight_closed_form():
    assert oracles.expected_weight(HALF) == 4
    assert oracles.expected_weight(Fraction(3, 2)) == Fraction(4, 3)
    assert oracles.expected_weight(Fraction(2)) == 0
    assert oracles.expected_weight(Fraction(4)) == 0
    with pytest.raises(oracles.CheckFailed):
        oracles.expected_weight(Fraction(1, 3))


def test_heat_check_catches_planted_values():
    t = 0.08
    cfg = HeatTraceConfig(t, 1e-10)
    sp = spectral_heat_trace(preset("tetra"), cfg)
    ge = geometric_heat_trace(preset("tetra"), cfg)
    oracle = oracles.oracle_heat_trace(t)
    spectral, geometric = (sp.value, sp.tail_bound), (ge.value, ge.tail_bound)
    oracles.check_heat(spectral, geometric, oracle)
    slack = 3 * (sp.tail_bound + ge.tail_bound)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_heat(spectral, (ge.value + slack, ge.tail_bound), oracle)
    with pytest.raises(oracles.CheckFailed):
        oracles.check_heat(spectral, geometric, oracle + slack)


def test_command_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
