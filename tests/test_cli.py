"""Command-line interface: dispatch, formats, exit codes, determinism."""

import json
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from conftest import swap_xz
from platycosms.cli import main
from platycosms.euclid import presentation_to_json, preset

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


# --- verify ---------------------------------------------------------------------


def test_verify_twins_equal(capsys):
    code, out, _ = run(capsys, "verify", "--left", "tetra", "--right", "didi",
                       "--max-key", "400")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "equal"
    validate(payload, "verify.schema.json")


def test_verify_mismatch_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--left", "tetra", "--right", "two_tall",
                       "--max-key", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "differs"
    assert payload["first_differing_key"] == 1
    assert payload["left_multiplicity"] == 0
    assert payload["right_multiplicity"] == 2
    validate(payload, "verify.schema.json")


def test_verify_csv(capsys):
    code, out, _ = run(capsys, "verify", "--left", "tetra", "--right", "didi",
                       "--max-key", "20", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("verdict,max_key")
    assert lines[1].startswith("equal,20,")


# --- balance ---------------------------------------------------------------------


def test_balance_csv_reproduces_weight_column(capsys):
    code, out, _ = run(capsys, "balance", "--left", "tetra", "--right", "didi",
                       "--max-length", "4.5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "l,space,n,t,k,w,w_l"
    totals = []
    seen = set()
    for line in lines[1:]:
        cells = line.split(",")
        if cells[1] == "tetra" and cells[0] not in seen:
            seen.add(cells[0])
            totals.append(cells[6])
    assert totals == ["4", "2", "4/3", "0", "4/5", "2/3", "4/7", "0", "4/9"]


def test_balance_json_schema(capsys):
    code, out, _ = run(capsys, "balance", "--left", "tetra", "--right", "didi",
                       "--max-length", "3/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["balanced"] is True
    validate(payload, "balance.schema.json")


def test_balance_imbalance_exits_one(capsys):
    code, out, _ = run(capsys, "balance", "--left", "tetra", "--right", "two_tall",
                       "--max-length", "1/2")
    assert code == 1
    assert json.loads(out)["balanced"] is False


# --- spectrum ---------------------------------------------------------------------


def test_spectrum_json_and_schema(capsys):
    code, out, _ = run(capsys, "spectrum", "--space", "tetra", "--max-key", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"max_key": 5, "entries": [[0, 1], [4, 1], [5, 2]]}
    validate(payload, "spectrum.schema.json")


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--space", "didi", "--max-key", "5",
                       "--format", "csv")
    assert code == 0
    assert out == "key,eigenvalue_over_pi2,multiplicity\n0,0,1\n4,4,1\n5,5,2\n"


def test_spectrum_unknown_preset_exits_two(capsys):
    code, out, err = run(capsys, "spectrum", "--space", "nosuch", "--max-key", "10")
    assert code == 2
    assert "valid presets" in err
    assert "tetra" in err


def test_spectrum_circle(capsys):
    code, out, _ = run(capsys, "spectrum", "--circle", "1/2", "--max-key", "16")
    assert code == 0
    assert json.loads(out) == {"max_key": 16, "entries": [[0, 1], [16, 2]]}


def test_spectrum_circle_bad_circumference_exits_two(capsys):
    code, _, err = run(capsys, "spectrum", "--circle", "3", "--max-key", "10")
    assert code == 2
    assert "circumference" in err


def test_spectrum_circle_excludes_space(capsys):
    code, _, err = run(capsys, "spectrum", "--circle", "2", "--space", "tetra",
                       "--max-key", "4")
    assert code == 2


def test_spectrum_space_file(tmp_path, capsys):
    doc = presentation_to_json(preset("tetra"))
    validate(doc, "space.schema.json")
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "spectrum", "--space-file", str(path),
                       "--max-key", "5")
    assert code == 0
    assert json.loads(out)["entries"] == [[0, 1], [4, 1], [5, 2]]


@pytest.mark.parametrize("name", ["tetra", "didi"])
def test_spectrum_of_x_long_conjugate_matches_preset(tmp_path, capsys, name):
    path = tmp_path / f"{name}_x_long.json"
    path.write_text(json.dumps(presentation_to_json(swap_xz(preset(name)))))
    code, out, _ = run(capsys, "spectrum", "--space-file", str(path),
                       "--max-key", "400")
    assert code == 0
    _, reference, _ = run(capsys, "spectrum", "--space", "tetra", "--max-key", "400")
    assert out == reference


def test_verify_x_long_conjugates_equal(tmp_path, capsys):
    paths = []
    for name in ("tetra", "didi"):
        path = tmp_path / f"{name}_x_long.json"
        path.write_text(json.dumps(presentation_to_json(swap_xz(preset(name)))))
        paths.append(str(path))
    code, out, _ = run(capsys, "verify", "--left-file", paths[0],
                       "--right-file", paths[1], "--max-key", "400")
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_spectrum_missing_space_exits_two(capsys):
    code, _, err = run(capsys, "spectrum", "--max-key", "5")
    assert code == 2


def test_spectrum_bad_space_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x"}')
    code, _, err = run(capsys, "spectrum", "--space-file", str(path),
                       "--max-key", "5")
    assert code == 2


# --- geodesics ---------------------------------------------------------------------


def test_geodesics_json_and_schema(capsys):
    code, out, _ = run(capsys, "geodesics", "--space", "didi",
                       "--max-length", "1")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "geodesics.schema.json")
    assert payload["classes"][0] == {
        "length": "1/2",
        "twist_over_pi": "1",
        "imprimitivity": 1,
        "count": 4,
        "weight": "4",
    }


def test_geodesics_csv(capsys):
    code, out, _ = run(capsys, "geodesics", "--space", "tetra",
                       "--max-length", "1/2", "--format", "csv")
    assert code == 0
    assert out == (
        "length,twist_over_pi,imprimitivity,count,weight\n1/2,1/2,1,2,4\n"
    )


# --- heat trace ----------------------------------------------------------------------


def test_heat_trace_json_and_schema(capsys):
    code, out, _ = run(capsys, "heat-trace", "--space", "two_tall",
                       "--t", "0.2", "--eps", "1e-8")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "heat_trace.schema.json")
    row = payload["rows"][0]
    assert row["abs_diff"] < 4e-8


def test_heat_trace_csv_grid(capsys):
    code, out, _ = run(capsys, "heat-trace", "--space", "tetra",
                       "--t-grid", "0.2,0.5", "--eps", "1e-8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,spectral,geometric,abs_diff,bound"
    assert len(lines) == 3


def test_heat_trace_rejects_both_time_flags(capsys):
    code, _, err = run(capsys, "heat-trace", "--space", "tetra",
                       "--t", "0.2", "--t-grid", "0.2,0.5")
    assert code == 2


# --- exercise ----------------------------------------------------------------------


def test_exercise_json_and_schema(capsys):
    code, out, _ = run(capsys, "exercise", "--t-grid", "0.1,1.0")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "exercise.schema.json")
    for row in payload["rows"]:
        assert abs(row["residual"]) < 5e-12


def test_exercise_csv(capsys):
    code, out, _ = run(capsys, "exercise", "--t", "0.5", "--format", "csv")
    assert code == 0
    assert out.startswith("t,lhs,rhs,residual,bound\n")


# --- global behaviour -----------------------------------------------------------------


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "balance", "--left", "tetra", "--right", "didi",
                      "--max-length", "9/2", "--format", "csv")
    _, second, _ = run(capsys, "balance", "--left", "tetra", "--right", "didi",
                       "--max-length", "9/2", "--format", "csv")
    assert first == second


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--space", "tetra", "--max-key", "4", "--frobnicate"])
    assert exc.value.code == 2


def test_subcommand_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("exercise", "--t", "inf"),
    ("exercise", "--t", "nan"),
    ("exercise", "--t", "1e-300"),
    ("heat-trace", "--space", "tetra", "--t", "inf"),
    ("heat-trace", "--space", "tetra", "--eps", "inf", "--t", "0.1"),
    ("heat-trace", "--space", "tetra", "--t", "1e-300"),
    ("heat-trace", "--space", "tetra", "--t", "1e300"),
    # pi^2 t overflows: the key-0 term would be a NaN
    ("exercise", "--t", "1e308"),
    ("exercise", "--t", "1e308", "--format", "csv"),
    ("heat-trace", "--space", "tetra", "--t", "1e308", "--format", "csv"),
], ids=" ".join)
def test_heat_times_out_of_reach_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("argv", [
    ("balance", "--left", "tetra", "--right", "didi", "--max-length", "1/0"),
    ("geodesics", "--space", "tetra", "--max-length", "1/0"),
    ("spectrum", "--circle", "1/0", "--max-key", "4"),
], ids=" ".join)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err and "invalid _positive_fraction value" in err


def test_class_enumeration_budget_exit_2(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "balance", "--left", "tetra", "--right", "didi",
                         "--max-length", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_geodesics_beyond_machine_size_exit_2(capsys):
    code, out, err = run(capsys, "geodesics", "--space", "tetra", "--max-length", "1e400")
    assert code == 2 and out == ""
    assert err.startswith("error: class enumeration to length 1") and err.count("\n") == 1
    assert "over the budget" in err


@pytest.mark.parametrize("argv", [
    ("geodesics", "--space", "tetra", "--max-length", "1e400"),
    ("balance", "--left", "tetra", "--right", "didi", "--max-length", "1e400"),
    ("spectrum", "--space", "tetra", "--max-key", "9" * 1000),
    # past the int-to-string digit limit
    ("geodesics", "--space", "tetra", "--max-length", "1e5000"),
    ("balance", "--left", "tetra", "--right", "didi", "--max-length", "1e5000"),
], ids=lambda argv: f"{argv[0]}-{argv[-1][:6]}")
def test_budget_refusal_abridges_huge_numerals(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the budget" in err
    assert len(err) <= 200


@pytest.mark.parametrize("argv", [
    ("geodesics", "--space", "tetra", "--max-length", "1e5000"),
    ("geodesics", "--space", "tetra", "--max-length", "1e30000000"),
    ("balance", "--left", "tetra", "--right", "didi", "--max-length", "1e30000000"),
    ("spectrum", "--circle", "1e-30000000", "--max-key", "4"),
], ids=["geodesics-1e5000", "geodesics-1e30000000", "balance-1e30000000",
        "circle-1e-30000000"])
def test_cli_lengths_pass_the_numeral_limit(capsys, argv):
    """Lengths are read like space-file numerals: one past the digit
    limit is refused before a large integer is built, so the refusal
    takes no longer for a larger exponent."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: numeral ") and err.count("\n") == 1
    assert "digits or an exponent beyond" in err


_NINES = "9" * 5000


@pytest.mark.parametrize("argv", [
    ("spectrum", "--space", "tetra", "--max-key", _NINES),
    ("spectrum", "--space", "tetra", "--max-key", "x" + _NINES),
    ("spectrum", "--circle", _NINES, "--max-key", "4"),
    ("spectrum", "--circle", "-" + _NINES[:4000], "--max-key", "4"),
    ("geodesics", "--space", "tetra", "--max-length", "x" + _NINES[:4000]),
    ("heat-trace", "--space", "tetra", "--t-grid", "x" + _NINES),
    ("heat-trace", "--space", "tetra", "--t", "x" + _NINES),
    ("exercise", "--eps", "x" + _NINES),
], ids=["max-key", "max-key-junk", "circle", "circle-negative", "max-length-junk",
        "t-grid", "t", "eps"])
def test_usage_errors_abridge_the_argument(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "Traceback" not in captured.err and len(captured.err.encode()) < 500


def _space_doc(change):
    doc = presentation_to_json(preset("tetra"))
    change(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text", [
    _space_doc(lambda doc: doc.update(lattice=doc["lattice"][:2])),
    _space_doc(lambda doc: doc.update(lattice=doc["lattice"] + [["1", "0", "0"]])),
    _space_doc(lambda doc: doc["reps"][1].update(rot=doc["reps"][1]["rot"][:2])),
    "[" * 100_000,
], ids=["lattice_2_rows", "lattice_4_rows", "rot_2_rows", "deep_nesting"])
def test_malformed_space_file_exit_2(tmp_path, capsys, text):
    path = tmp_path / "space.json"
    path.write_text(text)
    code, out, err = run(capsys, "geodesics", "--space-file", str(path), "--max-length", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: malformed space document: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_non_orthogonal_rotation_is_not_malformed(tmp_path, capsys):
    """Valid JSON whose rotation is not orthogonal is an invalid isometry,
    reported with its own message."""
    path = tmp_path / "space.json"
    path.write_text(_space_doc(
        lambda doc: doc["reps"][1].update(rot=[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    ))
    code, out, err = run(capsys, "geodesics", "--space-file", str(path), "--max-length", "1")
    assert (code, out, err) == (2, "", "error: rotational part is not orthogonal\n")


def test_oversized_numeral_exit_2(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(_space_doc(lambda doc: doc["lattice"][0].__setitem__(0, "1e5000000")))
    start = time.perf_counter()
    code, out, err = run(capsys, "geodesics", "--space-file", str(path), "--max-length", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: malformed space document: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("spectrum", "--space", "tetra", "--max-key", "99999999"),
    ("verify", "--left", "tetra", "--right", "didi", "--max-key", "99999999"),
    ("spectrum", "--circle", "1/2", "--max-key", "400000000000"),
], ids=" ".join)
def test_spectral_key_budget_exit_2(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "budget" in err
