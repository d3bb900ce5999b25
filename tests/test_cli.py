"""End-to-end checks of the hb command line interface."""

import json

import pytest

from hbspace.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

HALF = "[0.5, 0.5]"
AFFINE = "[0, 0.5]"
STEP1 = '{"num": [0, 1], "den": [2, -1]}'
STEP2 = '{"num": [0, 0, 1], "den": [3, -3, 1]}'


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mate_half(capsys):
    code, out, _ = run_cli(["mate", "-b", HALF], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["residual"] < 1e-12
    assert payload["a_at_origin"] == [0.5, 0.0]
    assert payload["boundary_zeros"] == [
        {"multiplicity": 1, "point": [1.0, 0.0]}
    ]
    coeffs = payload["a"]["num"]["coeffs"]
    assert coeffs == [[0.5, 0.0], [-0.5, 0.0]]


def test_mate_is_deterministic(capsys):
    _, first, _ = run_cli(["mate", "-b", STEP2], capsys)
    _, second, _ = run_cli(["mate", "-b", STEP2], capsys)
    assert first == second


def test_kernel_value(capsys):
    code, out, _ = run_cli(
        ["kernel", "-b", HALF, "--at", "0", "--point", "0.5"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["value"] == pytest.approx([0.625, 0.0])


def test_kernel_boundary_order_rejected(capsys):
    code, _, err = run_cli(
        ["kernel", "-b", STEP2, "--at", "1", "--order", "2"], capsys
    )
    assert code == EXIT_VALIDATION
    assert json.loads(err)["type"] == "OrderTooHighError"


def test_gram_affine_diagonal(capsys):
    code, out, _ = run_cli(["gram", "-b", AFFINE, "--size", "3"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    diag = [payload["matrix"][i][i][0] for i in range(3)]
    assert diag == pytest.approx([1.0, 4.0 / 3.0, 4.0 / 3.0])
    assert payload["min_eigenvalue"] >= 1.0 - 1e-12


def test_verify_reports_ok(capsys):
    code, out, _ = run_cli(["verify", "-b", STEP1], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["isometry"]["order"] == 2
    assert payload["plus_residual"] < 1e-12


def test_extend_from_zero(capsys):
    code, out, _ = run_cli(["extend", "-b", "[]"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["s"] == pytest.approx(0.5)
    assert payload["kernel_update_residual"] < 1e-12
    assert payload["b"]["num"]["coeffs"] == [[0.0, 0.0], [0.5, 0.0]]
    assert payload["b"]["den"]["coeffs"] == [[1.0, 0.0], [-0.5, 0.0]]


def test_extend_forbidden_phase(capsys):
    code, _, err = run_cli(
        ["extend", "-b", STEP1, "--phase", "0"], capsys
    )
    assert code == EXIT_VALIDATION
    assert json.loads(err)["type"] == "ForbiddenPhaseError"


def test_extend_rejects_nonvanishing_origin(capsys):
    code, _, err = run_cli(["extend", "-b", "[0.3, 0.2]"], capsys)
    assert code == EXIT_VALIDATION
    assert json.loads(err)["type"] == "InputFormatError"


def test_extend_normalize_flag(capsys):
    code, out, _ = run_cli(
        ["extend", "-b", "[0.3, 0.2]", "--normalize"], capsys
    )
    assert code == EXIT_OK
    assert json.loads(out)["certificates"]["value_at_origin"] < 1e-12


def test_model_weight_sequence(capsys):
    code, out, _ = run_cli(["model", "--steps", "3"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["s_values"] == pytest.approx([1 / 2, 1 / 3, 1 / 4])
    assert payload["isometry_order"] is None


def test_model_verified_order(capsys):
    code, out, _ = run_cli(["model", "--steps", "2", "--verify"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["isometry_order"] == 4


def test_classify_boundary_order(capsys):
    code, out, _ = run_cli(
        ["classify", "-b", STEP2, "-g", "[1, -2, 1]"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["form"] == "proper"
    assert payload["boundary_orders"][0]["order"] == 2
    assert payload["inner_roots"] == []


def test_cyclic_answers(capsys):
    code, out, _ = run_cli(["cyclic", "-b", HALF, "-g", "[1]"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["cyclic"] is True
    code, out, _ = run_cli(["cyclic", "-b", HALF, "-g", "[-1, 1]"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["cyclic"] is False


def test_extreme_symbol_rejected(capsys):
    code, _, err = run_cli(["mate", "-b", "[0, 1]"], capsys)
    assert code == EXIT_VALIDATION
    assert json.loads(err)["type"] == "ExtremeFunctionError"


def test_bad_json_rejected(capsys):
    code, _, err = run_cli(["mate", "-b", "not json"], capsys)
    assert code == EXIT_VALIDATION
    assert json.loads(err)["type"] == "InputFormatError"


def test_symbol_from_file(tmp_path, capsys):
    path = tmp_path / "symbol.json"
    path.write_text(STEP1)
    code, out, _ = run_cli(["mate", "-b", f"@{path}"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["boundary_zeros"][0]["multiplicity"] == 1


def test_seed_env_wins(monkeypatch, capsys):
    monkeypatch.setenv("HB_SEED", "42")
    code, out, err = run_cli(["suite", "--seed", "7"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["seed"] == 42
    assert payload["all_passed"] is True
    lines = [ln for ln in err.splitlines() if ln.startswith("[")]
    assert len(lines) == 10
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_suite_defaults(monkeypatch, capsys):
    monkeypatch.delenv("HB_SEED", raising=False)
    code, out, _ = run_cli(["suite"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["seed"] == 0
    assert len(payload["criteria"]) == 10


def test_bad_seed_env_rejected(monkeypatch, capsys):
    monkeypatch.setenv("HB_SEED", "abc")
    code, out, err = run_cli(["mate", "-b", HALF], capsys)
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err) == {
        "error": "HB_SEED must be an integer, got 'abc'",
        "type": "InputFormatError",
    }


def test_zero_denominator_rejected(capsys):
    code, out, err = run_cli(["mate", "-b", '{"num": [1], "den": [0]}'], capsys)
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err)["type"] == "InputFormatError"


def test_kernel_negative_order_rejected(capsys):
    code, out, err = run_cli(["kernel", "-b", HALF, "--at", "0", "--order", "-1"], capsys)
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err)["type"] == "InputFormatError"


def test_kernel_point_outside_disk_rejected(capsys):
    code, out, err = run_cli(
        ["kernel", "-b", HALF, "--at", "1.5", "--point", "0.5"], capsys
    )
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err)["type"] == "InputFormatError"


@pytest.mark.parametrize("argv", [
    ["extend", "-b", "[]", "--omega", "nan"],
    ["extend", "-b", "[]", "--omega", "1+infj"],
    ["extend", "-b", "[]", "--phase", "nan"],
    ["kernel", "-b", HALF, "--at", "0", "--point", "nan"],
    ["kernel", "-b", HALF, "--at", "0", "--point", "inf"],
    ["kernel", "-b", HALF, "--at", "nan"],
    ["mate", "-b", "[NaN, 0.5]"],
    ["mate", "-b", "[0.5, [0.5, Infinity]]"],
    ["mate", "-b", '{"coeffs": [[0.5, 0], [-Infinity, 0]]}'],
    ["mate", "-b", '{"num": [0, 1], "den": [[2, NaN], -1]}'],
])
def test_non_finite_input_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_VALIDATION
    assert not out
    blob = json.loads(err)
    assert set(blob) == {"error", "type"}
    assert blob["type"] == "InputFormatError"
