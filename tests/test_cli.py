"""End-to-end checks of the hb command line interface."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbspace import HbSpace
from hbspace.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main, parse_symbol

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


def test_mate_payload_extends_the_mate_json(capsys):
    code, out, _ = run_cli(["mate", "-b", STEP2], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    mate = json.loads(json.dumps(HbSpace(parse_symbol(STEP2)).mate.to_json()))
    assert payload == {**mate, "a_at_origin": payload["a_at_origin"],
                       "norm_b_sq": payload["norm_b_sq"]}


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


def test_model_4_verified_order(capsys):
    code, out, _ = run_cli(["model", "--steps", "4", "--verify"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["isometry_order"] == 8


def test_model_6_exits_zero(capsys):
    # step 6 extends from the n = 5 tower, whose density has a 10-fold circle zero
    code, out, _ = run_cli(["model", "--steps", "6"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["s_values"] == pytest.approx([1 / k for k in range(2, 8)])


@pytest.mark.xfail(strict=True, reason=(
    "the mate factors at n = 7, but the extension certificates at z = 1 miss by 1.846e-8"
))
def test_model_7_exits_zero(capsys):
    code, _, _ = run_cli(["model", "--steps", "7"], capsys)
    assert code == EXIT_OK


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


@pytest.mark.parametrize("argv,env", [
    (["mate", "-b", HALF, "--seed", "-1"], None),
    (["mate", "-b", HALF], "-3"),
    (["suite", "--seed", "-1"], None),
])
def test_negative_seed_rejected(argv, env, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("HB_SEED", raising=False)
    else:
        monkeypatch.setenv("HB_SEED", env)
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err)["type"] == "InputFormatError"


@pytest.mark.parametrize("argv", [
    ["gram", "-b", HALF, "--size", "1e3"],
    ["mate"],
    ["frob"],
    [],
    # extend and model always root with the default seed, so they take none
    ["extend", "-b", "[]", "--seed", "1"],
    ["model", "--steps", "2", "--seed", "1"],
])
def test_malformed_command_line_is_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_VALIDATION
    assert not out
    blob = json.loads(err)
    assert set(blob) == {"error", "type"}
    assert blob["type"] == "InputFormatError"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as info:
        main([flag])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(("usage: hb", "hb "))


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


def test_kernel_order_past_factorial_range_rejected(capsys):
    code, out, err = run_cli(
        ["kernel", "-b", HALF, "--at", "0.5", "--order", "171", "--point", "0.1"], capsys
    )
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err)["type"] == "InputFormatError"


@pytest.mark.parametrize("argv", [
    ["extend", "-b", AFFINE, "--omega", "1e10"],
    ["extend", "-b", AFFINE, "--omega", "1e300"],
    ["model", "--steps", "2", "--omega", "1e9"],
    # s = 0: omega vanishes, or its square underflows
    ["extend", "-b", AFFINE, "--omega", "0"],
    ["extend", "-b", AFFINE, "--omega", "1e-200"],
])
def test_omega_out_of_range_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err)["type"] == "DegenerateOmegaError"


@pytest.mark.parametrize("argv", [
    ["extend", "-b", AFFINE, "--omega", "1e-4"],
    ["extend", "-b", AFFINE, "--omega", "1e-13"],
    ["extend", "-b", AFFINE, "--omega", "1e-15"],
    ["model", "--steps", "3", "--omega", "1e-5"],
])
def test_tiny_omega_fails_certificate_verification(argv, capsys):
    # 0 < s < 1 is a valid input; the certificates at z = 1 cannot be evaluated
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_NUMERICAL
    assert not out
    blob = json.loads(err)
    assert blob["type"] == "VerificationError"
    assert "derivative_at_one" in blob["error"]


@pytest.mark.parametrize("symbol", ["[true]", '{"coeffs": [[true, 0]]}'])
def test_boolean_coefficient_rejected(symbol, capsys):
    # JSON true is not the number 1
    code, out, err = run_cli(["mate", "-b", symbol], capsys)
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err)["type"] == "InputFormatError"


@pytest.mark.parametrize("size", ["0", "-1"])
def test_gram_size_below_one_rejected(size, capsys):
    code, out, err = run_cli(["gram", "-b", HALF, "--size", size], capsys)
    assert code == EXIT_VALIDATION
    assert not out
    assert json.loads(err) == {"error": "gram size must be at least 1",
                               "type": "InputFormatError"}


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
    ["mate", "-b", '{"num": [0, 0.5], "den": [1, Infinity]}'],
    ["extend", "-b", '{"num": [0, 0.5], "den": [1, [0, -Infinity]]}'],
])
def test_non_finite_input_rejected(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_VALIDATION
    assert not out
    blob = json.loads(err)
    assert set(blob) == {"error", "type"}
    assert blob["type"] == "InputFormatError"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("symbol", ["[1e308, 1e308]", "[[1e308,1e308],[1e308,1e308]]"])
def test_overflowing_symbol_rejected_without_a_warning(symbol, capsys):
    # |p| overflows on the circle grid; stderr carries the JSON line alone
    code, out, err = run_cli(["mate", "-b", symbol], capsys)
    assert code == EXIT_VALIDATION
    assert not out
    blob = json.loads(err)
    assert set(blob) == {"error", "type"}
    assert blob["type"] == "NotInUnitBallError"


# The input contract: every command line ends in exit 0, 2 or 3, and a
# nonzero exit leaves the JSON error line last on stderr.
FUZZ_SYMBOLS = [
    HALF, AFFINE, STEP1, STEP2, "[[0.2, 0.1], [-0.15, 0.25]]", "[0.5, 0.5, 0, 0, 0]",
    "[0.25, 0.25, 0.25, 0.25]", "[1e-320, 0.5]", '{"num": [0, 0, 0, 1], "den": [4, -6, 4, -1]}',
    # rejected: malformed, non-finite, out of range, empty, extreme, poles in the disk
    "", "{", "[1, 2, 3", "nan", "[NaN]", "[Infinity]", "[1e308]", "[1e308, 1e308]", "[1e400]",
    "[" + "9" * 400 + "]", "[]", "{}", '{"coeffs": []}', '{"num": [], "den": []}', "null",
    '"[0.5]"', "[true]", "[[[1]]]", '{"num": [1]}', '{"num": [1], "den": [0]}',
    '{"num": [0.1], "den": [0.1, 1]}', "[1, 1]", "[1]", "[0.7071067811865476, 0.7071067811865476]",
]
FUZZ_GENERATORS = [
    "[1]", "[0, 1]", "[-1, 1]", "[1, -2, 1]", "[1e-300, 1]", '{"num": [1], "den": [2, -1]}',
    "[0]", "[]", "{", "[NaN]", "[1e308]", "[0.5, [0, 0.5]]", '{"num": [1], "den": [1, -1]}',
]
FUZZ_POINTS = ["0", "0.5", "-1", "1", "1j", "0.3-0.2j", "0.9999999999", "1+1e-12j", "2",
               "1e308", "1e-320", "-0.0", "nan", "inf", "", "abc"]
FUZZ_PHASES = ["3.141592653589793", "0", "-1", "1e308", "nan", "inf", "x"]


@st.composite
def _command_lines(draw):
    def pick(options):
        return draw(st.sampled_from(options))

    cmd = pick(["mate", "kernel", "gram", "verify", "extend", "model", "classify", "cyclic"])
    argv = [cmd] if cmd == "model" else [cmd, "-b", pick(FUZZ_SYMBOLS)]
    if cmd == "kernel":
        argv += ["--at", pick(FUZZ_POINTS), "--order", str(draw(st.integers(-2, 4)))]
        if draw(st.booleans()):
            argv += ["--point", pick(FUZZ_POINTS)]
    elif cmd == "gram":
        argv += ["--size", str(draw(st.integers(0, 40)))]
    elif cmd in ("extend", "model"):
        if cmd == "model":
            argv += ["--steps", str(draw(st.integers(0, 5)))]
        argv += ["--omega", pick(FUZZ_POINTS), "--phase", pick(FUZZ_PHASES)]
        if draw(st.booleans()):
            argv.append("--normalize" if cmd == "extend" else "--verify")
    elif cmd in ("classify", "cyclic"):
        argv += ["-g", pick(FUZZ_GENERATORS)]
    if cmd not in ("extend", "model") and draw(st.booleans()):
        argv += ["--seed", pick(["0", "7", "-1", "x"])]
    return argv


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_command_lines())
def test_every_command_line_exits_with_a_contract_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL)
    if code != EXIT_OK:
        assert set(json.loads(err.getvalue().splitlines()[-1])) == {"error", "type"}
