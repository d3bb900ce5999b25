"""``scripts/check_bench_log.py`` passes a correct log and refuses each
kind of bad one."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench_log.py"
_spec = importlib.util.spec_from_file_location("check_bench_log", SCRIPT)
check_bench_log = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_log)


def _log(correct=True, failures=None, reports=1):
    report = "report " + json.dumps({"fail_rate": 0.1, "failures_by_check": failures or {}})
    verdict = json.dumps({"correct": correct, "attempted": 16, "failed": 3})
    return "\n".join([report] * reports + [verdict]) + "\n"


GOOD = _log(failures={"towers.extend:VerificationError": 1, "towers.strict_margin": 2})


@pytest.mark.parametrize("text,reason", [
    (_log(correct=False), "correct"),
    (GOOD.replace('"correct": true', '"correct": "true"'), "correct"),
    (GOOD.rsplit("\n", 2)[0] + "\n", "correct"),
    (_log(failures={"towers.isometry_order.n4": 2}), "towers.isometry_order.n4"),
    *[(_log(failures={name: 1}), name) for name in (
        "towers.derivative_kernel.i2:PoleAtPointError",
        "towers.derivative_kernel.i3:PoleAtPointError",
        "towers.derivative_kernel.i2:VerificationError",
        "towers.derivative_kernel.i3:VerificationError",
        "towers.derivative_pairing.i2",
        "towers.derivative_pairing.i3")],
    (_log(failures={"corpus.boundary_zero_missed": 1}), "corpus.boundary_zero_missed"),
    (_log(reports=0), "report lines"),
    (_log(reports=2), "report lines"),
    ("", "empty"),
])
def test_a_bad_log_is_refused(tmp_path, capsys, text, reason):
    log = tmp_path / "bench.log"
    log.write_text(text)
    assert check_bench_log.main([str(log)]) == 1
    assert reason in capsys.readouterr().err


def test_a_correct_log_passes(tmp_path, capsys):
    log = tmp_path / "bench.log"
    log.write_text(GOOD)
    assert check_bench_log.main([str(log)]) == 0
    assert capsys.readouterr().err == ""
