"""The README's Library quick start runs and prints what its comments state,
and every line of its Command line block exits 0."""

import json
import re
import shlex
from pathlib import Path

from hbspace.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start():
    text = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    stated = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not code:
            continue
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        # the comment states the value, after the last "=" if it names one
        want = float(comment.rsplit("=", 1)[-1])
        assert abs(eval(expr, namespace) - want) <= 1e-9 * max(1.0, abs(want)), line
        stated.append(want)
    assert stated == [0.5, 6, 0.625, 2, 3.0]


def test_command_line_block_exits_zero(monkeypatch, capsys):
    # the same lines CI runs through the installed script, here in process
    monkeypatch.delenv("HB_SEED", raising=False)
    text = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", text, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("hb ")]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert json.loads(capsys.readouterr().out), line
