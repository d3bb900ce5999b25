"""The README's Library quick start runs and prints what its comments state."""

import re
from pathlib import Path

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
