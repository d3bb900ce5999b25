"""The benchmark's tracer finds every name it instruments.

``bench/tracing.py`` wraps each ``TARGETS`` entry, ``RationalFn.__call__``
and the acceptance criterion table; a rename or deletion in ``hbspace``
would crash a traced benchmark run, so the lookups are repeated here the
way the tracer makes them.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, module, path, _ in tracing.TARGETS:
        mod = importlib.import_module(f"hbspace.{module}")
        owner, _, attr = path.rpartition(".")
        if not (attr in vars(getattr(mod, owner)) if owner else hasattr(mod, attr)):
            missing.append(name)
    assert missing == []
    from hbspace import acceptance
    from hbspace.polynomials import RationalFn

    assert "__call__" in vars(RationalFn)
    assert len(acceptance._CRITERIA) == 10 and all(map(callable, acceptance._CRITERIA))
