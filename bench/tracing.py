"""In-memory span recorder and the per-layer instrumentation of hbspace.

Spans are recorded around calls into the public functions of each
hbspace module.  A wrapper replaces the traced object wherever callers
look it up: every ``hbspace.*`` module attribute bound to it (so
``hbspace.space.pythagorean_mate`` is traced, not only
``hbspace.factorization.pythagorean_mate``), every alias in a class
dictionary (``Poly.__rmul__`` is ``Poly.__mul__``), and the criterion
table of the acceptance battery.

Each span keeps its name, start, end, parent and query id in memory.
``Recorder.reduce`` folds the spans into per-name call counts, self time
(duration minus the part of the interval its child spans cover) and
inclusive time; the recorder then drops them, so memory stays bounded
over a long run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

QUERY_SPAN = "bench.query"
MODULES = ("polynomials", "factorization", "space", "isometry", "extension",
           "lattice", "acceptance", "cli", "bench")


class Recorder:
    """Spans of the running process, grouped by query id."""

    def __init__(self):
        self.names: list[str | None] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.qids: list[int] = []
        self.stack: list[int] = []
        self.qid = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.qids.append(self.qid)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def add_cover(self, start: float, end: float) -> None:
        """An interval another process spent inside spans it reports
        itself (see ``merge``): it counts as child cover of the open span
        and is not aggregated here.  perf_counter is system-wide on Linux,
        so the clocks agree."""
        self.names.append(None)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.qids.append(self.qid)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] += amount

    def high(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def reduce(self) -> None:
        """Fold all closed spans into the aggregates and forget them."""
        cover: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i, p in enumerate(self.parents):
            if p >= 0:
                cover[p].append((self.starts[i], self.ends[i]))
        for i, name in enumerate(self.names):
            if name is None:
                continue
            start, end = self.starts[i], self.ends[i]
            covered = 0.0
            reach = start
            for s, e in sorted(cover.get(i, ())):
                s, e = max(s, reach), min(e, end)
                if e > s:
                    covered += e - s
                    reach = e
            self.calls[name] += 1
            self.self_s[name] += (end - start) - covered
            self.incl_s[name] += end - start
        for lst in (self.names, self.starts, self.ends, self.parents, self.qids):
            lst.clear()

    def merge(self, other: dict) -> None:
        """Add the reduced aggregates another process sent back."""
        for name, (calls, self_s, incl_s) in other["spans"].items():
            self.calls[name] += calls
            self.self_s[name] += self_s
            self.incl_s[name] += incl_s
        for name, value in other["counters"].items():
            self.counters[name] += value
        for name, value in other["maxima"].items():
            self.high(name, value)

    def export(self) -> dict:
        return {
            "spans": {k: [self.calls[k], self.self_s[k], self.incl_s[k]] for k in self.calls},
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


def _timed(rec: Recorder, name: str, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if observe is not None:
            observe(rec, args, kwargs, result)
        return result

    return wrapper


def _rational_call(rec: Recorder, fn, ndarray):
    @functools.wraps(fn)
    def wrapper(self, z, *args, **kwargs):
        name = ("polynomials.RationalFn.eval_array" if isinstance(z, ndarray)
                else "polynomials.RationalFn.eval_scalar")
        idx = rec.open(name)
        try:
            return fn(self, z, *args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _taylor_coeffs(rec, args, kwargs, result):
    rec.count("polynomials.RationalFn.taylor.coeffs", len(result))


def _gram_entries(rec, args, kwargs, result):
    rec.count("space.gram_matrix.entries", result.size)


def _kfc_points(rec, args, kwargs, result):
    rec.count("extension.kernel_factorization_check.points", result["points"])


def _mate_ratio(rec, args, kwargs, result):
    from hbspace import DEFAULT_TOLERANCES

    tol = kwargs.get("tol", DEFAULT_TOLERANCES)
    rec.high("factorization.mate_residual_ratio_max", result.residual / tol.mate)


def _norm_ratio(rec, args, kwargs, result):
    worst = max(result["norm_b_sq"]["diff"], result["norm_Lb_sq"]["diff"])
    rec.high("space.norm_identity_ratio_max", worst / result["tolerance"])


def _defect_ratio(rec, args, kwargs, result):
    if result.order is not None:
        rec.high("isometry.defect_ratio_max", result.defects[result.order - 1] / result.tol_iso)


# (span name, module, attribute path, observer).  A dotted attribute path
# names a method.
TARGETS = (
    ("polynomials.poly_roots", "polynomials", "poly_roots", None),
    ("polynomials.RationalFn.taylor", "polynomials", "RationalFn.taylor", _taylor_coeffs),
    ("polynomials.Poly.mul", "polynomials", "Poly.__mul__", None),
    ("polynomials.Poly.divmod", "polynomials", "Poly.__divmod__", None),
    ("factorization.is_nonextreme", "factorization", "is_nonextreme", None),
    ("factorization.pythagorean_mate", "factorization", "pythagorean_mate", _mate_ratio),
    ("factorization.boundary_order", "factorization", "boundary_order", None),
    ("space.HbSpace", "space", "HbSpace.__init__", None),
    ("space.pair", "space", "HbSpace.pair", None),
    ("space.norm_identities_check", "space", "HbSpace.norm_identities_check", _norm_ratio),
    ("space.plus_function", "space", "HbSpace.plus_function", None),
    ("space.gram_matrix", "space", "HbSpace.gram_matrix", _gram_entries),
    # kernel_vector delegates to derivative_kernel_vector
    ("space.kernel_vectors", "space", "HbSpace.derivative_kernel_vector", None),
    ("isometry.isometry_order", "isometry", "isometry_order", _defect_ratio),
    ("isometry.rank_one_identity_check", "isometry", "rank_one_identity_check", None),
    ("isometry.annihilation_check", "isometry", "annihilation_check", None),
    ("extension.extend", "extension", "extend", None),
    ("extension.build_model", "extension", "build_model", None),
    ("extension.kernel_factorization_check", "extension", "kernel_factorization_check", _kfc_points),
    ("lattice.classify", "lattice", "classify", None),
    ("lattice.subspace_distance", "lattice", "subspace_distance", None),
)


class Instrumentation:
    """Installs the wrappers of TARGETS and restores the originals."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hbspace" or mod_name.startswith("hbspace.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _replace_in_class(self, cls, original, wrapper) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._undo.append((cls, attr, value))
                setattr(cls, attr, wrapper)

    def install(self) -> None:
        import hbspace.acceptance
        import hbspace.cli  # noqa: F401  (binds the names the CLI looks up)

        for name, module, path, observe in TARGETS:
            mod = sys.modules[f"hbspace.{module}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                original = vars(cls)[meth]
                self._replace_in_class(cls, original, _timed(self.rec, name, original, observe))
            else:
                original = getattr(mod, path)
                self._replace_everywhere(original, _timed(self.rec, name, original, observe))
        import numpy as np
        from hbspace.polynomials import RationalFn

        original = vars(RationalFn)["__call__"]
        self._replace_in_class(RationalFn, original, _rational_call(self.rec, original, np.ndarray))
        table = hbspace.acceptance._CRITERIA
        self._undo.append((hbspace.acceptance, "_CRITERIA", table))
        hbspace.acceptance._CRITERIA = tuple(
            _timed(self.rec, f"acceptance.criterion_{k:02d}", fn) for k, fn in enumerate(table, 1)
        )

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def module_of(span: str) -> str:
    return span.split(".", 1)[0]
