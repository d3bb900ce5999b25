"""Print one sha256 over the bits the library's numerics produce.

    PYTHONPATH=src python3 scripts/bits_digest.py
    PYTHONPATH=src python3 scripts/bits_digest.py --items

With ``--items`` it prints one sha256 per item instead, one item a line:
``roots`` for the whole roots block, then ``<symbol> mate``, ``<symbol>
phi`` and ``<symbol> gram`` (or ``<symbol> error``) for each symbol, so
a diff of two such outputs names what moved.

The digest covers, in order:

- the roots ``poly_roots`` returns for seeded polynomials of degree
  3-33, with coefficient scales from 1e-8 to 1e8 and, in every fourth
  one, a cluster of roots within 1e-6 of a point on the unit circle;
- for the gram workload's six symbols and for the corpus workload's
  first input block at seeds 1 and 2: the mate (``repr`` of its
  numerator coefficients, of its boundary zeros and of its residual),
  the bytes of ``phi_coeffs(256)`` and of ``gram_matrix(256)`` read as
  complex128, or the name of the error a rejected symbol raises.  The
  Gram hash covers its values and signs of zero, not its dtype: a
  float64 Gram and the complex128 Gram with the same real parts and
  +0.0 imaginary parts hash alike.

Symbols come from ``bench/inputs.py`` and ``bench/checks.py``, which
this script only reads.  hbspace is imported from ``sys.path``, so
``PYTHONPATH=<checkout>/src`` selects the commit whose bits are hashed.
Two commits that print the same digest agree on all of these bit for
bit, signs of zero included.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import checks  # noqa: E402
import inputs  # noqa: E402
from hbspace import HbSpace, Poly  # noqa: E402
from hbspace.errors import HbError  # noqa: E402
from hbspace.polynomials import poly_roots  # noqa: E402

POLYS = 4000
CORPUS_SEEDS = (1, 2)
SIZE = 256


def _seeded_poly(rng: np.random.Generator, index: int) -> Poly:
    degree = int(rng.integers(3, 34))
    scale = 10.0 ** rng.uniform(-8, 8)
    if index % 4 != 3:
        return Poly(scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)))
    size = int(rng.integers(2, min(degree, 6) + 1))
    center = np.exp(2j * np.pi * rng.random())
    cluster = center * (1.0 + 1e-6 * (rng.standard_normal(size) + 1j * rng.standard_normal(size)))
    rest = rng.uniform(0.2, 3.0, degree - size) * np.exp(2j * np.pi * rng.random(degree - size))
    return Poly(scale * np.poly(np.concatenate([cluster, rest]))[::-1])


def _symbols():
    """(label, symbol) pairs: the gram symbols, then the corpus blocks."""
    ctx = {"deg8": inputs.gram_deg8_symbol()}
    for name in inputs.GRAM_SYMBOLS:
        yield f"gram:{name}", checks.gram_symbol(name, ctx)
    for seed in CORPUS_SEEDS:
        for index in range(inputs.BLOCK["corpus"]):
            q = inputs.make("corpus", seed, index)
            yield f"corpus:{seed}:{index}", checks.symbol(q["num"], q["den"])


def items():
    """(label, bytes) pairs, in the order the digest hashes them."""
    rng = np.random.default_rng(0)
    yield "roots", b"".join(poly_roots(_seeded_poly(rng, i)).tobytes() for i in range(POLYS))
    for label, b in _symbols():
        try:
            space = HbSpace(b)
        except HbError as exc:
            yield f"{label} error", type(exc).__name__.encode()
            continue
        mate = space.mate
        yield f"{label} mate", repr((mate.a.num.coeffs, mate.boundary_zeros, mate.residual)).encode()
        yield f"{label} phi", space.phi_coeffs(SIZE).tobytes()
        yield f"{label} gram", np.asarray(space.gram_matrix(SIZE), dtype=complex).tobytes()


def digest() -> str:
    h = hashlib.sha256()
    for _, data in items():
        h.update(data)
    return h.hexdigest()


if __name__ == "__main__":
    if sys.argv[1:] == ["--items"]:
        for label, data in items():
            print(label, hashlib.sha256(data).hexdigest())
    elif sys.argv[1:]:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    else:
        print(digest())
