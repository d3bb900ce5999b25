"""Machine-speed probes for normalising timings on a shared machine.

On a machine shared with other tenants the same query can take twice as
long from one minute to the next, on CPU time as well as wall time.  The
benchmark therefore times a fixed probe next to every query and divides
the query's time by the probe's slowness, its time over the time it
takes on the reference machine.  Scaled timings read as seconds on the
reference machine and move only when the program does; the raw timings
stay in the report line.

There are two probes, one per kind of work timed.  ``compute`` mixes the
work an in-process query does: interpreted complex Horner loops, many
numpy calls on short arrays and one dense complex product.  ``spawn``
starts a bare interpreter, which is what a CLI call and the set-up of a
workload process mostly spend their time on; the compute probe does not
follow those.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Probe times on the reference machine (2-CPU Intel Xeon VM, Python 3.11,
# numpy 2.4, one BLAS thread) when not slowed by neighbours.
COMPUTE_REFERENCE_S = 3.0e-4
SPAWN_REFERENCE_S = 5.0e-2

_COEFFS = [complex(k, -k) * 1e-3 for k in range(32)]
_SHORT = np.arange(16) * (1 + 1j) * 1e-2
_DENSE = (np.arange(48 * 48).reshape(48, 48) % 7 - 3) * (1 - 1j) * 1e-2


def _compute_once() -> float:
    t0 = time.perf_counter()
    acc = 0j
    for rep in range(16):
        z = 0.3 + 0.1j * rep / 16
        h = 0j
        for c in _COEFFS:
            h = h * z + c
        acc += h
    for k in range(1, 120):
        acc += np.dot(_SHORT[: k % 16 + 1], _SHORT[::-1][: k % 16 + 1])
    acc += (_DENSE @ _DENSE.conj().T)[0, 0]
    return time.perf_counter() - t0


def _spawn_once() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t0


def compute() -> float:
    """Slowness of in-process work; best of three, since a preemption
    inflates one probe, not all."""
    return min(_compute_once() for _ in range(3)) / COMPUTE_REFERENCE_S


def spawn() -> float:
    """Slowness of starting an interpreter."""
    return _spawn_once() / SPAWN_REFERENCE_S


def scaled(times: list[float], slowness: list[float]) -> list[float]:
    """times[i] at reference speed; slowness[i] and slowness[i + 1] were
    probed just before and just after times[i]."""
    return [2.0 * t / (slowness[i] + slowness[i + 1]) for i, t in enumerate(times)]
