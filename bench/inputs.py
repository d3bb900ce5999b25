"""Seeded inputs for the benchmark workloads.

``make(workload, seed, index)`` returns the index-th query of a workload
as plain JSON-able data.  It depends on numpy only and never imports
hbspace: the program under test receives nothing but these inputs.

Properties a later change may depend on (symbol degree, boundary zeros,
invalid share, tower depth, Gram size) are drawn in shuffled blocks, so
every complete block has exactly the stated shares and two runs of the
same length see the same mix up to the last partial block.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

WORKLOADS = ("corpus", "gram", "towers", "cli")

# Circle grid for the sup|b| rescaling of corpus symbols.
_SUP_GRID = np.exp(2j * np.pi * (np.arange(4096) + 0.5) / 4096)

# corpus: 15 of 20 valid generic symbols, 3 with a mate boundary zero,
# 2 invalid ones.  Degrees 1..16 and pole-count quarters are blocked
# separately; 80 queries complete all three blocks.
_CORPUS_KINDS = ("generic",) * 15 + ("boundary",) * 3 + ("invalid",) * 2
_INVALID_KINDS = ("pole_in_disk", "not_in_ball", "extreme")
_EXPECTED_ERROR = {
    "pole_in_disk": "PoleInDiskError",
    "not_in_ball": "NotInUnitBallError",
    "extreme": "ExtremeFunctionError",
}

# gram: the rotation.  "deg8" is one fixed degree-8 rational symbol.
GRAM_SYMBOLS = ("half", "affine", "model1", "model2", "model3", "deg8")
GRAM_SIZE = 256

# towers: 16 queries per block.  Each depth n = 1..4 meets each of four
# strata of |omega| in [0.3, 2] once, and the phase strata form a Latin
# square over (n, |omega| stratum).
_TOWER_BLOCK = tuple((n, s, (s + n) % 4) for n in (1, 2, 3, 4) for s in range(4))
OMEGA_RANGE = (0.3, 2.0)
# Distance of the phase from the forbidden phase arg b(1) = 0 that every
# step after the first carries.
PHASE_GAP = 0.3

# cli: (id, group, argv, extra environment, weight).  Weight is the
# number of slots per 23-slot cycle.  The last four are documented
# rejections the CLI does not yet honour; they stay in the mix so that
# they count as failures until fixed.
HALF = "[0.5, 0.5]"
RATIONAL = '{"num":[0,1],"den":[2,-1]}'
DOUBLE = '{"num":[0,0,1],"den":[3,-3,1]}'
CLI_MIX = (
    ("mate_half", "mate", ["mate", "-b", HALF], {}, 2),
    ("mate_rational", "mate", ["mate", "-b", RATIONAL], {}, 1),
    ("kernel_interior", "kernel", ["kernel", "-b", HALF, "--at", "0", "--point", "0.5"], {}, 2),
    ("kernel_boundary", "kernel", ["kernel", "-b", DOUBLE, "--at", "1", "--order", "1", "--point", "0.5"], {}, 1),
    ("gram32", "gram", ["gram", "-b", HALF, "--size", "32"], {}, 2),
    ("verify", "verify", ["verify", "-b", RATIONAL], {}, 1),
    ("extend", "extend", ["extend", "-b", "[]", "--omega", "1", "--phase", "3.141592653589793"], {}, 1),
    ("model2", "model", ["model", "--steps", "2", "--verify"], {}, 1),
    ("classify", "classify", ["classify", "-b", DOUBLE, "-g", "[1,-2,1]"], {}, 1),
    ("cyclic", "cyclic", ["cyclic", "-b", HALF, "-g", "[-1, 1]"], {}, 1),
    ("suite", "suite", ["suite"], {}, 1),
    ("reject_pole", "reject", ["mate", "-b", '{"num":[1],"den":[1,-2]}'], {}, 1),
    ("reject_extreme", "reject", ["mate", "-b", "[0, 1]"], {}, 1),
    ("reject_order", "reject", ["kernel", "-b", HALF, "--at", "1", "--order", "1"], {}, 1),
    ("reject_phase", "reject", ["extend", "-b", RATIONAL, "--phase", "0"], {}, 1),
    ("reject_json", "reject", ["mate", "-b", "[0.5,"], {}, 1),
    ("defect_hb_seed", "reject", ["mate", "-b", HALF], {"HB_SEED": "abc"}, 1),
    ("defect_zero_den", "reject", ["mate", "-b", '{"num":[1],"den":[0]}'], {}, 1),
    ("defect_negative_order", "reject", ["kernel", "-b", HALF, "--at", "0", "--order", "-1"], {}, 1),
    ("defect_outside_disk", "reject", ["kernel", "-b", HALF, "--at", "1.5", "--point", "0.5"], {}, 1),
)
_CLI_CYCLE = tuple(i for i, item in enumerate(CLI_MIX) for _ in range(item[4]))

_WORKLOAD_ID = {name: k for k, name in enumerate(WORKLOADS)}

# Queries per complete block: a run of whole blocks has exactly the
# stated mix.
BLOCK = {"corpus": 80, "gram": len(GRAM_SYMBOLS), "towers": len(_TOWER_BLOCK),
         "cli": len(_CLI_CYCLE)}


def _rng(seed: int, workload: str, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_ID[workload], *key])


def _block_pick(seed: int, workload: str, index: int, pattern: tuple, salt: int):
    """pattern[...] for this index, from a seeded shuffle of each block."""
    block, pos = divmod(index, len(pattern))
    perm = _rng(seed, workload, salt, block).permutation(len(pattern))
    return pattern[perm[pos]]


def _pairs(values) -> list:
    return [[float(c.real), float(c.imag)] for c in np.asarray(values, dtype=complex)]


def _blaschke(rng: np.random.Generator, count: int, r_lo: float, r_hi: float):
    """u prod (z - alpha)/(1 - conj(alpha) z), |u| = 1: modulus 1 on the circle."""
    alphas = rng.uniform(r_lo, r_hi, count) * np.exp(2j * np.pi * rng.random(count))
    num = np.array([np.exp(2j * np.pi * rng.random())])
    for alpha in alphas:
        num = np.convolve(num, [-alpha, 1.0])
    return num, _den_from_poles(1.0 / np.conj(alphas))


def _den_from_poles(poles) -> np.ndarray:
    """prod (1 - z / p), so the denominator is 1 at the origin."""
    c = np.array([1.0], dtype=complex)
    for p in poles:
        c = np.convolve(c, [1.0, -1.0 / p])
    return c


def _sup(num: np.ndarray, den: np.ndarray) -> float:
    vals = np.polyval(num[::-1], _SUP_GRID) / np.polyval(den[::-1], _SUP_GRID)
    return float(np.max(np.abs(vals)))


def _random_poly(rng: np.random.Generator, degree: int) -> list:
    return _pairs(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))


def _disk_points(rng: np.random.Generator, count: int, r_lo: float, r_hi: float) -> list:
    r = rng.uniform(r_lo, r_hi, count)
    return _pairs(r * np.exp(2j * np.pi * rng.random(count)))


def _corpus(seed: int, index: int) -> dict:
    kind = _block_pick(seed, "corpus", index, _CORPUS_KINDS, salt=1)
    degree = _block_pick(seed, "corpus", index, tuple(range(1, 17)), salt=2)
    rng = _rng(seed, "corpus", 0, index)
    out = {"kind": kind}
    if kind == "boundary":
        # u ((1 + zeta z)/2)^k times a Blaschke product: |b| = 1 only at
        # conj(zeta), where 1 - |b|^2 has a double zero, so the mate has
        # one boundary zero of multiplicity 1.
        k = int(rng.integers(1, 4))
        nb = int(rng.integers(0, 4))
        zeta = np.exp(2j * np.pi * rng.random())
        num, den = _blaschke(rng, nb, 0.25, 0.8)
        for _ in range(k):
            num = np.convolve(num, [0.5, 0.5 * zeta])
        out["boundary_zero"] = _pairs([np.conj(zeta)])[0]
        out["power"] = k
        # A strict 2-isometry exactly when the symbol is a rotation of
        # (1 + z)/2: the mate's only zero is then the boundary zero and
        # its multiplicity equals deg b.
        out["expected_order"] = 2 if (k == 1 and nb == 0) else None
    else:
        if kind == "invalid":
            out["invalid"] = _block_pick(seed, "corpus", index, _INVALID_KINDS, salt=3)
        # pole count 0..degree, drawn in quarters so blocks balance it too
        n_poles = round(degree * _block_pick(seed, "corpus", index, (0, 1, 2, 3, 4), salt=4) / 4)
        invalid = out.get("invalid")
        if invalid == "extreme":
            num, den = _blaschke(rng, int(rng.integers(1, 4)), 0.2, 0.8)
        elif invalid == "pole_in_disk":
            num, den = _generic(rng, degree, n_poles, sup=None)
            den = np.convolve(den, [1.0, -1.0 / (rng.uniform(0.3, 0.9) * np.exp(2j * np.pi * rng.random()))])
            num = num * (0.8 / np.sum(np.abs(num)))
        else:
            sup = rng.uniform(1.05, 1.5) if invalid else rng.uniform(0.6, 0.95)
            num, den = _generic(rng, degree, n_poles, sup)
        out["expected_order"] = None
    if "invalid" in out:
        out["expected_error"] = _EXPECTED_ERROR[out["invalid"]]
    out["num"] = _pairs(num)
    out["den"] = _pairs(den)
    out["degree"] = int(max(len(num), len(den)) - 1)
    out["f"] = _random_poly(rng, 6)
    out["g"] = _random_poly(rng, 5)
    out["points"] = _disk_points(rng, 2, 0.2, 0.9)
    return out


def _generic(rng: np.random.Generator, degree: int, n_poles: int, sup: float | None,
             pole_range: tuple[float, float] = (1.25, 4.0)) -> tuple[np.ndarray, np.ndarray]:
    """Complex numerator of the given degree over n_poles poles at random
    arguments, scaled so that sup|b| on the circle is ``sup``."""
    poles = rng.uniform(*pole_range, n_poles) * np.exp(2j * np.pi * rng.random(n_poles))
    den = _den_from_poles(poles)
    num = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    if sup is not None:
        num = num * (sup / _sup(num, den))
    return num, den


def gram_deg8_symbol() -> tuple[list, list]:
    """The fixed degree-8 rational of the gram rotation, sup|b| = 0.8."""
    num, den = _generic(np.random.default_rng(8), 8, 4, 0.8, pole_range=(1.5, 3.0))
    return _pairs(num), _pairs(den)


def sweep_symbol(seed: int, degree: int) -> tuple[list, list]:
    """A generic valid symbol of the given degree for the mate sweep."""
    num, den = _generic(np.random.default_rng([seed, 99, degree]), degree, degree // 2, 0.8)
    return _pairs(num), _pairs(den)


def _gram(seed: int, index: int) -> dict:
    return {"symbol": _block_pick(seed, "gram", index, GRAM_SYMBOLS, salt=1), "size": GRAM_SIZE}


def _towers(seed: int, index: int) -> dict:
    n, stratum, phase_stratum = _block_pick(seed, "towers", index, _TOWER_BLOCK, salt=1)
    rng = _rng(seed, "towers", 0, index)
    lo, hi = OMEGA_RANGE
    modulus = lo + (hi - lo) / 4 * (stratum + rng.random())
    omega = modulus * np.exp(2j * np.pi * rng.random())
    lo, hi = PHASE_GAP, 2 * np.pi - PHASE_GAP
    phase = lo + (hi - lo) / 4 * (phase_stratum + rng.random())
    return {
        "n": int(n),
        "omega": _pairs([omega])[0],
        "phase": float(phase),
        "f": _random_poly(rng, 6),
    }


def _cli(seed: int, index: int) -> dict:
    k = _block_pick(seed, "cli", index, _CLI_CYCLE, salt=1)
    ident, group, argv, env, _ = CLI_MIX[k]
    return {"id": ident, "group": group, "argv": list(argv), "env": dict(env)}


def make(workload: str, seed: int, index: int) -> dict:
    """The index-th query of ``workload`` for ``seed``; index -1 is the
    cold query that set-up runs before timing starts."""
    return {"corpus": _corpus, "gram": _gram, "towers": _towers, "cli": _cli}[workload](
        seed, index % 10**9
    )


def describe(workload: str, queries: list[dict]) -> dict:
    """Input properties of the queries a run attempted."""
    total = max(len(queries), 1)

    def share(count: int) -> float:
        return round(count / total, 4)

    if workload == "corpus":
        degrees = Counter(q["degree"] for q in queries)
        kinds = Counter(q["kind"] for q in queries)
        invalid = Counter(q["invalid"] for q in queries if "invalid" in q)
        powers = Counter(q["power"] for q in queries if "power" in q)
        return {
            "queries": len(queries),
            "degree_histogram": {str(d): degrees[d] for d in sorted(degrees)},
            "share_boundary_zero": share(kinds["boundary"]),
            "boundary_zero_multiplicities": {"1": kinds["boundary"]},
            "boundary_symbol_powers": {str(k): powers[k] for k in sorted(powers)},
            "share_invalid": share(kinds["invalid"]),
            "invalid_kinds": dict(sorted(invalid.items())),
            "gram_n_max": 2 * 16 + 26,
        }
    if workload == "gram":
        symbols = Counter(q["symbol"] for q in queries)
        return {
            "queries": len(queries),
            "symbols": dict(sorted(symbols.items())),
            "share_boundary_zero": share(sum(symbols[s] for s in ("half", "model1", "model2", "model3"))),
            "boundary_zero_multiplicities": {
                "1": symbols["half"] + symbols["model1"], "2": symbols["model2"], "3": symbols["model3"],
            },
            "share_invalid": 0.0,
            "gram_n": GRAM_SIZE,
        }
    if workload == "towers":
        depths = Counter(q["n"] for q in queries)
        mods = [math.hypot(*q["omega"]) for q in queries]
        return {
            "queries": len(queries),
            "degree_histogram": {str(n): depths[n] for n in sorted(depths)},
            "share_boundary_zero": 1.0 if queries else 0.0,
            "boundary_zero_multiplicities": {str(n): depths[n] for n in sorted(depths)},
            "omega_modulus_range": [round(min(mods), 4), round(max(mods), 4)] if mods else [],
            "share_invalid": 0.0,
            "gram_n_max": 2 * 4 + 2 * (2 * 4 + 2) + 10,
        }
    groups = Counter(q["group"] for q in queries)
    ids = Counter(q["id"] for q in queries)
    return {
        "queries": len(queries),
        "groups": dict(sorted(groups.items())),
        "share_invalid": share(groups["reject"]),
        "share_known_defect_inputs": share(sum(v for k, v in ids.items() if k.startswith("defect_"))),
        "gram_n": 32,
    }
