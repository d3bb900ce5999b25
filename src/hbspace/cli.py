"""Command line interface.

Every subcommand reads symbols as JSON (inline or ``@file``) and writes
a single JSON document to stdout with sorted keys, so runs are
reproducible and diffable.  Exit codes: 0 on success, 2 when the input
is rejected, 3 when a numerical verification fails.

Symbols accept three JSON spellings: a bare coefficient list
``[0.5, 0.5]`` (lowest degree first, entries numbers or [re, im]
pairs), ``{"coeffs": [[re, im], ...]}``, or a full rational
``{"num": ..., "den": ...}``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import run_all
from .config import resolve_seed
from .errors import InputFormatError, NumericalError, ValidationError
from .extension import build_model, extend, kernel_factorization_check, mobius_normalize
from .isometry import isometry_order
from .lattice import classify
from .polynomials import Poly, RationalFn, complex_from_json, complex_to_json
from .space import HbSpace

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _poly_from(obj) -> Poly:
    if isinstance(obj, dict):
        return Poly.from_json(obj)
    if isinstance(obj, list):
        return Poly([complex_from_json(x) for x in obj])
    raise InputFormatError(f"bad polynomial {obj!r}")


def parse_symbol(text: str) -> RationalFn:
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text()
        except OSError as exc:
            raise InputFormatError(f"cannot read symbol file: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"symbol is not valid JSON: {exc}")
    if isinstance(data, list):
        return RationalFn(_poly_from(data), Poly([1]))
    if isinstance(data, dict):
        if "num" in data and "den" in data:
            den = _poly_from(data["den"])
            if den.is_zero:
                raise InputFormatError("symbol denominator is the zero polynomial")
            return RationalFn(_poly_from(data["num"]), den)
        if "coeffs" in data:
            return RationalFn(Poly.from_json(data), Poly([1]))
    raise InputFormatError(
        "symbol JSON must be a coefficient list, {'coeffs': ...}, "
        "or {'num': ..., 'den': ...}"
    )


def parse_point(text: str) -> complex:
    try:
        z = complex(text.replace(" ", ""))
    except ValueError:
        raise InputFormatError(
            f"bad complex literal {text!r}; use forms like 0.8 or 0.3-0.2j"
        )
    if not cmath.isfinite(z):
        raise InputFormatError(f"non-finite complex literal {text!r}")
    return z


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _space(args) -> HbSpace:
    rng = np.random.default_rng(resolve_seed(args.seed))
    return HbSpace(parse_symbol(args.symbol), rng=rng)


def _zeros_json(space: HbSpace) -> list:
    return [
        {"point": complex_to_json(lam), "multiplicity": int(m)}
        for lam, m in space.boundary_zeros
    ]


def cmd_mate(args) -> int:
    space = _space(args)
    _emit({
        "a": space.a.to_json(),
        "a_at_origin": complex_to_json(space.a(0)),
        "boundary_zeros": _zeros_json(space),
        "norm_b_sq": space.norm_b_sq,
        "residual": space.mate.residual,
    })
    return EXIT_OK


def cmd_kernel(args) -> int:
    space = _space(args)
    lam = parse_point(args.at)
    fn = space.kernel_derivative(lam, args.order)
    payload = {
        "at": complex_to_json(lam),
        "function": fn.to_json(),
        "order": args.order,
    }
    if args.point is not None:
        payload["value"] = complex_to_json(fn(parse_point(args.point)))
    _emit(payload)
    return EXIT_OK


def cmd_gram(args) -> int:
    space = _space(args)
    if args.size < 1:
        raise InputFormatError("gram size must be at least 1")
    g = space.gram_matrix(args.size)
    _emit({
        "matrix": [[complex_to_json(v) for v in row] for row in g],
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(g))),
        "size": args.size,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    space = _space(args)
    identities = space.norm_identities_check()
    plus_res = max(
        space.plus_residual(space.vector(Poly([0] * k + [1])))
        for k in range(7)
    )
    report = isometry_order(space)
    ok = identities["ok"] and space.mate.residual <= space.tol.mate
    _emit({
        "isometry": report.to_json(),
        "mate_residual": space.mate.residual,
        "norm_identities": identities,
        "ok": bool(ok),
        "plus_residual": plus_res,
    })
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_extend(args) -> int:
    b0 = parse_symbol(args.symbol)
    if args.normalize:
        b0 = mobius_normalize(b0, b0(0))
    st = extend(b0, omega=parse_point(args.omega), t=args.phase)
    check = kernel_factorization_check(b0, st)
    payload = st.to_json()
    payload["kernel_update_residual"] = check["max_residual"]
    _emit(payload)
    return EXIT_OK


def cmd_model(args) -> int:
    out = build_model(
        args.steps,
        omega=parse_point(args.omega),
        t=args.phase,
        verify=args.verify,
    )
    _emit(out.to_json())
    return EXIT_OK


def cmd_classify(args) -> int:
    space = _space(args)
    desc = classify(space, parse_symbol(args.generator))
    _emit(desc.to_json())
    return EXIT_OK


def cmd_cyclic(args) -> int:
    space = _space(args)
    desc = classify(space, parse_symbol(args.generator))
    _emit({
        "cyclic": desc.form == "full",
        "description": desc.description,
        "form": desc.form,
    })
    return EXIT_OK


def cmd_suite(args) -> int:
    seed = resolve_seed(args.seed)
    results = run_all(seed)
    for r in results:
        print(r.line(), file=sys.stderr)
    _emit({
        "all_passed": all(r.passed for r in results),
        "criteria": [r.to_json() for r in results],
        "seed": seed,
    })
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hb",
        description="Rational de Branges-Rovnyak space toolkit",
    )
    parser.add_argument("--version", action="version", version=f"hb {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--seed", type=int, default=None,
        help="root-finder seed; the HB_SEED environment variable wins",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, symbol=True, parents=(common,)):
        p = sub.add_parser(name, help=help_text, parents=list(parents))
        if symbol:
            p.add_argument("--symbol", "-b", required=True,
                           help="symbol as JSON or @file")
        p.set_defaults(fn=fn)
        return p

    add("mate", cmd_mate, "Pythagorean mate, boundary zeros, circle residual")

    p = add("kernel", cmd_kernel, "reproducing or derivative kernel as a rational function")
    p.add_argument("--at", required=True, help="kernel anchor point")
    p.add_argument("--order", type=int, default=0, help="derivative order")
    p.add_argument("--point", default=None, help="also evaluate at this point")

    p = add("gram", cmd_gram, "Gram matrix of the monomials")
    p.add_argument("--size", type=int, required=True)

    add("verify", cmd_verify, "norm identities, mate residual, isometry report")

    p = add("extend", cmd_extend, "one rank-one extension step")
    p.add_argument("--omega", default="1", help="extension weight (complex)")
    p.add_argument("--phase", type=float, default=float(np.pi),
                   help="extension phase t")
    p.add_argument("--normalize", action="store_true",
                   help="pre-compose a disk automorphism so b(0) = 0")

    p = add("model", cmd_model, "n-step extension tower from b = 0", symbol=False)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--omega", default="1", help="extension weight (complex)")
    p.add_argument("--phase", type=float, default=float(np.pi))
    p.add_argument("--verify", action="store_true",
                   help="also check the expected isometry order")

    p = add("classify", cmd_classify, "invariant subspace generated by a function")
    p.add_argument("--generator", "-g", required=True,
                   help="generator as JSON or @file")

    p = add("cyclic", cmd_cyclic, "is the generator cyclic for the shift")
    p.add_argument("--generator", "-g", required=True,
                   help="generator as JSON or @file")

    add("suite", cmd_suite, "run the acceptance battery", symbol=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__},
                         sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__},
                         sort_keys=True), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
