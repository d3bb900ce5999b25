"""Command line interface.

Every subcommand reads symbols as JSON (inline or ``@file``) and writes
one strict JSON document to stdout with sorted keys, so runs are
reproducible and diffable.  Exit codes: 0 on success, 2 when the input
is rejected (a malformed command line included), 3 when a numerical
verification fails.  Errors go to stderr as JSON ``{"error", "type"}``.

Symbols accept three JSON spellings: a bare coefficient list
``[0.5, 0.5]`` (lowest degree first), ``{"coeffs": [...]}``, or a full
rational ``{"num": ..., "den": ...}``.  In each, every entry is a number
or an [re, im] pair of numbers, read by ``complex_from_json``; booleans
are rejected.  ``hb mate`` prints ``MateResult.to_json`` with
``a_at_origin`` and ``norm_b_sq`` added.  Each handler imports the
modules it runs, so a subcommand loads only what it uses.

``main(argv)`` is the in-process API: it returns the exit code.  The
``hb`` script and ``python -m hbspace.cli`` enter through ``run()``,
which flushes the output and ends the process without interpreter
teardown.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .config import resolve_seed
from .errors import InputFormatError, NumericalError, ValidationError, VerificationError
from .polynomials import Poly, RationalFn, complex_to_json

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def parse_symbol(text: str) -> RationalFn:
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read symbol file: {exc}")
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormatError(f"symbol is not valid JSON: {exc}")
    return RationalFn.from_json(data)


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
    try:  # strict JSON: a value that overflowed to inf or NaN exits 3, and stdout stays empty
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise VerificationError(f"output holds a non-finite value: {exc}") from None
    print(text)


def _space(args):
    # the seed first, so a bad HB_SEED is reported before a bad symbol, and
    # the space module only once the symbol parses
    seed = resolve_seed(args.seed)
    b = parse_symbol(args.symbol)
    from .space import HbSpace

    return HbSpace(b, rng=seed)


def cmd_mate(args) -> int:
    space = _space(args)
    payload = space.mate.to_json()
    payload.update(a_at_origin=complex_to_json(space.a(0)), norm_b_sq=space.norm_b_sq)
    _emit(payload)
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
    g = space.gram_matrix(args.size)
    _emit({
        "matrix": [[complex_to_json(v) for v in row] for row in g],
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(g))),
        "size": args.size,
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    from .isometry import isometry_order

    space = _space(args)
    identities = space.norm_identities_check()
    plus_res = max(
        space.plus_residual(space.vector(Poly([0] * k + [1])))
        for k in range(7)
    )
    report = isometry_order(space)
    ok = identities["ok"]
    _emit({
        "isometry": report.to_json(),
        "mate_residual": space.mate.residual,
        "norm_identities": identities,
        "ok": bool(ok),
        "plus_residual": plus_res,
    })
    return EXIT_OK if ok else EXIT_NUMERICAL


def cmd_extend(args) -> int:
    from .extension import extend, kernel_factorization_check, mobius_normalize

    b0 = parse_symbol(args.symbol)
    if args.normalize:
        b0 = mobius_normalize(b0)
    st = extend(b0, omega=parse_point(args.omega), t=args.phase)
    check = kernel_factorization_check(b0, st)
    payload = st.to_json()
    payload["kernel_update_residual"] = check["max_residual"]
    _emit(payload)
    return EXIT_OK


def cmd_model(args) -> int:
    from .extension import build_model

    out = build_model(
        args.steps,
        omega=parse_point(args.omega),
        t=args.phase,
        verify=args.verify,
    )
    _emit(out.to_json())
    return EXIT_OK


def cmd_classify(args) -> int:
    from .lattice import classify

    space = _space(args)
    desc = classify(space, parse_symbol(args.generator))
    _emit(desc.to_json())
    return EXIT_OK


def cmd_cyclic(args) -> int:
    from .lattice import classify

    space = _space(args)
    desc = classify(space, parse_symbol(args.generator))
    _emit({
        "cyclic": desc.form == "full",
        "description": desc.description,
        "form": desc.form,
    })
    return EXIT_OK


def cmd_suite(args) -> int:
    from .acceptance import run_all

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


class _Parser(argparse.ArgumentParser):
    """A malformed command line is rejected input like any other."""

    def error(self, message):
        raise InputFormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    def add(name, fn, help_text, symbol=True, seed=True):
        p = sub.add_parser(name, help=help_text, parents=[common] if seed else [])
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

    p = add("extend", cmd_extend, "one rank-one extension step", seed=False)
    p.add_argument("--omega", default="1", help="extension weight (complex)")
    p.add_argument("--phase", type=float, default=float(np.pi),
                   help="extension phase t")
    p.add_argument("--normalize", action="store_true",
                   help="pre-compose a disk automorphism so b(0) = 0")

    p = add("model", cmd_model, "n-step extension tower from b = 0", symbol=False, seed=False)
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
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValidationError, NumericalError) as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__},
                         sort_keys=True), file=sys.stderr)
        return EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_NUMERICAL


def run() -> NoReturn:
    """The process entry point: ``main()``, a flush of stdout and stderr,
    then ``os._exit`` with main's code.

    Everything the process owes the caller is written once both streams
    are flushed, so the interpreter's teardown (its final collection and
    module clean-up, about 20 ms with numpy loaded) is skipped; atexit
    handlers do not run either.  A write that fails with OSError, from a
    reader that closed the pipe or a full disk, exits 1 without a
    traceback; a broken pipe is not reported, any other such error is
    reported on stderr as JSON when stderr takes it.  A stream that is
    None is skipped.  A SystemExit (``--help``, ``--version``) and any
    other exception leave through the interpreter's normal exit.
    """
    failed = None
    try:
        code = main()
    except OSError as exc:
        failed = exc
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except OSError as exc:
            failed = failed or exc
    if failed is not None:
        code = 1
        if not isinstance(failed, BrokenPipeError):
            try:
                print(json.dumps({"error": f"cannot write the output: {failed}",
                                  "type": type(failed).__name__}, sort_keys=True),
                      file=sys.stderr, flush=True)
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
