"""The numerics are pinned: tolerances, grids and probe sizes take no parameter."""

import ast
import dataclasses
import inspect
from pathlib import Path

import hbspace
from hbspace import DEFAULT_TOLERANCES, HbSpace, Tolerances, isometry_order
from hbspace.polynomials import Poly, RationalFn

PINNED = {"tol", "grid_n", "probe_degree", "cap", "steps", "rel_tol"}


def test_no_function_takes_a_tolerance_grid_or_probe_parameter():
    found = []
    for path in sorted(Path(hbspace.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                found += [(path.name, node.lineno, p.arg) for p in params
                          if p is not None and p.arg in PINNED]
    assert found == []
    assert not hasattr(Tolerances, "replace")
    assert not hasattr(HbSpace(Poly([0.5, 0.5])), "tol")


def test_default_tolerances_keep_their_values():
    assert dataclasses.asdict(DEFAULT_TOLERANCES) == {
        "root_residual": 1e-11, "gcd": 1e-9, "pole": 1e-13, "mate": 1e-9,
        "boundary": 1e-7, "phase": 1e-8, "iso": 1e-8, "strict": 1e-3,
        "gram": 1e-8,
    }


def test_reports_carry_the_pinned_tolerances():
    for b in (Poly([0.5, 0.5]), RationalFn(Poly([0, 1]), Poly([2, -1]))):
        space = HbSpace(b)
        report = isometry_order(space)
        assert report.tol_iso == DEFAULT_TOLERANCES.iso
        assert report.tol_strict == DEFAULT_TOLERANCES.strict
        assert space.norm_identities_check()["tolerance"] == DEFAULT_TOLERANCES.gram


def test_parameters_no_caller_sets_are_gone():
    # parameters that no call in src, bench, the README or the CLI sets
    from hbspace.extension import extend, kernel_factorization_check, mobius_normalize
    from hbspace.factorization import _disk_pole_check, circle_grid, inner_outer
    from hbspace.isometry import rank_one_identity_check
    from hbspace.lattice import _orbit_matrix, subspace_distance

    removed = [
        (rank_one_identity_check, "degree"), (subspace_distance, "degree"),
        (_orbit_matrix, "degree"), (_orbit_matrix, "orbit"),
        (HbSpace.norm_identities_check, "degree"),
        (inner_outer, "rng"), (_disk_pole_check, "rng"),
        (RationalFn.poles, "rng"),
        (extend, "space"), (RationalFn.__init__, "reduce"),
        (RationalFn.derivative_at, "order"), (subspace_distance, "orbit"),
        (kernel_factorization_check, "points"), (circle_grid, "n"),
        (mobius_normalize, "alpha"),
    ]
    assert [(fn.__qualname__, name) for fn, name in removed
            if name in inspect.signature(fn).parameters] == []
    assert "cluster" not in {f.name for f in dataclasses.fields(Tolerances)}
    # RationalFn keeps evaluation, calculus and ==; its field algebra, the
    # second lowest-terms path and the hash that disagreed with == are gone
    gone = ["_coerce", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "reduce"]
    assert [name for name in gone if name in vars(RationalFn)] == []
    assert RationalFn.__hash__ is None


def test_second_copies_of_a_decision_are_gone():
    # the ball rule, the a(0) check, the mate JSON, the mate residual, the
    # kernel, a member's denominator, the Toeplitz builder, the circle grid
    # and the circle rule's scan step each have one home; the tail degree is
    # read only inside space
    from hbspace import cli, errors, extension, factorization, lattice, space

    assert [n for n in ("NegativeDensityError", "SingularSystemError") if hasattr(errors, n)] == []
    assert [n for n in ("norm_sq", "kernel_fn", "backward_shift") if n in vars(HbSpace)] == []
    assert not hasattr(extension, "rotate")
    assert not hasattr(cli, "_zeros_json")
    assert not hasattr(factorization, "_finalize")
    assert not hasattr(space, "degree_for_tail")
    assert [n for n in ("_backward_rational", "_DECAY_GRID") if hasattr(space, n)] == []
    assert [n for n in ("_assemble_kernel_fn", "_rational_pair") if n in vars(HbSpace)] == []
    assert "step" not in inspect.signature(factorization._circle_zeros).parameters
    assert not hasattr(lattice, "sliding_window_view")


def test_point_rules_have_one_home():
    # the Horner bound, the pole rule and the zero-order rule live in polynomials
    from hbspace import polynomials

    assert not hasattr(polynomials, "_residual_scale")
    assert "roots" not in vars(Poly)
    reads = []
    for path in sorted(Path(hbspace.__file__).parent.glob("*.py")):
        reads += [(path.name, node.attr) for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "TOL" and node.attr in ("pole", "boundary")]
    assert sorted(reads) == [("polynomials.py", "boundary"), ("polynomials.py", "pole")]
