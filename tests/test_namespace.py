"""The package namespace: ``hbspace.<name>`` loads its module on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import hbspace

NAMES = [name for name in hbspace.__all__ if name != "__version__"]


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("name", NAMES)
def test_every_public_name_is_the_object_of_its_home_module(name):
    home = importlib.import_module(f"hbspace.{hbspace._HOME[name]}")
    assert getattr(hbspace, name) is vars(home)[name]


def test_star_import_binds_every_public_name():
    scope = {}
    exec("from hbspace import *", scope)
    assert set(hbspace.__all__) <= set(scope)
    assert all(scope[name] is getattr(hbspace, name) for name in hbspace.__all__)


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert set(hbspace.__all__) <= set(dir(hbspace))
    with pytest.raises(AttributeError, match="no_such_name"):
        hbspace.no_such_name  # noqa: B018
    assert not hasattr(hbspace, "no_such_name")


def test_import_hbspace_loads_no_submodule():
    out = _run("import sys, hbspace\n"
               "print(hbspace.__version__)\n"
               "print(sorted(m for m in sys.modules if m.startswith('hbspace.')))\n")
    assert out.splitlines() == ["0.1.0", "[]"]


def test_a_module_attribute_patched_before_first_access_is_what_the_package_returns():
    # the benchmark's tracer and its checks rely on this: they replace module
    # attributes, then call hbspace.<name>
    out = _run("import json\n"
               "import hbspace\n"
               "from hbspace import isometry, polynomials\n"
               "isometry.isometry_order = marker = object()\n"
               "polynomials.Poly = poly = object()\n"
               "print(json.dumps([hbspace.isometry_order is marker, hbspace.Poly is poly,\n"
               "                  hbspace.isometry_order is marker]))\n")
    assert json.loads(out) == [True, True, True]
