import dataclasses
import importlib
import pathlib
import re

import pytest

import goluzin_lab
from goluzin_lab.quadrature import QuadratureSpec

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["catalog", "elliptic", "inequalities", "maps", "quadrature", "theta", "torus"]


def test_every_exported_name_resolves():
    assert len(set(goluzin_lab.__all__)) == len(goluzin_lab.__all__)
    assert [n for n in goluzin_lab.__all__ if not hasattr(goluzin_lab, n)] == []


def test_star_import():
    namespace = {}
    exec("from goluzin_lab import *", namespace)
    assert set(goluzin_lab.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"goluzin_lab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_readme_names_every_settable_value():
    # the settable-value count of ROADMAP aim 2, as README states it
    text = " ".join(README.read_text().split())
    found = re.search(r"The settable values are `QuadratureSpec\(([^)]*)\)`", text)
    assert found is not None
    named = [name.strip() for name in found.group(1).split(",")]
    assert named == [f.name for f in dataclasses.fields(QuadratureSpec)]
    assert len(named) == 3
