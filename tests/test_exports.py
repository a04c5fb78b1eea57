import importlib

import pytest

import goluzin_lab

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
