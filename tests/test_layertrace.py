"""The benchmark's layer tracer binds package functions by name; a rename
or deletion in the package must fail here rather than leave a traced run
without its layer."""

import importlib
import importlib.util
import pathlib

import pytest

LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", LAYERS, ids=[metric for _, _, metric, _ in LAYERS])
def test_layer_resolves(layer):
    module_name, path, _, _ = layer
    owner = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        assert callable(vars(getattr(owner, cls_name))[attr])
    else:
        assert callable(getattr(owner, path))
