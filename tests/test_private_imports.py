"""Each module keeps its private names to itself, apart from two known imports."""

import ast
from pathlib import Path

import goluzin_lab

# (module, name, importer)
ALLOWED = {("theta", "_as_array", "torus"), ("torus", "_dz_Q_D_landen", "inequalities")}


def _private_imports():
    """Every ``from .<module> import _name`` in the package, as (module, name, importer)."""
    for path in sorted(Path(goluzin_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                yield from ((node.module, a.name, path.stem) for a in node.names if a.name.startswith("_"))


def test_no_private_import_across_modules():
    assert sorted(set(_private_imports()) - ALLOWED) == []
