"""The benchmark imports public names from swenctrl; a rename or deletion
there would make every benchmark operation fail, so check them here."""

import ast
import importlib
from pathlib import Path

OPS = Path(__file__).resolve().parents[1] / "benchmark" / "ops.py"


def test_benchmark_ops_swenctrl_imports_resolve():
    tree = ast.parse(OPS.read_text(encoding="utf-8"))
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "swenctrl"
        for alias in node.names
    ]
    assert imports, "benchmark/ops.py imports nothing from swenctrl"
    missing = [f"{module}.{name}" for module, name in imports
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
