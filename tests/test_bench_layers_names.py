"""Every name tests/bench_layers.py takes from densgeo and from the test
modules still resolves.

bench_layers.py is not collected (its name does not match test_*.py), so a
refactor that renames or removes a helper it calls would break it unseen.
It is read with ast, not imported, as test_benchmark_hooks.py reads
perfbench/.
"""
import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().with_name("bench_layers.py")
TREE = ast.parse(BENCH.read_text(), str(BENCH))
IMPORTS = [node for node in ast.walk(TREE) if isinstance(node, ast.ImportFrom)]
# the names bench_layers.py binds densgeo's modules to (ge, ma, sp)
MODULES = {alias.asname or alias.name: f"densgeo.{alias.name}"
           for node in IMPORTS if node.module == "densgeo"
           for alias in node.names}
ATTRIBUTES = sorted({
    (MODULES[node.value.id], node.attr) for node in ast.walk(TREE)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    and node.value.id in MODULES})
FROM_TESTS = sorted((node.module, alias.name) for node in IMPORTS
                    if node.module and node.module.startswith("test_")
                    for alias in node.names)


def test_names_found():
    assert set(MODULES) == {"ge", "ma", "sp"}
    assert ("densgeo.matching", "_jacobian") in ATTRIBUTES
    assert ("test_matching", "fd_jacobian") in FROM_TESTS


@pytest.mark.parametrize("module,name", ATTRIBUTES + FROM_TESTS)
def test_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
