"""Every name the benchmark harness imports from densgeo must resolve.

perfbench/ is read with ast, not imported, so the check runs without the
harness's bootstrap. `from densgeo import X` takes the package attribute X or,
failing that, the submodule densgeo.X; a trim of densgeo/__init__.py that drops
a name the harness still uses fails here instead of in the benchmark's traced
mode.
"""
import ast
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import densgeo

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def harness_imports():
    """(file, module, name) of every `from densgeo[.sub] import name`."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "densgeo"):
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
    return found


IMPORTS = harness_imports()


def test_harness_imports_found():
    assert ("spans.py", "densgeo", "OptSettings") in IMPORTS


@pytest.mark.parametrize("source,module,name", IMPORTS)
def test_harness_import_resolves(source, module, name):
    assert (hasattr(importlib.import_module(module), name)
            or importlib.util.find_spec(f"{module}.{name}") is not None), (
        f"perfbench/{source}: from {module} import {name} does not resolve")


def test_cli_import_leaves_the_command_modules_out():
    """`import densgeo.cli` imports no module that only one command runs,
    so a command's start-up compiles only what it uses."""
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(densgeo.__file__).parents[1]))
    code = ("import sys, densgeo.cli; print(' '.join(sorted("
            "m for m in sys.modules if m.startswith('densgeo'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "densgeo.cli" in loaded
    assert not loaded & {"densgeo.matching", "densgeo.epdiff",
                         "densgeo.validation"}
