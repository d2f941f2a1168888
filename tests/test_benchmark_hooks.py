"""The benchmark harness's hooks into densgeo still see the program.

perfbench/ is read with ast, not imported, as in test_package_surface.py. The
tracer wraps the (module, function) pairs of its SPANS list, skipping a name
the module lacks, and every numpy.fft transform; `solver_alloc_mb` patches
each workload's solver on its module and fails the run if the CLI never
calls it there. A refactor that renames a span, calls a solver by a local
name or binds a transform at import time would lose a metric; each such
loss fails here instead.
"""
import ast
import importlib
import pathlib

import numpy as np
import pytest

from densgeo import cli, spectral as sp

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def assigned(path, name):
    """The literal values assigned to `name` anywhere in a perfbench file."""
    tree = ast.parse((PERFBENCH / path).read_text(), path)
    return [ast.literal_eval(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == name
                    for t in node.targets)]


(SPANS,) = assigned("spans.py", "SPANS")
# the base class's placeholders are empty
WORKLOADS = [(command, tuple(solver)) for command, solver in
             zip(assigned("workloads.py", "command"),
                 assigned("workloads.py", "solver")) if command]


def test_harness_lists_found():
    assert ("geodesic", "shoot") in SPANS
    assert [c for c, _ in WORKLOADS] == ["shoot", "match", "epdiff-check"]


# spans on code that is gone: the EPDiff check carries the inverse map on the
# grid, with no point evaluation and no Newton inversion, and matching's one
# gradient is exact, with no finite-difference stencil; the tracer skips them
RETIRED = [("epdiff", "eval_periodic"), ("epdiff", "invert_map"),
           ("matching", "gradient_fd")]


@pytest.mark.parametrize("module,name", SPANS + [s for _, s in WORKLOADS])
def test_traced_name_resolves(module, name):
    found = getattr(importlib.import_module(f"densgeo.{module}"), name, None)
    if (module, name) in RETIRED:
        assert found is None, f"densgeo.{module}.{name} is retired"
    else:
        assert callable(found), f"densgeo.{module}.{name}"


TINY = {
    "shoot": """
[initial]
rho = cos-bump amplitude 0.3 mode 1
p = sin-bump amplitude 0.1 mode 1
""",
    "match": """
[initial]
rho = cos-bump amplitude 0.3 mode 1
[matching]
rho1 = cos-bump amplitude 0.3 mode 1
n_modes = 1
max_iter = 2
""",
    "epdiff-check": """
[initial]
rho = cos-bump amplitude 0.3 mode 1
p = sin-bump amplitude 0.1 mode 1
""",
}


@pytest.mark.parametrize("command,solver", WORKLOADS)
def test_cli_calls_solver_through_its_module(tmp_path, monkeypatch, command,
                                             solver):
    module = importlib.import_module(f"densgeo.{solver[0]}")
    original = getattr(module, solver[1])
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, solver[1], counted)
    config = tmp_path / "c.ini"
    config.write_text("[grid]\ndim = 1\nn = 16\n[metric]\nk = 1\n"
                      "[time]\nT = 0.02\ndt = 0.01\n" + TINY[command])
    assert cli.main([command, "--config", str(config), "--output-dir",
                     str(tmp_path / "out"), "--quiet"]) == 0
    assert calls, f"{command} does not call densgeo.{'.'.join(solver)}"


@pytest.mark.parametrize("dim", [1, 2])
def test_transforms_looked_up_at_call_time(monkeypatch, dim):
    called = []
    for name in ("rfft", "irfft", "fft", "ifft"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            called.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    ops = sp.operators(sp.make_grid(dim, 16))
    v = np.random.default_rng(dim).normal(size=(2,) + ops.grid.shape)
    for table in (ops, ops.band):
        called.clear()
        table.ifft(table.fft(v))
        assert called == (["rfft", "irfft"] if dim == 1
                          else ["rfft", "fft", "ifft", "irfft"])
