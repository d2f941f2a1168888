"""Pseudospectral geodesic solvers for regularized transport metrics on torus densities."""

__version__ = "0.1.0"


def __getattr__(name):
    # perfbench/spans.py imports OptSettings from the package top level; it
    # is resolved on use, so that importing a submodule (such as densgeo.cli)
    # does not import matching. Every other name is imported from its module
    # (densgeo.spectral, densgeo.geodesic, ...)
    if name == "OptSettings":
        from .matching import OptSettings
        return OptSettings
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
