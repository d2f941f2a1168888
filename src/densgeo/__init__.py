"""Pseudospectral geodesic solvers for regularized transport metrics on torus densities."""

# perfbench/spans.py imports OptSettings from the package top level; every
# other name is imported from its module (densgeo.spectral, densgeo.geodesic, ...)
from .matching import OptSettings

__version__ = "0.1.0"
