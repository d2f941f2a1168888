"""Analytic initial-data presets; part of the CLI contract.

Raw formulas, returned as grid values:
  uniform                          1
  zero                             0
  cos-bump amplitude a mode m      1 + a*cos(m*x)         (|a| < 1)
  sin-bump amplitude a mode m      a*sin(m*x)
  gauss-like center c width w      0.5 + exp((cos(x-c)-1)/w^2)
                                   (2-D: cos(x-c)+cos(y-c)-2 in the exponent)

Every parameter must be finite, and a mode must be an integer with
|m| <= n//3, inside the dealiased band: a higher mode is sampled as an alias
(mode 40 as mode 8 on n = 32) or as zero (sin-bump at the Nyquist mode).
The formulas are not normalized here: the CLI's `_load_scalar` normalizes a
preset and a field file alike, a density to unit mass (it must be positive)
and a momentum potential to mean zero.
"""
from __future__ import annotations

import math

import numpy as np

from .spectral import Grid


class PresetError(ValueError):
    """Unknown preset or parameters out of the documented range."""


def _parse_kv(tokens: list) -> dict:
    if len(tokens) % 2 != 0:
        raise PresetError(f"preset arguments must come in pairs: {tokens}")
    out = {}
    for name, value in zip(tokens[::2], tokens[1::2]):
        try:
            number = float(value)
        except ValueError:
            raise PresetError(f"bad numeric value {value!r} for {name!r}") from None
        if not math.isfinite(number):
            raise PresetError(f"{name!r} must be finite, got {value!r}")
        out[name] = number
    return out


def _mode(grid: Grid, args: dict) -> int:
    m = args.get("mode", 1.0)
    if not m.is_integer():
        raise PresetError(f"mode must be an integer, got {m}")
    if abs(m) > grid.n // 3:
        raise PresetError(f"mode must satisfy |m| <= n//3 = {grid.n // 3} "
                          f"(the dealiased band), got {int(m)}")
    return int(m)


def raw_preset(grid: Grid, spec: str) -> np.ndarray:
    tokens = spec.split()
    if not tokens:
        raise PresetError("empty preset")
    name, args = tokens[0], _parse_kv(tokens[1:])
    x = grid.coords[0]
    if name == "uniform":
        return np.ones(grid.shape)
    if name == "zero":
        return np.zeros(grid.shape)
    if name == "cos-bump":
        a, m = args.get("amplitude", 0.5), _mode(grid, args)
        if abs(a) >= 1.0:
            raise PresetError(f"cos-bump amplitude must satisfy |a| < 1, got {a}")
        return 1.0 + a * np.cos(m * x)
    if name == "sin-bump":
        a, m = args.get("amplitude", 0.5), _mode(grid, args)
        return a * np.sin(m * x)
    if name == "gauss-like":
        c, w = args.get("center", np.pi), args.get("width", 0.7)
        if w <= 0.0:
            raise PresetError(f"gauss-like width must be positive, got {w}")
        expo = np.cos(x - c) - 1.0
        if grid.dim == 2:
            expo = expo + np.cos(grid.coords[1] - c) - 1.0
        return 0.5 + np.exp(expo / w ** 2)
    raise PresetError(f"unknown preset {name!r}")
