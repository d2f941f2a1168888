"""Field files, manifests, CSV output.

Field file layout: one UTF-8 JSON header line (dim, n, kind, components,
byte_order) terminated by a newline, followed by the raw little-endian float64
payload, row-major, components concatenated. The write/read round trip is
bit-exact.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from .spectral import Grid, ScalarField, VectorField, make_grid


class FieldFormatError(ValueError):
    """Corrupt or inconsistent field file."""


def write_field(path, field) -> None:
    if isinstance(field, ScalarField):
        kind, comps = "scalar", (field.values,)
    elif isinstance(field, VectorField):
        kind, comps = "vector", field.components
    else:
        raise TypeError(f"cannot write {type(field).__name__}")
    grid = field.grid
    header = {
        "dim": grid.dim,
        "n": grid.n,
        "kind": kind,
        "components": len(comps),
        "byte_order": "little",
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        for c in comps:
            fh.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def read_field(path, expected_grid: Grid | None = None):
    with open(path, "rb") as fh:
        line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FieldFormatError(f"{path}: bad header: {exc}") from None
    if not isinstance(header, dict):
        raise FieldFormatError(f"{path}: bad header: not a JSON object")
    for key in ("dim", "n", "kind", "components", "byte_order"):
        if key not in header:
            raise FieldFormatError(f"{path}: header missing {key!r}")
    if header["byte_order"] != "little":
        raise FieldFormatError(f"{path}: unsupported byte order")
    for key in ("dim", "n", "components"):
        # a JSON integer; bool is a subclass of int in Python
        if type(header[key]) is not int:
            raise FieldFormatError(
                f"{path}: header {key!r} must be an integer, "
                f"got {header[key]!r}")
    try:
        grid = make_grid(header["dim"], header["n"])
    except ValueError as exc:
        raise FieldFormatError(f"{path}: bad header: {exc}") from None
    ncomp = header["components"]
    if expected_grid is not None and grid != expected_grid:
        raise FieldFormatError(
            f"{path}: grid {grid} does not match expected {expected_grid}"
        )
    expected_bytes = ncomp * grid.npoints * 8
    if len(payload) != expected_bytes:
        raise FieldFormatError(
            f"{path}: payload has {len(payload)} bytes, expected {expected_bytes}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise FieldFormatError(f"{path}: payload holds non-finite values")
    comps = [
        flat[i * grid.npoints:(i + 1) * grid.npoints].reshape(grid.shape).copy()
        for i in range(ncomp)
    ]
    if header["kind"] == "scalar":
        if ncomp != 1:
            raise FieldFormatError(f"{path}: scalar file with {ncomp} components")
        return ScalarField(grid, comps[0])
    if header["kind"] == "vector":
        if ncomp != grid.dim:
            raise FieldFormatError(
                f"{path}: vector file with {ncomp} components on dim {grid.dim}"
            )
        return VectorField(grid, comps)
    raise FieldFormatError(f"{path}: unknown kind {header['kind']!r}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def csv_line(cells) -> str:
    """One LF-terminated CSV line, '.' decimal separator, floats as the
    shortest decimal that round-trips a float64 (repr)."""
    return ",".join(repr(float(c)) if isinstance(c, (float, np.floating))
                    else str(c) for c in cells) + "\n"


def write_csv(path, header: list, rows) -> None:
    """The CSV file of `csv_line`s of the header and each row."""
    with open(path, "w", newline="\n") as fh:
        fh.writelines(map(csv_line, [header, *rows]))


def write_json(path, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
