"""Density-matrix file formats.

JSON document: {"dimA": n, "dimB": m, "re": [...], "im": [...]} with row-major
entry lists.  CSV alternative: a leading comment line "# dimA=<n> dimB=<m>", a
header row "re_0,im_0,...", then one row per matrix row with alternating re,im
columns.  Floats are written with shortest round-trip precision, so
load(dump(rho)) is exact.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .states import DensityMatrix, InvalidStateError


class ParseError(ValueError):
    """Raised when a state file cannot be parsed."""


def _dim(dim_a: int, dim_b: int) -> int:
    if dim_a < 1 or dim_b < 1:
        raise ParseError(f"dimA and dimB must be positive, got {dim_a}x{dim_b}")
    return dim_a * dim_b


def density_to_json(rho: DensityMatrix) -> str:
    return json.dumps({
        "dimA": rho.dim_a,
        "dimB": rho.dim_b,
        "re": rho.mat.real.ravel().tolist(),
        "im": rho.mat.imag.ravel().tolist(),
    })


def density_from_json(text: str) -> DensityMatrix:
    try:
        obj = json.loads(text)
        dim_a, dim_b = obj["dimA"], obj["dimB"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed density-matrix JSON: {exc}") from exc
    if type(dim_a) is not int or type(dim_b) is not int:  # bool is an int subclass
        raise ParseError(f"dimA and dimB must be JSON integers, got {dim_a!r} and {dim_b!r}")
    d = _dim(dim_a, dim_b)
    if re.shape != (d * d,) or im.shape != (d * d,):
        raise ParseError(f"expected {d * d} re/im entries for dims {dim_a}x{dim_b}, "
                         f"got {re.size}/{im.size}")
    return DensityMatrix.from_matrix((re + 1j * im).reshape(d, d), dim_a, dim_b)


def density_to_csv(rho: DensityMatrix) -> str:
    d = rho.dim_a * rho.dim_b
    lines = [f"# dimA={rho.dim_a} dimB={rho.dim_b}",
             ",".join(f"re_{j},im_{j}" for j in range(d))]
    lines += [",".join(repr(float(x)) for z in row for x in (z.real, z.imag)) for row in rho.mat]
    return "\n".join(lines) + "\n"


def density_from_csv(text: str) -> DensityMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ParseError("CSV state files must start with '# dimA=<n> dimB=<m>'")
    try:
        fields = dict(part.split("=") for part in lines[0].lstrip("# ").split())
        dim_a, dim_b = int(fields["dimA"]), int(fields["dimB"])
        body = lines[1:]
        if body and body[0].startswith("re_"):
            body = body[1:]
        rows = [np.array([float(x) for x in ln.split(",")]) for ln in body]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"malformed density-matrix CSV: {exc}") from exc
    d = _dim(dim_a, dim_b)
    if len(rows) != d or any(row.size != 2 * d for row in rows):
        raise ParseError(f"expected {d} rows of {2 * d} columns for dims {dim_a}x{dim_b}")
    mat = np.array([row[0::2] + 1j * row[1::2] for row in rows])
    return DensityMatrix.from_matrix(mat, dim_a, dim_b)


def save_density(rho: DensityMatrix, path: str | Path) -> None:
    path = Path(path)
    text = density_to_csv(rho) if path.suffix.lower() == ".csv" else density_to_json(rho)
    path.write_text(text)


def load_density(path: str | Path) -> DensityMatrix:
    path = Path(path)
    parse = density_from_csv if path.suffix.lower() == ".csv" else density_from_json
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"state file is not UTF-8 text: {exc}") from exc
    return parse(text)


__all__ = ["ParseError", "InvalidStateError", "density_to_json", "density_from_json",
           "density_to_csv", "density_from_csv", "save_density", "load_density"]
