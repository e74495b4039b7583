"""Deterministic JSON and CSV input/output with atomic file replacement.

All writers produce byte-identical output for identical inputs: floats are
emitted in Python's shortest round-trip form (which preserves every digit),
JSON keys are sorted, and CSV numbers use a fixed 15-significant-digit
format.  Files are written to a temporary sibling and renamed into place so
readers never observe a partial file.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .grid import GridFunction, SequenceData
from .inverse import FitTarget, InversionReport
from .spectral import SpectralData
from .transform import ConditionU, DecayTerm

__all__ = [
    "atomic_write_text",
    "json_text",
    "dump_json",
    "load_json",
    "write_grid_csv",
    "read_grid_csv",
    "spectral_to_dict",
    "spectral_from_dict",
    "target_to_dict",
    "target_from_dict",
    "condition_to_dict",
    "condition_from_dict",
    "inversion_report_to_dict",
]


def atomic_write_text(path: str, text: str) -> None:
    """Write text to ``path`` via a temporary file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, no NaN."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def dump_json(obj, path: str) -> None:
    atomic_write_text(path, json_text(obj))


def load_json(path: str):
    with open(path) as handle:
        return json.load(handle)


def write_grid_csv(path: str, f: GridFunction) -> None:
    """Write a grid function as ``x,value`` rows with 15 significant digits."""
    x = np.linspace(0.0, 1.0, f.n + 1)
    rows = ["x,value"]
    rows.extend(f"{xi:.15g},{vi:.15g}" for xi, vi in zip(x, f.values))
    atomic_write_text(path, "\n".join(rows) + "\n")


def read_grid_csv(path: str) -> GridFunction:
    """Read an ``x,value`` CSV produced by :func:`write_grid_csv`.

    The x column must be the uniform partition of [0, 1]; anything else
    raises ``ValueError``.
    """
    with open(path) as handle:
        header = handle.readline().strip()
        if header.replace(" ", "") != "x,value":
            raise ValueError(f"expected header 'x,value', got {header!r}")
        table = np.loadtxt(handle, delimiter=",", ndmin=2)
    if table.shape[1] != 2 or table.shape[0] < 2:
        raise ValueError("grid CSV needs two columns and at least two rows")
    x, values = table[:, 0], table[:, 1]
    n = x.size - 1
    if not np.allclose(x, np.linspace(0.0, 1.0, n + 1), atol=1e-9):
        raise ValueError("x column is not the uniform partition of [0, 1]")
    return GridFunction(values)


def _boundary_out(value: float):
    return "infinity" if value == math.inf else float(value)


def _boundary_in(value) -> float:
    if value == "infinity":
        return math.inf
    return float(value)


def spectral_to_dict(data: SpectralData) -> dict:
    return {
        "kind": data.kind,
        "a": _boundary_out(data.a),
        "b": _boundary_out(data.b),
        "c0": float(data.c0),
        "eigenvalues": [float(v) for v in data.eigenvalues],
        "norming": [float(v) for v in data.norming],
        "remainders": [float(v) for v in data.remainders.entries],
        "N": int(data.N),
    }


def spectral_from_dict(d: dict) -> SpectralData:
    """Rebuild spectral data; norming deviations follow from the norming
    constants.

    Raises ``ValueError`` unless ``eigenvalues``, ``norming`` and
    ``remainders`` each hold exactly N >= 1 entries.
    """
    a = _boundary_in(d["a"])
    b = _boundary_in(d["b"])
    eig = np.asarray(d["eigenvalues"], dtype=float)
    norming = np.asarray(d["norming"], dtype=float)
    rem = np.asarray(d["remainders"], dtype=float)
    N = int(d["N"])
    shapes = {"eigenvalues": eig.shape, "norming": norming.shape,
              "remainders": rem.shape}
    if N < 1 or any(shape != (N,) for shape in shapes.values()):
        raise ValueError(f"spectral data needs N >= 1 entries in each row; "
                         f"got N = {N} and shapes {shapes}")
    return SpectralData(kind=str(d["kind"]), a=a, b=b, c0=float(d["c0"]),
                        eigenvalues=eig, norming=norming,
                        remainders=SequenceData(rem), N=N)


def target_to_dict(target: FitTarget) -> dict:
    out = {
        "regime": target.regime,
        "a": _boundary_out(target.a),
        "b": _boundary_out(target.b),
        "remainders": [float(v) for v in target.remainders],
        "norming": None if target.norming is None
        else [float(v) for v in target.norming],
        "N": int(target.N),
    }
    return out


def target_from_dict(d: dict) -> FitTarget:
    norming = d.get("norming")
    return FitTarget(
        regime=str(d["regime"]),
        remainders=np.asarray(d["remainders"], dtype=float),
        norming=None if norming is None else np.asarray(norming, dtype=float),
        a=_boundary_in(d.get("a", "infinity")),
        b=_boundary_in(d.get("b", "infinity")),
        N=int(d.get("N", 0) or len(d["remainders"])),
    )


def condition_to_dict(cfg: ConditionU) -> dict:
    return {
        "u1": [float(c) for c in cfg.u1],
        "u2": {
            "kind": cfg.u2.kind,
            "E": float(cfg.u2.E),
            "beta": float(cfg.u2.beta),
            "coeffs": [float(c) for c in cfg.u2.coeffs],
        },
    }


def condition_from_dict(d: dict) -> ConditionU:
    u2 = d.get("u2") or {}
    return ConditionU(
        u1=tuple(float(c) for c in d.get("u1", ())),
        u2=DecayTerm(kind=str(u2.get("kind", "zero")),
                     E=float(u2.get("E", 0.0)),
                     beta=float(u2.get("beta", 0.0)),
                     coeffs=tuple(float(c) for c in u2.get("coeffs", ()))),
    )


def inversion_report_to_dict(report: InversionReport) -> dict:
    return {
        "residuals": [float(r) for r in report.residuals],
        "full_residual": float(report.full_residual),
        "converged": bool(report.converged),
        "restarted": bool(report.restarted),
        "iterations": int(report.iterations),
    }
