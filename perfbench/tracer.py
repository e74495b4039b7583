"""Spans recorded around the calls through which one liouville module calls the next.

Nothing in the package is edited: ``install`` replaces module and class
attributes with wrappers that time each call, and ``uninstall`` puts the
originals back.  A span is ``[name, start, end, parent, op, info]``; ``parent``
is the index of the enclosing span (or None) and ``info`` holds facts read
from the call's arguments or result.  Spans stay in memory until the run ends.

A wrapped name that does not exist at the commit under test is listed in
``Tracer.absent`` instead of raising, so the trace survives refactors that
delete or rename internals.
"""

from __future__ import annotations

import os
import time

_clock = time.perf_counter


def _sweep_info(args, kwargs, out):
    co, lam = args[0], args[1]
    if kwargs.get("trace"):
        mode = "trace"
    elif kwargs.get("count"):
        mode = "count"
    elif kwargs.get("deriv"):
        mode = "deriv"
    else:
        mode = "endpoint"
    return {"mode": mode, "n": int(co.V.size - 1), "K": int(lam.size)}


def _build_info(args, kwargs, out):
    M, N = out
    arrays = list(M) + (list(N) if N is not None else [])
    return {"bytes": int(sum(a.nbytes for a in arrays))}


def _endpoint_info(args, kwargs, out):
    deriv = kwargs["deriv"] if "deriv" in kwargs else args[4]
    return {"deriv": bool(deriv)}


def _leg_info(args, kwargs, out):
    # The residual history list is shared by the legs of one inversion.
    return {"scale": float(args[2]), "history": len(args[4])}


def _path_info(position):
    """Size of the file a writer was asked to produce at ``args[position]``."""
    def info(args, kwargs, out):
        return {"bytes": os.path.getsize(args[position])}
    return info


# (module, owner attribute or None, attribute, span name, info extractor).
# The same function reached under two module names is wrapped under both,
# because each caller looks it up in its own module namespace.
LIBRARY_POINTS = (
    ("liouville.ode", None, "_sweep", "ode._sweep", _sweep_info),
    ("liouville.spectral", None, "_sweep", "ode._sweep", _sweep_info),
    ("liouville.ode", None, "_build_matrices", "ode._build_matrices", _build_info),
    ("liouville.ode", None, "_midpoints", "ode._midpoints", None),
    ("liouville.ode", "SchrodingerProblem", "_coefficients", "ode._coefficients", None),
    ("liouville.ode", "ImpedanceProblem", "_coefficients", "ode._coefficients", None),
    ("liouville.ode", None, "resample", "grid.resample", None),
    ("liouville.spectral", None, "_count_below", "spectral._count_below", None),
    ("liouville.spectral", None, "_endpoint_w", "spectral._endpoint_w", _endpoint_info),
    ("liouville.spectral", None, "_solve_levels", "spectral._solve_levels", None),
    ("liouville.spectral", None, "_newton_polish", "spectral._newton_polish", None),
    ("liouville.spectral", None, "_endpoint_quantities",
     "spectral._endpoint_quantities", None),
    ("liouville.inverse", None, "solve_spectrum", "spectral.solve_spectrum", None),
    ("liouville.inverse", None, "forward_transform", "transform.forward_transform", None),
    ("liouville.inverse", None, "frechet_apply", "transform.frechet_apply", None),
    ("liouville.inverse", None, "_newton_leg", "inverse._newton_leg", _leg_info),
    ("liouville.inverse", "_GalerkinMap", "residual", "inverse.galerkin_residual", None),
    ("liouville.inverse", "_GalerkinMap", "jacobian", "inverse.galerkin_jacobian", None),
    ("liouville.inverse", "_FitMap", "jacobian", "inverse.fit_jacobian", None),
)

# The CLI's own imports from the other modules, wrapped inside a CLI child.
CLI_POINTS = (
    ("liouville.cli", None, "resample", "grid.resample", None),
    ("liouville.cli", None, "solve_spectrum", "spectral.solve_spectrum", None),
    ("liouville.cli", None, "forward_transform", "transform.forward_transform", None),
    ("liouville.cli", None, "shoot_forward", "ode.shoot_forward", None),
    ("liouville.cli", None, "dump_json", "serialize.write", _path_info(1)),
    ("liouville.cli", None, "write_grid_csv", "serialize.write", _path_info(0)),
    ("liouville.cli", None, "atomic_write_text", "serialize.write", _path_info(0)),
    ("liouville.cli", None, "load_json", "serialize.read", None),
    ("liouville.cli", None, "read_grid_csv", "serialize.read", None),
    ("liouville.cli", None, "spectral_to_dict", "serialize.encode", None),
    ("liouville.cli", None, "spectral_from_dict", "serialize.decode", None),
)


class Tracer:
    """Collects spans from the wrappers it installs; one per traced pass."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self.op = None
        self._stack: list = []
        self._undo: list = []

    def span(self, name, fn, info=None):
        """Wrap ``fn`` so each call records a span under ``name``."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = _clock()
                stack.pop()
            if info is not None:
                try:
                    rec[5] = info(args, kwargs, out)
                except Exception:  # a changed signature loses the facts, not the span
                    rec[5] = None
            return out

        return wrapper

    def install(self, points) -> None:
        import importlib

        for module_name, owner_name, attr, name, info in points:
            label = f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}"
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(label)
                continue
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            fn = None if owner is None else getattr(owner, attr, None)
            if fn is None or not callable(fn):
                self.absent.append(label)
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self.span(name, fn, info))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def run_op(self, op_id, fn, *args):
        """Call ``fn`` as one op: its spans carry ``op_id``, under an ``op`` span."""
        self.op = op_id
        try:
            return self.span("op", fn)(*args)
        finally:
            self.op = None


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out
