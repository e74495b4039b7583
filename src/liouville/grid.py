"""Functions sampled on uniform grids over [0, 1], with the calculus used everywhere else.

Grid functions are immutable vectors of node values on ``x_j = j/n``.  All
derivative and quadrature rules are fourth order so that discretization error
sits well below the tolerances of the spectral routines built on top.  The
quadrature weights depend on the cell count alone; they are built once per
count and process and shared as one read-only array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "MIN_CELLS",
    "DEFAULT_CELLS",
    "GridFunction",
    "FourierRep",
    "SequenceData",
    "differentiate",
    "cumulative_integral",
    "integral",
    "inner_product",
    "l2_norm",
    "sup_norm",
    "seq_norm",
    "symmetry_project",
    "symmetry_defect",
    "local_quintic",
    "resample",
    "trig_basis",
]

MIN_CELLS = 16
DEFAULT_CELLS = 2048

# Fourth-order one-sided first-derivative stencils for the two nodes at each
# boundary, matched to the five-point interior stencil.
_EDGE_FIRST = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE_SECOND = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0

# Cubic Newton-Cotes weights for single-cell integrals, used to accumulate
# the running integral.  Interior cells use the two neighbours on each side;
# the first and last cell use a one-sided four-point rule.
_CELL_INTERIOR = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_CELL_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0

# prod_{j != k} (k - j) over the six nodes 0..5 of a quintic Lagrange stencil.
_LAGRANGE_DENOMINATORS = (-120.0, 24.0, -12.0, 12.0, -24.0, 120.0)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real-valued function represented by node values on a uniform grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 1:
            raise ValueError("grid values must be one-dimensional")
        if v.size < MIN_CELLS + 1:
            raise ValueError(f"need at least {MIN_CELLS} cells, got {v.size - 1}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        """Number of cells; the grid has n + 1 nodes."""
        return self.values.size - 1

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.values.size)

    @classmethod
    def from_callable(cls, f, n: int = DEFAULT_CELLS) -> "GridFunction":
        x = np.linspace(0.0, 1.0, n + 1)
        return cls(np.broadcast_to(np.asarray(f(x), dtype=float), x.shape))

    @classmethod
    def zeros(cls, n: int = DEFAULT_CELLS) -> "GridFunction":
        return cls(np.zeros(n + 1))

    @classmethod
    def constant(cls, c: float, n: int = DEFAULT_CELLS) -> "GridFunction":
        return cls(np.full(n + 1, float(c)))

    def reflected(self) -> "GridFunction":
        """Values of x -> f(1 - x); exact on the uniform grid."""
        return GridFunction(self.values[::-1])

    def __call__(self, t):
        """Piecewise-linear point evaluation (diagnostics only)."""
        return np.interp(t, self.x, self.values)

    def _binary(self, other, op):
        if isinstance(other, GridFunction):
            if other.n != self.n:
                raise GridMismatchError(f"grids disagree: {self.n} vs {other.n} cells")
            return GridFunction(op(self.values, other.values))
        return GridFunction(op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return GridFunction(float(other) - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(-self.values)


@dataclass(frozen=True, eq=False)
class SequenceData:
    """Finite slice h_1, ..., h_N of a weighted little-l2 sequence.

    ``alpha`` selects the weight in the squared norm
    ``2 * sum_n (2 pi n)**(2 alpha) h_n**2``.
    """

    entries: np.ndarray
    alpha: float = 0.0

    def __post_init__(self):
        e = np.array(self.entries, dtype=float, copy=True)
        if e.ndim != 1:
            raise ValueError("sequence entries must be one-dimensional")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "alpha", float(self.alpha))


@dataclass(frozen=True, eq=False)
class FourierRep:
    """Coefficient-space view of a function in one of three trigonometric bases.

    basis 'sine'    : sum_k c_k sin(pi k x), k = 1..K (vanishes at both ends)
    basis 'cosine'  : sum_k c_k cos(pi k x), k = 1..K (zero mean)
    basis 'full'    : c_0 + sum_m sqrt(2) (c_{2m-1} cos(2 pi m x) + c_{2m} sin(2 pi m x))
    """

    basis: str
    coefficients: np.ndarray

    def __post_init__(self):
        if self.basis not in ("sine", "cosine", "full"):
            raise ValueError(f"unknown basis {self.basis!r}")
        c = np.array(self.coefficients, dtype=float, copy=True)
        if c.ndim != 1:
            raise ValueError("coefficients must be one-dimensional")
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)

    def evaluate(self, n: int = DEFAULT_CELLS) -> GridFunction:
        c = self.coefficients
        if self.basis == "full":
            # Full-period modes are the even rows k = 2m of trig_basis.
            cos, sin = c[1::2], c[2::2]
            out = (c[0] if c.size else 0.0) \
                + cos @ trig_basis("cosine", 2 * cos.size, n)[1::2] \
                + sin @ trig_basis("sine", 2 * sin.size, n)[1::2]
        else:
            out = c @ trig_basis(self.basis, c.size, n) / math.sqrt(2.0)
        return GridFunction(out)


def trig_basis(kind: str, K: int, n: int) -> np.ndarray:
    """Rows sqrt(2) sin(pi k x) or sqrt(2) cos(pi k x), k = 1..K, on n cells.

    ``kind`` is 'sine' or 'cosine'; the rows are orthonormal in L2(0, 1).
    """
    if kind not in ("sine", "cosine"):
        raise ValueError(f"unknown trigonometric kind {kind!r}")
    wave = np.sin if kind == "sine" else np.cos
    rows = np.multiply.outer(math.pi * np.arange(1, K + 1),
                             np.linspace(0.0, 1.0, n + 1))
    wave(rows, out=rows)
    rows *= math.sqrt(2.0)
    return rows


def differentiate(f):
    """Fourth-order first derivative on the same grid, along the last axis.

    ``f`` is a GridFunction, which gives a GridFunction, or an array whose
    rows are node values on one grid, such as a (K, n + 1) stack of
    directions, which gives the array of derivative rows.
    """
    v = f.values if isinstance(f, GridFunction) else f
    h = 1.0 / (v.shape[-1] - 1)
    out = np.empty_like(v)
    out[..., 2:-2] = (v[..., :-4] - 8.0 * v[..., 1:-3] + 8.0 * v[..., 3:-1]
                      - v[..., 4:]) / (12.0 * h)
    out[..., 0] = v[..., :5] @ _EDGE_FIRST / h
    out[..., 1] = v[..., :5] @ _EDGE_SECOND / h
    out[..., -1] = -(v[..., -5:][..., ::-1] @ _EDGE_FIRST) / h
    out[..., -2] = -(v[..., -5:][..., ::-1] @ _EDGE_SECOND) / h
    return GridFunction(out) if isinstance(f, GridFunction) else out


def cumulative_integral(f):
    """Running integral g(x) = int_0^x f, fourth order, with g(0) = 0.

    Acts along the last axis, on a GridFunction or an array of rows, as
    ``differentiate`` does.
    """
    v = f.values if isinstance(f, GridFunction) else f
    n = v.shape[-1] - 1
    h = 1.0 / n
    cells = np.empty(v.shape[:-1] + (n,))
    cells[..., 1:-1] = h * (
        _CELL_INTERIOR[0] * v[..., :-3]
        + _CELL_INTERIOR[1] * v[..., 1:-2]
        + _CELL_INTERIOR[2] * v[..., 2:-1]
        + _CELL_INTERIOR[3] * v[..., 3:]
    )
    cells[..., 0] = h * (v[..., :4] @ _CELL_FIRST)
    cells[..., -1] = h * (v[..., -4:][..., ::-1] @ _CELL_FIRST)
    out = np.empty_like(v)
    out[..., 0] = 0.0
    np.cumsum(cells, axis=-1, out=out[..., 1:])
    return GridFunction(out) if isinstance(f, GridFunction) else out


def _read_only(*arrays):
    """The arrays, each made read-only, as a tuple: the form in which the
    tables memoized per process are shared."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=16)
def _simpson_weights(n: int) -> np.ndarray:
    # Composite Simpson; odd cell counts close with a cubic 3/8 rule.
    w = np.zeros(n + 1)
    m = n if n % 2 == 0 else n - 3
    w[0:m + 1:2] += 2.0 / 3.0
    w[1:m:2] += 4.0 / 3.0
    w[0] = 1.0 / 3.0
    w[m] += -1.0 / 3.0
    if n % 2 == 1:
        w[m:] += np.array([3.0, 9.0, 9.0, 3.0]) / 8.0
    w /= n
    w.flags.writeable = False
    return w


def integral(f: GridFunction) -> float:
    """Definite integral over [0, 1]."""
    return float(_simpson_weights(f.n) @ f.values)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    if f.n != g.n:
        raise GridMismatchError(f"grids disagree: {f.n} vs {g.n} cells")
    return float(_simpson_weights(f.n) @ (f.values * g.values))


def l2_norm(f: GridFunction) -> float:
    return math.sqrt(max(inner_product(f, f), 0.0))


def sup_norm(f: GridFunction) -> float:
    return float(np.max(np.abs(f.values)))


def seq_norm(h: SequenceData) -> float:
    """Weighted norm sqrt(2 sum (2 pi n)**(2 alpha) h_n**2), n counted from 1."""
    e = h.entries
    if e.size == 0:
        return 0.0
    n = np.arange(1, e.size + 1, dtype=float)
    return math.sqrt(2.0 * float(np.sum((2.0 * math.pi * n) ** (2.0 * h.alpha) * e * e)))


def symmetry_project(f: GridFunction, parity: str) -> GridFunction:
    """Projection onto the class odd (f(x) = -f(1-x)) or even (f(x) = f(1-x))."""
    r = f.values[::-1]
    if parity == "odd":
        return GridFunction(0.5 * (f.values - r))
    if parity == "even":
        return GridFunction(0.5 * (f.values + r))
    raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")


def symmetry_defect(f: GridFunction, parity: str) -> float:
    """Distance l2_norm(f - projection); zero iff f lies in the class."""
    return l2_norm(f - symmetry_project(f, parity))


def local_quintic(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Degree-5 Lagrange interpolation of grid node values at positions ``s``.

    ``values`` holds the n + 1 node values of a uniform grid on [0, 1] and
    ``s`` the target points in cell units (x * n).  Each point uses the six
    nearest nodes: centred on its cell in the interior, shifted inward in the
    two cells at each end.  At a cell midpoint the interior weights are
    (3, -25, 150, 150, -25, 3) / 256; at a node the value is returned
    exactly.  The error is O(h**6) and every polynomial of degree <= 5 is
    reproduced.
    """
    n = values.size - 1
    start = np.clip(np.floor(s).astype(np.intp) - 2, 0, n - 5)
    t = s - start
    out = np.zeros(s.shape)
    for k in range(6):
        w = np.ones(s.shape)
        for j in range(6):
            if j != k:
                w *= t - j
        out += w / _LAGRANGE_DENOMINATORS[k] * values[start + k]
    return out


@lru_cache(maxsize=None)
def _quintic_weights(t: float) -> np.ndarray:
    """``local_quintic``'s six weights at t, in cell units from its first node."""
    return np.array([local_quintic(np.eye(6)[k], np.array([t]))[0]
                     for k in range(6)])


def _cell_samples(values: np.ndarray, offset=0.5) -> np.ndarray:
    """``local_quintic`` at ``offset`` into every cell, the midpoints by default.

    ``offset`` may be a sequence, which gives one row of n values each.
    Cell i reads the six nodes from start = clip(i - 2, 0, n - 5) at
    i + offset - start, so the interior cells share one row of weights and
    each of the two cells at either end has its own.  Each sum runs in
    ``local_quintic``'s order, so at the midpoints, where i + offset is
    exact, the values are its own bit for bit.
    """
    n = values.size - 1
    offsets = np.asarray(offset, dtype=float)
    out = np.zeros(offsets.shape + (n,))
    # Cells first..last - 1, the first node their values read, and t - offset.
    for first, last, start, t in ((2, n - 2, 0, 2), (0, 1, 0, 0), (1, 2, 0, 1),
                                  (n - 2, n - 1, n - 5, 3),
                                  (n - 1, n, n - 5, 4)):
        w = np.array([_quintic_weights(t + o) for o in offsets.flat]).T
        for k in range(6):
            out[..., first:last] += w[k].reshape(offsets.shape + (1,)) \
                * values[start + k:start + k + last - first]
    return out


def resample(f: GridFunction, n: int) -> GridFunction:
    """Values of f on a uniform grid of n cells, by ``local_quintic``.

    Doubling the grid keeps every node of f and puts the interpolated
    midpoint between each pair; halving it back returns f's values exactly.
    The interpolation error is O(n**-6), below the order of every scheme
    that consumes the result.
    """
    if n == f.n:
        return f
    return GridFunction(local_quintic(f.values, np.arange(n + 1) * f.n / n))
