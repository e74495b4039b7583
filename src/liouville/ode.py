"""Shooting integration of the normal form -y'' + V y = lam y.

Both problems are integrated in first-order form y'' = (V - lam) y.  A
normal-form problem has V = p.  An impedance problem is solved through the
Liouville map f -> rho f, which carries -rho**-2 (rho**2 f')' + u f onto
-y'' + (P(q) + c0) y with the same lam and, since rho(0) = 1 and
q(0) = q(1) = 0, the same boundary data; its shots are converted back to f.
A boundary end is one number c: +inf for Dirichlet, finite for the Robin
condition y' = c y in the coordinate pointing into the interval.  ``_end``
decodes it, refusing -inf and NaN, into the data that start a shot there
and the rows that close and read a shot.
The integrator is the sixth-order Magnus method of Blanes, Casas & Ros (BIT
40, 2000), one 2x2 matrix per cell.  It samples V at the three Gauss nodes
of each cell, which ``grid.local_quintic`` forms from the node values:
degree-5 Lagrange through the six nearest nodes, O(h**6), centred in the
interior.  Only the middle sample carries lam, so a cell's exponent is
Omega = [[p, q], [r, -p]] with p and r linear in lam and q free of it
(``_exponents``), and exp(Omega) = C(u) I + S(u) Omega with u = p**2 + q r,
C = cosh sqrt(u) and S = sinh sqrt(u) / sqrt(u).  The cell is exact for
constant V and has determinant 1.  C and S are entire in u, and u is
quadratic in lam: where a column's bound on |u| is small, its cells are
Taylor polynomials of C and S, cut below rounding, evaluated as
polynomials in lam whose coefficients are computed once per problem and
degree; elsewhere they come from cosh and sinh.  A backward shot is the
same equation on the reflected samples V(1 - s), so every sweep runs from
x = 0.

A sweep propagates a batch of lam columns through all cells by a blocked
scan (Blelloch, "Prefix sums and their applications", 1990).  The n cells
form blocks of a fixed 16, and the coefficients are stored in that block
order.  Each column's cells are the row of its powers of lam times each
block row's table, one (1 x m)(m x nb) matrix product per column and
entry, written straight into the layout the scan reads; a product never
spans two columns, so a column's cells, and its sweep, are the same in
any batch.  The running products inside every block are
formed in 15 steps, each vectorized over all blocks and columns.  The
block totals are then multiplied pairwise, level by level, until one
product spans 256 cells, or a quarter of the grid where that is less, and
the state is carried across those products in order, one batched matrix
product each.
The cap keeps the carry sequential over the interval: one product over
all of it holds e**|a| near lam = -a**2, and applied to a state that
decays away from x = 0 it cancels that state.
The tree's first products and the carried state are scaled by powers of
two, which is exact, and the scale is reported as a logarithm.  Sweeps
that need every node (sign counts and traces) give every block its start
state by a down-sweep of the stored levels and apply the stored running
products to it; a count reads the signs of y in that block layout, with
the last node of each block carried to the next, and never forms the nodes
in grid order.
A sweep with lam-derivatives is the same scan at z = lam + ih.  Every cell
matrix is entire in lam and real on the real axis, so the shot at z is
y(lam) + ih y'(lam) to within a relative h**2, and with h = 2**-60
max(1, |lam|) its real part is the shot at lam and its imaginary part h
times the derivative, both to rounding: complex-step differentiation
(Squire & Trapp, SIAM Review 40, 1998).  No part of the scan carries a
derivative of its own.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationError
from .grid import GridFunction, _cell_samples, integral, resample
from .transform import (ConditionU, Impedance, Potential, build_rho,
                        compute_c0, forward_transform)

__all__ = [
    "INF",
    "is_dirichlet",
    "SchrodingerProblem",
    "ImpedanceProblem",
    "resample_potential",
    "StateTrace",
    "shoot_forward",
    "shoot_backward",
    "wronskian",
    "oscillation_count",
]

INF = math.inf

_LOG_VALUE_LIMIT = 700.0

# Cells per block of the scan, and the most cells one product of its tree
# over the block totals may span (see the module docstring).
_BLOCK = 16
_SPAN_CAP = 256

# The Gauss nodes of a cell, in cell units from its left end.
_GAUSS = (0.5 - math.sqrt(15.0) / 10.0, 0.5, 0.5 + math.sqrt(15.0) / 10.0)

# Taylor coefficients 1/(2k)! of C and 1/(2k + 1)! of S, k = 0..9, the
# degrees D of the entry tables, and the bound on |u| up to which each
# holds: there the first dropped term of C, |u|**(D + 1) / (2D + 2)!, is
# at most 2**-54, and that of S smaller.
_TAYLOR = np.array([[1.0 / math.factorial(2 * k + j) for j in (0, 1)]
                    for k in range(10)])
# A column past the last bound takes the class 0: cells from cosh and sinh.
_DEGREES = np.array([3, 4, 8, 0])
_DEGREE_BOUNDS = [(math.factorial(2 * D + 2) * 2.0 ** -54) ** (1.0 / (D + 1))
                  for D in _DEGREES[:-1]]

# The most lam columns one derivative sweep scans at a time.  A complex
# column holds the bytes of two real ones, so 32 complex columns weigh what
# 64 real ones do, the widest ladder the CLI solves.
_COMPLEX_COLUMNS = 32


def is_dirichlet(b: float) -> bool:
    """True for +inf (Dirichlet), False if finite (Robin); else ValueError."""
    if not (b == INF or math.isfinite(b)):
        raise ValueError(f"boundary parameter {b} is neither finite nor +inf")
    return b == INF


_End = namedtuple("_End", "data closing read")


def _end(c: float) -> _End:
    """The end with parameter c, Dirichlet for +inf and Robin if finite.

    ``data`` starts a shot from this end, in the coordinate that points into
    the interval: (0, 1), or (1, c).  As the right end, the row ``closing``
    closes the forward shot, w = l . (y, y')(1): y, or y' + c y.  The row
    ``read`` gives the norming read there, y' or y; it is 1 on ``data``.
    """
    if is_dirichlet(c):
        return _End((0.0, 1.0), (1.0, 0.0), (0.0, 1.0))
    return _End((1.0, float(c)), (float(c), 1.0), (1.0, 0.0))


def _pair(row, y, v):
    """row . (y, v), a row of ``_end`` on the states (y, v)."""
    return row[0] * y + row[1] * v


def _exponents(V1, V2, V3, n: int) -> np.ndarray:
    """Each cell's Magnus exponent from its three Gauss samples of V.

    With A = [[0, 1], [V - lam, 0]] sampled at the Gauss nodes, a1 = h A2,
    a2 = (sqrt(15) h / 3)(A3 - A1), a3 = (10 h / 3)(A3 - 2 A2 + A1),
    C1 = [a1, a2] and C2 = -[a1, 2 a3 + C1] / 60, the exponent is
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + C1, a2 + C2] / 240 (Blanes, Casas
    & Ros, BIT 40, 2000).  Only a1 carries lam, so Omega = [[p, q], [r, -p]]
    with p = p0 + lam p1, q = q0 and r = r0 + lam r1.  Returns the rows
    (p0, p1, q0, r0, r1), shape (5, n).
    """
    h = 1.0 / n
    w = h * V2
    d2, d3 = (math.sqrt(15.0) * h / 3.0 * (V3 - V1),
              10.0 * h / 3.0 * (V3 - 2.0 * V2 + V1))
    # dp/dw and dr/dw, with w = h (V2 - lam).
    p_w, r_w = h * h * d2 / 180.0, 1.0 + h * (20.0 * d3 + h * d2 * d2) / 3600.0
    return np.stack([
        p_w * w - h * d2 / 12.0 + h * h * d2 * d3 / 7200.0,
        -h * p_w,
        h + h * h * (h * d2 * d2 - 20.0 * d3) / 3600.0,
        r_w * w + d3 / 12.0 + h * (d3 * d3 - 30.0 * d2 * d2) / 3600.0,
        -h * r_w])


def _entry_table(cells: np.ndarray, D: int, u) -> np.ndarray:
    """The entries (M11, M21, M12, M22) of exp(Omega) as polynomials in lam,
    with C and S summed through u**D: shape (B, 4, m, nb), the coefficient
    of lam**j of cell b B + i at [i, :, j, b].  ``u`` holds the rows of u as
    a polynomial in lam, so m = D (len(u) - 1) + 2.

    The table is formed entry first, (4, m, B, nb), where each row of
    coefficients is one contiguous pass over all cells, and copied once
    into the block order at the end.  C and S are summed by Horner's rule
    in u in the rows of M22 and M12, the rows of M11 and M21 holding the
    terms of each step, and the entries are then formed in place: besides
    the table and its copy, only the product S r1 is allocated.
    """
    p0, p1, q0, r0, r1 = cells
    table = np.zeros((4, D * (len(u) - 1) + 2) + p0.shape)
    M11, M21, M12, M22 = table
    C, S = M22[:-1], M12[:-1]
    terms = (M11, M21)[:len(u) - 1]
    for row, taylor in ((C, _TAYLOR[:, 0]), (S, _TAYLOR[:, 1])):
        row[0] = taylor[D]
        for k, size in zip(range(D - 1, -1, -1),
                           range(1, row.shape[0], len(u) - 1)):
            for coefficient, term in zip(u[1:], terms):
                np.multiply(row[:size], coefficient, out=term[:size])
            row[:size] *= u[0]
            for j, term in enumerate(terms, 1):
                row[j:j + size] += term[:size]
            row[0] += taylor[k]
    # S p, with p = p0 + lam p1, into M11; then C + S p and C - S p, the
    # latter through M21.
    np.multiply(S, p1, out=M21[:-1])
    np.multiply(S, p0, out=M11[:-1])
    M11[-1] = 0.0
    M11[1:] += M21[:-1]
    np.subtract(M22, M11, out=M21)
    M11 += M22
    M22[...] = M21
    np.multiply(S, r0, out=M21[:-1])
    M21[-1] = 0.0
    M21[1:] += S * r1
    S *= q0
    return np.ascontiguousarray(table.transpose(2, 0, 1, 3))


def _cosh_sinc(u):
    """C(u) = cosh sqrt(u) and S(u) = sinh sqrt(u) / sqrt(u), real or complex.

    Both are entire in u.  Where |u| < 1 they are the Taylor series through
    u**9, whose first dropped term is below 1/20!: a complex step keeps its
    derivative there, which sinh(s) / s loses near s = 0.  Elsewhere they
    are cosh and sinh of a complex square root, either of whose signs gives
    the same values.
    """
    small = np.abs(u) < 1.0
    s = np.sqrt(np.where(small, 1.0, u) + 0j)
    with np.errstate(over="ignore", invalid="ignore"):
        C, S = (np.where(small, np.polynomial.polynomial.polyval(u, series),
                         branch) for series, branch in
                zip(_TAYLOR.T, (np.cosh(s), np.sinh(s) / s)))
    return (C, S) if np.iscomplexobj(u) else (C.real, S.real)


@dataclass(frozen=True, eq=False)
class _Coefficients:
    """Node values V and the three Gauss samples of V in each cell, (3, n).

    ``cells`` holds the ``_exponents`` rows in block order, shape
    (5, B, nb): cell b B + i sits at [:, i, b].  The cells past n that fill
    the last block are 0, whose exponential is exactly I.  ``u`` holds the
    rows (u0, u1, u2) of u = p**2 + q r = u0 + lam u1 + lam**2 u2 in the
    same order, and ``bound`` the largest |u0|, |u1| and |u2|.
    """

    V: np.ndarray
    samples: np.ndarray
    cells: np.ndarray = field(init=False, repr=False)
    u: np.ndarray = field(init=False, repr=False)
    bound: np.ndarray = field(init=False, repr=False)
    _tables: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        n = self.samples.shape[1]
        cells = np.zeros((5, -(-n // _BLOCK) * _BLOCK))
        cells[:, :n] = _exponents(*self.samples, n)
        cells = np.ascontiguousarray(
            cells.reshape(5, -1, _BLOCK).transpose(0, 2, 1))
        p0, p1, q0, r0, r1 = cells
        u = np.stack([p0 * p0 + q0 * r0, 2.0 * p0 * p1 + q0 * r1, p1 * p1])
        for name, value in (("cells", cells), ("u", u),
                            ("bound", np.abs(u).max(axis=(1, 2)))):
            object.__setattr__(self, name, value)

    def table(self, D: int) -> np.ndarray:
        """``_entry_table`` of degree D.  Its columns have |lam| below
        lam_D = ``_DEGREE_BOUNDS`` / max|u1|, and where max|u2| lam_D**2,
        the most that u2 moves u, is below 2**-54, u is taken as linear in
        lam: the table then has D + 2 powers of lam, not 2D + 2."""
        if D not in self._tables:
            reach = _DEGREE_BOUNDS[list(_DEGREES).index(D)] / self.bound[1]
            linear = self.bound[2] * reach ** 2 <= 2.0 ** -54
            self._tables[D] = _entry_table(self.cells, D,
                                           self.u[:2] if linear else self.u)
        return self._tables[D]

    def reflected(self) -> "_Coefficients":
        """Coefficients of the same equation in s = 1 - x: V(1 - s)."""
        return _Coefficients(V=self.V[::-1], samples=self.samples[::-1, ::-1])


# V at an offset into every cell, the midpoints by default.
_midpoints = _cell_samples


def _sampled(V: np.ndarray) -> _Coefficients:
    return _Coefficients(V=V, samples=_midpoints(V, _GAUSS))


def _cached(prob, key: str, build):
    """The problem's value under ``key``, built by ``build()`` on first use."""
    value = prob._cache.get(key)
    if value is None:
        value = prob._cache[key] = build()
    return value


def resample_potential(p: Potential, n: int) -> Potential:
    """The potential p on n cells, with the discrete mean of the result removed.

    Interpolation moves the discrete (Simpson) mean, on coarse grids past the
    zero-mean tolerance of ``Potential``: 1.8e-8 for a six-mode slope's
    potential taken from 256 to 512 cells.  Removing it keeps a valid
    potential valid, as ``forward_transform`` does for its output.
    """
    f = resample(p.f, n)
    return Potential(f - integral(f))


@dataclass(frozen=True, eq=False)
class SchrodingerProblem:
    """Eigenvalue problem -y'' + p y = lam y on [0, 1].

    Its normal form is itself, V = p, whose mean c0 is 0 (``Potential``).
    """

    p: Potential
    _cache: dict = field(default_factory=dict, repr=False)

    kind = "schrodinger"
    c0 = 0.0

    @property
    def n(self) -> int:
        return self.p.n

    def _coefficients(self) -> _Coefficients:
        return _cached(self, "coeffs", lambda: _sampled(self.p.f.values))


@dataclass(frozen=True, eq=False)
class ImpedanceProblem:
    """Impedance problem -rho**-2 (rho**2 f')' + u f = lam f, rho = exp(Q).

    It is solved as its normal form -y'' + V y = lam y with
    V = P(q) + c0 = q' + q**2 + u, which has the same eigenvalues and
    boundary data; its shots are y = rho f, and c0 is the mean of V.
    """

    q: Impedance
    cfg: ConditionU = field(default_factory=ConditionU.zero)
    _cache: dict = field(default_factory=dict, repr=False)

    kind = "impedance"

    @property
    def n(self) -> int:
        return self.q.n

    @property
    def c0(self) -> float:
        return _cached(self, "c0", lambda: compute_c0(self.q, self.cfg))

    def _coefficients(self) -> _Coefficients:
        return _cached(self, "coeffs", lambda: _sampled(
            forward_transform(self.q, self.cfg).f.values + self.c0))


@dataclass(frozen=True, eq=False)
class StateTrace:
    """Solution values and first derivative along the grid for one lam."""

    lam: float
    y: GridFunction
    dy: GridFunction


def _build_matrices(co: _Coefficients, lam: np.ndarray):
    """Cell matrices at every lam column in block order, shape (B, 2, 2, K, nb).

    Cell b B + i of column k sits at [i, column, row, k, b]; the cells that
    fill the last block are exactly I.  Each column takes the degree of its
    own bound on |u|, and the columns past the last bound come from
    ``_cosh_sinc``.  A table's columns are broadcast matrix products written
    straight into M, each the row of a column's powers of lam times the
    (m, nb) table of one block row and entry: a (1 x m)(m x nb) product per
    column, so no kernel call mixes two columns, and a column's cells do
    not depend on its batch by construction.  One product with the columns
    as its rows would not do: a BLAS kernel rounds its rows differently by
    how many it is given.  lam may be complex, and the matrices then are;
    a complex column takes one real product for each part.  Returns the
    pair (M, None): the benchmark's tracer (``perfbench/tracer.py``)
    unpacks two results to size the build.
    """
    _, B, nb = co.cells.shape
    M = np.empty((B, 4, lam.size, nb), dtype=np.result_type(lam, 1.0))

    def cells(z, D, out):
        if D == 0:
            p0, p1, q0, r0, r1 = co.cells[:, :, None]
            p, r = p0 + z[:, None] * p1, r0 + z[:, None] * r1
            C, S = _cosh_sinc(p * p + q0 * r)
            np.stack([C + S * p, S * r, S * q0, C - S * p], axis=1, out=out)
            return
        # (K, 1, m) powers times (B, 4, 1, m, nb) tables into the
        # (B, 4, K, 1, nb) view of M.
        table = co.table(D)[:, :, None]
        powers = np.vander(z, table.shape[3], True)[:, None, :]
        parts = ((powers.real, out.real), (powers.imag, out.imag)) \
            if np.iscomplexobj(z) else ((powers, out),)
        for part, dest in parts:
            np.matmul(part, table, out=dest[:, :, :, None])

    # Each column's degree: the first of _DEGREES whose bound holds the
    # column's bound on |u|.  A class whose columns are adjacent, as along
    # a ladder, is written in place.
    size = np.abs(lam)
    degree = _DEGREES[np.searchsorted(_DEGREE_BOUNDS, co.bound[0] + size * (
        co.bound[1] + size * co.bound[2]))]
    for D in np.unique(degree):
        k = np.flatnonzero(degree == D)
        if k[-1] - k[0] == k.size - 1:
            cells(lam[k], D, M[:, :, k[0]:k[-1] + 1])
        else:
            part = np.empty((B, 4, k.size, nb), dtype=M.dtype)
            cells(lam[k], D, part)
            M[:, :, k] = part
    return M.reshape(B, 2, 2, lam.size, nb), None


def _matmul(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """Products a @ b of 2x2 matrices stored [column, row] on the leading axes.

    ``out`` may be ``a`` or ``b``: both products are formed before it is
    written.  Without ``out`` the second is added in place, which keeps one
    temporary fewer alive.
    """
    prod = a[None, 0] * b[:, 0, None]
    if out is None:
        prod += a[None, 1] * b[:, 1, None]
        return prod
    return np.add(prod, a[None, 1] * b[:, 1, None], out=out)


def _carry(G: np.ndarray, s: np.ndarray) -> np.ndarray:
    """G @ s over (K, 2, 2) and (K, 2, 1) stacks, summed over the inner index
    in order, as np.matmul's own loop sums it."""
    out = G[:, :, 0, None] * s[:, 0, None]
    for j in range(1, s.shape[1]):
        out += G[:, :, j, None] * s[:, j, None]
    return out


def _sweep(co: _Coefficients, lam: np.ndarray, y0, v0, *, deriv=False,
           trace=False, count=False):
    """Advance the batch across all cells; returns endpoint data and extras.

    The initial data y0 and v0 at x = 0 are scalars shared by every lam
    column or (K,) arrays, one value per column.  Without ``deriv`` the
    sweep is the scan ``_scan``.  With ``deriv`` it is that scan at
    z = lam + ih, h = 2**-60 max(1, |lam|) (see the module docstring): y
    and v are the real parts of the shot at z, and their lam-derivatives dy
    and dv the imaginary parts over h.  Such a sweep reads the endpoints
    alone, and scans at most ``_COMPLEX_COLUMNS`` columns at a time; a
    column's sweep does not depend on its batch, so the chunks change no
    value.
    """
    if not deriv:
        return _scan(co, lam, y0, v0, trace, count)
    h = 2.0 ** -60 * np.maximum(1.0, np.abs(lam))
    z = lam + 1j * h
    y0, v0 = (np.broadcast_to(np.asarray(c, dtype=float), lam.shape)
              for c in (y0, v0))
    parts = []
    for k in range(0, lam.size, _COMPLEX_COLUMNS):
        cols = slice(k, k + _COMPLEX_COLUMNS)
        parts.append(_scan(co, z[cols], y0[cols], v0[cols], False, False))
    y, v, logscale = (np.concatenate([part[key] for part in parts])
                      for key in ("y", "v", "logscale"))
    return {"y": y.real, "v": v.real, "logscale": logscale,
            "dy": y.imag / h, "dv": v.imag / h}


def _scan(co: _Coefficients, lam: np.ndarray, y0, v0, trace: bool,
          count: bool):
    """The blocked scan of ``_sweep`` at the lam columns, which may be complex.

    The cell matrices come from ``_build_matrices`` in block order; the scan
    forms the running products in place, multiplies the block totals up to
    ``_SPAN_CAP`` cells or a quarter of the grid (``_tree``), then carries
    the state over those products in order with one batched matrix product
    each.  Without ``trace`` the tree's first products and the state after
    each product are scaled per column by powers of two, exactly, to a
    largest entry in [0.5, 1); the summed log factors are reported so
    callers can reconstruct true magnitudes.  Traces are stored unscaled
    and overflow raises instead.
    """
    n = co.V.size - 1
    K = lam.size
    P, _ = _build_matrices(co, lam)
    B = P.shape[0]
    nodes = trace or count
    # Column k carries the state s[k] = (y, v).
    s = np.zeros((K, 2, 1), dtype=P.dtype)
    s[:, 0, 0] = y0
    s[:, 1, 0] = v0
    # Overflow is detected explicitly at the end; silence the transient.
    with np.errstate(over="ignore", invalid="ignore"):
        # Stage 1: P[i, :, :, k, b] becomes the product of the first i + 1
        # cell matrices of block b.
        for i in range(1, B):
            _matmul(P[i], P[i - 1], out=P[i])

        # Stage 2: s <- T s over the tree's top products, one batched
        # product each.  T is stored [column, row] and only viewed as (m, K)
        # stacks of matrices: on these strides np.matmul keeps its own
        # small-matrix loop, which at K = 64 takes half the time of a BLAS
        # call per matrix.  With K = m = 1 the lone matrix has unit row
        # stride, and np.matmul would hand it to BLAS, which rounds
        # differently; ``_carry`` sums it in the loop's order, so a column's
        # sweep does not depend on its batch.
        levels, T, exponent = _tree(P[B - 1], scale=not trace)
        m = T.shape[3]
        G = T.transpose(3, 2, 1, 0)
        if nodes:
            starts = np.empty((m, K, 2, 1))
        for b in range(m):
            if nodes:
                starts[b] = s
            s = np.matmul(G[b], s) if K * m > 1 else _carry(G[b], s)
            if not trace:
                e = np.frexp(np.abs(s).max(axis=(1, 2)))[1]
                s *= np.ldexp(1.0, -e)[:, None, None]
                exponent += e
        logscale = math.log(2.0) * exponent
        y, v = s[:, 0, 0], s[:, 1, 0]

        # Stage 3: every node from its block's start state, as (B, K, nb)
        # block data read through (B, nb, K) views.
        if nodes:
            ys, vs = _block_starts(levels, starts[:, :, 0, 0].T,
                                   starts[:, :, 1, 0].T)
            inner = (P[:, 0, 0] * ys + P[:, 1, 0] * vs).transpose(0, 2, 1)
        if trace:
            Y = _nodes(y0, inner, n)
            W = _nodes(v0, (P[:, 0, 1] * ys + P[:, 1, 1] * vs)
                       .transpose(0, 2, 1), n)
    if trace and not np.all(np.isfinite(Y[-1]) & np.isfinite(W[-1])):
        raise IntegrationError(
            f"trace integration overflowed (n={n}, lam up to {np.max(lam):.6g})")
    if not trace and not np.all(np.isfinite(y) & np.isfinite(v)):
        raise IntegrationError(
            f"integration overflowed despite rescaling (n={n})")
    out = {"y": y, "v": v, "logscale": logscale}
    if trace:
        out["Y"] = Y
        out["W"] = W
    if count:
        out["flips"] = _block_flips(y0, inner, n)
    return out


def _tree(T, scale: bool):
    """Block totals multiplied pairwise until a product spans _SPAN_CAP cells,
    or a quarter of the grid where that is less.

    T is a (2, 2, K, nb) stack stored [column, row].  Each level multiplies
    node 2j + 1 after node 2j; an odd last node passes up as it is.  With
    ``scale`` the first level is scaled by 2**-e, exactly, so that each
    largest entry lies in [0.5, 1); no product of the three levels above it
    then reaches 2**16.  Returns the levels below the top, which the
    down-sweep of ``_block_starts`` reads, the top, and the exponents e
    summed per column.
    """
    levels = []
    exponent = np.zeros(T.shape[2])
    span, cap = _BLOCK, min(_SPAN_CAP, T.shape[3] * _BLOCK // 4)
    while span < cap:
        levels.append(T)
        h = T.shape[3] // 2
        up = _matmul(T[..., 1:2 * h:2], T[..., 0:2 * h:2])
        if T.shape[3] % 2:
            up = np.concatenate([up, T[..., -1:]], axis=3)
        if scale and span == _BLOCK:
            e = np.frexp(np.abs(up).max(axis=(0, 1)))[1]
            up *= np.ldexp(1.0, -e)
            exponent += e.sum(axis=1)
        T = up
        span *= 2
    return levels, T, exponent


def _block_starts(levels, y: np.ndarray, v: np.ndarray):
    """(K, nb) start states of the blocks from the (K, m) ones of the top.

    Walks the levels of ``_tree`` down: node 2j (and an odd last node)
    starts where its parent j does, and node 2j + 1 at T[2j] applied to
    that start.
    """
    for T in reversed(levels):
        h = T.shape[3] // 2
        left = T[..., 0:2 * h:2]
        ys = np.empty(T.shape[2:])
        vs = np.empty_like(ys)
        ys[:, 0::2], vs[:, 0::2] = y, v
        ys[:, 1::2] = left[0, 0] * y[:, :h] + left[1, 0] * v[:, :h]
        vs[:, 1::2] = left[0, 1] * y[:, :h] + left[1, 1] * v[:, :h]
        y, v = ys, vs
    return y, v


def _nodes(first, inner: np.ndarray, n: int) -> np.ndarray:
    """Node values in grid order from the first node and (B, nb, K) block data.

    The result is an (n + 1, K) view of a column-major array: the scan keeps
    the blocks of each column together, and this copy reads them in runs.
    """
    B, nb, K = inner.shape
    out = np.empty((K, nb * B + 1))
    out[:, 0] = first
    out[:, 1:].reshape(K, nb, B)[...] = inner.transpose(2, 1, 0)
    return out[:, :n + 1].T


def _block_flips(first, inner: np.ndarray, n: int) -> np.ndarray:
    """Sign changes down the nodes of each column, skipping exact zeros.

    ``first`` is node 0 and ``inner`` holds node b B + i + 1 at [i, b], the
    (B, nb, K) block data of ``_nodes``; the cells past node n that pad the
    last block are read as copies of node n.  A zero node takes the last
    nonzero sign before it, so y == 0 exactly (at the final node too)
    contributes nothing and the count stays strict.
    """
    B, nb, K = inner.shape
    # Row 0 of block b is the node before it: node 0 for the first block,
    # else the last node of block b - 1.
    s = np.empty((B + 1, nb, K))
    np.sign(inner, out=s[1:])
    last = n - (nb - 1) * B
    s[last + 1:, -1] = s[last, -1]
    s[0, 0] = np.sign(first)
    s[0, 1:] = s[B, :-1]
    # Exact zeros are rare: each pass moves the sign before a run of zeros
    # one node into it, until no zero follows a nonzero sign.
    while not s[1:].all():
        fill = (s[1:] == 0.0) & (s[:-1] != 0.0)
        if not fill.any():
            break
        s[1:][fill] = s[:-1][fill]
        s[0, 1:] = s[B, :-1]
    return np.count_nonzero(s[1:] * s[:-1] < 0.0, axis=(0, 1))


def _count_below(prob, lam: np.ndarray, a: float, b: float):
    """Exact number of eigenvalues strictly below each lam (batched).

    The count is that of the Pruefer phase at x = 1: with s = sqrt(max(lam,
    1)), y = R sin(theta) and y' = s R cos(theta), theta starts in [0, pi)
    and passes a multiple of pi at each zero of y, so theta(1) = pi flips +
    frac with frac = atan2(s y(1), y'(1)) mod pi.  Slot k's eigenvalue has
    the phase k pi + beta, where the closing row l of b vanishes: beta =
    atan2(s l_y', -l_y), that is atan2(s, -b), or pi at a Dirichlet end.
    frac may round up to pi (np.mod(-1e-20, pi) == pi) but never exceeds
    it, so the strict > adds nothing there.
    """
    co = prob._coefficients()
    ly, lv = _end(b).closing
    lam = np.asarray(lam, dtype=float)
    res = _sweep(co, lam, *_end(a).data, count=True)
    s = np.sqrt(np.maximum(lam, 1.0))
    frac = np.mod(np.arctan2(s * res["y"], res["v"]), math.pi)
    return res["flips"] + (frac > np.arctan2(s * lv, -ly)).astype(int)


def _endpoint_w(prob, lam: np.ndarray, a: float, b: float, deriv: bool):
    """Scaled characteristic values (and lam-derivatives) at each lam."""
    closing = _end(b).closing
    res = _sweep(prob._coefficients(), np.asarray(lam, dtype=float),
                 *_end(a).data, deriv=deriv)
    dw = _pair(closing, res["dy"], res["dv"]) if deriv else None
    return _pair(closing, res["y"], res["v"]), dw, res["logscale"], res


def oscillation_count(prob, lam: float, a: float = INF) -> int:
    """Number of interior zeros of the forward shot at this lam."""
    return int(_count_below(prob, [lam], a, INF)[0])


def wronskian(prob, lam: float, a: float = INF, b: float = INF,
              deriv: bool = False, scaled: bool = False):
    """Characteristic function of the boundary pair (a, b) at lam.

    An impedance problem reads it from its normal form, so the value is
    the characteristic function of the transformed potential at lam - c0
    (the endpoint data of y = rho f are those of f times rho(1)).  With
    ``deriv`` the lam-derivative of the discrete shot (a complex-step sweep)
    is returned as a second element.  With ``scaled`` values come as
    (mantissa..., log_scale) to survive deep negative lam.
    """
    w, dw, scale, _ = _endpoint_w(prob, np.asarray([float(lam)]), a, b, deriv)
    ls = float(scale[0])
    if scaled:
        if deriv:
            return float(w[0]), float(dw[0]), ls
        return float(w[0]), ls

    def collapse(mant: float) -> float:
        # The mantissa may itself carry many e-folds between rescaling
        # checkpoints, so the representability test must use the total log.
        if mant == 0.0:
            return 0.0
        total = ls + math.log(abs(mant))
        if total > _LOG_VALUE_LIMIT:
            raise IntegrationError(
                f"characteristic value overflows at lam={lam:.6g}; "
                "request the scaled form")
        return math.copysign(math.exp(total), mant)

    if deriv:
        return collapse(float(w[0])), collapse(float(dw[0]))
    return collapse(float(w[0]))


def _traces(co, lam, y0, v0):
    """Unscaled shots (Y, W) of the coefficients ``co`` from the data (y0, v0)
    at their first node, by lam.

    y0 and v0 are scalars or hold one value per lam column.  For an
    impedance problem these are y = rho f.
    """
    res = _sweep(co, np.asarray(lam, dtype=float), y0, v0, trace=True)
    return res["Y"], res["W"]


def _in_picture(prob, lam, y, dy, from_end=False) -> StateTrace:
    """A normal-form shot y as a trace of the problem's own equation.

    An impedance problem's solution is f = y / rho, f' = (y' - q y) / rho;
    a shot ``from_end`` is scaled by rho(1) as well, so that f keeps the
    end data of y at x = 1.
    """
    if isinstance(prob, ImpedanceProblem):
        rho = build_rho(prob.q).rho.values
        weight = (rho[-1] if from_end else 1.0) / rho
        y, dy = weight * y, weight * (dy - prob.q.f.values * y)
    return StateTrace(lam=float(lam), y=GridFunction(y), dy=GridFunction(dy))


def shoot_forward(prob, lam: float, y0: float = 0.0, dy0: float = 1.0) -> StateTrace:
    """Integrate from x = 0 with the given initial data, keeping the trace."""
    Y, W = _traces(prob._coefficients(), [float(lam)], float(y0), float(dy0))
    return _in_picture(prob, lam, Y[:, 0], W[:, 0])


def shoot_backward(prob, lam: float, b: float = INF) -> StateTrace:
    """Integrate from x = 1 with data encoding the right boundary condition.

    The shot g(s) = y(1 - s) starts from ``_end(b).data``, so (y, y')(1) =
    (1, -b), or (0, -1) for a Dirichlet end.
    """
    G, dG = _traces(prob._coefficients().reflected(), [float(lam)],
                    *_end(b).data)
    return _in_picture(prob, lam, G[::-1, 0], -dG[::-1, 0], from_end=True)
