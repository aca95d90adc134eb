"""Uniform 3-D grids, scalar/complex fields and the discrete operators on them.

Conventions used throughout the package:

* grids are uniform tensor products of ``linspace(lo, hi, n)`` nodes,
  at least 4 per axis, stored C-order with the z index fastest;
* integrals are trapezoidal sums; the reduction is ``np.sum`` (pairwise),
  which fixes a canonical summation order so results are reproducible
  bit-for-bit for a given grid;
* derivatives are central finite differences (order 2 by default, order 4
  available for the norm integrals) with one-sided second-order stencils on
  the boundary planes.

The stencil kernel is buffered: :func:`grad_magnitude_sq` makes one pass
per axis into a reused derivative buffer (one more buffer holds the stencil
terms), squares it in place and accumulates it, so it allocates three
input-sized arrays per call rather than three gradients plus temporaries.
Complex data is processed as its float64 (real, imag) pair view.  The
kernel is bit-identical to evaluating the stencil expressions directly, and
any change to it must stay so: it keeps the operation order
``((a - 8b) + 8c) - d`` and the boundary expressions, divides real data by
``k h``, and multiplies complex data by the reciprocal ``1 / (k h)``, which
is how numpy rounds a complex-by-real division.  For non-finite complex
input the two can differ in which non-finite value they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class Grid3:
    """Uniform grid on a rectangular box.

    ``dims = (nx, ny, nz)`` node counts, each at least 4 so every stencil
    has room; ``box = (x0, y0, z0, x1, y1, z1)`` with ``x1 > x0`` etc.
    Node spacing along each axis is ``(hi - lo) / (n - 1)`` (endpoints are
    grid nodes).
    """

    dims: tuple[int, int, int]
    box: tuple[float, float, float, float, float, float]

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        box = tuple(float(v) for v in self.box)
        if len(dims) != 3:
            raise ValueError(f"dims must have 3 entries, got {self.dims!r}")
        if len(box) != 6:
            raise ValueError(f"box must have 6 entries, got {self.box!r}")
        if any(n < 4 for n in dims):
            raise ValueError(f"each grid dimension must be >= 4, got {dims}")
        if not all(np.isfinite(v) for v in box):
            raise ValueError(f"box entries must be finite, got {box}")
        for ax in range(3):
            if not box[3 + ax] > box[ax]:
                raise ValueError(
                    f"box upper bound must exceed lower bound on axis {ax}: "
                    f"{box[ax]} .. {box[3 + ax]}"
                )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "box", box)

    @property
    def npoints(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @cached_property
    def spacing(self) -> tuple[float, float, float]:
        return tuple(
            (self.box[3 + ax] - self.box[ax]) / (self.dims[ax] - 1) for ax in range(3)
        )

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        out = []
        for ax in range(3):
            a = np.linspace(self.box[ax], self.box[3 + ax], self.dims[ax])
            a.flags.writeable = False
            out.append(a)
        return tuple(out)

    @cached_property
    def axis_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1-D trapezoid weights per axis (h at interior nodes, h/2 at ends)."""
        out = []
        for ax in range(3):
            w = np.full(self.dims[ax], self.spacing[ax])
            w[0] *= 0.5
            w[-1] *= 0.5
            w.flags.writeable = False
            out.append(w)
        return tuple(out)

    @cached_property
    def weights(self) -> np.ndarray:
        """3-D trapezoid weight array (outer product of the axis weights)."""
        wx, wy, wz = self.axis_weights
        w = wx[:, None, None] * wy[None, :, None] * wz[None, None, :]
        w.flags.writeable = False
        return w

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.meshgrid(*self.axes, indexing="ij")


def frozen(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only and return it, so a field can wrap it without a copy.

    Only for arrays nobody else writes to: the caller hands ``arr`` over and
    keeps no writable view of it.
    """
    arr.flags.writeable = False
    return arr


def _is_frozen(arr: np.ndarray) -> bool:
    """``arr`` and every array it views are read-only, and the memory is numpy's or ``bytes``.

    This cannot see a writable view taken before the owner was frozen; the
    field docstrings leave that to the caller.  Memory numpy does not own
    and that is not immutable ``bytes`` (a ``bytearray``, an ``mmap``, any
    other buffer) may change behind numpy's back, so it is not frozen.
    """
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None or type(arr) is bytes


def _prepare(grid: Grid3, values, dtype) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 1 and arr.size == grid.npoints:
        arr = arr.reshape(grid.dims)
    if arr.shape != grid.dims:
        raise ValueError(f"values shape {arr.shape} does not match grid dims {grid.dims}")
    if arr.dtype == dtype and arr.flags.c_contiguous and _is_frozen(arr):
        return arr
    arr = np.array(arr, dtype=dtype, order="C", copy=True)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ScalarField:
    """Real field sampled on a :class:`Grid3`.  Values are stored read-only.

    Writable input is copied, so a later write by the caller cannot reach
    the field.  Input that is already read-only (down to the array that owns
    the memory, which must be numpy's or ``bytes``), C-contiguous and float64
    is kept as it is, without a copy.  The caller of that path must hold no
    writable alias of the memory, e.g. a view taken before the owner was
    made read-only: a write through it would change the field and leave its
    cached quantities stale.
    """

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _prepare(self.grid, self.values, np.float64))


@dataclass(frozen=True)
class ComplexField:
    """Complex field sampled on a :class:`Grid3`.  Values are stored read-only.

    The copy rule of :class:`ScalarField` applies, with complex128 as the
    dtype that is kept without a copy, and so does its contract: read-only
    input must have no writable alias.
    """

    grid: Grid3
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _prepare(self.grid, self.values, np.complex128))


Field = ScalarField | ComplexField


def zeros(grid: Grid3) -> ScalarField:
    return ScalarField(grid, np.zeros(grid.dims))


def zeros_complex(grid: Grid3) -> ComplexField:
    return ComplexField(grid, np.zeros(grid.dims, dtype=np.complex128))


# -- derivatives -----------------------------------------------------------


def _float_view(values) -> tuple[np.ndarray, bool]:
    """values as float64 data; complex data as its (..., 2) real/imag pair view."""
    arr = np.asarray(values)
    if not np.iscomplexobj(arr):
        return np.asarray(arr, dtype=np.float64), False
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    return arr.view(np.float64).reshape(*arr.shape, 2), True


def _scale(a: np.ndarray, d: float, complex_data: bool) -> None:
    """a /= d in place, rounded as numpy rounds the same division of the original dtype.

    numpy divides complex by real as (re, im) * (1/d), so pair data is scaled
    by the reciprocal; real data is divided.
    """
    if complex_data:
        np.multiply(a, 1.0 / d, out=a)
    else:
        np.divide(a, d, out=a)


def _axis_stencil(
    v: np.ndarray, h: float, axis: int, order: int,
    out: np.ndarray, tmp: np.ndarray, complex_data: bool,
) -> None:
    """d v / d x_axis into ``out``, using ``tmp`` (same shape) as scratch."""
    vm, g, t = (np.moveaxis(a, axis, 0) for a in (v, out, tmp))
    if order == 2:
        np.subtract(vm[2:], vm[:-2], out=g[1:-1])
        _scale(g[1:-1], 2.0 * h, complex_data)
    else:
        # fourth-order interior ((a - 8b) + 8c) - d, second-order central one
        # node from the edge
        gi, ti = g[2:-2], t[2:-2]
        np.multiply(vm[1:-3], 8.0, out=ti)
        np.subtract(vm[:-4], ti, out=gi)
        np.multiply(vm[3:-1], 8.0, out=ti)
        np.add(gi, ti, out=gi)
        np.subtract(gi, vm[4:], out=gi)
        _scale(gi, 12.0 * h, complex_data)
        np.subtract(vm[2], vm[0], out=g[1])
        np.subtract(vm[-1], vm[-3], out=g[-2])
        for i in (1, -2):
            _scale(g[i], 2.0 * h, complex_data)
    g[0] = -3.0 * vm[0] + 4.0 * vm[1] - vm[2]
    g[-1] = 3.0 * vm[-1] - 4.0 * vm[-2] + vm[-3]
    for i in (0, -1):
        _scale(g[i], 2.0 * h, complex_data)


def _check_order(order: int) -> None:
    if order not in (2, 4):
        raise ValueError(f"unsupported stencil order {order} (use 2 or 4)")


def gradient_arrays(grid: Grid3, values: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
    """The three partial derivatives of values (float64 or complex128 arrays)."""
    _check_order(order)
    v, complex_data = _float_view(values)
    tmp = np.empty_like(v)
    out = []
    for ax in range(3):
        g = np.empty_like(v)
        _axis_stencil(v, grid.spacing[ax], ax, order, g, tmp, complex_data)
        out.append(g.view(np.complex128)[..., 0] if complex_data else g)
    return tuple(out)


def gradient(f: Field, order: int = 2):
    """Componentwise gradient, returned as three fields of the input type."""
    cls = type(f)
    return tuple(cls(f.grid, g) for g in gradient_arrays(f.grid, f.values, order))


def grad_magnitude_sq(grid: Grid3, values: np.ndarray, order: int = 2) -> np.ndarray:
    """|grad f|^2 pointwise; for complex f the moduli of the components add.

    One stencil pass per axis into a reused buffer, squared in place and
    accumulated; the result is bit-identical to squaring and summing the
    arrays of :func:`gradient_arrays` axis by axis.
    """
    _check_order(order)
    v, complex_data = _float_view(values)
    deriv = np.empty_like(v)
    tmp = np.empty_like(v)
    out = np.empty(grid.dims)
    for ax in range(3):
        _axis_stencil(v, grid.spacing[ax], ax, order, deriv, tmp, complex_data)
        if complex_data:
            np.multiply(deriv, deriv, out=deriv)
            # re^2 + im^2, summed into the real slot
            sq = np.add(deriv[..., 0], deriv[..., 1], out=out if ax == 0 else deriv[..., 0])
        else:
            sq = np.multiply(deriv, deriv, out=out if ax == 0 else deriv)
        if ax > 0:
            out += sq
    return out


# -- integrals -------------------------------------------------------------


def integrate_values(grid: Grid3, values: np.ndarray):
    return np.sum(grid.weights * values)


def integrate(f: Field):
    """Trapezoidal integral over the box (complex for complex fields)."""
    val = integrate_values(f.grid, f.values)
    if isinstance(f, ScalarField):
        return float(val)
    return complex(val)


def lp_norm(grid: Grid3, values: np.ndarray, p: float) -> float:
    """(integral of |f|^p)^(1/p) for the samples ``values`` of f; p >= 1."""
    if not p >= 1.0:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    mag = np.abs(values)
    mag **= p
    return float(integrate_values(grid, mag)) ** (1.0 / p)


@dataclass(frozen=True)
class WeightedGradientL1:
    """Result of :func:`weighted_gradient_l1`.

    ``value`` is the integral of |grad f|^2 / w over the points with
    w >= floor.  ``masked_points`` counts every node excluded by the floor;
    ``significant_masked_points`` counts only those whose floor-bounded
    contribution |grad f|^2 / floor * dV would have moved the result by more
    than ``sig_rel`` relative — tail points of a decaying density are masked
    but not significant, genuine kinks over a vanishing density are.
    """

    value: float
    masked_points: int
    significant_masked_points: int
    total_points: int

    @property
    def masked_fraction(self) -> float:
        return self.masked_points / self.total_points

    @property
    def significant_fraction(self) -> float:
        return self.significant_masked_points / self.total_points


def weighted_gradient_l1(
    f: Field,
    w: ScalarField,
    floor: float,
    order: int = 2,
    sig_rel: float = 1e-9,
    grad_sq: np.ndarray | None = None,
) -> WeightedGradientL1:
    """Integral of |grad f|^2 / w with a positive division floor on w.

    ``grad_sq`` passes |grad f|^2 when the caller has already computed it.
    """
    if not (np.isfinite(floor) and floor > 0.0):
        raise ValueError(f"floor must be positive and finite, got {floor}")
    if f.grid != w.grid:
        raise ValueError("field and weight live on different grids")
    gsq = grad_magnitude_sq(f.grid, f.values, order) if grad_sq is None else grad_sq
    mask = w.values >= floor
    cell = f.grid.weights
    contrib = np.zeros(f.grid.dims)
    np.divide(gsq, w.values, out=contrib, where=mask)
    # contrib is 0 where masked, so no mask factor is needed
    contrib *= cell
    value = float(np.sum(contrib))
    masked = int(f.grid.npoints - np.count_nonzero(mask))
    # lower bound on what each masked point could have contributed
    lost = np.multiply(cell, gsq, out=contrib)
    lost /= floor
    threshold = sig_rel * max(abs(value), _TINY)
    significant = int(np.count_nonzero(~mask & (lost > threshold)))
    return WeightedGradientL1(value, masked, significant, f.grid.npoints)


def boundary_max(f: ScalarField) -> float:
    """Largest |f| over the six boundary faces of the box."""
    v = f.values
    faces = (v[0], v[-1], v[:, 0], v[:, -1], v[:, :, 0], v[:, :, -1])
    return max(float(np.max(np.abs(face))) for face in faces)
