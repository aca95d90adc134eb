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

The stencil kernel works in slabs of axis-0 rows, each about
``_SLAB_BYTES`` (512 KiB) of float64 data so that a slab's buffers stay in
L2.  For each slab, :func:`grad_magnitude_sq` writes the three axis
derivatives one after the other into one reused slab buffer, squares each
in place and accumulates it into its rows of the result, axis 0 first; the
axis-0 stencil reads its halo rows straight from the input.  ``8 v`` is
formed once per slab (with its two halo rows) and gives both ``8b`` and
``8c`` of every axis: multiplying by a power of two is exact.  The slabs
are spread over ``min(cpus, slabs)`` workers, where ``cpus`` is the size
of the process's CPU affinity mask (``os.cpu_count()`` where there is
none): the calling thread and the threads of one pool, created on first
use and again in a forked child.  Each worker owns its slab buffers and
writes only the rows of the slabs it takes.  :func:`gradient_arrays` uses
the same slab stencil.  Complex data is processed as its float64
(real, imag) pair view.

The kernel is bit-identical to evaluating the stencil expressions
directly, for any slab height and any number of workers, and any change to
it must stay so: it keeps the operation order ``((a - 8b) + 8c) - d`` and
the boundary expressions, divides real data by ``k h``, and multiplies
complex data by the reciprocal ``1 / (k h)``, which is how numpy rounds a
complex-by-real division.  For non-finite complex input the two can differ
in which non-finite value they produce.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_TINY = float(np.finfo(np.float64).tiny)

# float64 bytes in one slab of the gradient kernel, so that a slab's
# buffers stay in a core's L2 cache
_SLAB_BYTES = 512 * 1024


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


def _rows(
    vm: np.ndarray, v8m: np.ndarray | None, off: int | None, h: float, order: int,
    lo: int, hi: int, g: np.ndarray, complex_data: bool,
) -> None:
    """d vm / d x_0 at rows lo:hi of vm into g, whose row 0 is row lo.

    ``v8m`` holds ``8 * vm`` from row ``off`` on (order 4 only); the other
    stencil terms, halo rows included, are read from ``vm`` itself.
    """
    n = vm.shape[0]
    e = order // 2  # rows at each end outside the interior stencil
    i0, i1 = max(lo, e), min(hi, n - e)
    if i0 < i1:
        gi = g[i0 - lo:i1 - lo]
        if order == 2:
            np.subtract(vm[i0 + 1:i1 + 1], vm[i0 - 1:i1 - 1], out=gi)
            _scale(gi, 2.0 * h, complex_data)
        else:
            # ((a - 8b) + 8c) - d
            np.subtract(vm[i0 - 2:i1 - 2], v8m[i0 - 1 - off:i1 - 1 - off], out=gi)
            np.add(gi, v8m[i0 + 1 - off:i1 + 1 - off], out=gi)
            np.subtract(gi, vm[i0 + 2:i1 + 2], out=gi)
            _scale(gi, 12.0 * h, complex_data)
    for i in (0, n - 1) + ((1, n - 2) if e == 2 else ()):
        if not lo <= i < hi:
            continue
        if i == 0:
            gr = -3.0 * vm[0] + 4.0 * vm[1] - vm[2]
        elif i == n - 1:
            gr = 3.0 * vm[-1] - 4.0 * vm[-2] + vm[-3]
        elif i == 1:
            # second-order central one node from the edge
            gr = vm[2] - vm[0]
        else:
            gr = vm[-1] - vm[-3]
        g[i - lo] = gr
        _scale(g[i - lo], 2.0 * h, complex_data)


def _slab_derivatives(
    v: np.ndarray, spacing, order: int, lo: int, hi: int,
    dest, v8buf: np.ndarray | None, complex_data: bool,
):
    """Yield d v / d x_ax on rows lo:hi for ax = 0, 1, 2, each written into dest[ax].

    With order 4, ``8 * v`` is formed once for the slab and its two halo
    rows, in ``v8buf``, and serves all three axes.
    """
    v8 = off = None
    if order == 4:
        off, end = max(lo - 1, 0), min(hi + 1, v.shape[0])
        v8 = np.multiply(v[off:end], 8.0, out=v8buf[:end - off])
    _rows(v, v8, off, spacing[0], order, lo, hi, dest[0], complex_data)
    yield dest[0]
    for ax in (1, 2):
        vm = np.moveaxis(v[lo:hi], ax, 0)
        v8m = None if v8 is None else np.moveaxis(v8[lo - off:hi - off], ax, 0)
        _rows(vm, v8m, 0, spacing[ax], order, 0, vm.shape[0],
              np.moveaxis(dest[ax], ax, 0), complex_data)
        yield dest[ax]


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool and its lock in a forked child.

    The pool's threads do not exist there, and a thread that held the lock
    at the fork would never release it.
    """
    global _pool, _pool_size, _pool_lock
    _pool, _pool_size, _pool_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor(threads: int) -> ThreadPoolExecutor:
    """The process's stencil pool, created on first use, with at least ``threads`` threads.

    A pool that is too small is replaced, not shut down: a concurrent caller
    may still be submitting to it, and its idle threads exit once it is
    garbage collected.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < threads:
            _pool = ThreadPoolExecutor(threads, thread_name_prefix="spinrep-stencil")
            _pool_size = threads
        return _pool


def _slab_rows(v: np.ndarray) -> int:
    """Rows of axis 0 in one slab: about ``_SLAB_BYTES`` of data, at least one row."""
    return min(v.shape[0], max(1, _SLAB_BYTES // max(1, v[0].nbytes)))


def _over_slabs(v: np.ndarray, work) -> None:
    """Call ``work(slabs)`` in each worker; slabs are (lo, hi) row ranges of axis 0.

    ``min(cpus, slabs)`` workers run, the calling thread being one of them;
    each takes the next unclaimed slab until none is left.  Every row is
    computed by the same operations whichever worker takes it, so the
    result does not depend on the scheduling.
    """
    n0, rows = v.shape[0], _slab_rows(v)
    slabs = [(lo, min(lo + rows, n0)) for lo in range(0, n0, rows)]
    workers = min(_cpus(), len(slabs))
    if workers == 1:
        work(slabs)
        return
    claim = itertools.count()  # next() on it is atomic under the GIL

    def claimed():
        while (k := next(claim)) < len(slabs):
            yield slabs[k]

    pool = _executor(workers - 1)
    helpers = [pool.submit(work, claimed()) for _ in range(workers - 1)]
    try:
        work(claimed())
    finally:
        # a helper that has not started would find every slab claimed
        for f in helpers:
            if not f.cancel():
                f.result()


def _v8_buffer(v: np.ndarray, order: int) -> np.ndarray | None:
    """A worker's buffer for ``8 * v`` on one slab and its two halo rows (order 4)."""
    return np.empty((_slab_rows(v) + 2,) + v.shape[1:]) if order == 4 else None


def _check_order(order: int) -> None:
    if order not in (2, 4):
        raise ValueError(f"unsupported stencil order {order} (use 2 or 4)")


def gradient_arrays(grid: Grid3, values: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
    """The three partial derivatives of values (float64 or complex128 arrays)."""
    _check_order(order)
    v, complex_data = _float_view(values)
    grads = [np.empty_like(v) for _ in range(3)]

    def work(slabs):
        v8 = _v8_buffer(v, order)
        for lo, hi in slabs:
            for _ in _slab_derivatives(v, grid.spacing, order, lo, hi,
                                       [g[lo:hi] for g in grads], v8, complex_data):
                pass

    _over_slabs(v, work)
    return tuple(g.view(np.complex128)[..., 0] if complex_data else g for g in grads)


def gradient(f: Field, order: int = 2):
    """Componentwise gradient, returned as three fields of the input type."""
    cls = type(f)
    return tuple(cls(f.grid, g) for g in gradient_arrays(f.grid, f.values, order))


def grad_magnitude_sq(grid: Grid3, values: np.ndarray, order: int = 2) -> np.ndarray:
    """|grad f|^2 pointwise; for complex f the moduli of the components add.

    Slab by slab, each axis derivative goes into one reused slab buffer and
    is squared in place and accumulated; the result is bit-identical to
    squaring and summing the arrays of :func:`gradient_arrays` axis by axis.
    """
    _check_order(order)
    v, complex_data = _float_view(values)
    out = np.empty(grid.dims)

    def work(slabs):
        deriv, v8 = np.empty((_slab_rows(v),) + v.shape[1:]), _v8_buffer(v, order)
        for lo, hi in slabs:
            d, o = deriv[:hi - lo], out[lo:hi]
            for ax, g in enumerate(_slab_derivatives(v, grid.spacing, order, lo, hi,
                                                     (d, d, d), v8, complex_data)):
                if complex_data:
                    np.multiply(g, g, out=g)
                    # re^2 + im^2, summed into the real slot
                    sq = np.add(g[..., 0], g[..., 1], out=o if ax == 0 else g[..., 0])
                else:
                    sq = np.multiply(g, g, out=o if ax == 0 else g)
                if ax > 0:
                    o += sq

    _over_slabs(v, work)
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
