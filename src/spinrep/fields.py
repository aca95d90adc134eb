"""Uniform 3-D grids, scalar/complex fields and the discrete operators on them.

Conventions used throughout the package:

* grids are uniform tensor products of ``linspace(lo, hi, n)`` nodes,
  at least 4 per axis, stored C-order with the z index fastest;
* integrals are trapezoidal sums with the bits of ``np.sum(weights * v)``,
  ``weights`` being the 3-D outer product of the axis weights: numpy's
  pairwise summation fixes the order, so results are reproducible
  bit-for-bit for a given grid;
* derivatives are fourth-order central finite differences, second-order
  central one node from the edge and one-sided second-order on the
  boundary planes.

Blocked passes.  Grid-sized work runs block by block, each block about
``_SLAB_BYTES`` (512 KiB) of float64 data so that its buffers stay in L2.
The blocks are spread over ``min(cpus, blocks)`` workers, where ``cpus`` is
the size of the process's CPU affinity mask (``os.cpu_count()`` where there
is none): the calling thread and helpers from the process's one pool of
``cpus - 1`` threads, created on first use (a forked child creates its
own).  Each worker owns its buffers and writes only the output of the
blocks it takes, so no result depends on the scheduling.

Every pointwise pass cuts slabs of whole planes: of axis-0 rows in the
gradient kernel, the pointwise passes of ``check`` and ``spin_density``,
``sqrt_field``, the orbitals and density sums of ``orbitals`` and the
density generators, each indexing its 3-D arrays as ``a[lo:hi]``
(:func:`blockwise`, :func:`blockwise_arrays`); of axis-0 or axis-1 planes,
smaller, in the streamed passes of ``construct``, which form many buffers
of their own (:func:`_small_slabs`).  Only the integrals (the overlaps and
density match of the witness path among them) cut other blocks, the leaves
of numpy's pairwise tree below, because those leaves set the bits of a sum.
A slab holds at least one plane and a plane at least 16 points, so no
pointwise block holds a single point, where numpy's complex multiply takes
an unfused loop that rounds differently from the whole-array expression;
flat ranges needed a rule against that case, and slabs need none.

The stencil kernel works in slabs of axis-0 rows.  For each slab,
:func:`grad_magnitude_sq` writes the three axis derivatives one after the
other into one reused slab buffer, squares each in place and accumulates it
into its rows of the result, axis 0 first.  Each axis's interior stencil is
one contiguous pass over the flattened slab, the neighbours along the axis
being a flat shift of ``ny nz``, ``nz`` or 1 elements away (doubled for
complex data, processed as its float64 (real, imag) pair view); the pass
also writes meaningless values on the axis's four boundary planes, which
are then rewritten with the one-sided expressions.  The axis-0 stencil
reads its halo rows straight from the input.  ``8 v`` is formed once per
slab (with its two halo rows) and gives both ``8b`` and ``8c`` of every
axis: multiplying by a power of two is exact.

The kernel is bit-identical to evaluating the stencil expressions
directly, for any slab height and any number of workers, and any change to
it must stay so: it keeps the operation order ``((a - 8b) + 8c) - d`` and
the boundary expressions, divides real data by ``k h``, and multiplies
complex data by the reciprocal ``1 / (k h)``, which is how numpy rounds a
complex-by-real division.  For non-finite complex input the two can differ
in which non-finite value they produce.

The integrals follow numpy's pairwise tree.  numpy sums a contiguous run of
f floats by splitting it at ``f//2 - (f//2) % 8`` floats (complex data
counts two floats per element) until a run holds at most 128 floats.  The
integrals cut that tree at runs of about ``_SLAB_BYTES``: each such leaf's
integrand (the masked ratio, ``|f|**p``, ...) is formed and weighted in a
worker's buffer and summed by ``np.sum``, which walks the same subtree, and
the leaf sums are added in tree order onto 0, as numpy's reduction does.
The weights of a leaf come from the two cached axis-0 rows of the weight
array (:attr:`Grid3.row_weights`), and complex data is multiplied by them
with numpy's own real-to-complex cast.  So every integral has the bits of
the whole-array expression it replaces, for any leaf size and any number
of workers, and any change to it must stay so.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .tolerances import SIG_REL, TINY

# float64 bytes in one block of a blocked pass (a slab of a pointwise pass,
# a leaf of an integral), so that a block's buffers stay in a core's L2 cache
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
    def row_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid weights of one axis-0 row, flattened: (end row, interior row).

        Row i of the 3-D weight array is ``(wx[i] * wy)[:, None] * wz``, so
        these two planes hold every weight of the grid.
        """
        wx, wy, wz = self.axis_weights
        out = []
        for i in (0, 1):
            w = ((wx[i] * wy)[:, None] * wz).reshape(-1)
            w.flags.writeable = False
            out.append(w)
        return tuple(out)

    @property
    def weights(self) -> np.ndarray:
        """3-D trapezoid weight array (outer product of the axis weights).

        Built on each access and not kept: spinrep's integrals weigh the
        data row by row with :attr:`row_weights` and never form it.
        """
        wx, wy, wz = self.axis_weights
        return wx[:, None, None] * wy[None, :, None] * wz[None, None, :]

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x, y, z node coordinates as read-only, grid-shaped broadcast views of the axes."""
        return np.meshgrid(*self.axes, indexing="ij", copy=False)


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


# -- derivatives -----------------------------------------------------------


def _float_view(values) -> tuple[np.ndarray, bool]:
    """values as float64 data; complex data as its (..., 2) real/imag pair view."""
    arr = np.asarray(values)
    if not np.iscomplexobj(arr):
        return np.ascontiguousarray(arr, dtype=np.float64), False
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


def _interior(
    vf: np.ndarray, v8f: np.ndarray, off8: int, s: int, q0: int, q1: int,
    h: float, gf: np.ndarray, g0: int, complex_data: bool,
) -> None:
    """The interior stencil with flat shift ``s`` at flat points q0:q1 of vf, into gf.

    ``gf`` holds the flat points from ``g0`` on and ``v8f`` holds ``8 * vf``
    from flat point ``off8`` on.  It is one contiguous pass; the points it
    computes on the axis's boundary planes are rewritten by :func:`_ends`.
    """
    if q0 >= q1:
        return
    g = gf[q0 - g0:q1 - g0]
    # ((a - 8b) + 8c) - d
    np.subtract(vf[q0 - 2 * s:q1 - 2 * s], v8f[q0 - s - off8:q1 - s - off8], out=g)
    np.add(g, v8f[q0 + s - off8:q1 + s - off8], out=g)
    np.subtract(g, vf[q0 + 2 * s:q1 + 2 * s], out=g)
    _scale(g, 12.0 * h, complex_data)


def _ends(
    vm: np.ndarray, h: float, lo: int, hi: int, g: np.ndarray, complex_data: bool,
) -> None:
    """The boundary planes of d vm / d x_0 that lie in rows lo:hi, into g, whose row 0 is row lo."""
    n = vm.shape[0]
    for i in (0, 1, n - 2, n - 1):
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
    v: np.ndarray, spacing, lo: int, hi: int, g: np.ndarray, v8buf: np.ndarray,
    complex_data: bool,
):
    """Yield d v / d x_ax on rows lo:hi for ax = 0, 1, 2, each written into g.

    ``v`` is C-contiguous and ``g`` a C-contiguous array of the slab's rows.
    Each axis's interior stencil is one pass over the flattened slab with
    flat shift ``ny nz``, ``nz`` or 1 (times 2 for pair data); ``8 * v`` is
    formed once for the slab and its two halo rows, in the flat buffer
    ``v8buf``, and serves all three axes.
    """
    n0, row = v.shape[0], v[0].size
    vf = v.reshape(-1)
    off, end = max(lo - 1, 0), min(hi + 1, n0)
    v8f = np.multiply(vf[off * row:end * row], 8.0, out=v8buf[:(end - off) * row])
    for ax in range(3):
        s = row // math.prod(v.shape[1:ax + 1])  # flat shift of one step along ax
        if ax == 0:
            q0, q1 = max(lo, 2) * row, min(hi, n0 - 2) * row
        else:
            q0, q1 = lo * row + 2 * s, hi * row - 2 * s
        _interior(vf, v8f, off * row, s, q0, q1, spacing[ax], g.reshape(-1), lo * row,
                  complex_data)
        if ax == 0:
            _ends(v, spacing[0], lo, hi, g, complex_data)
        else:
            _ends(np.moveaxis(v[lo:hi], ax, 0), spacing[ax], 0, v.shape[ax],
                  np.moveaxis(g, ax, 0), complex_data)
        yield g


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _pool(pid: int, threads: int) -> ThreadPoolExecutor:
    """The worker pool of process ``pid``, with ``threads`` threads, created on first use.

    Keyed by the process id, so a forked child, whose copy of the parent's
    pool has no threads, builds its own.  Two first callers may race and
    each build one; the pool not kept is dropped after its caller's pass.
    """
    return ThreadPoolExecutor(threads, thread_name_prefix="spinrep-stencil")


def _over_blocks(blocks, work) -> None:
    """Call ``work(blocks)`` in each worker; each takes the next unclaimed block.

    ``min(cpus, blocks)`` workers run, the calling thread and helpers from a
    pool of ``cpus - 1`` threads.  Every block is computed by the same
    operations whichever worker takes it, so the result does not depend on
    the scheduling.  The helpers run under the caller's ``np.errstate``.
    ``work`` must not itself run blocks on the workers.  The helpers reach
    ``work`` through a holder that is emptied once each has finished or been
    cancelled, so a cancelled helper still queued in the pool keeps nothing
    of the pass alive.
    """
    cpus = _cpus()
    workers = min(cpus, len(blocks))
    if workers <= 1:
        work(blocks)
        return
    claim = itertools.count()  # next() on it is atomic under the GIL
    errstate = np.geterr()
    held = [work]

    def claimed():
        while (k := next(claim)) < len(blocks):
            yield blocks[k]

    def helper(claimed):
        with np.errstate(**errstate):
            held[0](claimed)

    pool = _pool(os.getpid(), cpus - 1)
    helpers = [pool.submit(helper, claimed()) for _ in range(workers - 1)]
    try:
        work(claimed())
    finally:
        # a helper that has not started would find every block claimed
        for f in helpers:
            if not f.cancel():
                f.result()
        held.clear()


def blockwise(shape, step, scratch: int = 0) -> None:
    """Call ``step(lo, hi, *bufs)`` on the workers for the axis-0 row slabs lo:hi of ``shape``.

    The slabs are those of :func:`_over_slabs` for float64 data of
    ``shape``, and ``bufs`` are ``scratch`` float64 buffers of the slab's
    shape owned by the worker.  For pointwise work that writes each slab of
    its output once.
    """
    rows = _slab_rows(shape)

    def work(slabs):
        bufs = [np.empty((rows, *shape[1:])) for _ in range(scratch)]
        for lo, hi in slabs:
            step(lo, hi, *(b[:hi - lo] for b in bufs))

    _over_slabs(shape, work)


def blockwise_arrays(shape, dtypes, step, scratch: int = 0) -> list[np.ndarray]:
    """New arrays of ``shape``, one per dtype, filled by ``step(lo, hi, *outs, *bufs)``.

    ``outs`` are rows lo:hi of the arrays; the slabs and buffers are those
    of :func:`blockwise`.
    """
    arrays = [np.empty(shape, dtype) for dtype in dtypes]
    blockwise(shape, lambda lo, hi, *bufs: step(lo, hi, *(a[lo:hi] for a in arrays), *bufs),
              scratch)
    return arrays


def _abs2(z: np.ndarray, out: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """``z.real * z.real + z.imag * z.imag`` into ``out``, with ``buf`` as scratch."""
    np.multiply(z.real, z.real, out=out)
    out += np.multiply(z.imag, z.imag, out=buf)
    return out


def _slab_rows(shape) -> int:
    """Axis-0 rows in one slab of float64 data of ``shape``: about ``_SLAB_BYTES``, at least one."""
    return min(shape[0], max(1, _SLAB_BYTES // (8 * math.prod(shape[1:]))))


def _small_points(npoints: int) -> int:
    """Points in a small block of float64 data: half ``_SLAB_BYTES``, or less on a small grid.

    For passes that form many buffers of a block's size.  All workers' blocks
    together hold at most about a quarter of the ``npoints``, so those
    buffers stay small beside a small grid, however many workers there are.
    """
    return max(1, round(min(_SLAB_BYTES / 16, npoints / (4 * _cpus()))))


def _small_slabs(dims, step, axis: int = 0, rows: int | None = None) -> None:
    """Call ``step(lo, hi)`` on the workers for ranges lo:hi of ``rows`` planes of ``axis``.

    For passes that form their integrand in buffers of their own: a small
    slab, by default of :func:`_small_points`, keeps those small beside what
    the caller holds.  By default the planes are axis-0 rows.
    """
    n, npoints = dims[axis], math.prod(dims)
    rows = rows or min(n, max(1, round(_small_points(npoints) * n / npoints)))

    def work(blocks):
        for lo, hi in blocks:
            step(lo, hi)

    _over_blocks([(lo, min(lo + rows, n)) for lo in range(0, n, rows)], work)


def _over_slabs(shape, work) -> None:
    """Call ``work(slabs)`` in each worker; slabs are (lo, hi) row ranges of axis 0."""
    n0, rows = shape[0], _slab_rows(shape)
    _over_blocks([(lo, min(lo + rows, n0)) for lo in range(0, n0, rows)], work)


def grad_magnitude_sq(grid: Grid3, values: np.ndarray, order: int = 4) -> np.ndarray:
    """|grad f|^2 pointwise; for complex f the moduli of the components add.

    Slab by slab, each axis derivative goes into one reused slab buffer and
    is squared in place and accumulated into the result, axis 0 first.
    ``order`` must be 4, the one stencil there is.
    """
    if order != 4:
        raise ValueError(f"unsupported stencil order {order} (only 4)")
    return _grad_sq(grid, values)


def _grad_sq(grid: Grid3, values: np.ndarray, each=None) -> np.ndarray:
    """The pass of :func:`grad_magnitude_sq`, with the same bits.

    ``each(ax, lo, hi, g)``, if given, is called on the worker with each
    axis derivative ``g`` of rows lo:hi before it is squared (complex data
    as its (..., 2) real/imag pair view); it must not write to ``g``.
    """
    v, complex_data = _float_view(values)
    out = np.empty(grid.dims)

    def work(slabs):
        rows = _slab_rows(v.shape)
        deriv, v8 = np.empty((rows,) + v.shape[1:]), np.empty((rows + 2) * v[0].size)
        for lo, hi in slabs:
            d, o = deriv[:hi - lo], out[lo:hi]
            for ax, g in enumerate(_slab_derivatives(v, grid.spacing, lo, hi, d, v8,
                                                     complex_data)):
                if each is not None:
                    each(ax, lo, hi, g)
                if complex_data:
                    np.multiply(g, g, out=g)
                    # re^2 + im^2, summed into the real slot
                    sq = np.add(g[..., 0], g[..., 1], out=o if ax == 0 else g[..., 0])
                else:
                    sq = np.multiply(g, g, out=o if ax == 0 else g)
                if ax > 0:
                    o += sq

    _over_slabs(v.shape, work)
    return out


# -- integrals -------------------------------------------------------------


# numpy sums a run of at most this many floats without splitting it
_PAIRWISE_BLOCK = 128


@functools.lru_cache(maxsize=32)
def _pairwise_tree(n: int, width: int, leaf: int):
    """numpy's pairwise summation tree over n items of ``width`` floats, cut into leaves.

    numpy's pairwise sum splits a run of f > ``_PAIRWISE_BLOCK`` floats
    into its first ``f//2 - (f//2) % 8`` floats and the rest, and adds the
    two halves' sums.  Here the splitting stops at runs of at most ``leaf``
    items (or at numpy's own block), and each such run is a leaf.  Returns
    ``(leaves, tree)``: the leaves' (lo, hi) item ranges in order, and a
    tree whose nodes are leaf indices or (left, right) pairs.
    """
    leaves = []

    def split(lo, hi):
        f = (hi - lo) * width
        if hi - lo <= leaf or f <= _PAIRWISE_BLOCK:
            leaves.append((lo, hi))
            return len(leaves) - 1
        half = f // 2
        mid = lo + (half - half % 8) // width
        return split(lo, mid), split(mid, hi)

    tree = split(0, n)
    return tuple(leaves), tree


def _add_tree(tree, sums):
    if isinstance(tree, int):
        return sums[tree]
    return _add_tree(tree[0], sums) + _add_tree(tree[1], sums)


def _weigh(grid: Grid3, lo: int, hi: int, x: np.ndarray, out: np.ndarray) -> None:
    """out = trapezoid weight * x on the flat points lo:hi, as 1-D arrays of those points."""
    end, mid = grid.row_weights
    row, nx = end.size, grid.dims[0]
    q = lo
    while q < hi:
        i, c = divmod(q, row)
        rows = min(hi // row, nx - 1) - i  # whole interior rows from row i on
        if c == 0 and i > 0 and rows > 0:
            stop = q + rows * row
            np.multiply(mid, x[q - lo:stop - lo].reshape(rows, row),
                        out=out[q - lo:stop - lo].reshape(rows, row))
        else:
            stop = min(hi, (i + 1) * row)
            w = end if i in (0, nx - 1) else mid
            np.multiply(w[c:c + stop - q], x[q - lo:stop - lo], out=out[q - lo:stop - lo])
        q = stop


def _leaves(grid: Grid3, dtype, small: bool = False):
    width = 2 if np.dtype(dtype).kind == "c" else 1
    leaf = _small_points(grid.npoints) if small else _SLAB_BYTES // 8
    return _pairwise_tree(grid.npoints, width, max(1, leaf // width))


def _weighted_sum(grid: Grid3, dtype, integrand, count: int | None = None):
    """``np.sum(weights * x)`` with the same bits, leaf by leaf on the workers.

    ``integrand(lo, hi, buf)`` returns x on the flat points lo:hi, either
    written into the worker's buffer ``buf`` (of ``dtype``) or as a view of
    its input.  Each leaf of numpy's pairwise tree is weighted into the
    buffer and summed by ``np.sum``; the leaf sums are added in tree order
    and, as numpy's reduction does, onto 0.  With ``count``, the integrand
    takes that many buffers and returns as many integrands, formed together
    on each leaf, and their integrals are returned as a list; the leaves are
    then small blocks (:func:`_small_points`), for the buffers that forms.
    """
    leaves, tree = _leaves(grid, dtype, small=count is not None)
    n = 1 if count is None else count
    sums = [[None] * len(leaves) for _ in range(n)]

    def work(claimed):
        bufs = [np.empty(max(hi - lo for lo, hi in leaves), dtype) for _ in range(n)]
        for k in claimed:
            lo, hi = leaves[k]
            bs = [b[:hi - lo] for b in bufs]
            xs = integrand(lo, hi, *bs)
            for s, x, b in zip(sums, (xs,) if count is None else xs, bs):
                _weigh(grid, lo, hi, x, b)
                s[k] = np.sum(b)

    _over_blocks(range(len(leaves)), work)
    totals = [0.0 + _add_tree(tree, s) for s in sums]
    return totals[0] if count is None else totals


def _flat(grid: Grid3, values) -> np.ndarray:
    """values broadcast to the grid, as a flat C-order array."""
    arr = np.asarray(values)
    if arr.shape != grid.dims:
        arr = np.broadcast_to(arr, grid.dims)
    return np.ascontiguousarray(arr).reshape(-1)


def integrate_values(grid: Grid3, values: np.ndarray):
    """Trapezoidal integral of the samples ``values`` (a numpy float or complex).

    The bits are those of ``np.sum(weights * values)`` with the 3-D
    trapezoid weight array, which is never formed.
    """
    v = _flat(grid, values)
    return _weighted_sum(grid, np.result_type(np.float64, v.dtype),
                         lambda lo, hi, buf: v[lo:hi])


def integrate(f: Field):
    """Trapezoidal integral over the box (complex for complex fields)."""
    val = integrate_values(f.grid, f.values)
    if isinstance(f, ScalarField):
        return float(val)
    return complex(val)


def lp_norm(grid: Grid3, values: np.ndarray, p: float, squared: bool = False) -> float:
    """(integral of |f|^p)^(1/p) for the samples ``values`` of f; p >= 1.

    With ``squared``, ``values`` holds |f|^2 (say |grad g|^2), and the bits
    are those of ``lp_norm(grid, np.sqrt(values), p)`` without the
    grid-sized square root.
    """
    if not p >= 1.0:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    v = _flat(grid, values)

    def integrand(lo, hi, buf):
        x = np.sqrt(v[lo:hi], out=buf) if squared else v[lo:hi]
        mag = np.abs(x, out=buf)
        mag **= p
        return mag

    return float(_weighted_sum(grid, np.float64, integrand)) ** (1.0 / p)


@dataclass(frozen=True)
class WeightedGradientL1:
    """Result of :func:`weighted_gradient_l1`.

    ``value`` is the integral of |grad f|^2 / w over the points with
    w >= floor.  ``masked_points`` counts every node excluded by the floor;
    ``significant_masked_points`` counts only those whose floor-bounded
    contribution |grad f|^2 / floor * dV would have moved the result by more
    than ``SIG_REL`` relative — tail points of a decaying density are masked
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
    grad_sq: np.ndarray | None = None,
) -> WeightedGradientL1:
    """Integral of |grad f|^2 / w with a positive division floor on w.

    ``grad_sq`` passes |grad f|^2 when the caller has already computed it.
    """
    if not (np.isfinite(floor) and floor > 0.0):
        raise ValueError(f"floor must be positive and finite, got {floor}")
    if f.grid != w.grid:
        raise ValueError("field and weight live on different grids")
    grid = f.grid
    gsq = grad_magnitude_sq(grid, f.values) if grad_sq is None else grad_sq
    g, wv = _flat(grid, gsq), _flat(grid, w.values)
    masked = {}  # leaf start -> points of the leaf below the floor

    def ratio(lo, hi, buf):
        mask = wv[lo:hi] >= floor
        masked[lo] = hi - lo - int(np.count_nonzero(mask))
        buf.fill(0.0)
        # 0 where masked, so no mask factor is needed after weighting
        return np.divide(g[lo:hi], wv[lo:hi], out=buf, where=mask)

    value = float(_weighted_sum(grid, np.float64, ratio))
    # the bound below is needed only on the leaves with masked points
    leaves = [(lo, hi) for lo, hi in _leaves(grid, np.float64)[0] if masked[lo]]
    significant = []
    if leaves:
        threshold = SIG_REL * max(abs(value), TINY)

        def bound(claimed):
            # lower bound on what each masked point could have contributed
            buf = np.empty(max(hi - lo for lo, hi in leaves))
            for lo, hi in claimed:
                lost = buf[:hi - lo]
                _weigh(grid, lo, hi, g[lo:hi], lost)
                lost /= floor
                n = np.count_nonzero(~(wv[lo:hi] >= floor) & (lost > threshold))
                significant.append(int(n))

        _over_blocks(leaves, bound)
    return WeightedGradientL1(value, sum(masked.values()), sum(significant), grid.npoints)


def _worst(values, largest: bool = False) -> tuple[float, tuple[int, ...]]:
    """The smallest entry of ``values`` (with ``largest``, the largest) and its index.

    NaN is worse than any number, and of equal entries the first wins, as in
    ``np.argmin`` (``np.argmax``).  Every tolerance test reduces its values
    here and compares the result as ``not value <= limit``, which NaN fails.
    """
    a = np.asarray(values, dtype=np.float64)
    i = np.argmax(a) if largest else np.argmin(a)
    return float(a.flat[i]), tuple(int(k) for k in np.unravel_index(i, a.shape))


def boundary_max(f: ScalarField) -> float:
    """Largest |f| over the six boundary faces of the box; NaN if any face holds one."""
    v = f.values
    faces = (v[0], v[-1], v[:, 0], v[:, -1], v[:, :, 0], v[:, :, -1])
    return _worst([np.max(np.abs(face)) for face in faces], largest=True)[0]
