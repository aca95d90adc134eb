"""The slab-blocked |grad f|^2 kernel against the straightforward stencil it replaced.

``_reference_axis_gradient`` and ``_reference_grad_magnitude_sq`` are the
allocate-per-expression implementation kept verbatim as the reference: the
kernel must reproduce it bit for bit, not merely to a tolerance, for every
slab height and every number of workers.  Order 4 is compared everywhere,
both as |grad f|^2 and as the three axis derivatives the kernel forms.
Order 2 is no longer a stencil of its own, but its formulas are the
kernel's boundary closure: the order-2 cases compare the kernel with the
order-2 reference on the boundary planes of each axis (for |grad f|^2, on
the points that lie on boundary planes of all three axes).
"""

import multiprocessing
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields

from _helpers import cube, kernel_derivatives


def _reference_axis_gradient(v, h, axis, order):
    vm = np.moveaxis(v, axis, 0)
    g = np.empty_like(vm)
    if order == 2:
        g[1:-1] = (vm[2:] - vm[:-2]) / (2.0 * h)
    elif order == 4:
        g[2:-2] = (vm[:-4] - 8.0 * vm[1:-3] + 8.0 * vm[3:-1] - vm[4:]) / (12.0 * h)
        g[1] = (vm[2] - vm[0]) / (2.0 * h)
        g[-2] = (vm[-1] - vm[-3]) / (2.0 * h)
    else:
        raise ValueError(f"unsupported stencil order {order} (use 2 or 4)")
    g[0] = (-3.0 * vm[0] + 4.0 * vm[1] - vm[2]) / (2.0 * h)
    g[-1] = (3.0 * vm[-1] - 4.0 * vm[-2] + vm[-3]) / (2.0 * h)
    return np.moveaxis(g, 0, axis)


def _reference_gradient_arrays(grid, values, order):
    return tuple(_reference_axis_gradient(values, grid.spacing[ax], ax, order)
                 for ax in range(3))


def _reference_grad_magnitude_sq(grid, values, order):
    out = np.zeros(grid.dims)
    for g in _reference_gradient_arrays(grid, values, order):
        if np.iscomplexobj(g):
            out += g.real * g.real + g.imag * g.imag
        else:
            out += g * g
    return out


def _closure(n):
    """Indices along an axis of n nodes where the order-4 stencil uses the order-2 formulas."""
    return sorted({0, 1, n - 2, n - 1})


GRIDS = {
    "4x4x4": sr.Grid3((4, 4, 4), (-1.0, -2.0, -0.5, 1.0, 1.5, 2.5)),
    "5x9x7": sr.Grid3((5, 9, 7), (-3.0, -1.0, -2.0, 2.0, 3.0, 1.7)),
    "32^3": cube(32),
    # 37 and 97 rows leave a remainder slab at 3 rows; 101 rows of 40 x 40
    # span several slabs at the default height (40 rows real, 20 complex)
    "37x6x5": sr.Grid3((37, 6, 5), (-2.0, -1.0, -1.5, 2.5, 1.0, 1.0)),
    "97x20x12": sr.Grid3((97, 20, 12), (-6.0, -3.0, -2.0, 6.0, 3.0, 2.0)),
    "101x40x40": sr.Grid3((101, 40, 40), (-5.0, -4.0, -4.0, 5.0, 4.0, 4.0)),
}
SLAB_ROWS = [1, 3, None]  # None: the default _SLAB_BYTES
WORKERS = [1, 2, 3]


def _sample(grid, complex_data):
    """Random data with a smooth part, read-only like field values."""
    rng = np.random.default_rng(sum(grid.dims))
    x, y, z = grid.meshgrid()
    vals = np.exp(-(x * x + 0.5 * y * y + 0.3 * z * z)) + rng.standard_normal(grid.dims)
    if complex_data:
        vals = vals * np.exp(1j * (0.7 * x - 0.2 * z)) + 1j * rng.standard_normal(grid.dims)
    vals.flags.writeable = False
    return vals


def _assert_grad_sq_exact(grid, complex_data, order):
    vals = _sample(grid, complex_data)
    before = vals.copy()
    got = sr.grad_magnitude_sq(grid, vals, 4)
    assert got.dtype == np.float64 and got.shape == grid.dims
    ref = _reference_grad_magnitude_sq(grid, vals, order)
    if order == 2:
        closure = np.ix_(*(_closure(n) for n in grid.dims))
        got, ref = got[closure], ref[closure]
    assert np.array_equal(got, ref)
    assert np.array_equal(vals, before)


def _assert_gradient_arrays_exact(grid, complex_data, order):
    vals = _sample(grid, complex_data)
    got = kernel_derivatives(grid, vals)
    for ax, (g, ref) in enumerate(zip(got, _reference_gradient_arrays(grid, vals, order))):
        assert g.dtype == ref.dtype and g.shape == grid.dims
        if order == 2:
            g, ref = (np.take(a, _closure(grid.dims[ax]), axis=ax) for a in (g, ref))
        assert np.array_equal(g, ref)


def _set_slabs_and_workers(monkeypatch, grid, complex_data, rows, workers):
    if rows is not None:
        row_bytes = grid.dims[1] * grid.dims[2] * 8 * (2 if complex_data else 1)
        monkeypatch.setattr(fields, "_SLAB_BYTES", rows * row_bytes)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", [2, 4])
def test_grad_magnitude_sq_bit_exact(grid_name, complex_data, order):
    _assert_grad_sq_exact(GRIDS[grid_name], complex_data, order)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", [2, 4])
def test_gradient_arrays_bit_exact(grid_name, complex_data, order):
    _assert_gradient_arrays_exact(GRIDS[grid_name], complex_data, order)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("rows", SLAB_ROWS, ids=["1row", "3rows", "default"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_grad_magnitude_sq_bit_exact_any_slabs_and_workers(
        monkeypatch, grid_name, complex_data, order, rows, workers):
    grid = GRIDS[grid_name]
    _set_slabs_and_workers(monkeypatch, grid, complex_data, rows, workers)
    _assert_grad_sq_exact(grid, complex_data, order)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("rows", SLAB_ROWS, ids=["1row", "3rows", "default"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_gradient_arrays_bit_exact_any_slabs_and_workers(
        monkeypatch, grid_name, complex_data, order, rows, workers):
    grid = GRIDS[grid_name]
    _set_slabs_and_workers(monkeypatch, grid, complex_data, rows, workers)
    _assert_gradient_arrays_exact(grid, complex_data, order)


def test_concurrent_callers_with_more_workers_than_cpus(monkeypatch):
    """Four callers share the pool, each with eight workers on one-row slabs, under fast thread switching."""
    grid = GRIDS["37x6x5"]
    _set_slabs_and_workers(monkeypatch, grid, True, 1, 8)
    vals = _sample(grid, True)
    expected = _reference_grad_magnitude_sq(grid, vals, 4)
    exact = []

    def caller():
        for _ in range(20):
            exact.append(np.array_equal(sr.grad_magnitude_sq(grid, vals, 4), expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert exact == [True] * 80


def _grad_sq_in_child(conn, grid, vals, parent_pool):
    got = sr.grad_magnitude_sq(grid, vals, 4)
    conn.send((got, fields._pool(os.getpid(), 1) is parent_pool))
    conn.close()


def test_forked_child_builds_its_own_pool(monkeypatch):
    """A child forked after the parent used the pool computes the same bits, and does not hang."""
    grid = GRIDS["37x6x5"]
    _set_slabs_and_workers(monkeypatch, grid, True, 3, 2)
    vals = _sample(grid, True)
    expected = sr.grad_magnitude_sq(grid, vals, 4)
    parent_pool = fields._pool(os.getpid(), 1)
    assert any(t.name.startswith("spinrep-stencil") for t in threading.enumerate())
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_grad_sq_in_child, args=(send, grid, vals, parent_pool))
    child.start()
    try:
        assert recv.poll(60), "forked child did not answer within 60 s"
        got, inherited_pool = recv.recv()
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert np.array_equal(got, expected)
    assert not inherited_pool


def _summing(a):
    # a in work's own closure: a del in the test then drops only the test's name
    def work(blocks):
        for _ in blocks:
            a.sum()
    return work


def test_cancelled_helper_keeps_nothing_of_the_pass(monkeypatch):
    """A helper still queued in the pool when its pass returns holds no array of the pass."""
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    release = threading.Event()
    # the pool's one thread waits here, so the pass's helper stays queued and is cancelled
    busy = fields._pool(os.getpid(), 1).submit(release.wait, 60)
    try:
        a = np.ones(1000)
        alive = weakref.ref(a)
        fields._over_blocks(range(4), _summing(a))
        del a
        assert alive() is None
    finally:
        release.set()
        busy.result(60)


@pytest.mark.traced
def test_complex_order4_peak_below_two_inputs(monkeypatch):
    """Traced peak of one order-4 complex call at 48^3 with two workers, in input-sized arrays."""
    grid = cube(48)
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    vals = _sample(grid, True)
    sr.grad_magnitude_sq(grid, vals, 4)  # the pool and its threads exist before tracing
    tracemalloc.start()
    try:
        sr.grad_magnitude_sq(grid, vals, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * vals.nbytes
