"""The buffered |grad f|^2 kernel against the straightforward stencil it replaced.

``_reference_axis_gradient`` and ``_reference_grad_magnitude_sq`` are the
allocate-per-expression implementation kept verbatim as the reference: the
buffered kernel must reproduce it bit for bit, not merely to a tolerance.
"""

import numpy as np
import pytest

import spinrep as sr

from _helpers import cube


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


GRIDS = {
    "4x4x4": sr.Grid3((4, 4, 4), (-1.0, -2.0, -0.5, 1.0, 1.5, 2.5)),
    "5x9x7": sr.Grid3((5, 9, 7), (-3.0, -1.0, -2.0, 2.0, 3.0, 1.7)),
    "32^3": cube(32),
}


def _sample(grid, complex_data):
    """Random data with a smooth part, read-only like field values."""
    rng = np.random.default_rng(sum(grid.dims))
    x, y, z = grid.meshgrid()
    vals = np.exp(-(x * x + 0.5 * y * y + 0.3 * z * z)) + rng.standard_normal(grid.dims)
    if complex_data:
        vals = vals * np.exp(1j * (0.7 * x - 0.2 * z)) + 1j * rng.standard_normal(grid.dims)
    vals.flags.writeable = False
    return vals


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", [2, 4])
def test_grad_magnitude_sq_bit_exact(grid_name, complex_data, order):
    grid = GRIDS[grid_name]
    vals = _sample(grid, complex_data)
    before = vals.copy()
    got = sr.grad_magnitude_sq(grid, vals, order)
    assert got.dtype == np.float64 and got.shape == grid.dims
    assert np.array_equal(got, _reference_grad_magnitude_sq(grid, vals, order))
    assert np.array_equal(vals, before)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", [2, 4])
def test_gradient_arrays_bit_exact(grid_name, complex_data, order):
    grid = GRIDS[grid_name]
    vals = _sample(grid, complex_data)
    got = sr.gradient_arrays(grid, vals, order)
    for g, ref in zip(got, _reference_gradient_arrays(grid, vals, order)):
        assert g.dtype == ref.dtype and g.shape == grid.dims
        assert np.array_equal(g, ref)
