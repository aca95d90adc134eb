"""The blocked density generators against the whole-array bodies they replaced.

The references in ``_reference.py`` are the former bodies of
``gaussian_diagonal``, ``gaussian_spinor``, ``rank1_from_orbital`` and
``full_rank_mixture``.  The blocked passes must reproduce them byte for
byte, the sign of every zero included, on cubic and uneven grids, on a box
centred on the origin and on an off-centre box (whose centre is a node of
the odd axes), for slabs of one row, of three rows and of the default
size, on 1, 2 and 3 workers.  Each test computes its reference once and
compares every slab height and worker count with it.
"""

import tracemalloc

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields

from _helpers import cube
from _reference import (
    ref_full_rank_mixture,
    ref_gaussian_diagonal,
    ref_gaussian_spinor,
    ref_rank1_from_orbital,
)

GRIDS = {
    "32^3": (32, 32, 32),
    "33^3": (33, 33, 33),
    "45x38x51": (45, 38, 51),
    "96^3": (96, 96, 96),
}
BOXES = {
    "centred": (-8.0, -8.0, -8.0, 8.0, 8.0, 8.0),
    # centre (2, 1, -1): the middle node of an odd axis
    "off-centre": (-6.0, -7.0, -9.0, 10.0, 9.0, 7.0),
}
SLAB_ROWS = [1, 3, None]  # None: the default slab size
WORKERS = [1, 2, 3]


@pytest.fixture(params=[(g, b) for g in GRIDS for b in BOXES], ids=lambda p: f"{p[0]}-{p[1]}")
def grid(request):
    dims, box = GRIDS[request.param[0]], BOXES[request.param[1]]
    return sr.Grid3(dims, box)


def assert_same(got, ref):
    """Same dtype, shape and bytes: equal values and the same sign of every zero."""
    g, r = np.asarray(got), np.asarray(ref)
    assert g.dtype == r.dtype and g.shape == r.shape
    assert g.tobytes() == r.tobytes()


def assert_same_field(got, ref):
    assert got.n_electrons == ref.n_electrons
    for a, b in zip((got.rho_up, got.rho_dn, got.sigma), (ref.rho_up, ref.rho_dn, ref.sigma)):
        assert_same(a.values, b.values)


def each_blocking(monkeypatch, grid):
    """Yield once for every slab height and worker count, with both set."""
    row_bytes = grid.dims[1] * grid.dims[2] * 8
    default = fields._SLAB_BYTES
    for rows in SLAB_ROWS:
        for workers in WORKERS:
            monkeypatch.setattr(fields, "_SLAB_BYTES", default if rows is None else rows * row_bytes)
            monkeypatch.setattr(fields, "_cpus", lambda workers=workers: workers)
            yield


def test_gaussian_diagonal(grid, monkeypatch):
    ref = ref_gaussian_diagonal(grid, 3, width=1.2)
    for _ in each_blocking(monkeypatch, grid):
        got = sr.gaussian_diagonal(grid, 3, width=1.2)
        assert_same_field(got, ref)
        assert got.rho_up.values is got.rho_dn.values


@pytest.mark.parametrize("phase_gradient", [0.0, 0.9])
def test_gaussian_spinor(grid, monkeypatch, phase_gradient):
    kw = dict(width_up=1.3, width_dn=1.1, spin_fraction=0.4, phase_gradient=phase_gradient)
    ref = ref_gaussian_spinor(grid, **kw)
    for _ in each_blocking(monkeypatch, grid):
        for got, want in zip(sr.gaussian_spinor(grid, **kw), ref):
            assert_same(got.values, want.values)


@pytest.mark.parametrize("phase_gradient", [0.0, -1.3])
def test_rank1_from_orbital(grid, monkeypatch, phase_gradient):
    spinor = ref_gaussian_spinor(grid, width_up=1.3, width_dn=1.1, spin_fraction=0.4,
                                 phase_gradient=phase_gradient)
    ref = ref_rank1_from_orbital(*spinor, 3)
    for _ in each_blocking(monkeypatch, grid):
        assert_same_field(sr.rank1_from_orbital(*spinor, 3), ref)


@pytest.mark.parametrize("n", [16, 24, 32])
def test_rank1_from_orbital_complex_components(monkeypatch, n):
    # both components complex, on grids below and above the 16384 points from
    # which numpy's whole-grid u * conj(d) multiplied in the order conj(d) * u
    grid = cube(n, 6.0)
    up, dn = ref_gaussian_spinor(grid, width_up=1.4, spin_fraction=0.3, phase_gradient=0.8)
    turn = np.exp(2j * np.pi * np.random.default_rng(n).random(grid.dims))
    dn = sr.ComplexField(grid, dn.values * turn)
    ref = ref_rank1_from_orbital(up, dn, 2)
    for _ in each_blocking(monkeypatch, grid):
        assert_same_field(sr.rank1_from_orbital(up, dn, 2), ref)


@pytest.mark.parametrize("phase_gradient", [0.0, 0.9])
@pytest.mark.parametrize("coupling", [0.0, 0.6, -0.4])
def test_full_rank_mixture(grid, monkeypatch, coupling, phase_gradient):
    kw = dict(coupling=coupling, width_up=1.2, width_dn=1.5, spin_fraction=0.3,
              phase_gradient=phase_gradient)
    ref = ref_full_rank_mixture(grid, 2, **kw)
    for _ in each_blocking(monkeypatch, grid):
        assert_same_field(sr.full_rank_mixture(grid, 2, **kw), ref)


def test_full_rank_mixture_negative_zero_coupling():
    # sigma is +0 as for coupling 0, not -0 from a product with -0.0
    grid = sr.Grid3((33, 33, 33), BOXES["off-centre"])
    got = sr.full_rank_mixture(grid, 2, coupling=-0.0, phase_gradient=0.9)
    assert_same_field(got, ref_full_rank_mixture(grid, 2, coupling=-0.0, phase_gradient=0.9))
    assert not np.any(np.signbit(got.sigma.values.view(np.float64)))


# -- memory -----------------------------------------------------------------------


def traced_grids(fn, grid):
    """Peak traced allocation of ``fn()``, in float64 grids of ``grid``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (8 * grid.npoints)
    finally:
        tracemalloc.stop()


@pytest.mark.traced
@pytest.mark.parametrize("workers", [1, 2])
def test_generators_allocate_little_beyond_their_outputs(monkeypatch, workers):
    # outputs: 4 grids for the mixture, 3 for the diagonal (its two densities are
    # one array), 4 for the spinor plus 4 for the rank-1 field
    grid = cube(96)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    assert traced_grids(lambda: sr.full_rank_mixture(
        grid, 2, coupling=0.5, width_up=1.2, width_dn=1.5, phase_gradient=0.9), grid) <= 4.5
    assert traced_grids(lambda: sr.gaussian_diagonal(grid, 2, width=1.2), grid) <= 3.5
    assert traced_grids(lambda: sr.rank1_from_orbital(*sr.gaussian_spinor(
        grid, width_up=1.2, phase_gradient=0.9), 2), grid) <= 8.5
