"""The blocked integrals and pointwise passes against the whole-array code they replaced.

The references below are the old bodies, kept verbatim: the trapezoid
integral ``np.sum(weights * v)`` with the 3-D weight array, ``lp_norm``,
``weighted_gradient_l1``, ``det_field`` and the clipped square root.  The
blocked code must reproduce them bit for bit (``==``, with NaN equal to NaN
and the sign of a zero compared too) for any leaf size and any number of
workers, including on data with NaN, infinities and negative zeros.
"""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields
from spinrep.check import _sqrt_clipped

from _helpers import cube, field_from_arrays

GRIDS = {
    "4x4x4": sr.Grid3((4, 4, 4), (-1.0, -2.0, -0.5, 1.0, 1.5, 2.5)),
    "5x9x7": sr.Grid3((5, 9, 7), (-3.0, -1.0, -2.0, 2.0, 3.0, 1.7)),
    "37x6x5": sr.Grid3((37, 6, 5), (-2.0, -1.0, -1.5, 2.5, 1.0, 1.0)),
    "97x20x12": sr.Grid3((97, 20, 12), (-6.0, -3.0, -2.0, 6.0, 3.0, 2.0)),
    "64^3": cube(64),
    "101x40x40": sr.Grid3((101, 40, 40), (-5.0, -4.0, -4.0, 5.0, 4.0, 4.0)),
}
# None: the default leaf size; 1000 bytes makes leaves of at most 125 floats
# (or numpy's 128-float block), which cut the rows of every grid here
LEAF_BYTES = [None, 1000]
WORKERS = [1, 2, 3]
SPECIALS = ["negzero", "allnegzero", "inf", "infs", "nan"]

_TINY = float(np.finfo(np.float64).tiny)


def _weights(grid):
    wx, wy, wz = grid.axis_weights
    return wx[:, None, None] * wy[None, :, None] * wz[None, None, :]


def _reference_integral(grid, v):
    return np.sum(_weights(grid) * v)


def _reference_lp_norm(grid, values, p):
    mag = np.abs(values)
    mag **= p
    return float(_reference_integral(grid, mag)) ** (1.0 / p)


def _reference_weighted_gradient_l1(grid, gsq, w, floor, sig_rel):
    mask = w >= floor
    cell = _weights(grid)
    contrib = np.zeros(grid.dims)
    np.divide(gsq, w, out=contrib, where=mask)
    contrib *= cell
    value = float(np.sum(contrib))
    masked = int(grid.npoints - np.count_nonzero(mask))
    lost = np.multiply(cell, gsq, out=contrib)
    lost /= floor
    threshold = sig_rel * max(abs(value), _TINY)
    significant = int(np.count_nonzero(~mask & (lost > threshold)))
    return value, masked, significant


def _reference_det(r, tol=sr.DEFAULT):
    s = r.sigma.values
    raw = r.rho_up.values * r.rho_dn.values - (s.real * s.real + s.imag * s.imag)
    clamp = tol.det_clamp(r.scale)
    raw[(raw < 0.0) & (raw >= -clamp)] = 0.0
    return raw


def assert_same(got, ref):
    """Equal bits up to NaN payloads: same dtype, same values, same sign of every zero."""
    g, r = np.asarray(got), np.asarray(ref)
    assert g.dtype == r.dtype and g.shape == r.shape
    assert np.array_equal(g, r, equal_nan=True)
    for part in (np.real, np.imag):
        zero = part(r) == 0.0
        assert np.array_equal(np.signbit(part(g))[zero], np.signbit(part(r))[zero])


def _sample(grid, complex_data, special=None, seed=0):
    rng = np.random.default_rng(seed + sum(grid.dims))
    v = rng.standard_normal(grid.dims)
    if complex_data:
        v = v + 1j * rng.standard_normal(grid.dims)
    flat = v.reshape(-1)
    idx = rng.choice(flat.size, size=min(5, flat.size), replace=False)
    if special == "negzero":
        flat[idx] = -0.0
    elif special == "allnegzero":
        v = np.full(grid.dims, -0.0 - 0.0j if complex_data else -0.0)
    elif special == "inf":
        flat[idx] = np.inf
    elif special == "infs":
        flat[idx[:2]] = np.inf
        flat[idx[2:]] = -np.inf
    elif special == "nan":
        flat[idx] = np.nan
        if complex_data:
            flat[idx[0]] = complex(1.0, np.nan)
    v.flags.writeable = False
    return v


@pytest.fixture()
def blocks(monkeypatch):
    def set_blocks(leaf_bytes, workers):
        if leaf_bytes is not None:
            monkeypatch.setattr(fields, "_SLAB_BYTES", leaf_bytes)
        monkeypatch.setattr(fields, "_cpus", lambda: workers)
    return set_blocks


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("leaf", LEAF_BYTES, ids=["default", "small"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_integrate_values_bit_exact(blocks, grid_name, complex_data, leaf, workers):
    grid = GRIDS[grid_name]
    blocks(leaf, workers)
    v = _sample(grid, complex_data)
    got = sr.integrate_values(grid, v)
    assert type(got) is type(_reference_integral(grid, v))
    assert_same(got, _reference_integral(grid, v))


@pytest.mark.parametrize("grid_name", ["5x9x7", "97x20x12"])
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("special", SPECIALS)
@pytest.mark.parametrize("leaf", LEAF_BYTES, ids=["default", "small"])
@pytest.mark.parametrize("workers", [1, 3], ids=lambda w: f"{w}w")
def test_integrate_values_special_entries(blocks, grid_name, complex_data, special, leaf,
                                          workers):
    grid = GRIDS[grid_name]
    blocks(leaf, workers)
    v = _sample(grid, complex_data, special)
    with np.errstate(invalid="ignore"):
        assert_same(sr.integrate_values(grid, v), _reference_integral(grid, v))


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.bool_, np.complex64])
def test_integrate_values_promotes_like_numpy(dtype):
    grid = GRIDS["5x9x7"]
    v = (_sample(grid, np.dtype(dtype).kind == "c") * 3).astype(dtype)
    assert_same(sr.integrate_values(grid, v), _reference_integral(grid, v))


def test_integrate_values_broadcasts_like_numpy():
    grid = GRIDS["37x6x5"]
    for v in (1.0, np.arange(5.0), np.ones((6, 1))):
        assert_same(sr.integrate_values(grid, v), _reference_integral(grid, v))


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("leaf", LEAF_BYTES, ids=["default", "small"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_lp_norm_bit_exact(blocks, grid_name, complex_data, p, leaf, workers):
    grid = GRIDS[grid_name]
    blocks(leaf, workers)
    v = _sample(grid, complex_data)
    assert sr.lp_norm(grid, v, p) == _reference_lp_norm(grid, v, p)


@pytest.mark.parametrize("complex_data", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("special", SPECIALS)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("workers", [1, 3], ids=lambda w: f"{w}w")
def test_lp_norm_special_entries(blocks, complex_data, special, p, workers):
    grid = GRIDS["97x20x12"]
    blocks(1000, workers)
    v = _sample(grid, complex_data, special)
    with np.errstate(invalid="ignore"):
        assert_same(sr.lp_norm(grid, v, p), _reference_lp_norm(grid, v, p))


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("leaf", LEAF_BYTES, ids=["default", "small"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_lp_norm_of_squares_bit_exact(blocks, grid_name, leaf, workers):
    grid = GRIDS[grid_name]
    blocks(leaf, workers)
    gsq = sr.grad_magnitude_sq(grid, _sample(grid, True), 4)
    gsq.reshape(-1)[:3] = (-0.0, np.inf, np.nan)
    with np.errstate(invalid="ignore"):
        assert_same(sr.lp_norm(grid, gsq, 1.5, squared=True),
                    _reference_lp_norm(grid, np.sqrt(gsq), 1.5))


def _ratio_inputs(grid, masked):
    """|grad f|^2 and a positive weight; with ``masked``, some weights fall below the floor."""
    rng = np.random.default_rng(sum(grid.dims))
    gsq = sr.grad_magnitude_sq(grid, _sample(grid, True), 4)
    w = 0.5 + rng.random(grid.dims)
    if masked:
        w.reshape(-1)[::7] = 1e-30
        w.reshape(-1)[::11] = np.nan
        gsq.reshape(-1)[::13] *= 1e6  # some masked points are significant
    return gsq, w


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
@pytest.mark.parametrize("leaf", LEAF_BYTES, ids=["default", "small"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_weighted_gradient_l1_bit_exact(blocks, grid_name, masked, leaf, workers):
    grid = GRIDS[grid_name]
    blocks(leaf, workers)
    gsq, w = _ratio_inputs(grid, masked)
    floor, sig_rel = 1e-6, 1e-9
    f = sr.ScalarField(grid, np.zeros(grid.dims))
    res = sr.weighted_gradient_l1(f, sr.ScalarField(grid, w), floor, sig_rel, grad_sq=gsq)
    value, n_masked, significant = _reference_weighted_gradient_l1(grid, gsq, w, floor, sig_rel)
    assert res.value == value
    assert res.masked_points == n_masked
    assert res.significant_masked_points == significant
    assert res.total_points == grid.npoints
    assert (n_masked > 0) == masked and (significant > 0) == masked


def test_weighted_gradient_l1_special_entries(blocks):
    grid = GRIDS["97x20x12"]
    blocks(1000, 3)
    gsq, w = _ratio_inputs(grid, True)
    gsq.reshape(-1)[[5, 50, 500]] = (-0.0, np.inf, np.nan)
    f = sr.ScalarField(grid, np.zeros(grid.dims))
    res = sr.weighted_gradient_l1(f, sr.ScalarField(grid, w), 1e-6, grad_sq=gsq)
    value, n_masked, significant = _reference_weighted_gradient_l1(grid, gsq, w, 1e-6, 1e-9)
    assert_same(res.value, value)
    assert (res.masked_points, res.significant_masked_points) == (n_masked, significant)


def _det_band_field(grid):
    """A PSD-ish field whose determinant has points inside and outside the clamp band."""
    rng = np.random.default_rng(sum(grid.dims))
    up = 0.5 + rng.random(grid.dims)
    dn = 0.5 + rng.random(grid.dims)
    phase = np.exp(2j * np.pi * rng.random(grid.dims))
    sigma = np.sqrt(up * dn) * phase
    r = field_from_arrays(grid, up, dn, sigma)
    clamp = sr.DEFAULT.det_clamp(r.scale)
    # push a few points just past the band and a few well inside it
    flat = sigma.reshape(-1)
    flat[::5] *= np.sqrt(1.0 + 3.0 * clamp / (up * dn).reshape(-1)[::5])
    flat[1::7] *= np.sqrt(1.0 + 0.3 * clamp / (up * dn).reshape(-1)[1::7])
    flat[2] = np.nan
    return field_from_arrays(grid, up, dn, sigma)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("leaf", LEAF_BYTES, ids=["default", "small"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_det_field_bit_exact(blocks, grid_name, leaf, workers):
    grid = GRIDS[grid_name]
    blocks(leaf, workers)
    r = _det_band_field(grid)
    ref = _reference_det(r)
    clamp = sr.DEFAULT.det_clamp(r.scale)
    raw = r.rho_up.values * r.rho_dn.values - np.abs(r.sigma.values) ** 2
    assert np.any((raw < 0) & (raw >= -clamp)) and np.any(ref < -clamp)
    got = sr.det_field(r).values
    assert not got.flags.writeable
    assert_same(got, ref)


@pytest.mark.parametrize("grid_name", GRIDS)
@pytest.mark.parametrize("leaf", LEAF_BYTES, ids=["default", "small"])
@pytest.mark.parametrize("workers", WORKERS, ids=lambda w: f"{w}w")
def test_sqrt_clipped_bit_exact(blocks, grid_name, leaf, workers):
    grid = GRIDS[grid_name]
    blocks(leaf, workers)
    v = _sample(grid, False).copy()
    v.reshape(-1)[:4] = (-0.0, np.inf, -np.inf, np.nan)
    assert_same(_sqrt_clipped(v), np.sqrt(np.clip(v, 0.0, None)))


def test_leaves_follow_numpys_split():
    """The tree splits runs at numpy's pairwise point, counted in floats."""
    leaves, tree = fields._pairwise_tree(1000, 1, 300)
    # 1000 floats split at 496: 496 -> 248 + 248, 504 -> 248 + 256
    assert leaves == ((0, 248), (248, 496), (496, 744), (744, 1000))
    assert tree == ((0, 1), (2, 3))
    # complex: 1000 items are 2000 floats, split at 1000 floats = 500 items
    leaves, _ = fields._pairwise_tree(1000, 2, 600)
    assert leaves == ((0, 500), (500, 1000))
    # a run of at most 128 floats is one numpy block and is never split
    assert fields._pairwise_tree(100, 1, 1)[0] == ((0, 100),)


@pytest.mark.parametrize("workers", [1, 2])
def test_integrals_allocate_less_than_their_input(monkeypatch, workers):
    """Traced peak of integrate_values and lp_norm on 96^3 complex data."""
    grid = cube(96)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    v = _sample(grid, True)
    sr.integrate_values(grid, v)  # the pool and the row weights exist before tracing
    for fn in (lambda: sr.integrate_values(grid, v), lambda: sr.lp_norm(grid, v, 1.5)):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < v.nbytes


def test_workers_run_under_the_callers_errstate(blocks):
    """A helper thread warns, or raises, exactly as the calling thread would."""
    grid = GRIDS["97x20x12"]
    blocks(1000, 3)
    v = _sample(grid, True, "inf")
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            sr.integrate_values(grid, v)
    with np.errstate(invalid="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(20):
            sr.integrate_values(grid, v)


def test_pointwise_passes_allocate_only_their_output(monkeypatch):
    """det_field, rho_total and the clipped root allocate their result and a few blocks, no copy."""
    grid = cube(96)
    monkeypatch.setattr(fields, "_cpus", lambda: 2)
    r = _det_band_field(grid)
    sr.det_field(r)  # the pool exists and r.scale is cached before tracing
    grid_bytes = 8 * grid.npoints
    for fn in (lambda: sr.det_field(r),
               lambda: _sqrt_clipped(r.rho_up.values),
               lambda: sr.SpinDensityField(r.rho_up, r.rho_dn, r.sigma, 2).rho_total):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * grid_bytes


def test_concurrent_callers_with_more_workers_than_cpus(blocks):
    """Four callers share the pool, each with eight workers on small leaves, under fast thread switching."""
    grid = GRIDS["97x20x12"]
    blocks(1000, 8)
    v = _sample(grid, True)
    gsq, w = _ratio_inputs(grid, True)
    f, wf = sr.ScalarField(grid, np.zeros(grid.dims)), sr.ScalarField(grid, w)
    expected = (_reference_integral(grid, v),
                _reference_weighted_gradient_l1(grid, gsq, w, 1e-6, 1e-9))
    exact = []

    def caller():
        for _ in range(10):
            res = sr.weighted_gradient_l1(f, wf, 1e-6, 1e-9, grad_sq=gsq)
            got = (sr.integrate_values(grid, v),
                   (res.value, res.masked_points, res.significant_masked_points))
            exact.append(got == expected)

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
    assert exact == [True] * 40
