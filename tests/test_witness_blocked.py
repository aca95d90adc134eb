"""The blocked passes of the witness path against the whole-array bodies they replaced.

The references in ``_reference.py`` are the former bodies: the overlap
loop (``orbitals._overlaps``), the density sums (``orbitals._add_density``),
the density match of ``verify``, the base spinor (``orbitals._base_spinor``),
``|base|^2`` of the Gram gate, the orbital materialisation of
``build_orbitals``, and ``rank1_split``, ``ratio_split`` and ``sqrt_field``.
The blocked code must reproduce them byte for byte, the sign of every zero
included, on 48^3 and on the uneven 45x38x51 grid, for the default block
size and for 1000-byte blocks (one-row slabs, integral leaves that cut
rows), on 1, 2 and 3 workers, and on inputs with NaN and -0.0 entries.  The stages whose hypotheses a NaN breaks
(``sqrt_field``, both splits and the base spinor) must refuse a NaN input.

Both grids have more than 16384 points.  There numpy reuses the grid-sized
temporary of ``u * np.conj(d)`` in place, which multiplies in the order
conj(d) * u; the blocked density sums use that order on every grid.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields, orbitals
from spinrep.witness import _l1_distance

from _helpers import cube, density_sums, gram_gate
from _reference import (
    build_fields,
    ref_base_reconstruction_error,
    ref_base_spinor,
    ref_density_match,
    ref_density_sums,
    ref_orbital_values,
    ref_overlaps,
    ref_phase_gram_deviation,
    ref_ratio_split,
    ref_rank1_split,
    ref_sqrt_field,
)

GRIDS = {
    "48^3": cube(48),
    "45x38x51": sr.Grid3((45, 38, 51), (-8.0, -8.0, -8.0, 8.0, 8.0, 8.0)),
}
# None: the default block size; 1000 bytes makes pointwise slabs of one row and
# integral leaves of at most 128 floats, which cut the rows of both grids
LEAF_BYTES = [None, 1000]
WORKERS = [1, 2, 3]
# -0.0 among the smallest entries (the data is otherwise unchanged), or NaN
SPECIALS = ["negzero", "nan"]

# -- inputs -------------------------------------------------------------------


def assert_same(got, ref):
    """Equal bits up to NaN payloads: same dtype, same values, same sign of every zero."""
    g, r = np.asarray(got), np.asarray(ref)
    assert g.dtype == r.dtype and g.shape == r.shape
    assert np.array_equal(g, r, equal_nan=True)
    for part in (np.real, np.imag):
        zero = part(r) == 0.0
        assert np.array_equal(np.signbit(part(g))[zero], np.signbit(part(r))[zero])


def assert_same_field(got, ref):
    for a, b in zip((got.rho_up, got.rho_dn, got.sigma), (ref.rho_up, ref.rho_dn, ref.sigma)):
        assert_same(a.values, b.values)


def assert_same_split(got, ref):
    assert_same(got.weight, ref.weight)
    for a, b in ((got.piece_one, ref.piece_one), (got.piece_two, ref.piece_two)):
        assert (a is None) == (b is None)
        if a is not None:
            assert_same_field(a, b)


def spoiled(values, special, seed):
    """A copy of ``values`` with NaN or -0.0 written at a few points.

    -0.0 goes to points among the thousand smallest, so that a field keeps
    the hypotheses (PSD, null determinant, spin ratio) its pass checks.
    """
    if special is None:
        return values
    v = values.copy()
    flat = v.reshape(-1)
    pool = flat.size if special == "nan" else np.argsort(np.abs(flat))[:1000]
    idx = np.random.default_rng(seed).choice(pool, size=12, replace=False)
    # a complex entry keeps one part, so |sigma| does not grow
    if special == "nan":
        flat[idx[:4]] = np.nan
        if v.dtype.kind == "c":
            flat[idx[4]] = complex(flat[idx[4]].real, np.nan)
    else:
        flat[idx[:6]] = -0.0
        if v.dtype.kind == "c":
            flat[idx[6]] = complex(flat[idx[6]].real, -0.0)
            flat[idx[7]] = complex(-0.0, flat[idx[7]].imag)
    return v


def spoiled_field(r, special):
    up, dn, sg = (spoiled(f.values, special, k) for k, f in enumerate((r.rho_up, r.rho_dn, r.sigma)))
    if special == "negzero":
        # and a few points of the tail where all three vanish, as -0.0
        tail = np.argsort(r.rho_total.values.reshape(-1))[:6]
        for v in (up, dn, sg):
            v.reshape(-1)[tail] = -0.0
    return sr.SpinDensityField(
        rho_up=sr.ScalarField(r.grid, up),
        rho_dn=sr.ScalarField(r.grid, dn),
        sigma=sr.ComplexField(r.grid, sg),
        n_electrons=r.n_electrons,
    )


def spoiled_witness(w, special):
    """``w`` with special entries in the first orbital of every branch."""
    branches = []
    for bi, b in enumerate(w.branches):
        first, *rest = b.orbitals.orbitals
        orb = sr.Spinor(up=sr.ComplexField(w.grid, spoiled(first.up.values, special, 10 + bi)),
                        dn=sr.ComplexField(w.grid, spoiled(first.dn.values, special, 20 + bi)))
        branches.append(replace(b, orbitals=replace(b.orbitals, orbitals=(orb, *rest))))
    return sr.Witness(grid=w.grid, n_electrons=w.n_electrons, branches=tuple(branches))


@pytest.fixture(scope="module", params=list(GRIDS))
def case(request):
    """(mixture R, its witness, its rank-1 pieces, the fields its orbitals are built from)."""
    grid = GRIDS[request.param]
    r = sr.full_rank_mixture(grid, 2, coupling=0.5, width_up=1.5, phase_gradient=0.7)
    w = sr.construct_witness(r)
    assert len(w.branches) == 2
    pieces = [piece for _, piece in sr.rank1_split(r).pairs()]
    return r, w, pieces, build_fields(r)


@pytest.fixture(params=[(leaf, workers) for leaf in LEAF_BYTES for workers in WORKERS],
                ids=lambda p: f"{'default' if p[0] is None else 'small'}-{p[1]}w")
def blocks(request, monkeypatch):
    leaf, workers = request.param
    if leaf is not None:
        monkeypatch.setattr(fields, "_SLAB_BYTES", leaf)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)


# -- the comparisons ------------------------------------------------------------


@pytest.mark.parametrize("special", SPECIALS)
def test_overlaps(case, blocks, special):
    # every orbital of the witness: each branch's Gram matrix is a block of it
    w = spoiled_witness(case[1], special)
    orbs = [orb for b in w.branches for orb in b.orbitals.orbitals]
    assert_same(orbitals._overlaps(orbs), ref_overlaps(orbs))


@pytest.mark.parametrize("special", SPECIALS)
def test_density_sums(case, blocks, special):
    w = spoiled_witness(case[1], special)
    weighted = [(b.weight, orb) for b in w.branches for orb in b.orbitals.orbitals]
    for got, ref in zip(density_sums(w.grid, weighted),
                        ref_density_sums(w.grid, weighted)):
        assert_same(got, ref)


@pytest.mark.parametrize("special", SPECIALS)
def test_density_match(case, blocks, special):
    r, w = case[0], spoiled_witness(case[1], special)
    rec = sr.density_of(w)
    got = [_l1_distance(a, b) for a, b in zip((rec.rho_up, rec.rho_dn, rec.sigma),
                                              (r.rho_up, r.rho_dn, r.sigma))]
    for g, ref in zip(got, ref_density_match(rec, r)):
        assert_same(g, ref)


@pytest.mark.parametrize("special", SPECIALS)
def test_base_spinor_and_gram_gate(case, blocks, special):
    for f in case[3]:
        f = spoiled_field(f, special)
        if special == "nan":
            with pytest.raises(sr.NullDeterminantError):
                orbitals._base_spinor(f)
            continue
        phi_up, sqrt_dn, stats = orbitals._base_spinor(f)
        ref_phi, ref_sqrt, ref_stats = ref_base_spinor(f)
        assert_same(phi_up, ref_phi)
        assert_same(sqrt_dn, ref_sqrt)
        assert stats == ref_stats and stats["nodal_points"] > 0
        phase = sr.build_phase(case[0].rho_total, f.n_electrons, 0)
        assert_same(orbitals._phase_gram_deviation(phi_up, sqrt_dn, phase, f.grid),
                    ref_phase_gram_deviation(ref_phi, ref_sqrt, phase, f.grid))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_orbitals_materialised(case, blocks, axis):
    # any axis: the Gram gate is not what is compared here; NaN would stop at it
    f = spoiled_field(case[3][0], "negzero")
    with gram_gate(1.0):
        orbs = sr.build_orbitals(f, axis)
    phi_up, sqrt_dn, _ = ref_base_spinor(f)
    phase = sr.build_phase(f.rho_total, f.n_electrons, orbs.orbitals.axis)
    refs = ref_orbital_values(phi_up, sqrt_dn, phase, f.grid)
    assert orbs.orbitals.axis == axis and len(refs) == len(orbs.orbitals)
    for orb, (up, dn) in zip(orbs.orbitals, refs):
        assert_same(orb.up.values, up)
        assert_same(orb.dn.values, dn)
    assert orbs.diagnostics["reconstruction_abs"] == ref_base_reconstruction_error(
        phi_up, sqrt_dn, f)


@pytest.mark.parametrize("special", SPECIALS)
def test_sqrt_field(case, blocks, special):
    r = spoiled_field(case[0], special)
    if special == "nan":
        with pytest.raises(sr.NotPositiveSemidefiniteError):
            sr.sqrt_field(r)
        return
    sq = sr.sqrt_field(r)
    for got, ref in zip((sq.r_up, sq.r_dn, sq.s), ref_sqrt_field(r)):
        assert_same(got.values, ref)


@pytest.mark.parametrize("special", SPECIALS)
def test_rank1_split(case, blocks, special):
    r = spoiled_field(case[0], special)
    if special == "nan":
        with pytest.raises(sr.NotPositiveSemidefiniteError):
            sr.rank1_split(r)
        return
    assert_same_split(sr.rank1_split(r), ref_rank1_split(r))


@pytest.mark.parametrize("special", SPECIALS)
def test_ratio_split(case, blocks, special):
    for piece in case[2]:
        piece = spoiled_field(piece, special)
        if special == "nan":
            with pytest.raises(sr.NullDeterminantError):
                sr.ratio_split(piece)
            continue
        assert_same_split(sr.ratio_split(piece), ref_ratio_split(piece))


# -- NaN in the reconstruction max ------------------------------------------------


@pytest.mark.parametrize("which", [0, 1, 2], ids=["up-up", "dn-dn", "up-dn"])
def test_max_deviation_keeps_a_nan_in_any_sum(case, which):
    r = case[3][0]
    targets = [f.values for f in (r.rho_up, r.rho_dn, r.sigma)]
    bad = (r.grid.dims[0] // 3, 5, 7)

    def sums(lo, hi, *parts):
        for k, (part, t) in enumerate(zip(parts, targets)):
            part[:] = t[lo:hi]
            if k == which and lo <= bad[0] < hi:
                part[bad[0] - lo, bad[1], bad[2]] = np.nan

    assert math.isnan(orbitals._max_deviation(r, sums))


def test_max_deviation_is_the_largest_of_the_three(case):
    r = case[3][0]
    targets = [f.values for f in (r.rho_up, r.rho_dn, r.sigma)]
    shifts = (1e-9, 3e-9, 2e-9)

    def sums(lo, hi, *parts):
        for part, t, s in zip(parts, targets, shifts):
            np.add(t[lo:hi], s, out=part)

    ref = max(float(np.max(np.abs((t + s) - t))) for t, s in zip(targets, shifts))
    assert orbitals._max_deviation(r, sums) == ref


# -- memory ---------------------------------------------------------------------


def random_orbitals(grid, n, seed):
    rng = np.random.default_rng(seed)

    def values():
        return rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)

    return tuple(sr.Spinor(up=sr.ComplexField(grid, values()), dn=sr.ComplexField(grid, values()))
                 for _ in range(n))


def traced_peak(fn):
    fn()  # the pool, the row weights and numpy's caches exist before tracing
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.traced
@pytest.mark.parametrize("workers", [1, 2])
def test_gram_matrix_allocates_less_than_a_grid(monkeypatch, workers):
    grid = cube(64)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    orbs = random_orbitals(grid, 2, 0)
    assert traced_peak(lambda: sr.gram_matrix(orbs)) < 16 * grid.npoints


@pytest.mark.traced
@pytest.mark.parametrize("workers", [1, 2])
def test_density_of_allocates_its_outputs_and_blocks(monkeypatch, workers):
    grid = cube(64)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    branches = tuple(sr.WitnessBranch(p, sr.OrbitalSet(grid, random_orbitals(grid, 2, k)))
                     for k, p in enumerate((0.25, 0.75)))
    w = sr.Witness(grid=grid, n_electrons=2, branches=branches)
    outputs = (8 + 8 + 16) * grid.npoints
    # one grid-sized complex array on top of the outputs
    assert traced_peak(lambda: sr.density_of(w)) < outputs + 16 * grid.npoints
