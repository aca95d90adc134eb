"""Each formula that has one home now gives the bits of the separate bodies it replaced.

The reference bodies below are the former implementations of ``gram_matrix``,
``occupation_spectrum``, ``density_of``, ``reconstruction_error``,
``kinetic_by_spin`` and the base-spinor reconstruction error of
``build_orbitals``.  Results are compared byte for byte, so the sign of every
zero counts, on a one-branch (rank-1), a two-branch (mixture) and a
four-branch witness, with the blocked passes on one and on two workers.
"""

from dataclasses import replace

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields

from _helpers import cube, mixture

# -- the former bodies --------------------------------------------------------


def ref_gram_matrix(orbitals):
    n = len(orbitals)
    grid = orbitals[0].grid
    g = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(i, n):
            val = sr.integrate_values(
                grid,
                np.conj(orbitals[i].up.values) * orbitals[j].up.values
                + np.conj(orbitals[i].dn.values) * orbitals[j].dn.values,
            )
            if i == j:
                val = complex(val.real, 0.0)
            g[i, j] = val
            g[j, i] = np.conj(val)
    return g


def ref_occupation_spectrum(w):
    entries = [(b.weight, orb) for b in w.branches for orb in b.orbitals.orbitals]
    m = len(entries)
    k = np.empty((m, m), dtype=np.complex128)
    roots = np.sqrt([max(p, 0.0) for p, _ in entries])
    for i in range(m):
        for j in range(i, m):
            oi, oj = entries[i][1], entries[j][1]
            ov = sr.integrate_values(
                w.grid,
                np.conj(oi.up.values) * oj.up.values + np.conj(oi.dn.values) * oj.dn.values,
            )
            k[i, j] = roots[i] * roots[j] * ov
            k[j, i] = np.conj(k[i, j])
    return np.sort(np.linalg.eigvalsh(k))[::-1]


def ref_density_of(w):
    up = np.zeros(w.grid.dims)
    dn = np.zeros(w.grid.dims)
    sg = np.zeros(w.grid.dims, dtype=np.complex128)
    for branch in w.branches:
        p = branch.weight
        for orb in branch.orbitals.orbitals:
            u, d = orb.up.values, orb.dn.values
            up += p * (u.real * u.real + u.imag * u.imag)
            dn += p * (d.real * d.real + d.imag * d.imag)
            sg += p * (u * np.conj(d))
    return up, dn, sg


def ref_reconstruction_error(orbitals, r):
    up = np.zeros(r.grid.dims)
    dn = np.zeros(r.grid.dims)
    sg = np.zeros(r.grid.dims, dtype=np.complex128)
    for orb in orbitals:
        u, d = orb.up.values, orb.dn.values
        up += u.real * u.real + u.imag * u.imag
        dn += d.real * d.real + d.imag * d.imag
        sg += u * np.conj(d)
    return max(
        float(np.max(np.abs(up - r.rho_up.values))),
        float(np.max(np.abs(dn - r.rho_dn.values))),
        float(np.max(np.abs(sg - r.sigma.values))),
    )


def ref_kinetic_by_spin(w, tol=sr.DEFAULT):
    t_up = 0.0
    t_dn = 0.0
    order = tol.fd_order
    for branch in w.branches:
        p = branch.weight
        for orb in branch.orbitals.orbitals:
            t_up += p * float(sr.integrate_values(
                w.grid, sr.grad_magnitude_sq(w.grid, orb.up.values, order)))
            t_dn += p * float(sr.integrate_values(
                w.grid, sr.grad_magnitude_sq(w.grid, orb.dn.values, order)))
    return t_up, t_dn


def ref_base_reconstruction_error(phi_up, sqrt_dn, r):
    up = phi_up.real * phi_up.real + phi_up.imag * phi_up.imag
    err = float(np.max(np.abs(up - r.rho_up.values)))
    err = max(err, float(np.max(np.abs(sqrt_dn * sqrt_dn - r.rho_dn.values))))
    return max(err, float(np.max(np.abs(phi_up * sqrt_dn - r.sigma.values))))


# -- witnesses ------------------------------------------------------------------


def build_fields(r, tol):
    """The rank-1 fields construct_witness hands to build_orbitals, in its order."""
    out = []
    for outer, piece in sr.rank1_split(r, tol).pairs():
        slots = sr.ratio_split(piece, tol).slots()
        for needs_swap, (inner, sub) in zip((True, False), slots):
            if sub is not None and outer * inner >= tol.degenerate_weight:
                out.append(sr.spin_swap(sub) if needs_swap else sub)
    return out


def polarized_rank1():
    """N = 1, all of the density spin up, with a phase gradient: one branch."""
    psi_up, psi_dn = sr.gaussian_spinor(
        cube(48), width_up=1.5, spin_fraction=1.0, phase_gradient=0.7)
    return sr.rank1_from_orbital(psi_up, psi_dn, 1)


CASES = {
    "rank1": (polarized_rank1, sr.DEFAULT, 1),
    "mixture": (lambda: mixture(48), sr.DEFAULT, 2),
    "four_branch": (
        lambda: mixture(48, half=10.0, coupling=0.97, width_up=1.2, width_dn=2.2),
        replace(sr.DEFAULT, gram_tol=1e-3),
        4,
    ),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    make, tol, n_branches = CASES[request.param]
    r = make()
    w = sr.construct_witness(r, tol=tol)
    assert len(w.branches) == n_branches
    return r, tol, w


@pytest.fixture(params=[1, 2], ids=lambda n: f"{n}w")
def workers(request, monkeypatch):
    monkeypatch.setattr(fields, "_cpus", lambda: request.param)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- the comparisons ----------------------------------------------------------------


def test_gram_matrix(case, workers):
    _, _, w = case
    for b in w.branches:
        g = sr.gram_matrix(b.orbitals.orbitals)
        assert_same_bits(g, ref_gram_matrix(b.orbitals.orbitals))
        assert np.all(np.signbit(np.diagonal(g).imag))


def test_occupation_spectrum(case, workers):
    _, _, w = case
    assert_same_bits(sr.occupation_spectrum(w), ref_occupation_spectrum(w))


def test_density_of(case, workers):
    _, _, w = case
    rec = sr.density_of(w)
    for got, want in zip((rec.rho_up, rec.rho_dn, rec.sigma), ref_density_of(w)):
        assert_same_bits(got.values, want)


def test_kinetic_by_spin(case, workers):
    _, tol, w = case
    assert_same_bits(sr.kinetic_by_spin(w, tol), ref_kinetic_by_spin(w, tol))


def test_reconstruction_errors(case, workers):
    r, tol, w = case
    pieces = build_fields(r, tol)
    assert len(pieces) == len(w.branches)
    for f in pieces:
        orbs = sr.build_orbitals(f, tol=tol)
        assert_same_bits(sr.reconstruction_error(orbs.orbitals, f),
                         ref_reconstruction_error(orbs.orbitals, f))
        phi_up, sqrt_dn = sr.base_spinor(f, tol)
        assert_same_bits(
            orbs.diagnostics["reconstruction_abs"],
            ref_base_reconstruction_error(phi_up.values, sqrt_dn.values.real, f),
        )
