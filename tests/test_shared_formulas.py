"""Each formula that has one home now gives the bits of the separate bodies it replaced.

The reference bodies in ``_reference.py`` are the former implementations of
``gram_matrix``, ``occupation_spectrum``, ``density_of``,
``reconstruction_error``, ``kinetic_by_spin`` and the base-spinor
reconstruction error of ``build_orbitals``.  Results are compared byte for
byte, so the sign of every zero counts, on a one-branch (rank-1), a
two-branch (mixture) and a four-branch witness, with the blocked passes on
one and on two workers.  ``occupation_spectrum``, ``density_of`` and
``kinetic_by_spin`` take a family from its base and phase line, which the
references do not, so they are compared on the witness with every orbital
materialised: the path explicit orbitals take.
"""

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields, orbitals
from spinrep.tolerances import GRAM_TOL

from _helpers import cube, gram_gate, materialised, mixture
from _reference import (
    build_fields,
    ref_base_reconstruction_error,
    ref_density_of,
    ref_gram_matrix,
    ref_kinetic_by_spin,
    ref_occupation_spectrum,
    ref_reconstruction_error,
)

# -- witnesses ------------------------------------------------------------------


def polarized_rank1():
    """N = 1, all of the density spin up, with a phase gradient: one branch."""
    psi_up, psi_dn = sr.gaussian_spinor(
        cube(48), width_up=1.5, spin_fraction=1.0, phase_gradient=0.7)
    return sr.rank1_from_orbital(psi_up, psi_dn, 1)


# (field, Gram gate, branches): the four-branch pieces are cutoff-windowed, and
# their orbitals miss orthonormality by up to 7.2e-4 on this grid
CASES = {
    "rank1": (polarized_rank1, GRAM_TOL, 1),
    "mixture": (lambda: mixture(48), GRAM_TOL, 2),
    "four_branch": (
        lambda: mixture(48, half=10.0, coupling=0.97, width_up=1.2, width_dn=2.2),
        1e-3,
        4,
    ),
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    make, gate, n_branches = CASES[request.param]
    r = make()
    with gram_gate(gate):
        w = sr.construct_witness(r)
    assert len(w.branches) == n_branches
    return r, gate, w


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
    w = materialised(case[2])
    assert_same_bits(sr.occupation_spectrum(w), ref_occupation_spectrum(w))


def test_density_of(case, workers):
    w = materialised(case[2])
    rec = sr.density_of(w)
    for got, want in zip((rec.rho_up, rec.rho_dn, rec.sigma), ref_density_of(w)):
        assert_same_bits(got.values, want)


def test_kinetic_by_spin(case, workers):
    w = materialised(case[2])
    assert_same_bits(sr.kinetic_by_spin(w), ref_kinetic_by_spin(w))


def test_reconstruction_errors(case, workers):
    r, gate, w = case
    pieces = build_fields(r)
    assert len(pieces) == len(w.branches)
    for f in pieces:
        with gram_gate(gate):
            orbs = sr.build_orbitals(f)
        assert_same_bits(sr.reconstruction_error(orbs.orbitals, f),
                         ref_reconstruction_error(orbs.orbitals, f))
        phi_up, sqrt_dn, _ = orbitals._base_spinor(f)
        assert_same_bits(
            orbs.diagnostics["reconstruction_abs"],
            ref_base_reconstruction_error(phi_up, sqrt_dn, f),
        )
