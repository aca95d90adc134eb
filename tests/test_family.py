"""A family's kinetic energy, Gram matrix and cross overlaps from its base and phase line.

``kinetic_by_spin`` takes a family's T from the product rule on its base
and the f' of its own phase line.  On ``gaussian_diagonal`` that T has a
closed form, 3N/(2 w^2) + (2 pi)^2 <k^2> N^3 integral m^3, where m is the
unit-mass 1-D marginal of the gaussian (f runs to N, so f' = N m), and it
must hold within 0.02 % on every grid from 48^3 to 96^3 that ``construct``
accepts.  A phase line that is not its base's cumulative gets the T of its
own f.  The Gram matrix and the overlaps across two families are sums
along the phase lines, which under the trapezoid rule equal the 3-D
overlaps of the built orbitals: that is checked on every pair of axes and
exchange flags, on an uneven grid with random bases.
"""

import itertools
import math

import numpy as np
import pytest

import spinrep as sr
from spinrep import orbitals

from _helpers import cube

erf = np.vectorize(math.erf)
WIDTH = 1.5


def closed_form(n, width, s=None):
    """T of the N = n family of ``gaussian_diagonal`` whose f is n times the gaussian cumulative of width s."""
    s = width if s is None else s
    k2 = (n + 1) * (2 * n + 1) / 6.0
    # integral m_s^2 m_w over the axis, for unit-mass 1-D gaussians of widths s and w
    moment = 1.0 / (math.pi * s * s * width * math.sqrt(2.0 / (s * s) + 1.0 / (width * width)))
    return 1.5 * n / width**2 + (2.0 * math.pi) ** 2 * k2 * n**3 * moment


@pytest.mark.parametrize("n_points", [48, 64, 80, 96])
def test_family_kinetic_energy_matches_the_closed_form(n_points):
    accepted = []
    for n in (1, 2, 3, 4):
        r = sr.gaussian_diagonal(cube(n_points), n, width=WIDTH)
        try:
            w = sr.construct_witness(r)
        except sr.PipelineError as exc:
            assert exc.stage == "orbitals"  # today's ladder winds N times per unit of f
            continue
        accepted.append(n)
        exact = closed_form(n, WIDTH)
        assert abs(sr.kinetic_energy(w) - exact) <= 2e-4 * exact, n
    assert accepted[:2] == [1, 2]


def test_a_phase_line_that_is_not_the_cumulative_gets_its_own_kinetic_energy():
    n, s = 2, 1.2
    r = sr.gaussian_diagonal(cube(64), n, width=WIDTH)
    w = sr.construct_witness(r)
    branches = []
    for b in w.branches:
        fam = b.orbitals.orbitals
        x = r.grid.axes[fam.axis]
        f = 0.5 * n * (1.0 + erf(x / s))
        branches.append(sr.WitnessBranch(b.weight, sr.OrbitalSet(r.grid, orbitals.OrbitalFamily(
            fam.base_up, fam.base_dn, fam.axis, f, fam.ks, fam.exchanged)), b.swapped))
    own = sr.Witness(w.grid, n, tuple(branches))
    exact = closed_form(n, WIDTH, s)
    assert abs(sr.kinetic_energy(own) - exact) <= 2e-4 * exact
    assert sr.kinetic_energy(own) > 1.2 * sr.kinetic_energy(w)


def random_family(grid, axis, ks, exchanged, seed):
    rng = np.random.default_rng(seed)
    up = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    f = np.cumsum(rng.random(grid.dims[axis]))
    return orbitals.OrbitalFamily(sr.ComplexField(grid, up),
                                  sr.ScalarField(grid, rng.standard_normal(grid.dims)),
                                  axis, f, ks, exchanged)


UNEVEN = sr.Grid3((20, 23, 26), (-8.0, -7.0, -6.0, 8.0, 7.0, 6.0))


@pytest.mark.parametrize("exchanged", [False, True])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_family_gram_is_the_gram_matrix_of_its_orbitals(axis, exchanged):
    fam = random_family(UNEVEN, axis, (1, 2, 4), exchanged, axis)
    g, ref = orbitals._family_gram(fam), sr.gram_matrix(fam)
    np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


@pytest.mark.parametrize("a, b", list(itertools.product(range(3), repeat=2)))
def test_cross_overlaps_are_the_overlaps_of_the_built_orbitals(a, b):
    for flags in itertools.product((False, True), repeat=2):
        fa = random_family(UNEVEN, a, (1, 2), flags[0], 10 + a)
        fb = random_family(UNEVEN, b, (-1, 1, 3), flags[1], 20 + b)
        got = orbitals._cross_overlaps(fa, fb)
        ref = np.array([[orbitals._overlap(p, q) for q in fb] for p in fa])
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))
