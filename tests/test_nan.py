"""A NaN in the input fails every tolerance test it reaches.

Each test below plants one NaN (in rho_up, rho_dn or sigma, or in a refined
field, a boundary face or a witness branch) and asserts the refusal or the
failing verdict: a stage whose hypotheses the NaN breaks raises its error,
and a report shows the NaN as its worst value instead of dropping it.
"""

import math

import numpy as np
import pytest

import spinrep as sr
from spinrep.cli import main
from spinrep.tolerances import NULL_DET_FRACTION

from _helpers import cube, field_from_arrays, gaussian_values

PARTS = ["rho_up", "rho_dn", "sigma"]


def with_nan(r, part, index=(13, 11, 17)):
    """``r`` with one NaN at ``index`` of ``part`` (both parts of a sigma entry)."""
    arrays = {name: getattr(r, name).values.copy() for name in PARTS}
    arrays[part][index] = complex(np.nan, np.nan) if part == "sigma" else np.nan
    return field_from_arrays(r.grid, *(arrays[name] for name in PARTS), r.n_electrons)


@pytest.fixture(scope="module")
def rank1_8():
    """A null-determinant field on 8^3, where one point exceeds the violating allowance."""
    grid = cube(8)
    g = gaussian_values(grid, width=3.0)
    return field_from_arrays(grid, g, g, g.astype(complex))


# -- the construct stages refuse ---------------------------------------------------


@pytest.mark.parametrize("part", PARTS)
def test_sqrt_field_and_rank1_split_refuse(mixture32, part):
    r = with_nan(mixture32, part)
    with pytest.raises(sr.NotPositiveSemidefiniteError):
        sr.sqrt_field(r)
    with pytest.raises(sr.NotPositiveSemidefiniteError):
        sr.rank1_split(r)


@pytest.mark.parametrize("grid", ["8^3", "32^3"])
@pytest.mark.parametrize("part", PARTS)
def test_null_determinant_stages_refuse(rank1_8, rank1_32, grid, part):
    r = with_nan(rank1_8 if grid == "8^3" else rank1_32, part, (5, 2, 3))
    # on 32^3 one violating point is inside the allowance; a NaN refuses anyway
    assert (NULL_DET_FRACTION * r.grid.npoints > 1) == (grid == "32^3")
    with pytest.raises(sr.NullDeterminantError):
        sr.orbitals.require_null_determinant(r)
    with pytest.raises(sr.NullDeterminantError):
        sr.ratio_split(r)
    # before the Gram gate, which a NaN would also fail
    with pytest.raises(sr.NullDeterminantError):
        sr.build_orbitals(r)


@pytest.mark.parametrize("part", ["rho_up", "rho_dn"])
def test_build_phase_refuses(rank1_32, part):
    # sigma does not enter the phase, which sees only rho_up + rho_dn
    r = with_nan(rank1_32, part)
    with pytest.raises(sr.PhaseNormalizationError):
        sr.build_phase(r.rho_total, r.n_electrons, 0)


def test_ratio_test_refuses_a_nan_excess(rank1_32):
    # rho_up = rho_dn = inf at one point: inf - 2 inf is NaN, but det R is inf
    # there, so the null-determinant test refuses first
    up, dn = rank1_32.rho_up.values.copy(), rank1_32.rho_dn.values.copy()
    up[3, 4, 5] = dn[3, 4, 5] = np.inf
    r = field_from_arrays(rank1_32.grid, up, dn, rank1_32.sigma.values)
    with pytest.raises(sr.NullDeterminantError):
        sr.orbitals._base_spinor(r)


# -- the reports show the NaN --------------------------------------------------------


def test_check_fails_a_nan_in_the_refined_field(diagonal32):
    fine = with_nan(sr.gaussian_diagonal(cube(48), 2), "rho_up", (20, 24, 24))
    report = sr.check(diagonal32, refined=fine)
    assert report.verdict == "fail"
    assert report["sqrt_rho_h1"].verdict == "fail"
    assert math.isnan(report["sqrt_rho_h1"].details["change"])


@pytest.mark.parametrize("part", ["rho_up", "rho_dn"])
def test_rho_nonneg_value_is_nan(diagonal32, part):
    index = (13, 11, 17)
    c = sr.check(with_nan(diagonal32, part, index))["rho_nonneg"]
    assert c.verdict == "fail" and math.isnan(c.value)
    assert c.details["worst_location"] == index


FACES = [(0, 9, 9), (-1, 9, 9), (9, 0, 9), (9, -1, 9), (9, 9, 0), (9, 9, -1)]


def test_boundary_value_is_nan_for_a_nan_on_any_face(diagonal32):
    for face in FACES:
        values = diagonal32.rho_up.values.copy()
        values[face] = np.nan
        assert math.isnan(sr.boundary_max(sr.ScalarField(diagonal32.grid, values)))
    report = sr.check(with_nan(diagonal32, "rho_dn", FACES[-1]))
    assert math.isnan(report.boundary_value) and report.boundary_warning


def test_verify_orbital_gram_fails_a_nan_in_any_branch():
    grid = cube(24)
    psi_up, psi_dn = sr.gaussian_spinor(grid, width_up=1.5, spin_fraction=0.6,
                                        phase_gradient=0.0)
    target = sr.rank1_from_orbital(psi_up, psi_dn, 1)
    dn = psi_dn.values.copy()
    dn[12, 12, 12] = np.nan
    for branch in (0, 1):
        spinors = [sr.Spinor(up=psi_up, dn=psi_dn)] * 2
        spinors[branch] = sr.Spinor(up=psi_up, dn=sr.ComplexField(grid, dn))
        w = sr.Witness(grid=grid, n_electrons=1, branches=tuple(
            sr.WitnessBranch(0.5, sr.OrbitalSet(grid=grid, orbitals=(s,)))
            for s in spinors))
        gram = sr.verify(w, target)["orbital_gram"]
        assert math.isnan(gram.details["per_branch"][branch])
        assert gram.verdict == "fail" and math.isnan(gram.value)


# -- the command line ---------------------------------------------------------------


@pytest.mark.parametrize("command", ["sqrt", "eigs"])
def test_cli_refuses_a_nan_field(tmp_path, capsys, diagonal32, command):
    path = tmp_path / "nan.spdf"
    sr.write_spdf(path, with_nan(diagonal32, "rho_dn"))
    out = tmp_path / "out.spdf"
    assert main([command, str(path), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
