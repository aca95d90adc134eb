"""An infinite entry in the input fails the PSD conditions.

Each test plants one +inf or -inf in rho_up, rho_dn, Re sigma or Im sigma of
a 16^3 gaussian and asserts that ``check`` fails condition (a) or (b) and
that ``spinrep sqrt``, ``eigs`` and ``construct`` refuse the field and write
nothing.  One +inf makes max(rho), and with it every tolerance scaled by it,
infinite; condition (a) fails on it by name.  On a rank-1 field the stages
that require a null determinant refuse it too.  A witness with an infinite
orbital entry gets a failing ``verify`` report.  No step may warn on the way.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinrep as sr
from spinrep.cli import main

from _helpers import cube, field_from_arrays, nan_witness, symmetric_rank1

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PARTS = ["rho_up", "rho_dn", "re_sigma", "im_sigma"]
INDEX = (5, 6, 7)


@pytest.fixture(scope="module")
def diagonal16():
    return sr.gaussian_diagonal(cube(16), 2, width=1.4)


@pytest.fixture(scope="module")
def rank1_16():
    return symmetric_rank1(16, width=1.5)


def with_inf(r, part, value, index=INDEX):
    """``r`` with ``value`` at ``index`` of ``part`` (one component of a sigma entry)."""
    up, dn, sigma = r.rho_up.values.copy(), r.rho_dn.values.copy(), r.sigma.values.copy()
    if part == "rho_up":
        up[index] = value
    elif part == "rho_dn":
        dn[index] = value
    elif part == "re_sigma":
        sigma[index] = complex(value, sigma[index].imag)
    else:
        sigma[index] = complex(sigma[index].real, value)
    return field_from_arrays(r.grid, up, dn, sigma, r.n_electrons)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("part", PARTS)
def test_check_fails_a_psd_condition(diagonal16, part, value):
    report = sr.check(with_inf(diagonal16, part, value))
    psd = [report[name] for name in ("rho_nonneg", "det_nonneg")]
    assert report.verdict == "fail"
    assert any(c.verdict == "fail" for c in psd)


def test_rho_nonneg_names_the_infinite_entry(diagonal16):
    # a negative entry elsewhere passed against the threshold -inf
    r = with_inf(diagonal16, "rho_up", np.inf)
    up = r.rho_up.values.copy()
    up[2, 3, 4] = -1.0
    r = field_from_arrays(r.grid, up, r.rho_dn.values, r.sigma.values, r.n_electrons)
    for tol in (sr.DEFAULT, sr.ToleranceConfig(neg_abs=1e-3)):
        c = sr.check(r, tol)["rho_nonneg"]
        assert c.verdict == "fail"
        assert c.value == math.inf and c.details["worst_location"] == INDEX
        assert c.details["min_rho_up"] == -1.0


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(st.tuples(st.sampled_from(PARTS), st.sampled_from([np.inf, -np.inf]),
                                  st.tuples(*[st.integers(0, 15)] * 3)),
                        min_size=1, max_size=3))
def test_infinite_entries_at_random_points_are_refused(diagonal16, entries):
    r = diagonal16
    for part, value, index in entries:
        r = with_inf(r, part, value, index)
    report = sr.check(r)
    assert report["rho_nonneg"].verdict == "fail" or report["det_nonneg"].verdict == "fail"
    with pytest.raises(sr.NotPositiveSemidefiniteError):
        sr.sqrt_field(r)


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("stage", [sr.orbitals.require_null_determinant, sr.ratio_split,
                                   sr.build_orbitals], ids=lambda f: f.__name__)
def test_null_determinant_stages_refuse(rank1_16, stage, part, value):
    # det R is infinite at the entry; the violating allowance covers finite points only
    with pytest.raises(sr.NullDeterminantError, match=re.escape(f"inf at {INDEX}")):
        stage(with_inf(rank1_16, part, value))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("part", PARTS)
@pytest.mark.parametrize("command", ["sqrt", "eigs", "construct"])
def test_cli_refuses_an_infinite_entry(tmp_path, capsys, diagonal16, command, part, value):
    path = tmp_path / "inf.spdf"
    sr.write_spdf(path, with_inf(diagonal16, part, value))
    out, report = tmp_path / "out", tmp_path / "report.txt"
    argv = [command, str(path), "--out", str(out)]
    if command == "eigs":
        argv += ["--report", str(report)]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists() and not report.exists()


# -- a witness holding an infinite orbital entry ------------------------------------


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_verify_reports_an_infinite_witness(value):
    w, target = nan_witness(value)
    report = sr.verify(w, target)
    for name in ("density_match", "orbital_gram", "kinetic_finite", "kinetic_bounds"):
        assert report[name].verdict == "fail"
    assert report["weight_sum"].verdict == "pass"
    assert np.isnan(sr.occupation_spectrum(w)).all()


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_cli_verify_reports_an_infinite_witness(tmp_path, capsys, value):
    w, target = nan_witness(value)
    path, wdir = tmp_path / "target.spdf", tmp_path / "witness"
    sr.write_spdf(path, target)
    sr.write_witness(wdir, w)
    assert main(["verify", str(wdir), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == sr.verify(w, target).to_text() and "overall: fail" in captured.out
    assert captured.err == ""
