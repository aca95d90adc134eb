"""An infinite entry in the input fails the PSD conditions.

Each test plants one +inf or -inf in rho_up, rho_dn, Re sigma or Im sigma of
a 16^3 gaussian and asserts that ``check`` fails condition (a) or (b) and
that ``spinrep sqrt``, ``eigs`` and ``construct`` refuse the field and write
nothing.  One +inf makes max(rho), and with it every tolerance scaled by it,
infinite; condition (a) fails on it by name.  No step may warn on the way.
"""

import math

import numpy as np
import pytest

import spinrep as sr
from spinrep.cli import main

from _helpers import cube, field_from_arrays

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PARTS = ["rho_up", "rho_dn", "re_sigma", "im_sigma"]
INDEX = (5, 6, 7)


@pytest.fixture(scope="module")
def diagonal16():
    return sr.gaussian_diagonal(cube(16), 2, width=1.4)


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
    for tol in (sr.DEFAULT, sr.DEFAULT.with_overrides(neg_abs=1e-3)):
        c = sr.check(r, tol)["rho_nonneg"]
        assert c.verdict == "fail"
        assert c.value == math.inf and c.details["worst_location"] == INDEX
        assert c.details["min_rho_up"] == -1.0


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
