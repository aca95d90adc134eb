"""Text reports on a fixed fixture set, compared byte for byte with stored copies.

The files under ``tests/data/reports/`` hold the ``to_text()`` output of
``check`` (with and without a refined field) and ``verify``, and the
``eigs`` CLI report, for gaussian, rank-1 and mixture fields
at 32^3/48^3 plus inadmissible fields, and for mixture and rank-1 fields on
the uneven 45x38x51 grid, whose rows the blocked passes of ``fields`` cut
at no row boundary.  The refined ``check`` reports are also rendered
through ``spinrep check C --refined F``.  A change that moves any printed
digit fails here.  After a deliberate change of answers, regenerate them
with

    PYTHONPATH=src python tests/test_reports.py --write

and say in the change log why the numbers moved.
"""

import os
import sys
import tempfile

import numpy as np
import pytest

import spinrep as sr
from spinrep.cli import main as cli_main

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _helpers import cube, field_from_arrays, gaussian_values, mixture, symmetric_rank1  # noqa: E402

REPORT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reports")


def _oversized_coupling(n: int) -> sr.SpinDensityField:
    """|sigma|^2 > rho_up * rho_dn everywhere: fails det_nonneg."""
    g = gaussian_values(cube(n), width=1.0)
    return field_from_arrays(cube(n), g, g.copy(), (1.001 * g).astype(complex))


def _step_split(n: int) -> sr.SpinDensityField:
    """Up/down split jumps across x = 0.1: H^1 of sqrt(rho_up) diverges under refinement."""
    grid = cube(n)
    env = 2.0 * gaussian_values(grid, width=1.5)
    x, _, _ = grid.meshgrid()
    w = np.where(x < 0.1, 0.2, 0.8)
    return field_from_arrays(grid, w * env, (1.0 - w) * env, np.zeros_like(env, dtype=complex))


def _uneven(dims: tuple[int, int, int], half: float = 8.0) -> sr.Grid3:
    return sr.Grid3(dims, (-half, -half, -half, half, half, half))


def _rank1_on(grid: sr.Grid3) -> sr.SpinDensityField:
    psi_up, psi_dn = sr.gaussian_spinor(grid, width_up=1.5, spin_fraction=0.5,
                                        phase_gradient=0.7)
    return sr.rank1_from_orbital(psi_up, psi_dn, 2)


def _mixture_on(grid: sr.Grid3) -> sr.SpinDensityField:
    return sr.full_rank_mixture(grid, 2, coupling=0.5, width_up=1.5, phase_gradient=0.7)


FIELDS = {
    "gaussian32": lambda: sr.gaussian_diagonal(cube(32), 2),
    "gaussian48": lambda: sr.gaussian_diagonal(cube(48), 2),
    "gaussian48_wide": lambda: sr.gaussian_diagonal(cube(48), 2, width=1.4),
    "rank1_32": lambda: symmetric_rank1(32),
    "rank1_48": lambda: symmetric_rank1(48),
    "mixture32": lambda: mixture(32),
    "mixture48": lambda: mixture(48),
    "coupling32": lambda: _oversized_coupling(32),
    "step32": lambda: _step_split(32),
    "step48": lambda: _step_split(48),
    "mixture45x38x51": lambda: _mixture_on(_uneven((45, 38, 51))),
    "mixture61x52x67": lambda: _mixture_on(_uneven((61, 52, 67))),
    "rank1_45x38x51": lambda: _rank1_on(_uneven((45, 38, 51))),
}

CHECKS = {
    "check_gaussian32": ("gaussian32", None),
    "check_rank1_32": ("rank1_32", None),
    "check_mixture48": ("mixture48", None),
    "check_coupling32": ("coupling32", None),
    "check_refined_gaussian32_48": ("gaussian32", "gaussian48"),
    "check_refined_mixture32_48": ("mixture32", "mixture48"),
    "check_refined_step32_48": ("step32", "step48"),
    "check_mixture45x38x51": ("mixture45x38x51", None),
    "check_rank1_45x38x51": ("rank1_45x38x51", None),
    "check_refined_mixture45x38x51_61x52x67": ("mixture45x38x51", "mixture61x52x67"),
}
# report -> (field the witness is built for, target); the last pair mismatches
VERIFIES = {
    "verify_gaussian48": ("gaussian48_wide", "gaussian48_wide"),
    "verify_rank1_48": ("rank1_48", "rank1_48"),
    "verify_mixture48": ("mixture48", "mixture48"),
    "verify_rank1_vs_mixture48": ("rank1_48", "mixture48"),
    "verify_mixture45x38x51": ("mixture45x38x51", "mixture45x38x51"),
}
EIGS = {"eigs_gaussian32": "gaussian32", "eigs_rank1_32": "rank1_32",
        "eigs_mixture48": "mixture48"}
NAMES = (*CHECKS, *VERIFIES, *EIGS)

_cache: dict[str, sr.SpinDensityField] = {}


def _field(name: str) -> sr.SpinDensityField:
    if name not in _cache:
        _cache[name] = FIELDS[name]()
    return _cache[name]


def _cli_report(args: list[str], workdir: str) -> str:
    path = os.path.join(workdir, "report.txt")
    cli_main([*args, "--report", path])
    with open(path, encoding="ascii") as fh:
        return fh.read()


def render(name: str) -> str:
    """The report stored as ``<name>.txt``, produced by the current code."""
    if name in CHECKS:
        coarse, fine = CHECKS[name]
        refined = _field(fine) if fine is not None else None
        return sr.check(_field(coarse), refined=refined).to_text()
    if name in VERIFIES:
        source, target = VERIFIES[name]
        return sr.verify(sr.construct_witness(_field(source)), _field(target)).to_text()
    with tempfile.TemporaryDirectory() as workdir:
        spdf = os.path.join(workdir, "field.spdf")
        sr.write_spdf(spdf, _field(EIGS[name]))
        return _cli_report(["eigs", spdf], workdir)


def _stored(name: str) -> str:
    with open(os.path.join(REPORT_DIR, f"{name}.txt"), encoding="ascii") as fh:
        return fh.read()


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_stored_copy(name):
    assert render(name) == _stored(name)


@pytest.mark.parametrize("name", [name for name, (_, fine) in CHECKS.items() if fine])
def test_refined_check_through_cli_matches_stored_copy(name, tmp_path):
    paths = []
    for field in CHECKS[name]:
        paths.append(str(tmp_path / f"{field}.spdf"))
        sr.write_spdf(paths[-1], _field(field))
    assert _cli_report(["check", paths[0], "--refined", paths[1]], str(tmp_path)) == _stored(name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_reports.py --write")
    os.makedirs(REPORT_DIR, exist_ok=True)
    for report in NAMES:
        with open(os.path.join(REPORT_DIR, f"{report}.txt"), "w", encoding="ascii") as fh:
            fh.write(render(report))
        print(f"wrote {report}.txt")
