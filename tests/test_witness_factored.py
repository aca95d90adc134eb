"""Factored witnesses: one base spinor and phase line per branch, orbitals built on demand.

``construct_witness`` returns each branch's orbitals as an
``OrbitalFamily`` and witness format 2 stores the family, not its orbitals.
Every orbital must keep the bits of the materialised witness: the
construct → write → read digests equal the stored ones of
``test_witness_golden.py``.  ``verify`` and ``occupation_spectrum`` take a
family from its base and phase line, so they agree byte for byte on the
factored witness and its format-2 read-back; on the same witness with its
orbitals materialised into tuples, and on a format-1 copy, they integrate
the orbitals and agree within round-off, apart from the kinetic energy,
which a stencil on each orbital cannot resolve.  The memory bounds are on
the 64^3 N = 2 mixture, in float64 grids of traced allocation.
"""

import os
import tracemalloc

import numpy as np
import pytest

import spinrep as sr
from spinrep import fields, orbitals
from spinrep.cli import main
from spinrep.orbitals import OrbitalFamily

from _helpers import cube, density_sums, materialised, mixture
from _reference import ref_density_sums
from test_io import fifo_with
from test_witness_blocked import random_orbitals, traced_peak
from test_witness_golden import FIELDS, _stored, digest_lines


def write_format_1(dirpath, witness):
    """The witness writer of format 1: every orbital built and written to a file of its own."""
    os.makedirs(dirpath, exist_ok=True)
    grid = witness.grid
    lines = [
        "witness 1",
        f"grid {grid.dims[0]} {grid.dims[1]} {grid.dims[2]}",
        "box " + " ".join(f"{v:.17g}" for v in grid.box),
        f"electrons {witness.n_electrons}",
        f"branches {len(witness.branches)}",
    ]
    for bi, branch in enumerate(witness.branches):
        names = []
        for oi, orb in enumerate(branch.orbitals.orbitals):
            name = f"branch{bi}_orb{oi + 1}.bin"
            names.append(name)
            u, d = orb.up.values, orb.dn.values
            with open(os.path.join(dirpath, name), "wb") as fh:
                for block in (u.real, u.imag, d.real, d.imag):
                    fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())
        lines.append(f"branch {branch.weight:.17g} {int(branch.swapped)} " + " ".join(names))
    with open(os.path.join(dirpath, "witness.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def dir_bytes(path) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


@pytest.fixture(scope="module", params=list(FIELDS))
def built(request, tmp_path_factory):
    """(fixture name, field, construct's witness, its format-2 directory)."""
    name = request.param
    r = FIELDS[name]()
    w = sr.construct_witness(r)
    d = tmp_path_factory.mktemp(name)
    sr.write_witness(d, w)
    return name, r, w, d


# -- the bits ---------------------------------------------------------------------


def test_construct_write_read_keeps_the_stored_digests(built):
    name, _, w, d = built
    assert all(isinstance(b.orbitals.orbitals, OrbitalFamily) for b in w.branches)
    assert digest_lines(name, sr.read_witness(d)) == _stored(name)


def test_format_2_round_trips_each_family_bit_for_bit(built):
    _, _, w, d = built
    back = sr.read_witness(d)
    for bi, (ours, theirs) in enumerate(zip(w.branches, back.branches)):
        assert repr(theirs.weight) == repr(ours.weight) and theirs.swapped == ours.swapped
        a, b = ours.orbitals.orbitals, theirs.orbitals.orbitals
        assert isinstance(b, OrbitalFamily)
        assert (b.axis, b.ks, b.exchanged) == (a.axis, a.ks, a.exchanged)
        assert b.base_up.values.tobytes() == a.base_up.values.tobytes()
        assert b.base_dn.values.tobytes() == a.base_dn.values.tobytes()
        assert b.phase.tobytes() == a.phase.tobytes()
        # construct's diagnostics come back as they were, not as a placeholder
        assert theirs.orbitals.diagnostics == ours.orbitals.diagnostics
        assert set(ours.orbitals.diagnostics) == set(orbitals.DIAGNOSTICS)
        # the base file: Re phi_up, Im phi_up, sqrt(rho_dn), then f
        phi = a.base_up.values
        blocks = (phi.real, phi.imag, a.base_dn.values, a.phase)
        assert (d / f"branch{bi}_base.bin").read_bytes() == b"".join(
            np.ascontiguousarray(x, dtype="<f8").tobytes() for x in blocks)


def test_factored_materialised_and_read_back_agree(built):
    # the factored witness and its read-back hold the same bytes, so report the same bits
    _, r, w, d = built
    back = sr.read_witness(d)
    texts = {sr.verify(x, r).to_text() for x in (w, back)}
    assert len(texts) == 1 and "overall: pass" in texts.pop()
    assert sr.occupation_spectrum(w).tobytes() == sr.occupation_spectrum(back).tobytes()
    # the materialised orbitals are integrated; mismatch, Gram deviations and
    # occupations are relative or at most 1, so 1e-12 is taken absolutely
    ours, theirs = sr.verify(w, r), sr.verify(materialised(w), r)
    assert theirs.passed
    assert abs(ours.mismatch - theirs.mismatch) <= 1e-12
    np.testing.assert_allclose(ours.gram_deviations, theirs.gram_deviations, rtol=0, atol=1e-12)
    assert ours.weight_sum == theirs.weight_sum
    np.testing.assert_allclose(sr.occupation_spectrum(w), sr.occupation_spectrum(materialised(w)),
                               rtol=0, atol=1e-12)


def test_verify_gram_is_the_stored_gate_value(built):
    # one function gives construct's gate and verify's per-branch Gram deviation
    _, r, w, d = built
    stored = tuple(b.orbitals.diagnostics["gram_deviation"] for b in w.branches)
    for x in (w, sr.read_witness(d)):
        assert [repr(g) for g in sr.verify(x, r).gram_deviations] == [repr(g) for g in stored]


def test_verify_twice_on_one_witness_reports_the_same(built):
    _, r, w, _ = built
    assert sr.verify(w, r).to_text() == sr.verify(w, r).to_text()


def test_format_1_still_reads_and_verifies(built, tmp_path, capsys):
    # a format-1 copy holds explicit orbitals: it reports what the materialised
    # witness does, with the stencil T of each orbital
    name, r, w, d = built
    write_format_1(tmp_path / "v1", w)
    back = sr.read_witness(tmp_path / "v1")
    assert all(isinstance(b.orbitals.orbitals, tuple) for b in back.branches)
    assert all(b.orbitals.diagnostics == {} for b in back.branches)
    assert digest_lines(name, back) == _stored(name)
    explicit = materialised(w)
    assert sr.occupation_spectrum(back).tobytes() == sr.occupation_spectrum(explicit).tobytes()
    target = tmp_path / "target.spdf"
    sr.write_spdf(target, r)
    capsys.readouterr()
    reports = []
    for wdir in (tmp_path / "v1", d):
        assert main(["verify", str(wdir), str(target)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports == [sr.verify(explicit, r).to_text(), sr.verify(w, r).to_text()]


def test_format_2_keeps_hand_made_orbitals_in_files_of_their_own(built, tmp_path):
    # the first branch as its family, the others as orbitals given one by one
    name, _, w, _ = built
    mixed = sr.Witness(w.grid, w.n_electrons, (w.branches[0], *materialised(w).branches[1:]))
    sr.write_witness(tmp_path / "w", mixed)
    lines = (tmp_path / "w" / "witness.txt").read_text().splitlines()
    assert lines[0] == "witness 2"
    branch_lines = [ln.split() for ln in lines if ln.startswith("branch ")]
    assert branch_lines[0][3] == "family"
    assert all(tok[3].endswith("_orb1.bin") for tok in branch_lines[1:])
    back = sr.read_witness(tmp_path / "w")
    assert isinstance(back.branches[0].orbitals.orbitals, OrbitalFamily)
    assert all(isinstance(b.orbitals.orbitals, tuple) for b in back.branches[1:])
    assert digest_lines(name, back) == _stored(name)


def test_exchange_flips_the_flag_and_swaps_built_components(built):
    _, _, w, _ = built
    orbs = w.branches[0].orbitals
    swapped = sr.exchange_components(orbs)
    assert swapped.orbitals.exchanged != orbs.orbitals.exchanged
    for a, b in zip(orbs.orbitals, swapped.orbitals):
        assert a.up.values.tobytes() == b.dn.values.tobytes()
        assert a.dn.values.tobytes() == b.up.values.tobytes()


# -- the format -------------------------------------------------------------------


@pytest.fixture()
def family_dir(tmp_path, mixture48):
    sr.write_witness(tmp_path / "w", sr.construct_witness(mixture48))
    return tmp_path / "w"


def edit_line(d, index, fn):
    m = d / "witness.txt"
    lines = m.read_text().splitlines()
    lines[index] = fn(lines[index])
    m.write_text("\n".join(lines) + "\n")


def set_token(index, value):
    def spoil(line):
        tok = line.split()
        tok[index] = value
        return " ".join(tok)
    return spoil


# tokens: branch weight swapped family file axis exchanged k_1 ... k_N
@pytest.mark.parametrize("spoil, match", [
    (lambda line: line.rsplit(" ", 1)[0], "k values"),
    (set_token(5, "3"), "axis"),
    (set_token(6, "2"), "exchanged"),
    (set_token(7, "one"), "integers"),
], ids=["k-dropped", "axis", "exchanged", "k-not-integer"])
def test_malformed_family_line_is_a_format_error(family_dir, spoil, match):
    edit_line(family_dir, 5, spoil)
    with pytest.raises(sr.WitnessFormatError, match=match):
        sr.read_witness(family_dir)


@pytest.mark.parametrize("line, match", [
    ("diagnostics gram_deviation", "pairs"),
    ("diagnostics colour 1", "unknown"),
    ("diagnostics phase_dip 0 phase_dip 0", "repeated"),
    ("diagnostics phase_dip zero", "bad value"),
])
def test_malformed_diagnostics_line_is_a_format_error(family_dir, line, match):
    edit_line(family_dir, 6, lambda _: line)
    with pytest.raises(sr.WitnessFormatError, match=match):
        sr.read_witness(family_dir)


def test_base_file_of_the_wrong_size_is_refused(family_dir):
    f = family_dir / "branch1_base.bin"
    size = f.stat().st_size
    f.write_bytes(f.read_bytes()[:-8])
    with pytest.raises(sr.WitnessFormatError, match=f"holds {size - 8} bytes, expected {size}"):
        sr.read_witness(family_dir)


def test_missing_base_file_is_refused(family_dir):
    (family_dir / "branch0_base.bin").unlink()
    with pytest.raises(sr.WitnessFormatError, match="base file branch0_base.bin is missing"):
        sr.read_witness(family_dir)


@pytest.mark.traced
def test_fifo_base_file_under_a_huge_grid_is_refused_with_little_memory(family_dir):
    # the manifest implies 2000^3 grids, 64 GB a plane; the FIFO holds a 48^3 base
    f = family_dir / "branch0_base.bin"
    data = f.read_bytes()
    f.unlink()
    fifo_with(f, data)
    edit_line(family_dir, 1, lambda _: "grid 2000 2000 2000")
    tracemalloc.start()
    try:
        with pytest.raises(sr.WitnessFormatError, match=f"holds {len(data)} bytes"):
            sr.read_witness(family_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_format_2_directory_is_at_most_0_4_of_format_1(tmp_path, mixture48):
    w = sr.construct_witness(mixture48)
    assert w.n_electrons == 2 and len(w.branches) == 2
    sr.write_witness(tmp_path / "v2", w)
    write_format_1(tmp_path / "v1", w)
    assert dir_bytes(tmp_path / "v2") <= 0.4 * dir_bytes(tmp_path / "v1")


# -- memory -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mixture64():
    return mixture(64)


@pytest.mark.traced
def test_construct_peak_is_at_most_17_grids(mixture64):
    grid = 8 * mixture64.grid.npoints
    assert traced_peak(lambda: sr.construct_witness(mixture64)) <= 17 * grid


@pytest.fixture(scope="module")
def witness64(mixture64):
    return sr.construct_witness(mixture64)


@pytest.mark.traced
def test_cli_verify_peak_is_at_most_19_25_grids(mixture64, witness64, tmp_path, capsys):
    # 18.2 measured: the 4-grid input, the 6-grid witness and verify's own 8.1
    grid = 8 * mixture64.grid.npoints
    target = tmp_path / "target.spdf"
    sr.write_spdf(target, mixture64)
    sr.write_witness(tmp_path / "w", witness64)
    codes = []
    peak = traced_peak(lambda: codes.append(main(["verify", str(tmp_path / "w"), str(target)])))
    assert codes == [0, 0]
    assert peak <= 19.25 * grid


@pytest.mark.traced
def test_verify_peak_is_at_most_8_5_grids(mixture64, witness64):
    # the sums of the witness density (4 grids) held through check's gradient
    # norms of it (4.1 at 64^3 on two workers); no orbital is built
    grid = 8 * mixture64.grid.npoints
    assert traced_peak(lambda: sr.verify(witness64, mixture64)) <= 8.5 * grid


@pytest.mark.traced
def test_occupation_spectrum_peak_is_below_1_grid(mixture64, witness64):
    grid = 8 * mixture64.grid.npoints
    assert traced_peak(lambda: sr.occupation_spectrum(witness64)) < grid


@pytest.mark.traced
def test_verify_peak_does_not_grow_with_the_electron_count():
    peaks = []
    for n in (1, 2):
        r = sr.gaussian_diagonal(cube(48), n, width=1.4)
        w = sr.construct_witness(r)
        peaks.append(traced_peak(lambda: sr.verify(w, r)) / (8 * r.grid.npoints))
    assert abs(peaks[1] - peaks[0]) < 0.5


def test_verify_makes_two_stencil_passes_per_family_branch(monkeypatch, mixture64, witness64):
    # a pass starts at row 0 once; check's gradient norms of the witness density make four
    passes = []
    slab_derivatives = fields._slab_derivatives

    def counted(v, spacing, lo, *args):
        passes.append(lo == 0)
        return slab_derivatives(v, spacing, lo, *args)

    monkeypatch.setattr(fields, "_slab_derivatives", counted)
    branches, n = len(witness64.branches), witness64.n_electrons
    for w, per_branch in ((witness64, 2), (materialised(witness64), 2 * n)):
        passes.clear()
        sr.verify(w, mixture64)
        assert sum(passes) == per_branch * branches + 4


@pytest.mark.traced
def test_read_witness_peak_is_below_7_grids(mixture64, tmp_path):
    # it keeps 6: two bases of a complex and a real grid
    grid = 8 * mixture64.grid.npoints
    sr.write_witness(tmp_path / "w", sr.construct_witness(mixture64))
    assert traced_peak(lambda: sr.read_witness(tmp_path / "w")) < 7 * grid


# -- blocks -------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_density_sums_on_a_grid_whose_last_block_would_hold_one_point(seed):
    # 262145 points: flat blocks of 65536 would leave one point over; the row slabs
    # of 7085 points leave none
    grid = sr.Grid3((37, 65, 109), (-8.0, -8.0, -8.0, 8.0, 8.0, 8.0))
    assert grid.npoints % (fields._SLAB_BYTES // 8) == 1
    weighted = list(zip((0.25, 0.75), random_orbitals(grid, 2, seed)))
    for got, ref in zip(density_sums(grid, weighted),
                        ref_density_sums(grid, weighted)):
        assert got.tobytes() == ref.tobytes()
