"""Round trips and format validation for the SPDF file and witness directory."""

import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import spinrep as sr

from _helpers import cube, field_from_arrays, gaussian_values

HEADER = ["spdf 1", "grid 4 4 4", "box -1 -1 -1 1 1 1", "electrons 1", "data"]


def spdf_file(tmp_path, lines, npoints=64, nblocks=4):
    payload = np.zeros(nblocks * npoints, dtype="<f8").tobytes()
    path = tmp_path / "field.spdf"
    path.write_bytes(("\n".join(lines) + "\n").encode("ascii") + payload)
    return path


def swap(lines, i, text):
    out = list(lines)
    out[i] = text
    return out


# -- SPDF ----------------------------------------------------------------------


def test_spdf_round_trip_bit_exact(tmp_path):
    grid = cube(6, 3.0)
    rng = np.random.default_rng(11)
    up = rng.random(grid.dims)
    dn = rng.random(grid.dims)
    sig = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    # the container stores whatever it is given, including junk the checker
    # would reject — writers must not silently sanitize
    up[0, 0, 0] = -0.25
    dn[1, 2, 3] = np.nan
    field = field_from_arrays(grid, up, dn, sig, n_electrons=3)

    path = tmp_path / "f.spdf"
    sr.write_spdf(path, field)
    back = sr.read_spdf(path)

    assert back.grid.dims == grid.dims
    assert back.grid.box == grid.box
    assert back.n_electrons == 3
    assert back.rho_up.values.tobytes() == up.tobytes()
    assert back.rho_dn.values.tobytes() == dn.tobytes()
    assert back.sigma.values.real.tobytes() == sig.real.copy().tobytes()
    assert back.sigma.values.imag.tobytes() == sig.imag.copy().tobytes()


SPECIAL_PARTS = (-0.0, np.inf, -np.inf, np.nan)


def with_special_parts(values):
    """A complex copy of ``values`` whose first entries pair each special float with each."""
    v = np.array(values, dtype=np.complex128)
    flat = v.reshape(-1)
    pairs = [(a, b) for a in SPECIAL_PARTS + (1.5,) for b in SPECIAL_PARTS + (-2.5,)]
    for k, (re, im) in enumerate(pairs):
        flat[k] = 0.0  # then set each part on its own: no complex arithmetic
        flat.real[k], flat.imag[k] = re, im
    return v


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_spdf_round_trip_keeps_special_complex_parts(tmp_path):
    grid = cube(6, 3.0)
    rng = np.random.default_rng(12)
    up = rng.random(grid.dims)
    up.reshape(-1)[:4] = SPECIAL_PARTS
    sig = with_special_parts(rng.standard_normal(grid.dims))
    field = field_from_arrays(grid, up, rng.random(grid.dims), sig)
    path = tmp_path / "f.spdf"
    sr.write_spdf(path, field)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = sr.read_spdf(path)
    assert_same_bytes(back.rho_up.values, field.rho_up.values)
    assert_same_bytes(back.sigma.values, field.sigma.values)


def test_witness_round_trip_keeps_special_complex_parts(tmp_path):
    grid = cube(6, 3.0)
    rng = np.random.default_rng(13)
    orb = sr.Spinor(
        up=sr.ComplexField(grid, with_special_parts(rng.standard_normal(grid.dims))),
        dn=sr.ComplexField(grid, with_special_parts(rng.standard_normal(grid.dims))[::-1]),
    )
    witness = sr.Witness(grid=grid, n_electrons=1, branches=(
        sr.WitnessBranch(1.0, sr.OrbitalSet(grid=grid, orbitals=(orb,))),))
    sr.write_witness(tmp_path / "w", witness)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = sr.read_witness(tmp_path / "w")
    got = back.branches[0].orbitals.orbitals[0]
    assert_same_bytes(got.up.values, orb.up.values)
    assert_same_bytes(got.dn.values, orb.dn.values)


@pytest.mark.traced
def test_spdf_write_copies_each_plane_through_one_chunk(tmp_path):
    # the bytes of whole-array contiguous copies, with a traced peak far below a grid
    grid = cube(64)
    rng = np.random.default_rng(14)
    sig = with_special_parts(rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims))
    field = field_from_arrays(grid, rng.random(grid.dims), rng.random(grid.dims), sig)
    path = tmp_path / "f.spdf"
    sr.write_spdf(path, field)
    tracemalloc.start()
    try:
        sr.write_spdf(path, field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
    blocks = (field.rho_up.values, field.rho_dn.values, sig.real, sig.imag)
    payload = b"".join(np.ascontiguousarray(b, dtype="<f8").tobytes() for b in blocks)
    header = "spdf 1\ngrid 64 64 64\nbox -8 -8 -8 8 8 8\nelectrons 2\ndata\n"
    assert path.read_bytes() == header.encode("ascii") + payload


def test_spdf_round_trip_non_round_box(tmp_path):
    # 17 significant digits must reproduce awkward box bounds exactly
    grid = sr.Grid3((4, 5, 6), (-7.3, -1.0 / 3.0, -2.0, 7.3, 1.0 / 3.0, 2.0))
    g = gaussian_values(grid, width=1.0)
    field = field_from_arrays(grid, g, g, 0.5 * g, n_electrons=2)
    path = tmp_path / "f.spdf"
    sr.write_spdf(path, field)
    back = sr.read_spdf(path)
    assert back.grid.box == grid.box
    assert back.grid.dims == (4, 5, 6)


def test_spdf_rejects_bad_magic(tmp_path):
    path = spdf_file(tmp_path, swap(HEADER, 0, "dens 1"))
    with pytest.raises(sr.SpdfFormatError, match="not an spdf file"):
        sr.read_spdf(path)


def test_spdf_rejects_future_version(tmp_path):
    path = spdf_file(tmp_path, swap(HEADER, 0, "spdf 2"))
    with pytest.raises(sr.UnsupportedVersionError, match="version"):
        sr.read_spdf(path)
    assert issubclass(sr.UnsupportedVersionError, sr.SpdfFormatError)


def test_spdf_rejects_zero_grid_dim(tmp_path):
    path = spdf_file(tmp_path, swap(HEADER, 1, "grid 4 0 4"))
    with pytest.raises(sr.SpdfFormatError):
        sr.read_spdf(path)


def test_spdf_rejects_non_integer_dims(tmp_path):
    path = spdf_file(tmp_path, swap(HEADER, 1, "grid 4 4 two"))
    with pytest.raises(sr.SpdfFormatError, match="integer"):
        sr.read_spdf(path)


def test_spdf_rejects_inverted_box(tmp_path):
    path = spdf_file(tmp_path, swap(HEADER, 2, "box -1 -1 -1 1 -2 1"))
    with pytest.raises(sr.SpdfFormatError):
        sr.read_spdf(path)


def test_spdf_rejects_bad_electrons(tmp_path):
    with pytest.raises(sr.SpdfFormatError, match="positive"):
        sr.read_spdf(spdf_file(tmp_path, swap(HEADER, 3, "electrons 0")))
    with pytest.raises(sr.SpdfFormatError, match="integer"):
        sr.read_spdf(spdf_file(tmp_path, swap(HEADER, 3, "electrons x")))


def test_spdf_rejects_missing_data_line(tmp_path):
    path = spdf_file(tmp_path, swap(HEADER, 4, "payload"))
    with pytest.raises(sr.SpdfFormatError, match="data"):
        sr.read_spdf(path)


def test_spdf_rejects_truncated_header(tmp_path):
    path = tmp_path / "f.spdf"
    path.write_bytes(b"spdf 1\ngrid 4 4 4")
    with pytest.raises(sr.SpdfFormatError, match="truncated"):
        sr.read_spdf(path)


def test_spdf_rejects_truncated_payload(tmp_path):
    path = spdf_file(tmp_path, HEADER)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(sr.SpdfFormatError, match="expected 2048"):
        sr.read_spdf(path)


def test_spdf_rejects_extra_payload(tmp_path):
    path = spdf_file(tmp_path, HEADER)
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(sr.SpdfFormatError, match="payload"):
        sr.read_spdf(path)


def traced_peak(fn, *args):
    """Bytes allocated at the peak of fn(*args), which must raise a format error."""
    tracemalloc.start()
    try:
        with pytest.raises((sr.SpdfFormatError, sr.WitnessFormatError)) as exc:
            fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, str(exc.value)


@pytest.mark.traced
def test_spdf_oversized_file_is_refused_unread(tmp_path):
    path = spdf_file(tmp_path, HEADER)
    os.truncate(path, 64 * 2**20)  # sparse: 64 MB on paper, nothing on disk
    peak, msg = traced_peak(sr.read_spdf, path)
    assert "expected 2048" in msg
    assert peak < 2**20


@pytest.mark.traced
def test_spdf_truncated_for_its_header_is_refused_unread(tmp_path):
    # the header implies 256 GB of payload; the file holds 2 kB
    path = spdf_file(tmp_path, swap(HEADER, 1, "grid 2000 2000 2000"))
    peak, msg = traced_peak(sr.read_spdf, path)
    assert "payload holds 2048 bytes, expected 256000000000" in msg
    assert peak < 2**20


def fifo_with(path, data):
    """Make ``path`` a FIFO that a background thread fills with ``data``, then closes."""
    os.mkfifo(path)

    def feed():
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:  # the reader stopped early
            pass

    threading.Thread(target=feed, daemon=True).start()
    return path


def test_spdf_reads_through_a_fifo(tmp_path):
    grid = cube(6, 3.0)
    g = gaussian_values(grid, width=1.0)
    field = field_from_arrays(grid, g, 0.5 * g, 0.25j * g, n_electrons=2)
    path = tmp_path / "f.spdf"
    sr.write_spdf(path, field)
    back = sr.read_spdf(fifo_with(tmp_path / "pipe", path.read_bytes()))
    assert back.n_electrons == 2
    assert back.rho_up.values.tobytes() == field.rho_up.values.tobytes()
    assert back.rho_dn.values.tobytes() == field.rho_dn.values.tobytes()
    assert back.sigma.values.tobytes() == field.sigma.values.tobytes()


@pytest.mark.traced
def test_spdf_fifo_read_peaks_like_a_regular_file(tmp_path):
    # rho_up, rho_dn and sigma's two planes, plus one plane in flight: five grids
    grid = cube(64)
    rng = np.random.default_rng(15)
    sig = rng.standard_normal(grid.dims) + 1j * rng.standard_normal(grid.dims)
    field = field_from_arrays(grid, rng.random(grid.dims), rng.random(grid.dims), sig)
    path = tmp_path / "f.spdf"
    sr.write_spdf(path, field)
    pipe = fifo_with(tmp_path / "pipe", path.read_bytes())
    tracemalloc.start()
    try:
        back = sr.read_spdf(pipe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.05 * 8 * grid.npoints
    for name in ("rho_up", "rho_dn", "sigma"):
        assert getattr(back, name).values.tobytes() == getattr(field, name).values.tobytes()


def test_spdf_fifo_with_extra_payload_is_refused(tmp_path):
    data = spdf_file(tmp_path, HEADER).read_bytes() + bytes(100)
    with pytest.raises(sr.SpdfFormatError, match="payload holds 2148 bytes, expected 2048"):
        sr.read_spdf(fifo_with(tmp_path / "pipe", data))


@pytest.mark.traced
def test_spdf_fifo_truncated_for_its_header_is_refused_unread(tmp_path):
    data = spdf_file(tmp_path, swap(HEADER, 1, "grid 2000 2000 2000")).read_bytes()
    peak, msg = traced_peak(sr.read_spdf, fifo_with(tmp_path / "pipe", data))
    assert "payload holds 2048 bytes, expected 256000000000" in msg
    assert peak < 4 * 2**20


# -- witness directory -----------------------------------------------------------


@pytest.fixture(scope="module")
def witness_pair(mixture48, tmp_path_factory):
    witness = sr.construct_witness(mixture48)
    d = tmp_path_factory.mktemp("witness")
    sr.write_witness(d, witness)
    return witness, d


def test_witness_files_on_disk(witness_pair):
    witness, d = witness_pair
    lines = (d / "witness.txt").read_text().splitlines()
    assert lines[0] == "witness 2"
    assert [ln.split()[0] for ln in lines[5:]] == ["branch", "diagnostics"] * len(witness.branches)
    assert all(ln.split()[3] == "family" for ln in lines[5::2])
    # one base file per branch, no orbital file
    n_files = sum(1 for p in d.iterdir() if p.suffix == ".bin")
    assert n_files == len(witness.branches)


def test_witness_round_trip(witness_pair):
    witness, d = witness_pair
    back = sr.read_witness(d)
    assert back.grid.dims == witness.grid.dims
    assert back.grid.box == witness.grid.box
    assert back.n_electrons == witness.n_electrons
    assert len(back.branches) == len(witness.branches)
    for ours, theirs in zip(witness.branches, back.branches):
        assert theirs.weight == ours.weight
        assert theirs.swapped == ours.swapped
        for a, b in zip(ours.orbitals.orbitals, theirs.orbitals.orbitals):
            assert np.array_equal(a.up.values, b.up.values)
            assert np.array_equal(a.dn.values, b.dn.values)

    dens = sr.density_of(witness)
    dens_back = sr.density_of(back)
    assert np.array_equal(dens.rho_up.values, dens_back.rho_up.values)
    assert np.array_equal(dens.sigma.values, dens_back.sigma.values)


def tiny_witness(weights):
    grid = cube(4, 2.0)
    rng = np.random.default_rng(5)
    branches = []
    for w in weights:
        orb = sr.Spinor(
            up=sr.ComplexField(grid, rng.standard_normal(grid.dims) + 0j),
            dn=sr.ComplexField(grid, 1j * rng.standard_normal(grid.dims)),
        )
        branches.append(sr.WitnessBranch(
            weight=w,
            orbitals=sr.OrbitalSet(grid=grid, orbitals=(orb,)),
            swapped=False,
        ))
    return sr.Witness(grid=grid, n_electrons=1, branches=tuple(branches))


def test_witness_weights_survive_text_round_trip(tmp_path):
    # 1/3 has no short decimal form; %.17g must still reproduce the bits
    witness = tiny_witness([1.0 / 3.0, 2.0 / 3.0])
    sr.write_witness(tmp_path / "w", witness)
    back = sr.read_witness(tmp_path / "w")
    assert [b.weight for b in back.branches] == [1.0 / 3.0, 2.0 / 3.0]


def edit_manifest(d, fn):
    m = d / "witness.txt"
    lines = m.read_text().splitlines()
    m.write_text("\n".join(fn(lines)) + "\n")


@pytest.fixture()
def broken_dir(tmp_path):
    sr.write_witness(tmp_path / "w", tiny_witness([0.5, 0.5]))
    return tmp_path / "w"


def test_witness_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(sr.WitnessFormatError, match="witness.txt"):
        sr.read_witness(tmp_path / "empty")


def test_witness_missing_orbital_file(broken_dir):
    (broken_dir / "branch1_orb1.bin").unlink()
    with pytest.raises(sr.WitnessFormatError, match="missing"):
        sr.read_witness(broken_dir)


def test_witness_truncated_orbital_file(broken_dir):
    f = broken_dir / "branch0_orb1.bin"
    f.write_bytes(f.read_bytes()[:-16])
    with pytest.raises(sr.WitnessFormatError, match="bytes"):
        sr.read_witness(broken_dir)


@pytest.mark.traced
def test_witness_oversized_orbital_file_is_refused_unread(broken_dir):
    f = broken_dir / "branch0_orb1.bin"
    expected = f.stat().st_size
    os.truncate(f, 64 * 2**20)
    peak, msg = traced_peak(sr.read_witness, broken_dir)
    assert f"holds {64 * 2**20} bytes, expected {expected}" in msg
    assert peak < 2**20


@pytest.mark.traced
def test_witness_orbital_file_truncated_for_its_grid_is_refused_unread(broken_dir):
    edit_manifest(broken_dir, lambda L: swap(L, 1, "grid 2000 2000 2000"))
    peak, msg = traced_peak(sr.read_witness, broken_dir)
    assert "expected 256000000000" in msg
    assert peak < 2**20


def test_witness_orbital_file_may_be_a_fifo(broken_dir):
    regular = sr.read_witness(broken_dir)
    f = broken_dir / "branch0_orb1.bin"
    data = f.read_bytes()
    f.unlink()
    fifo_with(f, data)
    back = sr.read_witness(broken_dir)
    ours, theirs = regular.branches[0].orbitals.orbitals[0], back.branches[0].orbitals.orbitals[0]
    assert theirs.up.values.tobytes() == ours.up.values.tobytes()
    assert theirs.dn.values.tobytes() == ours.dn.values.tobytes()


def test_witness_short_fifo_orbital_file_is_refused(broken_dir):
    f = broken_dir / "branch0_orb1.bin"
    data = f.read_bytes()
    f.unlink()
    fifo_with(f, data[:-8])
    with pytest.raises(sr.WitnessFormatError, match=f"holds {len(data) - 8} bytes"):
        sr.read_witness(broken_dir)


def test_witness_wrong_branch_count(broken_dir):
    edit_manifest(broken_dir, lambda L: swap(L, 4, "branches 3"))
    with pytest.raises(sr.WitnessFormatError, match="declares 3"):
        sr.read_witness(broken_dir)


def test_witness_garbage_weight(broken_dir):
    edit_manifest(
        broken_dir,
        lambda L: swap(L, 5, "branch nought 0 branch0_orb1.bin"),
    )
    with pytest.raises(sr.WitnessFormatError, match="weight"):
        sr.read_witness(broken_dir)


def test_witness_bad_swapped_flag(broken_dir):
    edit_manifest(
        broken_dir,
        lambda L: swap(L, 5, "branch 0.5 2 branch0_orb1.bin"),
    )
    with pytest.raises(sr.WitnessFormatError, match="swapped"):
        sr.read_witness(broken_dir)


def test_witness_wrong_orbital_arity(broken_dir):
    edit_manifest(
        broken_dir,
        lambda L: swap(L, 5, "branch 0.5 0 branch0_orb1.bin branch1_orb1.bin"),
    )
    with pytest.raises(sr.WitnessFormatError, match="file names"):
        sr.read_witness(broken_dir)


def test_witness_future_version(broken_dir):
    edit_manifest(broken_dir, lambda L: swap(L, 0, "witness 9"))
    with pytest.raises(sr.UnsupportedVersionError):
        sr.read_witness(broken_dir)


def test_witness_manifest_too_short(broken_dir):
    edit_manifest(broken_dir, lambda L: L[:3])
    with pytest.raises(sr.WitnessFormatError, match="short"):
        sr.read_witness(broken_dir)


# -- atomic writes ---------------------------------------------------------------


def fail_after(monkeypatch, calls):
    """Make the io module's block writer write one block and raise, from its ``calls``-th call on."""
    real, count = sr.io._write_blocks, [0]

    def writer(fh, blocks):
        count[0] += 1
        if count[0] < calls:
            return real(fh, blocks)
        real(fh, list(blocks)[:1])
        raise OSError("disk full")

    monkeypatch.setattr(sr.io, "_write_blocks", writer)


def leftovers(d):
    return sorted(p.name for p in d.iterdir() if p.name.endswith(".tmp"))


def test_spdf_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    old = field_from_arrays(cube(4, 1.0), np.ones((4, 4, 4)), np.ones((4, 4, 4)),
                            np.zeros((4, 4, 4), complex), n_electrons=1)
    path = tmp_path / "f.spdf"
    sr.write_spdf(path, old)
    before = path.read_bytes()
    fail_after(monkeypatch, 1)
    new = field_from_arrays(cube(4, 1.0), 2 * np.ones((4, 4, 4)), np.ones((4, 4, 4)),
                            np.zeros((4, 4, 4), complex), n_electrons=1)
    with pytest.raises(OSError, match="disk full"):
        sr.write_spdf(path, new)
    assert path.read_bytes() == before
    assert leftovers(tmp_path) == []


def test_spdf_failed_first_write_leaves_no_file(tmp_path, monkeypatch):
    fail_after(monkeypatch, 1)
    field = field_from_arrays(cube(4, 1.0), np.ones((4, 4, 4)), np.ones((4, 4, 4)),
                              np.zeros((4, 4, 4), complex), n_electrons=1)
    with pytest.raises(OSError):
        sr.write_spdf(tmp_path / "f.spdf", field)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("calls", [1, 2, 3])
def test_witness_cut_off_mid_write_does_not_parse(tmp_path, monkeypatch, calls):
    """A witness written over an older one fails at its ``calls``-th orbital file."""
    d = tmp_path / "w"
    sr.write_witness(d, tiny_witness([0.25, 0.25, 0.5]))
    assert sr.read_witness(d).branches[0].weight == 0.25
    fail_after(monkeypatch, calls)
    with pytest.raises(OSError, match="disk full"):
        sr.write_witness(d, tiny_witness([0.5, 0.25, 0.25]))
    with pytest.raises(sr.WitnessFormatError, match="witness.txt"):
        sr.read_witness(d)
    assert leftovers(d) == []
    # every orbital file present is whole: the old one or the new one
    sizes = {p.stat().st_size for p in d.iterdir()}
    assert sizes == {4 * 64 * 8}


def test_witness_write_leaves_no_temporary_files(tmp_path):
    d = tmp_path / "w"
    sr.write_witness(d, tiny_witness([0.5, 0.5]))
    sr.write_witness(d, tiny_witness([0.25, 0.75]))
    assert leftovers(d) == []
    assert [b.weight for b in sr.read_witness(d).branches] == [0.25, 0.75]


def test_spdf_writes_through_a_fifo(tmp_path):
    """An existing target that is not a regular file is written in place."""
    grid = cube(4, 1.0)
    field = field_from_arrays(grid, np.ones(grid.dims), np.ones(grid.dims),
                              np.zeros(grid.dims, complex), n_electrons=1)
    regular = tmp_path / "f.spdf"
    sr.write_spdf(regular, field)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read)
    reader.start()
    sr.write_spdf(fifo, field)
    reader.join(30)
    assert got == [regular.read_bytes()]
    assert leftovers(tmp_path) == []
