"""On-disk formats: the SPDF density container and the witness directory.

SPDF (spin-polarized density field), version 1: a short ASCII header

    spdf 1
    grid <nx> <ny> <nz>
    box <x0> <y0> <z0> <x1> <y1> <z1>
    electrons <N>
    data

followed immediately by four little-endian float64 blocks of nx*ny*nz
values each — rho_up, rho_dn, Re sigma, Im sigma — flattened C-order with
the z index fastest.  Values are written bit-exactly, so a read-back
reproduces the field to the last ulp.

A witness directory holds ``witness.txt``, format 2:

    witness 2
    grid <nx> <ny> <nz>
    box <x0> ... <z1>
    electrons <N>
    branches <B>
    branch <weight> <swapped 0|1> family <file> <axis> <exchanged 0|1> <k_1> ... <k_N>
    diagnostics <name> <value> ...
    branch <weight> <swapped 0|1> <file_1> ... <file_N>

with one ``branch`` line per branch, in order, each optionally followed by
one ``diagnostics`` line.  A family branch stands for the N
orbitals base * exp(2 i pi k f(x_axis)) / sqrt(N), one per k, that
construct builds (:class:`spinrep.orbitals.OrbitalFamily`): its file holds
the base as three grid-sized raw little-endian float64 blocks (Re phi_up,
Im phi_up, sqrt(rho_dn)) followed by f at the axis nodes, and no orbital is
written.  With ``exchanged`` 1 the orbitals' up and dn components trade
places.  Any other branch names one file per orbital, each four grid-sized
blocks (Re up, Im up, Re dn, Im dn); it serves orbitals given one by one,
as hand-made witnesses and witnesses read from format 1 hold them.  The
``diagnostics`` line holds name-value pairs of construct's diagnostics of
that branch (:data:`spinrep.orbitals.DIAGNOSTICS`).  Numbers are printed
with 17 significant digits, which round-trips float64 exactly.

Format 1, which this module no longer writes, is format 2 with ``witness 1``
on its first line, no family branches and no diagnostics.

Every file is written to a temporary sibling and renamed over its target
once complete, so a crash never leaves a half-written file under the
target's name.  A witness's manifest is removed before its orbital files
are written and written last, so a directory whose writing was cut off
has no manifest and does not read as a witness.
"""

from __future__ import annotations

import contextlib
import io as _io
import math
import os
import secrets
import stat

import numpy as np

from .fields import ComplexField, Grid3, ScalarField, frozen
from .orbitals import DIAGNOSTICS, OrbitalFamily, OrbitalSet, Spinor
from .spin_density import SpinDensityField
from .witness import Witness, WitnessBranch

_F8 = np.dtype("<f8")


class SpdfFormatError(ValueError):
    """Malformed SPDF header or payload."""


class UnsupportedVersionError(SpdfFormatError):
    """The file declares a format version this reader does not speak."""


class WitnessFormatError(ValueError):
    """Malformed witness directory."""


# -- SPDF --------------------------------------------------------------------


def _header_lines(handle: _io.BufferedIOBase, count: int, err) -> list[str]:
    lines = []
    for i in range(count):
        raw = handle.readline(4096)
        if not raw.endswith(b"\n"):
            raise err(f"truncated header at line {i + 1}")
        try:
            lines.append(raw[:-1].decode("ascii"))
        except UnicodeDecodeError as exc:
            raise err(f"header line {i + 1} is not ascii") from exc
    return lines


def _parse_version(line: str, kind: str, what: str, versions: tuple[str, ...], err) -> int:
    """The version of a first line ``<kind> <version>``; ``what`` names the file in errors."""
    tok = line.split()
    if len(tok) != 2 or tok[0] != kind:
        raise err(f"line 1: not {what} (got {line!r})")
    if tok[1] not in versions:
        speaks = " and ".join(versions)
        raise UnsupportedVersionError(
            f"line 1: unsupported {kind} version {tok[1]!r} "
            f"(this reader speaks version{'s' if len(versions) > 1 else ''} {speaks})"
        )
    return int(tok[1])


def _grid_lines(grid: Grid3, n_electrons: int) -> list[str]:
    """The 'grid', 'box' and 'electrons' lines of a header, lines 2-4 of both formats."""
    return [
        f"grid {grid.dims[0]} {grid.dims[1]} {grid.dims[2]}",
        "box " + " ".join(f"{v:.17g}" for v in grid.box),
        f"electrons {n_electrons}",
    ]


def _parse_grid_lines(lines: list[str], err) -> tuple[Grid3, int]:
    """Grid and electron count of the lines :func:`_grid_lines` writes, lines 2-4 of a file."""
    tok = lines[0].split()
    if len(tok) != 4 or tok[0] != "grid":
        raise err(f"line 2: expected 'grid nx ny nz', got {lines[0]!r}")
    try:
        dims = tuple(int(t) for t in tok[1:])
    except ValueError as exc:
        raise err("line 2: grid dimensions must be integers") from exc
    tok = lines[1].split()
    if len(tok) != 7 or tok[0] != "box":
        raise err(f"line 3: expected 'box x0 y0 z0 x1 y1 z1', got {lines[1]!r}")
    try:
        box = tuple(float(t) for t in tok[1:])
    except ValueError as exc:
        raise err("line 3: box bounds must be numbers") from exc
    try:
        grid = Grid3(dims, box)
    except ValueError as exc:
        raise err(f"line 2-3: {exc}") from exc
    tok = lines[2].split()
    if len(tok) != 2 or tok[0] != "electrons":
        raise err(f"line 4: expected 'electrons N', got {lines[2]!r}")
    try:
        n = int(tok[1])
    except ValueError as exc:
        raise err("line 4: electron count must be an integer") from exc
    if n < 1:
        raise err(f"line 4: electron count must be positive, got {n}")
    return grid, n


# read size for pipes and other files without a known size, and the copy
# buffer of a strided write
_CHUNK = 1 << 20


def _read_up_to(fh: _io.BufferedIOBase, n: int) -> list[bytes]:
    """The next ``n`` bytes of ``fh``, fewer only at its end, as the bounded chunks read."""
    chunks, got = [], 0
    while got < n:
        chunk = fh.read(min(_CHUNK, n - got))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return chunks


def _nbytes(layout) -> int:
    """Bytes on disk of the arrays of ``layout``, (shape, dtype) pairs."""
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for shape, dtype in layout)


def _read_arrays(fh: _io.BufferedIOBase, layout, mismatch) -> list[np.ndarray]:
    """The read-only arrays of ``layout``, (shape, dtype) pairs, that make up the rest of ``fh``.

    Each array is stored as :func:`_write_blocks` writes it.  A float64
    array is an array over its own bytes.  A complex array is allocated once
    its real plane has arrived, so a short pipe is refused before anything
    grid-sized is allocated; its imaginary plane is then read chunk by
    chunk straight into the array, so that plane is never held whole.  A
    regular file's size is compared with the layout before anything is
    read.  Other files (pipes, FIFOs, ``/dev/stdin``) have no size to ask
    for: they are read block by block in bounded chunks, and any excess is
    counted to the end and dropped.  A size that does not match raises
    ``mismatch(size)``.
    """
    st = os.fstat(fh.fileno())
    regular = stat.S_ISREG(st.st_mode)
    if regular and st.st_size - fh.tell() != _nbytes(layout):
        raise mismatch(st.st_size - fh.tell())
    got = 0

    def block(shape) -> np.ndarray:
        nonlocal got
        nbytes = math.prod(shape) * _F8.itemsize
        parts = [fh.read(nbytes)] if regular else _read_up_to(fh, nbytes)
        size = sum(map(len, parts))
        if size != nbytes:  # refused before a short read is joined
            raise mismatch(got + size)
        got += nbytes
        return np.frombuffer(b"".join(parts), dtype=_F8).reshape(shape)

    arrays = []
    for shape, dtype in layout:
        if np.dtype(dtype).kind != "c":
            arrays.append(block(shape))
            continue
        re = block(shape)
        out = np.empty(shape, np.complex128)
        out.real = re
        del re
        plane, step = out.reshape(-1).imag, _CHUNK // _F8.itemsize
        for lo in range(0, plane.size, step):
            plane[lo:lo + step] = block((min(step, plane.size - lo),))
        arrays.append(frozen(out))
    extra = 0
    while chunk := fh.read(_CHUNK):
        extra += len(chunk)
    if extra:
        raise mismatch(got + extra)
    return arrays


@contextlib.contextmanager
def _replacing(path: str | os.PathLike):
    """A binary handle whose content replaces ``path`` only once it is complete.

    It writes a new temporary file beside ``path`` and renames it over
    ``path`` (``os.replace``) when the block ends; if the block raises, the
    temporary file is removed and ``path`` is left as it was.  A ``path``
    that exists and is not a regular file (a pipe, a device) is written in
    place.
    """
    path = os.fspath(path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG
    if not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            yield fh
        return
    head, tail = os.path.split(path)
    while True:
        tmp = os.path.join(head, f".{tail}.{secrets.token_hex(6)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_blocks(fh, arrays) -> None:
    """Write each array of ``arrays`` as raw little-endian float64 values in C order.

    A complex array is written as its real plane, then its imaginary plane.
    A C-contiguous float64 array is written from its own memory.  Any other
    block, such as a plane of a complex array, is copied piece by piece
    through one buffer of ``_CHUNK`` bytes, never as a whole.
    """
    buf = None
    for arr in arrays:
        for block in (arr.real, arr.imag) if arr.dtype.kind == "c" else (arr,):
            if block.dtype == _F8 and block.flags.c_contiguous:
                fh.write(block.data)
                continue
            if buf is None:
                buf = np.empty(_CHUNK // _F8.itemsize, _F8)
            flat = block.reshape(-1)
            for lo in range(0, flat.size, buf.size):
                part = buf[:min(buf.size, flat.size - lo)]
                np.copyto(part, flat[lo:lo + part.size])
                fh.write(part.data)


def write_spdf(path: str | os.PathLike, field: SpinDensityField) -> None:
    header = "\n".join(["spdf 1", *_grid_lines(field.grid, field.n_electrons), "data"]) + "\n"
    with _replacing(path) as fh:
        fh.write(header.encode("ascii"))
        _write_blocks(fh, (field.rho_up.values, field.rho_dn.values, field.sigma.values))


def _spdf_header(fh: _io.BufferedIOBase) -> tuple[Grid3, int]:
    """Grid and electron count of the SPDF header that ``fh`` starts with, read up to its data."""
    first, = _header_lines(fh, 1, SpdfFormatError)
    _parse_version(first, "spdf", "an spdf file", ("1",), SpdfFormatError)
    body = _header_lines(fh, 4, SpdfFormatError)
    grid, n = _parse_grid_lines(body[:3], SpdfFormatError)
    if body[3] != "data":
        raise SpdfFormatError(f"line 5: expected 'data', got {body[3]!r}")
    return grid, n


def _spdf_payload(fh: _io.BufferedIOBase, grid: Grid3, n: int) -> SpinDensityField:
    """The density whose SPDF payload ``fh`` holds after its header ``(grid, n)``."""
    layout = [(grid.dims, float)] * 2 + [(grid.dims, complex)]
    up, dn, sigma = _read_arrays(fh, layout, lambda size: SpdfFormatError(
        f"payload holds {size} bytes, expected {_nbytes(layout)} "
        f"(4 blocks of {grid.npoints} float64)"
    ))
    return SpinDensityField(
        rho_up=ScalarField(grid, up),
        rho_dn=ScalarField(grid, dn),
        sigma=ComplexField(grid, sigma),
        n_electrons=n,
    )


def read_spdf(path: str | os.PathLike) -> SpinDensityField:
    with open(path, "rb") as fh:
        return _spdf_payload(fh, *_spdf_header(fh))


# -- witness directory ---------------------------------------------------------

MANIFEST = "witness.txt"


def write_witness(dirpath: str | os.PathLike, witness: Witness) -> None:
    """Write ``witness`` to the directory ``dirpath`` in witness format 2."""
    os.makedirs(dirpath, exist_ok=True)
    # until the new manifest is in place the directory is no witness
    with contextlib.suppress(FileNotFoundError):
        os.unlink(os.path.join(dirpath, MANIFEST))
    lines = ["witness 2", *_grid_lines(witness.grid, witness.n_electrons),
             f"branches {len(witness.branches)}"]
    for bi, branch in enumerate(witness.branches):
        head = f"{branch.weight:.17g} {int(branch.swapped)}"
        orbitals = branch.orbitals.orbitals
        if isinstance(orbitals, OrbitalFamily):
            name = f"branch{bi}_base.bin"
            with _replacing(os.path.join(dirpath, name)) as fh:
                _write_blocks(fh, (orbitals.base_up.values, orbitals.base_dn.values,
                                   orbitals.phase))
            lines.append(f"branch {head} family {name} {orbitals.axis} "
                         f"{int(orbitals.exchanged)} " + " ".join(str(k) for k in orbitals.ks))
        else:
            names = []
            for oi, orb in enumerate(orbitals):
                name = f"branch{bi}_orb{oi + 1}.bin"
                names.append(name)
                with _replacing(os.path.join(dirpath, name)) as fh:
                    _write_blocks(fh, (orb.up.values, orb.dn.values))
            lines.append(f"branch {head} " + " ".join(names))
        diagnostics = branch.orbitals.diagnostics
        kept = [f"{k} {float(diagnostics[k]):.17g}" for k in DIAGNOSTICS if k in diagnostics]
        if kept:
            lines.append("diagnostics " + " ".join(kept))
    with _replacing(os.path.join(dirpath, MANIFEST)) as fh:
        fh.write(("\n".join(lines) + "\n").encode("ascii"))


def _read_payload(dirpath, name: str, what: str, layout) -> list[np.ndarray]:
    """The arrays of ``layout`` in the witness file ``name``, a ``what`` file in errors."""
    try:
        fh = open(os.path.join(dirpath, name), "rb")
    except FileNotFoundError as exc:
        raise WitnessFormatError(f"{what} file {name} is missing") from exc
    with fh:
        return _read_arrays(fh, layout, lambda size: WitnessFormatError(
            f"{what} file {name} holds {size} bytes, expected {_nbytes(layout)}"
        ))


def _read_family(dirpath, tok: list[str], grid: Grid3, where: str) -> OrbitalFamily:
    """The family of a branch line's tokens after ``family``: file, axis, flag, k-set."""
    name, axis, exchanged, ks = tok[0], tok[1], tok[2], tok[3:]
    if axis not in ("0", "1", "2"):
        raise WitnessFormatError(f"{where}: axis must be 0, 1 or 2, got {axis!r}")
    if exchanged not in ("0", "1"):
        raise WitnessFormatError(f"{where}: exchanged flag must be 0 or 1, got {exchanged!r}")
    try:
        ks = tuple(int(k) for k in ks)
    except ValueError as exc:
        raise WitnessFormatError(f"{where}: the k-set must be integers, got {ks!r}") from exc
    phi_up, sqrt_dn, f = _read_payload(dirpath, name, "base", [
        (grid.dims, complex), (grid.dims, float), ((grid.dims[int(axis)],), float)])
    return OrbitalFamily(
        base_up=ComplexField(grid, phi_up),
        base_dn=ScalarField(grid, sqrt_dn),
        axis=int(axis),
        phase=f,
        ks=ks,
        exchanged=exchanged == "1",
    )


def _read_diagnostics(tok: list[str], where: str) -> dict[str, float]:
    """The name-value pairs of a ``diagnostics`` line's tokens after its first."""
    if len(tok) % 2:
        raise WitnessFormatError(f"{where}: diagnostics must be name-value pairs")
    out = {}
    for key, value in zip(tok[::2], tok[1::2]):
        if key not in DIAGNOSTICS or key in out:
            raise WitnessFormatError(f"{where}: unknown or repeated diagnostic {key!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise WitnessFormatError(f"{where}: bad value {value!r} of {key}") from exc
    return out


def read_witness(dirpath: str | os.PathLike) -> Witness:
    """The witness in the directory ``dirpath``, in witness format 1 or 2."""
    manifest = os.path.join(dirpath, MANIFEST)
    try:
        with open(manifest, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except FileNotFoundError as exc:
        raise WitnessFormatError(f"no {MANIFEST} in {dirpath}") from exc
    except UnicodeDecodeError as exc:
        raise WitnessFormatError(f"{MANIFEST} is not ascii") from exc
    if len(lines) < 5:
        raise WitnessFormatError("manifest too short")
    version = _parse_version(lines[0], "witness", "a witness manifest", ("1", "2"),
                             WitnessFormatError)
    grid, n = _parse_grid_lines(lines[1:4], WitnessFormatError)
    tok = lines[4].split()
    if len(tok) != 2 or tok[0] != "branches":
        raise WitnessFormatError(f"line 5: expected 'branches B', got {lines[4]!r}")
    try:
        nbranches = int(tok[1])
    except ValueError as exc:
        raise WitnessFormatError("line 5: branch count must be an integer") from exc
    if nbranches < 1:
        raise WitnessFormatError(f"line 5: branch count must be positive, got {nbranches}")
    # each branch line with the diagnostics line that follows it, if any
    entries = []
    for line in (ln for ln in lines[5:] if ln.strip()):
        if version == 2 and line.split()[0] == "diagnostics" and entries and not entries[-1][1]:
            entries[-1][1] = line
        else:
            entries.append([line, None])
    if len(entries) != nbranches:
        raise WitnessFormatError(
            f"manifest declares {nbranches} branches but lists {len(entries)}"
        )
    branches = []
    for idx, (line, diag_line) in enumerate(entries):
        where = f"branch line {idx + 1}"
        tok = line.split()
        family = version == 2 and tok[0] == "branch" and len(tok) > 3 and tok[3] == "family"
        if family and len(tok) != 7 + n:
            raise WitnessFormatError(
                f"{where}: expected 'branch weight swapped family file axis exchanged' "
                f"plus {n} k values, got {line!r}"
            )
        if not family and (len(tok) != 3 + n or tok[0] != "branch"):
            raise WitnessFormatError(
                f"{where}: expected 'branch weight swapped' "
                f"plus {n} file names, got {line!r}"
            )
        try:
            weight = float(tok[1])
        except ValueError as exc:
            raise WitnessFormatError(f"{where}: bad weight {tok[1]!r}") from exc
        if tok[2] not in ("0", "1"):
            raise WitnessFormatError(
                f"{where}: swapped flag must be 0 or 1, got {tok[2]!r}"
            )
        diagnostics = _read_diagnostics(diag_line.split()[1:], where) if diag_line else {}
        if family:
            orbitals = _read_family(dirpath, tok[4:], grid, where)
        else:
            orbitals = tuple(
                Spinor(*(ComplexField(grid, a) for a in _read_payload(
                    dirpath, name, "orbital", [(grid.dims, complex)] * 2)))
                for name in tok[3:])
        branches.append(WitnessBranch(
            weight=weight,
            orbitals=OrbitalSet(grid=grid, orbitals=orbitals, diagnostics=diagnostics),
            swapped=tok[2] == "1",
        ))
    return Witness(grid=grid, n_electrons=n, branches=tuple(branches))
