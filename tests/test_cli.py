"""End-to-end command-line tests, run in process through ``cli.main``."""

import argparse
import os
import shlex
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spinrep as sr
from spinrep.cli import build_parser, main

from _helpers import cube, dipped, field_from_arrays, gaussian_values, mixture

# 48^3 because the orbital gram check needs the oscillatory overlaps resolved;
# at 32^3 the deviation sits near 2e-4, two orders above the verify threshold
MIXTURE = ["--family", "mixture", "--n-electrons", "2", "--width", "1.5",
           "--coupling", "0.5", "--phase-gradient", "0.7", "--grid", "48"]


def gen(tmp_path, *extra):
    path = tmp_path / "field.spdf"
    code = main(["gen", "--n-electrons", "2", "--grid", "24", "--box", "-10",
                 "10", "--width", "2.0", "--out", str(path), *extra])
    assert code == 0
    return path


def test_gen_then_check_passes(tmp_path, capsys):
    path = gen(tmp_path)
    out = capsys.readouterr().out
    assert "wrote" in out and "n_electrons=2" in out

    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert out.count("condition:") == 7


def test_check_reads_a_fifo(tmp_path, capsys):
    # the input may be a pipe, as with `spinrep check <(...)`
    data = gen(tmp_path).read_bytes()
    capsys.readouterr()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True).start()
    assert main(["check", str(fifo)]) == 0
    assert "overall: pass" in capsys.readouterr().out


@pytest.mark.parametrize("piped", [0, 1], ids=["coarse", "refined"])
def test_check_refined_reads_a_fifo(tmp_path, capsys, piped):
    # either file of `check --refined` may be a pipe, whose header can be read only once
    paths = [tmp_path / "c.spdf", tmp_path / "f.spdf"]
    sr.write_spdf(paths[0], mixture(16))
    sr.write_spdf(paths[1], mixture(24))
    code = main(["check", str(paths[0]), "--refined", str(paths[1])])
    expected = capsys.readouterr()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    data = paths[piped].read_bytes()
    threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True).start()
    paths[piped] = fifo
    # a second open of the pipe would wait for a writer forever, so the run gets a deadline
    codes = []
    run = threading.Thread(target=lambda: codes.append(
        main(["check", str(paths[0]), "--refined", str(paths[1])])), daemon=True)
    run.start()
    run.join(60)
    assert not run.is_alive(), "check still waits on the pipe"
    assert codes == [code]
    assert capsys.readouterr() == expected


def test_check_flags_violation(tmp_path, capsys):
    grid = cube(24)
    g = gaussian_values(grid, width=1.5)
    field = field_from_arrays(grid, g, g, 1.001 * g)
    path = tmp_path / "bad.spdf"
    sr.write_spdf(path, field)

    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "det_nonneg" in out
    assert "overall: fail" in out


def test_check_report_file(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    report = tmp_path / "report.txt"
    assert main(["check", str(path), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert report.read_text() == out


def test_check_huge_floor_is_indeterminate(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    # a floor this coarse masks most of the box, so the /rho integrals
    # cannot be certified
    assert main(["check", str(path), "--floor", "0.01"]) == 1
    assert "indeterminate" in capsys.readouterr().out


def test_sqrt_matches_library(tmp_path, capsys):
    path = gen(tmp_path)
    out_path = tmp_path / "sqrt.spdf"
    assert main(["sqrt", str(path), "--out", str(out_path)]) == 0

    field = sr.read_spdf(path)
    sq = sr.sqrt_field(field)
    back = sr.read_spdf(out_path)
    assert np.array_equal(back.rho_up.values, sq.r_up.values)
    assert np.array_equal(back.rho_dn.values, sq.r_dn.values)
    assert np.array_equal(back.sigma.values, sq.s.values)


def test_eigs_report_and_output(tmp_path, capsys):
    path = gen(tmp_path)
    out_path = tmp_path / "eigs.spdf"
    report = tmp_path / "eigs.txt"
    code = main(["eigs", str(path), "--out", str(out_path),
                 "--report", str(report)])
    assert code == 0
    text = report.read_text()
    assert "report: eigs" in text
    for line in text.splitlines():
        if line.startswith("rho_plus_integral:"):
            # equal-spin gaussian: each eigen density carries one electron,
            # up to coarse-grid quadrature
            assert abs(float(line.split()[1]) - 1.0) < 1e-6
    eig_field = sr.read_spdf(out_path)
    assert np.all(eig_field.rho_up.values >= eig_field.rho_dn.values)
    assert np.all(eig_field.sigma.values == 0)


def test_construct_then_verify(tmp_path, capsys):
    path = tmp_path / "mix.spdf"
    assert main(["gen", *MIXTURE, "--out", str(path)]) == 0
    wdir = tmp_path / "witness"
    assert main(["construct", str(path), "--out", str(wdir)]) == 0
    out = capsys.readouterr().out
    assert "branches" in out

    assert main(["verify", str(wdir), str(path)]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    assert "density_match" in out


def test_verify_flags_corrupted_weights(tmp_path, capsys):
    path = tmp_path / "mix.spdf"
    main(["gen", *MIXTURE, "--out", str(path)])
    wdir = tmp_path / "witness"
    main(["construct", str(path), "--out", str(wdir)])
    manifest = wdir / "witness.txt"
    lines = manifest.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith("branch "):
            tok = line.split()
            tok[1] = repr(0.9 * float(tok[1]))
            lines[i] = " ".join(tok)
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()

    assert main(["verify", str(wdir), str(path)]) == 1
    out = capsys.readouterr().out
    assert "weight_sum" in out
    assert "overall: fail" in out


def test_verify_reports_a_nan_orbital(tmp_path, capsys):
    grid = cube(24)
    psi_up, psi_dn = sr.gaussian_spinor(grid, width_up=1.5, spin_fraction=0.6,
                                        phase_gradient=0.0)
    path = tmp_path / "target.spdf"
    sr.write_spdf(path, sr.rank1_from_orbital(psi_up, psi_dn, 1))
    dn = psi_dn.values.copy()
    dn[12, 12, 12] = np.nan
    orb = sr.Spinor(up=psi_up, dn=sr.ComplexField(grid, dn))
    wdir = tmp_path / "witness"
    sr.write_witness(wdir, sr.Witness(grid=grid, n_electrons=1, branches=(
        sr.WitnessBranch(1.0, sr.OrbitalSet(grid=grid, orbitals=(orb,))),)))

    assert main(["verify", str(wdir), str(path)]) == 1
    captured = capsys.readouterr()
    assert "overall: fail" in captured.out and "density_match" in captured.out
    assert "error" not in captured.err


def test_construct_rejects_inadmissible(tmp_path, capsys):
    grid = cube(24)
    g = gaussian_values(grid, width=1.5)
    field = field_from_arrays(grid, g, g, 1.001 * g)
    path = tmp_path / "bad.spdf"
    sr.write_spdf(path, field)
    assert main(["construct", str(path), "--out", str(tmp_path / "w")]) == 1
    assert "error:" in capsys.readouterr().err


def test_construct_tol_neg_admits_a_shallow_dip(tmp_path, capsys):
    r = dipped(mixture(48), 1e-8)
    path = tmp_path / "dip.spdf"
    sr.write_spdf(path, r)
    assert main(["construct", str(path), "--out", str(tmp_path / "w0")]) == 1
    assert "[admissibility]" in capsys.readouterr().err
    tol_neg = repr(1e-7 * r.scale)
    assert main(["construct", str(path), "--out", str(tmp_path / "w1"), "--tol-neg", tol_neg]) == 0
    assert len(sr.read_witness(tmp_path / "w1").branches) == 2


TOLERANCES = ("--tol-neg", "--tol-norm", "--floor")
# subcommand -> (arguments after the input file, the tolerance flags it reads)
TOLERANCE_READERS = {
    "check": ([], TOLERANCES),
    "sqrt": ([], ("--tol-neg",)),
    "eigs": ([], ("--tol-neg",)),
    "construct": ([], TOLERANCES),
    "verify": (["witness"], ("--floor",)),
}
BAD_ARGUMENTS = [
    ["gen", "--n-electrons", "2", "--grid", "3"],
    ["gen", "--n-electrons", "2", "--box", "8", "-8"],
    ["gen", "--n-electrons", "0"],
    *([command, *args, option, value]
      for command, (args, reads) in TOLERANCE_READERS.items()
      for option in reads
      for value in ("0", "-1")),
]
# a tolerance flag the subcommand does not read is an unknown option, whatever its value
UNREAD_TOLERANCES = [
    [command, *args, option, value]
    for command, (args, reads) in TOLERANCE_READERS.items()
    for option in TOLERANCES if option not in reads
    for value in ("0", "-1")
]


@pytest.mark.parametrize("argv", BAD_ARGUMENTS + UNREAD_TOLERANCES, ids=" ".join)
def test_bad_arguments_are_usage_errors(tmp_path, capsys, argv):
    # exit 2 before the input is read or any output is written
    command, *rest = argv
    path = tmp_path / "field.spdf"
    inputs = []
    if command != "gen":
        sr.write_spdf(path, sr.gaussian_diagonal(cube(24), 2))
        inputs = [str(path)]
    outputs = ["--out", str(tmp_path / "out")] if command in ("gen", "sqrt", "construct") else []
    with pytest.raises(SystemExit) as exc:
        main([command, *inputs, *rest, *outputs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert ("unrecognized arguments" in err) == (argv in UNREAD_TOLERANCES)
    if argv not in UNREAD_TOLERANCES:
        # found after parsing, and reported with the subcommand's usage line
        assert err.startswith(f"usage: spinrep {command} ")
    assert list(tmp_path.iterdir()) == ([path] if inputs else [])


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    action, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# tolerance flag -> (ToleranceConfig method that reads it, field it sets)
TOLERANCE_METHODS = {"--tol-neg": ("neg_tol", "neg_abs"), "--tol-norm": ("norm_tol", "norm_abs"),
                     "--floor": ("floor", "floor_abs")}
ACCEPTED_TOLERANCES = [
    (command, option)
    for command, parser in _subparsers().items()
    for action in parser._actions
    for option in action.option_strings if option in TOLERANCE_METHODS
]


@pytest.mark.parametrize("command, option", ACCEPTED_TOLERANCES,
                         ids=[" ".join(pair) for pair in ACCEPTED_TOLERANCES])
def test_every_accepted_tolerance_is_read(tmp_path, monkeypatch, capsys, command, option):
    method, field = TOLERANCE_METHODS[option]
    read = []
    original = getattr(sr.ToleranceConfig, method)

    def spy(self, scale):
        if getattr(self, field) is not None:
            read.append(scale)
        return original(self, scale)

    monkeypatch.setattr(sr.ToleranceConfig, method, spy)
    path = gen(tmp_path)
    inputs = [str(path)]
    if command == "verify":
        # a one-orbital witness of the rank-1 density it was made from
        grid = cube(24)
        psi_up, psi_dn = sr.gaussian_spinor(grid, width_up=1.5, spin_fraction=0.6)
        sr.write_spdf(path, sr.rank1_from_orbital(psi_up, psi_dn, 1))
        orbs = sr.OrbitalSet(grid=grid, orbitals=(sr.Spinor(psi_up, psi_dn),))
        wdir = tmp_path / "witness"
        sr.write_witness(wdir, sr.Witness(grid, 1, (sr.WitnessBranch(1.0, orbs),)))
        inputs.insert(0, str(wdir))
    outputs = ["--out", str(tmp_path / "out")] if command in ("sqrt", "construct") else []
    main([command, *inputs, option, "1e-9", *outputs])
    assert read, f"{command} accepts {option} but never reads it"


def test_check_refined_compares_two_grids(tmp_path, capsys):
    coarse, fine = tmp_path / "c.spdf", tmp_path / "f.spdf"
    sr.write_spdf(coarse, sr.gaussian_diagonal(cube(32), 2))
    sr.write_spdf(fine, sr.gaussian_diagonal(cube(48), 2))
    report = tmp_path / "report.txt"
    assert main(["check", str(coarse), "--refined", str(fine), "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert report.read_text() == out
    assert "refined_value" in out and "change" in out


def test_check_refined_must_refine_the_input(tmp_path, capsys):
    coarse = tmp_path / "c.spdf"
    sr.write_spdf(coarse, sr.gaussian_diagonal(cube(24), 2))
    fine = {
        "same box": sr.gaussian_diagonal(cube(32, 9.0), 2),
        "same n_electrons": sr.gaussian_diagonal(cube(32), 3),
        "strictly finer": sr.gaussian_diagonal(sr.Grid3((32, 24, 32), cube(24).box), 2),
    }
    for message, field in fine.items():
        path = tmp_path / "f.spdf"
        sr.write_spdf(path, field)
        report = tmp_path / "report.txt"
        assert main(["check", str(coarse), "--refined", str(path), "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and str(path) in captured.err
        assert captured.out == "" and not report.exists()


@pytest.mark.traced
def test_check_refined_on_another_box_reads_only_the_headers(tmp_path, capsys):
    coarse, fine = tmp_path / "c.spdf", tmp_path / "f.spdf"
    sr.write_spdf(coarse, sr.gaussian_diagonal(cube(64), 2))
    sr.write_spdf(fine, sr.gaussian_diagonal(cube(96, 9.0), 2))
    tracemalloc.start()
    try:
        code = main(["check", str(coarse), "--refined", str(fine)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1_000_000  # a 64^3 grid alone is 2 MB
    assert capsys.readouterr().err == (
        f"error: {fine}: refined field must cover the same box\n")


# (family, gen flag) pairs whose flag the family's generator does not take
UNREAD_GEN_FLAGS = [("gaussian", "--width-dn"), ("gaussian", "--spin-fraction"),
                    ("gaussian", "--coupling"), ("gaussian", "--phase-gradient"),
                    ("rank1", "--coupling")]


@pytest.mark.parametrize("family, flag", UNREAD_GEN_FLAGS,
                         ids=[" ".join(pair) for pair in UNREAD_GEN_FLAGS])
def test_gen_rejects_a_flag_its_family_does_not_read(tmp_path, capsys, family, flag):
    out = tmp_path / "field.spdf"
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", family, "--n-electrons", "2", flag, "0.5", "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spinrep gen ") and f"does not read {flag}" in err
    assert not out.exists()


def _readme_commands() -> list[list[str]]:
    """argv of each ``spinrep`` line in the README's command-line block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("spinrep ")]


def test_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands
    for argv in commands:
        assert main(argv) == 0, argv


def test_missing_input_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.spdf")]) == 2
    assert main(["verify", str(tmp_path / "nodir"), str(tmp_path / "no.spdf")]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_file_exit_2(tmp_path, capsys):
    path = tmp_path / "junk.spdf"
    path.write_bytes(b"not a density\n")
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_directory_as_input_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_plain_file_as_witness_exit_2(tmp_path, capsys):
    path = gen(tmp_path)
    assert main(["verify", str(path), str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_directory_as_report_exit_2(tmp_path, capsys):
    path = gen(tmp_path)
    capsys.readouterr()
    assert main(["check", str(path), "--report", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_non_ascii_manifest_exit_2(tmp_path, capsys):
    path = gen(tmp_path)
    witness = tmp_path / "w"
    witness.mkdir()
    (witness / "witness.txt").write_bytes("witness 1\ngrid 24 24 24 é\n".encode("utf-8"))
    assert main(["verify", str(witness), str(path)]) == 2
    assert "not ascii" in capsys.readouterr().err


def test_bad_usage_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--family", "plane-wave", "--n-electrons", "2", "--out", "x"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_gen_boundary_guard_exit_2(tmp_path, capsys):
    code = main(["gen", "--n-electrons", "2", "--width", "5.0", "--grid", "24",
                 "--out", str(tmp_path / "wide.spdf")])
    assert code == 2
    assert "outside the box" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "spinrep" in capsys.readouterr().out


def test_construct_refuses_non_orthonormal_orbitals(tmp_path, capsys):
    # N = 3 at 48^3 lies outside the construction's envelope (Gram deviation ~3.5e-2)
    path = tmp_path / "mix3.spdf"
    assert main(["gen", *MIXTURE, "--n-electrons", "3", "--out", str(path)]) == 0
    wdir = tmp_path / "witness"
    assert main(["construct", str(path), "--out", str(wdir)]) == 1
    assert "[orbitals]" in capsys.readouterr().err
    assert not wdir.exists()
