"""Command-line interface.

Exit codes: 0 — requested operation ran and every performed check passed;
1 — the operation ran but a check failed (or could not certify);
2 — usage, IO or format errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .check import _require_refines, check
from .decompose import PipelineError, construct_witness
from .fields import ComplexField, Grid3, frozen, integrate
from .generators import (
    GeneratorError,
    full_rank_mixture,
    gaussian_diagonal,
    gaussian_spinor,
    rank1_from_orbital,
)
from .io import (
    SpdfFormatError,
    WitnessFormatError,
    _spdf_header,
    _spdf_payload,
    read_spdf,
    read_witness,
    write_spdf,
    write_witness,
)
from .sqrtm import NotPositiveSemidefiniteError, eigen_densities, sqrt_field
from .spin_density import SpinDensityField, trace_integral
from .tolerances import ToleranceConfig
from .witness import verify


# the generator parameters each family reads; a flag left unset takes the
# generator's own default
GENERATOR_FLAGS = ("width", "width_dn", "spin_fraction", "coupling", "phase_gradient")
FAMILY_FLAGS = {
    "gaussian": ("width",),
    "rank1": ("width", "width_dn", "spin_fraction", "phase_gradient"),
    "mixture": GENERATOR_FLAGS,
}

TOLERANCE_FLAGS = {
    "--tol-neg": ("T", "absolute negativity tolerance (default 1e-10 x max rho)"),
    "--tol-norm": ("T", "absolute normalization tolerance (default 1e-6 per electron)"),
    "--floor": ("F", "absolute density floor for /rho integrands (default 1e-12 x max rho)"),
}


def _add_tol_args(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        metavar, help_text = TOLERANCE_FLAGS[flag]
        p.add_argument(flag, type=float, default=None, metavar=metavar, help=help_text)


def _tolerances(args):
    return ToleranceConfig(
        neg_abs=getattr(args, "tol_neg", None),
        norm_abs=getattr(args, "tol_norm", None),
        floor_abs=getattr(args, "floor", None),
    )


def _cubic_grid(args) -> Grid3:
    lo, hi = args.box
    return Grid3((args.grid,) * 3, (lo, lo, lo, hi, hi, hi))


def _require_gen_args(args) -> None:
    """Raise ValueError on a grid Grid3 refuses, N below 1 or a flag the family does not read."""
    _cubic_grid(args)
    if args.n_electrons < 1:
        raise ValueError(f"--n-electrons must be at least 1, got {args.n_electrons}")
    for name in GENERATOR_FLAGS:
        if getattr(args, name) is not None and name not in FAMILY_FLAGS[args.family]:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"--family {args.family} does not read {flag}")


def _generate(args) -> SpinDensityField:
    grid = _cubic_grid(args)
    kw = {name: getattr(args, name) for name in FAMILY_FLAGS[args.family]
          if getattr(args, name) is not None}
    if args.family == "gaussian":
        return gaussian_diagonal(grid, args.n_electrons, **kw)
    if "width" in kw:
        kw["width_up"] = kw.pop("width")
    if args.family == "rank1":
        return rank1_from_orbital(*gaussian_spinor(grid, **kw), args.n_electrons)
    return full_rank_mixture(grid, args.n_electrons, **kw)


def _emit(text: str, report_path: str | None) -> None:
    sys.stdout.write(text)
    if report_path:
        with open(report_path, "w", encoding="ascii") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    field = _generate(args)
    write_spdf(args.out, field)
    print(f"wrote {args.out}: family={args.family} n_electrons={field.n_electrons} "
          f"grid={args.grid}^3 trace={trace_integral(field):.12g}")
    return 0


def _cmd_check(args) -> int:
    if not args.refined:
        field, refined = read_spdf(args.input), None
    else:
        # each file is opened once, so either may be a pipe; the headers decide
        # whether the refined file can be this density on a finer grid
        with open(args.input, "rb") as coarse, open(args.refined, "rb") as fine:
            head, fine_head = _spdf_header(coarse), _spdf_header(fine)
            try:
                _require_refines(*head, *fine_head)
            except ValueError as exc:
                print(f"error: {args.refined}: {exc}", file=sys.stderr)
                return 2
            field, refined = _spdf_payload(coarse, *head), _spdf_payload(fine, *fine_head)
    report = check(field, _tolerances(args), refined=refined)
    _emit(report.to_text(), args.report)
    return 0 if report.passed else 1


def _cmd_sqrt(args) -> int:
    field = read_spdf(args.input)
    sq = sqrt_field(field, _tolerances(args))
    # reuse the container: blocks are r_up, r_dn, Re s, Im s
    out = SpinDensityField(
        rho_up=sq.r_up,
        rho_dn=sq.r_dn,
        sigma=sq.s,
        n_electrons=field.n_electrons,
    )
    write_spdf(args.out, out)
    print(f"wrote {args.out}: matrix square root entries (r_up, r_dn, s)")
    return 0


def _cmd_eigs(args) -> int:
    field = read_spdf(args.input)
    eig = eigen_densities(field, _tolerances(args))
    lines = [
        "report: eigs",
        f"rho_plus_integral: {integrate(eig.rho_plus):.12g}",
        f"rho_minus_integral: {integrate(eig.rho_minus):.12g}",
        f"rho_plus_max: {float(np.max(eig.rho_plus.values)):.12g}",
        f"rho_minus_max: {float(np.max(eig.rho_minus.values)):.12g}",
    ]
    _emit("\n".join(lines) + "\n", args.report)
    if args.out:
        zero = ComplexField(field.grid, frozen(np.zeros(field.grid.dims, dtype=np.complex128)))
        write_spdf(args.out, SpinDensityField(
            rho_up=eig.rho_plus, rho_dn=eig.rho_minus, sigma=zero,
            n_electrons=field.n_electrons,
        ))
    return 0


def _cmd_construct(args) -> int:
    field = read_spdf(args.input)
    witness = construct_witness(field, _tolerances(args))
    write_witness(args.out, witness)
    weights = " ".join(f"{b.weight:.6g}" for b in witness.branches)
    print(f"wrote {args.out}: {len(witness.branches)} branches, weights [{weights}]")
    return 0


def _cmd_verify(args) -> int:
    witness = read_witness(args.witness)
    target = read_spdf(args.target)
    report = verify(witness, target, _tolerances(args))
    _emit(report.to_text(), args.report)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinrep",
        description="check and explicitly represent 2x2 spin-density matrix fields",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an analytic density file")
    p.add_argument("--family", choices=tuple(FAMILY_FLAGS), default="gaussian")
    p.add_argument("--n-electrons", type=int, required=True)
    for name in GENERATOR_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--grid", type=int, default=64, metavar="N",
                   help="nodes per axis (default 64)")
    p.add_argument("--box", type=float, nargs=2, default=(-8.0, 8.0),
                   metavar=("LO", "HI"), help="cubic box bounds (default -8 8)")
    p.set_defaults(func=_cmd_gen, parser=p)

    p = sub.add_parser("check", help="run the admissibility check on a density file")
    p.add_argument("input")
    p.add_argument("--refined", default=None, metavar="FILE",
                   help="the same density on a finer grid; conditions (d)-(g) then "
                        "compare their norms across the two grids")
    p.add_argument("--report", default=None)
    _add_tol_args(p, *TOLERANCE_FLAGS)
    p.set_defaults(func=_cmd_check, parser=p)

    p = sub.add_parser("sqrt", help="pointwise matrix square root")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    _add_tol_args(p, "--tol-neg")
    p.set_defaults(func=_cmd_sqrt, parser=p)

    p = sub.add_parser("eigs", help="pointwise eigen densities")
    p.add_argument("input")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    _add_tol_args(p, "--tol-neg")
    p.set_defaults(func=_cmd_eigs, parser=p)

    p = sub.add_parser("construct", help="build an explicit representing mixed state")
    p.add_argument("input")
    p.add_argument("--out", required=True, help="output witness directory")
    _add_tol_args(p, *TOLERANCE_FLAGS)
    p.set_defaults(func=_cmd_construct, parser=p)

    p = sub.add_parser("verify", help="verify a witness against a density file")
    p.add_argument("witness", help="witness directory")
    p.add_argument("target", help="target density file")
    p.add_argument("--report", default=None)
    _add_tol_args(p, "--floor")
    p.set_defaults(func=_cmd_verify, parser=p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # usage errors, found before any file is read or written, reported
        # with the subcommand's usage line
        if args.command == "gen":
            _require_gen_args(args)
        _tolerances(args)
    except ValueError as exc:
        args.parser.error(str(exc))
    try:
        return args.func(args)
    except (SpdfFormatError, WitnessFormatError, GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a missing path, a directory where a file belongs, or the reverse
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveSemidefiniteError, PipelineError, ValueError) as exc:
        # input was read but cannot be certified / processed
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
