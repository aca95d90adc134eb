"""The three workloads: seeded inputs, the timed operation and its oracle.

Every workload builds one *cycle* of cases, one per input class, from the
seed.  The classes are fixed; the seed draws the continuous parameters
(widths, spin fractions, couplings, phase gradients, defect positions), so
runs with different seeds do the same kinds of work on different fields.

* ``admit`` — question 1 only: ``check`` on 96^3 fields, some as a
  64^3 -> 96^3 refined pair, half of them engineered to be inadmissible.
  Only the ``fields``, ``spin_density`` and ``check`` layers do work.
* ``represent`` — question 2 in memory: ``construct_witness`` -> ``verify``
  -> ``occupation_spectrum`` at 64^3 and 96^3, N = 1..4.  Cases outside the
  construction's envelope (N >= 3 at 64^3, rank-1 fields with unequal
  widths) stay in the stream and show up as silent bad witnesses.
* ``roundtrip`` — the CLI file flow: ``spinrep construct`` then
  ``spinrep verify`` on SPDF files written at set-up, run in-process through
  ``spinrep.cli.main``.
"""

from __future__ import annotations

import io
import os
import re
import shutil
import statistics
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import spinrep as sr
from spinrep import cli

from harness import MB, Case, Judgement
from reference import gaussian_h1, spectral_kinetic

HALF = 8.0  # every grid covers the box [-8, 8]^3


def cube(n: int) -> sr.Grid3:
    return sr.Grid3((n, n, n), (-HALF,) * 3 + (HALF,) * 3)


def fresh(r: sr.SpinDensityField) -> sr.SpinDensityField:
    """Same arrays, new container: drops the cached rho_total and scale."""
    return sr.SpinDensityField(r.rho_up, r.rho_dn, r.sigma, r.n_electrons)


def from_arrays(grid: sr.Grid3, up, dn, sigma, n: int) -> sr.SpinDensityField:
    return sr.SpinDensityField(
        sr.ScalarField(grid, up), sr.ScalarField(grid, dn), sr.ComplexField(grid, sigma), n)


def mixture_params(rng: np.random.Generator) -> dict:
    """Mixture parameters with one width for both spins.

    With equal widths and these couplings and spin fractions the spin ratio
    of each rank-1 piece stays on one side of the ratio cutoff, so the
    witness always has 2 branches and an op's cost does not jump with the
    seed.  Unequal widths are exercised by the rank-1 class of ``represent``.
    """
    width = rng.uniform(1.3, 1.6)
    return {
        "coupling": rng.uniform(0.3, 0.7),
        "width_up": width,
        "width_dn": width,
        "spin_fraction": rng.uniform(0.4, 0.6),
        "phase_gradient": rng.uniform(0.3, 0.9),
    }


def rank1_field(grid: sr.Grid3, n: int, p: dict) -> sr.SpinDensityField:
    up, dn = sr.gaussian_spinor(
        grid, width_up=p["width_up"], width_dn=p["width_dn"],
        spin_fraction=p["spin_fraction"], phase_gradient=p["phase_gradient"])
    return sr.rank1_from_orbital(up, dn, n)


def bump(grid: sr.Grid3, center, width: float) -> np.ndarray:
    x, y, z = grid.meshgrid()
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2
    return np.exp(-r2 / (width * width))


def point_at(rng: np.random.Generator, r_lo: float, r_hi: float) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d) * rng.uniform(r_lo, r_hi)


def jump_field(grid: sr.Grid3, n: int, x0: float, lo: float) -> sr.SpinDensityField:
    """Smooth total density whose up/down split jumps across the plane x = x0.

    sqrt(rho_up) and sqrt(rho_dn) jump there, so their H^1 seminorms grow
    like 1/h under refinement: a non-H^1 singularity (a cusp in the sense of
    condition (d)) that only the refined comparison can expose.
    """
    x, _, _ = grid.meshgrid()
    env = bump(grid, (0.0, 0.0, 0.0), 1.5)
    w = np.where(x < x0, lo, 1.0 - lo)
    up, dn = w * env, (1.0 - w) * env
    scale = n / float(sr.integrate_values(grid, up + dn))
    return from_arrays(grid, up * scale, dn * scale, np.zeros(grid.dims, complex), n)


class Admit:
    """Question 1: is the field admissible?  One ``check`` per op."""

    name = "admit"

    def __init__(self, coarse: int = 64, fine: int = 96):
        self.coarse, self.fine = coarse, fine

    def setup(self, rng: np.random.Generator, workdir: str) -> list[Case]:
        g, gc = cube(self.fine), cube(self.coarse)
        cases = []

        n, w = int(rng.integers(1, 5)), rng.uniform(1.0, 1.6)
        cases.append(Case("gaussian", (sr.gaussian_diagonal(g, n, width=w), None), "pass",
                          {"h1_exact": gaussian_h1(n, w)}))

        n, p = int(rng.integers(1, 5)), mixture_params(rng)
        cases.append(Case("mixture", (sr.full_rank_mixture(g, n, **p), None), "pass"))

        n, p = int(rng.integers(1, 5)), mixture_params(rng)
        cases.append(Case("rank1", (rank1_field(g, n, p), None), "pass"))

        n, p = int(rng.integers(1, 5)), mixture_params(rng)
        cases.append(Case("mixture_refined", (
            sr.full_rank_mixture(gc, n, **p), sr.full_rank_mixture(g, n, **p)), "pass"))

        # rho_dn dips below zero in the tail, two widths out
        n, p = int(rng.integers(1, 5)), mixture_params(rng)
        r = sr.full_rank_mixture(g, n, **p)
        dn = r.rho_dn.values - rng.uniform(0.05, 0.1) * float(np.max(r.rho_dn.values)) * bump(
            g, point_at(rng, 2.0, 3.0), 0.5)
        cases.append(Case("neg_dip", (from_arrays(g, r.rho_up.values, dn, r.sigma.values, n),
                                      None), "fail"))

        # |sigma|^2 > rho_up rho_dn on a patch: the coupling exceeds 1 there
        n, p = int(rng.integers(1, 5)), mixture_params(rng)
        r = sr.full_rank_mixture(g, n, **p)
        boost = 1.0 + rng.uniform(1.2, 2.0) / p["coupling"] * bump(g, point_at(rng, 0.0, 1.5), 0.6)
        cases.append(Case("det_patch", (from_arrays(
            g, r.rho_up.values, r.rho_dn.values, r.sigma.values * boost, n), None), "fail"))

        # mass off by about a percent
        n, p = int(rng.integers(1, 5)), mixture_params(rng)
        r = sr.full_rank_mixture(g, n, **p)
        s = 1.0 + rng.choice((-1.0, 1.0)) * rng.uniform(0.008, 0.012)
        cases.append(Case("mass_off", (from_arrays(
            g, s * r.rho_up.values, s * r.rho_dn.values, s * r.sigma.values, n), None), "fail"))

        n, x0, lo = int(rng.integers(1, 5)), rng.uniform(-0.5, 0.5), rng.uniform(0.15, 0.3)
        cases.append(Case("jump_refined", (jump_field(gc, n, x0, lo), jump_field(g, n, x0, lo)),
                          "fail"))
        return cases

    def prepare(self, case: Case):
        r, refined = case.payload
        return fresh(r), None if refined is None else fresh(refined)

    def op(self, prepared, stages):
        r, refined = prepared
        return stages("check", sr.check, r, sr.DEFAULT, refined)

    def judge(self, case: Case, prepared, report) -> Judgement:
        ok = report.verdict == case.expect
        detail = {"verdict": report.verdict, "expect": case.expect}
        if "h1_exact" in case.info:
            exact = case.info["h1_exact"]
            detail["h1_rel_err"] = abs(report["sqrt_rho_h1"].value - exact) / exact
        return Judgement(failed=not ok, wrong=not ok, detail=detail)

    def cleanup(self, case: Case, result) -> None:
        pass

    def field_of(self, case: Case) -> sr.SpinDensityField:
        return case.payload[0]

    def finish(self, records) -> dict:
        errs = [r.judgement.detail["h1_rel_err"] for r in records
                if "h1_rel_err" in r.judgement.detail]
        return {"h1_rel_err": max(errs)} if errs else {}


class Represent:
    """Question 2 in memory: construct, verify, occupation spectrum."""

    name = "represent"

    def __init__(self, small: int = 64, large: int = 96, reference: int = 64):
        self.reference = reference
        # (grid, family, N); an odd count of classes keeps the median in one class
        self.classes = (
            (small, "gaussian", 1), (small, "gaussian", 2), (small, "mixture", 2),
            (small, "rank1", 2), (small, "mixture", 3), (small, "mixture", 4),
            (large, "mixture", 2),
        )

    def setup(self, rng: np.random.Generator, workdir: str) -> list[Case]:
        cases = []
        for n_pts, family, n in self.classes:
            g = cube(n_pts)
            if family == "gaussian":
                r = sr.gaussian_diagonal(g, n, width=rng.uniform(1.2, 1.6))
            elif family == "mixture":
                r = sr.full_rank_mixture(g, n, **mixture_params(rng))
            else:  # unequal widths, spin fraction near 0.4: at the envelope's edge
                r = rank1_field(g, n, {
                    "width_up": rng.uniform(1.4, 1.6), "width_dn": rng.uniform(1.1, 1.3),
                    "spin_fraction": rng.uniform(0.35, 0.45),
                    "phase_gradient": rng.uniform(0.3, 0.9)})
            cases.append(Case(f"{n_pts}/{family}/N{n}", r))
        return cases

    def prepare(self, case: Case):
        return fresh(case.payload)

    def op(self, r, stages):
        try:
            w = stages("construct", sr.construct_witness, r)
        except sr.PipelineError as exc:
            return exc
        report = stages("verify", sr.verify, w, r)
        occ = stages("occupation", sr.occupation_spectrum, w)
        return w, report, occ

    def judge(self, case: Case, r, result) -> Judgement:
        if isinstance(result, sr.PipelineError):
            return Judgement(failed=True, detail={"refused": result.stage})
        w, report, occ = result
        detail = {"constructed": True, "verified": report.passed,
                  "branches": len(w.branches),
                  "materialised_bytes": len(w.branches) * w.n_electrons * 32 * w.grid.npoints}
        if not report.passed:
            detail["rejected_by"] = [c.name for c in report.checks if not c.passed]
            return Judgement(failed=True, silent_bad=True, detail=detail)
        # a witness verify passed must really reproduce the target
        mismatch = density_mismatch(w, r)
        occ_ok = bool(np.all(occ >= -1e-4) and np.all(occ <= 1.0 + 1e-4))
        detail.update({"oracle_mismatch": mismatch, "occupation_max": float(np.max(occ))})
        wrong = not (mismatch <= 1e-7 and occ_ok)
        return Judgement(failed=wrong, wrong=wrong, detail=detail)

    def cleanup(self, case: Case, result) -> None:
        pass

    def field_of(self, case: Case) -> sr.SpinDensityField:
        return case.payload

    def finish(self, records) -> dict:
        """kinetic_rel_err: the README example's kinetic energy against a spectral reference."""
        r = sr.full_rank_mixture(cube(self.reference), 2, coupling=0.5, width_up=1.5,
                                 phase_gradient=0.7)
        w = sr.construct_witness(r)
        stencil = sr.kinetic_energy(w)
        exact = spectral_kinetic(w)
        return {"kinetic_rel_err": abs(stencil - exact) / exact,
                "kinetic_stencil": stencil, "kinetic_spectral": exact}


def density_mismatch(w: sr.Witness, r: sr.SpinDensityField) -> float:
    """Relative L1 distance of the witness density from r, accumulated here."""
    up = np.zeros(r.grid.dims)
    dn = np.zeros(r.grid.dims)
    sg = np.zeros(r.grid.dims, complex)
    for b in w.branches:
        for o in b.orbitals.orbitals:
            u, d = o.up.values, o.dn.values
            up += b.weight * np.abs(u) ** 2
            dn += b.weight * np.abs(d) ** 2
            sg += b.weight * u * np.conj(d)
    wts = r.grid.weights
    l1 = (np.sum(wts * np.abs(up - r.rho_up.values)) + np.sum(wts * np.abs(dn - r.rho_dn.values))
          + 2.0 * np.sum(wts * np.abs(sg - r.sigma.values)))
    return float(l1) / r.n_electrons


def dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


class Roundtrip:
    """The CLI file flow: ``spinrep construct`` then ``spinrep verify``."""

    name = "roundtrip"

    def __init__(self, small: int = 64, mid: int = 80, large: int = 96):
        # (grid, N); 5 classes so the median stays in one class
        self.classes = ((small, 2), (small, 4), (small, 6), (mid, 2), (large, 2))

    def setup(self, rng: np.random.Generator, workdir: str) -> list[Case]:
        cases = []
        for i, (n_pts, n) in enumerate(self.classes):
            r = sr.full_rank_mixture(cube(n_pts), n, **mixture_params(rng))
            spdf = os.path.join(workdir, f"in{i}.spdf")
            sr.write_spdf(spdf, r)
            cases.append(Case(f"{n_pts}/mixture/N{n}",
                              (spdf, os.path.join(workdir, f"witness{i}"))))
        return cases

    def prepare(self, case: Case):
        return case.payload

    def op(self, paths, stages):
        spdf, wdir = paths
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(out):
            made = stages("construct", cli.main, ["construct", spdf, "--out", wdir],
                          span="cli.construct")
            if made != 0:
                return made, None, out.getvalue()
            if stages.memory:
                stages("read_witness", sr.read_witness, wdir)
            checked = stages("verify", cli.main, ["verify", wdir, spdf], span="cli.verify")
        return made, checked, out.getvalue()

    def judge(self, case: Case, paths, result) -> Judgement:
        spdf, wdir = paths
        made, checked, text = result
        has_witness = os.path.isfile(os.path.join(wdir, "witness.txt"))
        detail = {"exit_construct": made, "exit_verify": checked}
        if made != 0:
            # valid input: 1 is a refusal, and a refusal must leave no witness
            stage = re.search(r"error: \[(\w+)\]", text)
            if stage:
                detail["refused"] = stage.group(1)
            return Judgement(failed=True, wrong=made != 1 or has_witness, detail=detail)
        size = dir_bytes(wdir) if has_witness else 0
        detail.update({"witness_bytes": size, "bytes_written": size,
                       "bytes_read": 2 * os.path.getsize(spdf) + size})
        # README: 0 = every check passed, 1 = a check failed; the report must agree
        says_pass = "overall: pass" in text
        wrong = not has_witness or checked not in (0, 1) or says_pass != (checked == 0)
        return Judgement(failed=checked != 0, silent_bad=checked == 1, wrong=wrong,
                         detail=detail)

    def cleanup(self, case: Case, result) -> None:
        shutil.rmtree(case.payload[1], ignore_errors=True)

    def field_of(self, case: Case) -> sr.SpinDensityField:
        return sr.read_spdf(case.payload[0])

    def finish(self, records) -> dict:
        sizes = [r.judgement.detail["witness_bytes"] for r in records
                 if r.judgement.detail.get("witness_bytes")]
        return {"witness_mb": statistics.median(sizes) / MB} if sizes else {}


WORKLOADS = {w.name: w for w in (Admit, Represent, Roundtrip)}
