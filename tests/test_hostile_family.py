"""A format-2 witness whose family is hostile still gets a failing report.

Each case edits one family of a constructed witness: a NaN or an infinite
entry in its base or its phase line, a k-set with a repeated or an aliasing
k, or a phase line that is not monotone.  ``verify`` must report failing
checks and ``spinrep verify`` exit 1 with the report and nothing on stderr,
and no step may warn on the way, as ``test_inf.py`` asks of explicit
witnesses.
"""

from dataclasses import replace

import numpy as np
import pytest

import spinrep as sr
from spinrep.cli import main

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

INDEX = (24, 23, 25)


@pytest.fixture(scope="module")
def built(mixture48):
    return mixture48, sr.construct_witness(mixture48)


def with_value(field, value, imag=False):
    v = field.values.copy()
    v[INDEX] = complex(v[INDEX].real, value) if imag else value
    return type(field)(field.grid, v)


def with_phase(fam, value):
    f = fam.phase.copy()
    f[len(f) // 2] = value
    return replace(fam, phase=f)


def non_monotone(fam):
    x = np.linspace(0.0, 1.0, fam.phase.size)
    return replace(fam, phase=fam.phase + 0.4 * np.sin(6.0 * np.pi * x))


EDITS = {
    "base-up-nan": lambda fam: replace(fam, base_up=with_value(fam.base_up, np.nan)),
    "base-up-inf-imag": lambda fam: replace(fam, base_up=with_value(fam.base_up, np.inf, True)),
    "base-dn-inf": lambda fam: replace(fam, base_dn=with_value(fam.base_dn, np.inf)),
    "base-dn-minus-inf": lambda fam: replace(fam, base_dn=with_value(fam.base_dn, -np.inf)),
    "phase-nan": lambda fam: with_phase(fam, np.nan),
    "phase-inf": lambda fam: with_phase(fam, np.inf),
    "phase-minus-inf": lambda fam: with_phase(fam, -np.inf),
    "ks-repeated": lambda fam: replace(fam, ks=(fam.ks[0],) * len(fam.ks)),
    "ks-aliasing": lambda fam: replace(fam, ks=(fam.ks[0], 10**6 + 1)),
    "phase-not-monotone": non_monotone,
}


def edited(w, edit, branch=1):
    b = w.branches[branch]
    fam = edit(b.orbitals.orbitals)
    new = replace(b, orbitals=replace(b.orbitals, orbitals=fam))
    return sr.Witness(w.grid, w.n_electrons, w.branches[:branch] + (new,) + w.branches[branch + 1:])


@pytest.mark.parametrize("edit", list(EDITS))
def test_hostile_family_fails_verify_with_a_report(built, tmp_path, capsys, edit):
    r, w = built
    bad = edited(w, EDITS[edit])
    report = sr.verify(bad, r)
    assert report.verdict == "fail"
    assert report["weight_sum"].passed
    sr.occupation_spectrum(bad)
    target, wdir = tmp_path / "target.spdf", tmp_path / "w"
    sr.write_spdf(target, r)
    sr.write_witness(wdir, bad)
    capsys.readouterr()
    assert main(["verify", str(wdir), str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == report.to_text() and captured.err == ""


def test_a_repeated_k_is_named_by_branch_and_pair(built):
    r, w = built
    gram = sr.verify(edited(w, EDITS["ks-repeated"]), r)["orbital_gram"]
    assert gram.verdict == "fail"
    assert gram.details["worst_branch"] == 1 and gram.details["worst_pair"] == (0, 1)


def test_a_k_beyond_float_range_is_refused_by_name(built, tmp_path, capsys):
    r, w = built
    target, wdir = tmp_path / "target.spdf", tmp_path / "w"
    sr.write_spdf(target, r)
    sr.write_witness(wdir, w)
    manifest = wdir / "witness.txt"
    manifest.write_text(manifest.read_text().replace(" 1 2\n", f" 1 {10**400}\n", 1))
    with pytest.raises(ValueError, match="at most 2\\^53"):
        sr.read_witness(wdir)
    capsys.readouterr()
    assert main(["verify", str(wdir), str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:") and "2^53" in captured.err
