"""Witnesses from ``construct_witness``, compared bit for bit with stored digests.

``tests/data/witness_sha256.txt`` holds, for construct at 48^3 on a fixed
fixture set, the ``repr`` of every branch weight and the SHA-256 of every
orbital's bytes (up values, then dn values).  A change that moves any bit
of any orbital or weight fails here.  After a deliberate change of the
witness, regenerate the file with

    PYTHONPATH=src python tests/test_witness_golden.py --write

and say in the change log why the witness moved.

The digests were written by commit af51516, before construct was changed to
scale its split pieces in place and to wrap its arrays without copies, with
Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 on a 2-core x86-64 Intel Xeon.
Bit-level digests can change with the numpy version or the CPU's SIMD code
paths (``np.exp`` in particular); they have not been checked on the
dependency floors in ``pyproject.toml``.
"""

import hashlib
import os
import sys

import pytest

import spinrep as sr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _helpers import cube, mixture, symmetric_rank1  # noqa: E402

DIGEST_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "witness_sha256.txt"
)

FIELDS = {
    # width 1.4: at width 1.0 the N = 2 gaussian is refused at 48^3
    "gaussian48_n1": lambda: sr.gaussian_diagonal(cube(48), 1, width=1.4),
    "gaussian48_n2": lambda: sr.gaussian_diagonal(cube(48), 2, width=1.4),
    "mixture48_n2": lambda: mixture(48),
    "rank1_48_n2": lambda: symmetric_rank1(48),
}


def digest_lines(name: str, w=None) -> list[str]:
    """One line per branch (weight, swap flag) and one per orbital (SHA-256).

    Of the witness ``w`` of fixture ``name``; by default the one construct builds.
    """
    if w is None:
        w = sr.construct_witness(FIELDS[name]())
    lines = []
    for bi, branch in enumerate(w.branches):
        lines.append(f"{name} branch {bi} weight {branch.weight!r} swapped {int(branch.swapped)}")
        for oi, orb in enumerate(branch.orbitals.orbitals):
            h = hashlib.sha256(orb.up.values.tobytes())
            h.update(orb.dn.values.tobytes())
            lines.append(f"{name} branch {bi} orbital {oi + 1} {h.hexdigest()}")
    return lines


def _stored(name: str) -> list[str]:
    with open(DIGEST_FILE, encoding="ascii") as fh:
        return [ln.rstrip("\n") for ln in fh if ln.startswith(f"{name} ")]


@pytest.mark.parametrize("name", FIELDS)
def test_witness_matches_stored_digests(name):
    assert digest_lines(name) == _stored(name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_witness_golden.py --write")
    with open(DIGEST_FILE, "w", encoding="ascii") as fh:
        for field_name in FIELDS:
            fh.write("\n".join(digest_lines(field_name)) + "\n")
    print(f"wrote {DIGEST_FILE}")
