"""``check`` is equivariant under the symmetries of the cube grid and under sigma -> conj(sigma).

An axis permutation and mirrors of the sampled arrays map a field on the
symmetric box onto another field on the same grid, and conjugating sigma
keeps every condition's value: the answer to the first question cannot
depend on how the field is oriented.  Only the summation order of the
integrals moves, so every value agrees to rounding, and the worst point of
conditions (a) and (b) moves with the field.
"""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinrep as sr

from _helpers import field_from_arrays, mixture, symmetric_rank1

REL = 1e-12


@functools.cache
def sample(name):
    return {"mixture": mixture, "symmetric_rank1": symmetric_rank1}[name](32)


def transformed(r, perm, mirrors, conj):
    """``r`` with its axes permuted by ``perm``, then the new axes flagged in ``mirrors`` reversed."""
    flip = tuple(ax for ax in range(3) if mirrors[ax])

    def move(a):
        return np.ascontiguousarray(np.flip(np.transpose(a, perm), flip))

    sigma = move(r.sigma.values)
    return field_from_arrays(r.grid, move(r.rho_up.values), move(r.rho_dn.values),
                             np.conj(sigma) if conj else sigma, r.n_electrons)


def moved(loc, dims, perm, mirrors):
    """Where grid index ``loc`` (or index arrays, one per axis) lands under :func:`transformed`."""
    return tuple(dims[ax] - 1 - loc[perm[ax]] if mirrors[ax] else loc[perm[ax]]
                 for ax in range(3))


def worst_values(r, name):
    """The pointwise values whose minimum condition ``name`` reports."""
    if name == "rho_nonneg":
        return np.minimum(r.rho_up.values, r.rho_dn.values)
    return sr.det_field(r).values


def assert_close(got, want, tol, what):
    assert abs(got - want) <= tol, (what, got, want)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["mixture", "symmetric_rank1"]),
       perm=st.sampled_from(list(itertools.permutations(range(3)))),
       mirrors=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       conj=st.booleans())
def test_check_is_equivariant(name, perm, mirrors, conj):
    r = sample(name)
    dims = r.grid.dims
    want, got = sr.check(r), sr.check(transformed(r, perm, mirrors, conj))
    assert got.verdict == want.verdict
    assert got.boundary_warning == want.boundary_warning
    assert_close(got.boundary_value, want.boundary_value, REL * abs(want.boundary_value),
                 "boundary_value")
    for g, w in zip(got.conditions, want.conditions, strict=True):
        assert (g.name, g.verdict) == (w.name, w.verdict)
        assert_close(g.value, w.value, REL * abs(w.value), w.name)
        assert g.details.keys() == w.details.keys()
        for key, wv in w.details.items():
            gv = g.details[key]
            if key == "worst_location":
                # the pointwise values move exactly; of the worst points that
                # tie (mirror images on these fields) argmin reports the first
                ties = np.nonzero(worst_values(r, w.name) == w.value)
                first = np.ravel_multi_index(moved(ties, dims, perm, mirrors), dims).min()
                assert gv == np.unravel_index(first, dims), w.name
            elif key == "deviation":
                # |integral - N| is a cancellation: its rounding scales with N
                assert_close(gv, wv, REL * r.n_electrons, key)
            elif isinstance(wv, float):
                assert_close(gv, wv, REL * abs(wv), f"{w.name}.{key}")
            else:  # point counts and status lines
                assert gv == wv, (w.name, key)
