import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinrep as sr
from spinrep import fields
from spinrep.check import _keeping_root, _sqrt_clipped
from spinrep.decompose import cutoff
from spinrep.tolerances import DEFAULT, DEGENERATE_WEIGHT

from _helpers import (
    cube,
    dipped,
    field_from_arrays,
    gaussian_values,
    gram_gate,
    max_abs_diff,
    mixture,
    recombined,
    symmetric_rank1,
)
from test_witness_golden import FIELDS


# -- cutoff --------------------------------------------------------------------


def test_cutoff_plateaus():
    assert cutoff(0.5) == 0.0
    assert cutoff(0.1) == 0.0
    assert cutoff(2.0) == 1.0
    assert cutoff(100.0) == 1.0
    assert cutoff(np.inf) == 1.0


def test_cutoff_midpoint():
    # quintic smoothstep hits 1/2 at the middle of the transition window
    np.testing.assert_allclose(cutoff(1.25), 0.5, rtol=1e-14)


def test_cutoff_vectorized():
    u = np.array([0.0, 0.5, 1.25, 2.0, np.inf])
    np.testing.assert_allclose(cutoff(u), [0.0, 0.0, 0.5, 1.0, 1.0], atol=1e-14)


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.0, 3.0), b=st.floats(0.0, 3.0))
def test_cutoff_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert cutoff(lo) <= cutoff(hi) + 1e-15
    assert 0.0 <= cutoff(a) <= 1.0


# -- rank-1 split ----------------------------------------------------------------


def test_rank1_split_recombines(mixture32):
    split = sr.rank1_split(mixture32)
    pairs = list(split.pairs())
    assert len(pairs) == 2
    back = recombined(pairs)
    assert max_abs_diff(back, mixture32) <= 1e-12 * mixture32.scale


def test_rank1_split_pieces_are_null_det(mixture32):
    split = sr.rank1_split(mixture32)
    for _, piece in split.pairs():
        det = sr.det_field(piece).values
        assert np.max(np.abs(det)) <= 1e-13 * piece.scale**2


def test_rank1_split_pieces_are_admissible(mixture32):
    for _, piece in sr.rank1_split(mixture32).pairs():
        assert sr.check(piece).passed


def test_rank1_split_weight_is_up_fraction(mixture32):
    split = sr.rank1_split(mixture32)
    expect = sr.integrate(mixture32.rho_up) / 2.0
    np.testing.assert_allclose(split.weight, expect, rtol=1e-10)


def test_rank1_split_pieces_renormalized(mixture32):
    for _, piece in sr.rank1_split(mixture32).pairs():
        np.testing.assert_allclose(sr.trace_integral(piece), 2.0, rtol=1e-9)


def test_rank1_split_degenerates_on_polarized(grid32):
    # fully up-polarized: the down piece carries no weight
    g = 2.0 * gaussian_values(grid32)
    r = field_from_arrays(grid32, g, np.zeros_like(g),
                          np.zeros_like(g, dtype=complex))
    split = sr.rank1_split(r)
    assert split.weight == 1.0
    assert split.piece_two is None
    assert max_abs_diff(split.piece_one, r) <= 1e-12 * r.scale


def test_rank1_split_rejects_non_psd(grid32):
    g = gaussian_values(grid32)
    r = field_from_arrays(grid32, g, g.copy(), (1.01 * g).astype(complex))
    with pytest.raises(sr.NotPositiveSemidefiniteError):
        sr.rank1_split(r)


# -- ratio split -----------------------------------------------------------------


def test_ratio_split_uniform_ratio_weight(rank1_32):
    # symmetric field: ratio = 1 everywhere, weight = chi(1)^2 = (17/81)^2
    split = sr.ratio_split(rank1_32)
    np.testing.assert_allclose(split.weight, (17.0 / 81.0) ** 2, rtol=1e-10)


def test_ratio_split_recombines(rank1_32):
    split = sr.ratio_split(rank1_32)
    back = recombined(split.pairs())
    assert max_abs_diff(back, rank1_32) <= 1e-12 * rank1_32.scale


def test_ratio_split_pieces_satisfy_hypotheses(rank1_32):
    split = sr.ratio_split(rank1_32)
    floor = 1e-12 * rank1_32.scale
    # piece_one is the swap slot: it must satisfy rho_dn <= 2 rho_up
    p1 = split.piece_one
    live = p1.rho_total.values >= floor
    assert np.max((p1.rho_dn.values - 2.0 * p1.rho_up.values)[live]) <= floor
    # piece_two can be built directly: rho_up <= 2 rho_dn
    p2 = split.piece_two
    live = p2.rho_total.values >= floor
    assert np.max((p2.rho_up.values - 2.0 * p2.rho_dn.values)[live]) <= floor


def test_ratio_split_pieces_are_admissible(rank1_32):
    for _, piece in sr.ratio_split(rank1_32).pairs():
        assert sr.check(piece).passed


def test_ratio_split_degenerate_down_only(grid32):
    g = 2.0 * gaussian_values(grid32)
    r = field_from_arrays(grid32, np.zeros_like(g), g,
                          np.zeros_like(g, dtype=complex))
    split = sr.ratio_split(r)
    assert split.weight == 0.0
    assert split.piece_one is None
    assert max_abs_diff(split.piece_two, r) <= 1e-12 * r.scale


def test_ratio_split_degenerate_up_only(grid32):
    g = 2.0 * gaussian_values(grid32)
    r = field_from_arrays(grid32, g, np.zeros_like(g),
                          np.zeros_like(g, dtype=complex))
    split = sr.ratio_split(r)
    assert split.weight == 1.0
    assert split.piece_two is None
    assert max_abs_diff(split.piece_one, r) <= 1e-12 * r.scale


def test_ratio_split_requires_null_det(mixture32):
    with pytest.raises(sr.NullDeterminantError):
        sr.ratio_split(mixture32)


# -- full pipeline -----------------------------------------------------------------


def test_witness_polarized_rank1_single_branch(grid32):
    # fully up-polarized pure state: one branch of weight 1, built via swap
    g = gaussian_values(grid32)
    psi = sr.ComplexField(grid32, np.sqrt(g).astype(complex))
    zero = sr.ComplexField(grid32, np.zeros(grid32.dims, dtype=np.complex128))
    r = sr.rank1_from_orbital(psi, zero, 1)
    w = sr.construct_witness(r)
    assert len(w.branches) == 1
    assert w.branches[0].weight == 1.0
    assert w.branches[0].swapped
    assert max_abs_diff(sr.density_of(w), r) <= 1e-12 * r.scale


def test_witness_symmetric_mixture_two_branches(mixture48):
    w = sr.construct_witness(mixture48)
    assert len(w.branches) == 2
    np.testing.assert_allclose(sorted(b.weight for b in w.branches), [0.5, 0.5],
                               atol=1e-10)
    assert sorted(b.swapped for b in w.branches) == [False, True]
    assert sum(b.weight for b in w.branches) == 1.0
    assert max_abs_diff(sr.density_of(w), mixture48) <= 1e-10 * mixture48.scale


def test_witness_asymmetric_mixture_four_branches():
    r = mixture(48, half=10.0, coupling=0.9, width_up=1.3, width_dn=2.2)
    # the cutoff-windowed pieces are only piecewise smooth: their orbitals miss
    # orthonormality at the default GRAM_TOL on this grid, so construct refuses
    with pytest.raises(sr.PipelineError) as exc:
        sr.construct_witness(r)
    assert exc.value.stage == "orbitals"
    # a stronger coupling gives four branches whose Gram deviations (<= 7.2e-4)
    # pass a looser gate: the four-branch assembly itself
    r = mixture(48, half=10.0, coupling=0.97, width_up=1.2, width_dn=2.2)
    with gram_gate(1e-3):
        w = sr.construct_witness(r)
    assert len(w.branches) == 4
    assert abs(sum(b.weight for b in w.branches) - 1.0) <= 1e-12
    assert all(b.weight > 0 for b in w.branches)
    rep = sr.verify(w, r)
    assert rep.mismatch <= 1e-8


def test_witness_branch_pieces_are_rank1(mixture48):
    w = sr.construct_witness(mixture48)
    for branch in w.branches:
        single = sr.Witness(grid=w.grid, n_electrons=w.n_electrons,
                            branches=(sr.WitnessBranch(1.0, branch.orbitals),))
        piece = sr.density_of(single)
        det = sr.det_field(piece).values
        assert np.max(np.abs(det)) <= 1e-10 * piece.scale**2


def test_witness_rejects_inadmissible(grid32):
    g = gaussian_values(grid32)
    r = field_from_arrays(grid32, g, g.copy(), (1.01 * g).astype(complex))
    with pytest.raises(sr.PipelineError) as err:
        sr.construct_witness(r)
    assert err.value.stage == "admissibility"


def test_negativity_override_reaches_check_and_rank1_split(mixture48):
    # 100 times deeper than the default negativity slack of 1e-10 max(rho)
    r = dipped(mixture48, 1e-8)
    with pytest.raises(sr.PipelineError) as err:
        sr.construct_witness(r)
    assert err.value.stage == "admissibility"
    with pytest.raises(sr.NotPositiveSemidefiniteError):
        sr.rank1_split(r)
    # the override passes check and, through sqrt_field, rank1_split
    tol = sr.ToleranceConfig(neg_abs=1e-7 * r.scale)
    w = sr.construct_witness(r, tol=tol)
    assert len(w.branches) == 2
    assert sr.verify(w, r, tol).verdict == "pass"


def test_refusal_keeps_its_cause(monkeypatch, mixture48):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(sr.decompose, "build_orbitals", fail)
    with pytest.raises(sr.PipelineError) as err:
        sr.construct_witness(mixture48)
    assert err.value.stage == "orbitals"
    assert isinstance(err.value.__cause__, ValueError)


def test_pipeline_error_carries_stage():
    err = sr.PipelineError("ratio_split", "boom")
    assert err.stage == "ratio_split"
    assert "ratio_split" in str(err)


@pytest.mark.parametrize("n_electrons", [1, 2, 3, 4])
def test_construct_never_emits_a_witness_verify_rejects(n_electrons):
    r = mixture(48, n_electrons=n_electrons)
    try:
        w = sr.construct_witness(r)
    except sr.PipelineError as exc:
        # N = 3 lands here today: its Gram deviation at 48^3 is about 3.5e-2
        assert exc.stage == "orbitals"
    else:
        assert sr.verify(w, r).passed


def construct_peak(r):
    """Traced allocation peak of construct_witness(r), in complex grids of r's grid."""
    r.rho_total  # cached on the caller's field before the measurement
    tracemalloc.start()
    try:
        try:
            result = sr.construct_witness(r)
        except sr.PipelineError as exc:
            result = exc
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (16 * r.grid.npoints), result


@pytest.mark.traced
def test_construct_holds_one_branch_beside_the_witness():
    # the witness is 3 complex grids (2 branches of a complex and a real base
    # component) and sqrt(R) 2 more; measured 6.3-6.5 on 1, 2 and 4 workers
    peak, w = construct_peak(mixture(48))
    assert len(w.branches) == 2
    assert peak <= 8


@pytest.mark.traced
def test_refused_construct_builds_no_orbitals():
    peak, exc = construct_peak(mixture(48, n_electrons=3))
    assert exc.stage == "orbitals"
    assert peak <= 11


@pytest.mark.traced
def test_kept_refusal_holds_no_orbitals():
    r = mixture(48, n_electrons=3)
    r.rho_total  # cached on the caller's field before the measurement
    tracemalloc.start()
    try:
        with pytest.raises(sr.PipelineError) as exc:
            sr.construct_witness(r)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc.value.stage == "orbitals"
    # one 48^3 complex grid is 1.8 MB; the orbitals of one branch are six
    assert held < 1.8e6


# -- the streamed route against the public one ------------------------------------


def public_route(r, tol=DEFAULT):
    """construct_witness by the public steps, each piece and sub-piece held whole."""
    if sr.check(r, tol).verdict != "pass":
        raise sr.PipelineError("admissibility", "refused")
    branches = []
    for outer, piece in sr.rank1_split(r, tol).pairs():
        try:
            second = sr.ratio_split(piece)
        except ValueError as exc:
            raise sr.PipelineError("ratio_split", str(exc)) from exc
        for needs_swap, (inner, sub) in zip((True, False), second.slots()):
            if sub is None or outer * inner < DEGENERATE_WEIGHT:
                continue
            try:
                orbs = sr.build_orbitals(sr.spin_swap(sub) if needs_swap else sub, tol=tol)
            except ValueError as exc:
                raise sr.PipelineError("orbitals", str(exc)) from exc
            if needs_swap:
                orbs = sr.exchange_components(orbs)
            branches.append(sr.WitnessBranch(outer * inner, orbs, needs_swap))
    return branches


def outcome(build):
    """Each branch's weight, flag, base and phase bytes and diagnostics, or the refusal."""
    try:
        branches = build()
    except sr.PipelineError as exc:
        return exc.stage, str(exc)
    out = []
    for b in branches:
        fam = b.orbitals.orbitals
        out.append((repr(b.weight), b.swapped, fam.axis, fam.ks, fam.exchanged,
                    fam.base_up.values.tobytes(), fam.base_dn.values.tobytes(),
                    fam.phase.tobytes(), repr(dict(b.orbitals.diagnostics))))
    return out


def odd_mixture():
    grid = sr.Grid3((45, 38, 51), (-8.0, -7.5, -8.5, 8.0, 7.5, 8.2))
    return sr.full_rank_mixture(grid, 2, coupling=0.6, width_up=1.5, width_dn=1.7,
                                phase_gradient=0.6)


ROUTE_FIELDS = {**FIELDS, "odd45x38x51": odd_mixture,
                "refused48_n3": lambda: mixture(48, n_electrons=3)}


@pytest.fixture(scope="module")
def route_fields():
    return {}


@pytest.mark.parametrize("name", ROUTE_FIELDS)
@pytest.mark.parametrize("rows", [None, 1, 3], ids=["default", "1row", "3rows"])
@pytest.mark.parametrize("workers", [1, 2, 3], ids=lambda w: f"{w}w")
def test_streamed_construct_matches_the_public_route(monkeypatch, route_fields, name, rows,
                                                     workers):
    if name not in route_fields:
        route_fields[name] = ROUTE_FIELDS[name]()
    r = route_fields[name]
    row = r.grid.dims[1] * r.grid.dims[2]
    if rows is not None:
        monkeypatch.setattr(fields, "_SLAB_BYTES", 8 * rows * row)
    monkeypatch.setattr(fields, "_cpus", lambda: workers)
    got = outcome(lambda: sr.construct_witness(r).branches)
    assert got == outcome(lambda: public_route(r))
    assert (got[0] == "orbitals") == (name == "refused48_n3")


def test_construct_forms_det_once(monkeypatch, mixture48):
    """The square root takes sqrt(det R) from the check: one det pass, one PSD test."""
    check_module = importlib.import_module("spinrep.check")
    psd, calls = check_module._psd_conditions, []
    for module in (check_module, sr.sqrtm):
        monkeypatch.setattr(module, "_psd_conditions",
                            lambda *a, name=module.__name__: calls.append(name) or psd(*a))
    sr.construct_witness(mixture48)
    assert calls == ["spinrep.check"]


def test_check_hands_over_sqrt_det_only_without_a_refined_field(diagonal32):
    with _keeping_root() as root:
        report = sr.check(diagonal32)
    assert report.to_text() == sr.check(diagonal32).to_text()
    assert [a.tobytes() for a in root] == [
        _sqrt_clipped(sr.det_field(diagonal32).values).tobytes()]
    with _keeping_root() as root:
        sr.check(diagonal32, refined=sr.gaussian_diagonal(cube(48), 2))
    assert root == []
