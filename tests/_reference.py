"""Former whole-array bodies of the witness path and the generators, kept once as references.

The blocked and shared implementations in ``spinrep`` must reproduce these
byte for byte (``test_shared_formulas.py``, ``test_witness_blocked.py``,
``test_generators_blocked.py``).
Each body is the code it replaced and none calls the function it stands
for, so a later change to that function is still compared with the old code.
"""

import math

import numpy as np

import spinrep as sr
from spinrep import orbitals as orbitals_module
from spinrep.decompose import cutoff
from spinrep.fields import frozen
from spinrep.tolerances import DEGENERATE_WEIGHT, NORM_REL, RATIO_REL, sqrt_floor

# -- overlaps -----------------------------------------------------------------


def ref_overlap_pairs(orbitals):
    """(i, j, <Phi_i | Phi_j>) for i <= j, row by row."""
    grid = orbitals[0].grid
    for i, a in enumerate(orbitals):
        for j in range(i, len(orbitals)):
            b = orbitals[j]
            yield i, j, sr.integrate_values(
                grid,
                np.conj(a.up.values) * b.up.values + np.conj(a.dn.values) * b.dn.values,
            )


def ref_overlaps(orbitals):
    n = len(orbitals)
    o = np.empty((n, n), dtype=np.complex128)
    for i, j, ov in ref_overlap_pairs(orbitals):
        o[i, j] = ov
        o[j, i] = np.conj(o[i, j])
    return o


def ref_gram_matrix(orbitals):
    n = len(orbitals)
    g = np.empty((n, n), dtype=np.complex128)
    for i, j, val in ref_overlap_pairs(orbitals):
        if i == j:
            val = complex(val.real, 0.0)
        g[i, j] = val
        g[j, i] = np.conj(val)
    return g


def ref_occupation_spectrum(w):
    entries = [(b.weight, orb) for b in w.branches for orb in b.orbitals.orbitals]
    m = len(entries)
    k = np.empty((m, m), dtype=np.complex128)
    roots = np.sqrt([max(p, 0.0) for p, _ in entries])
    for i, j, ov in ref_overlap_pairs([orb for _, orb in entries]):
        k[i, j] = roots[i] * roots[j] * ov
        k[j, i] = np.conj(k[i, j])
    return np.sort(np.linalg.eigvalsh(k))[::-1]


# -- density sums ----------------------------------------------------------------


def ref_density_sums(grid, weighted):
    up = np.zeros(grid.dims)
    dn = np.zeros(grid.dims)
    sg = np.zeros(grid.dims, dtype=np.complex128)
    for p, orb in weighted:
        u, d = orb.up.values, orb.dn.values
        up += p * (u.real * u.real + u.imag * u.imag)
        dn += p * (d.real * d.real + d.imag * d.imag)
        sg += p * (u * np.conj(d))
    return up, dn, sg


def ref_density_of(w):
    return ref_density_sums(w.grid, [(b.weight, orb) for b in w.branches
                                     for orb in b.orbitals.orbitals])


def ref_reconstruction_error(orbitals, r):
    # on finite data a weight of 1.0 changes at most the sign of a zero,
    # which the absolute deviations do not see
    up, dn, sg = ref_density_sums(r.grid, [(1.0, orb) for orb in orbitals])
    return max(
        float(np.max(np.abs(up - r.rho_up.values))),
        float(np.max(np.abs(dn - r.rho_dn.values))),
        float(np.max(np.abs(sg - r.sigma.values))),
    )


def ref_density_match(rec, target):
    grid = rec.grid
    return (
        sr.integrate_values(grid, np.abs(rec.rho_up.values - target.rho_up.values)),
        sr.integrate_values(grid, np.abs(rec.rho_dn.values - target.rho_dn.values)),
        sr.integrate_values(grid, np.abs(rec.sigma.values - target.sigma.values)),
    )


def ref_kinetic_by_spin(w):
    t_up = 0.0
    t_dn = 0.0
    for branch in w.branches:
        p = branch.weight
        for orb in branch.orbitals.orbitals:
            t_up += p * float(sr.integrate_values(
                w.grid, sr.grad_magnitude_sq(w.grid, orb.up.values)))
            t_dn += p * float(sr.integrate_values(
                w.grid, sr.grad_magnitude_sq(w.grid, orb.dn.values)))
    return t_up, t_dn


# -- orbitals -------------------------------------------------------------------


def ref_base_spinor(r):
    stats = {"null_det_violations": float(orbitals_module.require_null_determinant(r))}
    ratio_excess = r.rho_up.values - 2.0 * r.rho_dn.values
    worst = float(np.max(ratio_excess))
    if worst > RATIO_REL * r.scale:
        raise sr.RatioHypothesisError(worst)
    floor = sqrt_floor(r.scale)
    up = np.clip(r.rho_up.values, 0.0, None)
    dn = np.clip(r.rho_dn.values, 0.0, None)
    sqrt_dn = np.sqrt(dn)
    live = dn >= floor
    phi_up = np.zeros(r.grid.dims, dtype=np.complex128)
    np.divide(r.sigma.values, sqrt_dn, out=phi_up, where=live)
    nodal = ~live
    phi_up[nodal] = np.sqrt(up[nodal])
    stats["nodal_points"] = float(np.count_nonzero(nodal))
    stats["nodal_fallback_points"] = float(np.count_nonzero(nodal & (up >= floor)))
    return phi_up, sqrt_dn, stats


def ref_base_reconstruction_error(phi_up, sqrt_dn, r):
    up = phi_up.real * phi_up.real + phi_up.imag * phi_up.imag
    err = float(np.max(np.abs(up - r.rho_up.values)))
    err = max(err, float(np.max(np.abs(sqrt_dn * sqrt_dn - r.rho_dn.values))))
    return max(err, float(np.max(np.abs(phi_up * sqrt_dn - r.sigma.values))))


def ref_phase_gram_deviation(phi_up, sqrt_dn, phase, grid):
    base_sq = phi_up.real * phi_up.real + phi_up.imag * phi_up.imag
    base_sq += sqrt_dn * sqrt_dn
    ax = phase.axis
    mu = (grid.axis_weights[ax] * orbitals_module._transverse_marginal(grid, base_sq, ax)
          / phase.n_electrons)
    dev = abs(float(np.sum(mu)) - 1.0)
    for d in range(1, phase.n_electrons):
        dev = max(dev, float(abs(np.sum(mu * np.exp(2j * np.pi * d * phase.values)))))
    return dev


def ref_orbital_values(phi_up, sqrt_dn, phase, grid):
    ax, n = phase.axis, phase.n_electrons
    shape = [1, 1, 1]
    shape[ax] = grid.dims[ax]
    f = phase.values.reshape(shape)
    inv_sqrt_n = 1.0 / math.sqrt(n)
    out = []
    for k in range(1, n + 1):
        factor = np.exp(2j * np.pi * k * f) * inv_sqrt_n
        out.append((phi_up * factor, sqrt_dn * factor))
    return out


# -- square root and splits -------------------------------------------------------


def ref_sqrt_field(r):
    sq_det = np.sqrt(np.clip(sr.det_field(r).values, 0.0, None))
    up = np.clip(r.rho_up.values, 0.0, None)
    dn = np.clip(r.rho_dn.values, 0.0, None)
    denom = up + dn + 2.0 * sq_det
    floor = sqrt_floor(r.scale)
    mask = denom >= floor
    inv = np.zeros(r.grid.dims)
    np.divide(1.0, np.sqrt(denom, out=denom), out=inv, where=mask)
    del denom, mask
    for a in (up, dn):
        a += sq_det
        a *= inv
    return up, dn, r.sigma.values * inv


def ref_piece(parts, weight, template):
    inv = 1.0 / weight
    for a in parts:
        a *= inv  # rounds exactly as a * inv
    up, dn, sg = parts
    grid = template.grid
    return sr.SpinDensityField(
        rho_up=sr.ScalarField(grid, frozen(up)),
        rho_dn=sr.ScalarField(grid, frozen(dn)),
        sigma=sr.ComplexField(grid, frozen(sg)),
        n_electrons=template.n_electrons,
    )


def ref_weigh(up_one, dn_one, template):
    grid = template.grid
    t = float(sr.integrate_values(grid, up_one) + sr.integrate_values(grid, dn_one))
    t /= template.n_electrons
    if t < DEGENERATE_WEIGHT:
        return t, 0.0, False, True
    if t > 1.0 - DEGENERATE_WEIGHT:
        return t, 1.0, True, False
    return t, t, True, True


def ref_rank1_split(r):
    ru, rd, s = ref_sqrt_field(r)
    s2 = s.real * s.real + s.imag * s.imag
    uu = ru * ru
    t, weight, keep_one, keep_two = ref_weigh(uu, s2, r)
    one = two = None
    if keep_one:
        one = ref_piece((uu, s2.copy() if keep_two else s2, s * ru), t, r)
    del uu, ru
    if keep_two:
        two = ref_piece((s2, rd * rd, s * rd), 1.0 - t, r)
    return sr.SplitResult(weight, one, two)


def ref_ratio_split(r):
    orbitals_module.require_null_determinant(r)
    up = np.clip(r.rho_up.values, 0.0, None)
    dn = np.clip(r.rho_dn.values, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = up / dn
    ratio[np.isnan(ratio)] = 1.0
    w = cutoff(ratio) ** 2
    del ratio
    up_one, dn_one = w * up, w * dn
    t, weight, keep_one, keep_two = ref_weigh(up_one, dn_one, r)
    sg = r.sigma.values
    one = two = None
    if keep_one:
        one = ref_piece((up_one, dn_one, w * sg), t, r)
    del up_one, dn_one
    if keep_two:
        wc = np.subtract(1.0, w, out=w)
        two = ref_piece((wc * up, wc * dn, wc * sg), 1.0 - t, r)
    return sr.SplitResult(weight, one, two)


def build_fields(r):
    """The rank-1 fields construct_witness hands to build_orbitals, in its order."""
    out = []
    for outer, piece in sr.rank1_split(r).pairs():
        for needs_swap, (inner, sub) in zip((True, False), sr.ratio_split(piece).slots()):
            if sub is not None and outer * inner >= DEGENERATE_WEIGHT:
                out.append(sr.spin_swap(sub) if needs_swap else sub)
    return out


# -- generators ----------------------------------------------------------------


def _ref_center(grid):
    return tuple(0.5 * (grid.box[ax] + grid.box[3 + ax]) for ax in range(3))


def _ref_meshgrid(grid):
    """Three grid-sized coordinate copies, as ``Grid3.meshgrid`` once returned."""
    return np.meshgrid(*grid.axes, indexing="ij")


def ref_gaussian(grid, width):
    center = _ref_center(grid)
    x, y, z = _ref_meshgrid(grid)
    r2 = (x - center[0]) ** 2 + (y - center[1]) ** 2 + (z - center[2]) ** 2
    return (math.pi * width * width) ** -1.5 * np.exp(-r2 / (width * width))


def ref_gaussian_diagonal(grid, n_electrons, width=1.0):
    half = 0.5 * n_electrons * ref_gaussian(grid, width)
    return sr.SpinDensityField(
        rho_up=sr.ScalarField(grid, frozen(half)),
        rho_dn=sr.ScalarField(grid, half),
        sigma=sr.ComplexField(grid, frozen(np.zeros(grid.dims, dtype=np.complex128))),
        n_electrons=n_electrons,
    )


def ref_gaussian_spinor(grid, width_up=1.0, width_dn=None, spin_fraction=0.5,
                        phase_gradient=0.0):
    if width_dn is None:
        width_dn = width_up
    up = np.sqrt(spin_fraction * ref_gaussian(grid, width_up)).astype(np.complex128)
    if phase_gradient != 0.0:
        x = _ref_meshgrid(grid)[0]
        up = up * np.exp(1j * phase_gradient * (x - _ref_center(grid)[0]))
    dn = np.sqrt((1.0 - spin_fraction) * ref_gaussian(grid, width_dn)).astype(np.complex128)
    return sr.ComplexField(grid, frozen(up)), sr.ComplexField(grid, frozen(dn))


def ref_rank1_from_orbital(psi_up, psi_dn, n_electrons):
    grid = psi_up.grid
    u, d = psi_up.values, psi_dn.values
    up = u.real * u.real + u.imag * u.imag
    dn = d.real * d.real + d.imag * d.imag
    total = float(sr.integrate_values(grid, up + dn))
    if abs(total - 1.0) > NORM_REL:
        raise sr.GeneratorError(f"spinor is not normalized: integral = {total!r}")
    n = float(n_electrons)
    return sr.SpinDensityField(
        rho_up=sr.ScalarField(grid, frozen(n * up)),
        rho_dn=sr.ScalarField(grid, frozen(n * dn)),
        sigma=sr.ComplexField(grid, frozen(n * (u * np.conj(d)))),
        n_electrons=n_electrons,
    )


def ref_full_rank_mixture(grid, n_electrons, coupling=0.5, width_up=1.0, width_dn=None,
                          spin_fraction=0.5, phase_gradient=0.0):
    if width_dn is None:
        width_dn = width_up
    up = spin_fraction * n_electrons * ref_gaussian(grid, width_up)
    dn = (1.0 - spin_fraction) * n_electrons * ref_gaussian(grid, width_dn)
    if coupling == 0.0:
        sigma = np.zeros(grid.dims, dtype=np.complex128)
    else:
        sigma = (coupling * np.sqrt(up * dn)).astype(np.complex128)
        if phase_gradient != 0.0:
            x = _ref_meshgrid(grid)[0]
            sigma = sigma * np.exp(1j * phase_gradient * (x - _ref_center(grid)[0]))
    return sr.SpinDensityField(
        rho_up=sr.ScalarField(grid, frozen(up)),
        rho_dn=sr.ScalarField(grid, frozen(dn)),
        sigma=sr.ComplexField(grid, frozen(sigma)),
        n_electrons=n_electrons,
    )
