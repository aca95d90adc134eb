"""Reference values the benchmark computes itself, outside any timed region."""

from __future__ import annotations

import numpy as np


def gaussian_h1(n_electrons: int, width: float) -> float:
    """Closed form of check's sqrt_rho_h1 for ``gaussian_diagonal``: 3N / (2 w^2)."""
    return 1.5 * n_electrons / (width * width)


def _spectral_grad_sq(values: np.ndarray, spacing) -> float:
    """integral |grad f|^2 with spectral derivatives of a box-periodic sample.

    The grid's last node on each axis repeats the first one of the next
    period (the orbitals decay to zero there and their phase winds a whole
    number of times), so it is dropped and the remaining m = n - 1 nodes are
    one period; the trapezoid rule on a period is h^3 times the plain sum.
    """
    v = values[:-1, :-1, :-1]
    total = 0.0
    for ax in range(3):
        m = v.shape[ax]
        k = 2.0 * np.pi * np.fft.fftfreq(m, d=spacing[ax])
        if m % 2 == 0:
            k[m // 2] = 0.0  # the Nyquist mode has no odd derivative
        shape = [1, 1, 1]
        shape[ax] = m
        d = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(v, axis=ax), axis=ax)
        total += float(np.sum(d.real * d.real + d.imag * d.imag))
    return total * spacing[0] * spacing[1] * spacing[2]


def spectral_kinetic(witness) -> float:
    """Tr(-Laplacian gamma) of a witness with spectral derivatives (no 1/2)."""
    h = witness.grid.spacing
    return sum(
        b.weight * (_spectral_grad_sq(o.up.values, h) + _spectral_grad_sq(o.dn.values, h))
        for b in witness.branches for o in b.orbitals.orbitals
    )
