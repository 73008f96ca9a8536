"""Reproducible field generators for initial data and verification ensembles."""

from __future__ import annotations

import math

import numpy as np

from .norms import _half_sq_norms, hom_norm, inhom_norm
from .spectral import SpectralField, _expand_half, _fold_half

__all__ = [
    "gaussian_random_field",
    "multi_mode_field",
    "random_multi_mode",
    "dyadic_bumps_field",
    "unit_mode",
]


def _finalize(lattice, coeffs, normalize):
    # project onto real fields through the half spectrum, which holds all
    # of a real field's modes, and normalise there before expanding
    half = _fold_half(coeffs)
    half[0, 0] = 0.0
    if normalize:
        scale = math.sqrt(float(_half_sq_norms(lattice, half, 0.0)))
        if scale > 0:
            half *= 1.0 / scale
    return SpectralField(lattice, _expand_half(half, lattice.n))


def gaussian_random_field(lattice, slope, rng, band_limit=True, normalize=True):
    """Random real field with spectral envelope |theta_hat| ~ |xi|^(-slope).

    Steep slopes keep the high-order norms used by the verification suites
    convergent under refinement.  Band-limiting to the 2/3 mask makes the
    field safe as input to dealiased quadratic terms.
    """
    n = lattice.n
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    envelope = lattice.symbol_power(-float(slope))
    coeffs = raw * envelope
    if band_limit:
        coeffs = coeffs * lattice.dealias_mask
    return _finalize(lattice, coeffs, normalize)


def multi_mode_field(lattice, modes, normalize=False):
    """Sum of real cosine modes given as (j1, j2, amplitude, phase) tuples."""
    n = lattice.n
    coeffs = np.zeros((n, n), dtype=np.complex128)
    for j1, j2, amp, phase in modes:
        j1, j2 = int(j1), int(j2)
        if (j1, j2) == (0, 0):
            continue
        z = 0.5 * amp * np.exp(1j * phase) * n * n
        coeffs[j1 % n, j2 % n] += z
        coeffs[(-j1) % n, (-j2) % n] += np.conj(z)
    return _finalize(lattice, coeffs, normalize)


def random_multi_mode(lattice, rng, max_modes=4, max_index=3, normalize=True):
    """A few random low-wavenumber modes; concentrates nonlinear interaction."""
    count = int(rng.integers(2, max_modes + 1))
    modes = []
    for _ in range(count):
        j1 = int(rng.integers(-max_index, max_index + 1))
        j2 = int(rng.integers(-max_index, max_index + 1))
        if (j1, j2) == (0, 0):
            j1 = 1
        amp = float(rng.uniform(0.2, 1.0))
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        modes.append((j1, j2, amp, phase))
    return multi_mode_field(lattice, modes, normalize=normalize)


def dyadic_bumps_field(lattice, rng, shell_decay=2.0, shells=None, normalize=True):
    """Random field supported on dyadic annuli 2^m <= |xi| < 2^(m+1).

    Shell m carries weight 2^(-shell_decay * m), so the roll-off across
    octaves is controlled directly.
    """
    n = lattice.n
    if shells is None:
        shells = max(1, int(np.log2(max(2.0, lattice.kmin * (n // 3)))))
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    envelope = np.zeros((n, n))
    for m in range(shells):
        lo = lattice.kmin * 2.0**m
        ring = (lattice.kmag >= lo) & (lattice.kmag < 2.0 * lo)
        envelope[ring] = 2.0 ** (-shell_decay * m)
    coeffs = raw * envelope * lattice.dealias_mask
    return _finalize(lattice, coeffs, normalize)


def unit_mode(lattice, j1, j2, amp=1.0, phase=0.0):
    """Single real mode amp*cos(xi.x + phase)."""
    return multi_mode_field(lattice, [(j1, j2, amp, phase)])


_GENERATORS = {
    "gaussian": lambda lattice, rng, params: gaussian_random_field(
        lattice, params.get("slope", 4.0), rng
    ),
    "multi_mode": lambda lattice, rng, params: random_multi_mode(
        lattice,
        rng,
        max_modes=params.get("max_modes", 4),
        max_index=params.get("max_index", 3),
    ),
    "dyadic_bumps": lambda lattice, rng, params: dyadic_bumps_field(
        lattice, rng, shell_decay=params.get("shell_decay", 2.0)
    ),
}


def draw_field(generator, lattice, rng, params=None):
    """Draw one sample from a named generator family."""
    try:
        make = _GENERATORS[generator]
    except KeyError:
        raise ValueError(
            f"unknown generator {generator!r}; choose from {sorted(_GENERATORS)}"
        ) from None
    return make(lattice, rng, params or {})


def scaled_to_norm(f, target, order, homogeneous=False):
    """Rescale a field so the selected Sobolev norm equals ``target``."""
    current = hom_norm(f, order) if homogeneous else inhom_norm(f, order)
    if current == 0.0:
        if target == 0.0:
            return f.copy()
        raise ValueError("cannot scale the zero field to a nonzero norm")
    return f * (target / current)
