"""Reproducible field generators for initial data and verification ensembles."""

from __future__ import annotations

import numpy as np

from .norms import hom_norm, inhom_norm
from .spectral import SpectralField

__all__ = [
    "gaussian_random_field",
    "multi_mode_field",
    "random_multi_mode",
    "dyadic_bumps_field",
    "unit_mode",
]


def _finalize(lattice, coeffs, normalize):
    # the constructor projects the raw coefficients onto a real field
    f = SpectralField(lattice, coeffs)
    scale = hom_norm(f, 0.0) if normalize else 0.0
    return f * (1.0 / scale) if scale > 0 else f


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


def random_multi_mode(lattice, rng, max_modes=4, max_index=3):
    """A few random low-wavenumber modes, normalized in L2; concentrates nonlinear interaction."""
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
    return multi_mode_field(lattice, modes, normalize=True)


def dyadic_bumps_field(lattice, rng, shell_decay=2.0, normalize=True):
    """Random field supported on dyadic annuli 2^m <= |xi| < 2^(m+1).

    Shell m carries weight 2^(-shell_decay * m), so the roll-off across
    octaves is controlled directly.  The shells are the octaves below the 2/3 cutoff.
    """
    n = lattice.n
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


# Each generator family: its function and every params key it reads, with
# the default it is drawn at.  multi_mode also reads "modes" on its own; see
# draw_field.
_GENERATORS = {
    "gaussian": (gaussian_random_field, {"slope": 4.0}),
    "multi_mode": (random_multi_mode, {"max_modes": 4, "max_index": 3}),
    "dyadic_bumps": (dyadic_bumps_field, {"shell_decay": 2.0}),
}


def _generator_row(generator, params):
    """The ``_GENERATORS`` row of ``generator``, once ``params`` hold only keys it reads.

    Raises ValueError naming the family or the first key it does not read.
    """
    try:
        make, defaults = _GENERATORS[generator]
    except KeyError:
        raise ValueError(
            f"unknown generator {generator!r}; choose from {sorted(_GENERATORS)}"
        ) from None
    reads = [*defaults, "modes"] if generator == "multi_mode" else list(defaults)
    for key in params:
        if key not in reads:
            raise ValueError(
                f"generator {generator} reads no parameter {key!r}; it reads " + ", ".join(reads)
            )
    if "modes" in params and len(params) > 1:
        others = ", ".join(repr(key) for key in params if key != "modes")
        raise ValueError(f"multi_mode modes are drawn as given and take no {others}")
    return make, defaults


def draw_field(generator, lattice, rng, params=None):
    """Draw one sample from a named generator family.

    ``params`` may hold only keys of the family's row in ``_GENERATORS``;
    any other key raises ValueError naming it before ``rng`` is touched.  A
    key left out is drawn at its default.  ``multi_mode`` also takes
    ``modes``, (j1, j2, amplitude, phase) tuples, and then no other key: the
    sample is :func:`multi_mode_field` of them, unnormalized, and draws
    nothing from ``rng``.
    """
    params = params or {}
    make, defaults = _generator_row(generator, params)
    if "modes" in params:
        return multi_mode_field(lattice, params["modes"])
    return make(lattice, rng=rng, **{key: params.get(key, d) for key, d in defaults.items()})


def scaled_to_norm(f, target, order):
    """Rescale a field so its inhomogeneous norm of order ``order`` equals ``target``."""
    current = inhom_norm(f, order)
    if current == 0.0:
        if target == 0.0:
            return f.copy()
        raise ValueError("cannot scale the zero field to a nonzero norm")
    return f * (target / current)
