"""Reproducible field generators for initial data and verification ensembles."""

from __future__ import annotations

import math

import numpy as np

from .norms import hom_norm, inhom_norm
from .spectral import _half_field, _half_symbol, _read_params

__all__ = [
    "gaussian_random_field",
    "multi_mode_field",
    "random_multi_mode",
    "dyadic_bumps_field",
    "unit_mode",
]


def _finalize(f, normalize):
    scale = hom_norm(f, 0.0) if normalize else 0.0
    if scale > 0:
        # ``f`` is the generator's own: scaled in place, and its self-paired
        # columns completed again, it holds the bits of f * (1 / scale)
        f.half *= 1.0 / scale
        f._store(f.lattice, f.half)
    return f


def _normal_side(rng, n, envelope, mask):
    """The :func:`sqglab.spectral._half_field` side of a complex normal spectrum.

    Draws a, then b, standard normal (n, n), and returns the side of
    c = (a + 1j * b) * envelope, then * mask unless ``mask`` is None;
    ``envelope`` and ``mask`` are half-spectrum arrays, even in j.
    """
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    def side(at):
        # a + 1j * b with the operands of the sum swapped, which gives the
        # same bits, so that it is formed in place
        coeffs = 1j * at.take(b)
        coeffs += at.take(a)
        coeffs *= envelope
        if mask is not None:
            coeffs *= mask
        return coeffs

    return side


def gaussian_random_field(lattice, slope, rng, band_limit=True, normalize=True):
    """Random real field with spectral envelope |theta_hat| ~ |xi|^(-slope).

    Steep slopes keep the high-order norms used by the verification suites
    convergent under refinement.  Band-limiting to the 2/3 mask makes the
    field safe as input to dealiased quadratic terms.  The spectrum is
    (a + 1j * b) |xi|^(-slope), with a and b standard normal (n, n) arrays
    drawn in that order, folded onto a real field on the half spectrum
    (:func:`sqglab.spectral._half_field`) with the half symbol and mask, so
    no full-layout lattice array is read.
    """
    envelope = _half_symbol(lattice, -float(slope))
    mask = lattice.half.dealias_mask if band_limit else None
    side = _normal_side(rng, lattice.n, envelope, mask)
    return _finalize(_half_field(lattice, side), normalize)


def multi_mode_field(lattice, modes, normalize=False):
    """Sum of real cosine modes given as (j1, j2, amplitude, phase) tuples.

    A mode puts z = (amp / 2) e^(i phase) n^2 on (j1, j2) and conj(z) on
    (-j1, -j2); these are added in the order given, straight onto the half
    spectrum (:func:`sqglab.spectral._half_field`).
    """
    n = lattice.n
    terms = []
    for j1, j2, amp, phase in modes:
        j1, j2 = int(j1), int(j2)
        if (j1, j2) == (0, 0):
            continue
        z = 0.5 * amp * np.exp(1j * phase) * n * n
        terms += [((j1, j2), z), ((-j1, -j2), np.conj(z))]

    def side(at):
        coeffs = np.zeros(lattice.half.k2.shape, complex)
        for mode, z in terms:
            spot = at.index(*mode)
            if spot is not None:
                coeffs[spot] += z
        return coeffs

    return _finalize(_half_field(lattice, side), normalize)


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
    """Random field supported on dyadic annuli 2^m <= |j| < 2^(m+1) of the mode index.

    Shell m carries weight 2^(-shell_decay * m).  The shells are the octaves
    of the mode index below the 2/3 cutoff, the same on every box, and are
    built from ``lattice.half.kmag``; the spectrum is drawn and folded as in
    :func:`gaussian_random_field`.
    """
    n = lattice.n
    shells = max(1, int(np.log2(max(2, n // 3))))
    kmag = lattice.half.kmag
    envelope = np.zeros(kmag.shape)
    for m in range(shells):
        lo = lattice.kmin * 2.0**m
        ring = (kmag >= lo) & (kmag < 2.0 * lo)
        envelope[ring] = 2.0 ** (-shell_decay * m)
    side = _normal_side(rng, n, envelope, lattice.half.dealias_mask)
    return _finalize(_half_field(lattice, side), normalize)


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

    Raises ValueError naming the family or the first key it does not read,
    or naming ``params`` when they are not a mapping.
    """
    try:
        make, defaults = _GENERATORS[generator]
    except KeyError:
        raise ValueError(
            f"unknown generator {generator!r}; choose from {sorted(_GENERATORS)}"
        ) from None
    reads = [*defaults, "modes"] if generator == "multi_mode" else list(defaults)
    _read_params(f"generator {generator}", params, reads)
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
    params = {} if params is None else params
    make, defaults = _generator_row(generator, params)
    if "modes" in params:
        return multi_mode_field(lattice, params["modes"])
    return make(lattice, rng=rng, **{key: params.get(key, d) for key, d in defaults.items()})


def scaled_to_norm(f, target, order):
    """Rescale a field so its inhomogeneous norm of order ``order`` equals ``target``."""
    current = inhom_norm(f, order)
    if not math.isfinite(current):
        raise ValueError(f"cannot scale a field whose norm is {current}")
    if current == 0.0:
        if target == 0.0:
            return f.copy()
        raise ValueError("cannot scale the zero field to a nonzero norm")
    return f * (target / current)
