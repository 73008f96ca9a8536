"""Sobolev norm functionals on spectral fields.

With the package's transform conventions the quadrature weight making the
coefficient sum equal the physical integral is ``box_len**2 / n**4``:

    ||f||_{L2}^2 = w * sum_j |f_hat(j)|^2 = integral of f^2 over the box.

Homogeneous norms weight each mode by |xi|^{2s} (zero mode excluded); the
inhomogeneous norm of order s > 0 is the equivalent form
sqrt(||f||_{L2}^2 + |||D|^s f||_{L2}^2).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "parseval_weight",
    "hom_norm",
    "shell_spectrum",
    "inhom_norm",
    "scalar_product",
    "interpolation_gap",
]


def parseval_weight(lattice):
    """Quadrature weight turning coefficient sums into physical integrals."""
    return lattice.box_len**2 / float(lattice.n) ** 4


def hom_norm(f, s):
    """Homogeneous Sobolev norm |||D|^s f||_{L2}; s may be any finite real."""
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("norm order must be finite")
    w = f.lattice.symbol_power(2.0 * s)
    total = parseval_weight(f.lattice) * float(np.sum(w * np.abs(f.coeffs) ** 2))
    return math.sqrt(total)


def _shells(lattice):
    """Shell index per mode and the ascending shell radii, cached per lattice.

    Shell 0 is the mean mode alone; shells 1.. are the occupied integer
    shells m = j1^2 + j2^2 >= 1.  A shell's radius is the ``kmag`` of its
    first mode in storage order.
    """
    cached = lattice._symbol_cache.get("shells")
    if cached is None:
        m = (lattice.modes1**2 + lattice.modes2**2).ravel()
        _, first, index = np.unique(m, return_index=True, return_inverse=True)
        cached = (index, lattice.kmag.ravel()[first[1:]])
        lattice._symbol_cache["shells"] = cached
    return cached


def shell_spectrum(f):
    """Energy per integer shell: ``(radii, energy)`` over the shells m >= 1.

    ``radii`` ascends and ``energy[i]`` is the Parseval-weighted sum of
    |f_hat|^2 over the modes of shell i, so ``sum(energy * radii**(2*s))`` is
    ``hom_norm(f, s)**2``.  A band-limited squared norm is a prefix (|xi| <
    delta) or suffix (|xi| >= delta) sum cut at
    ``np.searchsorted(radii, delta)``.  Modes of one shell whose ``kmag``
    differ by an ulp share one radius, so a cutoff within an ulp of a radius
    is decided per shell, not per mode.
    """
    index, radii = _shells(f.lattice)
    energy = np.bincount(index, weights=np.abs(f.coeffs).ravel() ** 2)
    return radii, parseval_weight(f.lattice) * energy[1:]


def inhom_norm(f, s):
    """Equivalent inhomogeneous norm sqrt(L2^2 + hom(s)^2); requires s > 0."""
    if not s > 0:
        raise ValueError(f"inhomogeneous order must be positive, got {s}")
    return math.sqrt(hom_norm(f, 0.0) ** 2 + hom_norm(f, s) ** 2)


def scalar_product(f, g, s=0.0, homogeneous=True):
    """Real scalar product at order s.

    homogeneous=True pairs with weight |xi|^{2s}; homogeneous=False uses the
    equivalent inhomogeneous pairing (1 + |xi|^{2s}) and requires s > 0.
    Either way ``scalar_product(f, f, ...)`` equals the squared norm.
    """
    if not f.lattice.compatible(g.lattice):
        raise ValueError("fields live on different lattices")
    s = float(s)
    if homogeneous:
        w = f.lattice.symbol_power(2.0 * s)
    else:
        if not s > 0:
            raise ValueError("inhomogeneous pairing requires s > 0")
        w = 1.0 + f.lattice.symbol_power(2.0 * s)
        w = w.copy()
        w[0, 0] = 0.0
    val = np.sum(w * f.coeffs * np.conj(g.coeffs))
    return parseval_weight(f.lattice) * float(np.real(val))


def interpolation_gap(theta, alpha):
    """Slack of ||f||_{H^{2-2a}} <= ||f||_{L2}^{a/(2-a)} ||f||_{H^{2-a}}^{(2-2a)/(2-a)}.

    Returns RHS - LHS (homogeneous norms).  Nonnegative up to round-off for
    every nonzero mean-free field; equality on single-mode fields.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    l2 = hom_norm(theta, 0.0)
    if l2 == 0.0:
        raise ValueError("interpolation gap is undefined for the zero field")
    lhs = hom_norm(theta, 2.0 - 2.0 * alpha)
    high = hom_norm(theta, 2.0 - alpha)
    a = alpha / (2.0 - alpha)
    rhs = l2**a * high ** (1.0 - a)
    return rhs - lhs
