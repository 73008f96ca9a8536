"""Sobolev norm functionals on spectral fields.

With the package's transform conventions the quadrature weight making the
coefficient sum equal the physical integral is ``box_len**2 / n**4``:

    ||f||_{L2}^2 = w * sum_j |f_hat(j)|^2 = integral of f^2 over the box.

Homogeneous norms weight each mode by |xi|^{2s} (zero mode excluded); the
inhomogeneous norm of order s > 0 is the equivalent form
sqrt(||f||_{L2}^2 + |||D|^s f||_{L2}^2).

Every norm, pairing and shell sum is read from a field's rfft2 half spectrum
``f.half`` through one cached weight per order (:func:`_half_weight`): the
columns n/2+1 .. n-1 of the full spectrum are the conjugate mirror of
columns n/2-1 .. 1 and count through a column weight of 2.  Stacks of half
spectra (k, n, n//2 + 1) reduce in one call, slice by slice.

Squared norms have one reduction, :func:`_sq_norms`: it squares a spectrum
or stack once and sums it against the weight of each order asked for.  The
public norms, the solver's tracked norms and the lemma lab all call it, so a
norm read at one order is the same float wherever it is taken.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral import _ALPHA, _checked, _half_columns, _power

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


def _half_weight(lattice, s, homogeneous=True):
    """Per-mode weight on the rfft2 half spectrum, shape (n, n//2 + 1).

    The Parseval weight times the column weight (1 on the self-paired
    columns 0 and n/2, 2 on the others, which stand for themselves and their
    conjugate mirror) times |xi|^(2s), or times 1 + |xi|^(2s) for the
    inhomogeneous pairing, with |xi|^(2s) from the uncached
    :func:`~sqglab.spectral._power`; mode (0, 0) weighs 0.  Cached per lattice.
    """
    key = ("half-weight", float(s), homogeneous)
    cached = lattice._symbol_cache.get(key)
    if cached is None:
        symbol = _power(lattice, 2.0 * s, full=False)
        column = np.full(symbol.shape[-1], 2.0)
        column[0] = column[-1] = 1.0
        if not homogeneous:
            symbol = 1.0 + symbol
            symbol[0, 0] = 0.0
        cached = parseval_weight(lattice) * column * symbol
        lattice._symbol_cache[key] = cached
    return cached


def _sq_norms(lattice, half, orders):
    """Squared Hdot^s norms of half spectra at each of ``orders``, orders leading.

    ``half`` is one (n, n//2 + 1) half spectrum or a stack (..., n, n//2 + 1);
    the result has shape (len(orders), ...), one squared norm per order and
    slice.  The stack is squared once, |f_hat|^2, and reduced per order
    against the cached weight, so no (orders, ..., n, n//2 + 1) temporary is
    built.  This is the one reduction from a spectrum to its squared norms.
    """
    mag2 = half.real**2 + half.imag**2
    return np.array([np.sum(_half_weight(lattice, s) * mag2, axis=(-2, -1)) for s in orders])


def _half_pairings(lattice, a, b, s, homogeneous=True):
    """Real scalar products at order s of half spectra, broadcast over leading axes."""
    cross = a.real * b.real + a.imag * b.imag
    return np.sum(_half_weight(lattice, s, homogeneous) * cross, axis=(-2, -1))


def hom_norm(f, s):
    """Homogeneous Sobolev norm |||D|^s f||_{L2}; s may be any finite real."""
    return math.sqrt(float(_sq_norms(f.lattice, f.half, (s,))[0]))


def _shells(lattice):
    """Shell index per half-spectrum mode and the ascending shell radii.

    Shell 0 is the mean mode alone; shells 1.. are the occupied integer
    shells m = j1^2 + j2^2 >= 1, each of which meets the half spectrum.  A
    shell's radius is the ``kmag`` of its first mode in storage order, which
    lies in the half spectrum.  Cached per lattice.
    """
    cached = lattice._symbol_cache.get("shells")
    if cached is None:
        m = _half_columns(lattice.modes1**2 + lattice.modes2**2).ravel()
        _, first, index = np.unique(m, return_index=True, return_inverse=True)
        cached = (index, _half_columns(lattice.kmag).ravel()[first[1:]])
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
    weighted = _half_weight(f.lattice, 0.0) * (f.half.real**2 + f.half.imag**2)
    return radii, np.bincount(index, weights=weighted.ravel())[1:]


def inhom_norm(f, s):
    """Equivalent inhomogeneous norm sqrt(L2^2 + hom(s)^2); requires s > 0."""
    if not s > 0:
        raise ValueError(f"inhomogeneous order must be positive, got {s}")
    l2, hs = np.sqrt(_sq_norms(f.lattice, f.half, (0.0, s))).tolist()
    return math.sqrt(l2**2 + hs**2)


def scalar_product(f, g, s=0.0, homogeneous=True):
    """Real scalar product at order s.

    homogeneous=True pairs with weight |xi|^{2s}; homogeneous=False uses the
    equivalent inhomogeneous pairing (1 + |xi|^{2s}) and requires s > 0.
    Either way ``scalar_product(f, f, ...)`` equals the squared norm.
    """
    f._check(g)
    s = float(s)
    if not (homogeneous or s > 0):
        raise ValueError("inhomogeneous pairing requires s > 0")
    return float(_half_pairings(f.lattice, f.half, g.half, s, homogeneous))


def interpolation_gap(theta, alpha):
    """Slack of ||f||_{H^{2-2a}} <= ||f||_{L2}^{a/(2-a)} ||f||_{H^{2-a}}^{(2-2a)/(2-a)}.

    Returns RHS - LHS (homogeneous norms).  Nonnegative up to round-off for
    every nonzero mean-free field; equality on single-mode fields.
    """
    _checked("alpha", alpha, *_ALPHA)
    orders = (0.0, 2.0 - 2.0 * alpha, 2.0 - alpha)
    l2, lhs, high = np.sqrt(_sq_norms(theta.lattice, theta.half, orders)).tolist()
    if l2 == 0.0:
        raise ValueError("interpolation gap is undefined for the zero field")
    return _interpolation_slack(l2, lhs, high, alpha)


def _interpolation_slack(l2, lhs, high, alpha):
    """:func:`interpolation_gap` from its three norms, as Python floats (libm's ``pow``)."""
    a = alpha / (2.0 - alpha)
    return l2**a * high ** (1.0 - a) - lhs
