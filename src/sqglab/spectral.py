"""Fourier representation of real scalar fields on a periodic square box.

Conventions (fixed for the whole package, see README):

* coefficient layout is row-major over the integer mode pair (j1, j2) with
  ``j = fftfreq`` ordering, i.e. ``j in {0, 1, ..., n/2-1, -n/2, ..., -1}``;
* the forward transform carries no scale factor and the inverse divides by
  ``n**2`` (numpy's default);
* the wavenumber of mode (j1, j2) is ``(2*pi/box_len) * (j1, j2)``;
* mode (0, 0) is pinned to zero: all fields are mean-free, which keeps
  negative powers of |D| and negative-order norms well defined;
* a field is real, so the ``rfft2`` half spectrum, shape (n, n//2 + 1),
  holds all its modes: a :class:`SpectralField` stores that half, every
  operator acts on it, and quadratic terms come from one kernel
  (:func:`_quadratic_coeffs`); the full (n, n) layout is built where read.
"""

from __future__ import annotations

import functools
import numbers
import operator
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "FrequencyLattice",
    "SpectralField",
    "make_lattice",
    "forward_transform",
    "inverse_transform",
    "fractional_power",
    "riesz_velocity",
    "low_pass",
    "high_pass",
    "rescale_field",
    "dealias",
    "multiply",
    "gradient",
    "advect",
]


# Largest lattice size accepted.  The lattice alone holds about ten n x n
# arrays (1.3 GB at n = 4096) and a field's half spectrum 8 n^2 bytes, so a
# larger n cannot run in the memory of an ordinary machine; the check runs
# before anything is allocated.
MAX_LATTICE_N = 4096


_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class _Open(float):
    """A bound a value may not reach: ``_Open(0.0)`` as the low bound means > 0."""


def _checked(name, value, kind, low=None, high=None):
    """``value`` checked against one rule row ``(kind, low, high)``, and returned.

    ``kind`` is "real", "whole", "flag" or a tuple of the allowed values
    (compared by ==, so an unhashable value is rejected, not raised on).  A
    bool is never a number and a string is not one; a number must be finite,
    and a whole kind turns an integral float into an int.  ``low`` and
    ``high`` are inclusive bounds, exclusive when given as :class:`_Open`.
    The error names the field and the rule it breaks.
    """
    if isinstance(kind, tuple):
        ok, what = value in kind, f"one of {list(kind)}"
    elif kind == "flag":
        ok, what = isinstance(value, bool), "true or false"
    else:
        what = "a whole number" if kind == "whole" else "a finite number"
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok = ok and abs(value) <= sys.float_info.max  # False for inf, nan
        ok = ok and (kind == "real" or value == int(value))
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    for bound, side in ((low, ">"), (high, "<")):
        sign = side if type(bound) is _Open else side + "="
        if bound is not None and not _COMPARE[sign](value, bound):
            raise ValueError(f"{name} must be {sign} {bound}, got {value!r}")
    return int(value) if kind == "whole" else value


def _read_params(owner, params, reads):
    """``params`` as a dict; ValueError unless a mapping of keys in ``reads`` only."""
    if not isinstance(params, Mapping):
        raise ValueError(f"params must be a mapping of parameter names to values, got {params!r}")
    for key in params:
        if key not in reads:
            raise ValueError(f"{owner} reads no parameter {key!r}; it reads " + ", ".join(reads))
    return dict(params)


# The rule row of the dissipation exponent, 0 < alpha < 1/2, read by every
# function and config that takes one.
_ALPHA = ("real", _Open(0.0), _Open(0.5))


def _check_fields(obj, rules):
    """Check each field of dataclass ``obj`` that ``rules`` names, in place.

    A field whose default is None may also be None; its rule checks any
    other value.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in rules and not (value is None and f.default is None):
            setattr(obj, f.name, _checked(f.name, value, *rules[f.name]))


def _lattice_size(n, box_len):
    """``(n, box_len)`` checked as a lattice takes them, allocating nothing.

    ``n`` must be a whole, even number with 8 <= n <= MAX_LATTICE_N (an
    integral float becomes an int) and ``box_len`` positive and finite, with
    the norm scales box_len**2/n**4 and (2 pi n/box_len)**±4 normal floats.
    """
    n = _checked("lattice size", n, "whole", 8, MAX_LATTICE_N)
    if n % 2 != 0:
        raise ValueError(f"lattice size must be even, got {n}")
    box = np.float64(_checked("box_len", box_len, "real", _Open(0.0)))
    with np.errstate(over="ignore", under="ignore"):
        scales = (box**2 / np.float64(n) ** 4, (2 * np.pi * n / box) ** 4, (box / (2 * np.pi)) ** 4)
    if not all(sys.float_info.min <= s <= sys.float_info.max for s in scales):
        raise ValueError(
            f"box_len must keep box_len**2/n**4, (2*pi*n/box_len)**4 and (box_len/(2*pi))**4 "
            f"normal floats at n={n}, got {box_len!r}"
        )
    return n, float(box)


@functools.lru_cache(maxsize=8)
def _mirror_indices(n):
    """Flat gather indices between an n x n spectrum and its half spectrum.

    ``fold[j]`` indexes the full spectrum at -j for each half-spectrum mode
    j; ``expand`` indexes the buffer [half, conj(half)] (both raveled) so
    that mode j of the full spectrum reads half[j] on columns 0 .. n/2 and
    conj(half[-j]) on columns n/2+1 .. n-1.  The self-paired columns 0 and
    n/2 read rows n/2+1 .. n-1 from the mirror as well.
    """
    m = n // 2 + 1
    j1 = np.arange(n)[:, None]
    j2 = np.arange(n)[None, :]
    fold = (-j1 % n) * n + (-j2[:, :m] % n)
    self_paired = (j2 == 0) | (j2 == m - 1)
    direct = (j2 < m) & ~(self_paired & (j1 >= m))
    mirrored = n * m + (-j1 % n) * m + (-j2 % n)
    expand = np.where(direct, j1 * m + np.minimum(j2, m - 1), mirrored)
    return fold, expand


def _half_columns(a):
    """Columns 0 .. n/2 of an (..., n, n) lattice array: its rfft2 half spectrum."""
    return a[..., : a.shape[-1] // 2 + 1]


def _fold_half(coeffs):
    """Conjugate-symmetric part of a full spectrum, on the rfft2 half spectrum.

    Returns 0.5 * (c(j) + conj(c(-j))) on columns 0 .. n/2, shape
    (n, n//2 + 1); :func:`_expand_half` of it is the projection of ``coeffs``
    onto conjugate-symmetric spectra, bit for bit.
    """
    n = coeffs.shape[-1]
    half = np.conj(coeffs.take(_mirror_indices(n)[0]))
    half += coeffs[:, : n // 2 + 1]
    half *= 0.5
    return half


@dataclass(frozen=True, eq=False)
class FrequencyLattice:
    """Discrete Fourier grid for an n x n periodic box of side ``box_len``.

    Precomputed per-mode arrays:

    modes1, modes2
        integer mode indices j1, j2 in fftfreq order.
    kx, ky, k2, kmag
        wavenumber components, |xi|^2 and |xi|.
    dealias_mask
        2/3-rule mask, True iff |j1| <= K and |j2| <= K with K = (n-1)//3.
        A product of two kept modes reaches |j| <= 2K, and its alias
        2K - n lands outside the kept band because 3K < n, so quadratic
        terms are alias-free for every even n.  The mask is symmetric under
        j -> -j, so it preserves conjugate symmetry.
    """

    n: int
    box_len: float
    modes1: np.ndarray = field(init=False, repr=False)
    modes2: np.ndarray = field(init=False, repr=False)
    kx: np.ndarray = field(init=False, repr=False)
    ky: np.ndarray = field(init=False, repr=False)
    k2: np.ndarray = field(init=False, repr=False)
    kmag: np.ndarray = field(init=False, repr=False)
    dealias_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, value in zip(("n", "box_len"), _lattice_size(self.n, self.box_len)):
            object.__setattr__(self, name, value)
        j = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        j1, j2 = np.meshgrid(j, j, indexing="ij")
        step = 2.0 * np.pi / self.box_len
        object.__setattr__(self, "modes1", j1)
        object.__setattr__(self, "modes2", j2)
        object.__setattr__(self, "kx", step * j1)
        object.__setattr__(self, "ky", step * j2)
        k2 = (step * j1) ** 2 + (step * j2) ** 2
        object.__setattr__(self, "k2", k2)
        object.__setattr__(self, "kmag", np.sqrt(k2))
        keep = (self.n - 1) // 3
        mask = (np.abs(j1) <= keep) & (np.abs(j2) <= keep)
        object.__setattr__(self, "dealias_mask", mask)
        object.__setattr__(self, "_symbol_cache", {})

    @property
    def spacing(self):
        """Physical grid spacing box_len / n."""
        return self.box_len / self.n

    @property
    def kmin(self):
        """Smallest nonzero wavenumber magnitude, 2*pi/box_len."""
        return 2.0 * np.pi / self.box_len

    def grid(self):
        """Physical sample points (X1, X2), each shaped (n, n)."""
        x = np.arange(self.n) * self.spacing
        return np.meshgrid(x, x, indexing="ij")

    def symbol_power(self, s):
        """|xi|^s per mode with the (0,0) entry set to 0, cached per finite exponent.

        The full (n, n) layout, read by the field generators; operators on
        half spectra read :func:`_half_symbol`.
        """
        return _cached_power(self, s, full=True)

    def compatible(self, other):
        return self.n == other.n and self.box_len == other.box_len


def _half_symbol(lat, s):
    """|xi|^s on the rfft2 half spectrum, shape (n, n//2 + 1), mode (0, 0) at 0.

    Equal bit for bit to columns 0 .. n/2 of ``lat.symbol_power(s)``, since
    the power is taken mode by mode; cached per lattice and finite exponent.
    """
    return _cached_power(lat, s, full=False)


def _power(lat, s, full):
    """|xi|^s from the full or the half columns of ``lat.k2``, (0, 0) at 0, uncached."""
    _checked("exponent", s, "real")
    safe = (lat.k2 if full else _half_columns(lat.k2)).copy()
    safe[0, 0] = 1.0
    power = safe ** (0.5 * s)
    power[0, 0] = 0.0
    return power


def _cached_power(lat, s, full):
    """:func:`_power`, cached per lattice and exponent.

    :func:`_power` checks the exponent before anything is cached: a NaN key
    never hits the cache, so an unchecked one would store one array per call.
    """
    s = float(s)
    key = s if full else ("half-symbol", s)
    cached = lat._symbol_cache.get(key)
    if cached is None:
        cached = lat._symbol_cache[key] = _power(lat, s, full)
    return cached


def make_lattice(n, box_len):
    """Build a FrequencyLattice after the checks of :func:`_lattice_size`.

    ``n`` is a whole, even number with 8 <= n <= MAX_LATTICE_N (an integral
    float such as 16.0 counts as 16); ``box_len`` is positive and finite,
    with the norm scales that :func:`_lattice_size` names normal floats.
    """
    return FrequencyLattice(n, box_len)


class SpectralField:
    """One real scalar field, stored as its rfft2 half spectrum ``half``.

    ``half`` has shape (n, n//2 + 1), mode (0, 0) pinned to zero and exactly
    conjugate-symmetric self-paired columns 0 and n/2.  The constructor takes
    full (n, n) coefficients and keeps the half of their conjugate-symmetric
    part, so arbitrary input is projected onto a real field.  ``coeffs``, the
    full (n, n) array, is built from ``half`` by conjugate symmetry on first
    read and then kept, with ``half`` a view of its columns 0 .. n/2, so a
    write into it is seen by every later read.
    """

    def __init__(self, lattice, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (lattice.n, lattice.n):
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match lattice n={lattice.n}"
            )
        self._store(lattice, _fold_half(coeffs))

    def _store(self, lattice, half):
        # take rows n/2+1 .. n-1 of the self-paired columns 0 and n/2 (the
        # column step n/2 picks just those) from the conjugates of rows
        # n/2-1 .. 1, as _expand_half reads them
        m = lattice.n // 2 + 1
        half[m:, :: m - 1] = np.conj(half[m - 2 : 0 : -1, :: m - 1])
        half[0, 0] = 0.0
        self.lattice, self.half, self._full = lattice, half, None

    @property
    def coeffs(self):
        """The full (n, n) coefficients, built from ``half`` on first read."""
        if self._full is None:
            self._full = _expand_half(self.half, self.lattice.n)
            self.half = _half_columns(self._full)
        return self._full

    def copy(self):
        return _from_half(self.lattice, self.half)

    def __add__(self, other):
        self._check(other)
        return _from_half(self.lattice, self.half + other.half)

    def __sub__(self, other):
        self._check(other)
        return _from_half(self.lattice, self.half - other.half)

    def __mul__(self, scalar):
        return _from_half(self.lattice, self.half * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if not self.lattice.compatible(other.lattice):
            raise ValueError("fields live on different lattices")


def _full_layout(f):
    """``f.coeffs`` without keeping it on ``f``: built anew unless ``f`` already keeps it."""
    return _expand_half(f.half, f.lattice.n) if f._full is None else f._full


def _from_half(lattice, half):
    """Field holding a copy of the half spectrum ``half``, which is not modified.

    rfft2 output is conjugate-symmetric on the self-paired columns only to
    round-off; the copy is completed there, so the field equals
    ``_expand_half(half, n)`` bit for bit.
    """
    f = object.__new__(SpectralField)
    f._store(lattice, np.array(half, dtype=np.complex128))
    return f


def forward_transform(samples, lattice):
    """Transform real physical samples (n, n) to a SpectralField.

    Conjugate symmetry is enforced exactly and the mean mode is dropped.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (lattice.n, lattice.n):
        raise ValueError(
            f"sample shape {samples.shape} does not match lattice n={lattice.n}"
        )
    return SpectralField(lattice, np.fft.fft2(samples))


def inverse_transform(f):
    """Return the physical samples of ``f`` (real part of the inverse DFT)."""
    return np.fft.ifft2(f.coeffs).real


def fractional_power(f, s):
    """Apply |D|^s, the multiplier |xi|^s; mode (0,0) maps to 0 for every s."""
    return _from_half(f.lattice, _half_symbol(f.lattice, s) * f.half)


def _zero_nyquist(coeffs, n):
    # odd (imaginary) symbols on the unpaired Nyquist row/column would break
    # conjugate symmetry; zeroing them keeps physical fields real
    # (column n/2 is also the last column of an rfft2 half spectrum)
    ny = n // 2
    coeffs[..., ny, :] = 0.0
    coeffs[..., :, ny] = 0.0
    return coeffs


def riesz_velocity(theta):
    """Velocity induced by the scalar: u = (-d2, d1) |D|^{-1} theta.

    Mode-wise u1 = -i*xi2/|xi| theta, u2 = i*xi1/|xi| theta, which is
    divergence free and satisfies |u(xi)| = |theta(xi)| on every mode away
    from the Nyquist rows (those are zeroed so the velocity stays real).
    Returns the pair (u1, u2).
    """
    u1, u2 = _half_multipliers(theta.lattice)[0] * theta.half
    return _from_half(theta.lattice, u1), _from_half(theta.lattice, u2)


def gradient(f):
    """Spectral gradient (d1 f, d2 f) with Nyquist rows zeroed."""
    gx, gy = _half_multipliers(f.lattice)[1] * f.half
    return _from_half(f.lattice, gx), _from_half(f.lattice, gy)


def low_pass(theta, delta):
    """Keep modes with |xi| < delta, zero the rest."""
    if not delta > 0:
        raise ValueError("cutoff must be positive")
    keep = _half_columns(theta.lattice.kmag) < delta
    return _from_half(theta.lattice, np.where(keep, theta.half, 0.0))


def high_pass(theta, delta):
    """Keep modes with |xi| >= delta; low_pass + high_pass restores theta exactly."""
    if not delta > 0:
        raise ValueError("cutoff must be positive")
    keep = _half_columns(theta.lattice.kmag) >= delta
    return _from_half(theta.lattice, np.where(keep, theta.half, 0.0))


def dealias(f):
    """Apply the 2/3-rule mask."""
    return _from_half(f.lattice, f.half * _half_columns(f.lattice.dealias_mask))


def rescale_field(theta, lam, alpha):
    """Scaling map theta -> lam^(2*alpha-1) * theta(lam * x) on the box of side box_len/lam.

    Restricted to positive integer lam: every mode index of the source is
    then representable on the companion lattice (same n, box shrunk by lam),
    where its wavenumber is exactly lam times the original one.  The map is
    exact in this representation, so the critical-norm identity
    ||theta_lam||_{H^{2-2a}} = ||theta||_{H^{2-2a}} (homogeneous) holds to
    round-off rather than to an interpolation tolerance.
    """
    lam_int = _checked("scaling factor", lam, "whole", 1)
    _checked("alpha", alpha, *_ALPHA)
    target = make_lattice(theta.lattice.n, theta.lattice.box_len / lam_int)
    return _from_half(target, float(lam_int) ** (2.0 * alpha - 1.0) * theta.half)


def multiply(f, g):
    """Dealiased pointwise product of two fields, mean mode removed.

    The product is formed in physical space, transformed back, masked with
    the 2/3 rule and mean-freed, matching the convention used by every
    quadratic term in the package.
    """
    f._check(g)
    out, _ = _quadratic_coeffs(f.lattice, f.half[None], g.half[None])
    return _from_half(f.lattice, out)


def advect(w, theta):
    """Dealiased transport term u_w . grad(theta).

    The velocity of ``w`` and the gradient of ``theta`` are taken to physical
    space, multiplied pointwise, transformed forward, masked with the 2/3
    rule and mean-freed.  Since div(u_w) = 0 this equals div(theta * u_w).
    """
    w._check(theta)
    out, _ = _advection_coeffs(w.lattice, w.half, theta.half)
    return _from_half(w.lattice, out)


def _expand_half(half, n):
    """Full (n, n) spectrum from the rfft2 half spectrum (n, n//2 + 1).

    Columns -n/2+1 .. -1 are the conjugate mirror c(-j) = conj(c(j)) of
    columns n/2-1 .. 1.  The self-paired columns 0 and n/2 take their rows
    n/2+1 .. n-1 from rows n/2-1 .. 1 the same way, so the result is exactly
    conjugate-symmetric whenever its four self-paired modes are real.
    """
    both = np.concatenate((half.ravel(), np.conj(half).ravel()))
    return both.take(_mirror_indices(n)[1])


def _half_multipliers(lat):
    """Riesz velocity and gradient symbols on the half spectrum, and its mask.

    ``velocity`` and ``grad`` stack the two components, shape
    (2, n, n//2 + 1), with the Nyquist row and column and mode (0, 0)
    zeroed; the velocity reads |xi|^-1 from :func:`_power`.  ``mask``
    is the 2/3-rule mask with mode (0, 0) removed, as complex ones and
    zeros: a complex spectrum times it takes the values of its product with
    the boolean mask, which numpy casts to complex, with no cast buffer.
    Built once per lattice.
    """
    cached = lat._symbol_cache.get("half-multipliers")
    if cached is None:
        inv = _power(lat, -1.0, full=False)
        kx, ky = _half_columns(lat.kx), _half_columns(lat.ky)
        velocity = _zero_nyquist(np.stack([-1j * ky * inv, 1j * kx * inv]), lat.n)
        grad = _zero_nyquist(np.stack([1j * kx, 1j * ky]), lat.n)
        mask = _half_columns(lat.dealias_mask).astype(np.complex128)
        mask[0, 0] = 0.0
        cached = (velocity, grad, mask)
        lat._symbol_cache["half-multipliers"] = cached
    return cached


def _work_buffer(lat, name, shape, dtype, cached=True):
    """A kernel work buffer, or a fresh array when ``cached`` is false.

    Cached buffers live in one dict, ``lat._symbol_cache["kernel-work"]``,
    keyed by ``(name, shape)``, so each lattice keeps one buffer per
    intermediate and operand shape.  Every call writes each element it reads
    before reading it, so no value carries over from an earlier call.
    """
    if not cached:
        return np.empty(shape, dtype)
    work = lat._symbol_cache.setdefault("kernel-work", {})
    buf = work.get((name, shape))
    if buf is None:
        buf = work[name, shape] = np.empty(shape, dtype)
    return buf


def _drop_work_buffers(lat):
    """Release the cached work buffers of :func:`_work_buffer` on ``lat``."""
    lat._symbol_cache.pop("kernel-work", None)


def _to_physical(lat, operand, keep, name, cached):
    """Physical samples of a stack of half spectra, (..., n, n//2 + 1) -> (..., n, n).

    ``operand`` is the stack, or a pair (symbol, half) whose product it is.
    numpy's ``irfft2`` is ``ifft`` along axis -2, then ``irfft`` along axis
    -1; this makes the same two passes, the first into a work buffer cached
    per stack shape, where a pair's product is formed and transformed in
    place, and the second into the ``name`` buffer of :func:`_work_buffer`.
    When the columns from ``keep`` on are all zero in the stack, the first
    pass transforms columns 0 .. keep-1 only and sets the others to zero,
    which is what their transform would give.  The result equals ``irfft2``
    of the stack bit for bit.
    """
    if isinstance(operand, tuple):
        symbol, half = operand
        spec = _work_buffer(lat, "inverse", np.broadcast_shapes(symbol.shape, half.shape), complex)
        operand = np.multiply(symbol, half, out=spec)
    else:
        spec = _work_buffer(lat, "inverse", operand.shape, complex)
    if operand[..., keep:].any():
        np.fft.ifft(operand, axis=-2, out=spec)
    else:
        np.fft.ifft(operand[..., :keep], axis=-2, out=spec[..., :keep])
        # a full-width irfft is faster than one that pads a short row
        spec[..., keep:] = 0.0
    physical = _work_buffer(lat, name, spec.shape[:-1] + (lat.n,), float, cached)
    return np.fft.irfft(spec, n=lat.n, axis=-1, out=physical)


def _quadratic_coeffs(lat, left, right, out=None):
    """The one kernel for quadratic terms, on the rfft2 half spectrum.

    ``left`` and ``right`` hold half spectra of shape (..., k, n, n//2 + 1)
    whose leading axes broadcast against each other; either may also be
    given as a pair (symbol, half) whose product is that stack.  Each goes
    to physical space once as given (:func:`_to_physical`), so a factor
    shared by a batch is transformed once.  The two operands are not stacked
    into one transform: at n = 128 one transform over four slices is slower
    than two over two.  The sum left_1 * right_1 + ... + left_k * right_k is
    formed pointwise in that order and transformed forward in two pruned
    passes: ``rfft`` along axis -1, then ``fft`` along axis -2 over columns
    0 .. K only, K = (n-1)//3, the columns the 2/3 rule keeps.  Those
    columns equal the masked ``rfft2`` bit for bit; columns K+1 .. n/2 are
    +0.  The result is masked with the 2/3 rule and mean-freed.

    An operand whose columns K+1 .. n/2 are not all zero, which the public
    :func:`multiply` and :func:`advect` accept, has all its columns
    transformed, so the contract holds for every field.  Returns the
    (..., n, n//2 + 1) result and the physical ``left`` factors.

    Without ``out`` both are fresh arrays that no later call writes to.
    With ``out``, the caller's result array, the result is written into it
    and the physical factors, their product and its partner term into work
    buffers of :func:`_work_buffer`, so a repeated call allocates no array;
    the physical ``left`` factors returned are then a work buffer that the
    next call with ``out`` overwrites.  Either way the column pass
    transforms the result in place, and every FFT and ufunc writes with
    ``out=``.
    """
    cached = out is not None
    n = lat.n
    keep = (n - 1) // 3 + 1  # columns 0 .. K
    left_p = _to_physical(lat, left, keep, "left-physical", cached)
    right_p = _to_physical(lat, right, keep, "right-physical", cached)
    lead = np.broadcast_shapes(left_p.shape[:-3], right_p.shape[:-3])
    prod = _work_buffer(lat, "product", lead + (n, n), float, cached)
    np.multiply(left_p[..., 0, :, :], right_p[..., 0, :, :], out=prod)
    for i in range(1, left_p.shape[-3]):
        partner = _work_buffer(lat, "partner", prod.shape, float, cached)
        np.add(prod, np.multiply(left_p[..., i, :, :], right_p[..., i, :, :], out=partner), out=prod)
    if out is None:
        out = np.empty(lead + (n, n // 2 + 1), complex)
    np.fft.rfft(prod, axis=-1, out=out)
    np.fft.fft(out[..., :keep], axis=-2, out=out[..., :keep])
    # +0 also where a reused ``out`` was negated; the mask keeps it +0, and
    # multiplying every column is faster than the strided kept ones
    out[..., keep:] = 0.0
    np.multiply(out, _half_multipliers(lat)[2], out=out)
    return out, left_p


def _advection_coeffs(lat, w_half, theta_half, out=None):
    """Advection kernel u_w . grad(theta) on half spectra.

    ``w_half`` and ``theta_half`` are (..., n, n//2 + 1) stacks that
    broadcast against each other.  Returns the result and the physical
    velocity of ``w``, shape (..., 2, n, n), from which callers that need
    max |u| read it.  The symbol products are formed in the kernel's work
    buffer (:func:`_to_physical`); ``out`` is that of :func:`_quadratic_coeffs`.
    """
    velocity, grad, _ = _half_multipliers(lat)
    left = (velocity, w_half[..., None, :, :])
    return _quadratic_coeffs(lat, left, (grad, theta_half[..., None, :, :]), out)
