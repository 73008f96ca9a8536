"""Fourier representation of real scalar fields on a periodic square box.

Conventions (fixed for the whole package, see README):

* coefficient layout is row-major over the integer mode pair (j1, j2) with
  ``j = fftfreq`` ordering, i.e. ``j in {0, 1, ..., n/2-1, -n/2, ..., -1}``;
* the forward transform carries no scale factor and the inverse divides by
  ``n**2`` (numpy's default);
* the wavenumber of mode (j1, j2) is ``(2*pi/box_len) * (j1, j2)``;
* mode (0, 0) is pinned to zero: all fields are mean-free, which keeps
  negative powers of |D| and negative-order norms well defined;
* quadratic terms are computed on the ``rfft2`` half spectrum, shape
  (n, n//2 + 1), by one kernel (:func:`_quadratic_coeffs`); every public
  function takes and returns the full (n, n) layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FrequencyLattice",
    "SpectralField",
    "VelocityField",
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


def _hermitian_part(coeffs):
    """Project onto the conjugate-symmetric part, c(j) -> (c(j) + conj(c(-j)))/2."""
    flipped = np.conj(np.roll(coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))
    return 0.5 * (coeffs + flipped)


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
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"lattice size must be even and >= 8, got {self.n}")
        if not (self.box_len > 0 and math.isfinite(self.box_len)):
            raise ValueError(f"box_len must be positive and finite, got {self.box_len}")
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
        """|xi|^s per mode with the (0,0) entry set to 0, cached per exponent."""
        s = float(s)
        cached = self._symbol_cache.get(s)
        if cached is None:
            safe = self.k2.copy()
            safe[0, 0] = 1.0
            cached = safe ** (0.5 * s)
            cached[0, 0] = 0.0
            self._symbol_cache[s] = cached
        return cached

    def compatible(self, other):
        return self.n == other.n and self.box_len == other.box_len


def make_lattice(n, box_len):
    """Build a FrequencyLattice; n must be even and >= 8, box_len > 0."""
    return FrequencyLattice(int(n), float(box_len))


@dataclass
class SpectralField:
    """One real scalar field stored as complex Fourier coefficients.

    The constructor pins mode (0, 0) to zero.  Conjugate symmetry is
    established by :func:`forward_transform` and preserved by every operator
    in this module (all multipliers are either real and even or imaginary
    and odd with Nyquist rows zeroed).
    """

    lattice: FrequencyLattice
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if coeffs.shape != (self.lattice.n, self.lattice.n):
            raise ValueError(
                f"coefficient shape {coeffs.shape} does not match lattice n={self.lattice.n}"
            )
        coeffs[0, 0] = 0.0
        self.coeffs = coeffs

    def copy(self):
        return SpectralField(self.lattice, self.coeffs.copy())

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.lattice, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.lattice, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.lattice, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check(self, other):
        if not self.lattice.compatible(other.lattice):
            raise ValueError("fields live on different lattices")


@dataclass
class VelocityField:
    """Divergence-free velocity (u1, u2) derived from a scalar field."""

    u1: SpectralField
    u2: SpectralField

    @property
    def lattice(self):
        return self.u1.lattice


def forward_transform(samples, lattice):
    """Transform real physical samples (n, n) to a SpectralField.

    Conjugate symmetry is enforced exactly and the mean mode is dropped.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.shape != (lattice.n, lattice.n):
        raise ValueError(
            f"sample shape {samples.shape} does not match lattice n={lattice.n}"
        )
    coeffs = _hermitian_part(np.fft.fft2(samples))
    return SpectralField(lattice, coeffs)


def inverse_transform(f):
    """Return the physical samples of ``f`` (real part of the inverse DFT)."""
    return np.fft.ifft2(f.coeffs).real


def fractional_power(f, s):
    """Apply |D|^s, the multiplier |xi|^s; mode (0,0) maps to 0 for every s."""
    return SpectralField(f.lattice, f.lattice.symbol_power(s) * f.coeffs)


def _zero_nyquist(coeffs, n):
    # odd (imaginary) symbols on the unpaired Nyquist row/column would break
    # conjugate symmetry; zeroing them keeps physical fields real
    # (column n/2 is also the last column of an rfft2 half spectrum)
    ny = n // 2
    coeffs[..., ny, :] = 0.0
    coeffs[..., :, ny] = 0.0
    return coeffs


def _riesz_coeffs(lat, coeffs):
    inv = lat.symbol_power(-1.0)
    u1 = _zero_nyquist(-1j * lat.ky * inv * coeffs, lat.n)
    u2 = _zero_nyquist(1j * lat.kx * inv * coeffs, lat.n)
    return u1, u2


def riesz_velocity(theta):
    """Velocity induced by the scalar: u = (-d2, d1) |D|^{-1} theta.

    Mode-wise u1 = -i*xi2/|xi| theta, u2 = i*xi1/|xi| theta, which is
    divergence free and satisfies |u(xi)| = |theta(xi)| on every mode away
    from the Nyquist rows (those are zeroed so the velocity stays real).
    """
    u1, u2 = _riesz_coeffs(theta.lattice, theta.coeffs)
    return VelocityField(
        SpectralField(theta.lattice, u1), SpectralField(theta.lattice, u2)
    )


def gradient(f):
    """Spectral gradient (d1 f, d2 f) with Nyquist rows zeroed."""
    lat = f.lattice
    gx = _zero_nyquist(1j * lat.kx * f.coeffs, lat.n)
    gy = _zero_nyquist(1j * lat.ky * f.coeffs, lat.n)
    return SpectralField(lat, gx), SpectralField(lat, gy)


def low_pass(theta, delta):
    """Keep modes with |xi| < delta, zero the rest."""
    if not delta > 0:
        raise ValueError("cutoff must be positive")
    keep = theta.lattice.kmag < delta
    return SpectralField(theta.lattice, np.where(keep, theta.coeffs, 0.0))


def high_pass(theta, delta):
    """Keep modes with |xi| >= delta; low_pass + high_pass restores theta exactly."""
    if not delta > 0:
        raise ValueError("cutoff must be positive")
    keep = theta.lattice.kmag >= delta
    return SpectralField(theta.lattice, np.where(keep, theta.coeffs, 0.0))


def dealias(f):
    """Apply the 2/3-rule mask."""
    return SpectralField(f.lattice, f.coeffs * f.lattice.dealias_mask)


def rescale_field(theta, lam, alpha):
    """Scaling map theta -> lam^(2*alpha-1) * theta(lam * x) on the box of side box_len/lam.

    Restricted to positive integer lam: every mode index of the source is
    then representable on the companion lattice (same n, box shrunk by lam),
    where its wavenumber is exactly lam times the original one.  The map is
    exact in this representation, so the critical-norm identity
    ||theta_lam||_{H^{2-2a}} = ||theta||_{H^{2-2a}} (homogeneous) holds to
    round-off rather than to an interpolation tolerance.
    """
    lam_int = int(lam)
    if lam_int != lam or lam_int < 1:
        raise ValueError(f"scaling factor must be a positive integer, got {lam!r}")
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    target = make_lattice(theta.lattice.n, theta.lattice.box_len / lam_int)
    return SpectralField(target, float(lam_int) ** (2.0 * alpha - 1.0) * theta.coeffs)


def multiply(f, g):
    """Dealiased pointwise product of two fields, mean mode removed.

    The product is formed in physical space, transformed back, masked with
    the 2/3 rule and mean-freed, matching the convention used by every
    quadratic term in the package.
    """
    f._check(g)
    lat = f.lattice
    m = lat.n // 2 + 1
    out, _ = _quadratic_coeffs(lat, f.coeffs[None, :, :m], g.coeffs[None, :, :m])
    return SpectralField(lat, _expand_half(out, lat.n))


def advect(w, theta):
    """Dealiased transport term u_w . grad(theta).

    The velocity of ``w`` and the gradient of ``theta`` are taken to physical
    space, multiplied pointwise, transformed forward, masked with the 2/3
    rule and mean-freed.  Since div(u_w) = 0 this equals div(theta * u_w).
    """
    w._check(theta)
    lat = w.lattice
    m = lat.n // 2 + 1
    coeffs, _ = _advection_coeffs(lat, w.coeffs[:, :m], theta.coeffs[:, :m])
    return SpectralField(lat, _expand_half(coeffs, lat.n))


def _expand_half(half, n):
    """Full (n, n) spectrum from the rfft2 half spectrum (n, n//2 + 1).

    Columns -n/2+1 .. -1 are the conjugate mirror c(-j) = conj(c(j)) of
    columns n/2-1 .. 1.  The self-paired columns 0 and n/2 take their rows
    n/2+1 .. n-1 from rows n/2-1 .. 1 the same way, so the result is exactly
    conjugate-symmetric whenever its four self-paired modes are real.
    """
    m = n // 2 + 1
    mirror = np.conj(np.roll(half[::-1], 1, axis=0))  # row j1 -> -j1
    full = np.empty((n, n), dtype=np.complex128)
    full[:, :m] = half
    full[:, m:] = mirror[:, m - 2 : 0 : -1]
    full[m:, 0] = mirror[m:, 0]
    full[m:, m - 1] = mirror[m:, m - 1]
    return full


def _half_multipliers(lat):
    """Riesz velocity and gradient symbols on the half spectrum, and its mask.

    ``velocity`` and ``grad`` stack the two components, shape
    (2, n, n//2 + 1), with the Nyquist row and column and mode (0, 0)
    zeroed; ``mask`` is the 2/3-rule mask with mode (0, 0) removed.  Built
    once per lattice.
    """
    cached = lat._symbol_cache.get("half-multipliers")
    if cached is None:
        m = lat.n // 2 + 1
        inv = lat.symbol_power(-1.0)[:, :m]
        kx, ky = lat.kx[:, :m], lat.ky[:, :m]
        velocity = _zero_nyquist(np.stack([-1j * ky * inv, 1j * kx * inv]), lat.n)
        grad = _zero_nyquist(np.stack([1j * kx, 1j * ky]), lat.n)
        mask = lat.dealias_mask[:, :m].copy()
        mask[0, 0] = False
        cached = (velocity, grad, mask)
        lat._symbol_cache["half-multipliers"] = cached
    return cached


def _quadratic_coeffs(lat, left, right):
    """The one kernel for quadratic terms, on the rfft2 half spectrum.

    ``left`` and ``right`` stack k half spectra each, shape (k, n, n//2 + 1).
    Both go to physical space, sum_i left_i * right_i is formed pointwise,
    transformed forward, masked with the 2/3 rule and mean-freed.  Returns
    the half-spectrum result and the physical ``left`` factors.
    """
    shape = (lat.n, lat.n)
    left_p = np.fft.irfft2(left, s=shape)
    right_p = np.fft.irfft2(right, s=shape)
    prod = left_p[0] * right_p[0]
    for a, b in zip(left_p[1:], right_p[1:]):
        prod += a * b
    out = np.fft.rfft2(prod)
    out *= _half_multipliers(lat)[2]
    return out, left_p


def _advection_coeffs(lat, w_half, theta_half):
    """Advection kernel on half spectra; also returns max |u| for CFL bookkeeping."""
    velocity, grad, _ = _half_multipliers(lat)
    out, (u1, u2) = _quadratic_coeffs(lat, velocity * w_half, grad * theta_half)
    umax = math.sqrt(float(np.max(u1 * u1 + u2 * u2)))
    return out, umax
