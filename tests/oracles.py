"""Independent reference computations for cross-validating the spectral path.

Everything here deliberately avoids the package's FFT-based kernels: products
are direct O(n^4) circular convolution sums over modes, norms come from
physical-space quadrature or explicit coefficient sums, and the velocity /
gradient symbols are rebuilt mode by mode from their definitions.
"""

import numpy as np


def integer_modes(n):
    j = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    return np.meshgrid(j, j, indexing="ij")


def circular_convolution(F, G):
    """H[k] = (1/n^2) sum_j F[j] G[(k - j) mod n], the exact DFT of a product.

    Direct index arithmetic, no FFT; quadratic in the number of modes.
    """
    n = F.shape[0]
    J1, J2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    H = np.empty_like(F, dtype=np.complex128)
    for k1 in range(n):
        for k2 in range(n):
            H[k1, k2] = np.sum(F * G[(k1 - J1) % n, (k2 - J2) % n])
    return H / n**2


def dealias_mask(n):
    j1, j2 = integer_modes(n)
    keep = (n - 1) // 3  # 3*keep < n: alias-free for every even n
    return (np.abs(j1) <= keep) & (np.abs(j2) <= keep)


def wavenumbers(n, box_len):
    j1, j2 = integer_modes(n)
    step = 2.0 * np.pi / box_len
    return step * j1, step * j2


def riesz_coeffs(coeffs, n, box_len):
    """Velocity coefficients from the definition, Nyquist rows zeroed."""
    kx, ky = wavenumbers(n, box_len)
    kmag = np.sqrt(kx**2 + ky**2)
    kmag[0, 0] = 1.0
    u1 = -1j * ky / kmag * coeffs
    u2 = 1j * kx / kmag * coeffs
    ny = n // 2
    for u in (u1, u2):
        u[ny, :] = 0.0
        u[:, ny] = 0.0
        u[0, 0] = 0.0
    return u1, u2


def gradient_coeffs(coeffs, n, box_len):
    kx, ky = wavenumbers(n, box_len)
    gx = 1j * kx * coeffs
    gy = 1j * ky * coeffs
    ny = n // 2
    for g in (gx, gy):
        g[ny, :] = 0.0
        g[:, ny] = 0.0
    return gx, gy


def advection_coeffs(w_coeffs, theta_coeffs, n, box_len):
    """u_w . grad(theta) by direct convolution, dealiased and mean-freed."""
    u1, u2 = riesz_coeffs(w_coeffs, n, box_len)
    gx, gy = gradient_coeffs(theta_coeffs, n, box_len)
    out = circular_convolution(u1, gx) + circular_convolution(u2, gy)
    out *= dealias_mask(n)
    out[0, 0] = 0.0
    return out


def product_coeffs(f_coeffs, g_coeffs, n):
    out = circular_convolution(f_coeffs, g_coeffs) * dealias_mask(n)
    out[0, 0] = 0.0
    return out


def hom_norm_from_coeffs(coeffs, n, box_len, s):
    """Homogeneous norm by explicit coefficient sum (zero mode dropped)."""
    kx, ky = wavenumbers(n, box_len)
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    weights = k2**s
    weights[0, 0] = 0.0
    total = (box_len**2 / n**4) * np.sum(weights * np.abs(coeffs) ** 2)
    return np.sqrt(total)


def pairing_from_coeffs(a, b, n, box_len, s, inhomogeneous):
    kx, ky = wavenumbers(n, box_len)
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    weights = k2**s
    weights[0, 0] = 0.0
    if inhomogeneous:
        weights = weights + 1.0
        weights[0, 0] = 0.0
    return (box_len**2 / n**4) * float(np.real(np.sum(weights * a * np.conj(b))))


def l2_norm_physical(samples, box_len):
    """Physical-space quadrature of the L2 norm."""
    n = samples.shape[0]
    return np.sqrt(np.sum(samples**2) * (box_len / n) ** 2)
