"""Independent reference computations for cross-validating the spectral path.

Everything here deliberately avoids the package's FFT-based kernels: products
are direct O(n^4) circular convolution sums over modes, norms come from
physical-space quadrature or explicit coefficient sums, and the velocity /
gradient symbols are rebuilt mode by mode from their definitions.  The decay
references split each mode at the cutoff on its own |xi| and sum the norms of
the two parts mode by mode, with no shell spectrum.
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


def band_coeffs(coeffs, n, box_len, delta):
    """Per-mode split at delta: the |xi| < delta part and the |xi| >= delta part."""
    kx, ky = wavenumbers(n, box_len)
    low = np.sqrt(kx**2 + ky**2) < delta
    return np.where(low, coeffs, 0.0), np.where(low, 0.0, coeffs)


def band_norms(traj, delta, s, part):
    """Per-snapshot Hdot^s norm of the low (part 0) or high (part 1) part."""
    n, box_len = traj.config.n, traj.config.box_len
    return np.array(
        [
            hom_norm_from_coeffs(band_coeffs(snap.coeffs, n, box_len, delta)[part], n, box_len, s)
            for snap in traj.snapshots
        ]
    )


def duhamel_bound(traj, delta, alpha, c_hat):
    """duhamel_highfreq_bound from per-mode filters: (int_v_negsigma, m_delta)."""
    cfg = traj.config
    sigma = 2.0 - 3.0 * alpha
    t = np.asarray(traj.snapshot_times)
    int_v = float(np.trapezoid(band_norms(traj, delta, -sigma, 1) ** 2, t))
    theta0_l2sq = hom_norm_from_coeffs(traj.snapshots[0].coeffs, cfg.n, cfg.box_len, 0.0) ** 2
    int_ha = float(np.trapezoid(traj.series.h_alpha**2, traj.series.times))
    linear_part = np.sqrt(delta ** (-2.0 * sigma - 2.0 * alpha) * theta0_l2sq / 2.0)
    forced_part = c_hat * np.sqrt(delta ** (-2.0 * alpha) * int_ha)
    return int_v, float((linear_part + forced_part) ** 2)


def split_ledger(traj, delta, c_hat):
    """split_diagnostics from per-mode filters.

    Returns (sup_w_L2, int_w_Ha, eps_delta, int_v_negsigma, m_delta).
    """
    cfg = traj.config
    alpha = cfg.alpha
    t = np.asarray(traj.snapshot_times)
    w_l2 = band_norms(traj, delta, 0.0, 0)
    int_w = float(np.trapezoid(band_norms(traj, delta, alpha, 0) ** 2, t))
    theta0_l2 = hom_norm_from_coeffs(traj.snapshots[0].coeffs, cfg.n, cfg.box_len, 0.0)
    eps_delta = w_l2[0] ** 2 + c_hat * delta ** (2.0 - 2.0 * alpha) * theta0_l2**3
    int_v, m_delta = duhamel_bound(traj, delta, alpha, c_hat)
    return float(w_l2.max()), int_w, float(eps_delta), int_v, m_delta


def embedding_slack(traj, deltas):
    """Per-snapshot worst (||v||^2 - ||v||_{-sigma}^{2a} ||v||_{a}^{2(1-a)}) / ||v||^2.

    v is the high part at each cutoff, a = alpha / (sigma + alpha); cutoffs
    with an empty high part are skipped and the worst starts at 0.
    """
    alpha = traj.config.alpha
    sigma = 2.0 - 3.0 * alpha
    a = alpha / (sigma + alpha)
    worst = np.zeros(len(traj.snapshots))
    for delta in deltas:
        v_l2 = band_norms(traj, delta, 0.0, 1)
        v_neg = band_norms(traj, delta, -sigma, 1)
        v_ha = band_norms(traj, delta, alpha, 1)
        for i in np.nonzero(v_l2 > 0)[0]:
            rhs = v_neg[i] ** (2 * a) * v_ha[i] ** (2 * (1 - a))
            worst[i] = max(worst[i], (v_l2[i] ** 2 - rhs) / v_l2[i] ** 2)
    return worst


def exp_kernel_sides(h, sigma, t_end):
    """Both sides of the exponential-kernel inequality for one 1-d profile.

    The left side is squared as a Python float, as the package does.
    """
    z = np.linspace(0.0, t_end, h.size)
    kernel = np.exp(-sigma * (t_end - z))
    lhs = float(np.trapezoid(kernel * h, z)) ** 2
    rhs = (2.0 / sigma) * float(np.trapezoid(kernel * h**2, z))
    return lhs, rhs


def exp_kernel_ensemble(count, seed, grid=201, sigma_range=(0.05, 10.0), t_range=(0.1, 5.0)):
    """The 2.5-expkernel ensemble one profile at a time.

    Same draws in the same order as estimate_constant; each profile gets its
    own grid, kernel and two 1-d trapezoid sums (exp_kernel_sides).  Returns
    (max_ratio, violations, degenerate_samples).
    """
    rng = np.random.default_rng(seed)
    max_ratio, violations, degenerate = 0.0, 0, 0
    for _ in range(count):
        sigma = float(rng.uniform(*sigma_range))
        t_end = float(rng.uniform(*t_range))
        segments = int(rng.integers(1, 12))
        levels = rng.uniform(0.0, 3.0, size=segments)
        h = np.repeat(levels, -(-grid // segments))[:grid]
        lhs, rhs = exp_kernel_sides(h, sigma, t_end)
        tol = (sigma * (t_end / (grid - 1))) ** 2 / 8.0 + 1e-9
        if rhs == 0.0:
            if lhs > 0.0:
                violations += 1
            else:
                degenerate += 1
            continue
        max_ratio = max(max_ratio, lhs / rhs)
        if lhs / rhs > 1.0 + tol:
            violations += 1
    return max_ratio, violations, degenerate


def elementary_ensemble(count, seed, mag_range=(0.0, 10.0), sigma_range=(1.0, 2.0)):
    """The elementary ensemble over whole arrays, no slicing.

    Returns (max_ratio, violations, degenerate_samples).
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(*mag_range, size=count)
    c = rng.uniform(*mag_range, size=count)
    s = rng.uniform(*sigma_range, size=count)
    gap = np.abs(a - c)
    lhs = np.abs(a**s - c**s)
    rhs = s * 2.0 ** (s - 1.0) * gap * (c ** (s - 1.0) + gap ** (s - 1.0))
    zero = rhs == 0.0
    degenerate = int(np.count_nonzero(zero & (lhs == 0.0)))
    violations = int(np.count_nonzero((zero & (lhs > 0.0)) | (~zero & (lhs > rhs * (1 + 1e-12)))))
    good = ~zero
    max_ratio = float(np.max(lhs[good] / rhs[good])) if good.any() else 0.0
    return max_ratio, violations, degenerate
