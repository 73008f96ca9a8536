import math

import numpy as np
import pytest

import oracles
from sqglab import (
    default_delta_ladder,
    forward_transform,
    gaussian_random_field,
    high_pass,
    hom_norm,
    inhom_norm,
    interpolation_gap,
    low_pass,
    make_lattice,
    multi_mode_field,
    nonlinear_term,
    scalar_product,
    shell_spectrum,
    unit_mode,
)

TWO_PI = 2.0 * np.pi


class TestHomNorm:
    def test_single_mode_values(self):
        lat = make_lattice(32, TWO_PI)
        X, _ = lat.grid()
        f = forward_transform(np.cos(X), lat)
        assert hom_norm(f, 0.0) ** 2 == pytest.approx(2.0 * np.pi**2, rel=1e-13)
        # |xi| = 1 makes every homogeneous order agree with L2
        for s in (-1.0, 0.3, 1.5, 2.0):
            assert hom_norm(f, s) == pytest.approx(hom_norm(f, 0.0), rel=1e-13)

    def test_zero_field(self):
        lat = make_lattice(16, TWO_PI)
        f = multi_mode_field(lat, [])
        for s in (-0.5, 0.0, 1.0):
            assert hom_norm(f, s) == 0.0

    def test_gaussian_against_radial_integral(self):
        # || e^{-|x|^2/2} ||_{Hdot^s}^2 = 2*pi * int r^{2s+1} e^{-r^2} dr
        #                               = pi * Gamma(s + 1)
        # on a box large enough that periodization is negligible.
        s = 0.5
        lat = make_lattice(256, 30.0)
        X, Y = lat.grid()
        half = lat.box_len / 2.0
        f = forward_transform(np.exp(-((X - half) ** 2 + (Y - half) ** 2) / 2.0), lat)
        oracle = math.sqrt(math.pi * math.gamma(s + 1.0))
        assert hom_norm(f, s) == pytest.approx(oracle, rel=1e-3)

    def test_non_finite_order_rejected(self):
        lat = make_lattice(16, TWO_PI)
        with pytest.raises(ValueError):
            hom_norm(unit_mode(lat, 1, 0), math.inf)


class TestInhomNorm:
    def test_unit_wavenumber_doubles_the_energy(self):
        lat = make_lattice(32, TWO_PI)
        f = unit_mode(lat, 0, 1)
        assert inhom_norm(f, 1.7) == pytest.approx(
            math.sqrt(2.0) * hom_norm(f, 0.0), rel=1e-13
        )

    def test_zero_field(self):
        lat = make_lattice(16, TWO_PI)
        assert inhom_norm(multi_mode_field(lat, []), 1.0) == 0.0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_pythagorean_identity(self, seed):
        lat = make_lattice(24, 3.0)
        f = gaussian_random_field(lat, 1.5, np.random.default_rng(seed))
        s = 1.5
        assert inhom_norm(f, s) ** 2 == pytest.approx(
            hom_norm(f, 0.0) ** 2 + hom_norm(f, s) ** 2, rel=1e-14
        )

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_nonpositive_order_rejected(self, s):
        lat = make_lattice(16, TWO_PI)
        with pytest.raises(ValueError):
            inhom_norm(unit_mode(lat, 1, 0), s)


class TestScalarProduct:
    def test_diagonal_recovers_norms(self):
        lat = make_lattice(24, TWO_PI)
        f = gaussian_random_field(lat, 2.0, np.random.default_rng(2))
        for s in (-0.5, 0.0, 1.25):
            assert scalar_product(f, f, s) == pytest.approx(hom_norm(f, s) ** 2, rel=1e-13)
        assert scalar_product(f, f, 1.25, homogeneous=False) == pytest.approx(
            inhom_norm(f, 1.25) ** 2, rel=1e-13
        )

    def test_distinct_modes_orthogonal(self):
        lat = make_lattice(32, TWO_PI)
        assert scalar_product(unit_mode(lat, 1, 0), unit_mode(lat, 2, 0)) == 0.0

    def test_symmetry_and_cauchy_schwarz(self):
        lat = make_lattice(24, TWO_PI)
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = gaussian_random_field(lat, 1.0, rng)
            g = gaussian_random_field(lat, 1.0, rng)
            s = float(rng.uniform(-1.0, 2.0))
            fg = scalar_product(f, g, s)
            assert fg == pytest.approx(scalar_product(g, f, s), rel=1e-12, abs=1e-15)
            assert abs(fg) <= hom_norm(f, s) * hom_norm(g, s) * (1.0 + 1e-12)

    def test_lattice_mismatch_rejected(self):
        f = unit_mode(make_lattice(16, TWO_PI), 1, 0)
        g = unit_mode(make_lattice(16, 4.0), 1, 0)
        with pytest.raises(ValueError):
            scalar_product(f, g)

    def test_inhomogeneous_pairing_needs_positive_order(self):
        lat = make_lattice(16, TWO_PI)
        f = unit_mode(lat, 1, 0)
        with pytest.raises(ValueError):
            scalar_product(f, f, 0.0, homogeneous=False)

    def test_advection_pairing_cancels(self):
        # <u_theta . grad theta, theta>_{L2} = 0 for dealiased fields
        lat = make_lattice(32, TWO_PI)
        rng = np.random.default_rng(4)
        for _ in range(5):
            theta = gaussian_random_field(lat, 2.0, rng, normalize=False)
            pairing = scalar_product(nonlinear_term(theta), theta, 0.0)
            scale = hom_norm(theta, 0.0) * inhom_norm(theta, 1.0) ** 2
            assert abs(pairing) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [48, 96])
    def test_advection_pairing_cancels_when_3_divides_n(self, n):
        # the 2/3 mask keeps |j| <= (n-1)//3, which is alias-free for these n
        # too; rough fields (flat spectrum) would expose any aliasing
        lat = make_lattice(n, TWO_PI)
        rng = np.random.default_rng(4)
        for slope in (0.0, 2.0):
            theta = gaussian_random_field(lat, slope, rng, normalize=False)
            pairing = scalar_product(nonlinear_term(theta), theta, 0.0)
            scale = hom_norm(theta, 0.0) * inhom_norm(theta, 1.0) ** 2
            assert abs(pairing) <= 1e-15 * scale


class TestInterpolationGap:
    ALPHA = 0.25

    def test_single_mode_is_the_equality_case(self):
        lat = make_lattice(32, TWO_PI)
        theta = unit_mode(lat, 2, 1)
        gap = interpolation_gap(theta, self.ALPHA)
        rhs_scale = hom_norm(theta, 2.0 - 2.0 * self.ALPHA)
        assert abs(gap) <= 1e-12 * rhs_scale

    def test_two_mode_fields_nonnegative(self):
        lat = make_lattice(32, TWO_PI)
        rng = np.random.default_rng(5)
        for _ in range(50):
            modes = [
                (int(rng.integers(1, 6)), int(rng.integers(-5, 6)), rng.uniform(0.1, 2), rng.uniform(0, TWO_PI)),
                (int(rng.integers(1, 6)), int(rng.integers(-5, 6)), rng.uniform(0.1, 2), rng.uniform(0, TWO_PI)),
            ]
            theta = multi_mode_field(lat, modes)
            gap = interpolation_gap(theta, self.ALPHA)
            rhs = gap + hom_norm(theta, 2.0 - 2.0 * self.ALPHA)
            assert gap >= -1e-10 * rhs

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
    def test_broadband_property(self, alpha):
        lat = make_lattice(32, TWO_PI)
        rng = np.random.default_rng(6)
        for _ in range(200):
            theta = gaussian_random_field(lat, float(rng.uniform(0.5, 3.0)), rng)
            gap = interpolation_gap(theta, alpha)
            rhs = gap + hom_norm(theta, 2.0 - 2.0 * alpha)
            assert gap >= -1e-10 * rhs

    def test_zero_field_rejected(self):
        lat = make_lattice(16, TWO_PI)
        with pytest.raises(ValueError):
            interpolation_gap(multi_mode_field(lat, []), self.ALPHA)


class TestBernstein:
    def test_low_pass_norms_obey_the_support_bound(self):
        # on |xi| < delta: ||f||_{Hdot^s} <= delta^(s-t) ||f||_{Hdot^t}, s >= t
        lat = make_lattice(32, TWO_PI)
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = gaussian_random_field(lat, 1.0, rng)
            delta = float(rng.uniform(1.5, 8.0))
            low = low_pass(f, delta)
            s = float(rng.uniform(0.0, 2.0))
            t = s - float(rng.uniform(0.0, 1.5))
            lhs = hom_norm(low, s)
            rhs = delta ** (s - t) * hom_norm(low, t)
            assert lhs <= rhs * (1.0 + 1e-12)



class TestShellSpectrum:
    ALPHA = 0.25
    ORDERS = (0.0, ALPHA, -(2.0 - 3.0 * ALPHA))
    LADDER = tuple(0.5 * 2.0 ** (i / 3.0) for i in range(16))

    def test_radii_ascend_over_the_occupied_shells(self):
        lat = make_lattice(16, TWO_PI)
        radii, energy = shell_spectrum(unit_mode(lat, 3, 4))
        shells = sorted({j1 * j1 + j2 * j2 for j1 in range(-8, 8) for j2 in range(-8, 8)})
        np.testing.assert_allclose(radii, np.sqrt(shells[1:]), rtol=1e-15)
        # the (3, 4) mode and its mirror lie on the shell of radius 5
        assert np.count_nonzero(energy) == 1
        assert energy[np.searchsorted(radii, 5.0)] == pytest.approx(
            hom_norm(unit_mode(lat, 3, 4), 0.0) ** 2, rel=1e-14
        )

    @pytest.mark.parametrize("box_len", [TWO_PI, 3.7])
    @pytest.mark.parametrize("slope", [1.0, 8.0])
    def test_prefix_and_suffix_sums_match_the_per_mode_filters(self, box_len, slope):
        # A cutoff within an ulp of a shell radius is decided per shell: at
        # box 3.7 some shells hold modes whose kmag differ by one ulp.  Every
        # cutoff here either sits on a radius all of whose modes share it, or
        # keeps 1e-9 from every mode.
        lat = make_lattice(64, box_len)
        f = gaussian_random_field(lat, slope, np.random.default_rng(11), band_limit=False)
        radii, energy = shell_spectrum(f)
        tiny_tails = 0
        for delta in default_delta_ladder(lat) + self.LADDER:
            gap = np.abs(lat.kmag - delta)
            assert np.all((gap == 0.0) | (gap >= 1e-9)), delta
            cut = np.searchsorted(radii, delta)
            for s in self.ORDERS:
                terms = energy * radii ** (2.0 * s)
                want_low = hom_norm(low_pass(f, delta), s)
                want_high = hom_norm(high_pass(f, delta), s)
                low, high = math.sqrt(terms[:cut].sum()), math.sqrt(terms[cut:].sum())
                assert low == pytest.approx(want_low, rel=1e-12, abs=0.0)
                assert high == pytest.approx(want_high, rel=1e-12, abs=0.0)
                tiny_tails += 0.0 < high**2 < 1e-12 * hom_norm(f, s) ** 2
        if slope == 8.0:
            # high parts far below the total, where total - low would have
            # lost every digit
            assert tiny_tails > 0


class TestHalfSpectrumPath:
    """Every norm is read from columns 0 .. n/2; the oracles sum all n^2 modes."""

    SIZES = (8, 12, 48, 64, 128)
    ORDERS = (0.0, 0.25, 1.5, -0.75)

    @staticmethod
    def draws(lat, seed):
        # unbanded, so the Nyquist row and column carry energy; the second
        # field comes from physical samples through forward_transform
        rng = np.random.default_rng(seed)
        f = gaussian_random_field(lat, 1.5, rng, band_limit=False)
        g = forward_transform(rng.standard_normal((lat.n, lat.n)), lat)
        return f, g

    @pytest.mark.parametrize("box_len", [TWO_PI, 3.7])
    @pytest.mark.parametrize("n", SIZES)
    def test_norms_and_pairings_match_full_spectrum_sums(self, n, box_len):
        lat = make_lattice(n, box_len)
        f, g = self.draws(lat, n)
        for s in self.ORDERS:
            for h in (f, g):
                want = oracles.hom_norm_from_coeffs(h.coeffs, n, box_len, s)
                assert hom_norm(h, s) == pytest.approx(want, rel=1e-13, abs=0.0)
            scale = hom_norm(f, s) * hom_norm(g, s)
            want = oracles.pairing_from_coeffs(f.coeffs, g.coeffs, n, box_len, s, False)
            assert abs(scalar_product(f, g, s) - want) <= 1e-13 * scale
            if s > 0:
                scale = inhom_norm(f, s) * inhom_norm(g, s)
                want = oracles.pairing_from_coeffs(f.coeffs, g.coeffs, n, box_len, s, True)
                got = scalar_product(f, g, s, homogeneous=False)
                assert abs(got - want) <= 1e-13 * scale

    @pytest.mark.parametrize("box_len", [TWO_PI, 3.7])
    @pytest.mark.parametrize("n", SIZES)
    def test_shell_spectrum_matches_per_mode_shell_sums(self, n, box_len):
        lat = make_lattice(n, box_len)
        f, _ = self.draws(lat, n + 1)
        radii, energy = shell_spectrum(f)
        shells, want = oracles.shell_energy_from_coeffs(f.coeffs, n, box_len)
        np.testing.assert_allclose(radii, lat.kmin * np.sqrt(shells), rtol=1e-15)
        np.testing.assert_allclose(energy, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_a_stacked_reduction_equals_the_per_field_ones_exactly(self, n):
        from sqglab.norms import _half_pairings, _half_sq_norms

        lat = make_lattice(n, 3.7)
        fields = [self.draws(lat, seed)[k] for seed in range(3) for k in (0, 1)]
        stack = np.stack([h.coeffs[:, : n // 2 + 1] for h in fields])
        for s in self.ORDERS:
            squares = _half_sq_norms(lat, stack, s)
            assert [math.sqrt(v) for v in squares] == [hom_norm(h, s) for h in fields]
            pairings = _half_pairings(lat, stack, stack[0], s).tolist()
            assert pairings == [scalar_product(h, fields[0], s) for h in fields]
