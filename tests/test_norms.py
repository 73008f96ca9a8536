import math

import numpy as np
import pytest

from sqglab import (
    NormKind,
    forward_transform,
    gaussian_random_field,
    hom_norm,
    inhom_norm,
    interpolation_gap,
    low_pass,
    make_lattice,
    multi_mode_field,
    nonlinear_term,
    scalar_product,
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


class TestNormKind:
    def test_evaluate_matches_functions(self):
        lat = make_lattice(16, TWO_PI)
        f = gaussian_random_field(lat, 1.0, np.random.default_rng(8))
        assert NormKind.l2().evaluate(f) == hom_norm(f, 0.0)
        assert NormKind.hom(0.75).evaluate(f) == hom_norm(f, 0.75)
        assert NormKind.inhom(1.5).evaluate(f) == inhom_norm(f, 1.5)

    def test_invalid_kinds_rejected(self):
        with pytest.raises(ValueError):
            NormKind("besov", 1.0)
        with pytest.raises(ValueError):
            NormKind.inhom(-1.0)
        with pytest.raises(ValueError):
            NormKind.hom(math.nan)
