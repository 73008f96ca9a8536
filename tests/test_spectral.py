import numpy as np
import pytest

from sqglab import (
    SpectralField,
    dealias,
    forward_transform,
    fractional_power,
    gaussian_random_field,
    high_pass,
    hom_norm,
    inverse_transform,
    low_pass,
    make_lattice,
    multiply,
    rescale_field,
    riesz_velocity,
    unit_mode,
)
from oracles import l2_norm_physical

TWO_PI = 2.0 * np.pi


class TestMakeLattice:
    def test_unit_box_has_integer_wavenumbers(self):
        lat = make_lattice(8, TWO_PI)
        assert lat.kx[1, 0] == pytest.approx(1.0)
        assert sorted(np.unique(lat.modes1)) == list(range(-4, 4))

    def test_half_box_doubles_the_step(self):
        lat = make_lattice(8, np.pi)
        assert lat.kx[1, 0] == pytest.approx(2.0)

    def test_dealias_mask_keeps_floor_n_over_3(self):
        lat = make_lattice(128, TWO_PI)
        kept = np.abs(lat.modes1[lat.dealias_mask])
        assert kept.max() == 42
        full = (np.abs(lat.modes1) <= 42) & (np.abs(lat.modes2) <= 42)
        assert np.array_equal(lat.dealias_mask, full)

    def test_mask_symmetric_under_mode_negation(self):
        lat = make_lattice(12, TWO_PI)
        flipped = np.roll(lat.dealias_mask[::-1, ::-1], (1, 1), axis=(0, 1))
        assert np.array_equal(lat.dealias_mask, flipped)

    def test_zero_mode_wavenumber_is_zero(self):
        lat = make_lattice(16, 3.0)
        assert lat.kx[0, 0] == 0.0 and lat.ky[0, 0] == 0.0

    @pytest.mark.parametrize("n,box", [(7, TWO_PI), (4, TWO_PI), (16, 0.0), (16, -1.0)])
    def test_invalid_parameters_rejected(self, n, box):
        with pytest.raises(ValueError):
            make_lattice(n, box)


class TestTransforms:
    def test_zero_field(self):
        lat = make_lattice(16, TWO_PI)
        f = forward_transform(np.zeros((16, 16)), lat)
        assert np.all(f.coeffs == 0.0)

    def test_cosine_round_trip(self):
        lat = make_lattice(32, TWO_PI)
        X, _ = lat.grid()
        samples = np.cos(X)
        back = inverse_transform(forward_transform(samples, lat))
        np.testing.assert_allclose(back, samples, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_round_trip(self, seed):
        lat = make_lattice(24, 5.0)
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((24, 24))
        samples -= samples.mean()  # mean mode is pinned to zero by design
        back = inverse_transform(forward_transform(samples, lat))
        np.testing.assert_allclose(back, samples, atol=1e-12)

    def test_forward_enforces_conjugate_symmetry_exactly(self):
        lat = make_lattice(16, TWO_PI)
        rng = np.random.default_rng(3)
        f = forward_transform(rng.standard_normal((16, 16)), lat)
        flipped = np.conj(np.roll(f.coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))
        assert np.array_equal(f.coeffs, flipped)

    def test_shape_mismatch_rejected(self):
        lat = make_lattice(16, TWO_PI)
        with pytest.raises(ValueError):
            forward_transform(np.zeros((8, 8)), lat)
        with pytest.raises(ValueError):
            SpectralField(lat, np.zeros((8, 8), dtype=complex))

    def test_parseval_at_declared_normalization(self):
        lat = make_lattice(48, 7.0)
        f = gaussian_random_field(lat, 2.0, np.random.default_rng(4))
        phys = inverse_transform(f)
        assert hom_norm(f, 0.0) == pytest.approx(
            l2_norm_physical(phys, lat.box_len), rel=1e-10
        )


class TestFractionalPower:
    def test_unit_wavenumber_is_fixed_point(self):
        lat = make_lattice(32, TWO_PI)
        f = unit_mode(lat, 1, 0)
        g = fractional_power(f, 0.5)
        np.testing.assert_allclose(g.coeffs, f.coeffs, atol=1e-12)

    def test_eigenvalue_on_second_mode(self):
        # |D|^(2*alpha) cos(2 x1) = 2^(2*alpha) cos(2 x1) at alpha = 1/4
        lat = make_lattice(32, TWO_PI)
        f = unit_mode(lat, 2, 0)
        g = fractional_power(f, 0.5)
        np.testing.assert_allclose(g.coeffs, 2.0**0.5 * f.coeffs, rtol=1e-14)

    def test_zero_exponent_is_identity(self):
        lat = make_lattice(16, TWO_PI)
        f = gaussian_random_field(lat, 1.5, np.random.default_rng(5))
        np.testing.assert_allclose(fractional_power(f, 0.0).coeffs, f.coeffs)

    def test_exponents_compose_additively(self):
        lat = make_lattice(16, 4.0)
        f = gaussian_random_field(lat, 1.0, np.random.default_rng(6))
        via_two = fractional_power(fractional_power(f, 0.7), -1.2)
        direct = fractional_power(f, -0.5)
        np.testing.assert_allclose(via_two.coeffs, direct.coeffs, rtol=1e-12, atol=1e-15)

    def test_zero_mode_stays_zero_for_negative_orders(self):
        lat = make_lattice(16, TWO_PI)
        f = gaussian_random_field(lat, 1.0, np.random.default_rng(7))
        assert fractional_power(f, -1.0).coeffs[0, 0] == 0.0


class TestRieszVelocity:
    def test_cos_x1_gives_minus_sin_in_second_component(self):
        lat = make_lattice(32, TWO_PI)
        X, _ = lat.grid()
        u1, u2 = riesz_velocity(forward_transform(np.cos(X), lat))
        np.testing.assert_allclose(inverse_transform(u1), 0.0, atol=1e-13)
        np.testing.assert_allclose(inverse_transform(u2), -np.sin(X), atol=1e-12)

    def test_cos_x2_gives_plus_sin_in_first_component(self):
        lat = make_lattice(32, TWO_PI)
        _, Y = lat.grid()
        u1, u2 = riesz_velocity(forward_transform(np.cos(Y), lat))
        np.testing.assert_allclose(inverse_transform(u1), np.sin(Y), atol=1e-12)
        np.testing.assert_allclose(inverse_transform(u2), 0.0, atol=1e-13)

    def test_zero_field_maps_to_zero(self):
        lat = make_lattice(16, TWO_PI)
        u1, u2 = riesz_velocity(SpectralField(lat, np.zeros((16, 16), complex)))
        assert np.all(u1.coeffs == 0.0) and np.all(u2.coeffs == 0.0)

    def test_divergence_free_mode_wise(self):
        lat = make_lattice(32, 3.0)
        f = gaussian_random_field(lat, 2.0, np.random.default_rng(8))
        u1, u2 = riesz_velocity(f)
        div = lat.kx * u1.coeffs + lat.ky * u2.coeffs
        assert np.abs(div).max() <= 1e-12 * np.abs(f.coeffs).max()

    def test_modulus_identity_on_dealiased_fields(self):
        lat = make_lattice(32, TWO_PI)
        f = gaussian_random_field(lat, 2.0, np.random.default_rng(9))
        u1, u2 = riesz_velocity(f)
        speed = np.sqrt(np.abs(u1.coeffs) ** 2 + np.abs(u2.coeffs) ** 2)
        np.testing.assert_allclose(speed, np.abs(f.coeffs), atol=1e-13)


class TestFrequencySplit:
    def test_two_mode_split(self):
        lat = make_lattice(32, TWO_PI)
        X, _ = lat.grid()
        theta = forward_transform(np.cos(X) + np.cos(3 * X), lat)
        low = low_pass(theta, 2.0)
        high = high_pass(theta, 2.0)
        np.testing.assert_allclose(inverse_transform(low), np.cos(X), atol=1e-12)
        np.testing.assert_allclose(inverse_transform(high), np.cos(3 * X), atol=1e-12)

    def test_cutoff_beyond_lattice_keeps_everything_low(self):
        lat = make_lattice(16, TWO_PI)
        f = gaussian_random_field(lat, 1.0, np.random.default_rng(10))
        delta = lat.kmag.max() + 1.0
        assert np.array_equal(low_pass(f, delta).coeffs, f.coeffs)
        assert np.all(high_pass(f, delta).coeffs == 0.0)

    def test_partition_is_exact_and_idempotent(self):
        lat = make_lattice(24, 5.0)
        f = gaussian_random_field(lat, 1.0, np.random.default_rng(11))
        low, high = low_pass(f, 3.0), high_pass(f, 3.0)
        assert np.array_equal(low.coeffs + high.coeffs, f.coeffs)
        assert np.array_equal(low_pass(low, 3.0).coeffs, low.coeffs)
        assert np.array_equal(high_pass(high, 3.0).coeffs, high.coeffs)

    def test_energy_splits_by_parseval(self):
        lat = make_lattice(24, TWO_PI)
        f = gaussian_random_field(lat, 1.0, np.random.default_rng(12))
        total = hom_norm(f, 0.0) ** 2
        parts = hom_norm(low_pass(f, 2.5), 0.0) ** 2 + hom_norm(high_pass(f, 2.5), 0.0) ** 2
        assert parts == pytest.approx(total, rel=1e-13)

    def test_nonpositive_cutoff_rejected(self):
        lat = make_lattice(16, TWO_PI)
        f = unit_mode(lat, 1, 0)
        with pytest.raises(ValueError):
            low_pass(f, 0.0)
        with pytest.raises(ValueError):
            high_pass(f, -1.0)


class TestRescale:
    ALPHA = 0.3

    def test_identity_at_lambda_one(self):
        lat = make_lattice(16, TWO_PI)
        f = gaussian_random_field(lat, 2.0, np.random.default_rng(13))
        g = rescale_field(f, 1, self.ALPHA)
        assert g.lattice.box_len == lat.box_len
        np.testing.assert_allclose(g.coeffs, f.coeffs)

    def test_critical_norm_invariant(self):
        lat = make_lattice(32, TWO_PI)
        f = gaussian_random_field(lat, 2.5, np.random.default_rng(14))
        g = rescale_field(f, 2, self.ALPHA)
        s = 2.0 - 2.0 * self.ALPHA
        assert hom_norm(g, s) == pytest.approx(hom_norm(f, s), rel=1e-12)

    def test_l2_scales_by_the_exact_power(self):
        lat = make_lattice(32, TWO_PI)
        f = gaussian_random_field(lat, 2.5, np.random.default_rng(15))
        g = rescale_field(f, 2, self.ALPHA)
        expected = 2.0 ** (2.0 * self.ALPHA - 2.0)
        assert hom_norm(g, 0.0) / hom_norm(f, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_physical_values_match_the_scaling_map(self):
        lat = make_lattice(32, TWO_PI)
        X, Y = lat.grid()
        f = forward_transform(np.cos(X) + 0.25 * np.sin(2 * Y), lat)
        g = rescale_field(f, 2, self.ALPHA)
        Xs, Ys = g.lattice.grid()
        expected = 2.0 ** (2 * self.ALPHA - 1) * (
            np.cos(2 * Xs) + 0.25 * np.sin(4 * Ys)
        )
        np.testing.assert_allclose(inverse_transform(g), expected, atol=1e-12)

    @pytest.mark.parametrize("lam", [0, -2, 1.5])
    def test_non_positive_or_fractional_lambda_rejected(self, lam):
        lat = make_lattice(16, TWO_PI)
        f = unit_mode(lat, 1, 0)
        with pytest.raises(ValueError):
            rescale_field(f, lam, self.ALPHA)


class TestProducts:
    def test_product_of_two_cosines(self):
        # cos(x1) * cos(x2) = (cos(x1-x2) + cos(x1+x2)) / 2
        lat = make_lattice(32, TWO_PI)
        X, Y = lat.grid()
        p = multiply(forward_transform(np.cos(X), lat), forward_transform(np.cos(Y), lat))
        np.testing.assert_allclose(
            inverse_transform(p), np.cos(X) * np.cos(Y), atol=1e-12
        )

    def test_dealias_projects_onto_the_mask(self):
        lat = make_lattice(16, TWO_PI)
        f = gaussian_random_field(lat, 0.5, np.random.default_rng(16), band_limit=False)
        g = dealias(f)
        assert np.all(g.coeffs[~lat.dealias_mask] == 0.0)
        assert np.array_equal(g.coeffs[lat.dealias_mask], f.coeffs[lat.dealias_mask])

    def test_lattice_mismatch_rejected(self):
        a = unit_mode(make_lattice(16, TWO_PI), 1, 0)
        b = unit_mode(make_lattice(32, TWO_PI), 1, 0)
        with pytest.raises(ValueError):
            multiply(a, b)


class TestHalfSpectrumKernel:
    @pytest.mark.parametrize("n", [8, 16, 48, 64, 128])
    def test_fold_then_expand_is_the_hermitian_projection_bit_for_bit(self, n):
        from oracles import hermitian_projection
        from sqglab.spectral import _expand_half, _fold_half

        rng = np.random.default_rng(n)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = _expand_half(_fold_half(c), n)
        assert np.array_equal(got.view(np.uint64), hermitian_projection(c).view(np.uint64))

    @pytest.mark.parametrize("n", [16, 64])
    def test_batched_products_equal_per_pair_multiply(self, n):
        from sqglab.spectral import _expand_half, _quadratic_coeffs

        lat = make_lattice(n, TWO_PI)
        m = n // 2 + 1
        rng = np.random.default_rng(n)
        f, *gs = (gaussian_random_field(lat, 2.0, rng) for _ in range(4))
        stack = np.stack([g.coeffs[:, :m] for g in gs])
        out, _ = _quadratic_coeffs(lat, f.coeffs[None, None, :, :m], stack[:, None])
        assert out.shape == (3, n, m)
        for got, g in zip(out, gs):
            assert np.array_equal(_expand_half(got, n), multiply(f, g).coeffs)

    @pytest.mark.parametrize("n", [16, 64])
    def test_batched_advection_shares_the_gradient_and_equals_advect(self, n):
        from sqglab import advect
        from sqglab.spectral import _advection_coeffs, _expand_half

        lat = make_lattice(n, TWO_PI)
        m = n // 2 + 1
        rng = np.random.default_rng(n + 1)
        omega, theta = (gaussian_random_field(lat, 2.0, rng) for _ in range(2))
        pair = np.stack([omega.coeffs[:, :m], theta.coeffs[:, :m]])
        out, velocity = _advection_coeffs(lat, pair, theta.coeffs[:, :m])
        assert out.shape == (2, n, m) and velocity.shape == (2, 2, n, n)
        for got, w in zip(out, (omega, theta)):
            assert np.array_equal(_expand_half(got, n), advect(w, theta).coeffs)

    def test_advection_is_the_masked_transform_of_the_two_term_sum(self):
        # the solver's tendency is rfft2(u1 * d1 theta + u2 * d2 theta), masked
        from sqglab.spectral import _advection_coeffs, _half_multipliers

        lat = make_lattice(32, TWO_PI)
        theta = gaussian_random_field(lat, 2.0, np.random.default_rng(3)).coeffs[:, :17]
        velocity, grad, mask = _half_multipliers(lat)
        u = np.fft.irfft2(velocity * theta, s=(32, 32))
        d = np.fft.irfft2(grad * theta, s=(32, 32))
        want = np.fft.rfft2(u[0] * d[0] + u[1] * d[1]) * mask
        got, velocity_p = _advection_coeffs(lat, theta, theta)
        assert np.array_equal(got, want)
        assert np.array_equal(velocity_p, u)
