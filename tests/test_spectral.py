import ast
import math

import numpy as np
import pytest

from sqglab import (
    SolverConfig,
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
    multi_mode_field,
    multiply,
    rescale_field,
    riesz_velocity,
    scalar_product,
    simulate,
    unit_mode,
)
from sqglab.spectral import _half_symbol
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

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_exponent_is_rejected_and_caches_nothing(self, s):
        # a NaN key never hits the cache, so an unchecked exponent would store
        # one more array per call
        lat = make_lattice(16, TWO_PI)
        f = unit_mode(lat, 1, 0)
        cached = len(lat._symbol_cache)
        for _ in range(3):
            with pytest.raises(ValueError, match="finite"):
                scalar_product(f, f, s)
            with pytest.raises(ValueError, match="finite"):
                fractional_power(f, s)
        assert len(lat._symbol_cache) == cached


def _cached_arrays(value):
    """Every ndarray in a cache value, looking inside tuples."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, tuple):
        return [a for v in value for a in _cached_arrays(v)]
    return []


class TestHalfSymbol:
    @pytest.mark.parametrize("n", [8, 10, 64, 128])
    @pytest.mark.parametrize("box_len", [TWO_PI, 3.7])
    def test_equals_the_half_columns_of_the_full_symbol_bit_for_bit(self, n, box_len):
        lat = make_lattice(n, box_len)
        for s in (-4.0, -1.0, 0.0, 0.5, 1.5, 2.0, 3.0, 3.5):
            half = _half_symbol(lat, s)
            assert half.shape == (n, n // 2 + 1)
            assert half[0, 0] == 0.0
            full = lat.symbol_power(s)
            assert half.tobytes() == np.ascontiguousarray(full[:, : n // 2 + 1]).tobytes()

    def test_is_cached_per_lattice_and_exponent(self):
        lat = make_lattice(16, TWO_PI)
        assert _half_symbol(lat, 1.5) is _half_symbol(lat, 1.5)
        assert _half_symbol(lat, 1.5) is not _half_symbol(lat, 2.5)
        assert _half_symbol(lat, 1.5) is not _half_symbol(make_lattice(16, TWO_PI), 1.5)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_exponent_is_rejected_and_caches_nothing(self, s):
        lat = make_lattice(16, TWO_PI)
        _half_symbol(lat, 1.0)
        cached = list(lat._symbol_cache)
        for _ in range(3):
            with pytest.raises(ValueError, match="finite"):
                _half_symbol(lat, s)
        assert list(lat._symbol_cache) == cached

    def test_a_run_caches_no_full_layout(self):
        # the stepper, the norms and the velocity read half-spectrum symbols;
        # the full layout is cached only for the field generators
        n = 32
        lat = make_lattice(n, TWO_PI)
        theta0 = multi_mode_field(lat, [(1, 0, 1.0, 0.0), (2, 3, 0.5, 1.0)])
        cfg = SolverConfig(
            alpha=0.25, n=n, dt=0.01, t_end=0.1, snapshot_every=2,
            track_cancellation=True, init_kind="multi_mode", init_norm_rel=None,
        )
        record = simulate(theta0, cfg)
        assert record.snapshots
        arrays = [a for v in lat._symbol_cache.values() for a in _cached_arrays(v)]
        assert arrays
        assert all(a.shape[-2:] != (n, n) for a in arrays)

    def test_a_run_keeps_no_symbol_that_only_built_a_cached_array(self):
        # the norm weights and the Riesz velocity read one power each and cache
        # what they build from it; only the stepper's dissipation symbol stays
        n = 32
        lat = make_lattice(n, TWO_PI)
        theta0 = multi_mode_field(lat, [(1, 0, 1.0, 0.0), (2, 3, 0.5, 1.0)])
        cfg = SolverConfig(
            alpha=0.25, n=n, dt=0.01, t_end=0.1, snapshot_every=2,
            track_cancellation=True, init_kind="multi_mode", init_norm_rel=None,
        )
        simulate(theta0, cfg)
        cache = lat._symbol_cache
        assert ("half-weight", 1.75, True) in cache and "half-multipliers" in cache
        halves = {k for k in cache if isinstance(k, tuple) and k[0] == "half-symbol"}
        assert halves == {("half-symbol", 0.5)}

    @pytest.mark.parametrize("n", [8, 10, 64])
    @pytest.mark.parametrize("box_len", [TWO_PI, 3.7])
    def test_weights_and_multipliers_equal_those_of_the_cached_symbol(self, n, box_len):
        from sqglab.norms import _half_weight, parseval_weight
        from sqglab.spectral import _half_columns, _half_multipliers, _zero_nyquist

        lat = make_lattice(n, box_len)
        column = np.full(n // 2 + 1, 2.0)
        column[0] = column[-1] = 1.0
        for s in (0.0, 0.25, 1.0, 1.5, 1.75, -0.5):
            symbol = _half_symbol(lat, 2.0 * s)
            expected = parseval_weight(lat) * column * symbol
            assert _half_weight(lat, s).tobytes() == expected.tobytes()
            inhom = 1.0 + symbol
            inhom[0, 0] = 0.0
            expected = parseval_weight(lat) * column * inhom
            assert _half_weight(lat, s, homogeneous=False).tobytes() == expected.tobytes()
        inv = _half_symbol(lat, -1.0)
        kx, ky = _half_columns(lat.kx), _half_columns(lat.ky)
        velocity = _zero_nyquist(np.stack([-1j * ky * inv, 1j * kx * inv]), n)
        assert _half_multipliers(lat)[0].tobytes() == velocity.tobytes()


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


PRUNED_SIZES = [8, 10, 12, 14, 16, 48, 64, 96, 128]


def _unpruned(lat, left, right):
    """The kernel as irfft2, the pointwise sum, rfft2 and the mask."""
    from sqglab.spectral import _half_multipliers

    shape = (lat.n, lat.n)
    left_p = np.fft.irfft2(left, s=shape)
    right_p = np.fft.irfft2(right, s=shape)
    (a, b), *rest = zip(np.moveaxis(left_p, -3, 0), np.moveaxis(right_p, -3, 0))
    prod = a * b
    for a, b in rest:
        prod = prod + a * b
    return np.fft.rfft2(prod) * _half_multipliers(lat)[2], left_p


class TestPrunedKernel:
    """The kernel transforms only the columns the 2/3 rule keeps, bit for bit."""

    @staticmethod
    def assert_unpruned(lat, left, right):
        from sqglab.spectral import _quadratic_coeffs

        keep = (lat.n - 1) // 3 + 1
        got, got_left = _quadratic_coeffs(lat, left, right)
        want, want_left = _unpruned(lat, left, right)
        assert got_left.tobytes() == want_left.tobytes()
        assert got[..., :keep].tobytes() == want[..., :keep].tobytes()
        assert np.array_equal(got, want)
        assert not got[..., keep:].any()
        return got, got_left

    @pytest.mark.parametrize("n", PRUNED_SIZES)
    def test_advection_operands_equal_the_unpruned_transforms(self, n):
        from sqglab.spectral import _half_multipliers

        lat = make_lattice(n, TWO_PI)
        theta = gaussian_random_field(lat, 2.0, np.random.default_rng(n)).half
        velocity, grad, _ = _half_multipliers(lat)
        self.assert_unpruned(lat, velocity * theta, grad * theta)

    @pytest.mark.parametrize("n", PRUNED_SIZES)
    def test_stacked_and_broadcast_operands_as_the_lab_cores_pass_them(self, n):
        from sqglab.spectral import _half_multipliers

        lat = make_lattice(n, TWO_PI)
        rng = np.random.default_rng(n + 1)
        f, *gs = (gaussian_random_field(lat, 2.0, rng).half for _ in range(4))
        # the product-law core: f against the stack of its partners
        got, _ = self.assert_unpruned(lat, f[None, None], np.stack(gs)[:, None])
        assert got.shape == (3, n, n // 2 + 1)
        # the bilinear core: the advection of (omega, theta) by theta
        velocity, grad, _ = _half_multipliers(lat)
        pair = np.stack(gs[:2])
        self.assert_unpruned(lat, velocity * pair[:, None], grad * gs[1][None])

    @pytest.mark.parametrize("n", PRUNED_SIZES)
    def test_an_operand_that_is_not_band_limited_transforms_every_column(self, n):
        lat = make_lattice(n, TWO_PI)
        rng = np.random.default_rng(n + 2)
        wide = gaussian_random_field(lat, 1.0, rng, band_limit=False).half
        narrow = gaussian_random_field(lat, 1.0, rng).half
        assert wide[:, (n - 1) // 3 + 1 :].any()
        for left, right in ((wide, narrow), (narrow, wide), (wide, wide)):
            self.assert_unpruned(lat, left[None], right[None])

    @pytest.mark.parametrize("n", [16, 64])
    def test_a_later_call_leaves_earlier_results_alone(self, n):
        from sqglab.spectral import _half_multipliers, _quadratic_coeffs

        lat = make_lattice(n, TWO_PI)
        rng = np.random.default_rng(n + 3)
        velocity, grad, _ = _half_multipliers(lat)
        operands = []
        for band_limit in (True, False, True) * 2:
            theta = gaussian_random_field(lat, 2.0, rng, band_limit=band_limit).half
            operands.append((velocity * theta, grad * theta))
        results = [_quadratic_coeffs(lat, *pair) for pair in operands[:3]]
        kept = [(out.copy(), left.copy()) for out, left in results]
        for pair in operands[3:]:  # the same shapes, other values
            _quadratic_coeffs(lat, *pair)
        for (out, left), (out_then, left_then) in zip(results, kept):
            assert out.tobytes() == out_then.tobytes()
            assert left.tobytes() == left_then.tobytes()
        # a full-column call between two pruned ones leaves the buffer's
        # dropped columns zero
        for pair in operands:
            self.assert_unpruned(lat, *pair)

    @pytest.mark.parametrize("band_limit", [True, False])
    def test_the_column_transforms_see_only_the_kept_columns(self, monkeypatch, band_limit):
        from sqglab.spectral import _quadratic_coeffs

        lat = make_lattice(64, TWO_PI)
        half = gaussian_random_field(lat, 2.0, np.random.default_rng(5), band_limit).half
        widths = {"ifft": [], "fft": []}
        for name, seen in widths.items():
            transform = getattr(np.fft, name)

            def spy(a, *args, _transform=transform, _seen=seen, **kwargs):
                _seen.append(a.shape[-1])
                return _transform(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, spy)
        _quadratic_coeffs(lat, half[None], half[None])
        assert widths == {"ifft": [22 if band_limit else 33] * 2, "fft": [22]}


def _poison(lat, *arrays):
    """Fill ``arrays`` and every cached kernel work buffer of ``lat`` with NaN."""
    for a in (*lat._symbol_cache.get("kernel-work", {}).values(), *arrays):
        a.fill(np.nan)


class TestKernelWorkBuffers:
    """With ``out`` the kernel reuses cached work buffers; no value carries over."""

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_out_gives_the_bytes_of_the_allocating_call(self, n):
        from sqglab.spectral import _advection_coeffs, _quadratic_coeffs

        lat = make_lattice(n, TWO_PI)
        m = n // 2 + 1
        rng = np.random.default_rng(n + 4)
        single, pair = np.empty((n, m), complex), np.empty((2, n, m), complex)
        for band_limit in (True, False, True):
            omega, theta, g = (
                gaussian_random_field(lat, 2.0, rng, band_limit=band_limit).half
                for _ in range(3)
            )
            stack = np.stack([omega, theta])
            calls = [
                (_advection_coeffs, (lat, theta, theta), single),
                (_advection_coeffs, (lat, stack, theta), pair),
                (_quadratic_coeffs, (lat, theta[None, None], stack[:, None]), pair),
                (_quadratic_coeffs, (lat, stack[None], np.stack([g, omega])[None]), single[None]),
            ]
            for kernel, args, out in calls:
                want, want_left = kernel(*args)
                for _ in range(2):
                    _poison(lat, out)
                    got, got_left = kernel(*args, out)
                    assert got is out
                    assert got.tobytes() == want.tobytes()  # signs of zero too
                    dropped = np.ascontiguousarray(got[..., (n - 1) // 3 + 1 :])
                    assert not dropped.view(np.uint64).any()  # +0, not -0
                    assert got_left.tobytes() == want_left.tobytes()
                # as the stepper leaves it: negated, every dropped column -0
                np.negative(out, out=out)
                assert kernel(*args, out)[0].tobytes() == want.tobytes()

    def test_runs_and_a_lab_ensemble_on_one_lattice(self):
        # a run whose buffers are filled with NaN at every sample, then a lab
        # ensemble, then a plain run, all on one lattice object
        from sqglab import initial_field
        from sqglab.lemmas import EnsembleSpec, estimate_constant

        cfg = SolverConfig(
            alpha=0.25, n=32, dt=0.02, t_end=0.2, seed=4, init_norm=1.0,
            snapshot_every=1, track_cancellation=True,
        )
        theta0 = initial_field(cfg)
        lat = theta0.lattice
        plain = simulate(theta0, cfg)
        poisoned = []

        def poison(t, snap):
            poisoned.append(snap.half.tobytes())
            _poison(lat)

        records = [simulate(theta0, cfg, _on_snapshot=poison)]
        spec = EnsembleSpec(count=10, seed=3, lattice=lat)
        for which in ("2.2-productlaw", "2.4-bilinear", "cauchy-advection"):
            estimate_constant(spec, which)
            _poison(lat)
        records.append(simulate(theta0, cfg))
        for record in records:
            for a, b in zip(plain.series.columns(), record.series.columns()):
                assert a.tobytes() == b.tobytes()
            assert plain.cancellation.tobytes() == record.cancellation.tobytes()
            assert plain.final.half.tobytes() == record.final.half.tobytes()
        assert poisoned == [f.half.tobytes() for f in plain.snapshots]
        assert [f.half.tobytes() for f in records[1].snapshots] == poisoned
        assert len(poisoned) == 11


def _producers(n):
    """(name, field) for every producer of fields, on an n x n lattice."""
    from sqglab import (
        SolverConfig,
        advect,
        dyadic_bumps_field,
        gradient,
        initial_field,
        multi_mode_field,
        random_multi_mode,
        simulate,
        step,
    )

    lat = make_lattice(n, TWO_PI)
    rng = np.random.default_rng(n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    f = gaussian_random_field(lat, 2.0, rng)
    g = dyadic_bumps_field(lat, rng)
    cfg = SolverConfig(
        alpha=0.25, n=n, dt=0.01, t_end=0.03, seed=n, init_norm=1.0, eps0=1.0,
        snapshot_every=1,
    )
    record = simulate(initial_field(cfg), cfg)
    produced = {
        "constructor": SpectralField(lat, raw),
        "forward_transform": forward_transform(rng.standard_normal((n, n)), lat),
        "gaussian_random_field": f,
        "multi_mode_field": multi_mode_field(lat, [(1, 2, 1.0, 0.5), (-3, 1, 0.5, 2.0)]),
        "random_multi_mode": random_multi_mode(lat, rng),
        "dyadic_bumps_field": g,
        "add": f + g,
        "sub": f - g,
        "mul": f * 0.3,
        "rmul": 0.3 * f,
        "copy": f.copy(),
        "fractional_power": fractional_power(f, 0.75),
        "riesz_velocity_1": riesz_velocity(f)[0],
        "riesz_velocity_2": riesz_velocity(f)[1],
        "gradient_1": gradient(f)[0],
        "gradient_2": gradient(f)[1],
        "low_pass": low_pass(f, 3.0),
        "high_pass": high_pass(f, 3.0),
        "dealias": dealias(SpectralField(lat, raw)),
        "rescale_field": rescale_field(f, 2, 0.25),
        "multiply": multiply(f, g),
        "advect": advect(f, g),
        "step": step(f, cfg),
        "simulate_final": record.final,
    }
    for i, snap in enumerate(record.snapshots):
        produced[f"simulate_snapshot_{i}"] = snap
    return sorted(produced.items())


class TestHalfSpectrumStorage:
    @pytest.mark.parametrize("n", [8, 16, 48])
    def test_every_producer_stores_the_half_and_expands_it_on_read(self, n):
        from sqglab.spectral import _expand_half

        m = n // 2 + 1
        for name, f in _producers(n):
            half = f.half.copy()
            assert half.shape == (n, m), name
            assert half[0, 0] == 0.0, name
            # until its full array is read, a field holds only the half spectrum
            arrays = [a for a in vars(f).values() if isinstance(a, np.ndarray)]
            assert sum(a.nbytes for a in arrays) == half.nbytes, name
            full = f.coeffs
            assert full.shape == (n, n), name
            assert full.tobytes() == _expand_half(half, n).tobytes(), name
            assert full[:, :m].tobytes() == half.tobytes(), name
            assert np.ascontiguousarray(f.half).tobytes() == half.tobytes(), name
            assert f.coeffs is full, name

    def test_full_array_is_conjugate_symmetric_for_every_producer(self):
        for name, f in _producers(16):
            c = f.coeffs
            mirror = np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1)))
            assert np.array_equal(c, mirror), name

    def test_a_write_into_coeffs_is_seen_by_later_reads_and_by_half(self):
        lat = make_lattice(16, TWO_PI)
        f = gaussian_random_field(lat, 2.0, np.random.default_rng(1))
        f.coeffs[8, 1] = 1.0  # a mode outside the 2/3 mask
        assert f.coeffs[8, 1] == 1.0
        assert f.half[8, 1] == 1.0
        assert hom_norm(f, 0.0) > hom_norm(dealias(f), 0.0)

    def test_constructor_projects_onto_conjugate_symmetric_spectra(self):
        from oracles import hermitian_projection

        lat = make_lattice(16, TWO_PI)
        rng = np.random.default_rng(2)
        raw = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        want = hermitian_projection(raw)
        want[0, 0] = 0.0
        assert SpectralField(lat, raw).coeffs.tobytes() == want.tobytes()

    def test_symmetric_input_keeps_its_half_bit_for_bit(self):
        lat = make_lattice(32, TWO_PI)
        f = gaussian_random_field(lat, 2.0, np.random.default_rng(4))
        g = SpectralField(lat, f.coeffs)
        assert g.half.tobytes() == f.half.tobytes()
        assert np.ascontiguousarray(f.half).tobytes() == f.coeffs[:, :17].tobytes()

    @pytest.mark.parametrize("n", [64, 128])
    def test_field_from_rfft2_output_leaves_the_callers_array_untouched(self, n):
        from sqglab.spectral import _expand_half, _from_half

        lat = make_lattice(n, TWO_PI)
        raw = np.fft.rfft2(np.random.default_rng(n).standard_normal((n, n)))
        before = raw.copy()
        f = _from_half(lat, raw)
        assert raw.tobytes() == before.tobytes()
        assert f.half is not raw
        # rfft2 output is conjugate-symmetric on columns 0 and n/2 only to
        # round-off; the stored half takes those rows from the mirror
        assert not np.array_equal(f.half[:, [0, n // 2]], raw[:, [0, n // 2]])
        want = _expand_half(raw, n)[:, : n // 2 + 1]
        want[0, 0] = 0.0
        assert f.half.tobytes() == want.tobytes()


class TestLayoutGuard:
    """The full/half layout conversion lives in spectral.py alone."""

    HELPERS = {"_expand_half", "_fold_half", "_mirror_indices"}

    @staticmethod
    def is_int(node, value):
        return isinstance(node, ast.Constant) and node.value == value

    @classmethod
    def offences(cls, source):
        """Code (not docstrings or comments) that handles the layout itself."""
        hits = []
        for node in ast.walk(ast.parse(source)):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            if name in cls.HELPERS:
                hits.append(f"names {name}")
            elif (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "coeffs"
            ):
                hits.append(f"indexes the full layout: {ast.unparse(node)}")
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Add)
                and cls.is_int(node.right, 1)
                and isinstance(node.left, ast.BinOp)
                and isinstance(node.left.op, ast.FloorDiv)
                and cls.is_int(node.left.right, 2)
            ):
                hits.append(f"computes the half width: {ast.unparse(node)}")
        return hits

    def test_no_module_but_spectral_handles_the_layout(self):
        import pathlib

        import sqglab

        modules = sorted(pathlib.Path(sqglab.__file__).parent.glob("*.py"))
        assert any(p.name == "spectral.py" for p in modules)
        found = {
            p.name: self.offences(p.read_text())
            for p in modules
            if p.name != "spectral.py"
        }
        assert {name: hits for name, hits in found.items() if hits} == {}

    @pytest.mark.parametrize(
        "line",
        [
            "from .spectral import SpectralField, _expand_half, _fold_half",
            "snapshots.append(SpectralField(lat, _expand_half(coeffs_now, lat.n)))",
            "coeffs = theta.coeffs[:, : lat.n // 2 + 1].copy()",
            "half = f.coeffs[:, :m]",
            "m = lattice.n // 2 + 1",
        ],
    )
    def test_guard_flags_layout_code(self, line):
        assert self.offences(line)

    def test_guard_ignores_docstrings_and_field_halves(self):
        source = '"""shape (n, n//2 + 1), see _expand_half"""\nmag2 = f.half.real**2\n'
        assert self.offences(source) == []


class TestLatticeSize:
    @pytest.mark.parametrize("n", [16.5, "16", True, 16 + 1e-9])
    def test_n_must_be_a_whole_number(self, n):
        with pytest.raises(ValueError):
            make_lattice(n, 1.0)

    def test_integral_float_n_builds_the_same_lattice(self):
        lat, ref = make_lattice(16.0, 1.0), make_lattice(16, 1.0)
        assert type(lat.n) is int and lat.n == 16
        assert np.array_equal(lat.k2, ref.k2)
        assert np.array_equal(lat.dealias_mask, ref.dealias_mask)

    def test_the_lattice_runs_the_shared_checks(self):
        from sqglab.spectral import FrequencyLattice, _lattice_size

        assert _lattice_size(64.0, 2) == (64, 2.0)
        for n, box in [(16.5, 1.0), (14 + 0j, 1.0), (6, 1.0), (8194, 1.0), (16, math.inf)]:
            with pytest.raises(ValueError):
                _lattice_size(n, box)
            with pytest.raises(ValueError):
                FrequencyLattice(n, box)
