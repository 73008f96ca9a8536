"""Cross-validation of every FFT-backed kernel against direct convolution sums."""

import numpy as np
import pytest

from sqglab import (
    check_bilinear,
    check_product_law,
    check_trilinear,
    gaussian_random_field,
    hom_norm,
    make_lattice,
    multi_mode_field,
    multiply,
    nonlinear_term,
    riesz_velocity,
    scalar_product,
)
from sqglab.spectral import advect
import oracles

TWO_PI = 2.0 * np.pi
ALPHA = 0.25


def random_pair(n, seed):
    lat = make_lattice(n, TWO_PI)
    rng = np.random.default_rng(seed)
    f = gaussian_random_field(lat, 1.5, rng)
    g = gaussian_random_field(lat, 1.5, rng)
    return lat, f, g


def rel_err(got, want):
    scale = np.abs(want).max()
    if scale == 0.0:
        return np.abs(got).max()
    return np.abs(got - want).max() / scale


@pytest.mark.parametrize("n", [8, 12, 16])
class TestAgainstDirectConvolution:
    def test_pointwise_product(self, n):
        lat, f, g = random_pair(n, 0)
        got = multiply(f, g).coeffs
        want = oracles.product_coeffs(f.coeffs, g.coeffs, n)
        assert rel_err(got, want) < 1e-10

    def test_bump_product(self, n):
        lat = make_lattice(n, TWO_PI)
        X, Y = lat.grid()
        half = lat.box_len / 2.0
        bump = np.exp(-((X - half) ** 2 + (Y - half) ** 2))
        from sqglab import forward_transform

        f = forward_transform(bump, lat)
        got = multiply(f, f).coeffs
        want = oracles.product_coeffs(f.coeffs, f.coeffs, n)
        assert rel_err(got, want) < 1e-10

    def test_riesz_multipliers(self, n):
        lat, f, _ = random_pair(n, 1)
        u1, u2 = riesz_velocity(f)
        want1, want2 = oracles.riesz_coeffs(f.coeffs, n, TWO_PI)
        assert rel_err(u1.coeffs, want1) < 1e-12
        assert rel_err(u2.coeffs, want2) < 1e-12

    def test_self_advection(self, n):
        lat, f, _ = random_pair(n, 2)
        got = nonlinear_term(f).coeffs
        want = oracles.advection_coeffs(f.coeffs, f.coeffs, n, TWO_PI)
        assert rel_err(got, want) < 1e-10

    def test_cross_advection(self, n):
        lat, f, g = random_pair(n, 3)
        got = advect(f, g).coeffs
        want = oracles.advection_coeffs(f.coeffs, g.coeffs, n, TWO_PI)
        assert rel_err(got, want) < 1e-10

    def test_sobolev_pairing_of_the_nonlinear_term(self, n):
        lat, f, _ = random_pair(n, 4)
        sigma = 1.5
        got = scalar_product(nonlinear_term(f), f, sigma, homogeneous=False)
        term = oracles.advection_coeffs(f.coeffs, f.coeffs, n, TWO_PI)
        want = oracles.pairing_from_coeffs(term, f.coeffs, n, TWO_PI, sigma, True)
        assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30)

    def test_product_law_lhs_norm(self, n):
        lat, f, g = random_pair(n, 5)
        order = 2.0 * ALPHA - 1.0
        got = hom_norm(multiply(f, g), order)
        want = oracles.hom_norm_from_coeffs(
            oracles.product_coeffs(f.coeffs, g.coeffs, n), n, TWO_PI, order
        )
        assert got == pytest.approx(want, rel=1e-10)


class TestLemmaShapesAgainstOracle:
    def test_trilinear_lhs_on_a_two_mode_field(self):
        n = 16
        lat = make_lattice(n, TWO_PI)
        theta = multi_mode_field(lat, [(1, 0, 1.0, 0.2), (1, 1, 0.7, 1.3)])
        sigma = 1.0
        lhs, _ = check_trilinear(theta, sigma, ALPHA)
        term = oracles.advection_coeffs(theta.coeffs, theta.coeffs, n, TWO_PI)
        want = abs(
            oracles.pairing_from_coeffs(term, theta.coeffs, n, TWO_PI, sigma, True)
        )
        assert lhs == pytest.approx(want, rel=1e-10)

    def test_bilinear_lhs_on_disjoint_mode_pairs(self):
        n = 16
        lat = make_lattice(n, TWO_PI)
        omega = multi_mode_field(lat, [(2, 0, 0.8, 0.0)])
        theta = multi_mode_field(lat, [(0, 1, 1.0, 0.5), (2, 1, 0.6, 2.0)])
        s = 2.0 - 2.0 * ALPHA
        first, second = check_bilinear(omega, theta, ALPHA)
        term = oracles.advection_coeffs(omega.coeffs, theta.coeffs, n, TWO_PI)
        lhs = abs(oracles.pairing_from_coeffs(term, theta.coeffs, n, TWO_PI, s, True))
        want_first = lhs / (
            oracles.hom_norm_from_coeffs(omega.coeffs, n, TWO_PI, 2.0 - ALPHA)
            * oracles.hom_norm_from_coeffs(theta.coeffs, n, TWO_PI, s)
            * oracles.hom_norm_from_coeffs(theta.coeffs, n, TWO_PI, 2.0 - ALPHA)
        )
        assert first == pytest.approx(want_first, rel=1e-10)
        assert second > 0.0

    def test_product_law_ratio_on_gaussian_bumps(self):
        n = 16
        lat = make_lattice(n, TWO_PI)
        X, Y = lat.grid()
        half = lat.box_len / 2.0
        from sqglab import forward_transform

        f = forward_transform(np.exp(-2.0 * ((X - half) ** 2 + (Y - half) ** 2)), lat)
        two_term, product = check_product_law(f, f, ALPHA, ALPHA)
        p_or = oracles.product_coeffs(f.coeffs, f.coeffs, n)
        lhs = oracles.hom_norm_from_coeffs(p_or, n, TWO_PI, 2 * ALPHA - 1.0)
        den = oracles.hom_norm_from_coeffs(f.coeffs, n, TWO_PI, ALPHA) ** 2
        assert product == pytest.approx(lhs / den, rel=1e-10)
        assert two_term == pytest.approx(lhs / (2.0 * den), rel=1e-10)

    def test_product_law_ratios_on_a_random_pair(self):
        n = 16
        lat, f, g = random_pair(n, 6)
        s1, s2 = 1.0 - 2.0 * ALPHA, ALPHA
        two_term, product = check_product_law(f, g, s1, s2)
        lhs = oracles.hom_norm_from_coeffs(
            oracles.product_coeffs(f.coeffs, g.coeffs, n), n, TWO_PI, s1 + s2 - 1.0
        )
        f1, f2, g1, g2 = (
            oracles.hom_norm_from_coeffs(h.coeffs, n, TWO_PI, s)
            for h, s in ((f, s1), (f, s2), (g, s1), (g, s2))
        )
        assert two_term == pytest.approx(lhs / (f1 * g2 + f2 * g1), rel=1e-10)
        assert product == pytest.approx(lhs / (f1 * g2), rel=1e-10)

    def test_bilinear_ratios_on_a_random_pair(self):
        n = 16
        lat, omega, theta = random_pair(n, 7)
        s = 2.0 - 2.0 * ALPHA
        first, second = check_bilinear(omega, theta, ALPHA)
        term = oracles.advection_coeffs(omega.coeffs, theta.coeffs, n, TWO_PI)
        lhs = abs(oracles.pairing_from_coeffs(term, theta.coeffs, n, TWO_PI, s, True))
        w_high, w_crit, th_crit, th_high = (
            oracles.hom_norm_from_coeffs(h.coeffs, n, TWO_PI, order)
            for h, order in ((omega, 2.0 - ALPHA), (omega, s), (theta, s), (theta, 2.0 - ALPHA))
        )
        assert first == pytest.approx(lhs / (w_high * th_crit * th_high), rel=1e-10)
        assert second == pytest.approx(lhs / (w_crit * th_high**2), rel=1e-10)
