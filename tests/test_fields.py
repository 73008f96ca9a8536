import numpy as np
import pytest

from sqglab import SpectralField, hom_norm, inhom_norm, make_lattice
from sqglab.fields import (
    draw_field,
    dyadic_bumps_field,
    gaussian_random_field,
    multi_mode_field,
    random_multi_mode,
    scaled_to_norm,
)

TWO_PI = 2.0 * np.pi


@pytest.fixture
def lat():
    return make_lattice(32, TWO_PI)


@pytest.mark.parametrize("generator", ["gaussian", "multi_mode", "dyadic_bumps"])
def test_generators_are_mean_free_and_real(lat, generator):
    f = draw_field(generator, lat, np.random.default_rng(0))
    assert f.coeffs[0, 0] == 0.0
    flipped = np.conj(np.roll(f.coeffs[::-1, ::-1], (1, 1), axis=(0, 1)))
    np.testing.assert_allclose(f.coeffs, flipped, atol=1e-14)


@pytest.mark.parametrize("generator", ["gaussian", "multi_mode", "dyadic_bumps"])
def test_generators_deterministic_by_seed(lat, generator):
    a = draw_field(generator, lat, np.random.default_rng(7))
    b = draw_field(generator, lat, np.random.default_rng(7))
    assert np.array_equal(a.coeffs, b.coeffs)


def test_gaussian_band_limited_and_normalized(lat):
    f = gaussian_random_field(lat, 3.0, np.random.default_rng(1))
    assert np.all(f.coeffs[~lat.dealias_mask] == 0.0)
    assert hom_norm(f, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_gaussian_slope_controls_the_spectrum(lat):
    f = gaussian_random_field(lat, 4.0, np.random.default_rng(2), normalize=False)
    ring_lo = (lat.kmag > 0.5) & (lat.kmag < 1.5)
    ring_hi = (lat.kmag > 7.5) & (lat.kmag < 8.5)
    lo = np.mean(np.abs(f.coeffs[ring_lo]) ** 2)
    hi = np.mean(np.abs(f.coeffs[ring_hi]) ** 2)
    # |theta_hat|^2 ~ |xi|^(-8) across a factor-8 span, allow wide slack
    assert hi < lo * 8.0 ** (-8.0) * 30.0


def test_multi_mode_places_the_requested_modes(lat):
    f = multi_mode_field(lat, [(2, -1, 0.7, 0.3)])
    idx = np.abs(f.coeffs) > 1e-12
    assert idx.sum() == 2
    assert idx[2, -1 % 32] and idx[-2 % 32, 1]


def test_empty_mode_list_gives_zero_field(lat):
    assert np.all(multi_mode_field(lat, []).coeffs == 0.0)


def test_random_multi_mode_stays_low_wavenumber(lat):
    f = random_multi_mode(lat, np.random.default_rng(3), max_index=3)
    live1 = np.abs(lat.modes1[np.abs(f.coeffs) > 1e-12])
    live2 = np.abs(lat.modes2[np.abs(f.coeffs) > 1e-12])
    assert live1.max() <= 3 and live2.max() <= 3


def test_dyadic_bumps_rolls_off_across_shells(lat):
    f = dyadic_bumps_field(lat, np.random.default_rng(4), shell_decay=2.0, normalize=False)
    shell0 = (lat.kmag >= 1.0) & (lat.kmag < 2.0)
    shell2 = (lat.kmag >= 4.0) & (lat.kmag < 8.0)
    assert np.abs(f.coeffs[shell2]).max() < np.abs(f.coeffs[shell0]).max()


def test_scaled_to_norm_hits_the_target(lat):
    f = gaussian_random_field(lat, 2.0, np.random.default_rng(5))
    g = scaled_to_norm(f, 0.37, 1.5)
    assert inhom_norm(g, 1.5) == pytest.approx(0.37, rel=1e-12)
    with pytest.raises(ValueError):
        scaled_to_norm(multi_mode_field(lat, []), 1.0, 1.5)


def test_unknown_generator_rejected(lat):
    with pytest.raises(ValueError):
        draw_field("besov", lat, np.random.default_rng(0))


@pytest.mark.parametrize("seed", [0, 3, 101])
@pytest.mark.parametrize("n", [16, 64])
def test_gaussian_field_is_the_complex_normal_construction_bit_for_bit(seed, n):
    lattice = make_lattice(n, TWO_PI)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    coeffs = (a + 1j * b) * lattice.symbol_power(-3.0) * lattice.dealias_mask
    want = SpectralField(lattice, coeffs)
    want = want * (1.0 / hom_norm(want, 0.0))
    got = gaussian_random_field(lattice, 3.0, np.random.default_rng(seed))
    assert got.half.tobytes() == want.half.tobytes()


@pytest.mark.parametrize(
    "generator,params,key",
    [
        ("gaussian", {"slopes": 9.0}, "slopes"),
        ("gaussian", {"modes": []}, "modes"),
        ("multi_mode", {"slope": 9.0}, "slope"),
        ("multi_mode", {"modes": [(1, 0, 1.0, 0.0)], "max_modes": 4}, "max_modes"),
        ("multi_mode", {"max_index": 2, "modes": []}, "max_index"),
        ("dyadic_bumps", {"slope": 9.0}, "slope"),
    ],
)
def test_an_unread_key_is_rejected_before_the_rng_is_touched(lat, generator, params, key):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"'{key}'"):
        draw_field(generator, lat, rng, params)
    assert rng.bit_generator.state == state


def test_multi_mode_takes_explicit_modes_as_given_with_no_draw(lat):
    modes = [(2, -1, 0.7, 0.3), (1, 3, 0.2, 1.0)]
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    f = draw_field("multi_mode", lat, rng, {"modes": modes})
    assert f.half.tobytes() == multi_mode_field(lat, modes).half.tobytes()
    assert rng.bit_generator.state == state
