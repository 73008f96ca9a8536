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


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("box_len", [100.0, 1.0, 3.7])
def test_dyadic_bumps_count_octaves_of_the_mode_index_on_every_box(n, box_len):
    # the shells are octaves of the mode index below the 2/3 cutoff, so the
    # support is that of the 2 pi box whatever the box's size
    want = dyadic_bumps_field(make_lattice(n, TWO_PI), np.random.default_rng(6))
    f = dyadic_bumps_field(make_lattice(n, box_len), np.random.default_rng(6))
    assert np.array_equal(f.coeffs != 0, want.coeffs != 0)
    if n == 64:
        assert np.count_nonzero(f.coeffs) == 792


def test_scaled_to_norm_hits_the_target(lat):
    f = gaussian_random_field(lat, 2.0, np.random.default_rng(5))
    g = scaled_to_norm(f, 0.37, 1.5)
    assert inhom_norm(g, 1.5) == pytest.approx(0.37, rel=1e-12)
    with pytest.raises(ValueError):
        scaled_to_norm(multi_mode_field(lat, []), 1.0, 1.5)


def test_scaled_to_norm_rejects_a_field_whose_norm_overflows(lat):
    # the norm is inf, so target / inf scaled the field to zero
    f = multi_mode_field(lat, [(1, 0, 1e200, 0.0)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm is inf"):
        scaled_to_norm(f, 1.0, 1.5)


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


@pytest.mark.parametrize("params", [["slope"], [], "slope", 4.0])
def test_params_that_are_not_a_mapping_are_rejected_before_the_rng_is_touched(lat, params):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="params must be a mapping"):
        draw_field("gaussian", lat, rng, params)
    assert rng.bit_generator.state == state


def test_params_none_draws_at_the_defaults(lat):
    drawn = [draw_field("gaussian", lat, np.random.default_rng(1), p) for p in (None, {})]
    assert drawn[0].half.tobytes() == drawn[1].half.tobytes()


def test_multi_mode_takes_explicit_modes_as_given_with_no_draw(lat):
    modes = [(2, -1, 0.7, 0.3), (1, 3, 0.2, 1.0)]
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    f = draw_field("multi_mode", lat, rng, {"modes": modes})
    assert f.half.tobytes() == multi_mode_field(lat, modes).half.tobytes()
    assert rng.bit_generator.state == state


LATTICE_ARRAYS = ("modes1", "modes2", "kx", "ky", "k2", "kmag", "dealias_mask")


def _full_gaussian(ref, slope, rng, band_limit, normalize):
    """The Gaussian draw written out on the full (n, n) layout of ``ref``."""
    n = ref.n
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    coeffs = (a + 1j * b) * ref.symbol_power(-float(slope))
    if band_limit:
        coeffs = coeffs * ref.dealias_mask
    return _full_normalized(SpectralField(ref, coeffs), normalize)


def _full_dyadic(ref, rng, shell_decay, normalize):
    """The dyadic-bumps draw written out on the full (n, n) layout of ``ref``."""
    n = ref.n
    shells = max(1, int(np.log2(max(2, n // 3))))
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    envelope = np.zeros((n, n))
    for m in range(shells):
        lo = ref.kmin * 2.0**m
        envelope[(ref.kmag >= lo) & (ref.kmag < 2.0 * lo)] = 2.0 ** (-shell_decay * m)
    return _full_normalized(SpectralField(ref, raw * envelope * ref.dealias_mask), normalize)


def _full_multi_mode(ref, modes, normalize):
    """The multi-mode field written out on the full (n, n) layout of ``ref``."""
    n = ref.n
    coeffs = np.zeros((n, n), dtype=np.complex128)
    for j1, j2, amp, phase in modes:
        j1, j2 = int(j1), int(j2)
        if (j1, j2) == (0, 0):
            continue
        z = 0.5 * amp * np.exp(1j * phase) * n * n
        coeffs[j1 % n, j2 % n] += z
        coeffs[(-j1) % n, (-j2) % n] += np.conj(z)
    return _full_normalized(SpectralField(ref, coeffs), normalize)


def _full_normalized(f, normalize):
    scale = hom_norm(f, 0.0) if normalize else 0.0
    return f * (1.0 / scale) if scale > 0 else f


def _edge_modes(n):
    """Modes that repeat, that cancel, that sit on the self-paired modes, and (0, 0)."""
    h = n // 2
    return [
        (1, 2, 0.5, 0.3),
        (1, 2, 0.25, 1.0),  # repeats
        (-1, -2, 0.3, 2.0),  # lands on the same pair
        (2, -1, 0.7, 0.0),
        (2, -1, 0.7, np.pi),  # cancels the one before
        (0, h, 1.0, 0.7),
        (h, 0, 0.4, 0.1),
        (h, h, 0.9, 2.2),
        (-h, h, 0.6, 1.3),  # -n/2 is n/2
        (3, -h, 0.2, 0.5),
        (n + 1, -n - 3, 0.35, 0.4),  # indices taken mod n
        (0, 0, 5.0, 0.0),  # the mean mode is skipped
    ]


@pytest.mark.parametrize("n", [8, 10, 16, 64, 128, 256])
@pytest.mark.parametrize("box_len", [TWO_PI, 3.7, 100.0])
def test_generators_equal_their_full_layout_formulas_bit_for_bit(n, box_len):
    lat, ref = make_lattice(n, box_len), make_lattice(n, box_len)
    for seed, slope in [(0, 4.0), (5, 1.5), (101, 0.0)]:
        for band_limit in (True, False):
            for normalize in (True, False):
                got = gaussian_random_field(
                    lat, slope, np.random.default_rng(seed), band_limit, normalize
                )
                want = _full_gaussian(ref, slope, np.random.default_rng(seed), band_limit, normalize)
                assert got.half.tobytes() == want.half.tobytes()
        for normalize in (True, False):
            got = dyadic_bumps_field(lat, np.random.default_rng(seed), 1.5, normalize)
            want = _full_dyadic(ref, np.random.default_rng(seed), 1.5, normalize)
            assert got.half.tobytes() == want.half.tobytes()
    modes = _edge_modes(n)
    for normalize in (True, False):
        got = multi_mode_field(lat, modes, normalize)
        assert got.half.tobytes() == _full_multi_mode(ref, modes, normalize).half.tobytes()


@pytest.mark.parametrize("generator", ["gaussian", "multi_mode", "dyadic_bumps"])
@pytest.mark.parametrize("n", [8, 64])
def test_a_draw_leaves_no_full_layout_on_its_lattice(generator, n):
    lat = make_lattice(n, 3.7)
    draw_field(generator, lat, np.random.default_rng(2))
    assert [name for name in LATTICE_ARRAYS if name in vars(lat)] == []

    def arrays(value):
        if isinstance(value, np.ndarray):
            return [value]
        values = value.values() if isinstance(value, dict) else value
        return [a for v in values for a in arrays(v)] if isinstance(value, (dict, tuple)) else []

    assert not any(a.shape[-2:] == (n, n) for a in arrays(lat._symbol_cache))


def test_a_gaussian_draw_makes_no_block_larger_than_a_half_spectrum():
    """Every array alive at any bytecode of a draw at n 256, a and b included, fits in
    one half spectrum, (n, n/2 + 1) complex: the (n, n) normal arrays a and b take
    8 n^2 bytes, just under it, and no full-size complex array is made."""
    import sys
    import tracemalloc

    n = 256
    lat = make_lattice(n, TWO_PI)
    gaussian_random_field(lat, 4.0, np.random.default_rng(0))  # caches the half symbols
    largest = []

    def trace(frame, event, arg):
        frame.f_trace_opcodes = True
        if event == "opcode":
            sizes = [t.size for t in tracemalloc.take_snapshot().traces]
            largest.append(max(sizes, default=0))
        return trace

    tracemalloc.start()
    sys.settrace(trace)
    try:
        f = gaussian_random_field(lat, 4.0, np.random.default_rng(1))
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    assert f.half.shape == (n, n // 2 + 1)
    # a and b were seen, and nothing larger than a half spectrum
    assert n * n * 8 <= max(largest) <= 16 * n * (n // 2 + 1)
