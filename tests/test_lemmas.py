import json
import math
import tracemalloc

import numpy as np
import pytest

from sqglab import (
    EnsembleSpec,
    check_bilinear,
    check_elementary,
    check_exp_kernel,
    check_product_law,
    check_trilinear,
    default_smallness_threshold,
    estimate_constant,
    gaussian_random_field,
    make_lattice,
    multi_mode_field,
    riesz_velocity,
    unit_mode,
)
import sqglab.lemmas
from oracles import elementary_ensemble, exp_kernel_ensemble, exp_kernel_sides
from sqglab.lemmas import _ELEMENTARY_CHUNK, _EXP_KERNEL_BLOCK, LEMMA_IDS, exp_kernel_tolerance

TWO_PI = 2.0 * np.pi
ALPHA = 0.25


@pytest.fixture(scope="module")
def lat():
    return make_lattice(32, TWO_PI)


class TestElementary:
    def test_equal_magnitudes_give_zero_lhs(self):
        lhs, rhs = check_elementary(3.7, 3.7, 1.4)
        assert lhs == 0.0 and rhs == 0.0

    def test_sigma_one_reduces_to_twice_the_gap(self):
        lhs, rhs = check_elementary(5.0, 2.0, 1.0)
        assert lhs == pytest.approx(3.0)
        assert rhs == pytest.approx(6.0)

    def test_random_sweep_has_zero_violations(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.0, 10.0, size=100_000)
        c = rng.uniform(0.0, 10.0, size=100_000)
        s = rng.uniform(1.0, 2.0, size=100_000)
        lhs, rhs = check_elementary(a, c, s)
        assert np.all(lhs <= rhs * (1.0 + 1e-12))

    def test_sigma_below_one_rejected(self):
        with pytest.raises(ValueError):
            check_elementary(1.0, 2.0, 0.9)

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            check_elementary(-1.0, 2.0, 1.5)


class TestProductLaw:
    def test_zero_fields_give_zero_ratio(self, lat):
        zero = multi_mode_field(lat, [])
        two_term, product = check_product_law(zero, zero, 0.25, 0.25)
        assert two_term == 0.0 and product == 0.0

    def test_ratio_is_exactly_homogeneous(self, lat):
        rng = np.random.default_rng(1)
        f = gaussian_random_field(lat, 2.0, rng)
        g = gaussian_random_field(lat, 2.0, rng)
        base = check_product_law(f, g, 1.0 - 2 * ALPHA, ALPHA)
        scaled = check_product_law(3.7 * f, 3.7 * g, 1.0 - 2 * ALPHA, ALPHA)
        assert scaled[0] == pytest.approx(base[0], rel=1e-12)
        assert scaled[1] == pytest.approx(base[1], rel=1e-12)

    def test_ensemble_ratios_are_finite(self, lat):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(50):
            f = gaussian_random_field(lat, 2.5, rng)
            g = gaussian_random_field(lat, 2.5, rng)
            two_term, product = check_product_law(f, g, 1.0 - 2 * ALPHA, ALPHA)
            assert math.isfinite(two_term) and math.isfinite(product)
            assert two_term <= product  # the symmetric denominator is larger
            worst = max(worst, product)
        assert worst > 0.0

    def test_second_form_disabled_when_s2_reaches_one(self, lat):
        f = unit_mode(lat, 1, 0)
        two_term, product = check_product_law(f, f, 0.5, 1.2)
        assert product is None and math.isfinite(two_term)

    @pytest.mark.parametrize("s1,s2", [(1.0, 0.5), (1.5, 0.2), (-0.5, 0.4)])
    def test_out_of_range_orders_rejected(self, lat, s1, s2):
        f = unit_mode(lat, 1, 0)
        with pytest.raises(ValueError):
            check_product_law(f, f, s1, s2)


class TestTrilinear:
    def test_single_mode_lhs_vanishes(self, lat):
        theta = unit_mode(lat, 2, 1)
        lhs, rhs = check_trilinear(theta, 1.5, ALPHA)
        assert rhs > 0.0
        assert lhs <= 1e-12 * rhs

    @pytest.mark.parametrize("sigma", [1.0, 2.0 - 2.0 * ALPHA])
    def test_ensemble_zero_violations(self, lat, sigma):
        rng = np.random.default_rng(3)
        for _ in range(40):
            theta = gaussian_random_field(lat, sigma + ALPHA + 2.0, rng)
            lhs, rhs = check_trilinear(theta, sigma, ALPHA)
            assert rhs > 0.0 and math.isfinite(lhs / rhs)

    def test_ratio_is_exactly_homogeneous(self, lat):
        theta = gaussian_random_field(lat, 3.0, np.random.default_rng(4))
        lhs0, rhs0 = check_trilinear(theta, 1.0, ALPHA)
        lhs1, rhs1 = check_trilinear(5.1 * theta, 1.0, ALPHA)
        assert lhs1 / rhs1 == pytest.approx(lhs0 / rhs0, rel=1e-12)

    def test_sigma_below_one_rejected(self, lat):
        with pytest.raises(ValueError):
            check_trilinear(unit_mode(lat, 1, 0), 0.8, ALPHA)

    def test_scalar_sigma_returns_one_pair(self, lat):
        theta = gaussian_random_field(lat, 3.0, np.random.default_rng(7))
        pair = check_trilinear(theta, 1.5, ALPHA)
        assert isinstance(pair, tuple) and len(pair) == 2

    def test_sigma_sequence_equals_one_call_per_sigma(self, lat):
        theta = gaussian_random_field(lat, 3.0, np.random.default_rng(8))
        sigmas = (1.0, 1.5, 2.0 - 2.0 * ALPHA)
        pairs = check_trilinear(theta, sigmas, ALPHA)
        assert pairs == [check_trilinear(theta, sigma, ALPHA) for sigma in sigmas]

    def test_one_sigma_below_one_in_a_sequence_rejected(self, lat):
        with pytest.raises(ValueError):
            check_trilinear(unit_mode(lat, 1, 0), (1.0, 0.8), ALPHA)

    def test_an_empty_sigma_sequence_rejected(self, lat):
        with pytest.raises(ValueError, match="at least one order"):
            check_trilinear(unit_mode(lat, 1, 0), [], ALPHA)


class TestBilinear:
    def test_identical_single_modes_vanish(self, lat):
        theta = unit_mode(lat, 1, 2)
        first, second = check_bilinear(theta, theta, ALPHA)
        assert first <= 1e-12 and second <= 1e-12

    def test_disjoint_single_modes_cannot_close_a_triad(self, lat):
        # u_omega . grad(theta) lives on (1,0)+(0,1) = (1,1), orthogonal to theta
        omega = unit_mode(lat, 1, 0)
        theta = unit_mode(lat, 0, 1)
        first, second = check_bilinear(omega, theta, ALPHA)
        assert first == 0.0 and second == 0.0

    def test_closed_triad_gives_a_nonzero_pairing(self, lat):
        omega = unit_mode(lat, 1, 0)
        theta = multi_mode_field(lat, [(0, 1, 1.0, 0.0), (1, 1, 1.0, 0.4)])
        first, second = check_bilinear(omega, theta, ALPHA)
        assert first > 1e-4 and second > 1e-4

    def test_ratios_are_exactly_homogeneous(self, lat):
        rng = np.random.default_rng(5)
        omega = gaussian_random_field(lat, 3.0, rng)
        theta = gaussian_random_field(lat, 3.0, rng)
        base = check_bilinear(omega, theta, ALPHA)
        scaled = check_bilinear(2.3 * omega, 0.7 * theta, ALPHA)
        assert scaled[0] == pytest.approx(base[0], rel=1e-12)
        assert scaled[1] == pytest.approx(base[1], rel=1e-12)

    def test_lattice_mismatch_rejected(self):
        omega = unit_mode(make_lattice(16, TWO_PI), 1, 0)
        theta = unit_mode(make_lattice(32, TWO_PI), 1, 0)
        with pytest.raises(ValueError):
            check_bilinear(omega, theta, ALPHA)


class TestExpKernel:
    def test_zero_profile(self):
        lhs, rhs = check_exp_kernel(np.zeros(64), 1.0, 1.0)
        assert lhs == 0.0 and rhs == 0.0

    def test_constant_profile_matches_closed_forms(self):
        # int_0^1 e^{-(1-z)} dz = 1 - e^{-1}
        lhs, rhs = check_exp_kernel(np.ones(20_001), 1.0, 1.0)
        assert lhs == pytest.approx((1.0 - math.exp(-1.0)) ** 2, rel=1e-7)
        assert rhs == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), rel=1e-7)
        assert lhs <= rhs

    def test_random_sweep_zero_violations(self):
        rng = np.random.default_rng(6)
        for _ in range(2_000):
            sigma = float(rng.uniform(0.05, 10.0))
            t_end = float(rng.uniform(0.1, 5.0))
            h = rng.uniform(0.0, 3.0, size=201)
            lhs, rhs = check_exp_kernel(h, sigma, t_end)
            assert lhs <= rhs * (1.0 + exp_kernel_tolerance(sigma, t_end / 200))

    def test_refinement_never_flips_a_pass(self):
        # smooth profile, fixed tolerance, dyadic refinement
        sigma, t_end = 2.0, 3.0
        for points in (51, 101, 201, 401, 801):
            z = np.linspace(0.0, t_end, points)
            h = 1.5 + np.sin(2.0 * z) ** 2
            lhs, rhs = check_exp_kernel(h, sigma, t_end)
            assert lhs <= rhs * (1.0 + 1e-3)

    def test_concentration_near_the_endpoint_stays_strictly_below_one(self):
        # narrowing bumps at z = T: the ratio shrinks with the bump width
        sigma, t_end = 1.0, 2.0
        z = np.linspace(0.0, t_end, 2001)
        ratios = []
        for width in (0.5, 0.1, 0.02):
            h = np.exp(-((z - t_end) ** 2) / (2.0 * width**2))
            lhs, rhs = check_exp_kernel(h, sigma, t_end)
            ratios.append(lhs / rhs)
        assert all(r < 1.0 for r in ratios)
        assert ratios == sorted(ratios, reverse=True)

    def test_negative_samples_rejected(self):
        with pytest.raises(ValueError):
            check_exp_kernel(np.array([1.0, -0.1, 0.5]), 1.0, 1.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            check_exp_kernel(np.ones(8), 0.0, 1.0)
        with pytest.raises(ValueError):
            check_exp_kernel(np.ones(8), 1.0, -2.0)
        with pytest.raises(ValueError):
            check_exp_kernel(np.ones(1), 1.0, 1.0)


class TestExpKernelBlock:
    @staticmethod
    def block(rows=2048, grid=201, seed=14):
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.0, 3.0, size=(rows, grid))
        h[::7] = 0.0  # some all-zero rows
        sigma = rng.uniform(0.05, 10.0, size=rows)
        t_end = rng.uniform(0.1, 5.0, size=rows)
        return h, sigma, t_end

    def test_block_equals_row_by_row_calls_exactly(self):
        # 2048 rows at seed 14 include left sides where numpy's x**2 and
        # Python's float ** 2 differ by an ulp
        h, sigma, t_end = self.block()
        lhs, rhs = check_exp_kernel(h, sigma, t_end)
        assert lhs.shape == rhs.shape == (h.shape[0],)
        for i in range(h.shape[0]):
            args = h[i], float(sigma[i]), float(t_end[i])
            assert (lhs[i], rhs[i]) == check_exp_kernel(*args) == exp_kernel_sides(*args)

    def test_fortran_ordered_block_equals_row_by_row_calls_exactly(self):
        h, sigma, t_end = self.block(rows=256)
        h = np.asfortranarray(h)
        lhs, rhs = check_exp_kernel(h, sigma, t_end)
        for i in range(h.shape[0]):
            args = h[i], float(sigma[i]), float(t_end[i])
            assert (lhs[i], rhs[i]) == check_exp_kernel(*args) == exp_kernel_sides(*args)

    def test_scalar_parameters_apply_to_every_row(self):
        h, _, _ = self.block(rows=5)
        lhs, rhs = check_exp_kernel(h, 2.0, 3.0)
        for i in range(5):
            assert (lhs[i], rhs[i]) == check_exp_kernel(h[i], 2.0, 3.0)

    def test_one_dimensional_call_returns_two_floats(self):
        lhs, rhs = check_exp_kernel(np.ones(16), 1.0, 1.0)
        assert type(lhs) is float and type(rhs) is float

    def test_negative_entry_in_one_row_rejected(self):
        h, sigma, t_end = self.block(rows=8)
        h[5, 100] = -1e-3
        with pytest.raises(ValueError):
            check_exp_kernel(h, sigma, t_end)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_bad_sigma_in_one_row_rejected(self, bad):
        h, sigma, t_end = self.block(rows=8)
        sigma[3] = bad
        with pytest.raises(ValueError):
            check_exp_kernel(h, sigma, t_end)

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.nan])
    def test_bad_t_end_in_one_row_rejected(self, bad):
        h, sigma, t_end = self.block(rows=8)
        t_end[6] = bad
        with pytest.raises(ValueError):
            check_exp_kernel(h, sigma, t_end)

    def test_rows_of_one_sample_rejected(self):
        with pytest.raises(ValueError):
            check_exp_kernel(np.ones((4, 1)), 1.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_ensemble_matches_a_per_sample_loop_exactly(self, seed):
        count = 2500
        assert count % _EXP_KERNEL_BLOCK != 0
        spec = EnsembleSpec(count=count, seed=seed)
        report = estimate_constant(spec, "2.5-expkernel")
        reference = exp_kernel_ensemble(count, seed)
        assert (report.max_ratio, report.violations, report.degenerate_samples) == reference


def scalar_call_rows(rng, count, grid, sigma_range=(0.05, 10.0), t_range=(0.1, 5.0)):
    """The exp-kernel rows drawn with one Generator call per value, the reference."""
    rows = []
    for _ in range(count):
        sigma = rng.uniform(*sigma_range)
        t_end = rng.uniform(*t_range)
        segments = int(rng.integers(1, 12))
        levels = rng.uniform(0.0, 3.0, size=segments)
        rows.append((sigma, t_end, np.repeat(levels, math.ceil(grid / segments))[:grid]))
    return rows


def replayed_rows(rng, count, grid, sigma_range=(0.05, 10.0), t_range=(0.1, 5.0)):
    rows = []
    for sigma, t_end, h in sqglab.lemmas._exp_kernel_draws(rng, count, grid, sigma_range, t_range):
        assert h.shape == (len(sigma), grid) == (len(t_end), grid)
        rows.extend(zip(sigma.tolist(), t_end.tolist(), h))
    return rows


def with_buffer(rng, has_uint32, uinteger):
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    rng.bit_generator.state = state
    return rng


# PCG64's 128-bit LCG multiplier; a step is state = state * M + inc and its
# output is the XSL-RR mix of the new state
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def pcg64_state_before(output_state, steps, inc):
    """The LCG state ``steps`` steps before ``output_state``."""
    inverse = pow(_PCG64_MULT, -1, 2**128)
    state = output_state
    for _ in range(steps):
        state = ((state - inc) * inverse) % 2**128
    return state


# one row, the counts around one block, and many blocks
REPLAY_COUNTS = [1, _EXP_KERNEL_BLOCK - 1, _EXP_KERNEL_BLOCK, _EXP_KERNEL_BLOCK + 1, 2500]


class TestExpKernelReplay:
    """The block replay of the per-row scalar calls, against those calls."""

    @staticmethod
    def assert_same_draws(make_rng, count, grid, **ranges):
        reference, replay = make_rng(), make_rng()
        want = scalar_call_rows(reference, count, grid, **ranges)
        got = replayed_rows(replay, count, grid, **ranges)
        assert len(got) == len(want) == count
        for (s_want, t_want, h_want), (s_got, t_got, h_got) in zip(want, got):
            assert (s_got, t_got) == (s_want, t_want)
            assert h_got.tobytes() == h_want.tobytes()
        assert replay.bit_generator.state == reference.bit_generator.state
        # the next draws of both generators agree too, buffered half included
        assert replay.integers(0, 2**31, size=3).tolist() == reference.integers(0, 2**31, size=3).tolist()

    @pytest.mark.parametrize("grid", [201, 5, 2])
    @pytest.mark.parametrize("count", REPLAY_COUNTS)
    def test_rows_and_final_state_equal_the_scalar_calls(self, count, grid):
        self.assert_same_draws(lambda: np.random.default_rng(23), count, grid)

    @pytest.mark.parametrize("grid", [201, 5, 2])
    @pytest.mark.parametrize("count", REPLAY_COUNTS)
    def test_a_buffered_zero_is_redrawn_like_numpy(self, count, grid):
        # a buffered 32-bit 0 fails Lemire's test, so row 0 draws its segment
        # count again from a fresh output
        self.assert_same_draws(lambda: with_buffer(np.random.default_rng(8), 1, 0), count, grid)

    def test_a_pending_buffer_is_used_first(self):
        # a buffered half that passes the test is row 0's integer draw
        self.assert_same_draws(lambda: with_buffer(np.random.default_rng(8), 1, 2**31), 300, 201)

    @pytest.mark.parametrize("count,extended", [(1, True), (2, False)])
    def test_rejected_fresh_outputs_extend_the_raw_block(self, monkeypatch, count, extended):
        # the stream's third output, row 0's integer draw, is 0: both of its
        # 32-bit halves are redrawn.  A one-row block then has less room for
        # row 0's levels than it reserved, and the walk draws more outputs; a
        # two-row block still has the slack of its second row
        inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
        zero_output_state = (1 << 64) | 1  # hi ^ lo = 0 and no rotation
        state = {
            "bit_generator": "PCG64",
            "state": {"state": pcg64_state_before(zero_output_state, 3, inc), "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }

        def make_rng():
            rng = np.random.default_rng(0)
            rng.bit_generator.state = state
            return rng

        assert make_rng().bit_generator.random_raw(3)[2] == 0
        joined = []
        concatenate = np.concatenate

        def spy(arrays, *args, **kwargs):
            joined.append([getattr(a, "dtype", None) for a in arrays])
            return concatenate(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "concatenate", spy)
        self.assert_same_draws(make_rng, count, 201)
        assert ([np.uint64, np.uint64] in joined) == extended  # a raw block and its extension

    def test_parameter_ranges_are_replayed_exactly(self):
        ranges = {"sigma_range": (1.0, 1.0), "t_range": (0.3, 7.25)}
        self.assert_same_draws(lambda: np.random.default_rng(4), 300, 17, **ranges)

    @pytest.mark.parametrize(
        "params",
        [
            {"grid": 2.7},
            {"grid": 1},
            {"grid": "201"},
            {"grid": True},
            {"sigma_range": (0.0, 1.0)},
            {"sigma_range": (-1.0, 1.0)},
            {"sigma_range": (2.0, 1.0)},
            {"sigma_range": (0.1, math.inf)},
            {"t_range": (0.0, 5.0)},
            {"t_range": (-0.5, 5.0)},
            {"t_range": (math.nan, 5.0)},
        ],
    )
    def test_bad_parameters_rejected_before_any_draw(self, monkeypatch, params):
        def no_draws(*args):
            raise AssertionError("drew profiles for a bad parameter")

        monkeypatch.setattr(sqglab.lemmas, "_exp_kernel_draws", no_draws)
        with pytest.raises(ValueError):
            estimate_constant(EnsembleSpec(count=10, seed=0), "2.5-expkernel", params)

    def test_an_integral_float_grid_is_the_whole_number(self):
        spec = EnsembleSpec(count=300, seed=3)
        as_float = estimate_constant(spec, "2.5-expkernel", {"grid": 51.0})
        as_int = estimate_constant(spec, "2.5-expkernel", {"grid": 51})
        assert as_float.max_ratio == as_int.max_ratio
        assert as_float.violations == as_int.violations == 0


class TestTallyNonFinite:
    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_ratio_is_a_violation(self, ratio):
        tally = sqglab.lemmas._Tally()
        tally.add(0.5)
        tally.add(ratio)
        assert (tally.max_ratio, tally.violations, tally.degenerate) == (0.5, 1, 0)

    @pytest.mark.parametrize(
        "lhs,rhs",
        [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (math.nan, 0.0), (math.inf, 1.0)],
    )
    def test_a_non_finite_side_is_a_violation(self, lhs, rhs):
        tally = sqglab.lemmas._Tally()
        tally.add_explicit(0.5, 1.0, 1e-9)
        tally.add_explicit(lhs, rhs, 1e-9)
        assert (tally.max_ratio, tally.violations, tally.degenerate) == (0.5, 1, 0)

    def test_finite_samples_are_tallied_as_before(self):
        tally = sqglab.lemmas._Tally()
        tally.add(None)
        tally.add(0.0)
        tally.add(0.25)
        tally.add_explicit(0.0, 0.0, 1e-9)
        tally.add_explicit(1.0, 0.0, 1e-9)
        tally.add_explicit(2.0, 1.0, 1e-9)
        assert (tally.max_ratio, tally.violations, tally.degenerate) == (2.0, 2, 2)


class TestEstimateConstant:
    def test_zero_ensemble_is_flagged_degenerate(self, lat):
        spec = EnsembleSpec(
            count=10,
            generator="multi_mode",
            seed=0,
            lattice=lat,
            params={"modes": []},
        )
        report = estimate_constant(spec, "2.2-productlaw", {"s1": ALPHA, "s2": ALPHA})
        assert report.estimated_constant == 0.0
        assert report.degenerate_samples > 0
        assert report.violations == 0

    @pytest.mark.parametrize(
        "generator,params,key",
        [
            ("gaussian", {"slopes": 9.0}, "slopes"),
            ("gaussian", {"modes": []}, "modes"),
            ("multi_mode", {"slope": 4.0}, "slope"),
            ("dyadic_bumps", {"max_index": 3}, "max_index"),
            ("multi_mode", {"modes": [], "max_modes": 4}, "max_modes"),
        ],
    )
    def test_a_generator_key_the_family_does_not_read_is_rejected_before_any_draw(
        self, lat, monkeypatch, generator, params, key
    ):
        # an ignored key is a silent misspelling: a gaussian "slopes" would
        # give the report of no params at all
        def no_draws(*args):
            raise AssertionError("drew a sample for a bad generator key")

        monkeypatch.setattr(sqglab.lemmas, "_draw", no_draws)
        with pytest.raises(ValueError, match=f"'{key}'"):
            spec = EnsembleSpec(count=10, generator=generator, seed=1, lattice=lat, params=params)
            estimate_constant(spec, "2.4-bilinear", {"alpha": ALPHA})

    @pytest.mark.parametrize("generator", ["gaussian", "multi_mode", "dyadic_bumps"])
    def test_each_generator_key_at_its_default_gives_the_default_report(self, generator):
        lattice = make_lattice(16, TWO_PI)
        defaults = {
            "gaussian": {"slope": 4.0},
            "multi_mode": {"max_modes": 4, "max_index": 3},
            "dyadic_bumps": {"shell_decay": 2.0},
        }[generator]
        assert defaults == sqglab.fields._GENERATORS[generator][1]
        reports = [
            estimate_constant(
                EnsembleSpec(count=10, generator=generator, seed=1, lattice=lattice, params=p),
                "2.4-bilinear",
                {"alpha": ALPHA},
            )
            for p in ({}, defaults)
        ]
        assert reports[0].max_ratio == reports[1].max_ratio

    def test_deterministic_for_a_fixed_seed(self, lat):
        spec = EnsembleSpec(count=20, generator="gaussian", seed=11, lattice=lat)
        a = estimate_constant(spec, "2.3-trilinear", {"alpha": ALPHA})
        b = estimate_constant(spec, "2.3-trilinear", {"alpha": ALPHA})
        assert a.max_ratio == b.max_ratio
        assert a.passed

    def test_estimate_stable_across_resolutions(self):
        # statistically matched ensembles: both band-limited to |j| <= 10
        reports = []
        for n in (64, 128):
            lattice = make_lattice(n, TWO_PI)
            spec = EnsembleSpec(
                count=60,
                generator="multi_mode",
                seed=5,
                lattice=lattice,
                params={"max_index": 3},
            )
            reports.append(
                estimate_constant(spec, "2.2-productlaw", {"s1": ALPHA, "s2": ALPHA})
            )
        lo, hi = sorted(r.estimated_constant for r in reports)
        assert hi <= lo * 1.2

    def test_report_json_schema(self, lat, tmp_path):
        spec = EnsembleSpec(count=12, generator="dyadic_bumps", seed=2, lattice=lat)
        report = estimate_constant(spec, "2.4-bilinear", {"alpha": ALPHA})
        payload = report.to_json_dict()
        assert set(payload) == {
            "lemma_id",
            "samples",
            "max_ratio",
            "violations",
            "estimated_constant",
            "seed",
            "lattice",
            "params",
            "degenerate_samples",
        }
        assert payload["lattice"] == {"n": 32, "box_len": TWO_PI}
        text = json.dumps(payload)
        assert json.loads(text)["lemma_id"] == "2.4-bilinear"

    def test_small_count_rejected(self, lat):
        spec = EnsembleSpec(count=5, generator="gaussian", seed=0, lattice=lat)
        with pytest.raises(ValueError):
            estimate_constant(spec, "2.3-trilinear", {"alpha": ALPHA})

    @pytest.mark.parametrize("which", ["99-bogus", ["2.3-trilinear"]])
    def test_unknown_lemma_rejected(self, lat, which):
        spec = EnsembleSpec(count=10, generator="gaussian", seed=0, lattice=lat)
        with pytest.raises(ValueError):
            estimate_constant(spec, which, {})

    @pytest.mark.parametrize(
        "which,params,key",
        [
            ("2.4-bilinear", {"form": "2.7"}, "form"),
            ("2.4-bilinear", {"form": ["both"]}, "form"),
            ("2.3-trilinear", {"sigma": []}, "sigma"),
            ("2.3-trilinear", {"sigma": ()}, "sigma"),
            ("2.3-trilinear", {"sigma": [1.0, 0.8]}, "sigma"),
            ("2.3-trilinear", {"sigma": "2"}, "sigma"),
            ("cauchy-advection", {"alpha": 0.7}, "alpha"),
            ("cauchy-advection", {"alpha": -3.0}, "alpha"),
            ("cauchy-advection", {"alpha": "abc"}, "alpha"),
            ("2.4-bilinear", {"alpha": 0.7}, "alpha"),
            ("2.3-trilinear", {"alpha": 0.7}, "alpha"),
            ("2.2-productlaw", {"s1": 1.5}, "s1"),
            ("2.1-productlaw-two-term", {"s2": math.nan}, "s2"),
            ("elementary", {"mag_range": (-1.0, 1.0)}, "mag_range"),
            ("elementary", {"mag_range": (0.0, math.inf)}, "mag_range"),
            ("elementary", {"sigma_range": (0.5, 2.0)}, "sigma_range"),
        ],
    )
    def test_a_bad_shape_parameter_is_rejected_before_any_draw(
        self, lat, monkeypatch, which, params, key
    ):
        # without the check the bad form and the empty sigma ran, tallied no
        # sample and passed, and so did cauchy-advection at any alpha and the
        # trilinear sigma "2"; a sigma below 1, the product-law orders, the bilinear alpha and the elementary
        # ranges failed only after a draw, and the trilinear alpha was named
        # as its derived default sigma
        def no_draws(*args):
            raise AssertionError("drew a sample for a bad parameter")

        for name in ("_draw", "_elementary_draws", "_exp_kernel_draws"):
            monkeypatch.setattr(sqglab.lemmas, name, no_draws)
        spec = EnsembleSpec(count=10, generator="gaussian", seed=0, lattice=lat)
        with pytest.raises(ValueError, match=key):
            estimate_constant(spec, which, params)

    @pytest.mark.parametrize(
        "which,params,key",
        [
            ("2.3-trilinear", {"alpha": ALPHA, "sigmas": [5.0]}, "sigmas"),
            ("2.4-bilinear", {"alpha": ALPHA, "include_self": False}, "include_self"),
            ("2.2-productlaw", {"s1": ALPHA, "alpha": ALPHA}, "alpha"),
            ("elementary", {"grid": 51}, "grid"),
            ("2.5-expkernel", {"mag_range": (0.0, 1.0)}, "mag_range"),
            ("cauchy-advection", {"alpha": ALPHA, "form": "2.6"}, "form"),
        ],
    )
    def test_an_unread_parameter_is_rejected_before_any_draw(
        self, lat, monkeypatch, which, params, key
    ):
        # a typo such as sigmas for sigma used to run the defaults and echo
        # the key in the report as if it had been applied
        def no_draws(*args):
            raise AssertionError("drew a sample for an unread parameter")

        for name in ("_draw", "_elementary_draws", "_exp_kernel_draws"):
            monkeypatch.setattr(sqglab.lemmas, name, no_draws)
        spec = EnsembleSpec(count=10, generator="gaussian", seed=0, lattice=lat)
        with pytest.raises(ValueError, match=repr(key)):
            estimate_constant(spec, which, params)

    @pytest.mark.parametrize(
        "which",
        [
            "2.1-productlaw-two-term",
            "2.2-productlaw",
            "2.3-trilinear",
            "2.4-bilinear",
            "cauchy-advection",
        ],
    )
    def test_a_field_shape_without_a_lattice_is_rejected_before_any_draw(
        self, monkeypatch, which
    ):
        def no_draws(*args):
            raise AssertionError("drew a field without a lattice")

        monkeypatch.setattr(sqglab.lemmas, "_draw", no_draws)
        with pytest.raises(ValueError, match="lattice"):
            estimate_constant(EnsembleSpec(count=10, seed=0), which)

    # every key each shape reads, at its default; the trilinear sigma default
    # is (1, 2 - 2 alpha) at alpha 0.25
    ROW_DEFAULTS = {
        "elementary": {"mag_range": (0.0, 10.0), "sigma_range": (1.0, 2.0)},
        "2.1-productlaw-two-term": {"s1": 0.25, "s2": 0.25},
        "2.2-productlaw": {"s1": 0.25, "s2": 0.25},
        "2.3-trilinear": {"alpha": 0.25, "sigma": (1.0, 1.5)},
        "2.4-bilinear": {"alpha": 0.25, "form": "both"},
        "2.5-expkernel": {"grid": 201, "sigma_range": (0.05, 10.0), "t_range": (0.1, 5.0)},
        "cauchy-advection": {"alpha": 0.25},
    }

    @pytest.mark.parametrize("which", list(ROW_DEFAULTS))
    def test_every_key_at_its_default_gives_the_default_report(self, which):
        spec = EnsembleSpec(count=10, seed=4, lattice=make_lattice(16, TWO_PI))
        params = self.ROW_DEFAULTS[which]
        assert set(params) == set(sqglab.lemmas._SHAPES[which].defaults)
        explicit = estimate_constant(spec, which, params)
        default = estimate_constant(spec, which, {})
        got = (explicit.max_ratio, explicit.violations, explicit.degenerate_samples)
        assert got == (default.max_ratio, default.violations, default.degenerate_samples)
        assert explicit.params == params and default.params == {}

    def test_the_offered_shapes_keep_their_order(self):
        assert LEMMA_IDS == (
            "elementary",
            "2.1-productlaw-two-term",
            "2.2-productlaw",
            "2.3-trilinear",
            "2.4-bilinear",
            "2.5-expkernel",
        )

    def test_every_read_parameter_is_accepted(self, lat):
        spec = EnsembleSpec(count=10, generator="gaussian", seed=0, lattice=lat)
        for which, params in [
            ("elementary", {"mag_range": (0.0, 1.0), "sigma_range": (1.0, 2.0)}),
            ("2.5-expkernel", {"grid": 5, "sigma_range": (0.1, 1.0), "t_range": (0.1, 1.0)}),
            ("2.1-productlaw-two-term", {"s1": ALPHA, "s2": ALPHA}),
            ("2.2-productlaw", {"s1": ALPHA, "s2": ALPHA}),
            ("2.3-trilinear", {"alpha": ALPHA, "sigma": 1.0}),
            ("2.4-bilinear", {"alpha": ALPHA, "form": "2.6"}),
            ("cauchy-advection", {"alpha": ALPHA}),
        ]:
            assert estimate_constant(spec, which, params).params == params

    def test_elementary_counts_a_non_finite_side_as_a_violation(self):
        # magnitudes near the float range overflow a^s; those samples used
        # to be skipped, leaving 0 violations and a NaN max_ratio
        spec = EnsembleSpec(count=1000, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            report = estimate_constant(spec, "elementary", {"mag_range": (0.0, 1e308)})
        assert report.violations > 0 and not report.passed
        assert math.isfinite(report.max_ratio)

    @pytest.mark.parametrize("form", ["2.5", "2.6", "both"])
    def test_each_bilinear_form_tallies_its_samples(self, lat, form):
        spec = EnsembleSpec(count=10, generator="gaussian", seed=0, lattice=lat)
        report = estimate_constant(spec, "2.4-bilinear", {"alpha": ALPHA, "form": form})
        assert report.passed and report.max_ratio > 0.0

    @pytest.mark.parametrize("seed,mag_range", [(1, (0.0, 10.0)), (4, (0.0, 10.0)), (2, (0.0, 0.0))])
    def test_elementary_slices_match_the_whole_array_exactly(self, seed, mag_range):
        # the zero range makes every sample degenerate, so the counts must add up
        count = _ELEMENTARY_CHUNK + 17
        spec = EnsembleSpec(count=count, seed=seed)
        report = estimate_constant(spec, "elementary", {"mag_range": mag_range})
        reference = elementary_ensemble(count, seed, mag_range)
        assert (report.max_ratio, report.violations, report.degenerate_samples) == reference

    def test_trilinear_advects_each_field_once(self, lat, monkeypatch):
        calls = []
        advect = sqglab.lemmas.advect

        def counted(w, theta):
            calls.append(1)
            return advect(w, theta)

        monkeypatch.setattr(sqglab.lemmas, "advect", counted)
        spec = EnsembleSpec(count=12, generator="gaussian", seed=3, lattice=lat)
        report = estimate_constant(spec, "2.3-trilinear", {"alpha": ALPHA})
        assert len(calls) == spec.count
        assert report.samples == spec.count and report.passed

    def test_scalar_lemmas_need_no_lattice(self):
        spec = EnsembleSpec(count=1000, generator="gaussian", seed=1)
        report = estimate_constant(spec, "elementary", {})
        assert report.violations == 0
        assert 0.0 < report.max_ratio <= 1.0 + 1e-12


class TestSmallnessDefault:
    def test_threshold_is_positive_and_cached(self):
        first = default_smallness_threshold(ALPHA)
        second = default_smallness_threshold(ALPHA)
        assert first == second > 0.0

    def test_threshold_scales_inversely_with_the_constant(self):
        # the threshold is 0.25 / C_hat by construction
        value = default_smallness_threshold(0.3)
        assert 0.0 < value < 1e3


def _public_loop(lemma_id, count, seed, lattice, params):
    """A field-lemma ensemble one pair at a time through the public check_*.

    Same draws in the same order as estimate_constant; the product laws pair
    f with g and with the two components of riesz_velocity(f), the bilinear
    shape pairs (omega, theta) and (theta, theta).  Returns (max_ratio,
    violations, degenerate_samples).
    """
    rng = np.random.default_rng(seed)

    def draw():
        return gaussian_random_field(lattice, 4.0, rng)

    ratios = []
    for _ in range(count):
        if "productlaw" in lemma_id:
            f, g = draw(), draw()
            for partner in (g, *riesz_velocity(f)):
                two_term, product = check_product_law(f, partner, params["s1"], params["s2"])
                ratios.append(product if lemma_id == "2.2-productlaw" else two_term)
        elif lemma_id == "2.3-trilinear":
            theta = draw()
            for sigma in (1.0, 2.0 - 2.0 * params["alpha"]):
                lhs, rhs = check_trilinear(theta, sigma, params["alpha"])
                ratios.append(lhs / rhs if rhs else (0.0 if lhs == 0.0 else math.inf))
        else:
            omega, theta = draw(), draw()
            for w in (omega, theta):
                ratios.extend(check_bilinear(w, theta, params["alpha"]))
    finite = [r for r in ratios if math.isfinite(r) and r != 0.0]
    return (
        max(finite, default=0.0),
        sum(math.isinf(r) for r in ratios),
        sum(r == 0.0 for r in ratios),
    )


class TestHalfSpectrumCores:
    S1, S2 = 1.0 - 2.0 * ALPHA, ALPHA
    PARAMS = {
        "2.1-productlaw-two-term": {"s1": S1, "s2": S2},
        "2.2-productlaw": {"s1": S1, "s2": S2},
        "2.3-trilinear": {"alpha": ALPHA},
        "2.4-bilinear": {"alpha": ALPHA},
    }

    def test_product_law_core_equals_the_public_check_per_partner(self, lat):
        from sqglab.lemmas import _product_law_core

        rng = np.random.default_rng(21)
        f, g = gaussian_random_field(lat, 2.0, rng), gaussian_random_field(lat, 2.0, rng)
        partners = (g, *riesz_velocity(f))
        m = lat.n // 2 + 1
        stack = np.stack([p.coeffs[:, :m] for p in partners])
        got = _product_law_core(lat, f.coeffs[:, :m], stack, self.S1, self.S2)
        assert got == [check_product_law(f, p, self.S1, self.S2) for p in partners]

    def test_bilinear_core_equals_the_public_check_per_pair(self, lat):
        from sqglab.lemmas import _bilinear_core

        rng = np.random.default_rng(22)
        omega, theta = gaussian_random_field(lat, 3.0, rng), gaussian_random_field(lat, 3.0, rng)
        m = lat.n // 2 + 1
        pair = np.stack([omega.coeffs[:, :m], theta.coeffs[:, :m]])
        got = _bilinear_core(lat, pair, ALPHA)
        assert got == [check_bilinear(omega, theta, ALPHA), check_bilinear(theta, theta, ALPHA)]

    @pytest.mark.parametrize("lemma_id", sorted(PARAMS))
    def test_reports_equal_a_per_pair_loop_over_the_public_checks(self, lat, lemma_id):
        params = self.PARAMS[lemma_id]
        spec = EnsembleSpec(count=24, generator="gaussian", seed=9, lattice=lat)
        report = estimate_constant(spec, lemma_id, params)
        max_ratio, violations, degenerate = _public_loop(lemma_id, 24, 9, lat, params)
        assert report.max_ratio == pytest.approx(max_ratio, rel=1e-12, abs=0.0)
        assert (report.violations, report.degenerate_samples) == (violations, degenerate)

    def test_product_law_pairs_each_f_with_g_and_its_riesz_velocity(self, lat, monkeypatch):
        from sqglab.lemmas import _product_law_core

        seen = []

        def recorded(lattice, f, partners, s1, s2):
            seen.append((f, partners))
            return _product_law_core(lattice, f, partners, s1, s2)

        monkeypatch.setattr(sqglab.lemmas, "_product_law_core", recorded)
        spec = EnsembleSpec(count=10, generator="gaussian", seed=5, lattice=lat)
        estimate_constant(spec, "2.1-productlaw-two-term", self.PARAMS["2.2-productlaw"])
        rng = np.random.default_rng(5)
        m = lat.n // 2 + 1
        assert len(seen) == spec.count
        for f_half, partners in seen:
            f, g = gaussian_random_field(lat, 4.0, rng), gaussian_random_field(lat, 4.0, rng)
            want = np.stack([h.coeffs[:, :m] for h in (g, *riesz_velocity(f))])
            assert np.array_equal(f_half, f.coeffs[:, :m])
            assert np.array_equal(partners, want)


def traced_peak(run):
    """Peak bytes traced by tracemalloc (numpy buffers included) over run()."""
    run()  # warm every cache first, so that only the ensemble's own memory counts
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConstantMemoryEnsembles:
    @pytest.mark.parametrize(
        "seed,mag_range", [(1, (0.0, 10.0)), (6, (2.0, 3.0)), (2, (0.0, 0.0))]
    )
    def test_small_slices_match_the_whole_array_exactly(self, monkeypatch, seed, mag_range):
        monkeypatch.setattr(sqglab.lemmas, "_ELEMENTARY_CHUNK", 1000)
        count = 2500
        spec = EnsembleSpec(count=count, seed=seed)
        report = estimate_constant(spec, "elementary", {"mag_range": mag_range})
        reference = elementary_ensemble(count, seed, mag_range)
        assert (report.max_ratio, report.violations, report.degenerate_samples) == reference

    def test_slices_are_the_whole_array_draws(self, monkeypatch):
        # sample i of a, c and sigma is draw i, count + i and 2 count + i
        monkeypatch.setattr(sqglab.lemmas, "_ELEMENTARY_CHUNK", 1000)
        count, seed = 2500, 11
        spec = EnsembleSpec(count=count, seed=seed)
        parts = list(sqglab.lemmas._elementary_draws(spec, 0.0, 10.0, 1.0, 2.0))
        assert [len(p[0]) for p in parts] == [1000, 1000, 500]
        rng = np.random.default_rng(seed)
        whole = [rng.uniform(lo, hi, count) for lo, hi in ((0.0, 10.0), (0.0, 10.0), (1.0, 2.0))]
        for k in range(3):
            assert np.array_equal(np.concatenate([p[k] for p in parts]), whole[k])

    def test_elementary_memory_does_not_grow_with_the_count(self):
        chunk = sqglab.lemmas._ELEMENTARY_CHUNK

        def run(count):
            return lambda: estimate_constant(EnsembleSpec(count=count, seed=5), "elementary")

        small, large = traced_peak(run(4 * chunk)), traced_peak(run(32 * chunk))
        assert large <= 1.25 * small, (small, large)

    def test_exp_kernel_memory_does_not_grow_with_the_count(self):
        block = sqglab.lemmas._EXP_KERNEL_BLOCK

        def run(count):
            return lambda: estimate_constant(EnsembleSpec(count=count, seed=5), "2.5-expkernel")

        small, large = traced_peak(run(4 * block)), traced_peak(run(32 * block))
        assert large <= 1.25 * small, (small, large)
