import json
import math

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
from sqglab.lemmas import _ELEMENTARY_CHUNK, _EXP_KERNEL_BLOCK, exp_kernel_tolerance

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

    def test_unknown_lemma_rejected(self, lat):
        spec = EnsembleSpec(count=10, generator="gaussian", seed=0, lattice=lat)
        with pytest.raises(ValueError):
            estimate_constant(spec, "99-bogus", {})

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
        assert _bilinear_core(lat, pair, ALPHA, include_self=False) == got[:1]

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
