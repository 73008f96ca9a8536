import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import sqglab.decay
from sqglab import (
    EnsembleSpec,
    GateError,
    SolverConfig,
    cauchy_in_time_check,
    decay_experiment,
    default_delta_ladder,
    duhamel_highfreq_bound,
    estimate_constant,
    gaussian_random_field,
    high_pass,
    hom_norm,
    initial_field,
    low_pass,
    make_lattice,
    multi_mode_field,
    occupation_report,
    simulate,
    split_diagnostics,
    unit_mode,
)
from sqglab.decay import (
    _band_norms_sq,
    estimate_cauchy_constant,
    estimate_split_constant,
)
import oracles

TWO_PI = 2.0 * np.pi
ALPHA = 0.25


def run_config(**overrides):
    base = dict(
        alpha=ALPHA,
        n=32,
        dt=0.01,
        t_end=3.0,
        seed=5,
        init_norm_rel=0.1,
        snapshot_every=10,
        output_every=1,
    )
    base.update(overrides)
    if base.get("init_norm") is not None:
        base["init_norm_rel"] = None
    return SolverConfig(**base)


@pytest.fixture(scope="module")
def small_run():
    cfg = run_config()
    return simulate(initial_field(cfg), cfg)


@pytest.fixture(scope="module")
def c_hat():
    return estimate_split_constant(make_lattice(32, TWO_PI), ALPHA)


class TestSplitDiagnostics:
    def test_zero_trajectory(self, c_hat):
        cfg = run_config(t_end=0.5)
        traj = simulate(multi_mode_field(cfg.lattice(), []), cfg)
        diag = split_diagnostics(traj, 2.0, c_hat)
        assert diag.sup_w_l2 == 0.0
        assert diag.int_w_ha == 0.0
        assert diag.eps_delta == 0.0
        assert diag.passed

    def test_cutoff_beyond_lattice_degenerates_to_the_global_ledger(self, small_run, c_hat):
        lat = small_run.initial.lattice
        delta = float(lat.kmag.max()) + 1.0
        diag = split_diagnostics(small_run, delta, c_hat)
        # w = theta: the low-frequency ledger becomes the L2 energy ledger
        assert diag.sup_w_l2 == pytest.approx(float(small_run.series.l2.max()), rel=1e-12)
        assert diag.int_v_negsigma == 0.0
        assert diag.passed

    def test_small_data_run_passes_the_ladder(self, small_run, c_hat):
        for delta in default_delta_ladder(small_run.initial.lattice):
            diag = split_diagnostics(small_run, delta, c_hat)
            assert diag.passed, f"delta={delta}: {diag}"

    def test_reconstruction_is_exact(self, small_run):
        from sqglab import high_pass, low_pass

        for snap in small_run.snapshots:
            low = low_pass(snap, 2.0)
            high = high_pass(snap, 2.0)
            assert np.array_equal(low.coeffs + high.coeffs, snap.coeffs)
            total = hom_norm(snap, 0.0) ** 2
            split = hom_norm(low, 0.0) ** 2 + hom_norm(high, 0.0) ** 2
            assert split == pytest.approx(total, rel=1e-12)

    def test_eps_delta_monotone_in_delta(self, small_run, c_hat):
        ladder = default_delta_ladder(small_run.initial.lattice)
        values = [split_diagnostics(small_run, d, c_hat).eps_delta for d in ladder]
        assert values == sorted(values)

    def test_requires_snapshots(self, c_hat):
        cfg = run_config(snapshot_every=0, t_end=0.2)
        traj = simulate(initial_field(cfg), cfg)
        with pytest.raises(ValueError):
            split_diagnostics(traj, 1.0, c_hat)


class TestDuhamelBound:
    def test_zero_trajectory(self):
        cfg = run_config(t_end=0.5)
        traj = simulate(multi_mode_field(cfg.lattice(), []), cfg)
        int_v, m_delta = duhamel_highfreq_bound(traj, 1.0, 0.5)
        assert int_v == 0.0 and m_delta == 0.0

    def test_linear_single_mode_matches_the_closed_form(self):
        # ||v(t)||^2_{-sigma} = |k|^{-2 sigma} e^{-2 |k|^{2a} t} ||theta0||^2
        cfg = run_config(
            nonlinear=False, dt=0.002, t_end=12.0, output_every=1, snapshot_every=5
        )
        lat = cfg.lattice()
        theta0 = unit_mode(lat, 3, 0, amp=0.2)
        traj = simulate(theta0, cfg)
        sigma = 2.0 - 3.0 * ALPHA
        kmag = 3.0
        int_v, m_delta = duhamel_highfreq_bound(traj, 1.5, 0.0)
        closed = (
            kmag ** (-2.0 * sigma)
            * hom_norm(theta0, 0.0) ** 2
            / (2.0 * kmag ** (2.0 * ALPHA))
        )
        assert int_v == pytest.approx(closed, rel=1e-3)
        assert int_v <= m_delta

    def test_small_data_run_is_bounded(self, small_run, c_hat):
        for delta in default_delta_ladder(small_run.initial.lattice):
            int_v, m_delta = duhamel_highfreq_bound(small_run, delta, c_hat)
            assert int_v <= m_delta * (1.0 + 1e-6)


class TestOccupationReport:
    def test_all_below_threshold(self):
        t = np.linspace(0.0, 2.0, 21)
        v = np.full(21, 0.1)
        report = occupation_report(t, v, 0.5, 2.0)
        assert report.measure_estimate == 0.0
        assert report.first_good_time == 0.0
        assert report.passed

    def test_constant_series_above_threshold(self):
        t = np.linspace(0.0, 3.0, 31)
        v = np.full(31, 2.0)
        report = occupation_report(t, v, 0.5, 2.0)
        assert report.measure_estimate == pytest.approx(3.0)
        assert report.bound == pytest.approx(3.0 * (2.0 / 0.5) ** 2)
        assert math.isinf(report.first_good_time)
        assert report.passed

    def test_decaying_series_has_a_finite_good_time(self):
        t = np.linspace(0.0, 5.0, 101)
        v = np.exp(-t)
        report = occupation_report(t, v, 0.1, 2.0)
        assert report.passed
        assert report.first_good_time == pytest.approx(-math.log(0.1), abs=0.06)

    @pytest.mark.parametrize("seed", range(5))
    def test_chebyshev_holds_for_arbitrary_series(self, seed):
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 10.0, size=50))
        t[0] = 0.0
        v = rng.uniform(0.0, 4.0, size=50)
        eps = float(rng.uniform(0.05, 3.0))
        p = float(rng.uniform(1.0, 3.0))
        assert occupation_report(t, v, eps, p).passed

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            occupation_report([], [], 1.0, 2.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            occupation_report([0.0, 1.0], [1.0, 1.0], 0.0, 2.0)
        with pytest.raises(ValueError):
            occupation_report([0.0, 1.0], [1.0, 1.0], 1.0, 0.5)


class TestCauchyInTime:
    def test_zero_trajectory_has_zero_ratio(self):
        cfg = run_config(t_end=0.5)
        traj = simulate(multi_mode_field(cfg.lattice(), []), cfg)
        check = cauchy_in_time_check(traj, 1.0)
        assert check.worst_ratio == 0.0 and check.passed

    def test_linear_single_mode_is_within_the_bound(self):
        cfg = run_config(nonlinear=False, t_end=2.0, snapshot_every=20)
        lat = cfg.lattice()
        traj = simulate(unit_mode(lat, 1, 0, amp=0.3), cfg)
        check = cauchy_in_time_check(traj, 0.0)
        # |e^{-t} - e^{-t'}| <= (t' - t) and M >= ||theta||_{H} >= ||theta||_{L2}
        assert check.passed

    def test_small_data_run_is_lipschitz(self, small_run):
        c_adv = estimate_cauchy_constant(small_run.initial.lattice, ALPHA)
        check = cauchy_in_time_check(small_run, c_adv)
        assert check.worst_ratio <= 1.0 + 1e-6

    def test_too_few_snapshots_rejected(self):
        cfg = run_config(snapshot_every=0, t_end=0.2)
        traj = simulate(initial_field(cfg), cfg)
        with pytest.raises(ValueError):
            cauchy_in_time_check(traj, 1.0)

    @pytest.mark.parametrize("count, used", [(351, 59), (128, 64)])
    def test_stride_keeps_at_most_max_snapshots(self, monkeypatch, count, used):
        lat = make_lattice(16, TWO_PI)
        traj = SimpleNamespace(
            snapshots=[unit_mode(lat, 1, 0, amp=1.0 + i) for i in range(count)],
            snapshot_times=[0.01 * i for i in range(count)],
            series=SimpleNamespace(h_crit=np.array([1.0])),
        )
        chunks = []
        real = sqglab.decay._sq_norms
        monkeypatch.setattr(
            sqglab.decay,
            "_sq_norms",
            lambda lat, half, orders: chunks.append(len(half)) or real(lat, half, orders),
        )
        cauchy_in_time_check(traj, 1.0)
        # one norm per pair of the kept snapshots
        pairs = sum(chunks)
        kept = (1 + math.isqrt(1 + 8 * pairs)) // 2
        assert kept * (kept - 1) // 2 == pairs
        assert kept == used <= 64

    @pytest.mark.parametrize("count, kept", [(2, 2), (70, 35)])
    def test_chunked_pairs_equal_the_per_pair_loop(self, monkeypatch, count, kept):
        lat = make_lattice(16, TWO_PI)
        rng = np.random.default_rng(count)
        snaps = [gaussian_random_field(lat, 2.0, rng) for _ in range(count)]
        times = [0.01 * i + 0.001 * i * i for i in range(count)]
        series = SimpleNamespace(h_crit=np.array([1.0, 3.0]))
        traj = SimpleNamespace(snapshots=snaps, snapshot_times=times, series=series)
        chunks = []
        real = sqglab.decay._sq_norms
        monkeypatch.setattr(
            sqglab.decay,
            "_sq_norms",
            lambda lat, half, orders: chunks.append(len(half)) or real(lat, half, orders),
        )
        check = cauchy_in_time_check(traj, 0.5)
        # the differences from each kept snapshot to the later ones, a chunk per call
        size = sqglab.decay._CAUCHY_CHUNK
        assert 1 < size <= 8
        later = range(kept - 1, 0, -1)  # how many later snapshots each kept one has
        assert chunks == [min(size, r - k) for r in later for k in range(0, r, size)]
        rate = (1.0 + 0.5 * 3.0) * 3.0
        snaps, times = snaps[:: count // kept], times[:: count // kept]
        worst = 0.0
        for i in range(kept):
            for j in range(i + 1, kept):
                diff = hom_norm(snaps[j] - snaps[i], 0.0)
                worst = max(worst, diff / (rate * (times[j] - times[i])))
        assert check.worst_ratio == worst and check.rate == rate

    def test_ratio_stable_under_dt_refinement(self):
        # the fitted Lipschitz ratio is a property of the flow, not the step
        ratios = []
        for dt in (0.02, 0.01, 0.005):
            cfg = run_config(dt=dt, t_end=1.0, snapshot_every=int(0.1 / dt))
            traj = simulate(initial_field(cfg), cfg)
            ratios.append(cauchy_in_time_check(traj, 0.1).worst_ratio)
        assert max(ratios) <= min(ratios) * 1.05


class TestDecayExperiment:
    def test_zero_data_gives_a_trivial_report(self):
        cfg = run_config(t_end=0.5, init_norm=None, init_norm_rel=None,
                         init_kind="multi_mode", init_modes=())
        theta0 = multi_mode_field(cfg.lattice(), [])
        report = decay_experiment(cfg, theta0)
        assert report.gate_passed
        assert report.terminal_ratio == 0.0
        assert report.diagnostics_passed

    def test_single_small_mode_decays_at_the_linear_rate(self):
        cfg = run_config(t_end=2.0, init_norm=None, init_norm_rel=None)
        lat = cfg.lattice()
        theta0 = unit_mode(lat, 2, 0, amp=0.005)
        report = decay_experiment(cfg, theta0, target=1.0)
        expected = math.exp(-(2.0**0.5) * cfg.t_end)
        assert report.terminal_ratio == pytest.approx(expected, rel=1e-6)
        assert report.diagnostics_passed

    def test_gate_failure_refuses_without_force(self):
        cfg = run_config(init_norm=100.0, eps0=0.5, t_end=0.5)
        theta0 = initial_field(cfg)
        with pytest.raises(GateError):
            decay_experiment(cfg, theta0)
        report = decay_experiment(cfg, theta0, force=True, target=math.inf)
        assert not report.gate_passed

    def test_small_data_pipeline_passes_end_to_end(self):
        cfg = run_config(t_end=4.0, dt=0.005)
        theta0 = initial_field(cfg)
        report = decay_experiment(cfg, theta0, target=0.9)
        assert report.gate_passed
        assert report.diagnostics_passed
        assert report.terminal_ratio < 0.9
        assert report.interpolation_worst >= -1e-10
        assert report.embedding_worst <= 1e-10
        payload = report.to_json_dict()
        assert payload["passed"] is True
        assert len(payload["splits"]) == 4

    def test_residual_csv_layout(self, tmp_path):
        cfg = run_config(t_end=0.5)
        report = decay_experiment(cfg, initial_field(cfg), target=math.inf)
        path = tmp_path / "residuals.csv"
        report.residuals_to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,embed_slack_rel,interp_gap_rel"
        assert len(lines) == len(report.residual_times) + 1

    def test_requires_snapshots(self):
        cfg = run_config(snapshot_every=0)
        with pytest.raises(ValueError):
            decay_experiment(cfg, initial_field(cfg))

    @pytest.mark.parametrize("name", ["c_hat", "cauchy_c_hat"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_a_given_constant_is_checked_before_the_run(self, monkeypatch, name, bad):
        # a nan or negative constant makes every Cauchy ratio nan or negative,
        # which max() drops, so the check would pass with worst_ratio 0
        def no_run(*args, **kwargs):
            raise AssertionError("simulate ran")

        monkeypatch.setattr(sqglab.decay, "simulate", no_run)
        cfg = run_config(t_end=0.5)
        with pytest.raises(ValueError, match=f"^{name} must"):
            decay_experiment(cfg, initial_field(cfg), **{name: bad})

    def test_an_empty_cutoff_ladder_is_rejected(self):
        # with no split ledger and no occupation report it would pass vacuously
        cfg = run_config(t_end=0.5)
        with pytest.raises(ValueError, match="ladder"):
            decay_experiment(cfg, initial_field(cfg), deltas=[])


class TestShellSpectrumPath:
    """The shell-spectrum band norms against the per-mode filters."""

    def test_tiny_high_tails_keep_their_digits(self):
        lat = make_lattice(64, TWO_PI)
        rng = np.random.default_rng(11)
        fields = [gaussian_random_field(lat, 8.0, rng, band_limit=False) for _ in range(3)]
        deltas = (1.0, 4.0, 8.0, 16.0)
        orders = (0.0, ALPHA, -(2.0 - 3.0 * ALPHA))
        low, high = _band_norms_sq(fields, deltas, orders)
        assert low.shape == high.shape == (3, 4, 3)
        # at delta 16 the high part is far below the total: total - low
        # would keep none of its digits
        assert np.all(high[:, -1, 0] < 1e-12 * low[:, -1, 0])
        for i, f in enumerate(fields):
            for j, delta in enumerate(deltas):
                for k, s in enumerate(orders):
                    want_low = hom_norm(low_pass(f, delta), s) ** 2
                    want_high = hom_norm(high_pass(f, delta), s) ** 2
                    assert low[i, j, k] == pytest.approx(want_low, rel=1e-12, abs=0.0)
                    assert high[i, j, k] == pytest.approx(want_high, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_a_non_finite_or_negative_constant_is_rejected(self, small_run, bad):
        for check in (split_diagnostics, duhamel_highfreq_bound):
            with pytest.raises(ValueError, match="^c_hat must"):
                check(small_run, 1.0, bad)
        with pytest.raises(ValueError, match="^c_hat must"):
            cauchy_in_time_check(small_run, bad)

    def test_empty_ladder_rejected(self, small_run):
        with pytest.raises(ValueError, match="ladder"):
            _band_norms_sq(small_run.snapshots, [], (0.0,))

    def test_non_positive_cutoff_rejected(self, small_run):
        with pytest.raises(ValueError):
            duhamel_highfreq_bound(small_run, 0.0, 1.0)
        with pytest.raises(ValueError):
            split_diagnostics(small_run, -1.0, 1.0)

    def test_decay_diagnostics_match_the_per_mode_reference(self):
        cfg = run_config(t_end=1.0, snapshot_every=2)
        theta0 = initial_field(cfg)
        traj = simulate(theta0, cfg)
        deltas = default_delta_ladder(cfg.lattice()) + (1.7, 5.3, 9.9)
        c_hat = 0.7
        report = decay_experiment(
            cfg, theta0, deltas=deltas, c_hat=c_hat, cauchy_c_hat=1.0, target=math.inf
        )
        for delta, split in zip(deltas, report.splits):
            want = oracles.split_ledger(traj, delta, c_hat)
            got = (split.sup_w_l2, split.int_w_ha, split.eps_delta)
            got += (split.int_v_negsigma, split.m_delta)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            int_v, m_delta = duhamel_highfreq_bound(traj, delta, c_hat)
            assert (int_v, m_delta) == pytest.approx(
                oracles.duhamel_bound(traj, delta, ALPHA, c_hat), rel=1e-12, abs=0.0
            )
        t = np.asarray(traj.snapshot_times)
        threshold = 0.5 * 0.1 * float(traj.series.l2[0])
        for delta, occ in zip(deltas, report.occupations_low):
            want = occupation_report(t, oracles.band_norms(traj, delta, 0.0, 1), threshold, 2.0)
            assert occ.first_good_time == want.first_good_time
            assert (occ.measure_estimate, occ.bound) == pytest.approx(
                (want.measure_estimate, want.bound), rel=1e-12, abs=0.0
            )
        want = oracles.embedding_slack(traj, deltas)
        embed = report.residuals["embed_slack_rel"]
        np.testing.assert_allclose(embed, want, rtol=1e-12, atol=1e-12)

    def test_one_shell_sweep_gives_the_single_cutoff_results_exactly(self, monkeypatch):
        cfg = run_config(t_end=1.0, snapshot_every=2)
        theta0 = initial_field(cfg)
        traj = simulate(theta0, cfg)
        deltas = default_delta_ladder(cfg.lattice()) + (1.7, 5.3, 9.9)
        c_hat = 0.7
        calls = []
        real = sqglab.decay.shell_spectrum
        monkeypatch.setattr(
            sqglab.decay, "shell_spectrum", lambda f: calls.append(f) or real(f)
        )
        report = decay_experiment(
            cfg, theta0, deltas=deltas, c_hat=c_hat, cauchy_c_hat=1.0, target=math.inf
        )
        assert len(calls) <= 2 * len(traj.snapshots) + 2
        assert len(report.splits) == len(deltas)
        for delta, split in zip(deltas, report.splits):
            assert split.to_json_dict() == split_diagnostics(traj, delta, c_hat).to_json_dict()
            assert (split.int_v_negsigma, split.m_delta) == duhamel_highfreq_bound(
                traj, delta, c_hat
            )


class TestLatticeReuse:
    def test_decay_experiment_runs_on_the_field_lattice(self, monkeypatch):
        cfg = run_config(t_end=0.5)
        theta0 = initial_field(cfg)
        reference = decay_experiment(cfg, theta0, target=math.inf).to_json_dict()

        def no_new_lattice(self):
            raise AssertionError("decay_experiment built a second lattice")

        monkeypatch.setattr(SolverConfig, "lattice", no_new_lattice)
        assert decay_experiment(cfg, theta0, target=math.inf).to_json_dict() == reference


class TestFullLayoutReads:
    def test_a_run_and_its_decay_pipeline_build_only_the_generators_mask(self):
        # every operator and every field generator (of the initial field and
        # of the ensembles that set the decay constants on the run's lattice)
        # reads the lattice's half arrays
        cfg = run_config(t_end=0.5)
        theta0 = initial_field(cfg)
        lat = theta0.lattice
        simulate(theta0, cfg)
        decay_experiment(cfg, theta0, target=math.inf)
        names = ("modes1", "modes2", "kx", "ky", "k2", "kmag", "dealias_mask")
        assert [name for name in names if name in vars(lat)] == []


class TestEnsembleFamilies:
    """Each decay constant is set by a different family on the same lattice, so both stay."""

    LATTICE = make_lattice(16, TWO_PI)

    def family_constants(self, which, params, seed):
        return [
            estimate_constant(
                EnsembleSpec(count=32, generator=generator, seed=seed, lattice=self.LATTICE),
                which,
                params,
            ).estimated_constant
            for generator in ("gaussian", "multi_mode")
        ]

    def test_gaussian_fields_set_the_split_constant(self):
        gaussian, few_mode = self.family_constants("2.2-productlaw", {"s1": ALPHA, "s2": ALPHA}, 13)
        assert estimate_split_constant(self.LATTICE, ALPHA) == gaussian > few_mode

    def test_few_mode_fields_set_the_cauchy_constant(self):
        gaussian, few_mode = self.family_constants("cauchy-advection", {"alpha": ALPHA}, 17)
        assert estimate_cauchy_constant(self.LATTICE, ALPHA) == few_mode > gaussian
