import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sqglab import (
    BlowupError,
    CflError,
    SolverConfig,
    blowup_monitor,
    dealias,
    energy_ledger,
    gaussian_random_field,
    hom_norm,
    inhom_norm,
    initial_field,
    make_lattice,
    multi_mode_field,
    nonlinear_term,
    simulate,
    smallness_gate,
    step,
    unit_mode,
)
from sqglab.fields import dyadic_bumps_field, random_multi_mode, scaled_to_norm
from sqglab.solver import SERIES_COLUMNS
from oracles import advection_coeffs

TWO_PI = 2.0 * np.pi


def small_config(**overrides):
    base = dict(
        alpha=0.25,
        n=32,
        dt=0.01,
        t_end=1.0,
        seed=3,
        init_norm_rel=0.1,
        eps0=1.0,
    )
    base.update(overrides)
    if base.get("init_norm") is not None:
        base["init_norm_rel"] = None
    return SolverConfig(**base)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha": 0.0},
            {"alpha": 0.5},
            {"dt": 0.0},
            {"t_end": 0.001},
            {"output_every": 0},
            {"eps0": -1.0},
            {"n": 15},
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    def test_explicit_eps0_wins_over_the_default(self):
        assert small_config(eps0=2.5).resolved_eps0() == 2.5

    def test_default_eps0_is_deterministic(self):
        cfg = small_config(eps0=None)
        assert cfg.resolved_eps0() == cfg.resolved_eps0()
        assert cfg.resolved_eps0() > 0

    @pytest.mark.parametrize(
        "bad",
        [
            {"nonlinear": "false"},
            {"auto_dt": "no"},
            {"track_cancellation": "yes"},
            {"track_cancellation": 1},
            {"nonlinear": None},
            {"n": 16.5},
            {"n": "16"},
            {"n": True},
        ],
        ids=repr,
    )
    def test_flags_take_bools_and_n_takes_whole_numbers(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            small_config(**bad)

    def test_integral_float_n_becomes_an_int(self):
        cfg = small_config(n=32.0)
        assert cfg.n == 32 and type(cfg.n) is int

    def test_step_count_preflight(self):
        # rejected in __post_init__, before any field is built or step taken
        with pytest.raises(ValueError, match="steps"):
            small_config(dt=1e-300)
        with pytest.raises(ValueError, match="steps"):
            small_config(t_end=1e300, dt=1.0)
        from sqglab.solver import MAX_STEPS

        assert small_config(t_end=MAX_STEPS * 1e-6, dt=1e-6).dt == 1e-6

    def test_lattice_size_preflight(self):
        # rejected by the lattice before any array is allocated
        with pytest.raises(ValueError, match="lattice size"):
            small_config(n=10**9)

    def test_box_len_keeps_the_norm_scales_normal_floats(self):
        # each puts box_len**2/n**4 or (2 pi n/box_len)**±4 out of the normal
        # float range, so the norms would overflow or run on inf and nan
        for bad in (1e160, 1e-100, 1e100, 1e-300):
            with pytest.raises(ValueError, match="box_len"):
                small_config(n=16, box_len=bad)
        for good in (1e-8, 1e20):
            assert small_config(n=16, box_len=good).box_len == good

    @pytest.mark.parametrize(
        "bad, key",
        [
            ({"init_kind": "dyadic_bumps", "init_slope": 9.0}, "init_slope"),
            ({"init_kind": "multi_mode", "init_slope": 2}, "init_slope"),
            ({"init_modes": [[1, 0, 1.0, 0.0]], "init_slope": 9.0}, "init_slope"),
            ({"init_modes": [[1, 0, 1.0, 0.0]], "init_kind": "dyadic_bumps"}, "init_kind"),
        ],
        ids=repr,
    )
    def test_an_init_setting_the_draw_would_not_read_is_rejected(self, bad, key):
        # each was silently dropped: the field equals the one without it
        with pytest.raises(ValueError, match=key):
            small_config(**bad)


class TestNonlinearTerm:
    def test_zero_field(self):
        lat = make_lattice(16, TWO_PI)
        assert np.all(nonlinear_term(multi_mode_field(lat, [])).coeffs == 0.0)

    def test_single_mode_self_advection_vanishes(self):
        # u is perpendicular to grad(theta) mode by mode for one real mode
        lat = make_lattice(32, TWO_PI)
        theta = unit_mode(lat, 2, 1, amp=3.0)
        term = nonlinear_term(theta)
        assert np.abs(term.coeffs).max() <= 1e-12 * np.abs(theta.coeffs).max()

    def test_two_mode_field_matches_direct_convolution(self):
        lat = make_lattice(8, TWO_PI)
        theta = multi_mode_field(lat, [(1, 0, 1.0, 0.0), (0, 2, 0.5, 1.0)])
        expected = advection_coeffs(theta.coeffs, theta.coeffs, 8, TWO_PI)
        got = nonlinear_term(theta).coeffs
        np.testing.assert_allclose(got, expected, atol=1e-12 * np.abs(expected).max())

    def test_result_is_dealiased_and_mean_free(self):
        lat = make_lattice(32, TWO_PI)
        theta = gaussian_random_field(lat, 2.0, np.random.default_rng(0))
        term = nonlinear_term(theta)
        assert term.coeffs[0, 0] == 0.0
        assert np.all(term.coeffs[~lat.dealias_mask] == 0.0)


class TestStep:
    def test_linear_step_is_exact(self):
        cfg = small_config(nonlinear=False, dt=0.37)
        lat = cfg.lattice()
        theta = unit_mode(lat, 2, 0)
        out = step(theta, cfg)
        decay = math.exp(-(2.0**0.5) * cfg.dt)
        np.testing.assert_allclose(out.coeffs, decay * theta.coeffs, rtol=1e-14)

    def test_zero_state_is_a_fixed_point(self):
        cfg = small_config()
        theta = multi_mode_field(cfg.lattice(), [])
        assert np.all(step(theta, cfg).coeffs == 0.0)

    def test_fourth_order_convergence(self):
        # Richardson refinement against a much finer reference
        cfg_ref = small_config(
            dt=0.4 / 512, t_end=0.4, init_norm=3.0, seed=9, auto_dt=False
        )
        theta0 = initial_field(cfg_ref)
        reference = simulate(theta0, cfg_ref).final
        errors = []
        steps = [8, 16, 32]
        for m in steps:
            cfg = dataclasses.replace(cfg_ref, dt=0.4 / m)
            final = simulate(theta0, cfg).final
            errors.append(hom_norm(final - reference, 0.0))
        orders = [
            math.log(errors[i] / errors[i + 1]) / math.log(2.0)
            for i in range(len(errors) - 1)
        ]
        assert min(orders) > 3.5

    def test_a_non_finite_step_raises_floating_point_error(self):
        # a single step has no run record to carry, so it is not a BlowupError
        cfg = small_config(dt=1.0, init_norm=1e150)
        theta = initial_field(cfg)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as err:
            step(theta, cfg)
        assert not isinstance(err.value, BlowupError)


class TestSimulate:
    def test_zero_data_stays_zero(self):
        cfg = small_config()
        record = simulate(multi_mode_field(cfg.lattice(), []), cfg)
        assert np.all(record.series.l2 == 0.0)
        assert np.all(record.series.d_h == 0.0)
        assert np.all(record.final.coeffs == 0.0)

    def test_single_small_mode_follows_the_linear_flow(self):
        # the self-advection of one mode vanishes, so nonlinear == linear
        cfg = small_config(t_end=1.0, init_norm=None)
        lat = cfg.lattice()
        theta0 = unit_mode(lat, 1, 0, amp=0.01)
        record = simulate(theta0, cfg)
        expected = math.exp(-cfg.t_end) * 0.01
        final_amp = hom_norm(record.final, 0.0) / hom_norm(unit_mode(lat, 1, 0), 0.0)
        assert final_amp == pytest.approx(expected, rel=1e-6)

    def test_linear_run_matches_the_semigroup_at_every_sample(self):
        cfg = small_config(nonlinear=False, dt=0.05, t_end=0.5, output_every=2,
                           snapshot_every=1)
        lat = cfg.lattice()
        theta0 = gaussian_random_field(lat, 1.5, np.random.default_rng(1))
        record = simulate(theta0, cfg)
        symbol = lat.symbol_power(2.0 * cfg.alpha)
        for t, snap in zip(record.snapshot_times, record.snapshots):
            exact = np.exp(-t * symbol) * theta0.coeffs
            np.testing.assert_allclose(snap.coeffs, exact, rtol=1e-12, atol=1e-18)

    def test_critical_norm_is_monotone_for_small_data(self):
        cfg = small_config(n=48 - 16, t_end=2.0, init_norm_rel=0.1, eps0=None)
        record = simulate(initial_field(cfg), cfg)
        h = record.series.h_crit
        assert np.all(np.diff(h) <= 1e-12 * h[0])

    def test_mean_mode_stays_zero(self):
        cfg = small_config(snapshot_every=5)
        record = simulate(initial_field(cfg), cfg)
        assert all(s.coeffs[0, 0] == 0.0 for s in record.snapshots)
        assert record.final.coeffs[0, 0] == 0.0

    def test_sample_times_strictly_increase_and_reach_t_end(self):
        cfg = small_config(dt=0.03, t_end=0.2, output_every=3)
        record = simulate(initial_field(cfg), cfg)
        assert np.all(np.diff(record.times) > 0)
        assert record.times[-1] == pytest.approx(cfg.t_end, rel=1e-12)

    def test_lattice_mismatch_rejected(self):
        cfg = small_config(n=32)
        theta0 = unit_mode(make_lattice(16, TWO_PI), 1, 0)
        with pytest.raises(ValueError):
            simulate(theta0, cfg)

    def test_blowup_abort_carries_the_partial_record(self):
        # disable the CFL clamp so the advective instability trips the ceiling
        cfg = small_config(
            init_norm=50.0, blowup_factor=1.02, t_end=40.0, dt=1.0, cfl=1e9
        )
        with pytest.raises(BlowupError) as err:
            simulate(initial_field(cfg), cfg)
        record = err.value.record
        assert record is not None and record.aborted
        assert record.abort_reason == "norm ceiling exceeded"
        assert np.all(np.isfinite(record.series.h_crit))

    def test_cfl_violation_raises_without_auto_dt(self):
        cfg = small_config(init_norm=50.0, dt=0.5, t_end=1.0, auto_dt=False)
        with pytest.raises(CflError):
            simulate(initial_field(cfg), cfg)

    def test_cfl_abort_carries_the_partial_record(self):
        # dt 0.06 meets the bound until the advective growth tightens it at
        # t = 0.3; with the bound out of reach (cfl 1e9) the same steps go on
        # to t = 0.48, where the blown-up velocity violates even that bound
        def run(cfl):
            cfg = small_config(
                init_norm=50.0, dt=0.06, t_end=4.0, cfl=cfl, auto_dt=False, blowup_factor=1e300
            )
            with pytest.raises(CflError) as err:
                simulate(initial_field(cfg), cfg)
            assert isinstance(err.value, BlowupError)
            record = err.value.record
            assert record.aborted and record.abort_reason == "CFL bound exceeded"
            assert f"at t={record.times[-1]:g}" in str(err.value)
            return record

        partial, longer = run(3.0), run(1e9)
        k = len(partial.series)
        assert partial.times[-1] == pytest.approx(0.3) and k == 6
        assert longer.times[-1] == pytest.approx(0.48) and len(longer.series) == 9
        for mine, theirs in zip(partial.series.columns(), longer.series.columns()):
            assert np.array_equal(mine, theirs[:k])
        assert np.all(np.isfinite(partial.series.d_h))

    def test_auto_dt_shrinks_the_step_instead(self):
        cfg = small_config(init_norm=5.0, dt=0.5, t_end=0.5, auto_dt=True)
        record = simulate(initial_field(cfg), cfg)
        assert len(record.times) > 2  # more steps than t_end/dt would give

    def test_deterministic_given_seed(self):
        cfg = small_config(t_end=0.5, track_cancellation=True)
        a = simulate(initial_field(cfg), cfg)
        b = simulate(initial_field(cfg), cfg)
        assert np.array_equal(a.series.l2, b.series.l2)
        assert np.array_equal(a.final.coeffs, b.final.coeffs)
        assert np.array_equal(a.cancellation, b.cancellation)

    def test_the_kernel_keeps_only_its_transform_and_factor_buffers(self):
        # the products are formed in the right factors' buffer, so a running
        # kernel holds no product or partner buffer
        cfg = small_config(t_end=0.1, track_cancellation=True, snapshot_every=1)
        theta0 = initial_field(cfg)
        lat = theta0.lattice
        seen = []

        def look(t, field):
            seen.append(sorted({name for name, _ in lat._symbol_cache["kernel-work"]}))

        simulate(theta0, cfg, _on_snapshot=look)
        assert len(seen) == 11
        assert all(names == ["inverse", "left-physical", "right-physical"] for names in seen)
        assert "kernel-work" not in lat._symbol_cache

    @pytest.mark.parametrize("nonlinear", [True, False])
    def test_the_record_keeps_one_copy_of_the_initial_field(self, monkeypatch, nonlinear):
        import sqglab.solver

        steppers = []

        class Recorded(sqglab.solver._Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                steppers.append(self)

        monkeypatch.setattr(sqglab.solver, "_Stepper", Recorded)
        cfg = small_config(t_end=0.1, nonlinear=nonlinear, snapshot_every=1)
        theta0 = initial_field(cfg)
        before = theta0.half.tobytes()
        want = (dealias(theta0) if nonlinear else theta0.copy()).half.tobytes()
        record = simulate(theta0, cfg)
        assert theta0.half.tobytes() == before
        assert record.initial.half.tobytes() == want
        (stepper,) = steppers
        buffers = [*stepper._stages, stepper._term, *stepper._states, stepper._twice_half]
        others = [theta0.half, record.final.half, *(s.half for s in record.snapshots)]
        for other in buffers + others:
            assert not np.shares_memory(record.initial.half, other)


class TestHalfSpectrumKernelPath:
    def count_kernel_calls(self, monkeypatch):
        import sqglab.solver

        calls = []
        kernel = sqglab.solver._advection_coeffs

        def counted(*args):
            calls.append(1)
            return kernel(*args)

        monkeypatch.setattr(sqglab.solver, "_advection_coeffs", counted)
        return calls

    @pytest.mark.parametrize("tracked", [True, False])
    def test_pairing_tendency_is_the_next_first_stage(self, monkeypatch, tracked):
        # 4 tendencies per RK4 step; with tracking only the last sample's
        # pairing tendency is not reused as a first stage
        cfg = small_config(t_end=0.2, dt=0.02, track_cancellation=tracked)
        theta0 = initial_field(cfg)
        calls = self.count_kernel_calls(monkeypatch)
        record = simulate(theta0, cfg)
        steps = len(record.times) - 1
        assert steps == 10
        assert len(calls) == 4 * steps + (1 if tracked else 0)

    def test_step_equals_one_simulate_step(self):
        cfg = small_config(t_end=0.01, dt=0.01, init_norm=2.0)
        theta = dealias(initial_field(cfg))
        one = step(theta, cfg)
        final = simulate(theta, cfg).final
        scale = np.abs(final.coeffs).max()
        assert np.abs(one.coeffs - final.coeffs).max() <= 1e-15 * scale

    def test_running_state_stays_raw_between_steps(self):
        # the stored fields are completed copies; the state the solver steps
        # keeps the rfft2 round-off on its self-paired columns
        from sqglab.solver import _Stepper

        cfg = small_config(dt=0.0625, t_end=0.25, init_norm=1.0, snapshot_every=1)
        lat = cfg.lattice()
        theta = dealias(initial_field(cfg))
        record = simulate(theta, cfg)
        assert list(record.times) == [0.0, 0.0625, 0.125, 0.1875, 0.25]
        stepper = _Stepper(lat, cfg.alpha, True, cfg.dt)
        state = theta.half.copy()
        for snap in record.snapshots[1:]:
            state = stepper.advance(state, cfg.dt, stepper.tendency(state))
            want = state.copy()
            want[17:, [0, 16]] = np.conj(want[15:0:-1, [0, 16]])
            assert snap.half.tobytes() == want.tobytes()
        assert record.final.half.tobytes() == want.tobytes()
        # the completion is not a no-op here, so a completed state would differ
        assert not np.array_equal(state, want)

    def test_snapshots_are_conjugate_symmetric_and_masked(self):
        cfg = small_config(t_end=0.3, init_norm=5.0, snapshot_every=3)
        lat = cfg.lattice()
        record = simulate(initial_field(cfg), cfg)
        assert len(record.snapshots) >= 3
        for snap in record.snapshots + [record.final]:
            c = snap.coeffs
            assert c.shape == (cfg.n, cfg.n)
            mirror = np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1)))
            assert np.array_equal(c, mirror)
            assert np.all(c[~lat.dealias_mask] == 0.0)

    def test_cfl_bound_run_caches_one_factor_pair(self, monkeypatch):
        import sqglab.solver

        steppers = []

        class Recorded(sqglab.solver._Stepper):
            def __init__(self, *args):
                super().__init__(*args)
                steppers.append(self)

        monkeypatch.setattr(sqglab.solver, "_Stepper", Recorded)
        cfg = small_config(n=64, t_end=0.1, init_norm=200.0, seed=1)
        record = simulate(initial_field(cfg), cfg)
        assert np.unique(np.diff(record.times)).size > 10  # many short steps
        assert len(steppers) == 1 and len(steppers[0]._factors) <= 1

    @pytest.mark.parametrize("nonlinear", [True, False])
    @pytest.mark.parametrize("n", [16, 32, 48])
    def test_first_sample_is_the_public_norms_of_the_initial_field(self, n, nonlinear):
        # the tracked norms and hom_norm share one reduction, so they agree
        # to the last bit
        cfg = small_config(n=n, t_end=0.05, nonlinear=nonlinear, init_norm_rel=0.5)
        record = simulate(initial_field(cfg), cfg)
        series, theta = record.series, record.initial
        orders = (0.0, cfg.alpha, 2.0 - 2.0 * cfg.alpha, 2.0 - cfg.alpha)
        columns = (series.l2, series.h_alpha, series.h_crit_hom, series.h_high)
        for s, column in zip(orders, columns):
            assert column[0] == hom_norm(theta, s)

    def test_pairing_vanishes_when_3_divides_n(self):
        cfg = small_config(n=48, t_end=0.2, init_norm_rel=0.5, track_cancellation=True)
        record = simulate(initial_field(cfg), cfg)
        assert record.cancellation.max() <= 1e-15

    def test_a_warm_step_at_n_128_allocates_no_array(self):
        # the stages, stage arguments, states and kernel intermediates are
        # work buffers; one (n, n//2 + 1) complex array alone is 130 KiB, and
        # numpy's buffer for a real factor times a complex state is 128 KiB
        from sqglab.solver import _Stepper

        cfg = small_config(n=128, dt=0.005, init_norm=1.0)
        stepper = _Stepper(cfg.lattice(), cfg.alpha, True, cfg.dt)
        state = dealias(initial_field(cfg)).half
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            # the warm-up step fills the buffers and numpy's one-time caches
            state = stepper.advance(state, cfg.dt)
            kept = tracemalloc.take_snapshot().filter_traces(arrays)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(5):
                state = stepper.advance(state, cfg.dt)
            peak = tracemalloc.get_traced_memory()[1]
            now = tracemalloc.take_snapshot().filter_traces(arrays)
        finally:
            tracemalloc.stop()
        assert peak - start < 512 * 1024
        # the array data numpy holds does not grow
        assert sum(t.size for t in now.traces) <= sum(t.size for t in kept.traces)
        assert np.isfinite(state).all()


class TestSampleBlock:
    @pytest.mark.parametrize("tracked", [True, False])
    def test_integrals_are_a_running_trapezoid_over_the_sampled_squares(
        self, monkeypatch, tracked
    ):
        # CFL-bound steps, a sample every third step and a last step cut to
        # t_end, so the sample grid is irregular
        import sqglab.solver

        squares = []
        sq_norms = sqglab.solver._sq_norms

        def captured(*args):
            out = sq_norms(*args)
            squares.append(out.tolist())
            return out

        monkeypatch.setattr(sqglab.solver, "_sq_norms", captured)
        cfg = small_config(
            init_norm=200.0, t_end=0.37, output_every=3, track_cancellation=tracked
        )
        series = simulate(initial_field(cfg), cfg).series
        t = series.times.tolist()
        assert np.unique(np.diff(t)).size > 10 and t[-1] == pytest.approx(cfg.t_end)
        assert len(squares) == len(t)
        d_l2, d_h = [0.0], [0.0]
        for i in range(1, len(t)):
            (_, a0, _, h0, *_), (_, a1, _, h1, *_) = squares[i - 1], squares[i]
            d_l2.append(d_l2[-1] + 0.5 * (t[i] - t[i - 1]) * (a0 + a1))
            d_h.append(d_h[-1] + 0.5 * (t[i] - t[i - 1]) * ((a0 + h0) + (a1 + h1)))
        assert series.d_l2.tolist() == d_l2
        assert series.d_h.tolist() == d_h
        assert series.h_crit.tolist() == [math.sqrt(sq[0] + sq[2]) for sq in squares]

    def test_ceiling_abort_keeps_the_first_samples_of_a_longer_run(self):
        # the advective instability of a huge step trips a low ceiling at
        # the fifth sample; a high one lets the run go on
        def run(blowup_factor):
            cfg = small_config(
                init_norm=50.0,
                t_end=4.0,
                dt=0.06,
                cfl=1e9,
                snapshot_every=2,
                track_cancellation=True,
                blowup_factor=blowup_factor,
            )
            with pytest.raises(BlowupError) as err:
                simulate(initial_field(cfg), cfg)
            return err.value.record

        partial, longer = run(2.0), run(1e6)
        k, m = len(partial.series), len(partial.snapshots)
        assert partial.abort_reason == "norm ceiling exceeded"
        assert 3 <= k < len(longer.series) and m < len(longer.snapshots)
        for mine, theirs in zip(partial.series.columns(), longer.series.columns()):
            assert np.array_equal(mine, theirs[:k])
        assert np.array_equal(partial.cancellation, longer.cancellation[:k])
        assert partial.snapshot_times == longer.snapshot_times[:m]
        assert longer.snapshot_times[m] > partial.times[-1]
        for mine, theirs in zip(partial.snapshots, longer.snapshots):
            assert np.array_equal(mine.coeffs, theirs.coeffs)

    def test_a_non_finite_first_sample_aborts_before_any_step(self):
        # the squared norms of a field scaled to 1e200 overflow; an inf first
        # critical norm would set an inf ceiling, and the run went on to the
        # step cap with steps of 0
        cfg = small_config(n=16, seed=1, init_norm=1e200, snapshot_every=1)
        with np.errstate(over="ignore", invalid="ignore"):
            theta0 = initial_field(cfg)
            with pytest.raises(BlowupError) as err:
                simulate(theta0, cfg)
        assert type(err.value) is BlowupError
        record = err.value.record
        assert record.aborted and record.abort_reason == "non-finite"
        assert record.times.tolist() == [0.0] and record.snapshot_times == [0.0]
        assert np.array_equal(record.final.coeffs, theta0.coeffs)


def grown_sample_rows(monkeypatch, cfg):
    """The sample counts at which ``simulate`` doubled its sample rows for ``cfg``."""
    import sqglab.solver

    grown = []
    with_room = sqglab.solver._with_room

    def spy(rows, count):
        out = with_room(rows, count)
        if out is not rows:
            grown.append(count)
        return out

    monkeypatch.setattr(sqglab.solver, "_with_room", spy)
    simulate(initial_field(cfg), cfg)
    return grown


class TestSampleRows:
    @pytest.mark.parametrize(
        "dt, t_end",
        [
            (0.02, 0.4),
            (0.03, 0.1),
            (0.1, 0.3),  # 0.1 + 0.1 + 0.1 > 0.3
            (0.07, 0.07),
            (0.05, 0.05 + 1e-13),  # a tiny last step past the horizon's tolerance
            (0.05, 0.05 + 1e-14),
            (1e-4, 1.0),  # 10,000 steps, whose sum drifts from t_end
        ],
    )
    @pytest.mark.parametrize("output_every", [1, 3])
    def test_a_fixed_step_run_never_grows_them(self, monkeypatch, dt, t_end, output_every):
        cfg = small_config(n=8, dt=dt, t_end=t_end, nonlinear=False, output_every=output_every)
        assert grown_sample_rows(monkeypatch, cfg) == []

    def test_a_cfl_shortened_run_doubles_them(self, monkeypatch):
        cfg = small_config(init_norm=200.0, t_end=0.37, output_every=3)
        grown = grown_sample_rows(monkeypatch, cfg)
        assert grown and grown == [grown[0] * 2**i for i in range(len(grown))]


PIN_MODES = [[1, 0, 1.0, 0.0], [2, -1, 0.5, 1.0]]


class TestInitialField:
    # every accepted initial-data setting, and the generator call that gives
    # its field before scaling
    @pytest.mark.parametrize(
        "settings, build",
        [
            ({}, lambda lat, rng: gaussian_random_field(lat, 4.0, rng)),
            ({"init_slope": 9.0}, lambda lat, rng: gaussian_random_field(lat, 9.0, rng)),
            ({"init_kind": "multi_mode"}, lambda lat, rng: random_multi_mode(lat, rng)),
            ({"init_kind": "dyadic_bumps"}, lambda lat, rng: dyadic_bumps_field(lat, rng)),
            (
                {"init_kind": "dyadic_bumps", "init_slope": 4},
                lambda lat, rng: dyadic_bumps_field(lat, rng),
            ),
            ({"init_modes": PIN_MODES}, lambda lat, rng: multi_mode_field(lat, PIN_MODES)),
            (
                {"init_modes": PIN_MODES, "init_kind": "multi_mode"},
                lambda lat, rng: multi_mode_field(lat, PIN_MODES),
            ),
        ],
        ids=lambda value: repr(value) if isinstance(value, dict) else "",
    )
    def test_each_accepted_setting_gives_its_generators_field_bit_for_bit(self, settings, build):
        cfg = small_config(n=16, seed=1, **settings)
        lat = cfg.lattice()
        want = scaled_to_norm(build(lat, np.random.default_rng(1)), 0.1, cfg.critical_order)
        assert initial_field(cfg).half.tobytes() == want.half.tobytes()


class TestEnergyLedger:
    def test_zero_trajectory_has_zero_slack(self):
        cfg = small_config()
        record = simulate(multi_mode_field(cfg.lattice(), []), cfg)
        report = energy_ledger(record)
        assert report.l2_slack == 0.0 and report.h_slack == 0.0 and report.passed

    def test_linear_run_saturates_the_l2_ledger(self):
        cfg = small_config(nonlinear=False, dt=0.005, t_end=1.0)
        record = simulate(initial_field(cfg), cfg)
        report = energy_ledger(record)
        # equality up to time-quadrature error
        assert abs(report.l2_slack) < 1e-4
        assert report.passed

    def test_small_data_run_passes_both_ledgers(self):
        cfg = small_config(dt=0.005, t_end=2.0, init_norm_rel=0.1, eps0=None)
        record = simulate(initial_field(cfg), cfg)
        report = energy_ledger(record, tol_l2=1e-4, tol_h=1e-3)
        assert report.passed
        assert report.worst_slack == max(report.l2_slack, report.h_slack)

    def test_dissipation_integrals_are_nondecreasing(self):
        cfg = small_config(t_end=0.5)
        record = simulate(initial_field(cfg), cfg)
        assert np.all(np.diff(record.series.d_l2) >= 0.0)
        assert np.all(np.diff(record.series.d_h) >= 0.0)


class TestBlowupMonitor:
    def test_zero_data(self):
        cfg = small_config()
        record = simulate(multi_mode_field(cfg.lattice(), []), cfg)
        monitor = blowup_monitor(record)
        assert np.all(monitor.d_h == 0.0)
        assert monitor.finite
        assert monitor.continuation_time == pytest.approx(cfg.t_end)

    def test_small_data_integral_bounded_by_initial_energy(self):
        cfg = small_config(dt=0.005, t_end=2.0, init_norm_rel=0.1, eps0=None)
        record = simulate(initial_field(cfg), cfg)
        monitor = blowup_monitor(record)
        h0_sq = float(record.series.h_crit[0] ** 2)
        assert monitor.d_h[-1] <= h0_sq * (1.0 + 1e-3)
        assert "continuation guaranteed" in monitor.message

    def test_large_data_growth_is_reported_not_judged(self):
        # the monitor reports the integral and its rate; growth is not a
        # blow-up claim at desk scale
        cfg = small_config(init_norm=8.0, t_end=1.0)
        record = simulate(initial_field(cfg), cfg)
        monitor = blowup_monitor(record)
        assert monitor.finite
        assert np.all(monitor.growth_rate[1:-1] >= 0.0)
        assert monitor.d_h[-1] > 0.0


class TestSmallnessGate:
    def test_zero_field_passes_with_full_margin(self):
        cfg = small_config(eps0=0.7)
        gate = smallness_gate(multi_mode_field(cfg.lattice(), []), cfg)
        assert gate.passed and gate.margin == pytest.approx(0.7)

    def test_boundary_is_a_strict_fail(self):
        # pin eps0 to the field's exact norm so the comparison is an equality
        cfg = small_config()
        theta = initial_field(cfg)
        exact = inhom_norm(theta, cfg.critical_order)
        gate = smallness_gate(theta, dataclasses.replace(cfg, eps0=exact))
        assert not gate.passed and gate.margin == 0.0

    def test_half_threshold_passes_with_half_margin(self):
        cfg = small_config(eps0=0.8)
        theta = initial_field(dataclasses.replace(cfg, init_norm=0.4, init_norm_rel=None))
        gate = smallness_gate(theta, cfg)
        assert gate.passed and gate.margin == pytest.approx(0.4, rel=1e-12)


class TestSeriesCsv:
    def test_header_and_round_trip(self, tmp_path):
        cfg = small_config(t_end=0.2)
        record = simulate(initial_field(cfg), cfg)
        path = tmp_path / "series.csv"
        record.series.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(SERIES_COLUMNS)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(data[:, 0], record.series.times)
        np.testing.assert_array_equal(data[:, 1], record.series.l2)
        np.testing.assert_array_equal(data[:, 7], record.series.d_h)

    def test_snapshot_dump_round_trip(self, tmp_path):
        cfg = small_config(t_end=0.2, snapshot_every=2)
        record = simulate(initial_field(cfg), cfg)
        path = tmp_path / "snapshots.npz"
        record.save_snapshots(path)
        data = np.load(path)
        assert data["n"] == cfg.n
        assert data["alpha"] == cfg.alpha
        np.testing.assert_array_equal(data["t"], record.snapshot_times)
        np.testing.assert_array_equal(data["coeffs"][0], record.snapshots[0].coeffs)


class TestStepCap:
    def test_config_checks_the_lattice_without_building_it(self):
        small_config(n=1024)  # warm the imports and caches it touches
        tracemalloc.start()
        try:
            cfg = small_config(n=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.n == 1024
        assert peak < 1_000_000  # a 1024-point lattice holds about 59 MB

    def test_cap_counts_the_steps_taken_and_left(self, monkeypatch):
        import sqglab.solver

        # four CFL-shortened steps of growing length; the first projects
        # 0.5 / 0.105 = 4.7 steps in all
        cfg = small_config(init_norm=5.0, dt=0.5, t_end=0.5)
        times = simulate(initial_field(cfg), cfg).times
        taken = len(times) - 1
        assert taken == 4
        monkeypatch.setattr(sqglab.solver, "MAX_STEPS", taken + 1)
        assert np.array_equal(simulate(initial_field(cfg), cfg).times, times)
        monkeypatch.setattr(sqglab.solver, "MAX_STEPS", taken)
        with pytest.raises(CflError):
            simulate(initial_field(cfg), cfg)

    def test_cap_abort_keeps_the_first_samples_of_the_uncapped_run(self, monkeypatch):
        import sqglab.solver

        # CFL-shortened steps from t = 0.3 on: a cap of the steps the whole
        # run takes trips there, where the shortened step first projects more
        cfg = small_config(
            init_norm=50.0, dt=0.06, t_end=1.0, cfl=3.0, snapshot_every=2, track_cancellation=True
        )
        full = simulate(initial_field(cfg), cfg)
        taken = len(full.times) - 1
        monkeypatch.setattr(sqglab.solver, "MAX_STEPS", taken)
        with pytest.raises(CflError) as err:
            simulate(initial_field(cfg), cfg)
        partial = err.value.record
        assert partial.aborted and partial.abort_reason == "step cap exceeded"
        k, m = len(partial.series), len(partial.snapshots)
        assert 3 <= k < len(full.series) and 2 <= m < len(full.snapshots)
        assert np.array_equal(partial.times, full.times[:k])
        for mine, theirs in zip(partial.series.columns(), full.series.columns()):
            assert np.array_equal(mine, theirs[:k])
        assert np.array_equal(partial.cancellation, full.cancellation[:k])
        assert np.array_equal(partial.snapshot_times, full.snapshot_times[:m])
        for mine, theirs in zip(partial.snapshots, full.snapshots):
            assert np.array_equal(mine.coeffs, theirs.coeffs)


REAL_CONFIG_FIELDS = (
    "alpha",
    "dt",
    "t_end",
    "box_len",
    "eps0",
    "cfl",
    "blowup_factor",
    "init_slope",
    "init_norm",
    "init_norm_rel",
)


class TestRuleTable:
    @pytest.mark.parametrize(
        "bad",
        [{name: True} for name in REAL_CONFIG_FIELDS]
        + [
            {"blowup_factor": 0.0},
            {"blowup_factor": -1.0},
            {"blowup_factor": 0.5},
            {"init_norm": -0.01},
            {"init_norm_rel": -0.1},
            {"init_slope": math.inf},
            {"init_kind": ["gaussian"]},
            {"alpha": "0.25"},
            {"t_end": 10**400},
            {"output_every": 0.5},
        ],
        ids=repr,
    )
    def test_each_rule_rejects_its_bad_value_by_name(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            small_config(**bad)

    @pytest.mark.parametrize(
        "edge",
        [{"blowup_factor": 1.0}, {"init_norm": 0.0}, {"init_norm_rel": 0.0}, {"snapshot_every": 0}],
        ids=repr,
    )
    def test_closed_bounds_accept_their_edge(self, edge):
        cfg = small_config(**edge)
        ((name, value),) = edge.items()
        assert getattr(cfg, name) == value

    def test_reals_keep_their_type(self):
        cfg = small_config(t_end=1, box_len=6, blowup_factor=10)
        assert (type(cfg.t_end), type(cfg.box_len), type(cfg.blowup_factor)) == (int,) * 3

    def test_every_field_has_one_rule(self):
        from sqglab import EnsembleSpec
        from sqglab.cli import _CHECK_RULES, CheckOptions
        from sqglab.lemmas import _SPEC_RULES
        from sqglab.solver import _CONFIG_RULES

        # fields the rules across fields own: the lattice checks n and
        # box_len together (sqglab.spectral._lattice_size), init_modes is
        # checked entry by entry and against the target norm, an ensemble's
        # lattice is checked by the lemma that reads it, and its params by
        # draw_field's check
        owned = {
            SolverConfig: {"n", "box_len", "init_modes"},
            CheckOptions: set(),
            EnsembleSpec: {"lattice", "params"},
        }
        tables = {SolverConfig: _CONFIG_RULES, CheckOptions: _CHECK_RULES, EnsembleSpec: _SPEC_RULES}
        for cls, rules in tables.items():
            names = {f.name for f in dataclasses.fields(cls)}
            assert names - owned[cls] == set(rules), cls.__name__
