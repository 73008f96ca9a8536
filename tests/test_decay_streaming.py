"""decay_experiment folds each snapshot as simulate makes it.

The fold keeps a few floats per snapshot and a Cauchy subset of at most 64
fields, whose stride comes from the snapshot count a run plans with no
CFL-shortened step.
"""

import math
import tracemalloc

import numpy as np
import pytest

import sqglab.decay
from sqglab import (
    CflError,
    SolverConfig,
    decay_experiment,
    hom_norm,
    initial_field,
    make_lattice,
    simulate,
    unit_mode,
)

ALPHA = 0.25


def config(**overrides):
    base = dict(alpha=ALPHA, n=16, dt=0.02, t_end=0.4, seed=2, init_norm=0.05, eps0=1.0)
    base.update(overrides)
    return SolverConfig(**base)


def no_run(*args, **kwargs):
    raise AssertionError("simulate ran")


class TestArgumentsAreCheckedBeforeTheRun:
    @pytest.mark.parametrize("deltas", [[], [0.0]])
    def test_a_bad_cutoff_ladder(self, monkeypatch, deltas):
        monkeypatch.setattr(sqglab.decay, "simulate", no_run)
        cfg = config(snapshot_every=1)
        with pytest.raises(ValueError, match="cutoff"):
            decay_experiment(cfg, initial_field(cfg), deltas=deltas)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0, -1])
    def test_a_bad_occupation_fraction(self, monkeypatch, bad):
        # inf passed both occupation checks vacuously: threshold inf, measure 0
        monkeypatch.setattr(sqglab.decay, "simulate", no_run)
        cfg = config(snapshot_every=1)
        with pytest.raises(ValueError, match="^occupation_fraction must"):
            decay_experiment(cfg, initial_field(cfg), occupation_fraction=bad)


class TestSnapshotHook:
    def test_the_hook_gets_each_stored_snapshot_and_none_is_stored(self):
        cfg = config(snapshot_every=3, output_every=2)
        theta0 = initial_field(cfg)
        stored = simulate(theta0, cfg)
        seen = []
        streamed = simulate(theta0, cfg, _on_snapshot=lambda t, f: seen.append((t, f)))
        assert streamed.snapshots == [] and streamed.snapshot_times == []
        assert [t for t, _ in seen] == stored.snapshot_times
        for (_, f), g in zip(seen, stored.snapshots):
            assert np.array_equal(f.half, g.half)
        assert np.array_equal(streamed.series.l2, stored.series.l2)
        assert np.array_equal(streamed.final.half, stored.final.half)

    def test_a_partial_record_carries_no_snapshots(self):
        cfg = config(init_norm=50.0, auto_dt=False, dt=0.1, t_end=1.0, snapshot_every=1)
        seen = []
        with pytest.raises(CflError) as info:
            simulate(initial_field(cfg), cfg, _on_snapshot=lambda t, f: seen.append(t))
        assert info.value.record.aborted
        assert info.value.record.snapshots == [] and len(seen) >= 1


class TestPlannedSnapshots:
    @pytest.mark.parametrize(
        "dt, t_end",
        [
            pytest.param(0.02, 0.4, id="multiple"),
            pytest.param(0.03, 0.1, id="short-last-step"),
            pytest.param(0.1, 0.3, id="sum-past-t_end"),  # 0.1 + 0.1 + 0.1 > 0.3
            # SolverConfig refuses t_end < dt, so one step is the fewest
            pytest.param(0.07, 0.07, id="one-step"),
            # just past the horizon's 1e-12 tolerance a tiny last step follows
            pytest.param(0.05, 0.05 + 1e-13, id="tiny-last-step"),
            pytest.param(0.05, 0.05 + 1e-14, id="within-tolerance"),
        ],
    )
    @pytest.mark.parametrize("output_every", [1, 3])
    @pytest.mark.parametrize("snapshot_every", [1, 2, 7])
    def test_fixed_step_runs_take_the_planned_count(self, dt, t_end, output_every, snapshot_every):
        from sqglab.solver import _planned_snapshots

        cfg = config(
            n=8, dt=dt, t_end=t_end, nonlinear=False,
            output_every=output_every, snapshot_every=snapshot_every,
        )
        assert _planned_snapshots(cfg) == len(simulate(initial_field(cfg), cfg).snapshots)


class TestCauchySubset:
    def test_a_longer_run_than_planned_halves_the_subset(self):
        lat = make_lattice(16, 2.0 * math.pi)
        fold = sqglab.decay._Fold(lat, planned=50)
        fields = [unit_mode(lat, 1, 0, amp=1.0 + i) for i in range(150)]
        for i, f in enumerate(fields):
            fold(0.01 * i, f)
            assert len(fold.kept) <= 64
        assert fold.stride == 4
        assert [t for t, _ in fold.kept] == [0.01 * i for i in range(0, 150, 4)]
        assert all(h is f.half for (_, h), f in zip(fold.kept, fields[::4]))

    def test_a_cfl_shortened_decay_run(self, monkeypatch):
        from sqglab.solver import _planned_snapshots

        cfg = config(init_norm=5.0, cfl=0.01, t_end=1.0, snapshot_every=1, seed=3)
        theta0 = initial_field(cfg)
        stored = simulate(theta0, cfg)
        count = len(stored.snapshots)
        assert count > 2 * _planned_snapshots(cfg) and _planned_snapshots(cfg) <= 64
        pairs = []
        real = sqglab.decay._sq_norms
        monkeypatch.setattr(
            sqglab.decay,
            "_sq_norms",
            lambda lat, half, orders: pairs.append(len(half)) or real(lat, half, orders),
        )
        report = decay_experiment(
            cfg, theta0, c_hat=0.5, cauchy_c_hat=0.5, force=True, target=1.0
        )
        assert not report.gate_passed
        # the planned stride 1, doubled each time the subset would pass 64
        stride = 1
        while -(-count // stride) > 64:
            stride *= 2
        kept = -(-count // stride)
        assert sum(pairs) == kept * (kept - 1) // 2
        snaps, times = stored.snapshots[::stride], stored.snapshot_times[::stride]
        rate = report.cauchy.rate
        worst = max(
            hom_norm(snaps[j] - snaps[i], 0.0) / (rate * (times[j] - times[i]))
            for i in range(kept)
            for j in range(i + 1, kept)
        )
        assert report.cauchy.worst_ratio == pytest.approx(worst, rel=1e-12)

        def numbers(value, key=None):
            if isinstance(value, dict):
                return [x for k, v in value.items() for x in numbers(v, k)]
            if isinstance(value, list):
                return [x for v in value for x in numbers(v)]
            # first_good_time is inf when a series never drops below its threshold
            ok = isinstance(value, float) and key != "first_good_time"
            return [value] if ok else []

        assert all(math.isfinite(x) for x in numbers(report.to_json_dict()))
        assert np.isfinite(report.residuals["interp_gap_rel"]).all()
        assert np.isfinite(report.residuals["embed_slack_rel"]).all()


def test_memory_does_not_grow_with_the_snapshot_count():
    def traced_peak(t_end):
        cfg = config(n=32, dt=0.01, t_end=t_end, seed=5, init_norm=0.02, snapshot_every=1)
        theta0 = initial_field(cfg)
        tracemalloc.start()
        try:
            decay_experiment(cfg, theta0, c_hat=1.0, cauchy_c_hat=1.0, target=math.inf)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(0.5)  # fills the lattice's caches
    short, long = traced_peak(3.5), traced_peak(14.0)  # 351 and 1401 snapshots
    field_bytes = 32 * (32 // 2 + 1) * 16
    assert (long - short) / (1401 - 351) < field_bytes / 4
