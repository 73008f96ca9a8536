import json
import os

import pytest

from sqglab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_GATE,
    EXIT_INSTABILITY,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

BASE_CONFIG = {
    "alpha": 0.25,
    "n": 16,
    "dt": 0.02,
    "t_end": 0.4,
    "seed": 2,
    "init_norm_rel": 0.1,
    "eps0": 1.0,
}


def write_config(path, **overrides):
    data = dict(BASE_CONFIG)
    data.update(overrides)
    data = {k: v for k, v in data.items() if v is not REMOVE}
    path.write_text(json.dumps(data))
    return path


REMOVE = object()


def failure_manifest(out):
    """The verdicts and the output basenames, in order, of a run's manifest."""
    manifest = json.loads((out / "manifest.json").read_text())
    return manifest["verdicts"], [os.path.basename(p) for p in manifest["outputs"]]


class TestSimulateCommand:
    def test_small_run_exits_zero_and_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", snapshot_every=5)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "t,L2,Ha,H2m2a_hom,H2m2a,H2ma,D_L2,D_H"
        assert manifest["verdicts"]["ledger_l2"] is True
        assert manifest["verdicts"]["ledger_h"] is True
        # manifest completeness both ways: listed <-> on disk
        listed = {os.path.basename(p) for p in manifest["outputs"]}
        on_disk = {p.name for p in out.iterdir()}
        assert listed == on_disk
        for artifact in manifest["outputs"]:
            assert os.path.exists(artifact)

    def test_zero_data_run_is_trivially_green(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            init_kind="multi_mode",
            init_modes=[],
            init_norm_rel=REMOVE,
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_identical_config_and_seed_give_bit_identical_series(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", snapshot_every=2)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out", str(out_a)]) == EXIT_OK
        assert main(["simulate", str(cfg), "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()

    def test_bad_config_exits_usage(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", alpha=0.9)
        assert main(["simulate", str(cfg)]) == EXIT_USAGE

    def test_unknown_key_exits_usage(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", viscosity=1.0)
        assert main(["simulate", str(cfg)]) == EXIT_USAGE

    def test_missing_config_exits_usage(self, tmp_path):
        assert main(["simulate", str(tmp_path / "absent.json")]) == EXIT_USAGE

    def test_instability_exits_three_with_partial_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            init_norm=50.0,
            init_norm_rel=REMOVE,
            dt=1.0,
            t_end=40.0,
            cfl=1e9,
            blowup_factor=1.02,
        )
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["verdicts"]["stable"] is False
        assert (out / "series.csv").exists()
        assert failure_manifest(out) == ({"stable": False}, ["series.csv", "manifest.json"])

    def test_cfl_violation_without_auto_dt_exits_three(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            init_norm=50.0,
            init_norm_rel=REMOVE,
            dt=0.5,
            t_end=2.0,
            auto_dt=False,
        )
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_INSTABILITY
        assert failure_manifest(tmp_path / "o") == ({"stable": False}, ["manifest.json"])

    def test_command_line_override(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        code = main(["simulate", str(cfg), "--out", str(out), "--set", "t_end=0.1"])
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["t_end"] == 0.1

    @pytest.mark.parametrize(
        "override", ["t_end=Infinity", "box_len=Infinity", "blowup_factor=NaN"]
    )
    def test_non_finite_value_exits_usage(self, tmp_path, override):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out), "--set", override]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "override",
        [
            'init_kind="foo"',
            "init_kind=3",
            "seed=-1",
            "seed=1.5",
            "seed=true",
            "init_modes=[[1,2]]",
            "init_modes=[1,2]",
            "init_modes=5",
            'init_modes=[[1,2,"a",0]]',
            "init_modes=[[1.5,2,1,0]]",
            "init_modes=[]",
            "output_every=1.5",
            "output_every=true",
            "snapshot_every=1.5",
            "snapshot_every=true",
        ],
    )
    def test_malformed_solver_value_exits_usage_without_artifacts(
        self, tmp_path, capsys, override
    ):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out), "--set", override]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: invalid configuration" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["seed=3.0", "output_every=2.0", "snapshot_every=2.0"])
    def test_integral_float_counts_run_as_their_integers(self, tmp_path, override):
        key, value = override.split("=")
        cfg = write_config(tmp_path / "run.json", snapshot_every=1)
        as_float, as_int = tmp_path / "f", tmp_path / "i"
        code = main(["simulate", str(cfg), "--out", str(as_float), "--set", override])
        plain = f"{key}={int(float(value))}"
        assert main(["simulate", str(cfg), "--out", str(as_int), "--set", plain]) == code
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)
        for name in ("series.csv", "snapshots.npz"):
            assert (as_float / name).read_bytes() == (as_int / name).read_bytes()

    def test_manifest_reports_the_advection_pairing(self, tmp_path):
        from sqglab.cli import load_config
        from sqglab import initial_field, simulate

        cfg_path = write_config(tmp_path / "run.json", track_cancellation=True)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg_path), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        cfg, _ = load_config(cfg_path)
        record = simulate(initial_field(cfg), cfg)
        pairing = manifest["stats"]["max_advection_pairing"]
        assert pairing == float(record.cancellation.max())
        assert pairing <= 1e-10
        # the pinned series layout is unchanged by the tracking
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "t,L2,Ha,H2m2a_hom,H2m2a,H2ma,D_L2,D_H"

    def test_untracked_run_reports_no_pairing(self, tmp_path):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert "max_advection_pairing" not in manifest["stats"]


class TestVerifyCommand:
    def test_elementary_sweep(self, tmp_path):
        out = tmp_path / "reports"
        code = main(
            ["verify", "elementary", "--samples", "1e4", "--out", str(out), "--seed", "3"]
        )
        assert code == EXIT_OK
        payload = json.loads((out / "lemma_elementary.json").read_text())
        assert payload["violations"] == 0
        assert payload["samples"] == 10_000

    def test_exp_kernel_sweep(self, tmp_path):
        out = tmp_path / "reports"
        code = main(["verify", "2.5-expkernel", "--samples", "500", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "lemma_2_5-expkernel.json").read_text())
        assert payload["violations"] == 0

    def test_field_lemmas_small_ensembles(self, tmp_path):
        out = tmp_path / "reports"
        code = main(
            [
                "verify",
                "2.1-productlaw-two-term",
                "2.2-productlaw",
                "2.3-trilinear",
                "2.4-bilinear",
                "--samples",
                "15",
                "--n",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert len(list(out.glob("lemma_*.json"))) == 4

    def test_reports_are_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["verify", "elementary", "--samples", "300", "--out", str(out)]) == EXIT_OK
        name = "lemma_elementary.json"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_lemma_exits_usage(self, tmp_path):
        assert main(["verify", "lemma-9000", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_empty_selection_exits_usage(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "bad",
        [
            ["--alpha", "0.7"],
            ["--alpha", "nan"],
            ["--n", "7"],
            ["--samples", "5"],
            ["--samples", "0"],
        ],
        ids=["alpha=0.7", "alpha=nan", "n=7", "samples=5", "samples=0"],
    )
    def test_bad_argument_exits_usage(self, tmp_path, bad):
        out = tmp_path / "reports"
        args = ["verify", "2.3-trilinear", "--samples", "20", "--n", "16", "--out", str(out)]
        assert main(args + bad) == EXIT_USAGE
        assert not out.exists()


class TestDecayCommand:
    def test_small_run_exits_zero(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json", t_end=2.0, snapshot_every=5, init_norm_rel=0.05
        )
        out = tmp_path / "out"
        code = main(["decay", str(cfg), "--out", str(out), "--target", "0.99"])
        assert code == EXIT_OK
        report = json.loads((out / "decay_report.json").read_text())
        assert report["gate"]["passed"] is True
        assert report["diagnostics_passed"] is True
        assert (out / "residuals.csv").exists()

    def test_gate_failure_without_force_exits_four(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json", init_norm=50.0, init_norm_rel=REMOVE, eps0=0.5
        )
        assert main(["decay", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_GATE
        assert failure_manifest(tmp_path / "o") == ({"gate": False}, ["manifest.json"])

    def test_instability_exits_three_with_a_manifest(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            init_norm=50.0,
            init_norm_rel=REMOVE,
            eps0=100.0,
            dt=0.5,
            t_end=2.0,
            auto_dt=False,
            snapshot_every=1,
        )
        out = tmp_path / "o"
        assert main(["decay", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY
        assert failure_manifest(out) == ({"stable": False}, ["manifest.json"])

    @pytest.mark.parametrize("target", ["inf", "nan"])
    def test_non_finite_target_exits_usage(self, tmp_path, target):
        cfg = write_config(tmp_path / "run.json", snapshot_every=5)
        out = tmp_path / "o"
        assert main(["decay", str(cfg), "--out", str(out), "--target", target]) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "override",
        [
            "deltas=[-1.0]",
            "deltas=[1.0,0.0]",
            "deltas=[]",
            "occupation_fraction=0",
            "decay_target=-0.5",
            "tol_l2=0",
            "tol_h=-1e-3",
        ],
    )
    def test_non_positive_check_option_exits_usage(self, tmp_path, override):
        cfg = write_config(tmp_path / "run.json", snapshot_every=5)
        out = tmp_path / "o"
        assert main(["decay", str(cfg), "--out", str(out), "--set", override]) == EXIT_USAGE
        assert not out.exists()

    def test_manifest_reports_the_advection_pairing(self, tmp_path):
        from sqglab.cli import load_config
        from sqglab import initial_field, simulate

        tracked = write_config(
            tmp_path / "tracked.json", snapshot_every=5, track_cancellation=True
        )
        plain = write_config(tmp_path / "plain.json", snapshot_every=5)
        out, out_plain = tmp_path / "out", tmp_path / "plain"
        assert main(["decay", str(tracked), "--out", str(out), "--target", "0.99"]) == EXIT_OK
        assert main(["decay", str(plain), "--out", str(out_plain), "--target", "0.99"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        cfg, _ = load_config(tracked)
        record = simulate(initial_field(cfg), cfg)
        pairing = manifest["stats"]["max_advection_pairing"]
        assert pairing == float(record.cancellation.max())
        assert pairing <= 1e-10
        # the pairing goes to the manifest only
        report = out / "decay_report.json"
        assert report.read_bytes() == (out_plain / "decay_report.json").read_bytes()

    def test_untracked_run_reports_no_pairing(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", snapshot_every=5)
        out = tmp_path / "out"
        assert main(["decay", str(cfg), "--out", str(out), "--target", "0.99"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert "max_advection_pairing" not in manifest["stats"]

    def test_forced_run_records_the_failed_gate(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.json",
            init_norm=2.0,
            init_norm_rel=REMOVE,
            eps0=0.5,
            t_end=1.0,
            snapshot_every=5,
        )
        out = tmp_path / "out"
        code = main(
            ["decay", str(cfg), "--out", str(out), "--force", "--target", "1e9"]
        )
        report = json.loads((out / "decay_report.json").read_text())
        assert report["gate"]["passed"] is False
        assert code in (EXIT_OK, EXIT_CHECK_FAILED)


class TestSweepCommand:
    def make_spec(self, tmp_path, **kwargs):
        spec = {
            "base": dict(BASE_CONFIG),
            "grid": kwargs.pop("grid", {"alpha": [0.25], "n": [16]}),
        }
        spec.update(kwargs)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return path

    def test_single_point_sweep_matches_simulate(self, tmp_path):
        path = self.make_spec(tmp_path, grid={})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        header, row = lines[0].split(","), lines[1].split(",")
        assert row[header.index("status")] == "ok"
        # degenerate grid reproduces a plain simulate of the base config
        from sqglab import SolverConfig, energy_ledger, initial_field, simulate

        cfg = SolverConfig(**BASE_CONFIG)
        record = simulate(initial_field(cfg), cfg)
        ratio = float(record.series.h_crit[-1] / record.series.h_crit[0])
        ledger = energy_ledger(record)
        assert float(row[header.index("terminal_ratio")]) == ratio
        assert float(row[header.index("l2_slack")]) == ledger.l2_slack
        assert float(row[header.index("d_h_end")]) == float(record.series.d_h[-1])

    def test_three_by_three_grid_gives_nine_rows(self, tmp_path):
        path = self.make_spec(
            tmp_path,
            grid={"alpha": [0.1, 0.25, 0.4], "init_norm_rel": [0.05, 0.1, 0.2]},
        )
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 10

    def test_rerun_is_bit_identical(self, tmp_path):
        path = self.make_spec(tmp_path, grid={"alpha": [0.2, 0.3]})
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", str(path), "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep", str(path), "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_parallel_workers_agree_with_serial(self, tmp_path, monkeypatch):
        path = self.make_spec(tmp_path, grid={"alpha": [0.2, 0.3]})
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["sweep", str(path), "--out", str(serial)]) == EXIT_OK
        monkeypatch.setenv("SQGLAB_WORKERS", "2")
        assert main(["sweep", str(path), "--out", str(parallel)]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_non_integer_worker_count_exits_usage(self, tmp_path, monkeypatch):
        path = self.make_spec(tmp_path, grid={"alpha": [0.2, 0.3]})
        monkeypatch.setenv("SQGLAB_WORKERS", "two")
        assert main(["sweep", str(path), "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_partial_failures_are_recorded_per_row(self, tmp_path):
        # n = 15 is rejected by the lattice; the row errors, the sweep finishes
        path = self.make_spec(tmp_path, grid={"n": [16, 15]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert "ok" in lines[1] and "error" in lines[2]

    def test_job_bound_enforced(self, tmp_path):
        path = self.make_spec(
            tmp_path, grid={"seed": list(range(10))}, max_jobs=4
        )
        assert main(["sweep", str(path), "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    def test_unsupported_axis_rejected(self, tmp_path):
        path = self.make_spec(tmp_path, grid={"flux_capacitor": [1]})
        assert main(["sweep", str(path), "--out", str(tmp_path / "s.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "grid",
        [{"alpha": []}, {"alpha": 0.25}, {"seed": "123"}, {"n": {"a": 16}}, ["alpha"]],
        ids=["empty-axis", "scalar-axis", "text-axis", "object-axis", "list-grid"],
    )
    def test_malformed_grid_exits_usage_before_any_row(self, tmp_path, capsys, grid):
        path = self.make_spec(tmp_path, grid=grid)
        out = tmp_path / "s.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "tolerances",
        [
            {"tol_l2": -1.0, "tol_h": "abc"},
            {"tol_l2": 0.0},
            {"tol_h": -1e-3},
            {"tol_l2": "abc"},
            {"tol_h": None},
            {"tol_l2": [1e-4]},
            {"tol_l2": float("inf")},
            {"tol_h": float("nan")},
            {"tol_h": True},
        ],
        ids=[
            "negative-and-text",
            "zero-l2",
            "negative-h",
            "text-l2",
            "null-h",
            "list-l2",
            "inf-l2",
            "nan-h",
            "bool-h",
        ],
    )
    def test_bad_tolerance_exits_usage_before_any_row(self, tmp_path, tolerances):
        path = self.make_spec(tmp_path, **tolerances)
        out = tmp_path / "s.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_valid_tolerances_leave_the_csv_unchanged(self, tmp_path):
        default = self.make_spec(tmp_path, grid={"alpha": [0.2, 0.3]})
        out_default, out_set = tmp_path / "d.csv", tmp_path / "t.csv"
        assert main(["sweep", str(default), "--out", str(out_default)]) == EXIT_OK
        explicit = self.make_spec(tmp_path, grid={"alpha": [0.2, 0.3]}, tol_l2=0.5, tol_h=2e-2)
        assert main(["sweep", str(explicit), "--out", str(out_set)]) == EXIT_OK
        assert out_default.read_bytes() == out_set.read_bytes()


class TestParser:
    def test_missing_subcommand_is_usage(self):
        assert main([]) == EXIT_USAGE

    def test_version_flag(self, capsys):
        code = main(["--version"])
        assert code == 0
        assert capsys.readouterr().out.strip()
