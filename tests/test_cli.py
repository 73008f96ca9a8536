import csv
import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import sqglab
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


def last_series_time(out):
    """The last sample time in a run's series.csv."""
    return float((out / "series.csv").read_text().splitlines()[-1].split(",")[0])


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
        out = tmp_path / "o"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY
        assert failure_manifest(out) == ({"stable": False}, ["series.csv", "manifest.json"])
        assert last_series_time(out) < 2.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_non_finite_first_sample_exits_three_with_its_one_sample(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "run.json", seed=1, init_norm=1e200, init_norm_rel=REMOVE)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out)]) == EXIT_INSTABILITY
        assert "instability: non-finite critical norm at t=0" in capsys.readouterr().err
        assert failure_manifest(out) == ({"stable": False}, ["series.csv", "manifest.json"])
        assert len((out / "series.csv").read_text().splitlines()) == 2  # the header and t=0

    def test_a_non_finite_first_sample_prints_its_reason_and_no_numpy_warning(self, tmp_path):
        # in a separate process, where a RuntimeWarning reaches stderr; the
        # overflowing squares printed numpy's warning and the path of norms.py
        cfg = write_config(tmp_path / "run.json", seed=1, init_norm=1e200, init_norm_rel=REMOVE)
        out = tmp_path / "out"
        src = os.path.dirname(os.path.dirname(sqglab.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        env.pop("PYTHONWARNINGS", None)
        proc = subprocess.run(
            [sys.executable, "-m", "sqglab.cli", "simulate", str(cfg), "--out", str(out)],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == EXIT_INSTABILITY, proc.stderr
        assert "instability: non-finite critical norm at t=0" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert failure_manifest(out) == ({"stable": False}, ["series.csv", "manifest.json"])
        assert len((out / "series.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["init_kind=dyadic_bumps", "init_slope=9"], "init_slope"),
            (["init_kind=multi_mode", "init_slope=2"], "init_slope"),
            (["init_modes=[[1, 0, 1, 0]]", "init_slope=9"], "init_slope"),
            (["init_modes=[[1, 0, 1, 0]]", "init_kind=dyadic_bumps"], "init_kind"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_an_init_setting_the_draw_would_not_read_exits_usage_without_a_directory(
        self, tmp_path, capsys, overrides, key
    ):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        sets = [arg for text in overrides for arg in ("--set", text)]
        assert main(["simulate", str(cfg), "--out", str(out), *sets]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: invalid configuration" in err and key in err and "Traceback" not in err
        assert not out.exists()

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

    @pytest.mark.parametrize("box_len", ["1e160", "1e-100", "1e100", "1e-300"])
    def test_a_box_len_out_of_the_norms_float_range_exits_usage(self, tmp_path, capsys, box_len):
        cfg = write_config(tmp_path / "run.json", dt=0.01, t_end=0.05, seed=1)
        out = tmp_path / "out"
        code = main(["simulate", str(cfg), "--out", str(out), "--set", f"box_len={box_len}"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith("error: invalid configuration: box_len") and "Traceback" not in err
        assert not out.exists()

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
            'nonlinear="false"',
            'auto_dt="no"',
            'track_cancellation="yes"',
            "n=16.5",
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

    def test_integral_float_n_runs_as_its_integer_and_is_recorded_as_one(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", snapshot_every=2)
        as_float, as_int = tmp_path / "f", tmp_path / "i"
        assert main(["simulate", str(cfg), "--out", str(as_float), "--set", "n=16.0"]) == EXIT_OK
        assert main(["simulate", str(cfg), "--out", str(as_int), "--set", "n=16"]) == EXIT_OK
        for name in ("series.csv", "snapshots.npz"):
            assert (as_float / name).read_bytes() == (as_int / name).read_bytes()
        recorded = json.loads((as_float / "manifest.json").read_text())["config"]["n"]
        assert recorded == 16 and type(recorded) is int

    @pytest.mark.parametrize("command", ["simulate", "decay"])
    def test_modes_that_cancel_to_zero_exit_usage_without_a_directory(
        self, tmp_path, capsys, command
    ):
        cfg = write_config(
            tmp_path / "run.json", init_modes=[[1, 0, 1, 0], [1, 0, -1, 0]], snapshot_every=1
        )
        out = tmp_path / "out"
        assert main([command, str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "zero field" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("override", ["dt=1e-300", "t_end=1e300", "n=1000000000"])
    def test_preflight_caps_exit_usage_without_artifacts(self, tmp_path, capsys, override):
        # each value is rejected while the configuration is read, before any
        # array is allocated or step taken
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out", str(out), "--set", override]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error: invalid configuration" in err and "Traceback" not in err
        assert not out.exists()

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

    def test_both_product_laws_in_one_call_write_the_bytes_of_a_call_each(self, tmp_path):
        # the second id of the one call reuses the first id's ensemble pass
        ids = ["2.2-productlaw", "2.1-productlaw-two-term"]
        common = ["--samples", "12", "--n", "16", "--alpha", "0.4", "--seed", "5"]
        sqglab.lemmas._PRODUCT_LAW_PASS.clear()
        assert main(["verify", *ids, *common, "--out", str(tmp_path / "one")]) == EXIT_OK
        for lemma_id in ids:
            sqglab.lemmas._PRODUCT_LAW_PASS.clear()
            assert main(["verify", lemma_id, *common, "--out", str(tmp_path / "each")]) == EXIT_OK
        for lemma_id in ids:
            name = f"lemma_{lemma_id.replace('.', '_')}.json"
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "each" / name).read_bytes()

    # the params and lattice size each offered shape's report shows at --alpha 0.3, --n 16
    AT_ALPHA = {
        "elementary": ({}, 0),
        "2.1-productlaw-two-term": ({"s1": 1.0 - 2.0 * 0.3, "s2": 0.3}, 16),
        "2.2-productlaw": ({"s1": 1.0 - 2.0 * 0.3, "s2": 0.3}, 16),
        "2.3-trilinear": ({"alpha": 0.3}, 16),
        "2.4-bilinear": ({"alpha": 0.3}, 16),
        "2.5-expkernel": ({}, 0),
    }

    @pytest.mark.parametrize("lemma_id", sqglab.LEMMA_IDS)
    def test_each_report_shows_its_rows_params_and_lattice(self, tmp_path, lemma_id):
        out = tmp_path / "reports"
        args = ["verify", lemma_id, "--samples", "10", "--n", "16", "--alpha", "0.3"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        payload = json.loads((out / f"lemma_{lemma_id.replace('.', '_')}.json").read_text())
        params, n = self.AT_ALPHA[lemma_id]
        assert payload["params"] == params == sqglab.lemmas._SHAPES[lemma_id].at_alpha(0.3)
        assert payload["lattice"]["n"] == n

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

    def test_lattice_size_preflight_exits_usage(self, tmp_path, capsys):
        # rejected by the lattice before any array is allocated
        out = tmp_path / "reports"
        args = ["verify", "2.3-trilinear", "--samples", "20", "--n", "1000000000"]
        assert main(args + ["--out", str(out)]) == EXIT_USAGE
        assert "--n: lattice size must be <= 4096" in capsys.readouterr().err
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

    @pytest.mark.parametrize("workers, rows, width", [(8, 2, 2), (2, 3, 2), (8, 1, None)])
    def test_the_pool_forks_no_more_workers_than_rows(
        self, tmp_path, monkeypatch, workers, rows, width
    ):
        # the fork start method forks max_workers processes up front, so an
        # idle one would be a full copy of the parent; the fake pool starts none
        import concurrent.futures

        widths = []

        class FakePool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        path = self.make_spec(tmp_path, grid={"seed": list(range(1, rows + 1))})
        serial, pooled = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["sweep", str(path), "--out", str(serial)]) == EXIT_OK
        monkeypatch.setenv("SQGLAB_WORKERS", str(workers))
        assert main(["sweep", str(path), "--out", str(pooled)]) == EXIT_OK
        assert widths == ([] if width is None else [width])
        assert serial.read_bytes() == pooled.read_bytes()

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

    def test_error_status_with_a_comma_reads_back_as_one_cell(self, tmp_path):
        # the lattice's message for n = 15 holds a comma
        with pytest.raises(ValueError) as rejected:
            sqglab.SolverConfig(**dict(BASE_CONFIG, n=15))
        assert "," in str(rejected.value)
        path = self.make_spec(tmp_path, grid={"alpha": [0.25], "n": [16, 15]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
        with open(out, newline="") as handle:
            header, ok_row, error_row = csv.reader(handle)
        assert len(header) == len(ok_row) == len(error_row) == 8
        assert ok_row[header.index("status")] == "ok"
        assert error_row[header.index("n")] == "15"
        assert error_row[header.index("status")] == f"error: {rejected.value}"

    def test_modes_that_cancel_to_zero_are_a_row_error(self, tmp_path):
        base = dict(BASE_CONFIG, init_modes=[[1, 0, 1, 0], [1, 0, -1, 0]])
        path = self.make_spec(tmp_path, base=base, grid={"alpha": [0.25]})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(path), "--out", str(out)]) == EXIT_CHECK_FAILED
        header, row = (line.split(",") for line in out.read_text().splitlines())
        assert row[header.index("status")].startswith("error: cannot scale the zero field")

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


class TestCountsAndStepCaps:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "12.7", "1e4.5", "ten"])
    def test_samples_must_be_a_whole_number(self, tmp_path, capsys, value):
        out = tmp_path / "reports"
        assert main(["verify", "elementary", "--samples", value, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value,count", [("1e4", 10_000), ("20", 20), ("2.0e1", 20)])
    def test_whole_sample_counts_run(self, tmp_path, value, count):
        out = tmp_path / "reports"
        assert main(["verify", "elementary", "--samples", value, "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "lemma_elementary.json").read_text())["samples"] == count

    def test_cfl_step_cap_exits_instability(self, tmp_path):
        # in a subprocess with a timeout, so that a run that never ends fails
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "run"
        src = os.path.dirname(os.path.dirname(sqglab.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        args = ["simulate", str(cfg), "--set", "cfl=1e-12", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "sqglab.cli", *args],
            capture_output=True, text=True, timeout=30, env=env,
        )
        assert proc.returncode == EXIT_INSTABILITY, proc.stderr
        assert "instability:" in proc.stderr and "Traceback" not in proc.stderr
        assert failure_manifest(out) == ({"stable": False}, ["series.csv", "manifest.json"])
        assert last_series_time(out) < BASE_CONFIG["t_end"]


def run_cli(*args, **env):
    """``python -m sqglab.cli *args`` in a new process, where numpy's warnings reach stderr."""
    src = os.path.dirname(os.path.dirname(sqglab.__file__))
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [sys.executable, "-m", "sqglab.cli", *map(str, args)],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_only_a_pooled_sweep_loads_the_process_pool(tmp_path):
    # simulate, decay, verify and a one-worker sweep run in a fresh process
    # that never imports concurrent.futures, and so never multiprocessing
    cfg = write_config(tmp_path / "run.json", snapshot_every=5)
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"base": BASE_CONFIG, "grid": {"seed": [1, 2]}}))
    commands = [
        ["verify", "elementary", "--samples", "10", "--n", "16", "--out", tmp_path / "verify"],
        ["simulate", cfg, "--out", tmp_path / "run"],
        ["decay", cfg, "--target", "1", "--out", tmp_path / "decay"],
        ["sweep", spec, "--out", tmp_path / "sweep.csv"],
    ]
    script = (
        "import json, sys\n"
        "from sqglab.cli import main\n"
        "codes = [main(command) for command in json.loads(sys.argv[1])]\n"
        "loaded = sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules)\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = os.path.dirname(os.path.dirname(sqglab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("SQGLAB_WORKERS", None)
    argv = json.dumps([[str(a) for a in command] for command in commands])
    proc = subprocess.run(
        [sys.executable, "-c", script, argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * 4
    assert loaded == []


class TestErrorPath:
    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "{cfg}"],
            ["decay", "{cfg}"],
            ["verify", "elementary", "--samples", "10"],
            ["sweep", "{spec}"],
        ],
        ids=lambda command: command[0],
    )
    def test_an_out_that_cannot_be_made_exits_usage_with_nothing_run_or_written(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # makedirs raised NotADirectoryError with a traceback and exit 1, and
        # sweep ran every row before its open failed
        def no_rows(payload):
            raise AssertionError("ran a sweep row for an --out it cannot write")

        monkeypatch.setattr(sqglab.cli, "_sweep_row", no_rows)
        cfg = write_config(tmp_path / "run.json")
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"base": BASE_CONFIG, "grid": {"seed": [1, 2]}}))
        blocker = tmp_path / "file"
        blocker.write_text("")
        before = sorted(tmp_path.iterdir())
        args = [a.format(cfg=cfg, spec=spec) for a in command]
        assert main([*args, "--out", str(blocker / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()] and err.startswith("error: --out: ")
        assert sorted(tmp_path.iterdir()) == before and blocker.read_text() == ""

    def test_an_initial_field_whose_norm_overflows_exits_usage(self, tmp_path):
        # its scale factor was target / inf = 0: the run simulated the zero
        # field and exited 0
        cfg = write_config(tmp_path / "run.json", init_norm_rel=REMOVE, init_norm=1.0)
        out = tmp_path / "out"
        proc = run_cli("simulate", cfg, "--set", "init_modes=[[1,0,1e200,0]]", "--out", out)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stderr.startswith("error: invalid initial field: cannot scale a field")
        assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_a_gate_that_overflows_prints_its_line_and_no_numpy_warning(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", init_norm_rel=REMOVE, init_norm=1e200)
        out = tmp_path / "out"
        proc = run_cli("decay", cfg, "--out", out)
        assert proc.returncode == EXIT_GATE, proc.stderr
        assert proc.stderr.startswith("gate: smallness gate failed")
        assert "RuntimeWarning" not in proc.stderr
        assert failure_manifest(out) == ({"gate": False}, ["manifest.json"])

    def test_a_forced_decay_that_overflows_prints_its_line_and_no_numpy_warning(self, tmp_path):
        cfg = write_config(tmp_path / "run.json", init_norm_rel=REMOVE, init_norm=1e155)
        out = tmp_path / "out"
        proc = run_cli("decay", cfg, "--force", "--out", out)
        assert proc.returncode == EXIT_INSTABILITY, proc.stderr
        assert proc.stderr.startswith("instability: non-finite critical norm at t=0")
        assert "RuntimeWarning" not in proc.stderr
        assert failure_manifest(out) == ({"stable": False}, ["manifest.json"])

    def test_a_parallel_sweep_row_that_overflows_prints_no_numpy_warning(self, tmp_path):
        spec = tmp_path / "sweep.json"
        base = {k: v for k, v in BASE_CONFIG.items() if k != "init_norm_rel"}
        spec.write_text(json.dumps({"base": base, "grid": {"init_norm": [0.01, 1e200]}}))
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", spec, "--out", out, SQGLAB_WORKERS="2")
        assert proc.returncode == EXIT_CHECK_FAILED, proc.stderr
        assert proc.stdout.startswith("sweep: 2 runs, 1 errors")
        assert proc.stderr == ""
        status = [row["status"] for row in csv.DictReader(out.open(newline=""))]
        assert status == ["ok", "error: non-finite critical norm at t=0"]


REAL_KEYS = (
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
    "tol_l2",
    "tol_h",
    "decay_target",
    "occupation_fraction",
)


def assert_rejected(code, capsys, artifact):
    """Exit 2 with an ``error:`` line, no traceback, and nothing written."""
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert "error:" in err and "Traceback" not in err
    assert not artifact.exists()


class TestRuleTable:
    @pytest.mark.parametrize(
        "overrides",
        [[f"{key}=true"] for key in REAL_KEYS]
        + [
            ["blowup_factor=0"],
            ["blowup_factor=-1"],
            ["blowup_factor=0.5"],
            ["init_norm=-0.01", "init_norm_rel=null"],
            ["init_norm_rel=-0.1"],
            ["deltas=[true]"],
        ],
        ids=lambda overrides: overrides[0],
    )
    def test_bad_config_value(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path / "run.json")
        out = tmp_path / "out"
        sets = [arg for text in overrides for arg in ("--set", text)]
        assert_rejected(main(["simulate", str(cfg), "--out", str(out), *sets]), capsys, out)

    @pytest.mark.parametrize(
        "flags", [["--seed", "-1"], ["--alpha", "true"]], ids=" ".join
    )
    def test_bad_verify_flag(self, tmp_path, capsys, flags):
        out = tmp_path / "reports"
        code = main(["verify", "elementary", "--samples", "20", "--out", str(out), *flags])
        assert_rejected(code, capsys, out)

    def test_integral_float_n_flag_runs_as_its_integer(self, tmp_path):
        reports = []
        for n in ("16", "16.0"):
            out = tmp_path / n
            args = ["verify", "2.3-trilinear", "--samples", "10", "--n", n, "--out", str(out)]
            assert main(args) == EXIT_OK
            reports.append((out / "lemma_2_3-trilinear.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "spec",
        [
            {"base": [1, 2]},
            {"base": dict(BASE_CONFIG, flux_capacitor=1)},
            {"base": BASE_CONFIG, "max_jobs": True},
            {"base": BASE_CONFIG, "max_jobs": 0.5},
            [BASE_CONFIG],
        ],
        ids=["list-base", "unknown-base-key", "bool-max-jobs", "fractional-max-jobs", "list-spec"],
    )
    def test_bad_sweep_spec(self, tmp_path, capsys, spec):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "s.csv"
        assert_rejected(main(["sweep", str(path), "--out", str(out)]), capsys, out)

    @pytest.mark.parametrize(
        "extra",
        [{"grids": {"seed": [1, 2, 3]}, "max_job": 1}, {"grids": {"seed": [1]}}, {"tol": 1e-3}],
        ids=["grids-and-max-job", "grids", "tol"],
    )
    def test_unknown_top_level_sweep_key(self, tmp_path, capsys, extra):
        # an ignored key is a silent misspelling: the sweep would run one row
        # on the base settings and exit 0
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": BASE_CONFIG, **extra}))
        out = tmp_path / "s.csv"
        assert_rejected(main(["sweep", str(path), "--out", str(out)]), capsys, out)

    @pytest.mark.parametrize(
        "data",
        [b'{"base": ', json.dumps([{"base": BASE_CONFIG}]).encode(), b"\xff\xfe{"],
        ids=["invalid-json", "json-list", "not-text"],
    )
    def test_sweep_spec_that_is_not_a_json_object(self, tmp_path, capsys, data):
        path = tmp_path / "sweep.json"
        path.write_bytes(data)
        out = tmp_path / "s.csv"
        assert_rejected(main(["sweep", str(path), "--out", str(out)]), capsys, out)

    def test_zero_workers(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": BASE_CONFIG}))
        out = tmp_path / "s.csv"
        monkeypatch.setenv("SQGLAB_WORKERS", "0")
        assert_rejected(main(["sweep", str(path), "--out", str(out)]), capsys, out)

    def test_sweep_base_may_hold_check_options(self, tmp_path):
        # the base takes every config key; its ledger tolerances are read like
        # the spec's own, which win where both are given
        plain, with_checks = tmp_path / "p.json", tmp_path / "c.json"
        plain.write_text(json.dumps({"base": BASE_CONFIG, "tol_h": 0.5}))
        base = dict(BASE_CONFIG, tol_h=-1.0, deltas=[1.0])
        with_checks.write_text(json.dumps({"base": base, "tol_h": 0.5}))
        out_p, out_c = tmp_path / "p.csv", tmp_path / "c.csv"
        assert main(["sweep", str(plain), "--out", str(out_p)]) == EXIT_OK
        assert main(["sweep", str(with_checks), "--out", str(out_c)]) == EXIT_OK
        assert out_p.read_bytes() == out_c.read_bytes()


# Pools of values per config key, valid and not, for the seeded fuzz below.
# Valid runs stay small (n <= 16, t_end <= 0.05, three alphas so the eps0
# calibration cache holds), and no valid value asks for many steps.
FUZZ_POOLS = {
    "alpha": [0.2, 0.25, 0.3, 0.0, 0.5, -0.1, True, "0.25", None, [0.25]],
    "n": [8, 12, 16, 16.0, 15, 4, 16.5, True, "16", 10**9, None],
    "dt": [0.01, 0.025, 0.0, -0.01, 1e-300, True, "0.01", math.inf],
    "t_end": [0.02, 0.05, 0.001, 0, True, math.nan, 10**400],
    "box_len": [2.0, 6.283185307179586, 7, 0.0, -1.0, True, math.inf, "2pi"],
    "output_every": [1, 2, 2.0, 0, 1.5, True, "1"],
    "snapshot_every": [0, 1, 3, -1, 0.5, False],
    "eps0": [None, 1.0, 0.5, 0.0, -1.0, True, math.nan],
    "seed": [0, 3, 7.0, -1, 1.5, True, "3", 2**70],
    "cfl": [0.5, 0.25, 0.0, -0.5, True, math.inf],
    "auto_dt": [True, False, 1, "yes", None],
    "nonlinear": [True, False, 0, "false"],
    "blowup_factor": [1e6, 10.0, 1.0, 0.5, 0, -1, True, math.nan],
    "track_cancellation": [True, False, "no", 1],
    "init_kind": ["gaussian", "multi_mode", "dyadic_bumps", "foo", ["gaussian"], 3],
    "init_slope": [4.0, 2, -1.0, True, math.inf],
    "init_modes": [
        None,
        [],
        [[1, 0, 1.0, 0.0]],
        [[2, 1, 0.5, 1.0], [0, 3, 0.2, 0.0]],
        [[1, 0, 1, 0], [1, 0, -1, 0]],
        [[0, 0, 1, 0]],
        [[1, 2]],
        [[1.5, 0, 1, 0]],
        [[1, 0, True, 0]],
        5,
    ],
    "init_norm": [None, 0.0, 0.01, 1.0, 50.0, -0.01, True, "1"],
    "init_norm_rel": [None, 0.0, 0.1, 0.5, -0.1, True],
    "tol_l2": [1e-4, 0.5, 1e-300, 0.0, -1.0, True, "abc"],
    "tol_h": [1e-3, 0.0, True, None],
    "decay_target": [0.01, 0.0, True],
    "occupation_fraction": [0.1, -0.1, True],
    "deltas": [None, [0.5, 1.0], [], [True], [-1.0], 2.0, ["a"]],
}


class TestSeededConfigFuzz:
    def test_every_config_runs_or_exits_usage(self, tmp_path, capsys):
        rng = random.Random(20211)
        codes = {}
        for i in range(200):
            data = dict(BASE_CONFIG, t_end=0.04)
            for key in rng.sample(sorted(FUZZ_POOLS), rng.randint(0, 3)):
                data[key] = rng.choice(FUZZ_POOLS[key])
            path = tmp_path / "run.json"
            path.write_text(json.dumps(data))
            out = tmp_path / f"out{i}"
            command = "decay" if rng.random() < 0.1 else "simulate"
            code = main([command, str(path), "--out", str(out)])
            err = capsys.readouterr().err
            assert "Traceback" not in err, data
            if code == EXIT_USAGE:
                assert "error:" in err and not out.exists(), data
            else:
                assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INSTABILITY, EXIT_GATE), data
                shutil.rmtree(out)
            codes[code] = codes.get(code, 0) + 1
        # the mix exercises both sides of the contract
        assert codes.get(EXIT_USAGE, 0) >= 40 and codes.get(EXIT_OK, 0) >= 40, codes
