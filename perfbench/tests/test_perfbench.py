"""Tests of the benchmark itself: quick rounds, metric names, output checks.

Timings are never asserted; only names, units, counts and check verdicts.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402

from sqglab.cli import EXIT_OK, main  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_UNITS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_quick_round_passes_its_checks_and_names_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    proc = _run("--workload", "sim-ref", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_sweep_csv_is_identical_with_one_and_two_workers(tmp_path, monkeypatch):
    spec_path = tmp_path / "sweep.json"
    spec = workload.SweepSmall(3, True, str(tmp_path)).spec()
    spec_path.write_text(json.dumps(spec))
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SQGLAB_WORKERS", workers)
        out = tmp_path / f"sweep-{workers}.csv"
        assert main(["sweep", str(spec_path), "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sim_ref_checks_catch_a_corrupted_snapshot(tmp_path):
    work = workload.SimRef(3, True, str(tmp_path))
    work.setup()
    work.run()
    work.verify()
    assert work.failures == []
    n = work.cfg.n
    work.record.snapshots[-1].coeffs[n // 2, 1] = 1.0  # a mode outside the 2/3 mask
    work.verify()
    assert any("2/3 mask" in msg for msg in work.failures)


def test_tracer_restores_every_binding(tmp_path):
    import numpy as np
    import sqglab.decay

    before = (np.fft.fft2, sqglab.decay.hom_norm, sqglab.cli.RunManifest.write)
    tracer = spans.Tracer(str(tmp_path))
    tracer.install()
    assert np.fft.fft2 is not before[0]
    assert sqglab.cli.open is not open
    tracer.uninstall()
    assert (np.fft.fft2, sqglab.decay.hom_norm, sqglab.cli.RunManifest.write) == before
    assert not hasattr(sqglab.cli, "open")
