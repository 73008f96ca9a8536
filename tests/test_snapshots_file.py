"""snapshots.npz is written one field at a time, with np.savez's bytes.

The library's ``save_snapshots`` and ``sqglab simulate`` share one writer.
The command spills each snapshot to an anonymous temporary file as the run
makes it, so its memory does not grow by a field per snapshot, and leaves
no file behind but its artifacts.  Each test compares with ``np.savez`` of
the same record, so every numpy version checks itself.
"""

import io
import json
import tracemalloc

import numpy as np
import pytest

from sqglab import BlowupError, SolverConfig, initial_field, simulate
from sqglab.cli import EXIT_CHECK_FAILED, EXIT_INSTABILITY, EXIT_OK, load_config, main

BASE = {"alpha": 0.25, "n": 16, "dt": 0.02, "t_end": 0.4, "seed": 2, "init_norm_rel": 0.1, "eps0": 1.0}
ARTIFACTS = ["manifest.json", "series.csv", "snapshots.npz"]


def savez_reference(path, record):
    """np.savez of the record's snapshots, read through copies so the record caches nothing."""
    cfg = record.config
    np.savez(
        path,
        t=np.asarray(record.snapshot_times, dtype=float),
        coeffs=np.stack([f.copy().coeffs for f in record.snapshots]),
        n=cfg.n,
        box_len=cfg.box_len,
        alpha=cfg.alpha,
    )
    return path.read_bytes()


def write_config(tmp_path, **overrides):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**BASE, **overrides}))
    return path


def library_record(config_path):
    """The record of the config at ``config_path``, run with its snapshots stored."""
    cfg, _ = load_config(str(config_path))
    try:
        return simulate(initial_field(cfg), cfg)
    except BlowupError as exc:
        return exc.record


class TestSaveSnapshots:
    def test_bytes_equal_np_savez_and_no_field_keeps_its_full_layout(self, tmp_path):
        cfg = SolverConfig(**{**BASE, "snapshot_every": 3})
        record = simulate(initial_field(cfg), cfg)
        record.save_snapshots(tmp_path / "saved.npz")
        assert (tmp_path / "saved.npz").read_bytes() == savez_reference(tmp_path / "ref.npz", record)
        assert all(f._full is None for f in record.snapshots)

    def test_the_suffix_rule_and_a_file_object(self, tmp_path):
        cfg = SolverConfig(**{**BASE, "snapshot_every": 5})
        record = simulate(initial_field(cfg), cfg)
        want = savez_reference(tmp_path / "ref.npz", record)
        record.save_snapshots(str(tmp_path / "plain"))
        assert (tmp_path / "plain.npz").read_bytes() == want
        handle = io.BytesIO()
        record.save_snapshots(handle)
        assert handle.getvalue() == want

    def test_a_field_that_keeps_its_full_layout_is_written_the_same(self, tmp_path):
        cfg = SolverConfig(**{**BASE, "snapshot_every": 5})
        record = simulate(initial_field(cfg), cfg)
        want = savez_reference(tmp_path / "ref.npz", record)
        record.snapshots[1].coeffs  # builds and keeps the layout
        record.save_snapshots(tmp_path / "saved.npz")
        assert (tmp_path / "saved.npz").read_bytes() == want


class TestSimulateCommand:
    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"snapshot_every": 1}, id="every-1"),
            pytest.param({"snapshot_every": 7, "output_every": 2, "t_end": 1.0}, id="every-7"),
            # steps shortened by the CFL bound: more samples than planned
            pytest.param(
                {"init_norm": 5.0, "init_norm_rel": None, "cfl": 0.01, "t_end": 1.0,
                 "snapshot_every": 1, "seed": 3},
                id="cfl-shortened",
            ),
        ],
    )
    def test_bytes_equal_np_savez_of_the_library_record(self, tmp_path, overrides):
        config_path = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        # the ledger verdict is not the subject here
        assert main(["simulate", str(config_path), "--out", str(out)]) in (EXIT_OK, EXIT_CHECK_FAILED)
        record = library_record(config_path)
        assert not record.aborted
        assert (out / "snapshots.npz").read_bytes() == savez_reference(tmp_path / "ref.npz", record)
        assert sorted(p.name for p in out.iterdir()) == ARTIFACTS

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(
                {"init_norm": 50.0, "dt": 1.0, "t_end": 40.0, "cfl": 1e9, "blowup_factor": 1.02},
                id="norm-ceiling",
            ),
            pytest.param(
                {"n": 32, "dt": 0.06, "t_end": 4.0, "seed": 3, "init_norm": 50.0, "cfl": 1e9,
                 "blowup_factor": 1e300, "auto_dt": False},
                id="cfl-bound",
            ),
        ],
    )
    def test_an_abort_writes_the_partial_record(self, tmp_path, overrides):
        config_path = write_config(tmp_path, init_norm_rel=None, snapshot_every=1, **overrides)
        out = tmp_path / "out"
        assert main(["simulate", str(config_path), "--out", str(out)]) == EXIT_INSTABILITY
        record = library_record(config_path)
        assert record.aborted and len(record.snapshots) >= 2
        assert (out / "snapshots.npz").read_bytes() == savez_reference(tmp_path / "ref.npz", record)
        assert sorted(p.name for p in out.iterdir()) == ARTIFACTS


def traced_peak(tmp_path, **overrides):
    """The tracemalloc peak of one ``sqglab simulate`` run of the config."""
    config_path = write_config(tmp_path, **overrides)
    tracemalloc.start()
    try:
        rc = main(["simulate", str(config_path), "--out", str(tmp_path / "out")])
        assert rc in (EXIT_OK, EXIT_CHECK_FAILED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_a_snapshot_costs_less_than_a_quarter_of_a_field(self, tmp_path):
        traced_peak(tmp_path, t_end=0.2, snapshot_every=1)  # fills the lattice's caches
        short = traced_peak(tmp_path, t_end=1.0, snapshot_every=1)  # 51 snapshots
        long = traced_peak(tmp_path, t_end=5.0, snapshot_every=1)  # 251
        field_bytes = 16 * (16 // 2 + 1) * 16
        assert (long - short) / (251 - 51) < field_bytes / 4

    def test_a_sample_costs_less_than_160_bytes(self, tmp_path):
        # the linear flow, so that a long run is quick; the sample block is the same
        small = dict(n=8, nonlinear=False)
        traced_peak(tmp_path, t_end=0.2, **small)
        short = traced_peak(tmp_path, t_end=20.0, **small)  # 1001 samples
        long = traced_peak(tmp_path, t_end=80.0, **small)  # 4001
        assert (long - short) / (4001 - 1001) < 160
