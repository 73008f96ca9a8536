"""One round of one benchmark workload, run in a fresh process by run.py.

    python3 perfbench/workload.py --workload sim-ref --seed 1 --trace 0 \
        --out DIR --result FILE [--quick]

The round builds its inputs from the seed (set-up), runs the workload once,
checks the outputs against computations made here, apart from the package,
and writes one JSON result to FILE: the monotonic time at which set-up
ended, wall_s, peak RSS, operations attempted and failed, the failed
checks and, when traced, the per-layer metrics of the round.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import resource
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import sqglab.cli  # noqa: E402
import sqglab.solver  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402

# CLI exit codes that mean the operation did not complete
_NOT_DONE = (sqglab.cli.EXIT_USAGE, sqglab.cli.EXIT_INSTABILITY, sqglab.cli.EXIT_GATE)

# 16 cutoffs from kmin/2 to 16*kmin, three per octave
DECAY_LADDER = [round(0.5 * 2.0 ** (i / 3.0), 12) for i in range(16)]

FIELD_LEMMAS = ("2.1-productlaw-two-term", "2.2-productlaw", "2.3-trilinear", "2.4-bilinear")


def _own_wavenumbers(n, box_len):
    j = np.fft.fftfreq(n, d=1.0 / n)
    j1, j2 = np.meshgrid(j, j, indexing="ij")
    step = 2.0 * np.pi / box_len
    return j1, j2, (step * j1) ** 2 + (step * j2) ** 2


def _own_mask(n):
    j1, j2, _ = _own_wavenumbers(n, 1.0)
    keep = n // 3
    return (np.abs(j1) <= keep) & (np.abs(j2) <= keep)


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a)


class Round:
    """Common plumbing: output directory, config file, failure bookkeeping."""

    ops = 1

    def __init__(self, seed, quick, out):
        self.seed = seed
        self.quick = quick
        self.out = out
        self.artifacts = os.path.join(out, "artifacts")
        os.makedirs(self.artifacts, exist_ok=True)
        self.failures = []
        self.failed_ops = 0

    def check(self, ok, message):
        if not ok:
            self.failures.append(message)

    def write_config(self, data):
        path = os.path.join(self.out, "run.json")
        with open(path, "w") as handle:
            json.dump(data, handle)
        return path


class SimRef(Round):
    """sqglab.simulate on the acceptance reference configuration, shortened."""

    def config(self):
        return {
            "alpha": 0.25,
            "n": 32 if self.quick else 128,
            "dt": 0.005,
            "t_end": 0.05 if self.quick else 0.5,
            "seed": self.seed,
            "init_norm_rel": 0.1,
            "output_every": 1,
            "snapshot_every": 2 if self.quick else 20,
            "track_cancellation": True,
        }

    def setup(self):
        self.cfg, _ = sqglab.cli.load_config(self.write_config(self.config()))
        self.theta0 = sqglab.solver.initial_field(self.cfg)

    def run(self):
        self.record = sqglab.solver.simulate(self.theta0, self.cfg)
        self.record.series.to_csv(os.path.join(self.artifacts, "series.csv"))
        self.record.save_snapshots(os.path.join(self.artifacts, "snapshots.npz"))

    def verify(self):
        rec, s = self.record, self.record.series
        t = s.times
        self.check(len(t) == round(self.cfg.t_end / self.cfg.dt) + 1, "sample count")

        def cumtrapz(y):
            return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))])

        d_l2 = cumtrapz(s.h_alpha**2)
        d_h = cumtrapz(s.h_alpha**2 + s.h_high**2)
        self.check(_rel(d_l2[-1], s.d_l2[-1]) <= 1e-9, "D_L2 differs from its recomputation")
        self.check(_rel(d_h[-1], s.d_h[-1]) <= 1e-9, "D_H differs from its recomputation")
        l2_slack = np.max(s.l2**2 + 2.0 * d_l2 - s.l2[0] ** 2) / s.l2[0] ** 2
        h_slack = np.max(s.h_crit**2 + d_h - s.h_crit[0] ** 2) / s.h_crit[0] ** 2
        self.check(l2_slack <= 1e-4, f"L2 ledger slack {l2_slack:.3e} > 1e-4")
        self.check(h_slack <= 1e-3, f"critical ledger slack {h_slack:.3e} > 1e-3")
        pairing = rec.cancellation
        self.check(
            pairing is not None and len(pairing) == len(t) and np.max(pairing) <= 1e-10,
            "advection pairing above 1e-10",
        )

        n, box_len = self.cfg.n, self.cfg.box_len
        mask = _own_mask(n)
        self.check(len(rec.snapshots) >= 2, "too few snapshots")
        for ts, snap in zip(rec.snapshot_times, rec.snapshots):
            c = snap.coeffs
            i = int(np.searchsorted(t, ts))
            self.check(i < len(t) and t[i] == ts, f"snapshot time {ts} not sampled")
            samples = np.fft.ifft2(c).real
            l2 = np.sqrt(np.sum(samples**2) * (box_len / n) ** 2)
            self.check(_rel(l2, s.l2[min(i, len(t) - 1)]) <= 1e-12, f"snapshot L2 at t={ts}")
            self.check(not np.any(c[~mask]), f"snapshot at t={ts} leaves the 2/3 mask")
            mirror = np.conj(np.roll(c[::-1, ::-1], (1, 1), axis=(0, 1)))
            asym = np.max(np.abs(c - mirror)) / np.max(np.abs(c))
            self.check(asym <= 1e-12, f"snapshot at t={ts} not conjugate-symmetric")


class DecayLadder(Round):
    """sqglab decay with a snapshot per sample and a 16-cutoff ladder."""

    def config(self):
        return {
            "alpha": 0.25,
            "n": 32 if self.quick else 64,
            "dt": 0.02 if self.quick else 0.01,
            # every mode decays at least like exp(-t); exp(-3.5) = 0.030 is well
            # under the 0.05 target
            "t_end": 3.5,
            "seed": self.seed,
            "init_norm_rel": 0.1,
            "output_every": 1,
            "snapshot_every": 1,
            "decay_target": 0.05,
            "deltas": DECAY_LADDER[::5] if self.quick else DECAY_LADDER,
        }

    def setup(self):
        self.config_path = self.write_config(self.config())
        self.cfg, _ = sqglab.cli.load_config(self.config_path)
        self.theta0 = sqglab.solver.initial_field(self.cfg)

    def run(self):
        self.rc = sqglab.cli.main(["decay", self.config_path, "--out", self.artifacts])

    def verify(self):
        if self.rc in _NOT_DONE:
            self.failed_ops = 1
            return
        self.check(self.rc == sqglab.cli.EXIT_OK, f"decay exited {self.rc}")
        with open(os.path.join(self.artifacts, "decay_report.json")) as handle:
            report = json.load(handle)
        splits = report["splits"]
        deltas = [sp["delta"] for sp in splits]
        self.check(deltas == sorted(deltas) and len(deltas) == len(self.config()["deltas"]), "cutoffs")
        sup_w = [sp["sup_w_L2"] for sp in splits]
        int_v = [sp["int_v_negsigma"] for sp in splits]
        self.check(all(a <= b for a, b in zip(sup_w, sup_w[1:])), "sup_w_L2 decreases in delta")
        self.check(all(a >= b for a, b in zip(int_v, int_v[1:])), "int_v_negsigma grows in delta")
        occupations = list(report["occupations_low"])
        if report["occupation_crit"] is not None:
            occupations.append(report["occupation_crit"])
        self.check(bool(occupations), "no occupation reports")
        for occ in occupations:
            self.check(
                occ["measure_estimate"] <= occ["bound"] * (1.0 + 1e-12),
                f"occupation {occ['measure_estimate']} above its Chebyshev bound {occ['bound']}",
            )
        with open(os.path.join(self.artifacts, "residuals.csv")) as handle:
            gaps = [float(row["interp_gap_rel"]) for row in csv.DictReader(handle)]
        self.check(len(gaps) >= 2 and min(gaps) >= -1e-10, "interpolation gap below -1e-10")

        n, box_len, alpha = self.cfg.n, self.cfg.box_len, self.cfg.alpha
        _, _, k2 = _own_wavenumbers(n, box_len)
        k2[0, 0] = 1.0
        weight = 1.0 + k2 ** (2.0 - 2.0 * alpha)
        weight[0, 0] = 0.0
        c = self.theta0.coeffs * _own_mask(n)
        own = np.sqrt(box_len**2 / n**4 * np.sum(weight * np.abs(c) ** 2))
        self.check(_rel(report["initial_norm"], own) <= 1e-12, "initial_norm differs from own sum")


class VerifyLab(Round):
    """sqglab verify on every lemma id with enlarged ensembles."""

    ops = 6

    def samples(self):
        if self.quick:
            return {"elementary": 1000, "2.5-expkernel": 100, **{i: 10 for i in FIELD_LEMMAS}}
        return {"elementary": 2_000_000, "2.5-expkernel": 20_000, **{i: 300 for i in FIELD_LEMMAS}}

    def setup(self):
        self.n = 16 if self.quick else 64

    def run(self):
        self.rcs = {}
        for lemma_id, count in self.samples().items():
            self.rcs[lemma_id] = sqglab.cli.main([
                "verify", lemma_id, "--samples", str(count), "--n", str(self.n),
                "--seed", str(self.seed), "--out", self.artifacts,
            ])

    def verify(self):
        reports = {}
        for lemma_id, count in self.samples().items():
            if self.rcs[lemma_id] in _NOT_DONE:
                self.failed_ops += 1
                continue
            path = os.path.join(self.artifacts, f"lemma_{lemma_id.replace('.', '_')}.json")
            with open(path) as handle:
                rep = reports[lemma_id] = json.load(handle)
            self.check(self.rcs[lemma_id] == sqglab.cli.EXIT_OK, f"{lemma_id} exited nonzero")
            self.check(rep["violations"] == 0, f"{lemma_id}: {rep['violations']} violations")
            self.check(rep["samples"] == count, f"{lemma_id}: ran {rep['samples']} samples")
        if "elementary" in reports:
            self.check(reports["elementary"]["max_ratio"] <= 1.0 + 1e-12, "elementary above 1")
        if "2.5-expkernel" in reports:
            # largest trapezoid tolerance over the sampled sigma <= 10, t_end <= 5, 201 points
            tol = (10.0 * 5.0 / 200) ** 2 / 8.0 + 1e-9
            self.check(reports["2.5-expkernel"]["max_ratio"] <= 1.0 + tol, "expkernel above tol")
        two, one = reports.get("2.1-productlaw-two-term"), reports.get("2.2-productlaw")
        if two and one:
            self.check(two["max_ratio"] <= one["max_ratio"], "two-term ratio above product ratio")


class SweepSmall(Round):
    """sqglab sweep with two workers over small runs, half of them CFL-bound."""

    workers = 2

    def grid(self):
        seeds = [self.seed] if self.quick else [self.seed, self.seed + 1, self.seed + 2]
        # large norm first, so that the pool ends on short rows and both
        # workers stay busy to the end
        return {"alpha": [0.25, 0.35], "init_norm": [200.0, 0.5], "seed": seeds}

    def spec(self):
        base = {"n": 16 if self.quick else 64, "dt": 0.01, "t_end": 0.2 if self.quick else 0.5}
        return {"base": {"alpha": 0.25, "output_every": 1, **base}, "grid": self.grid()}

    @property
    def ops(self):
        return len(list(itertools.product(*self.grid().values())))

    def setup(self):
        self.spec_path = os.path.join(self.out, "sweep.json")
        with open(self.spec_path, "w") as handle:
            json.dump(self.spec(), handle)
        os.environ["SQGLAB_WORKERS"] = str(self.workers)

    def run(self):
        self.csv_path = os.path.join(self.artifacts, "sweep.csv")
        self.rc = sqglab.cli.main(["sweep", self.spec_path, "--out", self.csv_path])

    def verify(self):
        if self.rc == sqglab.cli.EXIT_USAGE or not os.path.exists(self.csv_path):
            self.failed_ops = self.ops
            return
        with open(self.csv_path) as handle:
            rows = list(csv.DictReader(handle))
        grid = self.grid()
        expected = list(itertools.product(*grid.values()))
        self.check(len(rows) == len(expected), f"{len(rows)} rows for {len(expected)} runs")
        for row, combo in zip(rows, expected):
            got = (float(row["alpha"]), float(row["init_norm"]), int(row["seed"]))
            self.check(got == combo, f"row {got} out of grid order, expected {combo}")
            if row["status"] != "ok":
                self.failed_ops += 1
                continue
            self.check(float(row["l2_slack"]) <= 1e-4, f"row {got}: l2_slack {row['l2_slack']}")
            if got[1] == min(grid["init_norm"]):
                self.check(float(row["h_slack"]) <= 1e-3, f"row {got}: h_slack {row['h_slack']}")


WORKLOADS = {
    "sim-ref": SimRef,
    "decay-ladder": DecayLadder,
    "verify-lab": VerifyLab,
    "sweep-small": SweepSmall,
}


def _dir_bytes(path):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = Tracer(args.out)
        tracer.install()
    work = WORKLOADS[args.workload](args.seed, args.quick, args.out)
    work.setup()
    setup_end = time.monotonic()
    start = time.perf_counter()
    work.run()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    work.verify()

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "peak_rss_mb": (own + children) / 1024.0,
        "attempted": work.ops,
        "failed": work.failed_ops,
        "failures": work.failures,
    }
    if tracer is not None:
        tracer.merge_workers()
        result["layers"] = layer_metrics(
            tracer.spans,
            tracer.counts,
            wall,
            _dir_bytes(work.artifacts),
            getattr(work, "workers", 1),
        )
        tracer.dump(os.path.join(args.out, "spans.json"))
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
