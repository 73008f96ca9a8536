"""Command-line front end: simulate / verify / decay / sweep.

Exit codes are fixed so CI can consume runs:

    0  everything passed
    1  a check failed (ledger, lemma violation, decay diagnostics)
    2  usage or configuration error
    3  instability (CFL violation or suspected blow-up; partial outputs kept)
    4  smallness gate failed (decay without --force)

The run configuration is one flat JSON object holding SolverConfig fields
plus check options (tol_l2, tol_h, decay_target, occupation_fraction,
deltas); any key can be overridden on the command line with
``--set key=value``.  See README for the schema and artifact formats.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .decay import GateError, decay_experiment
from .lemmas import LEMMA_IDS, MIN_SAMPLES, EnsembleSpec, estimate_constant
from .solver import (
    BlowupError,
    CflError,
    SolverConfig,
    blowup_monitor,
    energy_ledger,
    initial_field,
    simulate,
)
from .spectral import make_lattice

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INSTABILITY = 3
EXIT_GATE = 4

_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}
_CHECK_KEYS = {"tol_l2", "tol_h", "decay_target", "occupation_fraction", "deltas"}


class UsageError(Exception):
    pass


@dataclass
class CheckOptions:
    tol_l2: float = 1e-4
    tol_h: float = 1e-3
    decay_target: float = 0.01
    occupation_fraction: float = 0.1
    deltas: tuple | None = None

    def __post_init__(self):
        values = [self.tol_l2, self.tol_h, self.decay_target, self.occupation_fraction]
        if any(isinstance(v, bool) for v in values):
            raise TypeError("check options must be numbers, not booleans")
        if not all(math.isfinite(v) for v in values + list(self.deltas or ())):
            raise ValueError("check options must be finite")
        if not all(v > 0 for v in values):
            raise ValueError(
                "tol_l2, tol_h, decay_target and occupation_fraction must be positive"
            )
        if self.deltas is not None and not (self.deltas and all(d > 0 for d in self.deltas)):
            raise ValueError("deltas must be a non-empty list of positive cutoffs")


@dataclass
class RunManifest:
    """Reproducibility envelope written next to every run's artifacts."""

    config: dict
    version: str = __version__
    started: str = ""
    finished: str = ""
    outputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(dataclasses.asdict(self), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _now():
    return datetime.now(timezone.utc).isoformat()


def _parse_override(text):
    if "=" not in text:
        raise UsageError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def load_config(path, overrides=()):
    """Read the flat JSON config, apply overrides, split solver/check keys."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    for text in overrides:
        key, value = _parse_override(text)
        data[key] = value
    unknown = set(data) - _SOLVER_KEYS - _CHECK_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    solver_kwargs = {k: v for k, v in data.items() if k in _SOLVER_KEYS}
    check_kwargs = {k: v for k, v in data.items() if k in _CHECK_KEYS}
    try:
        if check_kwargs.get("deltas") is not None:
            check_kwargs["deltas"] = tuple(float(d) for d in check_kwargs["deltas"])
        return SolverConfig(**solver_kwargs), CheckOptions(**check_kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def _config_dict(cfg):
    d = dataclasses.asdict(cfg)
    if d["init_modes"] is not None:
        d["init_modes"] = [list(m) for m in d["init_modes"]]
    return d


def _write_manifest(manifest, outdir):
    """Stamp the finish time, list the manifest among the outputs, write it."""
    path = os.path.join(outdir, "manifest.json")
    manifest.finished = _now()
    manifest.outputs.append(path)
    manifest.write(path)


def _write_run_outputs(outdir, record, manifest):
    if record.cancellation is not None:
        manifest.stats["max_advection_pairing"] = float(record.cancellation.max())
    series_path = os.path.join(outdir, "series.csv")
    record.series.to_csv(series_path)
    manifest.outputs.append(series_path)
    if record.snapshots:
        snap_path = os.path.join(outdir, "snapshots.npz")
        record.save_snapshots(snap_path)
        manifest.outputs.append(snap_path)


def cmd_simulate(args):
    cfg, checks = load_config(args.config, args.set or ())
    outdir = args.out or "sqglab-run"
    os.makedirs(outdir, exist_ok=True)
    manifest = RunManifest(config=_config_dict(cfg), started=_now())
    theta0 = initial_field(cfg)

    try:
        record = simulate(theta0, cfg)
    except (CflError, BlowupError) as exc:
        print(f"instability: {exc}", file=sys.stderr)
        manifest.verdicts["stable"] = False
        partial = getattr(exc, "record", None)  # only a blow-up keeps one
        if partial is not None:
            _write_run_outputs(outdir, partial, manifest)
        _write_manifest(manifest, outdir)
        return EXIT_INSTABILITY

    ledger = energy_ledger(record, tol_l2=checks.tol_l2, tol_h=checks.tol_h)
    monitor = blowup_monitor(record)
    manifest.verdicts = {
        "stable": True,
        "ledger_l2": ledger.l2_ok,
        "ledger_h": ledger.h_ok,
        "dissipation_finite": monitor.finite,
    }
    _write_run_outputs(outdir, record, manifest)
    _write_manifest(manifest, outdir)

    print(
        f"simulate: {len(record.series)} samples to t={record.times[-1]:g}; "
        f"ledger slack L2={ledger.l2_slack:.3e} H={ledger.h_slack:.3e}; "
        f"{monitor.message}"
    )
    return EXIT_OK if ledger.passed else EXIT_CHECK_FAILED


_FIELD_LEMMAS = ("2.1-productlaw-two-term", "2.2-productlaw", "2.3-trilinear", "2.4-bilinear")
_DEFAULT_SAMPLES = {
    "elementary": 1_000_000,
    "2.5-expkernel": 10_000,
}


def cmd_verify(args):
    ids = args.lemmas
    if not ids:
        raise UsageError("no lemma ids given; choose from " + ", ".join(LEMMA_IDS))
    if "all" in ids:
        ids = list(LEMMA_IDS)
    for lemma_id in ids:
        if lemma_id not in LEMMA_IDS:
            raise UsageError(
                f"unknown lemma id {lemma_id!r}; choose from " + ", ".join(LEMMA_IDS)
            )
    alpha = args.alpha
    if not 0 < alpha < 0.5:
        raise UsageError(f"--alpha must lie in (0, 1/2), got {alpha}")
    if args.samples is not None and args.samples < MIN_SAMPLES:
        raise UsageError(f"--samples must be at least {MIN_SAMPLES}, got {args.samples}")
    try:
        lattice = make_lattice(args.n, 2.0 * math.pi)
    except ValueError as exc:
        raise UsageError(f"--n: {exc}") from exc
    outdir = args.out or "sqglab-verify"
    os.makedirs(outdir, exist_ok=True)

    all_ok = True
    for lemma_id in ids:
        count = args.samples
        if count is None:
            count = _DEFAULT_SAMPLES.get(lemma_id, 200)
        params = {}
        if lemma_id in ("2.1-productlaw-two-term", "2.2-productlaw"):
            params = {"s1": 1.0 - 2.0 * alpha, "s2": alpha}
        elif lemma_id in ("2.3-trilinear", "2.4-bilinear"):
            params = {"alpha": alpha}
        spec = EnsembleSpec(
            count=count,
            generator=args.generator,
            seed=args.seed,
            lattice=lattice if lemma_id in _FIELD_LEMMAS else None,
        )
        report = estimate_constant(spec, lemma_id, params)
        path = os.path.join(outdir, f"lemma_{lemma_id.replace('.', '_')}.json")
        with open(path, "w") as handle:
            json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        status = "ok" if report.passed else "VIOLATED"
        print(
            f"verify {lemma_id}: {status}, samples={report.samples}, "
            f"max_ratio={report.max_ratio:.6g}, violations={report.violations} -> {path}"
        )
        all_ok = all_ok and report.passed
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_decay(args):
    cfg, checks = load_config(args.config, args.set or ())
    if args.target is not None:
        try:
            checks = dataclasses.replace(checks, decay_target=args.target)
        except ValueError as exc:
            raise UsageError(f"invalid --target: {exc}") from exc
    target = checks.decay_target
    if cfg.snapshot_every == 0:
        samples = max(2, int(round(cfg.t_end / cfg.dt)) // cfg.output_every)
        cfg = dataclasses.replace(cfg, snapshot_every=max(1, samples // 200))
    outdir = args.out or "sqglab-decay"
    os.makedirs(outdir, exist_ok=True)
    manifest = RunManifest(config=_config_dict(cfg), started=_now())
    theta0 = initial_field(cfg)

    try:
        report = decay_experiment(
            cfg,
            theta0,
            deltas=checks.deltas,
            occupation_fraction=checks.occupation_fraction,
            target=target,
            force=args.force,
        )
    except GateError as exc:
        print(f"gate: {exc}", file=sys.stderr)
        manifest.verdicts["gate"] = False
        _write_manifest(manifest, outdir)
        return EXIT_GATE
    except (BlowupError, CflError) as exc:
        print(f"instability: {exc}", file=sys.stderr)
        manifest.verdicts["stable"] = False
        _write_manifest(manifest, outdir)
        return EXIT_INSTABILITY

    report_path = os.path.join(outdir, "decay_report.json")
    with open(report_path, "w") as handle:
        json.dump(report.to_json_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    residuals_path = os.path.join(outdir, "residuals.csv")
    report.residuals_to_csv(residuals_path)
    manifest.outputs += [report_path, residuals_path]
    if report.max_advection_pairing is not None:
        manifest.stats["max_advection_pairing"] = report.max_advection_pairing
    manifest.verdicts = {
        "gate": report.gate_passed,
        "diagnostics": report.diagnostics_passed,
        "decay_target": report.terminal_ratio < target,
    }
    _write_manifest(manifest, outdir)

    print(
        f"decay: terminal ratio {report.terminal_ratio:.3e} (target {target:g}); "
        f"diagnostics {'passed' if report.diagnostics_passed else 'FAILED'}; "
        f"gate {'passed' if report.gate_passed else 'failed'}"
    )
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _sweep_row(payload):
    """One sweep cell; module-level so it pickles for the worker pool."""
    base, overrides, checks = payload
    data = dict(base)
    data.update(overrides)
    row = {k: overrides[k] for k in sorted(overrides)}
    try:
        cfg = SolverConfig(**data)
        record = simulate(initial_field(cfg), cfg)
        ledger = energy_ledger(record, tol_l2=checks.tol_l2, tol_h=checks.tol_h)
        h0 = float(record.series.h_crit[0])
        row.update(
            seed=cfg.seed,
            terminal_ratio=(
                float(record.series.h_crit[-1]) / h0 if h0 > 0 else 0.0
            ),
            l2_slack=ledger.l2_slack,
            h_slack=ledger.h_slack,
            d_h_end=float(record.series.d_h[-1]),
            status="ok",
        )
    except Exception as exc:  # per-row failures land in the CSV, not the pool
        row.update(
            seed=data.get("seed", 0),
            terminal_ratio=math.nan,
            l2_slack=math.nan,
            h_slack=math.nan,
            d_h_end=math.nan,
            status=f"error: {exc}",
        )
    return row


_SWEEP_AXES = ("alpha", "init_norm_rel", "init_norm", "n", "seed")


def cmd_sweep(args):
    try:
        with open(args.spec) as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read sweep spec: {exc}") from exc
    if not isinstance(spec, dict) or "base" not in spec:
        raise UsageError("sweep spec must be an object with a 'base' config")
    base = dict(spec["base"])
    grid = spec.get("grid", {})
    if not isinstance(grid, dict):
        raise UsageError("sweep grid must be an object mapping axes to value lists")
    bad_axes = set(grid) - set(_SWEEP_AXES)
    if bad_axes:
        raise UsageError(f"unsupported sweep axes: {sorted(bad_axes)}")
    for name, values in grid.items():
        if not isinstance(values, list) or not values:
            raise UsageError(f"sweep axis {name!r} must be a non-empty list, got {values!r}")
    try:
        checks = CheckOptions(**{k: spec[k] for k in ("tol_l2", "tol_h") if k in spec})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid sweep tolerances: {exc}") from exc
    axes = [(name, list(grid[name])) for name in _SWEEP_AXES if name in grid]
    combos = list(itertools.product(*(vals for _, vals in axes))) or [()]
    try:
        max_jobs = int(spec.get("max_jobs", 64))
        workers = int(os.environ.get("SQGLAB_WORKERS", "1"))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"max_jobs and SQGLAB_WORKERS must be integers: {exc}") from exc
    if len(combos) > max_jobs:
        raise UsageError(f"sweep of {len(combos)} runs exceeds max_jobs={max_jobs}")

    payloads = [
        (base, {name: value for (name, _), value in zip(axes, combo)}, checks)
        for combo in combos
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]

    out_path = args.out or "sweep.csv"
    columns = [name for name, _ in axes] + [
        "seed",
        "terminal_ratio",
        "l2_slack",
        "h_slack",
        "d_h_end",
        "status",
    ]
    seen = set()
    columns = [c for c in columns if not (c in seen or seen.add(c))]
    with open(out_path, "w") as handle:
        handle.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for name in columns:
                value = row.get(name, "")
                if isinstance(value, float):
                    cells.append(repr(value))
                else:
                    cells.append(str(value))
            handle.write(",".join(cells) + "\n")
    errors = sum(1 for row in rows if row["status"] != "ok")
    print(f"sweep: {len(rows)} runs, {errors} errors -> {out_path}")
    return EXIT_CHECK_FAILED if errors else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sqglab",
        description="Pseudo-spectral simulator and verification harness "
        "for the dissipative surface transport equation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one simulation with energy ledgers")
    p_sim.add_argument("config", help="JSON configuration file")
    p_sim.add_argument("--out", help="output directory (default sqglab-run)")
    p_sim.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="run inequality verification ensembles")
    p_ver.add_argument("lemmas", nargs="*", help=f"lemma ids ({', '.join(LEMMA_IDS)}) or 'all'")
    p_ver.add_argument("--samples", type=lambda s: int(float(s)), help="ensemble size")
    p_ver.add_argument("--n", type=int, default=64, help="lattice size (default 64)")
    p_ver.add_argument("--alpha", type=float, default=0.25)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument(
        "--generator",
        default="gaussian",
        choices=("gaussian", "multi_mode", "dyadic_bumps"),
    )
    p_ver.add_argument("--out", help="report directory (default sqglab-verify)")
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decay", help="run the long-time decay pipeline")
    p_dec.add_argument("config", help="JSON configuration file")
    p_dec.add_argument("--out", help="output directory (default sqglab-decay)")
    p_dec.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_dec.add_argument("--force", action="store_true", help="run even if the gate fails")
    p_dec.add_argument("--target", type=float, help="terminal-ratio target (default 0.01)")
    p_dec.set_defaults(func=cmd_decay)

    p_sw = sub.add_parser("sweep", help="grid of runs aggregated into one CSV")
    p_sw.add_argument("spec", help="JSON sweep specification")
    p_sw.add_argument("--out", help="output CSV path (default sweep.csv)")
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
