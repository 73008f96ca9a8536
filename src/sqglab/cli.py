"""Command-line front end: simulate / verify / decay / sweep.

Exit codes are fixed so CI can consume runs:

    0  everything passed
    1  a check failed (ledger, lemma violation, decay diagnostics)
    2  usage or configuration error, or an --out that cannot be made
    3  instability (CFL violation or suspected blow-up; partial outputs kept)
    4  smallness gate failed (decay without --force)

:func:`main` maps every abort and rejected input to its code and one stderr
line; it silences numpy's overflow warnings, as the checks report inf norms.

The run configuration is one flat JSON object holding SolverConfig fields
plus check options (tol_l2, tol_h, decay_target, occupation_fraction,
deltas); any key can be overridden on the command line with
``--set key=value``.  See README for the schema and artifact formats.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .decay import GateError, decay_experiment
from .lemmas import _SAMPLES, _SHAPES, _SPEC_RULES, LEMMA_IDS, EnsembleSpec, estimate_constant
from .solver import (
    _CONFIG_RULES,
    BlowupError,
    SolverConfig,
    _write_snapshots,
    blowup_monitor,
    energy_ledger,
    initial_field,
    simulate,
)
from .spectral import _check_fields, _checked, _from_half, _Open, make_lattice

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INSTABILITY = 3
EXIT_GATE = 4

_SOLVER_KEYS = {f.name for f in dataclasses.fields(SolverConfig)}


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage(what=None):
    """Turn a value that the block rejects into a UsageError ``what: reason``."""
    try:
        yield
    except (TypeError, ValueError, OSError) as exc:
        raise UsageError(f"{what}: {exc}" if what else str(exc)) from exc


# One rule row per CheckOptions field, read by sqglab.spectral._checked; the
# deltas row is each cutoff's, in a list that may not be empty.
_CHECK_RULES = {
    name: ("real", _Open(0.0))
    for name in ("tol_l2", "tol_h", "decay_target", "occupation_fraction", "deltas")
}


@dataclass
class CheckOptions:
    tol_l2: float = 1e-4
    tol_h: float = 1e-3
    decay_target: float = 0.01
    occupation_fraction: float = 0.1
    deltas: tuple | None = None

    def __post_init__(self):
        _check_fields(self, {k: v for k, v in _CHECK_RULES.items() if k != "deltas"})
        if self.deltas is not None:
            if not isinstance(self.deltas, (list, tuple)) or not self.deltas:
                raise ValueError(f"deltas must be a non-empty list, got {self.deltas!r}")
            rule = _CHECK_RULES["deltas"]
            self.deltas = tuple(float(_checked("deltas cutoff", d, *rule)) for d in self.deltas)


@dataclass
class RunManifest:
    """Reproducibility envelope written next to the artifacts of ``simulate`` and ``decay``."""

    config: dict
    version: str = __version__
    started: str = ""
    finished: str = ""
    outputs: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def write(self, path):
        _write_json(path, dataclasses.asdict(self))


def _write_json(path, obj):
    """Write ``obj`` to ``path`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
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


def _split_config(data):
    """A config object's SolverConfig and CheckOptions keys; any other key is a usage error."""
    unknown = set(data) - _SOLVER_KEYS - set(_CHECK_RULES)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    solver_kwargs = {k: v for k, v in data.items() if k in _SOLVER_KEYS}
    return solver_kwargs, {k: v for k, v in data.items() if k in _CHECK_RULES}


def _read_json_object(path, what):
    """The JSON object in the file at ``path``; ``what`` names the file in a usage error."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON, or bytes that are not text
        raise UsageError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{what} must be a JSON object")
    return data


def load_config(path, overrides=()):
    """Read the flat JSON config, apply overrides, split solver/check keys."""
    data = _read_json_object(path, "config")
    for text in overrides:
        key, value = _parse_override(text)
        data[key] = value
    solver_kwargs, check_kwargs = _split_config(data)
    with _usage("invalid configuration"):
        return SolverConfig(**solver_kwargs), CheckOptions(**check_kwargs)


def _config_dict(cfg):
    d = dataclasses.asdict(cfg)
    if d["init_modes"] is not None:
        d["init_modes"] = [list(m) for m in d["init_modes"]]
    return d


@contextlib.contextmanager
def _run(cfg, outdir):
    """theta0 and the RunManifest of a run into ``outdir``, which is made here.

    The manifest is written when the block ends normally or by a GateError
    or BlowupError, whose verdict it first sets false; not on another error.
    """
    with _usage("invalid initial field"):
        theta0 = initial_field(cfg)
    with _usage("--out"):
        os.makedirs(outdir, exist_ok=True)
    manifest = RunManifest(config=_config_dict(cfg), started=_now())
    abort = None
    try:
        yield theta0, manifest
    except (GateError, BlowupError) as exc:
        manifest.verdicts["gate" if isinstance(exc, GateError) else "stable"] = False
        abort = exc
    path = os.path.join(outdir, "manifest.json")
    manifest.finished = _now()
    manifest.outputs.append(path)
    manifest.write(path)
    if abort is not None:
        raise abort


class _Spill:
    """``simulate``'s ``_on_snapshot`` for the CLI: each snapshot's half spectrum
    is appended to ``file``, an anonymous temporary file, and its time to
    ``times``, so a run holds no field for ``snapshots.npz``."""

    def __init__(self, file, theta0):
        self.file, self.times = file, []
        self.lattice, self.shape = theta0.lattice, theta0.half.shape

    def __call__(self, t, field):
        self.file.write(field.half)
        self.times.append(t)

    def fields(self):
        """The spilled snapshots in order, read back one at a time."""
        self.file.seek(0)
        half = np.empty(self.shape, dtype=complex)
        for _ in self.times:
            self.file.readinto(half)
            yield _from_half(self.lattice, half)


def _write_run_outputs(outdir, record, manifest, spill):
    if record.cancellation is not None:
        manifest.stats["max_advection_pairing"] = float(record.cancellation.max())
    series_path = os.path.join(outdir, "series.csv")
    record.series.to_csv(series_path)
    manifest.outputs.append(series_path)
    if spill.times:
        snap_path = os.path.join(outdir, "snapshots.npz")
        _write_snapshots(snap_path, spill.times, spill.fields(), record.config)
        manifest.outputs.append(snap_path)


def cmd_simulate(args):
    cfg, checks = load_config(args.config, args.set or ())
    outdir = args.out or "sqglab-run"
    with _run(cfg, outdir) as (theta0, manifest), tempfile.TemporaryFile(dir=outdir) as file:
        spill = _Spill(file, theta0)
        try:
            record = simulate(theta0, cfg, _on_snapshot=spill)
        except BlowupError as exc:  # a CflError too; each keeps the partial record
            _write_run_outputs(outdir, exc.record, manifest, spill)
            raise
        ledger = energy_ledger(record, tol_l2=checks.tol_l2, tol_h=checks.tol_h)
        monitor = blowup_monitor(record)
        manifest.verdicts = {
            "stable": True,
            "ledger_l2": ledger.l2_ok,
            "ledger_h": ledger.h_ok,
            "dissipation_finite": monitor.finite,
        }
        _write_run_outputs(outdir, record, manifest, spill)

    print(
        f"simulate: {len(record.series)} samples to t={record.times[-1]:g}; "
        f"ledger slack L2={ledger.l2_slack:.3e} H={ledger.h_slack:.3e}; "
        f"{monitor.message}"
    )
    return EXIT_OK if ledger.passed else EXIT_CHECK_FAILED


def cmd_verify(args):
    ids, choices = args.lemmas, "choose from " + ", ".join(LEMMA_IDS)
    if not ids:
        raise UsageError("no lemma ids given; " + choices)
    if "all" in ids:
        ids = list(LEMMA_IDS)
    for lemma_id in ids:
        if lemma_id not in LEMMA_IDS:
            raise UsageError(f"unknown lemma id {lemma_id!r}; {choices}")
    with _usage("--n"):
        lattice = make_lattice(args.n, 2.0 * math.pi)
    outdir = args.out or "sqglab-verify"
    with _usage("--out"):
        os.makedirs(outdir, exist_ok=True)

    all_ok = True
    for lemma_id in ids:
        shape = _SHAPES[lemma_id]
        spec = EnsembleSpec(
            count=shape.samples if args.samples is None else args.samples,
            generator=args.generator,
            seed=args.seed,
            lattice=lattice if shape.fields else None,
        )
        report = estimate_constant(spec, lemma_id, shape.at_alpha(args.alpha))
        path = os.path.join(outdir, f"lemma_{lemma_id.replace('.', '_')}.json")
        _write_json(path, report.to_json_dict())
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
        checks = dataclasses.replace(checks, decay_target=args.target)
    target = checks.decay_target
    if cfg.snapshot_every == 0:
        samples = max(2, int(round(cfg.t_end / cfg.dt)) // cfg.output_every)
        cfg = dataclasses.replace(cfg, snapshot_every=max(1, samples // 200))
    outdir = args.out or "sqglab-decay"
    with _run(cfg, outdir) as (theta0, manifest):
        report = decay_experiment(
            cfg,
            theta0,
            deltas=checks.deltas,
            occupation_fraction=checks.occupation_fraction,
            target=target,
            force=args.force,
        )
        report_path = os.path.join(outdir, "decay_report.json")
        _write_json(report_path, report.to_json_dict())
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
    spec = _read_json_object(args.spec, "sweep spec")
    unknown = set(spec) - {"base", "grid", "tol_l2", "tol_h", "max_jobs"}
    if unknown:
        raise UsageError(f"unknown sweep spec keys: {sorted(unknown)}")
    if not isinstance(spec.get("base"), dict):
        raise UsageError("sweep spec must have a 'base' config object")
    base, base_checks = _split_config(spec["base"])
    grid = spec.get("grid", {})
    if not isinstance(grid, dict):
        raise UsageError("sweep grid must be an object mapping axes to value lists")
    bad_axes = set(grid) - set(_SWEEP_AXES)
    if bad_axes:
        raise UsageError(f"unsupported sweep axes: {sorted(bad_axes)}")
    for name, values in grid.items():
        if not isinstance(values, list) or not values:
            raise UsageError(f"sweep axis {name!r} must be a non-empty list, got {values!r}")
    tolerances = {k: spec[k] for k in ("tol_l2", "tol_h") if k in spec}
    with _usage("invalid sweep check options"):
        checks = CheckOptions(**{**base_checks, **tolerances})
    axes = [(name, list(grid[name])) for name in _SWEEP_AXES if name in grid]
    combos = list(itertools.product(*(vals for _, vals in axes))) or [()]
    # both take whole numbers >= 1: one rule row for the two
    sizes = {"max_jobs": spec.get("max_jobs", 64)}
    sizes["SQGLAB_WORKERS"] = _number(os.environ.get("SQGLAB_WORKERS", "1"))
    with _usage():
        max_jobs, workers = (_checked(name, v, "whole", 1) for name, v in sizes.items())
    if len(combos) > max_jobs:
        raise UsageError(f"sweep of {len(combos)} runs exceeds max_jobs={max_jobs}")
    out_path = args.out or "sweep.csv"
    # the CSV is written once the rows are in; a path it cannot take fails now
    with _usage("--out"), open(out_path, "a"):
        pass

    payloads = [
        (base, {name: value for (name, _), value in zip(axes, combo)}, checks)
        for combo in combos
    ]
    # the fork start method forks every worker up front: no more than rows
    workers = min(workers, len(payloads))
    if workers > 1:
        # imported here, as only a pooled sweep uses it: the pool loads
        # multiprocessing, and a process that has imported sqglab.cli and
        # sqglab.solver peaks at 30.7 MB with it and 29.5 MB without
        # (Python 3.11, numpy 2.4)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, payloads))
    else:
        rows = [_sweep_row(p) for p in payloads]

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
    with open(out_path, "w", newline="") as handle:
        # quoted where a cell needs it, such as an error status with a comma
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            values = (row.get(name, "") for name in columns)
            writer.writerow(repr(v) if isinstance(v, float) else str(v) for v in values)
    errors = sum(1 for row in rows if row["status"] != "ok")
    print(f"sweep: {len(rows)} runs, {errors} errors -> {out_path}")
    return EXIT_CHECK_FAILED if errors else EXIT_OK


def _number(text):
    """``text`` as an int, else as a float, else unchanged, for a rule to check."""
    for parse in (int, float):
        with contextlib.suppress(ValueError):
            return parse(text)
    return text


def _ruled(name, rule):
    """An argparse type for a flag whose value ``rule`` checks (see _checked)."""

    def parse(text):
        try:
            return _checked(name, _number(text), *rule)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


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
    p_ver.add_argument("--samples", type=_ruled("samples", _SAMPLES), help="ensemble size")
    p_ver.add_argument("--n", type=_number, default=64, help="lattice size (default 64)")
    p_ver.add_argument("--alpha", type=_ruled("alpha", _CONFIG_RULES["alpha"]), default=0.25)
    p_ver.add_argument("--seed", type=_ruled("seed", _SPEC_RULES["seed"]), default=0)
    p_ver.add_argument("--generator", default="gaussian", choices=_SPEC_RULES["generator"][0])
    p_ver.add_argument("--out", help="report directory (default sqglab-verify)")
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decay", help="run the long-time decay pipeline")
    p_dec.add_argument("config", help="JSON configuration file")
    p_dec.add_argument("--out", help="output directory (default sqglab-decay)")
    p_dec.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_dec.add_argument("--force", action="store_true", help="run even if the gate fails")
    target = _ruled("target", _CHECK_RULES["decay_target"])
    p_dec.add_argument("--target", type=target, help="terminal-ratio target (default 0.01)")
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
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        code, line = EXIT_USAGE, f"error: {exc}"
    except GateError as exc:
        code, line = EXIT_GATE, f"gate: {exc}"
    except BlowupError as exc:  # a CflError too
        code, line = EXIT_INSTABILITY, f"instability: {exc}"
    print(line, file=sys.stderr)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
