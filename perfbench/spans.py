"""Span tracer that measures sqglab's layers from outside the package.

The tracer replaces the module attributes through which one sqglab module
calls another (``sqglab.decay.hom_norm``, ``sqglab.solver._advection_coeffs``,
``numpy.fft.fft2``, ...) with wrappers that record a span (binding, start,
end, parent, pid, info) per call.  Spans stay in memory; :meth:`Tracer.dump`
writes them out when the round ends.  No file of the package changes.

Sweep rows run in forked pool workers, which inherit the wrappers.  Each
worker starts a fresh span list at its first row and writes its spans to
``<worker_dir>/worker-<pid>-<k>.json`` when a row returns; the workload
process merges those files with its own spans.

:func:`layer_metrics` turns the spans into the per-layer metrics listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import builtins
import collections
import functools
import glob
import json
import math
import os
import time

import numpy as np

# binding -> layer key; the binding is "<module>.<attribute>" as patched
LAYER_OF = {
    # numpy's 2-D transforms, beneath sqglab.spectral
    "numpy.fft.fft2": "fft",
    "numpy.fft.ifft2": "fft",
    "numpy.fft.rfft2": "fft",
    "numpy.fft.irfft2": "fft",
    # spectral kernels as called from solver, lemmas and decay
    "sqglab.solver._advection_coeffs": "advection",
    "sqglab.lemmas.advect": "advection",
    "sqglab.lemmas.multiply": "multiply",
    "sqglab.decay.low_pass": "filter",
    "sqglab.decay.high_pass": "filter",
    # norms as called from decay, lemmas, fields and solver
    "sqglab.decay.hom_norm": "norms",
    "sqglab.decay.inhom_norm": "norms",
    "sqglab.decay.interpolation_gap": "norms",
    "sqglab.lemmas.hom_norm": "norms",
    "sqglab.lemmas.scalar_product": "norms",
    "sqglab.fields.hom_norm": "norms",
    "sqglab.fields.inhom_norm": "norms",
    "sqglab.solver.inhom_norm": "norms",
    # field generators as called from lemmas and (through field_gen) solver
    "sqglab.lemmas.draw_field": "fields",
    "sqglab.lemmas.multi_mode_field": "fields",
    "sqglab.fields.draw_field": "fields",
    # solver entry points as called from cli, decay and the benchmark
    "sqglab.cli.simulate": "simulate",
    "sqglab.decay.simulate": "simulate",
    "sqglab.solver.simulate": "simulate",
    "sqglab.cli.initial_field": "init",
    "sqglab.solver.initial_field": "init",
    # lab entry points as called from cli, decay and SolverConfig
    "sqglab.cli.estimate_constant": "estimate",
    "sqglab.decay.estimate_constant": "estimate",
    "sqglab.lemmas.default_smallness_threshold": "eps0",
    "sqglab.cli.decay_experiment": "decay",
    # cli boundaries
    "sqglab.cli.main": "command",
    "sqglab.cli.load_config": "config",
    "sqglab.cli._sweep_row": "sweep_row",
    "sqglab.cli.open": "write",
    "sqglab.cli.RunManifest.write": "write",
    "sqglab.solver.NormSeries.to_csv": "write",
    "sqglab.solver.TrajectoryRecord.save_snapshots": "write",
    "sqglab.decay.DecayReport.residuals_to_csv": "write",
}

# the per-layer metrics, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "spectral.fft_calls": "count",
    "spectral.fft_s": "s",
    "spectral.fft_gflop": "GFLOP",
    "spectral.fft_mb": "MB",
    "spectral.advection_calls": "count",
    "spectral.advection_s": "s",
    "spectral.filter_calls": "count",
    "spectral.filter_s": "s",
    "spectral.multiply_calls": "count",
    "spectral.multiply_s": "s",
    "norms.calls": "count",
    "norms.s": "s",
    "fields.draws": "count",
    "fields.draw_s": "s",
    "solver.steps": "count",
    "solver.simulate_s": "s",
    "solver.step_ms": "ms",
    "solver.tendencies_per_step": "ratio",
    "solver.short_steps": "count",
    "solver.init_s": "s",
    "steps_per_s": "steps/s",
    "lemmas.eps0_s": "s",
    "lemmas.ensembles": "count",
    "lemmas.samples": "count",
    "lemmas.estimate_s": "s",
    "lemmas.sample_ms": "ms",
    "lab_samples_per_s": "samples/s",
    "decay.snapshots": "count",
    "decay.cutoffs": "count",
    "decay.diagnostics_s": "s",
    "decay.ms_per_snapshot_cutoff": "ms",
    "decay.norm_calls_per_snapshot": "ratio",
    "cli.config_s": "s",
    "cli.write_s": "s",
    "cli.artifact_mb": "MB",
    "cli.sweep_rows": "count",
    "cli.sweep_busy_s": "s",
    "cli.pool_efficiency": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _simulate_info(record):
    times = np.asarray(record.series.times)
    gaps = np.diff(times)
    cfg = record.config
    return {
        "steps": int(gaps.size) * cfg.output_every,
        # the last step may be cut to land on t_end; only shorter gaps than
        # that tolerance count as CFL-shortened
        "short_steps": int(np.count_nonzero(gaps < cfg.dt * (1.0 - 1e-9))),
        "snapshots": len(record.snapshots),
    }


def _estimate_info(report):
    # field ensembles carry a lattice; the scalar shapes report lattice_n 0
    return {"field_samples": report.samples if report.lattice_n > 0 else 0}


def _decay_info(report):
    return {"cutoffs": len(report.splits)}


_INFO = {
    "simulate": _simulate_info,
    "estimate": _estimate_info,
    "decay": _decay_info,
}


class Tracer:
    """Records spans at sqglab's cross-module bindings while installed."""

    def __init__(self, worker_dir):
        self.worker_dir = worker_dir
        self.pid = os.getpid()
        self.spans = []  # [binding, start, end, parent index, pid, info]
        self.counts = collections.Counter()
        self._stack = []
        self._undo = []
        self._owner = self.pid
        self._worker_rows = 0

    # -- recording -----------------------------------------------------
    def _enter(self, binding):
        rec = [binding, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pid, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _leave(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, binding, fn):
        info = _INFO.get(LAYER_OF[binding])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._enter(binding)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(rec)
            if info is not None:
                rec[5] = info(result)
            return result

        return traced

    def _wrap_fft(self, binding, fn, real):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            rec = self._enter(binding)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self._leave(rec)
            a = np.asarray(a)
            # computed, not measured: 5 N log2 N per complex transform of
            # N = n1*n2 grid points, half that for a real one
            grid = out if binding.endswith("irfft2") else a
            points = grid.shape[-2] * grid.shape[-1]
            flop = 5.0 * points * math.log2(points) * (grid.size // points)
            self.counts["fft_flop"] += 0.5 * flop if real else flop
            self.counts["fft_bytes"] += a.nbytes + out.nbytes
            return out

        return traced

    def _wrap_sweep_row(self, fn):
        traced = self._wrap("sqglab.cli._sweep_row", fn)

        @functools.wraps(fn)
        def row(payload):
            if os.getpid() != self.pid:
                # first row in a forked pool worker: drop what the fork copied
                self.pid = os.getpid()
                self.spans, self._stack = [], []
                self.counts = collections.Counter()
            result = traced(payload)
            if self.pid != self._owner:
                self._worker_rows += 1
                path = os.path.join(
                    self.worker_dir, f"worker-{self.pid}-{self._worker_rows}.json"
                )
                self.dump(path)
                self.spans = []
                self.counts = collections.Counter()
            return result

        return row

    def _open(self, real_open):
        tracer = self

        class _File:
            def __init__(self, handle, rec):
                self._handle, self._rec = handle, rec

            def __enter__(self):
                return self._handle

            def __exit__(self, *exc):
                self._handle.close()
                self._rec[2] = time.perf_counter()
                return False

        def traced_open(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = ["sqglab.cli.open", time.perf_counter(), 0.0, parent, tracer.pid, None]
            handle = real_open(*args, **kwargs)
            tracer.spans.append(rec)
            return _File(handle, rec)

        return traced_open

    # -- installation --------------------------------------------------
    def install(self):
        import sqglab.cli
        import sqglab.decay
        import sqglab.fields
        import sqglab.lemmas
        import sqglab.solver

        modules = {
            "numpy.fft": np.fft,
            "sqglab.cli": sqglab.cli,
            "sqglab.decay": sqglab.decay,
            "sqglab.fields": sqglab.fields,
            "sqglab.lemmas": sqglab.lemmas,
            "sqglab.solver": sqglab.solver,
        }
        for binding, layer in LAYER_OF.items():
            owner_name, attr = binding.rsplit(".", 1)
            if owner_name in modules:
                owner = modules[owner_name]
            else:  # a method: "<module>.<Class>.<method>"
                mod_name, cls_name = owner_name.rsplit(".", 1)
                owner = getattr(modules[mod_name], cls_name)
            if binding == "sqglab.cli.open":
                self._patch(owner, attr, self._open(builtins.open))
                continue
            fn = getattr(owner, attr)
            if layer == "fft":
                wrapped = self._wrap_fft(binding, fn, real=attr.startswith(("rfft", "irfft")))
            elif layer == "sweep_row":
                wrapped = self._wrap_sweep_row(fn)
            else:
                wrapped = self._wrap(binding, fn)
            self._patch(owner, attr, wrapped)

    def _patch(self, owner, attr, value):
        missing = object()
        self._undo.append((owner, attr, owner.__dict__.get(attr, missing), missing))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, old, missing in reversed(self._undo):
            if old is missing:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._undo = []

    # -- output --------------------------------------------------------
    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, handle)

    def merge_workers(self):
        """Append every worker dump to the own spans, offsetting worker parents."""
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json"))):
            with open(path) as handle:
                data = json.load(handle)
            base = len(self.spans)
            for rec in data["spans"]:
                rec[3] = rec[3] + base if rec[3] >= 0 else -1
                self.spans.append(rec)
            self.counts.update(data["counts"])


def layer_metrics(spans, counts, wall_s, artifact_bytes, workers):
    """Per-layer metrics of one traced round (trace.* are filled by the caller).

    A layer's calls and seconds count only spans that no span of the same
    layer encloses, so nested calls (a manifest write inside a traced
    ``open``, a generator calling another) are not counted twice.
    """
    calls = collections.Counter()
    secs = collections.defaultdict(float)
    per_binding = collections.Counter()
    info = collections.defaultdict(collections.Counter)
    decay_spans = set()
    for i, (binding, start, end, parent, _pid, extra) in enumerate(spans):
        per_binding[binding] += 1
        layer = LAYER_OF[binding]
        while parent >= 0 and LAYER_OF[spans[parent][0]] != layer:
            parent = spans[parent][3]
        if parent >= 0:
            continue
        calls[layer] += 1
        secs[layer] += end - start
        if extra:
            info[binding].update(extra)
        if layer == "decay":
            decay_spans.add(i)

    # decay_experiment's self time: its spans less their simulate and
    # estimate_constant children
    diagnostics = secs["decay"] - sum(
        end - start
        for binding, start, end, parent, _pid, _extra in spans
        if parent in decay_spans and LAYER_OF[binding] in ("simulate", "estimate")
    )
    steps = sum(info[b]["steps"] for b in LAYER_OF if LAYER_OF[b] == "simulate")
    samples = sum(info[b]["field_samples"] for b in LAYER_OF if LAYER_OF[b] == "estimate")
    snapshots = info["sqglab.decay.simulate"]["snapshots"]
    cutoffs = info["sqglab.cli.decay_experiment"]["cutoffs"]
    decay_norms = sum(
        per_binding[b] for b in LAYER_OF if b.startswith("sqglab.decay.") and LAYER_OF[b] == "norms"
    )
    rows = calls["sweep_row"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "spectral.fft_calls": calls["fft"],
        "spectral.fft_s": secs["fft"],
        "spectral.fft_gflop": counts.get("fft_flop", 0.0) / 1e9,
        "spectral.fft_mb": counts.get("fft_bytes", 0) / 1e6,
        "spectral.advection_calls": calls["advection"],
        "spectral.advection_s": secs["advection"],
        "spectral.filter_calls": calls["filter"],
        "spectral.filter_s": secs["filter"],
        "spectral.multiply_calls": calls["multiply"],
        "spectral.multiply_s": secs["multiply"],
        "norms.calls": calls["norms"],
        "norms.s": secs["norms"],
        "fields.draws": calls["fields"],
        "fields.draw_s": secs["fields"],
        "solver.steps": steps,
        "solver.simulate_s": secs["simulate"],
        "solver.step_ms": 1e3 * ratio(secs["simulate"], steps),
        "solver.tendencies_per_step": ratio(per_binding["sqglab.solver._advection_coeffs"], steps),
        "solver.short_steps": sum(info[b]["short_steps"] for b in info),
        "solver.init_s": secs["init"],
        "steps_per_s": ratio(steps, secs["simulate"]),
        "lemmas.eps0_s": secs["eps0"],
        "lemmas.ensembles": calls["estimate"],
        "lemmas.samples": samples,
        "lemmas.estimate_s": secs["estimate"],
        "lemmas.sample_ms": 1e3 * ratio(secs["estimate"], samples),
        "lab_samples_per_s": ratio(samples, wall_s),
        "decay.snapshots": snapshots,
        "decay.cutoffs": cutoffs,
        "decay.diagnostics_s": diagnostics,
        "decay.ms_per_snapshot_cutoff": 1e3 * ratio(diagnostics, snapshots * cutoffs),
        "decay.norm_calls_per_snapshot": ratio(decay_norms, snapshots),
        "cli.config_s": secs["config"],
        "cli.write_s": secs["write"],
        "cli.artifact_mb": artifact_bytes / 1e6,
        "cli.sweep_rows": rows,
        "cli.sweep_busy_s": secs["sweep_row"],
        # the sweep command's span encloses the pool; its rows ran in the workers
        "cli.pool_efficiency": ratio(secs["sweep_row"], workers * secs["command"]) if rows else 0.0,
    }
