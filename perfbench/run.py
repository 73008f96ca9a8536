"""sqglab benchmark: run one workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload sim-ref --seed 1 --seconds 20 --trace 0

Each round is one fresh ``workload.py`` process: it builds the workload's
inputs from the seed, runs it once and checks its outputs.  Rounds repeat
while the next one is expected to end within ``--seconds`` (at least one
round runs).  The last line of
standard output is one JSON object:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
rounds).  With ``--trace 1`` untraced and traced rounds alternate; the
metrics are the per-layer ones, medians over the traced rounds, plus the
tracing overhead (traced minus untraced median wall time).  Result files go
to perfbench/results/, round scratch to perfbench/out/ (removed at the end).
Exits 1 without a result line when a round crashes or the package sources
are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from spans import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("sim-ref", "decay-ladder", "verify-lab", "sweep-small")

# the whole run must end within 180 s; no round starts after this
BUDGET_S = 120.0
ROUND_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def one_round(args, trace, out):
    os.makedirs(out)
    result_path = os.path.join(out, "result.json")
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(trace),
        "--out", out, "--result", result_path,
    ] + (["--quick"] if args.quick else [])
    with open(os.path.join(out, "log.txt"), "w") as log:
        start = time.monotonic()
        # own session, so that the pool workers of a stuck round die with it
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, start_new_session=True
        )
        try:
            proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.wait()
            raise RoundError(f"round timed out after {ROUND_TIMEOUT_S:g} s") from None
        finally:
            _kill_group(proc.pid)
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(out, "log.txt")) as log:
            tail = log.read()[-4000:]
        raise RoundError(f"round exited {proc.returncode}:\n{tail}")
    with open(result_path) as handle:
        data = json.load(handle)
    # both clocks are CLOCK_MONOTONIC, so they compare across processes
    data["setup_s"] = data["setup_end"] - start
    return data


def _metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(rounds, trace):
    untraced = [r for t, r in rounds if not t]
    traced = [r for t, r in rounds if t]
    if not trace:
        metrics = {
            name: _metric(statistics.median(r[name] for r in untraced), unit)
            for name, unit in END_TO_END_UNITS.items()
        }
    else:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            if name.startswith("trace."):
                continue
            metrics[name] = _metric(statistics.median(r["layers"][name] for r in traced), unit)
        base = statistics.median(r["wall_s"] for r in untraced)
        overhead = statistics.median(r["wall_s"] for r in traced) - base
        metrics["trace.overhead_s"] = _metric(overhead, "s")
        metrics["trace.overhead_pct"] = _metric(100.0 * overhead / base, "%")
    failures = [msg for _, r in rounds for msg in r["failures"]]
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for _, r in rounds),
        "failed": sum(r["failed"] for _, r in rounds),
        "metrics": metrics,
    }, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="sqglab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sqglab", "__init__.py")):
        print("error: sqglab sources not found under src/", file=sys.stderr)
        return 1

    scratch = os.path.join(SCRATCH, f"{args.workload}-{args.seed}-{os.getpid()}")
    pattern = (0, 1) if args.trace else (0,)
    rounds = []
    start = time.monotonic()
    try:
        while True:
            began = time.monotonic()
            for trace in pattern:
                out = os.path.join(scratch, f"round-{len(rounds)}")
                rounds.append((trace, one_round(args, trace, out)))
            # start another round only if it should end within --seconds
            now = time.monotonic()
            if now + (now - began) - start > min(args.seconds, BUDGET_S):
                break
        summary, failures = summarize(rounds, args.trace)
        os.makedirs(RESULTS, exist_ok=True)
        stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            last = max(i for i, (t, _) in enumerate(rounds) if t)
            shutil.copyfile(
                os.path.join(scratch, f"round-{last}", "spans.json"), stem + "-spans.json"
            )
        with open(stem + ".json", "w") as handle:
            json.dump({"rounds": [r for _, r in rounds], **summary}, handle, indent=1)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
