"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The shared large run (alpha = 0.25, n = 128, t_end = 20) backs
criteria 2, 3, 4, 8 and 9.
"""

import math
import time

import numpy as np
import pytest

from sqglab import (
    EnsembleSpec,
    SolverConfig,
    check_bilinear,
    check_product_law,
    check_trilinear,
    default_delta_ladder,
    default_smallness_threshold,
    duhamel_highfreq_bound,
    energy_ledger,
    estimate_constant,
    gaussian_random_field,
    high_pass,
    hom_norm,
    initial_field,
    interpolation_gap,
    low_pass,
    make_lattice,
    multi_mode_field,
    multiply,
    nonlinear_term,
    occupation_report,
    rescale_field,
    scalar_product,
    simulate,
    split_diagnostics,
)
from sqglab.decay import estimate_split_constant
import oracles

TWO_PI = 2.0 * np.pi


def report(criterion, ok, detail):
    line = f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def main_run():
    """Criterion-2 configuration, extended to t_end = 20 for criterion 4."""
    cfg = SolverConfig(
        alpha=0.25,
        n=128,
        dt=0.005,
        t_end=20.0,
        output_every=1,
        snapshot_every=20,
        seed=42,
        init_norm_rel=0.1,
        track_cancellation=True,
    )
    theta0 = initial_field(cfg)
    start = time.monotonic()
    record = simulate(theta0, cfg)
    return record, time.monotonic() - start


@pytest.fixture(scope="module")
def small_runs():
    """Two further small-data runs for the criterion-9 matrix."""
    runs = []
    for alpha in (0.1, 0.4):
        cfg = SolverConfig(
            alpha=alpha,
            n=64,
            dt=0.01,
            t_end=5.0,
            output_every=1,
            snapshot_every=10,
            seed=7,
            init_norm_rel=0.1,
        )
        runs.append(simulate(initial_field(cfg), cfg))
    return runs


def test_criterion_1_linear_exactness():
    start = time.monotonic()
    worst = 0.0
    for alpha in (0.1, 0.25, 0.4):
        cfg = SolverConfig(
            alpha=alpha, n=64, dt=0.01, t_end=1.0, nonlinear=False, output_every=100
        )
        lat = cfg.lattice()
        rng = np.random.default_rng(1)
        theta0 = gaussian_random_field(lat, 0.0, rng, band_limit=False)
        record = simulate(theta0, cfg)
        exact = np.exp(-1.0 * lat.symbol_power(2.0 * alpha)) * theta0.coeffs
        live = np.abs(theta0.coeffs) > 0
        rel = np.abs(record.final.coeffs[live] - exact[live]) / np.abs(exact[live])
        worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    report(
        "1 linear exactness",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst per-mode rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_l2_ledger(main_run):
    record, elapsed = main_run
    ledger = energy_ledger(record, tol_l2=1e-4, tol_h=1e-3)
    worst_pairing = float(record.cancellation.max())
    ok = ledger.l2_slack <= 1e-4 and worst_pairing <= 1e-10 and elapsed < 120.0
    report(
        "2 L2 ledger",
        ok,
        f"slack {ledger.l2_slack:.2e}, pairing {worst_pairing:.2e}, run {elapsed:.0f}s",
    )


def test_criterion_3_critical_ledger(main_run):
    record, _ = main_run
    ledger = energy_ledger(record, tol_l2=1e-4, tol_h=1e-3)
    report("3 H^(2-2a) ledger", ledger.h_slack <= 1e-3, f"slack {ledger.h_slack:.2e}")


def test_criterion_4_decay(main_run):
    record, _ = main_run
    h0 = float(record.series.h_crit[0])
    ratio = float(record.series.h_crit[-1]) / h0
    report("4 decay", ratio < 0.01, f"terminal ratio {ratio:.2e} at t=20")


def test_criterion_5_lemma_suites():
    start = time.monotonic()
    lattice = make_lattice(64, TWO_PI)
    alpha = 0.25
    violations = 0
    details = []

    scalar_spec = EnsembleSpec(count=1_000_000, seed=3)
    rep = estimate_constant(scalar_spec, "elementary")
    violations += rep.violations
    details.append(f"elementary max {rep.max_ratio:.3f}")

    rep = estimate_constant(EnsembleSpec(count=10_000, seed=4), "2.5-expkernel")
    violations += rep.violations
    details.append(f"expkernel max {rep.max_ratio:.3f}")

    field_params = {
        "2.1-productlaw-two-term": {"s1": 1.0 - 2 * alpha, "s2": alpha},
        "2.2-productlaw": {"s1": 1.0 - 2 * alpha, "s2": alpha},
        "2.3-trilinear": {"alpha": alpha},
        "2.4-bilinear": {"alpha": alpha},
    }
    for lemma_id, params in field_params.items():
        for generator in ("gaussian", "multi_mode"):
            spec = EnsembleSpec(
                count=100, generator=generator, seed=5, lattice=lattice
            )
            rep = estimate_constant(spec, lemma_id, params)
            violations += rep.violations

    # amplitude homogeneity of every field-lemma ratio
    rng = np.random.default_rng(6)
    f = gaussian_random_field(lattice, 3.0, rng)
    g = gaussian_random_field(lattice, 3.0, rng)
    lam = 3.7
    drift = 0.0

    def rel(a, b):
        return abs(a - b) / abs(b) if b else abs(a)

    base = check_product_law(f, g, 1.0 - 2 * alpha, alpha)
    scaled = check_product_law(lam * f, lam * g, 1.0 - 2 * alpha, alpha)
    drift = max(drift, rel(scaled[0], base[0]), rel(scaled[1], base[1]))
    lhs0, rhs0 = check_trilinear(f, 1.5, alpha)
    lhs1, rhs1 = check_trilinear(lam * f, 1.5, alpha)
    drift = max(drift, rel(lhs1 / rhs1, lhs0 / rhs0))
    base = check_bilinear(f, g, alpha)
    scaled = check_bilinear(lam * f, lam * g, alpha)
    drift = max(drift, rel(scaled[0], base[0]), rel(scaled[1], base[1]))

    elapsed = time.monotonic() - start
    ok = violations == 0 and drift <= 1e-12 and elapsed < 300.0
    report(
        "5 lemma suites",
        ok,
        f"violations {violations}, homogeneity drift {drift:.2e}, "
        f"{elapsed:.0f}s; " + ", ".join(details),
    )


def test_criterion_6_oracle_equivalence():
    worst = 0.0
    for n in (8, 16):
        lat = make_lattice(n, TWO_PI)
        rng = np.random.default_rng(n)
        f = gaussian_random_field(lat, 1.0, rng)
        g = gaussian_random_field(lat, 1.0, rng)

        def gap(got, want):
            scale = max(np.abs(want).max(), 1e-30)
            return float(np.abs(got - want).max() / scale)

        worst = max(
            worst,
            gap(multiply(f, g).coeffs, oracles.product_coeffs(f.coeffs, g.coeffs, n)),
            gap(
                nonlinear_term(f).coeffs,
                oracles.advection_coeffs(f.coeffs, f.coeffs, n, TWO_PI),
            ),
        )
        got = scalar_product(nonlinear_term(f), f, 1.5, homogeneous=False)
        term = oracles.advection_coeffs(f.coeffs, f.coeffs, n, TWO_PI)
        want = oracles.pairing_from_coeffs(term, f.coeffs, n, TWO_PI, 1.5, True)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    report("6 oracle equivalence", worst <= 1e-10, f"worst rel gap {worst:.2e}")


def test_criterion_7_criticality():
    worst_crit = 0.0
    worst_l2 = 0.0
    lat = make_lattice(64, TWO_PI)
    rng = np.random.default_rng(9)
    for alpha in (0.1, 0.25, 0.4):
        theta = gaussian_random_field(lat, 2.5, rng)
        scaled = rescale_field(theta, 2, alpha)
        s = 2.0 - 2.0 * alpha
        worst_crit = max(
            worst_crit, abs(hom_norm(scaled, s) / hom_norm(theta, s) - 1.0)
        )
        expected = 2.0 ** (2.0 * alpha - 2.0)
        worst_l2 = max(
            worst_l2,
            abs(hom_norm(scaled, 0.0) / hom_norm(theta, 0.0) / expected - 1.0),
        )
    ok = worst_crit < 0.01 and worst_l2 < 1e-6
    report(
        "7 criticality",
        ok,
        f"critical-norm drift {worst_crit:.2e}, L2-power drift {worst_l2:.2e}",
    )


def test_criterion_8_splitting_machinery(main_run):
    record, _ = main_run
    lattice = record.initial.lattice
    alpha = record.config.alpha
    c_hat = estimate_split_constant(lattice, alpha)
    ladder = default_delta_ladder(lattice)

    split_ok = True
    duhamel_ok = True
    for delta in ladder:
        diag = split_diagnostics(record, delta, c_hat)
        split_ok = split_ok and diag.low_ok
        int_v, m_delta = duhamel_highfreq_bound(record, delta, c_hat)
        duhamel_ok = duhamel_ok and int_v <= m_delta * (1.0 + 1e-6)

    # exact reconstruction on a sample of snapshots
    recon_ok = True
    for snap in record.snapshots[:: max(1, len(record.snapshots) // 5)]:
        for delta in ladder:
            total = low_pass(snap, delta).coeffs + high_pass(snap, delta).coeffs
            recon_ok = recon_ok and np.array_equal(total, snap.coeffs)

    # step-1 and step-2 occupation bounds
    t_snap = np.asarray(record.snapshot_times)
    l2_0 = float(record.series.l2[0])
    occ_ok = True
    first_good = math.inf
    for delta in ladder:
        v_l2 = np.array([hom_norm(high_pass(s, delta), 0.0) for s in record.snapshots])
        occ = occupation_report(t_snap, v_l2, 0.05 * l2_0, 2.0)
        occ_ok = occ_ok and occ.passed
        first_good = min(first_good, occ.first_good_time)
    keep = record.series.times >= (first_good if math.isfinite(first_good) else 0.0)
    occ_crit = occupation_report(
        record.series.times[keep],
        record.series.h_crit_hom[keep],
        0.1 * float(record.series.h_crit_hom[0]),
        (2.0 - alpha) / (1.0 - alpha),
    )
    occ_ok = occ_ok and occ_crit.passed

    ok = split_ok and duhamel_ok and recon_ok and occ_ok
    report(
        "8 splitting machinery",
        ok,
        f"eps_delta {'ok' if split_ok else 'FAIL'}, M_delta {'ok' if duhamel_ok else 'FAIL'}, "
        f"reconstruction {'exact' if recon_ok else 'FAIL'}, occupation {'ok' if occ_ok else 'FAIL'}",
    )


def test_criterion_9_chebyshev_and_interpolation(main_run, small_runs):
    record, _ = main_run
    runs = [record] + list(small_runs)
    worst_gap = 0.0
    occ_ok = True
    for run in runs:
        alpha = run.config.alpha
        for snap in run.snapshots:
            if hom_norm(snap, 0.0) == 0.0:
                continue
            gap = interpolation_gap(snap, alpha)
            rhs = gap + hom_norm(snap, 2.0 - 2.0 * alpha)
            worst_gap = min(worst_gap, gap / rhs if rhs > 0 else 0.0)
        t_snap = np.asarray(run.snapshot_times)
        l2_0 = float(run.series.l2[0])
        for delta in default_delta_ladder(run.initial.lattice):
            v_l2 = np.array([hom_norm(high_pass(s, delta), 0.0) for s in run.snapshots])
            occ_ok = occ_ok and occupation_report(t_snap, v_l2, 0.05 * l2_0, 2.0).passed
        occ_ok = (
            occ_ok
            and occupation_report(
                run.series.times,
                run.series.h_crit_hom,
                0.1 * float(run.series.h_crit_hom[0]),
                (2.0 - alpha) / (1.0 - alpha),
            ).passed
        )
    ok = worst_gap >= -1e-10 and occ_ok
    report(
        "9 chebyshev + interpolation",
        ok,
        f"worst interpolation slack {worst_gap:.2e}, occupation {'ok' if occ_ok else 'FAIL'}",
    )
