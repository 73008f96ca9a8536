"""Long-time decay machinery run as numerical experiments.

The pipeline mirrors the two-step decay argument for small solutions:

1. split theta into a low-frequency part w_delta (|xi| < delta) and a
   high-frequency part v_delta, bound sup_t ||w_delta||_{L2}^2 and
   2 int ||w_delta||^2_{Hdot^a} by eps_delta, and bound the time integral of
   ||v_delta||^2_{Hdot^{-sigma}} (sigma = 2 - 3*alpha) through the Duhamel
   representation; a Chebyshev occupation bound then produces a "good time"
   t0 with small L2 norm;
2. restrict to t >= t0, use the interpolation inequality
   Hdot^{2-2a} <= L2^(a/(2-a)) Hdot^{2-a}^((2-2a)/(2-a)) and a second
   occupation bound to find a good time for the critical norm itself.

All diagnostics are read-only passes over a finished trajectory with stored
snapshots; every bound is checked at the quadrature level where it is
literally true, with small tolerances covering time discretization only.
:func:`decay_experiment` takes the shell spectrum of each snapshot once: one
sweep gives the band norms at every cutoff of the ladder and every order
(0, alpha, -sigma), and the splitting ledger, the Duhamel integral, the
step-1 occupation series and the embedding slack read their slices of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lemmas import EnsembleSpec, estimate_constant
from .norms import _shells, _sq_norms, hom_norm, inhom_norm, interpolation_gap, shell_spectrum
from .solver import _write_csv, simulate, smallness_gate
# high_pass and low_pass are unused here, bound only because perfbench/spans.py wraps them
from .spectral import _checked, high_pass, low_pass  # noqa: F401

__all__ = [
    "SplitDiagnostics",
    "OccupationReport",
    "CauchyCheck",
    "DecayReport",
    "GateError",
    "split_diagnostics",
    "duhamel_highfreq_bound",
    "occupation_report",
    "cauchy_in_time_check",
    "default_delta_ladder",
    "decay_experiment",
    "estimate_split_constant",
    "estimate_cauchy_constant",
]


class GateError(RuntimeError):
    """Raised when an experiment requires the smallness gate and it failed."""


_LEDGER_TOL = 1e-6  # relative slack of the split and Cauchy checks, for time discretization
# snapshot differences per _sq_norms call in the Cauchy check.  A few fields
# share one call's overhead: on 64 snapshots at n 64 (2-core x86 box) the
# median check took 27 ms in chunks of 4, against 39-53 ms in chunks of 8 or
# one call per pair, and a chunk of 4 keeps the working memory near 0.3 MB
_CAUCHY_CHUNK = 4


def _band_norms_sq(fields, deltas, orders):
    """Squared Hdot^s norms of the low (|xi| < delta) and high parts of fields.

    Returns ``(low, high)``, each shaped (fields, cutoffs, orders), from one
    sweep that takes one shell spectrum per field for the whole ladder.  Both
    are direct sums over their shells, a prefix and a suffix, so a high tail
    far below the total keeps its digits.  The loop runs per field, so the
    working memory is O(shells * orders) whatever the number of fields.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.size == 0:
        raise ValueError("cutoff ladder must not be empty")
    if not np.all(deltas > 0):
        raise ValueError("cutoff must be positive")
    radii = _shells(fields[0].lattice)[1]
    cut = np.searchsorted(radii, deltas)
    powers = radii[:, None] ** (2.0 * np.asarray(orders, dtype=float))
    zero = np.zeros((1, len(orders)))
    low = np.empty((len(fields), len(deltas), len(orders)))
    high = np.empty_like(low)
    for i, f in enumerate(fields):
        terms = shell_spectrum(f)[1][:, None] * powers
        low[i] = np.vstack([zero, np.cumsum(terms, axis=0)])[cut]
        high[i] = np.vstack([np.cumsum(terms[::-1], axis=0)[::-1], zero])[cut]
    return low, high


def _ledger_orders(alpha):
    """The orders (0, alpha, -sigma) every decay diagnostic reads."""
    return (0.0, alpha, -(2.0 - 3.0 * alpha))


def _require_snapshots(traj):
    if len(traj.snapshots) < 2:
        raise ValueError(
            f"trajectory carries {len(traj.snapshots)} snapshots, need >= 2; "
            "rerun with snapshot_every > 0"
        )


@dataclass
class SplitDiagnostics:
    """Low/high frequency ledger at one cutoff delta.

    eps_delta is the closed-form bound ||w0||_{L2}^2 +
    C_hat * delta^(2-2a) * ||theta0||_{L2}^3; the low-frequency energy ledger
    asserts sup_t ||w||_{L2}^2 <= eps_delta and
    int ||w||^2_{Hdot^a} <= eps_delta / 2.  m_delta bounds the time integral
    of ||v||^2_{Hdot^{-sigma}} via the Duhamel representation.
    """

    delta: float
    sigma: float
    sup_w_l2: float
    int_w_ha: float
    eps_delta: float
    int_v_negsigma: float
    m_delta: float
    tol: float

    @property
    def low_ok(self):
        return (
            self.sup_w_l2**2 <= self.eps_delta * (1.0 + self.tol)
            and self.int_w_ha <= 0.5 * self.eps_delta * (1.0 + self.tol)
        )

    @property
    def high_ok(self):
        return self.int_v_negsigma <= self.m_delta * (1.0 + self.tol)

    @property
    def passed(self):
        return self.low_ok and self.high_ok

    def to_json_dict(self):
        return {
            "delta": self.delta,
            "sigma": self.sigma,
            "sup_w_L2": self.sup_w_l2,
            "int_w_Ha": self.int_w_ha,
            "eps_delta": self.eps_delta,
            "int_v_negsigma": self.int_v_negsigma,
            "m_delta": self.m_delta,
            "tol": self.tol,
            "low_ok": self.low_ok,
            "high_ok": self.high_ok,
        }


def split_diagnostics(traj, delta, c_hat):
    """Evaluate the frequency-splitting ledger of one run at cutoff delta.

    ``c_hat`` is the product-law constant for s1 = s2 = alpha (estimate it
    with :func:`estimate_split_constant`); a generous estimate only loosens
    the bound, an underestimate can fail it.  The ledger passes within a
    relative tolerance of 1e-6.
    """
    _checked("c_hat", c_hat, "real", 0.0)
    _require_snapshots(traj)
    alpha = traj.config.alpha
    low, high = _band_norms_sq(traj.snapshots, [delta], _ledger_orders(alpha))
    return _split_ledgers(traj, [delta], alpha, c_hat, low, high)[0]


def duhamel_highfreq_bound(traj, delta, c_hat):
    """Time integral of ||v_delta||^2_{Hdot^{-sigma}} and its Duhamel bound.

    sigma = 2 - 3*alpha > 0, alpha the run's.  The bound assembles the two
    pieces of the Duhamel representation of the high-frequency part:

        M_delta = ( sqrt(delta^(-2*sigma - 2*alpha) ||theta0||_{L2}^2 / 2)
                    + c_hat * sqrt(delta^(-2*alpha) * int ||theta||^2_{Hdot^a}) )^2,

    linear decay of v0 plus the exponentially damped forcing by the
    quadratic term, with c_hat the product-law constant for s1 = s2 = alpha.
    """
    split = split_diagnostics(traj, delta, c_hat)
    return split.int_v_negsigma, split.m_delta


def _split_ledgers(traj, deltas, alpha, c_hat, low, high):
    """The splitting ledger at every cutoff, from precomputed band norms.

    ``low`` and ``high`` are ``_band_norms_sq(traj.snapshots, deltas,
    _ledger_orders(alpha))``.  The single-cutoff functions and
    :func:`decay_experiment` all evaluate eps_delta and M_delta here.
    """
    t = np.asarray(traj.snapshot_times)
    sigma = 2.0 - 3.0 * alpha
    theta0_l2 = hom_norm(traj.snapshots[0], 0.0)
    int_ha = float(np.trapezoid(traj.series.h_alpha**2, traj.series.times))
    splits = []
    for j, delta in enumerate(deltas):
        w_l2sq = low[:, j, 0]
        eps_delta = float(w_l2sq[0]) + c_hat * delta ** (2.0 - 2.0 * alpha) * theta0_l2**3
        linear_part = math.sqrt(delta ** (-2.0 * sigma - 2.0 * alpha) * theta0_l2**2 / 2.0)
        forced_part = c_hat * math.sqrt(delta ** (-2.0 * alpha) * int_ha)
        splits.append(
            SplitDiagnostics(
                delta=float(delta),
                sigma=sigma,
                sup_w_l2=math.sqrt(float(np.max(w_l2sq))),
                int_w_ha=float(np.trapezoid(low[:, j, 1], t)),
                eps_delta=eps_delta,
                int_v_negsigma=float(np.trapezoid(high[:, j, 2], t)),
                m_delta=(linear_part + forced_part) ** 2,
                tol=_LEDGER_TOL,
            )
        )
    return splits


@dataclass
class OccupationReport:
    """Chebyshev bound on the time spent above a threshold.

    measure_estimate sums the sample weights where the tracked value exceeds
    the threshold; bound = threshold^(-p) * trapezoid(value^p) with the same
    weights, so measure <= bound holds sample by sample (passed allows a
    relative 1e-12).  first_good_time is the earliest sample at or below the
    threshold (inf if none).
    """

    threshold: float
    exponent: float
    measure_estimate: float
    bound: float
    first_good_time: float

    @property
    def passed(self):
        return self.measure_estimate <= self.bound * (1.0 + 1e-12)

    def to_json_dict(self):
        return {
            "threshold": self.threshold,
            "exponent": self.exponent,
            "measure_estimate": self.measure_estimate,
            "bound": self.bound,
            "first_good_time": self.first_good_time,
            "passed": self.passed,
        }


def occupation_report(times, values, threshold, exponent):
    """Occupation time of {value > threshold} against its Chebyshev bound."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size == 0:
        raise ValueError("empty series")
    if times.size != values.size:
        raise ValueError("times and values must have equal length")
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    if not exponent >= 1:
        raise ValueError("exponent must be >= 1")
    if times.size == 1:
        weights = np.zeros(1)
    else:
        dt = np.diff(times)
        weights = np.empty_like(times)
        weights[0] = 0.5 * dt[0]
        weights[-1] = 0.5 * dt[-1]
        weights[1:-1] = 0.5 * (dt[:-1] + dt[1:])
    above = values > threshold
    measure = float(np.sum(weights[above]))
    bound = float(threshold ** (-exponent) * np.sum(weights * values**exponent))
    below = np.nonzero(~above)[0]
    first_good = float(times[below[0]]) if below.size else math.inf
    return OccupationReport(
        threshold=float(threshold),
        exponent=float(exponent),
        measure_estimate=measure,
        bound=bound,
        first_good_time=first_good,
    )


@dataclass
class CauchyCheck:
    """Lipschitz-in-time diagnostic against the (1 + C*M)*M rate, passed within 1e-6."""

    worst_ratio: float
    rate: float
    sup_norm: float

    @property
    def passed(self):
        return self.worst_ratio <= 1.0 + _LEDGER_TOL


def cauchy_in_time_check(traj, c_hat):
    """Worst ratio of ||theta(t) - theta(t')||_{L2} over (1 + C*M)*M*|t - t'|.

    M is the largest sampled critical norm.  Snapshots are strided down to
    at most 64 before forming all pairs.  The differences from each snapshot
    to the later ones are reduced _CAUCHY_CHUNK at a time by one
    ``_sq_norms`` call, which gives each norm as ``hom_norm`` does.
    """
    _checked("c_hat", c_hat, "real", 0.0)
    _require_snapshots(traj)
    stride = max(1, -(-len(traj.snapshots) // 64))
    snaps = traj.snapshots[::stride]
    times = traj.snapshot_times[::stride]
    sup_norm = float(np.max(traj.series.h_crit))
    rate = (1.0 + c_hat * sup_norm) * sup_norm
    if rate == 0.0:
        return CauchyCheck(0.0, 0.0, 0.0)
    lattice, halves = snaps[0].lattice, [f.half for f in snaps]
    worst = 0.0
    for i, (t_i, half_i) in enumerate(zip(times, halves)):
        for lo in range(i + 1, len(halves), _CAUCHY_CHUNK):
            diffs = np.stack(halves[lo : lo + _CAUCHY_CHUNK])
            diffs -= half_i
            sq = _sq_norms(lattice, diffs, (0.0,))[0].tolist()
            for d2, t_j in zip(sq, times[lo : lo + _CAUCHY_CHUNK]):
                worst = max(worst, math.sqrt(d2) / (rate * (t_j - t_i)))
    return CauchyCheck(worst_ratio=worst, rate=rate, sup_norm=sup_norm)


def default_delta_ladder(lattice):
    """Cutoff ladder {kmin/2, kmin, 2*kmin, 4*kmin} around the lowest shell."""
    k = lattice.kmin
    return (0.5 * k, k, 2.0 * k, 4.0 * k)


def _ensemble_max(lattice, which, params, seed):
    """Largest estimated constant of ``which`` over 32-field Gaussian and few-mode ensembles."""
    best = 0.0
    for generator in ("gaussian", "multi_mode"):
        spec = EnsembleSpec(count=32, generator=generator, seed=seed, lattice=lattice)
        best = max(best, estimate_constant(spec, which, params).estimated_constant)
    return best


def estimate_split_constant(lattice, alpha):
    """Splitting-ledger product-law constant, s1 = s2 = alpha: 32 fields per family, seed 13."""
    return _ensemble_max(lattice, "2.2-productlaw", {"s1": alpha, "s2": alpha}, 13)


def estimate_cauchy_constant(lattice, alpha):
    """Cauchy-in-time advection L2-bound constant: 32 fields per family, seed 17."""
    return _ensemble_max(lattice, "cauchy-advection", {"alpha": alpha}, 17)


@dataclass
class DecayReport:
    """Full output of one decay experiment.

    ``max_advection_pairing`` is the worst pairing of a run with
    ``track_cancellation`` (None otherwise); it stays out of the JSON report.
    """

    gate_passed: bool
    gate_margin: float
    initial_norm: float
    terminal_norm: float
    terminal_ratio: float
    terminal_ratio_hom: float
    splits: list = field(default_factory=list)
    occupations_low: list = field(default_factory=list)
    occupation_crit: OccupationReport | None = None
    interpolation_worst: float = 0.0
    embedding_worst: float = 0.0
    cauchy: CauchyCheck | None = None
    residual_times: np.ndarray | None = None
    residuals: dict = field(default_factory=dict)
    target: float = 0.01
    max_advection_pairing: float | None = None

    @property
    def diagnostics_passed(self):
        parts = [s.passed for s in self.splits]
        parts += [o.passed for o in self.occupations_low]
        if self.occupation_crit is not None:
            parts.append(self.occupation_crit.passed)
        parts.append(self.interpolation_worst >= -1e-10)
        parts.append(self.embedding_worst <= 1e-10)
        if self.cauchy is not None:
            parts.append(self.cauchy.passed)
        return all(parts)

    @property
    def passed(self):
        return self.diagnostics_passed and self.terminal_ratio < self.target

    def to_json_dict(self):
        return {
            "gate": {"passed": self.gate_passed, "margin": self.gate_margin},
            "initial_norm": self.initial_norm,
            "terminal_norm": self.terminal_norm,
            "terminal_ratio": self.terminal_ratio,
            "terminal_ratio_hom": self.terminal_ratio_hom,
            "target": self.target,
            "splits": [s.to_json_dict() for s in self.splits],
            "occupations_low": [o.to_json_dict() for o in self.occupations_low],
            "occupation_crit": (
                None
                if self.occupation_crit is None
                else self.occupation_crit.to_json_dict()
            ),
            "interpolation_worst": self.interpolation_worst,
            "embedding_worst": self.embedding_worst,
            "cauchy": (
                None
                if self.cauchy is None
                else {
                    "worst_ratio": self.cauchy.worst_ratio,
                    "passed": self.cauchy.passed,
                }
            ),
            "diagnostics_passed": self.diagnostics_passed,
            "passed": self.passed,
        }

    def residuals_to_csv(self, path):
        """Write t and the residual series, in name order, one row per snapshot."""
        names = sorted(self.residuals)
        cols = [self.residual_times] + [self.residuals[k] for k in names]
        _write_csv(path, ["t", *names], cols)


def _interp_and_embedding(traj, high):
    """Per-snapshot interpolation residuals and the two-norm embedding slack.

    ``high`` is the high part of ``_band_norms_sq(traj.snapshots, deltas,
    _ledger_orders(alpha))``.
    """
    alpha = traj.config.alpha
    sigma = 2.0 - 3.0 * alpha
    a = alpha / (sigma + alpha)
    t = np.asarray(traj.snapshot_times)
    interp_rel = np.zeros(len(t))
    for i, snap in enumerate(traj.snapshots):
        if hom_norm(snap, 0.0) == 0.0:
            continue
        gap = interpolation_gap(snap, alpha)
        rhs = gap + hom_norm(snap, 2.0 - 2.0 * alpha)
        interp_rel[i] = gap / rhs if rhs > 0 else 0.0
    # Hdot^{-sigma} cap Hdot^alpha controls L2:
    # ||v||_{L2}^2 <= ||v||_{Hdot^-sigma}^{2a} ||v||_{Hdot^alpha}^{2(1-a)}
    v_l2sq, v_ha, v_neg = high[..., 0], high[..., 1], high[..., 2]
    occupied = v_l2sq > 0
    slack = (v_l2sq - v_neg**a * v_ha ** (1 - a)) / np.where(occupied, v_l2sq, 1.0)
    embed = np.max(np.where(occupied, slack, 0.0), axis=1, initial=0.0)
    return t, interp_rel, embed


def decay_experiment(
    cfg,
    theta0,
    deltas=None,
    c_hat=None,
    cauchy_c_hat=None,
    occupation_fraction=0.1,
    target=0.01,
    force=False,
):
    """Run the full decay pipeline on one configuration.

    Refuses (GateError) when the smallness gate fails, unless ``force`` is
    set, in which case the gate verdict is recorded and the experiment runs
    anyway.  Constants default to seeded lab estimates on the run's lattice;
    a given one must be finite and >= 0.
    """
    for name, value in (("c_hat", c_hat), ("cauchy_c_hat", cauchy_c_hat)):
        if value is not None:
            _checked(name, value, "real", 0.0)
    gate = smallness_gate(theta0, cfg)
    if not gate.passed and not force:
        raise GateError(
            f"smallness gate failed: ||theta0||_H = {gate.norm:g} "
            f">= eps0 = {gate.threshold:g} (rerun with force to override)"
        )
    if cfg.snapshot_every == 0:
        raise ValueError("decay experiments need snapshots; set snapshot_every > 0")

    lattice = theta0.lattice
    if deltas is None:
        deltas = default_delta_ladder(lattice)
    if c_hat is None:
        c_hat = estimate_split_constant(lattice, cfg.alpha)
    if cauchy_c_hat is None:
        cauchy_c_hat = estimate_cauchy_constant(lattice, cfg.alpha)

    traj = simulate(theta0, cfg)
    order = cfg.critical_order
    initial_norm = inhom_norm(traj.initial, order)
    terminal_norm = inhom_norm(traj.final, order)
    h0_hom = hom_norm(traj.initial, order)
    ratio = terminal_norm / initial_norm if initial_norm > 0 else 0.0
    ratio_hom = hom_norm(traj.final, order) / h0_hom if h0_hom > 0 else 0.0

    _require_snapshots(traj)
    low, high = _band_norms_sq(traj.snapshots, deltas, _ledger_orders(cfg.alpha))
    splits = _split_ledgers(traj, deltas, cfg.alpha, c_hat, low, high)

    # step-1 occupation: time above threshold for each high-frequency tail
    l2_0 = float(traj.series.l2[0])
    occupations_low = []
    t_snap = np.asarray(traj.snapshot_times)
    first_good = 0.0
    if l2_0 > 0:
        eps_l2 = occupation_fraction * l2_0
        occupations_low = [
            occupation_report(t_snap, v_l2, 0.5 * eps_l2, 2.0)
            for v_l2 in np.sqrt(high[:, :, 0].T)
        ]
        finite = [o.first_good_time for o in occupations_low if math.isfinite(o.first_good_time)]
        first_good = min(finite) if finite else 0.0

    # step-2 occupation: critical seminorm beyond the good time
    occupation_crit = None
    h_hom_series = traj.series.h_crit_hom
    if h_hom_series[0] > 0:
        keep = traj.series.times >= first_good
        occupation_crit = occupation_report(
            traj.series.times[keep],
            h_hom_series[keep],
            occupation_fraction * float(h_hom_series[0]),
            (2.0 - cfg.alpha) / (1.0 - cfg.alpha),
        )

    t_res, interp_rel, embed = _interp_and_embedding(traj, high)
    cauchy = cauchy_in_time_check(traj, cauchy_c_hat)

    return DecayReport(
        gate_passed=gate.passed,
        gate_margin=gate.margin,
        initial_norm=initial_norm,
        terminal_norm=terminal_norm,
        terminal_ratio=ratio,
        terminal_ratio_hom=ratio_hom,
        splits=splits,
        occupations_low=occupations_low,
        occupation_crit=occupation_crit,
        interpolation_worst=float(np.min(interp_rel)) if len(interp_rel) else 0.0,
        embedding_worst=float(np.max(embed)) if len(embed) else 0.0,
        cauchy=cauchy,
        residual_times=t_res,
        residuals={"interp_gap_rel": interp_rel, "embed_slack_rel": embed},
        target=target,
        max_advection_pairing=(
            None if traj.cancellation is None else float(traj.cancellation.max())
        ),
    )
