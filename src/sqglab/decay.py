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

Every bound is checked at the quadrature level where it is literally true,
with small tolerances covering time discretization only.  One fold reduces
each snapshot to its band norms at every cutoff and order (0, alpha, -sigma),
from one shell spectrum, which the splitting ledger, the Duhamel integral,
the step-1 occupation series and the embedding slack read.
:func:`decay_experiment` folds each snapshot as :func:`simulate` makes it and
stores none, so its memory does not grow with the snapshot count.  theta0's
L2, the initial and terminal critical norms, the homogeneous terminal ratio
and the interpolation residual are read from the run's series, at each
snapshot's sample: the series norms the raw state, of which a snapshot is a
completed copy that can differ in the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lemmas import EnsembleSpec, estimate_constant
from .norms import _interpolation_slack, _shells, _sq_norms, shell_spectrum
from .solver import _planned_snapshots, _with_room, _write_csv, simulate, smallness_gate
# hom_norm, inhom_norm, interpolation_gap, high_pass and low_pass are unused
# here, bound only because perfbench/spans.py wraps them
from .norms import hom_norm, inhom_norm, interpolation_gap  # noqa: F401
from .spectral import _Open, _checked, high_pass, low_pass  # noqa: F401

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
_CAUCHY_MAX = 64  # most snapshots the Cauchy check forms all pairs of


class _Fold:
    """What the decay diagnostics keep of each snapshot, called as ``fold(t, field)``.

    Each call keeps ``t`` and what is asked for: the squared Hdot^s norms of
    the low (|xi| < delta) and high parts at every cutoff of ``deltas`` and
    order of ``orders``, sums over the shells of one shell spectrum (a prefix
    and a suffix, so a tiny high tail keeps its digits); and every s-th half
    spectrum, s = ceil(planned / 64), for the Cauchy check.  Where a 65th
    would be kept (more snapshots than planned), s doubles and every other
    kept one is dropped.  The floats are one row per snapshot of one array,
    sized for ``planned`` rows and doubled when more come.  No other norm is
    taken: those the run's series holds are read from it.
    """

    def __init__(self, lattice, deltas=None, orders=(), planned=None):
        self.lattice, self.cut, self.kept, self.count = lattice, None, [], 0
        self.stride = None if planned is None else max(1, -(-planned // _CAUCHY_MAX))
        self.bands_shape = (2, 0, len(orders))
        if deltas is not None:
            deltas = np.asarray(deltas, dtype=float)
            if deltas.size == 0:
                raise ValueError("cutoff ladder must not be empty")
            if not np.all(deltas > 0):
                raise ValueError("cutoff must be positive")
            radii = _shells(lattice)[1]
            self.cut = np.searchsorted(radii, deltas)
            self.powers = radii[:, None] ** (2.0 * np.asarray(orders, dtype=float))
            self.zero = np.zeros((1, len(orders)))
            self.bands_shape = (2, deltas.size, len(orders))
        # a row: t, then the low and high bands
        self.rows = np.empty((planned or 1, 1 + math.prod(self.bands_shape)))

    @property
    def times(self):
        return self.rows[: self.count, 0]

    def __call__(self, t, f):
        self.rows = _with_room(self.rows, self.count)
        row = self.rows[self.count]
        row[0] = t
        if self.cut is not None:
            terms = shell_spectrum(f)[1][:, None] * self.powers
            low, high = row[1:].reshape(self.bands_shape)
            low[:] = np.vstack([self.zero, np.cumsum(terms, axis=0)])[self.cut]
            high[:] = np.vstack([np.cumsum(terms[::-1], axis=0)[::-1], self.zero])[self.cut]
        if self.stride is not None and self.count % self.stride == 0:
            if len(self.kept) == _CAUCHY_MAX:
                del self.kept[1::2]
                self.stride *= 2
            self.kept.append((t, f.half))
        self.count += 1

    def bands(self):
        """The ``(low, high)`` band norms, each shaped (snapshots, cutoffs, orders)."""
        bands = self.rows[: self.count, 1:].reshape(self.count, *self.bands_shape)
        return bands[:, 0], bands[:, 1]


def _replay(times, snapshots, **parts):
    """A :class:`_Fold` of ``parts`` fed stored ``snapshots`` taken at ``times``."""
    fold = _Fold(snapshots[0].lattice, **parts)
    for t, f in zip(times, snapshots):
        fold(t, f)
    return fold


def _band_norms_sq(fields, deltas, orders):
    """The ``(low, high)`` band norms of :class:`_Fold` for a list of fields."""
    return _replay([0.0] * len(fields), fields, deltas=deltas, orders=orders).bands()


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
    orders = _ledger_orders(alpha)
    fold = _replay(traj.snapshot_times, traj.snapshots, deltas=[delta], orders=orders)
    return _split_ledgers(fold, traj.series, [delta], alpha, c_hat)[0]


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


def _split_ledgers(fold, series, deltas, alpha, c_hat):
    """The splitting ledger at every cutoff, from a run's series and fold.

    The fold's bands are at ``deltas`` and ``_ledger_orders(alpha)``.  The
    single-cutoff functions and :func:`decay_experiment` all evaluate
    eps_delta and M_delta here.
    """
    t, (low, high) = fold.times, fold.bands()
    sigma = 2.0 - 3.0 * alpha
    theta0_l2 = float(series.l2[0])  # the first sample is always a snapshot
    int_ha = float(np.trapezoid(series.h_alpha**2, series.times))
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
    # trapezoid weights: half the steps on either side of each sample
    weights = 0.5 * (np.diff(times, prepend=times[0]) + np.diff(times, append=times[-1]))
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
    fold = _replay(traj.snapshot_times, traj.snapshots, planned=len(traj.snapshots))
    return _cauchy_check(fold, traj.series.h_crit, c_hat)


def _cauchy_check(fold, h_crit, c_hat):
    """:func:`cauchy_in_time_check` over the fields a fold kept."""
    sup_norm = float(np.max(h_crit))
    rate = (1.0 + c_hat * sup_norm) * sup_norm
    if rate == 0.0:
        return CauchyCheck(0.0, 0.0, 0.0)
    times, halves = zip(*fold.kept)
    worst = 0.0
    for i, (t_i, half_i) in enumerate(fold.kept):
        for lo in range(i + 1, len(halves), _CAUCHY_CHUNK):
            diffs = np.stack(halves[lo : lo + _CAUCHY_CHUNK])
            diffs -= half_i
            sq = _sq_norms(fold.lattice, diffs, (0.0,))[0].tolist()
            for d2, t_j in zip(sq, times[lo : lo + _CAUCHY_CHUNK]):
                worst = max(worst, math.sqrt(d2) / (rate * (t_j - t_i)))
    return CauchyCheck(worst_ratio=worst, rate=rate, sup_norm=sup_norm)


def default_delta_ladder(lattice):
    """Cutoff ladder {kmin/2, kmin, 2*kmin, 4*kmin} around the lowest shell."""
    k = lattice.kmin
    return (0.5 * k, k, 2.0 * k, 4.0 * k)


def _ensemble_max(lattice, which, params, seed):
    """Largest estimated constant of ``which`` over 32-field Gaussian and few-mode ensembles.

    Both families stay: the few-mode one sets the split constant at n 128,
    alpha 1e-6 (0.1166 against 0.1164) and the Cauchy constant at every
    measured n, 8 to 128, and the run's own n is on no audit grid.
    """
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


def _embedding(high, alpha):
    """Worst two-norm embedding slack over the cutoffs, per snapshot of ``fold.bands()[1]``."""
    sigma = 2.0 - 3.0 * alpha
    a = alpha / (sigma + alpha)
    # Hdot^{-sigma} cap Hdot^alpha controls L2:
    # ||v||_{L2}^2 <= ||v||_{Hdot^-sigma}^{2a} ||v||_{Hdot^alpha}^{2(1-a)}
    v_l2sq, v_ha, v_neg = high[..., 0], high[..., 1], high[..., 2]
    occupied = v_l2sq > 0
    slack = (v_l2sq - v_neg**a * v_ha ** (1 - a)) / np.where(occupied, v_l2sq, 1.0)
    return np.max(np.where(occupied, slack, 0.0), axis=1, initial=0.0)


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
    a given one must be finite and >= 0, and ``occupation_fraction`` > 0
    and finite; they and the cutoffs are checked before the run.
    """
    for name, value in (("c_hat", c_hat), ("cauchy_c_hat", cauchy_c_hat)):
        if value is not None:
            _checked(name, value, "real", 0.0)
    _checked("occupation_fraction", occupation_fraction, "real", _Open(0.0))
    if cfg.snapshot_every == 0:
        raise ValueError("decay experiments need snapshots; set snapshot_every > 0")
    gate = smallness_gate(theta0, cfg)
    if not gate.passed and not force:
        raise GateError(
            f"smallness gate failed: ||theta0||_H = {gate.norm:g} "
            f">= eps0 = {gate.threshold:g} (rerun with force to override)"
        )

    lattice = theta0.lattice
    if deltas is None:
        deltas = default_delta_ladder(lattice)
    fold = _Fold(lattice, deltas, _ledger_orders(cfg.alpha), _planned_snapshots(cfg))
    if c_hat is None:
        c_hat = estimate_split_constant(lattice, cfg.alpha)
    if cauchy_c_hat is None:
        cauchy_c_hat = estimate_cauchy_constant(lattice, cfg.alpha)

    traj = simulate(theta0, cfg, _on_snapshot=fold)
    series = traj.series
    initial_norm, terminal_norm = float(series.h_crit[0]), float(series.h_crit[-1])
    ratio = terminal_norm / initial_norm if initial_norm > 0 else 0.0
    h0_hom = float(series.h_crit_hom[0])
    ratio_hom = float(series.h_crit_hom[-1]) / h0_hom if h0_hom > 0 else 0.0

    high = fold.bands()[1]
    splits = _split_ledgers(fold, series, deltas, cfg.alpha, c_hat)

    # step-1 occupation: time above threshold for each high-frequency tail
    l2_0 = float(series.l2[0])
    occupations_low = []
    t_snap = fold.times.copy()
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
    if h0_hom > 0:
        keep = series.times >= first_good
        occupation_crit = occupation_report(
            series.times[keep],
            series.h_crit_hom[keep],
            occupation_fraction * h0_hom,
            (2.0 - cfg.alpha) / (1.0 - cfg.alpha),
        )

    # interpolation slack over its right side, in Python floats, from the
    # series norms at each snapshot's sample (whose time is the same float)
    at = np.searchsorted(series.times, t_snap)
    norms = np.column_stack((series.l2, series.h_crit_hom, series.h_high))[at].tolist()
    interp_rel = []
    for l2, lhs, h_high in norms:
        gap = _interpolation_slack(l2, lhs, h_high, cfg.alpha) if l2 != 0.0 else 0.0
        interp_rel.append(gap / (gap + lhs) if gap + lhs > 0 else 0.0)
    interp_rel, embed = np.array(interp_rel), _embedding(high, cfg.alpha)

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
        cauchy=_cauchy_check(fold, series.h_crit, cauchy_c_hat),
        residual_times=t_snap,
        residuals={"interp_gap_rel": interp_rel, "embed_slack_rel": embed},
        target=target,
        max_advection_pairing=(
            None if traj.cancellation is None else float(traj.cancellation.max())
        ),
    )
