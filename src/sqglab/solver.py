"""Time evolution of the dissipative transport equation

    d/dt theta + |D|^(2*alpha) theta + u_theta . grad(theta) = 0,

with 0 < alpha < 1/2, on the periodic box.  The stiff fractional dissipation
is treated exactly through an integrating-factor classical Runge-Kutta
scheme: with the nonlinearity disabled each step multiplies every mode by
exp(-dt*|xi|^(2*alpha)) and the discrete flow matches the linear semigroup
to round-off.  The nonlinear term is fully dealiased, so the quadratic
energy cancellation <u.grad theta, theta>_{L2} = 0 holds at the round-off
level and the energy ledgers below are meaningful checks rather than
modeling assumptions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fields as field_gen
from .norms import _half_weight, inhom_norm
from .spectral import (
    SpectralField,
    _advection_coeffs,
    _expand_half,
    dealias,
    make_lattice,
)

__all__ = [
    "SolverConfig",
    "NormSeries",
    "TrajectoryRecord",
    "LedgerReport",
    "MonitorReport",
    "GateDecision",
    "BlowupError",
    "CflError",
    "nonlinear_term",
    "step",
    "simulate",
    "energy_ledger",
    "blowup_monitor",
    "smallness_gate",
    "initial_field",
]

SERIES_COLUMNS = ("t", "L2", "Ha", "H2m2a_hom", "H2m2a", "H2ma", "D_L2", "D_H")


class BlowupError(RuntimeError):
    """Raised when a run leaves the finite/bounded regime; carries the partial record."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


class CflError(RuntimeError):
    """Raised when the requested time step violates the advective CFL bound."""


def _whole_number(name, value, low):
    """``value`` as an int >= low; integral floats pass, bools do not."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


def _mode(mode):
    """One init_modes entry as (j1, j2, amplitude, phase): integral indices, finite reals."""
    try:
        j1, j2, amp, phase = mode
    except (TypeError, ValueError):
        raise ValueError(
            f"each init_modes entry must be [j1, j2, amplitude, phase], got {mode!r}"
        ) from None
    j1, j2 = (_whole_number("mode index", j, -math.inf) for j in (j1, j2))
    for value in (amp, phase):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"mode amplitude and phase must be numbers, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"mode amplitude and phase must be finite, got {value!r}")
    return (j1, j2, amp, phase)


@dataclass
class SolverConfig:
    """Run parameters.

    alpha
        dissipation exponent, 0 < alpha < 1/2.
    n, box_len
        lattice resolution and period.
    dt, t_end
        requested step and horizon; the step is shrunk per the CFL rule
        dt <= cfl * dx / max|u| when ``auto_dt`` is set, otherwise a
        violation raises :class:`CflError`.
    output_every
        steps between norm samples (dissipation integrals accumulate on the
        sample grid by the trapezoid rule).
    snapshot_every
        samples between stored fields; 0 disables snapshots.
    eps0
        smallness threshold for the gate.  ``None`` selects the calibrated
        default 0.25 / C_hat(alpha) with C_hat estimated by the inequality
        lab; always overridable.
    seed
        seed for reproducible initial data, a nonnegative integer.
    init_kind, init_slope
        generator family of the random initial data (see
        :func:`sqglab.fields.draw_field`) and the Gaussian envelope slope.
    init_modes
        explicit (j1, j2, amplitude, phase) modes used instead of a random
        draw; indices are integers, amplitude and phase finite numbers.

    ``output_every``, ``snapshot_every`` and ``seed`` take whole numbers: an
    integral float becomes an int, a bool or a fraction is rejected.
    """

    alpha: float
    n: int
    dt: float
    t_end: float
    box_len: float = 2.0 * math.pi
    output_every: int = 1
    snapshot_every: int = 0
    eps0: float | None = None
    seed: int = 0
    cfl: float = 0.5
    auto_dt: bool = True
    nonlinear: bool = True
    blowup_factor: float = 1e6
    track_cancellation: bool = False
    init_kind: str = "gaussian"
    init_slope: float = 4.0
    init_modes: tuple | None = None  # explicit mode list; None draws from init_kind
    init_norm: float | None = None
    init_norm_rel: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not self.t_end >= self.dt:
            raise ValueError("t_end must be at least one step")
        if self.eps0 is not None and not self.eps0 > 0:
            raise ValueError("eps0 must be positive")
        if not 0 < self.cfl:
            raise ValueError("cfl must be positive")
        if self.init_norm is not None and self.init_norm_rel is not None:
            raise ValueError("set init_norm or init_norm_rel, not both")
        for name, low in (("seed", 0), ("output_every", 1), ("snapshot_every", 0)):
            setattr(self, name, _whole_number(name, getattr(self, name), low))
        if self.init_kind not in field_gen._GENERATORS:
            kinds = sorted(field_gen._GENERATORS)
            raise ValueError(f"unknown init_kind {self.init_kind!r}; choose from {kinds}")
        if self.init_modes is not None:
            if not isinstance(self.init_modes, (list, tuple)):
                raise ValueError(
                    "init_modes must be a list of [j1, j2, amplitude, phase], "
                    f"got {self.init_modes!r}"
                )
            self.init_modes = tuple(_mode(m) for m in self.init_modes)
            target = self.init_norm if self.init_norm is not None else self.init_norm_rel
            silent = all((j1, j2) == (0, 0) or amp == 0 for j1, j2, amp, _ in self.init_modes)
            if silent and target:
                raise ValueError("init_modes give the zero field, which has no nonzero norm")
        make_lattice(self.n, self.box_len)  # validates n / box_len

    def lattice(self):
        return make_lattice(self.n, self.box_len)

    def resolved_eps0(self):
        """eps0 if set, else the calibrated default for this alpha."""
        if self.eps0 is not None:
            return self.eps0
        from .lemmas import default_smallness_threshold

        return default_smallness_threshold(self.alpha)

    @property
    def critical_order(self):
        return 2.0 - 2.0 * self.alpha


@dataclass
class NormSeries:
    """Time-indexed table of tracked norms and running dissipation integrals.

    ``d_l2`` accumulates the integral of ||theta||_{Hdot^a}^2 and ``d_h`` the
    integral of |||D|^a theta||_{H^{2-2a}}^2, both trapezoidal on the sample
    grid; each is nondecreasing in time.
    """

    times: np.ndarray
    l2: np.ndarray
    h_alpha: np.ndarray
    h_crit_hom: np.ndarray
    h_crit: np.ndarray
    h_high: np.ndarray
    d_l2: np.ndarray
    d_h: np.ndarray

    def columns(self):
        return (
            self.times,
            self.l2,
            self.h_alpha,
            self.h_crit_hom,
            self.h_crit,
            self.h_high,
            self.d_l2,
            self.d_h,
        )

    def to_csv(self, path):
        """Write the pinned CSV layout: t,L2,Ha,H2m2a_hom,H2m2a,H2ma,D_L2,D_H."""
        cols = self.columns()
        with open(path, "w") as handle:
            handle.write(",".join(SERIES_COLUMNS) + "\n")
            for row in zip(*cols):
                handle.write(",".join(repr(float(v)) for v in row) + "\n")

    def __len__(self):
        return len(self.times)


@dataclass
class TrajectoryRecord:
    """Result of one run: sampled norms plus optional stored fields."""

    config: SolverConfig
    series: NormSeries
    snapshot_times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    initial: SpectralField | None = None
    final: SpectralField | None = None
    cancellation: np.ndarray | None = None
    aborted: bool = False
    abort_reason: str = ""

    @property
    def times(self):
        return self.series.times

    def save_snapshots(self, path):
        """Dump stored fields as one .npz: t, coeffs, n, box_len, alpha."""
        if not self.snapshots:
            raise ValueError("no snapshots were recorded")
        np.savez(
            path,
            t=np.asarray(self.snapshot_times, dtype=float),
            coeffs=np.stack([f.coeffs for f in self.snapshots]),
            n=self.config.n,
            box_len=self.config.box_len,
            alpha=self.config.alpha,
        )


class _Stepper:
    """Integrating-factor RK4 kernel on the rfft2 half spectrum.

    States, tendencies and the dissipation symbol are (n, n//2 + 1) arrays.
    Only the exponential multipliers of the configured step ``dt`` are
    cached; a step shortened by the CFL bound or by the horizon computes its
    own, so memory does not grow with the number of short steps.
    """

    def __init__(self, lattice, alpha, nonlinear, dt):
        self.lattice = lattice
        self.nonlinear = nonlinear
        self.dt = dt
        self.symbol = np.ascontiguousarray(
            lattice.symbol_power(2.0 * alpha)[:, : lattice.n // 2 + 1]
        )
        self._factors = {}

    def factors(self, dt):
        cached = self._factors.get(dt)
        if cached is None:
            cached = (np.exp(-dt * self.symbol), np.exp(-0.5 * dt * self.symbol))
            if dt == self.dt:
                self._factors[dt] = cached
        return cached

    def tendency(self, coeffs, umax=False):
        """-u.grad theta at the given state; with ``umax`` also max|u| there."""
        if not self.nonlinear:
            return (None, 0.0) if umax else None
        adv, (u1, u2) = _advection_coeffs(self.lattice, coeffs, coeffs)
        np.negative(adv, out=adv)
        if not umax:
            return adv
        return adv, math.sqrt(float(np.max(u1 * u1 + u2 * u2)))

    def advance(self, coeffs, dt, k1=None):
        full, half = self.factors(dt)
        if not self.nonlinear:
            return full * coeffs
        if k1 is None:
            k1 = self.tendency(coeffs)
        k2 = self.tendency(half * (coeffs + (0.5 * dt) * k1))
        k3 = self.tendency(half * coeffs + (0.5 * dt) * k2)
        k4 = self.tendency(full * coeffs + dt * (half * k3))
        return full * coeffs + (dt / 6.0) * (full * k1 + 2.0 * half * (k2 + k3) + k4)


def nonlinear_term(theta):
    """Dealiased, mean-free spectral representation of u_theta . grad(theta)."""
    from .spectral import advect

    return advect(theta, theta)


def step(theta, cfg):
    """Advance one step of cfg.dt (caller guarantees the CFL precondition)."""
    lat = theta.lattice
    stepper = _Stepper(lat, cfg.alpha, cfg.nonlinear, cfg.dt)
    out = stepper.advance(theta.coeffs[:, : lat.n // 2 + 1], cfg.dt)
    if not np.isfinite(out).all():
        raise BlowupError("non-finite coefficients after one step", None)
    return SpectralField(lat, _expand_half(out, lat.n))


def simulate(theta0, cfg):
    """Advance theta0 to cfg.t_end, sampling norms every ``output_every`` steps.

    For nonlinear runs the initial field is dealiased first, which keeps the
    quadratic term alias-free along the whole trajectory.  The run aborts
    with :class:`BlowupError` (carrying the partial record) if coefficients
    stop being finite or the critical norm exceeds ``blowup_factor`` times
    its initial value.

    The state advances on the rfft2 half spectrum; snapshots and the final
    field are expanded to the full (n, n) layout.  With
    ``track_cancellation`` the tendency evaluated for the pairing at a
    sample is reused as the first RK4 stage of the next step.
    """
    lat = theta0.lattice
    if lat.n != cfg.n or lat.box_len != cfg.box_len:
        raise ValueError("initial field lattice does not match the configuration")

    theta = dealias(theta0) if cfg.nonlinear else theta0.copy()
    coeffs = theta.coeffs[:, : lat.n // 2 + 1].copy()
    stepper = _Stepper(lat, cfg.alpha, cfg.nonlinear, cfg.dt)
    # squared L2, Hdot^a, Hdot^(2-2a), Hdot^(2-a) norms, then Hdot^1 for the
    # pairing's normalisation
    orders = (0.0, cfg.alpha, 2.0 - 2.0 * cfg.alpha, 2.0 - cfg.alpha, 1.0)
    w_l2, w_ha, w_hc, w_hh, w_h1 = (_half_weight(lat, s) for s in orders)

    times = []
    norm_rows = []
    d_l2_list = []
    d_h_list = []
    cancel = [] if cfg.track_cancellation else None
    snapshot_times = []
    snapshots = []

    d_l2 = 0.0
    d_h = 0.0
    sample_index = 0
    next_k1 = None  # (tendency, max|u|) at the current state, if already known

    def record_sample(t_now, coeffs_now):
        nonlocal d_l2, d_h, sample_index, next_k1
        mag2 = coeffs_now.real**2 + coeffs_now.imag**2
        l2sq, hasq, hcsq, hhsq = (
            float(np.sum(w * mag2)) for w in (w_l2, w_ha, w_hc, w_hh)
        )
        if times:
            dt_s = t_now - times[-1]
            prev = norm_rows[-1]
            d_l2 += 0.5 * dt_s * (prev[1] + hasq)
            d_h += 0.5 * dt_s * ((prev[1] + prev[3]) + (hasq + hhsq))
        times.append(t_now)
        norm_rows.append((l2sq, hasq, hcsq, hhsq))
        d_l2_list.append(d_l2)
        d_h_list.append(d_h)
        if cancel is not None:
            # advection pairing normalized by ||theta||_{L2} ||theta||_{H1}^2;
            # zero to round-off when dealiasing is exact
            next_k1 = stepper.tendency(coeffs_now, True)
            tend = next_k1[0]
            if tend is None or l2sq == 0.0:
                cancel.append(0.0)
            else:
                cross = tend.real * coeffs_now.real + tend.imag * coeffs_now.imag
                pairing = abs(float(np.sum(w_l2 * cross)))
                h1sq = l2sq + float(np.sum(w_h1 * mag2))
                cancel.append(pairing / (math.sqrt(l2sq) * h1sq))
        if cfg.snapshot_every and sample_index % cfg.snapshot_every == 0:
            snapshot_times.append(t_now)
            snapshots.append(SpectralField(lat, _expand_half(coeffs_now, lat.n)))
        sample_index += 1
        return math.sqrt(l2sq + hcsq)

    h_init = record_sample(0.0, coeffs)
    ceiling = cfg.blowup_factor * max(h_init, np.finfo(float).tiny)

    def build_record(aborted=False, reason=""):
        rows = np.asarray(norm_rows)
        series = NormSeries(
            times=np.asarray(times),
            l2=np.sqrt(rows[:, 0]),
            h_alpha=np.sqrt(rows[:, 1]),
            h_crit_hom=np.sqrt(rows[:, 2]),
            h_crit=np.sqrt(rows[:, 0] + rows[:, 2]),
            h_high=np.sqrt(rows[:, 3]),
            d_l2=np.asarray(d_l2_list),
            d_h=np.asarray(d_h_list),
        )
        return TrajectoryRecord(
            config=replace(cfg),
            series=series,
            snapshot_times=snapshot_times,
            snapshots=snapshots,
            initial=theta.copy(),
            final=SpectralField(lat, _expand_half(coeffs, lat.n)),
            cancellation=None if cancel is None else np.asarray(cancel),
            aborted=aborted,
            abort_reason=reason,
        )

    t = 0.0
    step_index = 0
    horizon = cfg.t_end * (1.0 - 1e-12)
    while t < horizon:
        if next_k1 is None:
            k1, umax = stepper.tendency(coeffs, True)
        else:
            (k1, umax), next_k1 = next_k1, None
        dt_now = min(cfg.dt, cfg.t_end - t)
        if cfg.nonlinear and umax > 0.0:
            bound = cfg.cfl * lat.spacing / umax
            if dt_now > bound:
                if not cfg.auto_dt:
                    raise CflError(
                        f"dt={dt_now:g} exceeds the CFL bound {bound:g} at t={t:g}"
                    )
                dt_now = bound
        coeffs = stepper.advance(coeffs, dt_now, k1)
        t += dt_now
        step_index += 1
        if not np.isfinite(coeffs).all():
            raise BlowupError(
                f"non-finite coefficients at t={t:g}", build_record(True, "non-finite")
            )
        if step_index % cfg.output_every == 0 or t >= horizon:
            h_now = record_sample(t, coeffs)
            if h_now > ceiling:
                record = build_record(True, "norm ceiling exceeded")
                raise BlowupError(
                    f"suspected blow-up: critical norm {h_now:g} exceeded "
                    f"{cfg.blowup_factor:g} x initial at t={t:g}",
                    record,
                )

    if cfg.snapshot_every and snapshot_times and snapshot_times[-1] < times[-1]:
        snapshot_times.append(times[-1])
        snapshots.append(SpectralField(lat, _expand_half(coeffs, lat.n)))
    return build_record()


@dataclass
class LedgerReport:
    """Worst slack of the two energy ledgers over all sample times.

    Ledger (a): L2^2(t) + 2*D_L2(t) <= L2^2(0) * (1 + tol_l2).
    Ledger (b): H^2(t) + D_H(t) <= H^2(0) * (1 + tol_h),
    with H the inhomogeneous critical norm.  Violations are reported, never
    raised.
    """

    l2_slack: float
    h_slack: float
    tol_l2: float
    tol_h: float

    @property
    def l2_ok(self):
        return self.l2_slack <= self.tol_l2

    @property
    def h_ok(self):
        return self.h_slack <= self.tol_h

    @property
    def passed(self):
        return self.l2_ok and self.h_ok

    @property
    def worst_slack(self):
        return max(self.l2_slack, self.h_slack)


def _relative_slack(lhs, baseline):
    if baseline == 0.0:
        return 0.0 if np.all(lhs == 0.0) else math.inf
    return float(np.max(lhs - baseline) / baseline)


def energy_ledger(traj, tol_l2=1e-4, tol_h=1e-3):
    s = traj.series
    lhs_a = s.l2**2 + 2.0 * s.d_l2
    lhs_b = s.h_crit**2 + s.d_h
    return LedgerReport(
        l2_slack=_relative_slack(lhs_a, float(s.l2[0] ** 2)),
        h_slack=_relative_slack(lhs_b, float(s.h_crit[0] ** 2)),
        tol_l2=tol_l2,
        tol_h=tol_h,
    )


@dataclass
class MonitorReport:
    """Blow-up monitor: the continuation integral and its growth rate.

    A finite integral of |||D|^a theta||^2_{H^{2-2a}} up to time t rules out
    a first singularity on [0, t]; the monitor reports, it never certifies a
    blow-up.
    """

    times: np.ndarray
    d_h: np.ndarray
    growth_rate: np.ndarray
    continuation_time: float
    finite: bool
    message: str


def blowup_monitor(traj):
    s = traj.series
    finite = bool(np.isfinite(s.d_h).all())
    if len(s.times) > 1:
        rate = np.gradient(s.d_h, s.times)
    else:
        rate = np.zeros_like(s.d_h)
    t_ok = float(s.times[-1]) if finite else float(s.times[np.isfinite(s.d_h)][-1])
    msg = (
        f"continuation guaranteed on [0, {t_ok:g}]: dissipation integral finite"
        if finite
        else "dissipation integral left the finite range"
    )
    return MonitorReport(
        times=s.times.copy(),
        d_h=s.d_h.copy(),
        growth_rate=rate,
        continuation_time=t_ok,
        finite=finite,
        message=msg,
    )


@dataclass
class GateDecision:
    passed: bool
    norm: float
    threshold: float
    margin: float


def smallness_gate(theta0, cfg):
    """Pass iff ||theta0||_{H^{2-2alpha}} < eps0 (strict)."""
    norm = inhom_norm(theta0, cfg.critical_order)
    eps0 = cfg.resolved_eps0()
    return GateDecision(
        passed=norm < eps0, norm=norm, threshold=eps0, margin=eps0 - norm
    )


def initial_field(cfg):
    """Build the seeded initial field described by the configuration."""
    lat = cfg.lattice()
    rng = np.random.default_rng(cfg.seed)
    if cfg.init_modes is not None:
        f = field_gen.multi_mode_field(lat, cfg.init_modes)
    else:
        f = field_gen.draw_field(cfg.init_kind, lat, rng, {"slope": cfg.init_slope})
    target = cfg.init_norm
    if cfg.init_norm_rel is not None:
        target = cfg.init_norm_rel * cfg.resolved_eps0()
    if target is not None:
        f = field_gen.scaled_to_norm(f, target, cfg.critical_order)
    return f
