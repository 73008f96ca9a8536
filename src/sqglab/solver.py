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
import os
import zipfile
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import fields as field_gen
from .norms import _half_pairings, _sq_norms, inhom_norm
from .spectral import (
    SpectralField,
    _ALPHA,
    _Open,
    _advection_coeffs,
    _check_fields,
    _checked,
    _drop_work_buffers,
    _from_half,
    _full_layout,
    _half_symbol,
    _lattice_size,
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

# Largest step count a run may take: 2500 times the 4000 steps of the
# acceptance run.  SolverConfig caps ceil(t_end / dt), since a dt such as
# 1e-300 asks for a run that would never finish; a CFL-shortened step has no
# floor, so simulate stops with CflError and the partial record once the
# steps taken plus those left at the current step exceed the cap.
MAX_STEPS = 10**7


class BlowupError(RuntimeError):
    """Raised when a run leaves the finite/bounded regime; carries the partial record."""

    def __init__(self, message, record):
        super().__init__(message)
        self.record = record


class CflError(BlowupError):
    """A CFL violation without ``auto_dt``, or steps past MAX_STEPS; carries the partial record."""


# The rule rows of one init_modes entry [j1, j2, amplitude, phase].
_MODE_RULES = (("mode index", "whole"),) * 2 + (("amplitude", "real"), ("phase", "real"))


def _mode(mode):
    """One init_modes entry as (j1, j2, amplitude, phase), checked by _MODE_RULES."""
    try:
        j1, j2, amp, phase = mode
    except (TypeError, ValueError):
        raise ValueError(
            f"each init_modes entry must be [j1, j2, amplitude, phase], got {mode!r}"
        ) from None
    values = (j1, j2, amp, phase)
    return tuple(_checked(name, v, *rule) for (name, *rule), v in zip(_MODE_RULES, values))


# One rule row per SolverConfig field: kind, then the low and high bound, as
# sqglab.spectral._checked reads them (_Open marks a bound the value may not
# reach).  A field whose default is None may also be None.  n and box_len are
# the lattice's (sqglab.spectral._lattice_size: whole, even, 8 <= n <=
# MAX_LATTICE_N; box_len > 0, norm scales normal), init_modes entries follow _MODE_RULES, and the
# rules that span fields are written out in __post_init__.
_CONFIG_RULES = {
    "alpha": _ALPHA,
    "dt": ("real", _Open(0.0)),
    "t_end": ("real",),
    "output_every": ("whole", 1),
    "snapshot_every": ("whole", 0),
    "eps0": ("real", _Open(0.0)),
    "seed": ("whole", 0),
    "cfl": ("real", _Open(0.0)),
    "auto_dt": ("flag",),
    "nonlinear": ("flag",),
    "blowup_factor": ("real", 1.0),
    "track_cancellation": ("flag",),
    "init_kind": (tuple(field_gen._GENERATORS),),
    "init_slope": ("real",),
    "init_norm": ("real", 0.0),
    "init_norm_rel": ("real", 0.0),
}


@dataclass
class SolverConfig:
    """Run parameters.

    alpha
        dissipation exponent.
    n, box_len
        lattice resolution and period.
    dt, t_end
        requested step and horizon; the step is shrunk per the CFL rule
        dt <= cfl * dx / max|u| when ``auto_dt`` is set, otherwise a
        violation raises :class:`CflError` with the partial record.
    output_every
        steps between norm samples (dissipation integrals accumulate on the
        sample grid by the trapezoid rule).
    snapshot_every
        samples between stored fields; 0 disables snapshots.
    eps0
        smallness threshold for the gate.  ``None`` selects the calibrated
        default 0.25 / C_hat(alpha), C_hat estimated by the inequality lab
        over 48 Gaussian fields; always overridable.
    seed
        seed for reproducible initial data.
    init_kind, init_slope
        generator family of the random initial data (see
        :func:`sqglab.fields.draw_field`) and the envelope slope of the
        ``gaussian`` family only; its default 4.0 is that family's default.
        A slope other than 4.0 for a family that reads none is rejected.
    init_modes
        explicit (j1, j2, amplitude, phase) modes, the ``multi_mode``
        family's ``modes``: the initial data is their sum, with no random
        draw.  ``init_kind`` is then ``multi_mode`` or its default, and
        ``init_slope`` its default.

    The kind and bounds of every field are its row in ``_CONFIG_RULES``
    above (README, "Run configuration"); the rules across fields are
    checked after it.  At most :data:`MAX_STEPS` steps may be requested or,
    with CFL-shortened steps, taken.
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
        _check_fields(self, _CONFIG_RULES)
        self.n = _lattice_size(self.n, self.box_len)[0]  # the lattice's checks, unbuilt
        if not self.t_end >= self.dt:
            raise ValueError("t_end must be at least one step")
        if self.t_end / self.dt > MAX_STEPS:  # same as ceil(t_end / dt) > MAX_STEPS
            raise ValueError(
                f"t_end / dt asks for more than {MAX_STEPS} steps, got {self.t_end / self.dt:g}"
            )
        if self.init_norm is not None and self.init_norm_rel is not None:
            raise ValueError("set init_norm or init_norm_rel, not both")
        if self.init_modes is not None:
            if not isinstance(self.init_modes, (list, tuple)):
                raise ValueError(
                    "init_modes must be a list of [j1, j2, amplitude, phase], "
                    f"got {self.init_modes!r}"
                )
            self.init_modes = tuple(_mode(m) for m in self.init_modes)
            silent = all((j1, j2) == (0, 0) or amp == 0 for j1, j2, amp, _ in self.init_modes)
            if silent and (self.init_norm or self.init_norm_rel):  # at most one is set
                raise ValueError("init_modes give the zero field, which has no nonzero norm")
        kind, params = self._init_draw()
        if self.init_kind not in (kind, SolverConfig.init_kind):
            raise ValueError(
                f"init_kind {self.init_kind} is not drawn next to init_modes, "
                "which are the multi_mode family's modes"
            )
        try:
            field_gen._generator_row(kind, params)  # the one check of draw_field
        except ValueError as exc:
            raise ValueError(f"init_slope {self.init_slope!r} is not read: {exc}") from None

    def _init_draw(self):
        """The generator family and :func:`sqglab.fields.draw_field` params of theta0.

        ``init_modes`` are the ``multi_mode`` family's ``modes``, and
        ``init_slope`` is the family's ``slope`` when it is not its default.
        """
        kind, params = self.init_kind, {}
        if self.init_modes is not None:
            kind, params = "multi_mode", {"modes": self.init_modes}
        if self.init_slope != SolverConfig.init_slope:
            params["slope"] = self.init_slope
        return kind, params

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
        """The arrays in field order, which is the order of SERIES_COLUMNS."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def to_csv(self, path):
        """Write the pinned CSV layout: t,L2,Ha,H2m2a_hom,H2m2a,H2ma,D_L2,D_H."""
        _write_csv(path, SERIES_COLUMNS, self.columns())

    def __len__(self):
        return len(self.times)


def _write_csv(path, names, columns):
    """Write a header of ``names`` and one row per entry of ``columns``, each float as repr."""
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        for row in zip(*columns):
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


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
        """Dump stored fields as one .npz: t, coeffs, n, box_len, alpha (see _write_snapshots)."""
        if not self.snapshots:
            raise ValueError("no snapshots were recorded")
        _write_snapshots(path, self.snapshot_times, self.snapshots, self.config)


def _write_snapshots(path, times, snapshots, cfg):
    """Write ``snapshots.npz`` byte for byte as ``np.savez`` does, one field at a time.

    The members are t, coeffs, n, box_len and alpha, in that order, stored
    and zip64 with np.savez's ``.npy`` headers; a path that does not end in
    ``.npz`` gets the suffix.  ``coeffs`` is the full (m, n, n) layout of the
    m = len(times) fields that ``snapshots`` yields: each field's layout is
    built and written before the next field is read, and none is kept, so no
    field caches it and no stack is formed.
    """
    if not hasattr(path, "write"):
        path = os.fspath(path)
        if not path.endswith(".npz"):
            path += ".npz"
    n = cfg.n
    layout = {
        "descr": np.lib.format.dtype_to_descr(np.dtype(complex)),
        "fortran_order": False,
        "shape": (len(times), n, n),
    }
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:

        def member(name):
            return archive.open(f"{name}.npy", "w", force_zip64=True)

        with member("t") as fid:
            np.lib.format.write_array(fid, np.asarray(times, dtype=float))
        with member("coeffs") as fid:
            np.lib.format.write_array_header_1_0(fid, layout)
            for f in snapshots:
                fid.write(_full_layout(f))
        for name in ("n", "box_len", "alpha"):
            with member(name) as fid:
                np.lib.format.write_array(fid, np.asanyarray(getattr(cfg, name)))


class _Stepper:
    """Integrating-factor RK4 kernel on the rfft2 half spectrum.

    States, tendencies and the dissipation symbol are (n, n//2 + 1) arrays.
    Only the exponential multipliers of the configured step ``dt`` are
    cached; a step shortened by the CFL bound or by the horizon computes its
    own, so memory does not grow with the number of short steps.

    A step allocates no array of that size: the stepper owns three stage
    buffers (k4 takes that of k3, which the combination has read by then),
    one buffer for a term of the combination and two state buffers, and the
    kernel writes each tendency into its stage buffer through the work
    buffers of :func:`sqglab.spectral._quadratic_coeffs`.  :meth:`advance`
    forms the stage arguments in the state buffer it did not read and
    returns the new state there, so a state it returns stays valid through
    the next step and is overwritten by the one after.  The IF-RK4
    combination is evaluated with ``out=`` ufuncs in the order of the
    expressions written in :meth:`advance`, so the values are those of the
    allocating form, bit for bit.
    """

    def __init__(self, lattice, alpha, nonlinear, dt):
        self.lattice = lattice
        self.nonlinear = nonlinear
        self.dt = dt
        self.symbol = _half_symbol(lattice, 2.0 * alpha)
        self._factors = {}
        shape = self.symbol.shape
        # a linear run writes only the states
        self._stages = [np.empty(shape, complex) for _ in range(3)]
        self._term = np.empty(shape, complex)
        self._states = [np.empty(shape, complex) for _ in range(2)]
        self._twice_half = np.empty(shape)

    def factors(self, dt):
        cached = self._factors.get(dt)
        if cached is None:
            cached = (np.exp(-dt * self.symbol), np.exp(-0.5 * dt * self.symbol))
            if dt == self.dt:
                self._factors[dt] = cached
        return cached

    def tendency(self, coeffs, umax=False, out=None):
        """-u.grad theta at the given state; with ``umax`` also max|u| there.

        The tendency is written into ``out``, by default the first stage
        buffer, which the next such call overwrites.
        """
        if not self.nonlinear:
            return (None, 0.0) if umax else None
        out = self._stages[0] if out is None else out
        adv, velocity = _advection_coeffs(self.lattice, coeffs, coeffs, out)
        # complex negation flips the sign of both parts; numpy does it faster
        # on the float view
        np.negative(adv.view(float), out=adv.view(float))
        if not umax:
            return adv
        # u1 * u1 + u2 * u2, formed in the kernel's velocity buffer, which
        # its next call rewrites
        u1, u2 = np.multiply(velocity, velocity, out=velocity)
        return adv, math.sqrt(float(np.max(np.add(u1, u2, out=u1))))

    def advance(self, coeffs, dt, k1=None):
        """The state one IF-RK4 step of ``dt`` after ``coeffs``, in a state buffer.

        ``k1``, when given, is the tendency at ``coeffs``.  The value is that
        of ``full * coeffs + (dt / 6) * (full * k1 + 2 * half * (k2 + k3) + k4)``
        with k2 = T(half * (coeffs + (dt / 2) * k1)),
        k3 = T(half * coeffs + (dt / 2) * k2) and
        k4 = T(full * coeffs + dt * (half * k3)), each product and sum
        formed in that order.
        """
        full, half = self.factors(dt)
        new = self._states[coeffs is self._states[0]]
        if not self.nonlinear:
            return np.multiply(full, coeffs, out=new)
        if k1 is None:
            k1 = self.tendency(coeffs)
        _, k2, k3 = self._stages
        # the stage arguments are formed in the new state's buffer
        np.multiply(0.5 * dt, k1, out=new)
        np.multiply(half, np.add(coeffs, new, out=new), out=new)
        self.tendency(new, out=k2)
        term = np.multiply(0.5 * dt, k2, out=self._term)
        np.add(np.multiply(half, coeffs, out=new), term, out=new)
        self.tendency(new, out=k3)
        np.multiply(dt, np.multiply(half, k3, out=term), out=term)
        np.add(np.multiply(full, coeffs, out=new), term, out=new)
        # full * k1 + 2 * half * (k2 + k3) before k4 is known, so that k4
        # takes the buffer of k3
        np.multiply(full, k1, out=term)
        twice_half = np.multiply(2.0, half, out=self._twice_half)
        np.add(term, np.multiply(twice_half, np.add(k2, k3, out=k2), out=k2), out=term)
        k4 = self.tendency(new, out=k3)
        np.multiply(dt / 6.0, np.add(term, k4, out=term), out=term)
        return np.add(np.multiply(full, coeffs, out=new), term, out=new)


def nonlinear_term(theta):
    """Dealiased, mean-free spectral representation of u_theta . grad(theta)."""
    from .spectral import advect

    return advect(theta, theta)


def step(theta, cfg):
    """Advance one step of cfg.dt (caller guarantees the CFL precondition).

    Raises FloatingPointError if the step leaves non-finite coefficients;
    a single step has no run record, so it raises no BlowupError.
    """
    stepper = _Stepper(theta.lattice, cfg.alpha, cfg.nonlinear, cfg.dt)
    out = stepper.advance(theta.half, cfg.dt)
    if not np.isfinite(out).all():
        raise FloatingPointError("non-finite coefficients after one step")
    return _from_half(theta.lattice, out)


def _norm_series(times, rows):
    """The NormSeries of the sample ``times`` and their rows of squared norms.

    A row holds the squared L2, Hdot^a, Hdot^(2-2a) and Hdot^(2-a) norms.
    D_L2 and D_H are cumulative trapezoids over the squared norms they
    integrate, summed in sample order (``np.cumsum`` adds in sequence).
    """
    t = np.array(times)
    l2sq, hasq, hcsq, hhsq = squares = np.asarray(rows).T
    l2, h_alpha, h_crit_hom, h_high = np.sqrt(squares)
    d_l2, d_h = (
        np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t) * (y[:-1] + y[1:]))))
        for y in (hasq, hasq + hhsq)
    )
    return NormSeries(t, l2, h_alpha, h_crit_hom, np.sqrt(l2sq + hcsq), h_high, d_l2, d_h)


def _planned_snapshots(cfg):
    """The snapshots a run of ``cfg`` takes when the CFL bound shortens no step.

    It replays the loop's time arithmetic and counts by its sample and snapshot rules.
    """
    t, steps = 0.0, 0
    while t < cfg.t_end * (1.0 - 1e-12):
        t += min(cfg.dt, cfg.t_end - t)
        steps += 1
    samples = -(-steps // cfg.output_every) + 1
    return -(-(samples - 1) // cfg.snapshot_every) + 1 if cfg.snapshot_every else 0


def _with_room(rows, count):
    """``rows``, or its first ``count`` rows in an array twice as long, so that row ``count`` fits."""
    if count < len(rows):
        return rows
    grown = np.empty((2 * len(rows), *rows.shape[1:]))
    grown[:count] = rows[:count]
    return grown


def simulate(theta0, cfg, *, _on_snapshot=None):
    """Advance theta0 to cfg.t_end, sampling norms every ``output_every`` steps.

    For nonlinear runs the initial field is dealiased first, which keeps the
    quadratic term alias-free along the whole trajectory.  The run aborts
    with :class:`BlowupError` if coefficients stop being finite, the
    initial critical norm is not finite (before any step), or the critical
    norm exceeds ``blowup_factor`` times its initial value, and
    with its subclass :class:`CflError` on a CFL violation without
    ``auto_dt`` or steps past :data:`MAX_STEPS`.  Each abort breaks the
    loop and raises with the partial record built after it.

    The state advances on the rfft2 half spectrum, which is also what the
    snapshots and the final field store.  The series norms the raw state; a
    snapshot or the final field is a completed copy, whose norms can differ in
    the last bit.  Each pass of the loop first takes the sample, if one is due
    (step 0 and the last step always are): the squared norms, the pairing, the
    snapshot and the ceiling check.  Then it takes one step.  The series' D_L2
    and D_H are cumulative trapezoids over the sampled squared norms, summed
    in sample order.  With ``track_cancellation`` the tendency evaluated for
    the pairing at a sample is reused as the first RK4 stage of the next step.
    The steps write into work buffers (:class:`_Stepper`); when the loop ends
    the kernel's ones are dropped from the lattice, so that their memory does
    not outlive the run.

    The samples are rows of one float array, sized for ceil(t_end / dt) + 1
    steps and doubled when more come.  A run with no CFL-shortened step
    takes at most that many: the rounding of its sum of steps moves the
    count by less than one step below :data:`MAX_STEPS`, plus a tiny last
    step where the sum falls short of t_end.

    ``_on_snapshot``, when given, is called as ``(t, field)`` in place of
    storing each snapshot, so the record, and a :class:`BlowupError`'s
    partial one, carry none.  :func:`sqglab.decay.decay_experiment` folds
    each snapshot through it, and ``sqglab simulate`` spills each one to a
    temporary file for the snapshot writer.
    """
    lat = theta0.lattice
    if lat.n != cfg.n or lat.box_len != cfg.box_len:
        raise ValueError("initial field lattice does not match the configuration")

    theta = dealias(theta0) if cfg.nonlinear else theta0.copy()
    # theta.half is never written, so the record keeps theta as its initial
    # field; the stepper returns each new state in one of its two state
    # buffers, which the step after next overwrites
    coeffs = theta.half
    stepper = _Stepper(lat, cfg.alpha, cfg.nonlinear, cfg.dt)
    # squared L2, Hdot^a, Hdot^(2-2a), Hdot^(2-a) norms, then Hdot^1 for the
    # pairing's normalisation
    orders = (0.0, cfg.alpha, 2.0 - 2.0 * cfg.alpha, 2.0 - cfg.alpha)
    if cfg.track_cancellation:
        orders += (1.0,)

    # one row per sample: t, the four squared norms, then the pairing
    steps = math.ceil(cfg.t_end / cfg.dt) + 1
    samples = np.empty((-(-steps // cfg.output_every) + 1, 5 + cfg.track_cancellation))
    count = 0
    snapshot_times, snapshots = [], []
    t = 0.0
    step_index = 0
    k1 = None  # (tendency, max|u|) at the current state, once evaluated
    abort = None  # (exception class, reason, message) of a run that stops early
    horizon = cfg.t_end * (1.0 - 1e-12)
    while True:
        last = t >= horizon
        if step_index % cfg.output_every == 0 or last:
            sq = _sq_norms(lat, coeffs, orders).tolist()
            samples = _with_room(samples, count)
            row = samples[count]
            row[:5] = t, *sq[:4]
            if cfg.track_cancellation:
                # advection pairing normalized by ||theta||_{L2} ||theta||_{H1}^2;
                # zero to round-off when dealiasing is exact
                k1 = stepper.tendency(coeffs, True)
                row[5] = 0.0
                if k1[0] is not None and sq[0] != 0.0:
                    pairing = abs(float(_half_pairings(lat, k1[0], coeffs, 0.0)))
                    row[5] = pairing / (math.sqrt(sq[0]) * (sq[0] + sq[4]))
            if cfg.snapshot_every and (count % cfg.snapshot_every == 0 or last):
                if _on_snapshot is None:
                    snapshot_times.append(t)
                    snapshots.append(_from_half(lat, coeffs))
                else:
                    _on_snapshot(t, _from_half(lat, coeffs))
            count += 1
            h_now = math.sqrt(sq[0] + sq[2])
            if step_index == 0:
                if not math.isfinite(h_now):  # it would set a ceiling no norm exceeds
                    abort = (BlowupError, "non-finite", f"non-finite critical norm at t={t:g}")
                    break
                ceiling = cfg.blowup_factor * max(h_now, np.finfo(float).tiny)
            elif h_now > ceiling:
                msg = (
                    f"suspected blow-up: critical norm {h_now:g} exceeded "
                    f"{cfg.blowup_factor:g} x initial at t={t:g}"
                )
                abort = (BlowupError, "norm ceiling exceeded", msg)
                break
        if last:
            break

        tend, umax = stepper.tendency(coeffs, True) if k1 is None else k1
        dt_now = min(cfg.dt, cfg.t_end - t)
        if cfg.nonlinear and umax > 0.0:
            bound = cfg.cfl * lat.spacing / umax
            if dt_now > bound:
                if not cfg.auto_dt:
                    msg = f"dt={dt_now:g} exceeds the CFL bound {bound:g} at t={t:g}"
                    abort = (CflError, "CFL bound exceeded", msg)
                    break
                dt_now = bound
        # step_index + (t_end - t) / dt_now > MAX_STEPS, without dividing by
        # a step that an infinite max|u| shortens to zero
        if dt_now * (MAX_STEPS - step_index) < cfg.t_end - t:
            msg = (
                f"steps of {dt_now:g} from t={t:g} need more than {MAX_STEPS} "
                f"steps in all to reach t_end={cfg.t_end:g}"
            )
            abort = (CflError, "step cap exceeded", msg)
            break
        coeffs = stepper.advance(coeffs, dt_now, tend)
        k1 = None
        t += dt_now
        step_index += 1
        if not np.isfinite(coeffs).all():
            abort = (BlowupError, "non-finite", f"non-finite coefficients at t={t:g}")
            break

    _drop_work_buffers(lat)
    samples = samples[:count]
    record = TrajectoryRecord(
        config=replace(cfg),
        series=_norm_series(samples[:, 0], samples[:, 1:5]),
        snapshot_times=snapshot_times,
        snapshots=snapshots,
        initial=theta,
        final=_from_half(lat, coeffs),
        cancellation=samples[:, 5].copy() if cfg.track_cancellation else None,
        aborted=abort is not None,
        abort_reason=abort[1] if abort else "",
    )
    if abort:
        error, _, message = abort
        raise error(message, record)
    return record


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
    kind, params = cfg._init_draw()
    f = field_gen.draw_field(kind, lat, rng, params)
    target = cfg.init_norm
    if cfg.init_norm_rel is not None:
        target = cfg.init_norm_rel * cfg.resolved_eps0()
    if target is not None:
        f = field_gen.scaled_to_norm(f, target, cfg.critical_order)
    return f
