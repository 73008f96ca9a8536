"""Randomized numerical verification of the supporting inequalities.

Each check returns both sides (or the ratio) of one inequality shape; the
ensemble driver :func:`estimate_constant` sweeps a seeded family of random
fields and reports the largest observed LHS/RHS ratio.  For the shapes whose
constant is not explicit, that maximum *is* the empirical constant estimate;
it is an ensemble maximum, never a claim of sharpness.  A "violation" means
the inequality shape failed outright: a positive left side against a zero
right side (no finite constant works), or, for the shapes with explicit
constants, an excess beyond the quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import draw_field, multi_mode_field
from .norms import hom_norm, scalar_product
from .spectral import advect, multiply, riesz_velocity

__all__ = [
    "EnsembleSpec",
    "LemmaReport",
    "LEMMA_IDS",
    "check_elementary",
    "check_product_law",
    "check_trilinear",
    "check_bilinear",
    "check_exp_kernel",
    "exp_kernel_tolerance",
    "estimate_constant",
    "default_smallness_threshold",
]

LEMMA_IDS = (
    "elementary",
    "2.1-productlaw-two-term",
    "2.2-productlaw",
    "2.3-trilinear",
    "2.4-bilinear",
    "2.5-expkernel",
)

# internal shapes reachable through estimate_constant but not the CLI
_EXTRA_IDS = ("cauchy-advection",)

MIN_SAMPLES = 10  # smallest ensemble estimate_constant accepts


@dataclass
class EnsembleSpec:
    """Sampling plan: how many fields, from which family, on which lattice."""

    count: int
    generator: str = "gaussian"
    seed: int = 0
    lattice: object = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("ensemble count must be >= 1")


@dataclass
class LemmaReport:
    """Outcome of one verification ensemble.

    ``max_ratio`` is the largest LHS/RHS-without-constant observed and
    doubles as ``estimated_constant``; ``violations`` must be zero on pass.
    Samples where both sides vanish identically are counted as degenerate
    and excluded from the ratio.
    """

    lemma_id: str
    samples: int
    max_ratio: float
    violations: int
    estimated_constant: float
    seed: int
    lattice_n: int
    box_len: float
    params: dict
    degenerate_samples: int = 0

    @property
    def passed(self):
        return self.violations == 0 and math.isfinite(self.max_ratio)

    def to_json_dict(self):
        return {
            "lemma_id": self.lemma_id,
            "samples": self.samples,
            "max_ratio": self.max_ratio,
            "violations": self.violations,
            "estimated_constant": self.estimated_constant,
            "seed": self.seed,
            "lattice": {"n": self.lattice_n, "box_len": self.box_len},
            "params": self.params,
            "degenerate_samples": self.degenerate_samples,
        }


def check_elementary(xi_mag, eta_mag, sigma):
    """Scalar inequality |a^s - c^s| <= s 2^(s-1) b (c^(s-1) + b^(s-1)), b = |a-c|.

    Accepts scalars or arrays; requires sigma >= 1 (the mean-value form
    fails below that) and nonnegative magnitudes.  Returns (lhs, rhs).
    """
    a = np.asarray(xi_mag, dtype=float)
    c = np.asarray(eta_mag, dtype=float)
    s = np.asarray(sigma, dtype=float)
    if np.any(s < 1.0):
        raise ValueError("sigma must be >= 1")
    if np.any(a < 0.0) or np.any(c < 0.0):
        raise ValueError("magnitudes must be nonnegative")
    gap = np.abs(a - c)
    lhs = np.abs(a**s - c**s)
    rhs = s * 2.0 ** (s - 1.0) * gap * (c ** (s - 1.0) + gap ** (s - 1.0))
    if lhs.ndim == 0:
        return float(lhs), float(rhs)
    return lhs, rhs


def _safe_ratio(lhs, denom):
    if denom == 0.0:
        return 0.0 if lhs == 0.0 else math.inf
    return lhs / denom


def check_product_law(f, g, s1, s2):
    """Ratios for the two product laws at order s1 + s2 - 1.

    Returns (two_term_ratio, product_ratio): the left side ||fg|| divided by
    ||f||_{s1} ||g||_{s2} + ||f||_{s2} ||g||_{s1} and by ||f||_{s1} ||g||_{s2}
    respectively.  The second form needs s2 < 1 and is None otherwise.
    Requires s1 < 1 and s1 + s2 > 0; the product is dealiased and mean-free,
    so negative orders are well defined.
    """
    if not s1 < 1.0:
        raise ValueError(f"need s1 < 1, got s1={s1}")
    if not s1 + s2 > 0.0:
        raise ValueError(f"need s1 + s2 > 0, got {s1 + s2}")
    lhs = hom_norm(multiply(f, g), s1 + s2 - 1.0)
    f1, f2 = hom_norm(f, s1), hom_norm(f, s2)
    g1, g2 = hom_norm(g, s1), hom_norm(g, s2)
    two_term = _safe_ratio(lhs, f1 * g2 + f2 * g1)
    product = _safe_ratio(lhs, f1 * g2) if s2 < 1.0 else None
    return two_term, product


def check_trilinear(theta, sigma, alpha):
    """Both sides of |<u.grad theta, theta>_{H^sigma}| <= sigma 2^sigma C ||.||...

    Returns (lhs, rhs_without_C) where the right side already carries the
    sigma 2^sigma prefactor: rhs = sigma 2^sigma ||theta||_{Hdot^{2-2a}}
    ||theta||^2_{Hdot^{sigma+a}}.  Both sides are cubic in theta, so their
    ratio is exactly invariant under rescaling the field.
    """
    if not sigma >= 1.0:
        raise ValueError(f"need sigma >= 1, got {sigma}")
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    term = advect(theta, theta)
    lhs = abs(scalar_product(term, theta, sigma, homogeneous=False))
    rhs = (
        sigma
        * 2.0**sigma
        * hom_norm(theta, 2.0 - 2.0 * alpha)
        * hom_norm(theta, sigma + alpha) ** 2
    )
    return lhs, rhs


def check_bilinear(omega, theta, alpha):
    """The two cross-advection bounds at order 2 - 2*alpha.

    The pairing |<u_omega . grad theta, theta>_{H^{2-2a}}| is computed once;
    returned are its ratios against
    ||omega||_{Hdot^{2-a}} ||theta||_{Hdot^{2-2a}} ||theta||_{Hdot^{2-a}}
    and against ||omega||_{Hdot^{2-2a}} ||theta||^2_{Hdot^{2-a}}.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    if not omega.lattice.compatible(theta.lattice):
        raise ValueError("fields live on different lattices")
    s = 2.0 - 2.0 * alpha
    term = advect(omega, theta)
    lhs = abs(scalar_product(term, theta, s, homogeneous=False))
    th_crit, th_high = hom_norm(theta, s), hom_norm(theta, 2.0 - alpha)
    first = _safe_ratio(lhs, hom_norm(omega, 2.0 - alpha) * th_crit * th_high)
    second = _safe_ratio(lhs, hom_norm(omega, s) * th_high**2)
    return first, second


def check_exp_kernel(h, sigma, t_end):
    """Both sides of (int e^{-s(T-z)} h dz)^2 <= (2/s) int e^{-s(T-z)} h^2 dz.

    ``h`` holds nonnegative samples on the uniform grid over [0, t_end];
    both sides use the trapezoid rule on that grid.  The discrete inequality
    can overshoot the continuum one by at most a factor
    1 + (sigma*dz)^2/12, covered by :func:`exp_kernel_tolerance`.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 1 or h.size < 2:
        raise ValueError("h must be a 1-d array with at least two samples")
    if np.any(h < 0.0):
        raise ValueError("h must be nonnegative")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    z = np.linspace(0.0, t_end, h.size)
    kernel = np.exp(-sigma * (t_end - z))
    lhs = float(np.trapezoid(kernel * h, z)) ** 2
    rhs = (2.0 / sigma) * float(np.trapezoid(kernel * h**2, z))
    return lhs, rhs


def exp_kernel_tolerance(sigma, dz):
    """Relative slack allowed for the trapezoidal exponential-kernel check."""
    return (sigma * dz) ** 2 / 8.0 + 1e-9


def _cauchy_advection_ratio(theta, alpha):
    # ||u.grad theta||_{L2} <= C ||theta||_{Hdot^{2a}} ||theta||_{Hdot^{2-2a}},
    # the product-law shape used by the Cauchy-in-time estimate
    lhs = hom_norm(advect(theta, theta), 0.0)
    denom = hom_norm(theta, 2.0 * alpha) * hom_norm(theta, 2.0 - 2.0 * alpha)
    return _safe_ratio(lhs, denom)


def _draw(spec, rng):
    if spec.lattice is None:
        raise ValueError("lemma ensembles over fields need a lattice")
    if spec.generator == "multi_mode" and "modes" in spec.params:
        return multi_mode_field(spec.lattice, spec.params["modes"])
    return draw_field(spec.generator, spec.lattice, rng, spec.params)


class _Tally:
    def __init__(self):
        self.max_ratio = 0.0
        self.violations = 0
        self.degenerate = 0

    def add(self, ratio):
        if ratio is None:
            return
        if math.isinf(ratio):
            self.violations += 1
        elif ratio == 0.0:
            self.degenerate += 1
        else:
            self.max_ratio = max(self.max_ratio, ratio)

    def add_explicit(self, lhs, rhs, tol):
        # shapes whose constant is built in: excess beyond tol is a violation
        if rhs == 0.0:
            if lhs > 0.0:
                self.violations += 1
            else:
                self.degenerate += 1
            return
        ratio = lhs / rhs
        self.max_ratio = max(self.max_ratio, ratio)
        if ratio > 1.0 + tol:
            self.violations += 1


def estimate_constant(spec, which, params=None):
    """Run one lemma shape over the ensemble and report the constant estimate.

    ``which`` is one of LEMMA_IDS (plus the internal "cauchy-advection"
    shape).  Deterministic for a fixed EnsembleSpec.seed.
    """
    if which not in LEMMA_IDS and which not in _EXTRA_IDS:
        raise ValueError(f"unknown lemma id {which!r}; choose from {LEMMA_IDS}")
    if spec.count < MIN_SAMPLES:
        raise ValueError(f"constant estimation needs at least {MIN_SAMPLES} samples")
    params = dict(params or {})
    rng = np.random.default_rng(spec.seed)
    tally = _Tally()

    if which == "elementary":
        lo, hi = params.get("mag_range", (0.0, 10.0))
        s_lo, s_hi = params.get("sigma_range", (1.0, 2.0))
        a = rng.uniform(lo, hi, size=spec.count)
        c = rng.uniform(lo, hi, size=spec.count)
        s = rng.uniform(s_lo, s_hi, size=spec.count)
        lhs, rhs = check_elementary(a, c, s)
        zero = rhs == 0.0
        tally.degenerate = int(np.count_nonzero(zero & (lhs == 0.0)))
        tally.violations = int(
            np.count_nonzero((zero & (lhs > 0.0)) | (~zero & (lhs > rhs * (1 + 1e-12))))
        )
        good = ~zero
        tally.max_ratio = float(np.max(lhs[good] / rhs[good])) if good.any() else 0.0

    elif which == "2.5-expkernel":
        grid = int(params.get("grid", 201))
        s_lo, s_hi = params.get("sigma_range", (0.05, 10.0))
        t_lo, t_hi = params.get("t_range", (0.1, 5.0))
        for _ in range(spec.count):
            sigma = float(rng.uniform(s_lo, s_hi))
            t_end = float(rng.uniform(t_lo, t_hi))
            # piecewise-constant profile on a handful of random segments
            segments = int(rng.integers(1, 12))
            levels = rng.uniform(0.0, 3.0, size=segments)
            h = np.repeat(levels, math.ceil(grid / segments))[:grid]
            lhs, rhs = check_exp_kernel(h, sigma, t_end)
            tally.add_explicit(lhs, rhs, exp_kernel_tolerance(sigma, t_end / (grid - 1)))

    elif which in ("2.1-productlaw-two-term", "2.2-productlaw"):
        s1 = params.get("s1", 0.25)
        s2 = params.get("s2", 0.25)
        want_product = which == "2.2-productlaw"
        riesz_pairs = bool(params.get("riesz_pairs", True))
        for _ in range(spec.count):
            f = _draw(spec, rng)
            g = _draw(spec, rng)
            pairs = [(f, g)]
            if riesz_pairs:
                u1, u2 = riesz_velocity(f)
                pairs += [(f, u1), (f, u2)]
            for a, b in pairs:
                two_term, product = check_product_law(a, b, s1, s2)
                tally.add(product if want_product else two_term)

    elif which == "2.3-trilinear":
        alpha = params.get("alpha", 0.25)
        sigmas = params.get("sigma", (1.0, 2.0 - 2.0 * alpha))
        if np.isscalar(sigmas):
            sigmas = (float(sigmas),)
        for _ in range(spec.count):
            theta = _draw(spec, rng)
            for sigma in sigmas:
                lhs, rhs = check_trilinear(theta, sigma, alpha)
                tally.add(_safe_ratio(lhs, rhs))

    elif which == "2.4-bilinear":
        alpha = params.get("alpha", 0.25)
        form = params.get("form", "both")
        include_self = bool(params.get("include_self", True))
        for _ in range(spec.count):
            omega = _draw(spec, rng)
            theta = _draw(spec, rng)
            pairs = [(omega, theta)]
            if include_self:
                pairs.append((theta, theta))
            for w, t in pairs:
                first, second = check_bilinear(w, t, alpha)
                if form in ("2.5", "both"):
                    tally.add(first)
                if form in ("2.6", "both"):
                    tally.add(second)

    else:  # cauchy-advection
        alpha = params.get("alpha", 0.25)
        for _ in range(spec.count):
            tally.add(_cauchy_advection_ratio(_draw(spec, rng), alpha))

    lattice_n = spec.lattice.n if spec.lattice is not None else 0
    box_len = spec.lattice.box_len if spec.lattice is not None else 0.0
    return LemmaReport(
        lemma_id=which,
        samples=spec.count,
        max_ratio=tally.max_ratio,
        violations=tally.violations,
        estimated_constant=tally.max_ratio,
        seed=spec.seed,
        lattice_n=lattice_n,
        box_len=box_len,
        params=params,
        degenerate_samples=tally.degenerate,
    )


_EPS0_CACHE = {}


def default_smallness_threshold(alpha, n=32, count=48, seed=20):
    """Calibrated smallness threshold 0.25 / C_hat(alpha).

    C_hat(alpha) is the empirical constant of the order-(2-2a) advection
    pairing bound (the shape driving the small-data energy ledger), taken as
    the maximum over a broadband Gaussian ensemble and a low-wavenumber
    few-mode ensemble (the latter is where the ratio peaks).  Deterministic
    for fixed arguments; the result is a calibration, not a sharp constant.
    """
    key = (round(float(alpha), 12), n, count, seed)
    cached = _EPS0_CACHE.get(key)
    if cached is not None:
        return cached
    from .spectral import make_lattice

    lattice = make_lattice(n, 2.0 * math.pi)
    best = 0.0
    for generator in ("multi_mode", "gaussian"):
        spec = EnsembleSpec(
            count=count, generator=generator, seed=seed, lattice=lattice
        )
        report = estimate_constant(
            spec, "2.4-bilinear", {"alpha": alpha, "form": "2.6"}
        )
        best = max(best, report.estimated_constant)
    if not best > 0.0:
        raise RuntimeError("degenerate calibration ensemble")
    value = 0.25 / best
    _EPS0_CACHE[key] = value
    return value
