"""Randomized numerical verification of the supporting inequalities.

Each check returns both sides (or the ratio) of one inequality shape; the
ensemble driver :func:`estimate_constant` sweeps a seeded family of random
fields and reports the largest observed LHS/RHS ratio.  For the shapes whose
constant is not explicit, that maximum *is* the empirical constant estimate;
it is an ensemble maximum, never a claim of sharpness.  A "violation" means
the inequality shape failed outright: a positive left side against a zero
right side (no finite constant works), or, for the shapes with explicit
constants, an excess beyond the quadrature tolerance.

The scalar ensembles are evaluated in batches: elementary samples in fixed
slices of the drawn arrays, exponential-kernel profiles in fixed blocks of
rows (one :func:`check_exp_kernel` call per block), and the trilinear shape
forms its advection term once per field for every sigma.  The random draws
keep their per-sample order, so the reports do not depend on the block sizes.

The field shapes work on the rfft2 half spectrum through private cores that
the public ``check_*`` functions wrap.  A product-law sample makes one kernel
call: f is transformed once against the stack (g, u1, u2) of its partners,
and f's norms are taken once.  A bilinear sample makes one kernel call for
the pairs (omega, theta) and (theta, theta), which share grad(theta), and
norms omega and theta once each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import draw_field, multi_mode_field
# multiply and scalar_product are not called here any more; they stay bound
# in this module because perfbench/spans.py wraps them
from .norms import (  # noqa: F401
    _half,
    _half_pairings,
    _half_sq_norms,
    hom_norm,
    scalar_product,
)
from .spectral import (  # noqa: F401
    _advection_coeffs,
    _half_multipliers,
    _quadratic_coeffs,
    advect,
    multiply,
)

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

# batch sizes of the scalar ensembles; they bound the working memory and
# change no reported number
_ELEMENTARY_CHUNK = 65_536
_EXP_KERNEL_BLOCK = 1024


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


def _norms(lat, half, s):
    """Hdot^s norms of a stack of half spectra, as Python floats."""
    return np.sqrt(_half_sq_norms(lat, half, s)).tolist()


def _product_law_core(lat, f, gs, s1, s2):
    """Product-law ratio pairs of the half spectrum ``f`` against each of ``gs``.

    ``gs`` stacks k half spectra, shape (k, n, n//2 + 1); the k products are
    formed in one kernel call that transforms ``f`` once.  Returns one
    (two_term_ratio, product_ratio) per partner, as in check_product_law.
    """
    if not s1 < 1.0:
        raise ValueError(f"need s1 < 1, got s1={s1}")
    if not s1 + s2 > 0.0:
        raise ValueError(f"need s1 + s2 > 0, got {s1 + s2}")
    products, _ = _quadratic_coeffs(lat, f[None, None], gs[:, None])
    lhs = _norms(lat, products, s1 + s2 - 1.0)
    fields = np.concatenate((f[None], gs))
    (f1, *g1s), (f2, *g2s) = _norms(lat, fields, s1), _norms(lat, fields, s2)
    ratios = []
    for left, g1, g2 in zip(lhs, g1s, g2s):
        two_term = _safe_ratio(left, f1 * g2 + f2 * g1)
        product = _safe_ratio(left, f1 * g2) if s2 < 1.0 else None
        ratios.append((two_term, product))
    return ratios


def check_product_law(f, g, s1, s2):
    """Ratios for the two product laws at order s1 + s2 - 1.

    Returns (two_term_ratio, product_ratio): the left side ||fg|| divided by
    ||f||_{s1} ||g||_{s2} + ||f||_{s2} ||g||_{s1} and by ||f||_{s1} ||g||_{s2}
    respectively.  The second form needs s2 < 1 and is None otherwise.
    Requires s1 < 1 and s1 + s2 > 0; the product is dealiased and mean-free,
    so negative orders are well defined.
    """
    f._check(g)
    return _product_law_core(f.lattice, _half(f), _half(g)[None], s1, s2)[0]


def check_trilinear(theta, sigma, alpha):
    """Both sides of |<u.grad theta, theta>_{H^sigma}| <= sigma 2^sigma C ||.||...

    Returns (lhs, rhs_without_C) where the right side already carries the
    sigma 2^sigma prefactor: rhs = sigma 2^sigma ||theta||_{Hdot^{2-2a}}
    ||theta||^2_{Hdot^{sigma+a}}.  Both sides are cubic in theta, so their
    ratio is exactly invariant under rescaling the field.

    ``sigma`` may also be a sequence of orders; the advection term and
    ||theta||_{Hdot^{2-2a}} are then formed once, and one (lhs, rhs) pair is
    returned per order, in order.
    """
    scalar = np.isscalar(sigma)
    sigmas = (sigma,) if scalar else tuple(sigma)
    for s in sigmas:
        if not s >= 1.0:
            raise ValueError(f"need sigma >= 1, got {s}")
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    lat, th = theta.lattice, _half(theta)
    term = _half(advect(theta, theta))
    (crit,) = _norms(lat, th[None], 2.0 - 2.0 * alpha)
    pairs = [
        (
            abs(float(_half_pairings(lat, term, th, s, homogeneous=False))),
            s * 2.0**s * crit * float(_half_sq_norms(lat, th, s + alpha)),
        )
        for s in sigmas
    ]
    return pairs[0] if scalar else pairs


def _bilinear_core(lat, pair, alpha, include_self=True):
    """Bilinear ratio pairs from the half spectra ``pair`` = (omega, theta).

    The advection terms of (omega, theta) and, with ``include_self``,
    (theta, theta) come from one kernel call sharing grad(theta); the norms
    of omega and theta are taken once each.  Returns one (first, second)
    per pair, as in check_bilinear.
    """
    if not 0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 1/2), got {alpha}")
    s = 2.0 - 2.0 * alpha
    theta = pair[1]
    terms, _ = _advection_coeffs(lat, pair if include_self else pair[:1], theta)
    lhs = np.abs(_half_pairings(lat, terms, theta, s, homogeneous=False)).tolist()
    crit, high = _norms(lat, pair, s), _norms(lat, pair, 2.0 - alpha)
    th_crit, th_high = crit[1], high[1]
    return [
        (
            _safe_ratio(left, high[i] * th_crit * th_high),
            _safe_ratio(left, crit[i] * th_high**2),
        )
        for i, left in enumerate(lhs)
    ]


def check_bilinear(omega, theta, alpha):
    """The two cross-advection bounds at order 2 - 2*alpha.

    The pairing |<u_omega . grad theta, theta>_{H^{2-2a}}| is computed once;
    returned are its ratios against
    ||omega||_{Hdot^{2-a}} ||theta||_{Hdot^{2-2a}} ||theta||_{Hdot^{2-a}}
    and against ||omega||_{Hdot^{2-2a}} ||theta||^2_{Hdot^{2-a}}.
    """
    if not omega.lattice.compatible(theta.lattice):
        raise ValueError("fields live on different lattices")
    pair = np.stack((_half(omega), _half(theta)))
    return _bilinear_core(omega.lattice, pair, alpha, include_self=False)[0]


def check_exp_kernel(h, sigma, t_end):
    """Both sides of (int e^{-s(T-z)} h dz)^2 <= (2/s) int e^{-s(T-z)} h^2 dz.

    ``h`` holds nonnegative samples on the uniform grid over [0, t_end];
    both sides use the trapezoid rule on that grid.  The discrete inequality
    can overshoot the continuum one by at most a factor
    1 + (sigma*dz)^2/12, covered by :func:`exp_kernel_tolerance`.

    A 2-d ``h`` is a block of profiles, one per row, each on its own grid:
    ``sigma`` and ``t_end`` are then scalars or hold one value per row, and
    (lhs, rhs) are arrays with one entry per row, equal to the row-by-row
    1-d results.  A 1-d ``h`` gives two floats.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim not in (1, 2) or h.shape[-1] < 2:
        raise ValueError("h must be a 1-d or 2-d array with at least two samples per row")
    if np.any(h < 0.0):
        raise ValueError("h must be nonnegative")
    rows = h.reshape(-1, h.shape[-1])
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), rows.shape[:1])
    t_end = np.broadcast_to(np.asarray(t_end, dtype=float), rows.shape[:1])
    if not np.all(sigma > 0.0):
        raise ValueError("sigma must be positive")
    if not np.all(t_end > 0.0):
        raise ValueError("t_end must be positive")
    z = np.linspace(0.0, t_end, rows.shape[1], axis=-1)
    kernel = np.exp(-sigma[:, None] * (t_end[:, None] - z))
    first = np.trapezoid(kernel * rows, z, axis=-1)
    # Python's float ** (libm pow) can differ from numpy's square by an ulp
    lhs = np.array([float(v) ** 2 for v in first])
    rhs = (2.0 / sigma) * np.trapezoid(kernel * rows**2, z, axis=-1)
    if h.ndim == 1:
        return float(lhs[0]), float(rhs[0])
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
        maxima = []
        for start in range(0, spec.count, _ELEMENTARY_CHUNK):
            part = slice(start, start + _ELEMENTARY_CHUNK)
            lhs, rhs = check_elementary(a[part], c[part], s[part])
            zero = rhs == 0.0
            tally.degenerate += int(np.count_nonzero(zero & (lhs == 0.0)))
            tally.violations += int(
                np.count_nonzero((zero & (lhs > 0.0)) | (~zero & (lhs > rhs * (1 + 1e-12))))
            )
            good = ~zero
            if good.any():
                maxima.append(np.max(lhs[good] / rhs[good]))
        tally.max_ratio = float(np.max(maxima)) if maxima else 0.0

    elif which == "2.5-expkernel":
        grid = int(params.get("grid", 201))
        s_lo, s_hi = params.get("sigma_range", (0.05, 10.0))
        t_lo, t_hi = params.get("t_range", (0.1, 5.0))
        for start in range(0, spec.count, _EXP_KERNEL_BLOCK):
            rows = min(_EXP_KERNEL_BLOCK, spec.count - start)
            sigmas, t_ends = np.empty(rows), np.empty(rows)
            h = np.empty((rows, grid))
            for i in range(rows):
                sigmas[i] = rng.uniform(s_lo, s_hi)
                t_ends[i] = rng.uniform(t_lo, t_hi)
                # piecewise-constant profile on a handful of random segments
                segments = int(rng.integers(1, 12))
                levels = rng.uniform(0.0, 3.0, size=segments)
                h[i] = np.repeat(levels, math.ceil(grid / segments))[:grid]
            lhs, rhs = check_exp_kernel(h, sigmas, t_ends)
            sides = zip(lhs.tolist(), rhs.tolist(), sigmas.tolist(), t_ends.tolist())
            for left, right, sigma, t_end in sides:
                tally.add_explicit(left, right, exp_kernel_tolerance(sigma, t_end / (grid - 1)))

    elif which in ("2.1-productlaw-two-term", "2.2-productlaw"):
        s1 = params.get("s1", 0.25)
        s2 = params.get("s2", 0.25)
        want_product = which == "2.2-productlaw"
        riesz_pairs = bool(params.get("riesz_pairs", True))
        for _ in range(spec.count):
            f, g = _draw(spec, rng), _draw(spec, rng)
            f, partners = _half(f), _half(g)[None]
            if riesz_pairs:  # the Riesz velocity (u1, u2) of f
                velocity = _half_multipliers(spec.lattice)[0]
                partners = np.concatenate((partners, velocity * f))
            for two_term, product in _product_law_core(spec.lattice, f, partners, s1, s2):
                tally.add(product if want_product else two_term)

    elif which == "2.3-trilinear":
        alpha = params.get("alpha", 0.25)
        sigmas = params.get("sigma", (1.0, 2.0 - 2.0 * alpha))
        if np.isscalar(sigmas):
            sigmas = (float(sigmas),)
        for _ in range(spec.count):
            theta = _draw(spec, rng)
            for lhs, rhs in check_trilinear(theta, sigmas, alpha):
                tally.add(_safe_ratio(lhs, rhs))

    elif which == "2.4-bilinear":
        alpha = params.get("alpha", 0.25)
        form = params.get("form", "both")
        include_self = bool(params.get("include_self", True))
        for _ in range(spec.count):
            omega, theta = _draw(spec, rng), _draw(spec, rng)
            pair = np.stack((_half(omega), _half(theta)))
            for first, second in _bilinear_core(spec.lattice, pair, alpha, include_self):
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
