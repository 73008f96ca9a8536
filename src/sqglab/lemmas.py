"""Randomized numerical verification of the supporting inequalities.

Each check returns both sides (or the ratio) of one inequality shape; the
ensemble driver :func:`estimate_constant` sweeps a seeded family of random
fields and reports the largest observed LHS/RHS ratio.  For the shapes whose
constant is not explicit, that maximum *is* the empirical constant estimate;
it is an ensemble maximum, never a claim of sharpness.  A "violation" means
the inequality shape failed outright: a positive left side against a zero
right side (no finite constant works), or, for the shapes with explicit
constants, an excess beyond the quadrature tolerance.

The scalar ensembles run in memory that does not grow with the sample
count: elementary samples are drawn and tallied in fixed slices, from three
copies of the seed's stream advanced to the offsets of a whole-array draw
(see :func:`_elementary_draws`), and exponential-kernel profiles are drawn
and checked in fixed blocks of rows (one :func:`check_exp_kernel` call per
block).  A block of profiles is drawn from one raw block of the seed's PCG64
outputs, walked in Python ints in the order of the per-row scalar calls
(sigma, t_end, segment count, levels; see :func:`_exp_kernel_draws`), so no
Generator call is made per row.  The trilinear shape forms its advection
term once per field for every sigma.  The random draws keep their per-sample
values and order, so the reports do not depend on the block sizes.

The field shapes work on the rfft2 half spectrum through private cores that
the public ``check_*`` functions wrap.  A product-law sample makes one kernel
call: f is transformed once against the stack (g, u1, u2) of its partners,
and f's norms are taken once.  A bilinear sample makes one kernel call for
the pairs (omega, theta) and (theta, theta), which share grad(theta), and
norms omega and theta once each.  Each stack of half spectra is normed at
all its orders by one call of :func:`sqglab.norms._sq_norms`, which squares
it once.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# multi_mode_field, multiply and scalar_product are not called here any more;
# they stay bound in this module because perfbench/spans.py wraps them
from .fields import _GENERATORS, _generator_row, draw_field, multi_mode_field  # noqa: F401
from .norms import _half_pairings, _sq_norms, hom_norm, scalar_product  # noqa: F401
from .spectral import (  # noqa: F401
    _ALPHA,
    _Open,
    _advection_coeffs,
    _check_fields,
    _checked,
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


# One row per lemma shape: every params key it reads, with its default;
# whether it draws fields, and so needs EnsembleSpec.lattice; and, for a shape
# sqglab verify offers, the params it passes at --alpha, as a function of
# alpha, and its default sample count.
_Shape = namedtuple("_Shape", "defaults fields at_alpha samples", defaults=(None, 200))
_PRODUCT_LAW = _Shape({"s1": 0.25, "s2": 0.25}, True, lambda a: {"s1": 1.0 - 2.0 * a, "s2": a})
_SHAPES = {
    "elementary": _Shape(
        {"mag_range": (0.0, 10.0), "sigma_range": (1.0, 2.0)}, False, lambda a: {}, 1_000_000
    ),
    "2.1-productlaw-two-term": _PRODUCT_LAW,
    "2.2-productlaw": _PRODUCT_LAW,
    # sigma None stands for the orders (1, 2 - 2 alpha)
    "2.3-trilinear": _Shape({"alpha": 0.25, "sigma": None}, True, lambda a: {"alpha": a}),
    "2.4-bilinear": _Shape({"alpha": 0.25, "form": "both"}, True, lambda a: {"alpha": a}),
    "2.5-expkernel": _Shape(
        {"grid": 201, "sigma_range": (0.05, 10.0), "t_range": (0.1, 5.0)}, False,
        lambda a: {}, 10_000,
    ),
    "cauchy-advection": _Shape({"alpha": 0.25}, True),
}

# the shapes sqglab verify offers, in its order
LEMMA_IDS = tuple(which for which, shape in _SHAPES.items() if shape.at_alpha is not None)

MIN_SAMPLES = 10  # smallest ensemble estimate_constant accepts
_SAMPLES = ("whole", MIN_SAMPLES)  # the rule row of its sample count

# batch sizes of the scalar ensembles; they bound the working memory and
# change no reported number.  A slice of 8,192 doubles is 64 KiB, under
# glibc's default 128 KiB mmap threshold, so the next slice reuses its heap
# buffers instead of faulting in freshly mapped pages.  A block of 256 profiles
# on the default 201-point grid is 400 KB, near a per-core L2 cache (1-2 MB)
_ELEMENTARY_CHUNK = 8_192
_EXP_KERNEL_BLOCK = 256

# An exp-kernel row draws its segment count with integers(1, 12): numpy's
# Lemire rule on a 32-bit output u gives 1 + (11 u >> 32) and draws u again
# while (11 u) mod 2**32 < 2**32 mod 11.  Without such a redraw a row takes
# at most 3 + 11 64-bit outputs: sigma, t_end, one integer output, the levels.
_SEGMENTS = 11
_LEMIRE_REJECT = 2**32 % _SEGMENTS
_EXP_KERNEL_ROW_OUTPUTS = 3 + _SEGMENTS


# One rule row per EnsembleSpec field, read by sqglab.spectral._checked; the
# lattice is checked by the lemma that reads it, and params by draw_field's check.
_SPEC_RULES = {"count": ("whole", 1), "generator": (tuple(_GENERATORS),), "seed": ("whole", 0)}


@dataclass
class EnsembleSpec:
    """Sampling plan: how many fields, from which family, on which lattice.

    ``params`` are the family's :func:`sqglab.fields.draw_field` params, checked
    by it when the spec is built: keys of the family's ``_GENERATORS`` row, or,
    for ``multi_mode``, ``modes`` alone, (j1, j2, amplitude, phase) tuples that
    every sample repeats.
    """

    count: int
    generator: str = "gaussian"
    seed: int = 0
    lattice: object = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_fields(self, _SPEC_RULES)
        _generator_row(self.generator, self.params)


@dataclass
class LemmaReport:
    """Outcome of one verification ensemble.

    ``max_ratio`` is the largest LHS/RHS-without-constant observed and
    doubles as ``estimated_constant``; ``violations`` must be zero on pass.
    Degenerate samples are counted apart and excluded from the ratio: for
    the field shapes, those whose left side is 0, whatever the right side;
    for ``elementary`` and ``2.5-expkernel``, those where both sides are 0.
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


def _product_law_core(lat, f, gs, s1, s2):
    """Product-law ratio pairs of the half spectrum ``f`` against each of ``gs``.

    ``gs`` stacks k half spectra, shape (k, n, n//2 + 1); the k products are
    formed in one kernel call that transforms ``f`` once.  Returns one
    (two_term_ratio, product_ratio) per partner, as in check_product_law.
    """
    products, _ = _quadratic_coeffs(lat, f[None, None], gs[:, None])
    (lhs,) = np.sqrt(_sq_norms(lat, products, (s1 + s2 - 1.0,))).tolist()
    stack = np.concatenate((f[None], gs))
    (f1, *g1s), (f2, *g2s) = np.sqrt(_sq_norms(lat, stack, (s1, s2))).tolist()
    ratios = []
    for left, g1, g2 in zip(lhs, g1s, g2s):
        two_term = _safe_ratio(left, f1 * g2 + f2 * g1)
        product = _safe_ratio(left, f1 * g2) if s2 < 1.0 else None
        ratios.append((two_term, product))
    return ratios


def _check_product_orders(s1, s2):
    """Raise ValueError unless s1 and s2 are finite, s1 < 1 and s1 + s2 > 0."""
    _checked("s1", s1, "real", None, _Open(1.0))
    _checked("s2", s2, "real")
    if not s1 + s2 > 0.0:
        raise ValueError(f"need s1 + s2 > 0, got {s1 + s2}")


def check_product_law(f, g, s1, s2):
    """Ratios for the two product laws at order s1 + s2 - 1.

    Returns (two_term_ratio, product_ratio): the left side ||fg|| divided by
    ||f||_{s1} ||g||_{s2} + ||f||_{s2} ||g||_{s1} and by ||f||_{s1} ||g||_{s2}
    respectively.  The second form needs s2 < 1 and is None otherwise.
    Requires s1 < 1 and s1 + s2 > 0; the product is dealiased and mean-free,
    so negative orders are well defined.
    """
    f._check(g)
    _check_product_orders(s1, s2)
    return _product_law_core(f.lattice, f.half, g.half[None], s1, s2)[0]


def _trilinear_orders(sigma):
    """The trilinear orders ``sigma`` (one or a sequence) as a tuple: non-empty, each >= 1."""
    sigmas = (sigma,) if np.isscalar(sigma) else tuple(sigma)
    if not sigmas:
        raise ValueError("sigma must list at least one order")
    return tuple(_checked("sigma", s, "real", 1.0) for s in sigmas)


def check_trilinear(theta, sigma, alpha):
    """Both sides of |<u.grad theta, theta>_{H^sigma}| <= sigma 2^sigma C ||.||...

    Returns (lhs, rhs_without_C) where the right side already carries the
    sigma 2^sigma prefactor: rhs = sigma 2^sigma ||theta||_{Hdot^{2-2a}}
    ||theta||^2_{Hdot^{sigma+a}}.  Both sides are cubic in theta, so their
    ratio is exactly invariant under rescaling the field.

    ``sigma`` may also be a non-empty sequence of orders; the advection term
    and ||theta||_{Hdot^{2-2a}} are then formed once, and one (lhs, rhs) pair
    is returned per order, in order.
    """
    scalar = np.isscalar(sigma)
    sigmas = _trilinear_orders(sigma)
    _checked("alpha", alpha, *_ALPHA)
    lat, th = theta.lattice, theta.half
    term = advect(theta, theta).half
    orders = (2.0 - 2.0 * alpha, *(s + alpha for s in sigmas))
    crit_sq, *high_sq = _sq_norms(lat, th, orders).tolist()
    crit = math.sqrt(crit_sq)
    pairs = [
        (
            abs(float(_half_pairings(lat, term, th, s, homogeneous=False))),
            s * 2.0**s * crit * sq,
        )
        for s, sq in zip(sigmas, high_sq)
    ]
    return pairs[0] if scalar else pairs


def _bilinear_core(lat, pair, alpha):
    """Bilinear ratio pairs from the half spectra ``pair`` = (omega, theta).

    The advection terms of (omega, theta) and (theta, theta) come from one
    kernel call sharing grad(theta); the norms of omega and theta are taken
    once each.  Returns one (first, second) per pair, as in check_bilinear,
    which keeps the first.
    """
    s = 2.0 - 2.0 * alpha
    theta = pair[1]
    terms, _ = _advection_coeffs(lat, pair, theta)
    lhs = np.abs(_half_pairings(lat, terms, theta, s, homogeneous=False)).tolist()
    crit, high = np.sqrt(_sq_norms(lat, pair, (s, 2.0 - alpha))).tolist()
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
    _checked("alpha", alpha, *_ALPHA)
    pair = np.stack((omega.half, theta.half))
    return _bilinear_core(omega.lattice, pair, alpha)[0]


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
    h = np.ascontiguousarray(h, dtype=float)
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
    # linspace along the last axis is a transposed view; a C-ordered copy
    # keeps every pass over the grid contiguous, and each trapezoid sum then
    # reduces C-ordered rows, as a 1-d call does
    z = np.ascontiguousarray(np.linspace(0.0, t_end, rows.shape[1], axis=-1))
    dz = np.diff(z, axis=-1)
    kernel = np.subtract(t_end[:, None], z, out=z)  # e^{-sigma (t_end - z)}, in z's buffer
    kernel *= -sigma[:, None]
    np.exp(kernel, out=kernel)
    y, pair = kernel * rows, np.empty_like(dz)
    first = _trapezoid(y, dz, pair)
    # Python's float ** (libm pow) can differ from numpy's square by an ulp
    lhs = np.array([float(v) ** 2 for v in first])
    y = np.square(rows, out=y)
    y *= kernel
    rhs = (2.0 / sigma) * _trapezoid(y, dz, pair)
    if h.ndim == 1:
        return float(lhs[0]), float(rhs[0])
    return lhs, rhs


def _trapezoid(y, dz, pair):
    """``np.trapezoid(y, z, axis=-1)`` by numpy's own formula, given dz = diff(z).

    The formula, add.reduce(dz * (y[..., 1:] + y[..., :-1]) / 2.0), is
    evaluated in the buffer ``pair`` (shaped like dz); a product does not
    depend on its operand order, so the result is numpy's bit for bit.
    """
    np.add(y[..., 1:], y[..., :-1], out=pair)
    pair *= dz
    pair /= 2.0
    return np.add.reduce(pair, axis=-1)


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
    return draw_field(spec.generator, spec.lattice, rng, spec.params)


def _elementary_draws(spec, lo, hi, s_lo, s_hi):
    """The elementary samples (a, c, sigma) in slices of _ELEMENTARY_CHUNK.

    ``Generator.uniform`` takes one 64-bit PCG64 output per double, so
    sample i of a, c and sigma is draw i, count + i and 2 count + i of the
    stream of ``default_rng(spec.seed)``: the values of three whole-array
    draws of ``count`` each.  Three copies of that stream, advanced to
    those offsets, give each slice without holding the arrays.
    """
    count = spec.count
    streams = [np.random.default_rng(spec.seed) for _ in range(3)]
    for k, stream in enumerate(streams):
        stream.bit_generator.advance(k * count)
    a_rng, c_rng, s_rng = streams
    for start in range(0, count, _ELEMENTARY_CHUNK):
        size = min(_ELEMENTARY_CHUNK, count - start)
        yield (
            a_rng.uniform(lo, hi, size=size),
            c_rng.uniform(lo, hi, size=size),
            s_rng.uniform(s_lo, s_hi, size=size),
        )


def _exp_kernel_draws(rng, count, grid, sigma_range, t_range):
    """The exp-kernel profiles (sigma, t_end, h) in blocks of _EXP_KERNEL_BLOCK rows.

    Row i holds the values of the scalar calls ``rng.uniform(*sigma_range)``,
    ``rng.uniform(*t_range)``, ``segments = rng.integers(1, 12)`` and
    ``rng.uniform(0.0, 3.0, size=segments)``, made row after row; its h
    repeats each level over ceil(grid / segments) points, cut to ``grid``.
    Each block replays those calls on one raw block of ``rng``'s PCG64
    outputs (see :func:`_exp_kernel_block`) and leaves ``rng`` where the
    calls would have left it.
    """
    for start in range(0, count, _EXP_KERNEL_BLOCK):
        rows = min(_EXP_KERNEL_BLOCK, count - start)
        yield _exp_kernel_block(rng.bit_generator, rows, grid, sigma_range, t_range)


def _exp_kernel_block(bits, rows, grid, sigma_range, t_range):
    """``rows`` profiles of :func:`_exp_kernel_draws`, replayed on raw outputs of ``bits``.

    * a uniform double is one 64-bit output x, lo + (hi - lo) * ((x >> 11) * 2**-53);
    * a 32-bit output for integers(1, 12) is the buffered high half of the
      last 64-bit output split (the state's has_uint32 and uinteger), else
      the low half of a fresh output, whose high half is then buffered.

    The walk over the block reads only the integer outputs, in Python ints;
    the doubles and the profiles are gathered with numpy.  The block is drawn
    for rows without a Lemire redraw and extended if redraws use up its slack;
    then ``bits`` is set to the position and buffer the scalar calls reach.
    """
    begin = bits.state
    has, buf = begin["has_uint32"], begin["uinteger"]
    blocks = [bits.random_raw(rows * _EXP_KERNEL_ROW_OUTPUTS)]
    raw = blocks[0].tolist()
    firsts, segments, p = [], [], 0
    for i in range(rows):
        firsts.append(p)
        p += 2  # sigma and t_end
        while True:
            if len(raw) < p + 1 + _SEGMENTS:
                blocks.append(bits.random_raw((rows - i) * _EXP_KERNEL_ROW_OUTPUTS))
                raw += blocks[-1].tolist()
            if has:
                u, has = buf, 0
            else:
                x = raw[p]
                p += 1
                u, buf, has = x & 0xFFFFFFFF, x >> 32, 1
            m = u * _SEGMENTS
            if m & 0xFFFFFFFF >= _LEMIRE_REJECT:
                break
        segments.append(1 + (m >> 32))
        p += segments[-1]
    bits.state = begin
    bits.advance(p)
    end = bits.state
    end["has_uint32"], end["uinteger"] = has, buf
    bits.state = end

    unit = (np.concatenate(blocks) >> np.uint64(11)) * 2.0**-53
    firsts, segments = np.array(firsts), np.array(segments)
    ends = np.cumsum(segments)
    row_of = np.repeat(np.arange(rows), segments)
    # level j of the block (row r, r's level k) is the output that lies
    # segments[r] - k before the next row's first output (p after the last)
    level_at = (np.append(firsts[1:], p) - ends)[row_of] + np.arange(ends[-1])
    k = np.arange(ends[-1]) - (ends - segments)[row_of]
    width = (-(-grid // segments))[row_of]
    counts = np.clip(grid - k * width, 0, width)
    h = np.repeat(_uniform(0.0, 3.0, unit[level_at]), counts).reshape(rows, grid)
    return _uniform(*sigma_range, unit[firsts]), _uniform(*t_range, unit[firsts + 1]), h


def _uniform(lo, hi, unit):
    """Generator.uniform(lo, hi) for the unit doubles ``unit``, by numpy's formula."""
    return lo + (hi - lo) * unit


def _range(name, pair, low):
    """``pair`` = (lo, hi) as floats, checked: both finite, low <= lo <= hi (lo > an _Open low)."""
    lo, hi = pair
    lo = _checked(f"{name} low end", lo, "real", low)
    return float(lo), float(_checked(f"{name} high end", hi, "real", lo))


class _Tally:
    def __init__(self):
        self.max_ratio = 0.0
        self.violations = 0
        self.degenerate = 0

    def add(self, ratio):
        if ratio is None:
            return
        if not math.isfinite(ratio):  # no finite constant, or a NaN sample
            self.violations += 1
        elif ratio == 0.0:
            self.degenerate += 1
        else:
            self.max_ratio = max(self.max_ratio, ratio)

    def add_explicit(self, lhs, rhs, tol):
        """Tally one sample per entry of ``lhs`` and ``rhs`` (a scalar is one sample).

        For the shapes whose constant is built in: a non-finite side, a
        positive left side against a zero right side, or a ratio beyond
        1 + ``tol`` (scalar or one per entry) is a violation.
        """
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        finite = np.isfinite(lhs) & np.isfinite(rhs)
        zero = finite & (rhs == 0.0)
        positive = lhs > 0.0
        # 0 where a sample has no ratio; max_ratio starts at 0
        ratio = np.divide(lhs, rhs, out=np.zeros_like(lhs), where=finite & ~zero)
        self.violations += int(
            np.count_nonzero(~finite)
            + np.count_nonzero(zero & positive)
            + np.count_nonzero(ratio > 1.0 + np.asarray(tol))
        )
        self.degenerate += int(np.count_nonzero(zero & ~positive))
        self.max_ratio = max(self.max_ratio, float(ratio.max()))


def estimate_constant(spec, which, params=None):
    """Run one lemma shape over the ensemble and report the constant estimate.

    ``which`` is one of LEMMA_IDS (plus the internal "cauchy-advection"
    shape).  ``params`` may hold only the keys that shape reads, listed with
    their defaults in its ``_SHAPES`` row.  Any other key, a value out of its
    range, or a field shape without ``spec.lattice`` raises ValueError
    before the first draw.  Deterministic for a fixed EnsembleSpec.seed.
    """
    shape = _SHAPES.get(which) if isinstance(which, str) else None
    if shape is None:
        raise ValueError(f"unknown lemma id {which!r}; choose from {LEMMA_IDS}")
    _checked("constant estimation samples", spec.count, *_SAMPLES)
    params = dict(params or {})
    for key in params:
        if key not in shape.defaults:
            raise ValueError(
                f"{which} reads no parameter {key!r}; it reads " + ", ".join(shape.defaults)
            )
    if shape.fields and spec.lattice is None:
        raise ValueError(f"{which} draws fields and needs a lattice")
    p = {**shape.defaults, **params}
    if "alpha" in p:
        _checked("alpha", p["alpha"], *_ALPHA)
    rng = np.random.default_rng(spec.seed)
    tally = _Tally()

    if which == "elementary":
        mags = _range("mag_range", p["mag_range"], 0.0)
        orders = _range("sigma_range", p["sigma_range"], 1.0)
        for a_part, c_part, s_part in _elementary_draws(spec, *mags, *orders):
            tally.add_explicit(*check_elementary(a_part, c_part, s_part), 1e-12)

    elif which == "2.5-expkernel":
        grid = _checked("grid", p["grid"], "whole", 2)
        sigma_range = _range("sigma_range", p["sigma_range"], _Open(0.0))
        t_range = _range("t_range", p["t_range"], _Open(0.0))
        for sigmas, t_ends, h in _exp_kernel_draws(rng, spec.count, grid, sigma_range, t_range):
            # one tolerance per row, each through Python's ** (libm pow)
            tols = [
                exp_kernel_tolerance(sigma, t_end / (grid - 1))
                for sigma, t_end in zip(sigmas.tolist(), t_ends.tolist())
            ]
            tally.add_explicit(*check_exp_kernel(h, sigmas, t_ends), tols)

    elif which in ("2.1-productlaw-two-term", "2.2-productlaw"):
        s1, s2 = p["s1"], p["s2"]
        _check_product_orders(s1, s2)
        want_product = which == "2.2-productlaw"
        for _ in range(spec.count):
            f, g = _draw(spec, rng).half, _draw(spec, rng).half
            # f against g and against its own Riesz velocity (u1, u2)
            velocity = _half_multipliers(spec.lattice)[0]
            partners = np.concatenate((g[None], velocity * f))
            for two_term, product in _product_law_core(spec.lattice, f, partners, s1, s2):
                tally.add(product if want_product else two_term)

    elif which == "2.3-trilinear":
        sigma = p["sigma"]
        sigmas = _trilinear_orders((1.0, 2.0 - 2.0 * p["alpha"]) if sigma is None else sigma)
        for _ in range(spec.count):
            theta = _draw(spec, rng)
            for lhs, rhs in check_trilinear(theta, sigmas, p["alpha"]):
                tally.add(_safe_ratio(lhs, rhs))

    elif which == "2.4-bilinear":
        form = _checked("form", p["form"], ("2.5", "2.6", "both"))
        for _ in range(spec.count):
            omega, theta = _draw(spec, rng), _draw(spec, rng)
            pair = np.stack((omega.half, theta.half))
            for first, second in _bilinear_core(spec.lattice, pair, p["alpha"]):
                if form in ("2.5", "both"):
                    tally.add(first)
                if form in ("2.6", "both"):
                    tally.add(second)

    else:  # cauchy-advection
        for _ in range(spec.count):
            tally.add(_cauchy_advection_ratio(_draw(spec, rng), p["alpha"]))

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


def default_smallness_threshold(alpha):
    """Calibrated smallness threshold 0.25 / C_hat(alpha).

    C_hat(alpha) is the empirical constant of the order-(2-2a) advection
    pairing bound (the shape driving the small-data energy ledger), taken as
    the maximum over a broadband Gaussian ensemble and a low-wavenumber
    few-mode ensemble (the latter is where the ratio peaks), each of 48
    fields at n 32 on the 2 pi box, seed 20.  Deterministic in alpha; the
    result is a calibration, not a sharp constant.
    """
    key = round(float(alpha), 12)
    cached = _EPS0_CACHE.get(key)
    if cached is not None:
        return cached
    from .spectral import make_lattice

    lattice = make_lattice(32, 2.0 * math.pi)
    best = 0.0
    for generator in ("multi_mode", "gaussian"):
        spec = EnsembleSpec(count=48, generator=generator, seed=20, lattice=lattice)
        report = estimate_constant(spec, "2.4-bilinear", {"alpha": alpha, "form": "2.6"})
        best = max(best, report.estimated_constant)
    if not best > 0.0:
        raise RuntimeError("degenerate calibration ensemble")
    value = 0.25 / best
    _EPS0_CACHE[key] = value
    return value
