"""Special functions and numerical kernels used throughout the package.

Contents
--------
q_function          Gaussian tail probability.
log_bessel_i0       ln I0(x), overflow-free far into the asymptotic regime.
marcum_q1           First-order Marcum Q with a rigorously truncated series.
ncx2_pdf, ncx2_cdf  Noncentral chi-square with two degrees of freedom.
integrate           Adaptive Gauss-Kronrod quadrature, finite or semi-infinite.
psk_constellation   Unit-power PSK points with binary-reflected Gray labels.

Everything here is pure and deterministic; all routines are safe to call
from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

__all__ = [
    "q_function",
    "log_bessel_i0",
    "marcum_q1",
    "ncx2_pdf",
    "ncx2_cdf",
    "integrate",
    "Constellation",
    "psk_constellation",
]

_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Upper tail probability of the standard normal distribution.

    Parameters
    ----------
    x : float
        Threshold; must be finite.

    Returns
    -------
    float
        P(Z > x) for Z ~ N(0, 1).  Monotone nonincreasing in ``x``; values
        below ~1e-308 underflow cleanly to 0.0.
    """
    if not math.isfinite(x):
        raise ValueError(f"q_function requires finite input, got {x!r}")
    return 0.5 * math.erfc(x / _SQRT2)


def _i0_series_log(x: np.ndarray) -> np.ndarray:
    # Power series sum_k (x^2/4)^k / (k!)^2; safe from overflow for x <= 50
    # because the largest term stays far below the float ceiling there.
    total = np.ones_like(x)
    term = np.ones_like(x)
    quarter = 0.25 * x * x
    for k in range(1, 200):
        term = term * quarter / (k * k)
        total += term
        if np.all(term <= 1e-18 * total):
            break
    return np.log(total)


def _i0_asymptotic_log(x: np.ndarray) -> np.ndarray:
    # I0(x) ~ e^x / sqrt(2 pi x) * (1 + 1/(8x) + 9/(128x^2) + ...); truncating
    # after the x^-4 term keeps the absolute log error below 1e-12 for x >= 50.
    inv = 1.0 / x
    corr = 1.0 + inv * (
        0.125 + inv * (9.0 / 128.0 + inv * (225.0 / 3072.0 + inv * (11025.0 / 98304.0)))
    )
    return x - 0.5 * np.log(2.0 * np.pi * x) + np.log(corr)


def log_bessel_i0(x):
    """Natural log of the modified Bessel function I0.

    Accepts scalars or arrays of nonnegative values.  A power series covers
    x <= 30 and an asymptotic expansion the rest, so the result stays finite
    up to x ~ 1e6 and beyond without overflow.
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.size and (np.any(arr < 0.0) or not np.all(np.isfinite(arr))):
        raise ValueError("log_bessel_i0 requires finite x >= 0")
    out = np.empty_like(arr)
    small = arr <= 50.0
    if np.any(small):
        out[small] = _i0_series_log(arr[small])
    if np.any(~small):
        out[~small] = _i0_asymptotic_log(arr[~small])
    return float(out[0]) if scalar else out.reshape(np.shape(x))


# Elements per (window rows x points) block of Poisson log-pmf values; caps
# the temporary arrays at ~8 MB whatever the window width.
_BLOCK_ELEMENTS = 1_000_000


def _poisson_pmf_dot(coef: np.ndarray, j_lo: int, y: np.ndarray) -> np.ndarray:
    """sum_k coef[k] * P(Poisson(y) = j_lo + k) for every y > 0.

    A point whose Poisson bulk y +- (13 sqrt(y) + 45) misses the window
    j_lo .. j_lo + len(coef) - 1 gets 0: its pmf there is below ~1e-30.
    The log pmf is anchored at j_lo and advanced by log(y / c) - log(j / c),
    c = max(j_lo, 1): the cumulative sum then runs over small steps, so its
    rounding stays at the level of the one anchor evaluation.
    """
    out = np.zeros_like(y)
    reach = 13.0 * np.sqrt(y) + 45.0
    near = (y + reach >= j_lo) & (y - reach < j_lo + coef.size)
    if not np.any(near):
        return out
    yn = y[near]
    c = max(j_lo, 1)
    log_yc = np.log(yn / c)
    anchor = j_lo * np.log(yn) - yn - math.lgamma(j_lo + 1)
    ks = np.arange(coef.size)
    steps = np.concatenate(([0.0], np.cumsum(np.log((j_lo + ks[1:]) / c))))
    rows = max(1, _BLOCK_ELEMENTS // yn.size)
    acc = np.zeros_like(yn)
    for start in range(0, coef.size, rows):
        block = np.multiply.outer(ks[start : start + rows], log_yc)
        block += anchor
        block -= steps[start : start + rows, None]
        acc += coef[start : start + rows] @ np.exp(block, out=block)
    out[near] = acc
    return out


def _poisson_cdf_window(y: np.ndarray, kmax: int) -> np.ndarray:
    """P(Poisson(y) <= kmax), vectorized over y, with windowed summation.

    The pmf is summed only over a window around the Poisson bulk; the mass
    outside the window is below ~1e-30, far under every tolerance used here.
    """
    out = np.empty_like(y)
    margin = 13.0 * math.sqrt(max(kmax, 1)) + 45.0
    lo = (y <= kmax - margin) | (y == 0.0)
    hi = y >= kmax + margin
    mid = ~(lo | hi)
    out[lo] = 1.0
    out[hi] = 0.0
    if np.any(mid):
        j0 = max(0, int(math.floor(kmax - 2.0 * margin)))
        out[mid] = np.minimum(_poisson_pmf_dot(np.ones(kmax + 1 - j0), j0, y[mid]), 1.0)
    return out


def marcum_q1(a: float, b):
    """First-order Marcum Q function Q1(a, b).

    Evaluated as a Poisson mixture of Erlang tail probabilities with a
    two-sided window around the mixture bulk (the series of Gil, Segura and
    Temme, ACM TOMS 2014), summed with array operations.  The discarded
    mixture mass is kept below ~1e-30, so the truncation error is nil; the
    error left is rounding in the log-space Poisson anchors, whose terms
    reach ~h ln h with h = a^2 / 2, so it grows with a.  Against
    ``scipy.stats.ncx2``, the largest absolute error seen is ~1e-13 up to
    a = 30, 5e-12 at a = 100, 1.3e-9 at a = 1000 and 1.1e-7 at a = 1e4.
    A large-argument expansion for big a is still open.

    ``a`` is a scalar; ``b`` may be a scalar or an array.  Both must be
    nonnegative.  Nonincreasing in ``b``, nondecreasing in ``a``; the range
    is [0, 1].
    """
    if not (np.isscalar(a) or np.ndim(a) == 0) or not math.isfinite(float(a)) or float(a) < 0.0:
        raise ValueError("marcum_q1 requires scalar finite a >= 0")
    a = float(a)
    scalar = np.ndim(b) == 0
    barr = np.atleast_1d(np.asarray(b, dtype=float))
    if barr.size and (np.any(barr < 0.0) or not np.all(np.isfinite(barr))):
        raise ValueError("marcum_q1 requires finite b >= 0")
    y = 0.5 * barr * barr
    h = 0.5 * a * a
    if h == 0.0:
        out = np.exp(-y)
        return float(out[0]) if scalar else out.reshape(np.shape(b))

    width = 13.0 * math.sqrt(h) + 45.0
    n_lo = max(0, int(math.floor(h - width)))
    n_hi = int(math.ceil(h + width))
    ns = np.arange(n_lo, n_hi + 1)
    # Poisson(h) weights over the window, built from a log anchor at n_lo.
    log_w0 = -h + (n_lo * math.log(h) if n_lo > 0 else 0.0) - math.lgamma(n_lo + 1)
    log_w = log_w0 + np.concatenate(([0.0], np.cumsum(math.log(h) - np.log(ns[1:]))))
    weights = np.exp(log_w)

    # Q1 = sum_n w_n P(Poisson(y) <= n)
    #    = head * sum_n w_n + sum_{j >= n_lo} P(Poisson(y) = j) * tail_j,
    # with head = P(Poisson(y) < n_lo) and tail_j = sum_{n >= j} w_n.
    # Q1(a, 0) = 1 exactly, and y = 0 has no log-pmf.
    total = np.ones_like(y)
    positive = y > 0.0
    if np.any(positive):
        yp = y[positive]
        tail = np.cumsum(weights[::-1])[::-1]
        head = _poisson_cdf_window(yp, n_lo - 1) if n_lo > 0 else 0.0
        total[positive] = head * tail[0] + _poisson_pmf_dot(tail, n_lo, yp)
    out = np.clip(total, 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(np.shape(b))


def ncx2_pdf(g, lam: float):
    """Density of the two-degree-of-freedom noncentral chi-square law.

    The variate is |z|^2 for a complex Gaussian z whose real and imaginary
    parts have unit variance; ``lam`` is the squared mean divided by that
    per-component variance.  0.5 * exp(-(g + lam)/2) * I0(sqrt(lam * g)),
    evaluated in log space so large arguments neither overflow nor lose the
    exponential cancellation.  ``g`` may be a scalar or array; values must
    be >= 0.
    """
    lam = float(lam)
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError("noncentrality must be finite and >= 0")
    scalar = np.ndim(g) == 0
    garr = np.atleast_1d(np.asarray(g, dtype=float))
    if garr.size and (np.any(garr < 0.0) or not np.all(np.isfinite(garr))):
        raise ValueError("ncx2_pdf requires finite g >= 0")
    log_pdf = -math.log(2.0) - 0.5 * (garr + lam) + log_bessel_i0(np.sqrt(lam * garr))
    out = np.exp(log_pdf)
    return float(out[0]) if scalar else out.reshape(np.shape(g))


def ncx2_cdf(g, lam: float):
    """CDF of the two-degree-of-freedom noncentral chi-square law.

    Computed as 1 - Q1(sqrt(lam), sqrt(g)); nondecreasing with cdf(0) = 0.
    """
    lam = float(lam)
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError("noncentrality must be finite and >= 0")
    scalar = np.ndim(g) == 0
    garr = np.atleast_1d(np.asarray(g, dtype=float))
    if garr.size and (np.any(garr < 0.0) or not np.all(np.isfinite(garr))):
        raise ValueError("ncx2_cdf requires finite g >= 0")
    out = 1.0 - np.atleast_1d(marcum_q1(math.sqrt(lam), np.sqrt(garr)))
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(np.shape(g))


# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule.
_GK_NODES = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_GK_WEIGHTS = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_G7_WEIGHTS = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)


def _gk15(f, lo: np.ndarray, hi: np.ndarray):
    """Apply the 15-point Kronrod rule to a batch of intervals."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GK_NODES[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    k15 = half * (vals @ _GK_WEIGHTS)
    g7 = half * (vals[:, 1::2] @ _G7_WEIGHTS)
    err = np.abs(k15 - g7)
    return k15, err


def integrate(f, lower: float, upper: float, tol: float = 1e-9, max_intervals: int = 4000) -> float:
    """Adaptive quadrature of ``f`` with an absolute-error target.

    ``f`` must accept an ndarray of evaluation points and return values
    elementwise.  A semi-infinite upper limit is mapped through
    g = lower + t/(1-t) onto t in [0, 1); Kronrod nodes are interior, so the
    transformed integrand is never evaluated at the endpoint, and refinement
    toward t=1 truncates the tail once its contribution drops below the
    error budget.

    Raises
    ------
    NumericError
        If the interval budget is exhausted before the error bound reaches
        ``tol``; the exception carries the best estimate and its bound.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if not math.isfinite(lower):
        raise ValueError("lower limit must be finite")
    if math.isinf(upper):
        a = lower

        def transformed(t):
            t = np.asarray(t, dtype=float)
            u = 1.0 - t
            g = a + t / u
            return np.asarray(f(g), dtype=float) / (u * u)

        seeds = np.array([0.0, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0])
        return _adaptive(transformed, seeds, tol, max_intervals)
    if upper < lower:
        raise ValueError("upper limit must be >= lower limit")
    if upper == lower:
        return 0.0
    seeds = np.array([lower, upper], dtype=float)
    return _adaptive(f, seeds, tol, max_intervals)


def _adaptive(f, seeds: np.ndarray, tol: float, max_intervals: int) -> float:
    lo = seeds[:-1].copy()
    hi = seeds[1:].copy()
    vals, errs = _gk15(f, lo, hi)
    for _ in range(10 * max_intervals):
        total = float(np.sum(vals))
        bound = float(np.sum(errs))
        if bound <= tol:
            return total
        if lo.size >= max_intervals:
            raise NumericError("quadrature did not converge", total, bound)
        # Split the worst intervals; batching keeps the integrand calls large.
        n_split = min(max(1, lo.size // 4), 32, max_intervals - lo.size)
        worst = np.argsort(errs)[-n_split:]
        mids = 0.5 * (lo[worst] + hi[worst])
        new_lo = np.concatenate([lo[worst], mids])
        new_hi = np.concatenate([mids, hi[worst]])
        new_vals, new_errs = _gk15(f, new_lo, new_hi)
        keep = np.ones(lo.size, dtype=bool)
        keep[worst] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
    raise NumericError("quadrature refinement stalled", float(np.sum(vals)), float(np.sum(errs)))


def _chunk_rng(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    # Fixed-size chunks with per-chunk substreams keyed by (seed, stream,
    # chunk) make every reported number independent of execution order.
    ss = np.random.SeedSequence(entropy=(int(seed) & (2**64 - 1), stream, chunk_index))
    return np.random.Generator(np.random.Philox(ss))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Constellation:
    """A unit-average-power symbol set with per-point bit labels."""

    order: int
    points: tuple
    bit_labels: tuple

    def __post_init__(self):
        if not _is_power_of_two(self.order):
            raise ValueError("constellation order must be a power of two")
        if len(self.points) != self.order or len(self.bit_labels) != self.order:
            raise ValueError("points and bit_labels must both have `order` entries")
        mean_power = float(np.mean(np.abs(np.asarray(self.points)) ** 2))
        if abs(mean_power - 1.0) > 1e-12:
            raise ValueError(f"mean symbol power must be 1, got {mean_power!r}")
        nbits = self.bits_per_symbol
        if any(len(lbl) != nbits or set(lbl) - {"0", "1"} for lbl in self.bit_labels):
            raise ValueError("bit labels must be binary strings of length log2(order)")

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1


def psk_constellation(order: int) -> Constellation:
    """Equally spaced unit-circle points with binary-reflected Gray labels.

    Point k sits at angle 2*pi*k/order and carries the Gray code of k, so
    angularly adjacent points differ in exactly one bit.  ``order`` must be
    a power of two and at least 2.
    """
    if not isinstance(order, (int, np.integer)) or order < 2 or not _is_power_of_two(int(order)):
        raise ValueError(f"PSK order must be a power of two >= 2, got {order!r}")
    order = int(order)
    nbits = order.bit_length() - 1
    angles = 2.0 * np.pi * np.arange(order) / order
    re = np.cos(angles)
    im = np.sin(angles)
    # Snap the cardinal points so {+1, -1, +i, -i} come out exact.
    re[np.abs(re) < 1e-15] = 0.0
    im[np.abs(im) < 1e-15] = 0.0
    points = tuple(complex(a, b) for a, b in zip(re, im))
    labels = tuple(format(k ^ (k >> 1), "b").zfill(nbits) for k in range(order))
    return Constellation(order=order, points=points, bit_labels=labels)
