"""Special functions and numerical kernels used throughout the package.

Contents
--------
q_function          Gaussian tail probability.
marcum_q1           First-order Marcum Q: Poisson-window series, large-a expansion.
ncx2_pdf, ncx2_cdf  Noncentral chi-square with two degrees of freedom.
integrate           Adaptive Gauss-Kronrod quadrature on a finite interval,
                    seeded at caller-given breakpoints.
psk_constellation   Unit-power PSK points with binary-reflected Gray labels.

Everything here is pure and deterministic; all routines are safe to call
from concurrent workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, require

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
    require("x", x, "finite")
    return 0.5 * math.erfc(x / _SQRT2)


# ln I0 switches from its power series to its large-x expansion at
# _I0_SWITCH, with a fixed number of terms on each side.  Series: at x <= 25
# the terms after (x^2/4)^40 / (40!)^2 sum to below 1e-16 of I0(x).
# Expansion: I0(x) e^-x sqrt(2 pi x) = sum_k c_k x^-k, c_k = ((2k-1)!!)^2 /
# (k! 8^k); at x > 25 the first omitted term, c_17 x^-17, is below 1e-16.
_I0_SWITCH = 25.0
# Ratios of consecutive terms: (x^2/4) / k^2 and c_k / c_(k-1) / x.
_I0_SERIES_STEP = 1.0 / np.arange(1.0, 41.0) ** 2
_I0_EXPANSION_STEP = (2.0 * np.arange(1.0, 17.0) - 1.0) ** 2 / (8.0 * np.arange(1.0, 17.0))


def _log_i0e(x: np.ndarray) -> np.ndarray:
    """ln(e^-x I0(x)) for finite x >= 0, to within ~1e-16 relative in
    I0: 40 series terms for x <= 25, 16 expansion terms above."""
    out = np.empty_like(x)
    small = x <= _I0_SWITCH
    if np.any(small):
        xs = x[small]
        terms = np.cumprod(np.multiply.outer(_I0_SERIES_STEP, 0.25 * xs * xs), axis=0)
        out[small] = np.log1p(np.sum(terms, axis=0)) - xs
    if not np.all(small):
        xl = x[~small]
        terms = np.cumprod(np.multiply.outer(_I0_EXPANSION_STEP, 1.0 / xl), axis=0)
        out[~small] = np.log1p(np.sum(terms, axis=0)) - 0.5 * np.log(2.0 * np.pi * xl)
    return out


# Elements per (window rows x points) block of Poisson log-pmf values; caps
# the temporary arrays at ~8 MB whatever the window width.
_BLOCK_ELEMENTS = 1_000_000


def _poisson_pmf_dot(coef: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k coef[k] * P(Poisson(y) = k) for every y > 0, inf included.

    A point whose Poisson bulk y +- (13 sqrt(y) + 45) lies above the window
    0 .. len(coef) - 1 gets 0: its pmf there is below ~1e-30.  The test forms
    no inf - inf.  The log pmf k log y - y - ln k! is built in blocks of at
    most ``_BLOCK_ELEMENTS``.
    """
    out = np.zeros_like(y)
    near = y < coef.size + (13.0 * np.sqrt(y) + 45.0)
    if not np.any(near):
        return out
    yn = y[near]
    log_y = np.log(yn)
    ks = np.arange(coef.size)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(ks[1:]))))
    rows = max(1, _BLOCK_ELEMENTS // yn.size)
    acc = np.zeros_like(yn)
    for start in range(0, coef.size, rows):
        block = np.multiply.outer(ks[start : start + rows], log_y)
        block -= yn
        block -= log_fact[start : start + rows, None]
        acc += coef[start : start + rows] @ np.exp(block, out=block)
    out[near] = acc
    return out


# Large-argument Marcum Q.  With I0(z) = e^z / sqrt(2 pi z) sum_k c_k z^-k
# (the expansion above) and x = a + t, the density of |z| in Q1(a, b) =
# int_b^inf x e^-(x^2 + a^2)/2 I0(a x) dx becomes
#   phi(t) sum_k c_k a^-2k (1 + t/a)^(1/2 - k)
#     = phi(t) sum_n a^-n sum_j D[n, j] t^j,  D[n, j] = c_k binom(1/2 - k, j),
# n = 2k + j, phi the standard normal density.  Q1 is then a sum of Gaussian
# tail moments int_{b-a}^inf t^j phi(t) dt.  At a >= 12 the first omitted
# order, a^-20, weighs below 1.1e-15 (sum_j |D[20, j]| E|t|^j 12^-20).
_MARCUM_LARGE_A = 12.0
_MARCUM_ORDERS = 20


def _marcum_large_coefficients(n_orders: int) -> np.ndarray:
    coef = np.zeros((n_orders, n_orders))
    c = np.concatenate(([1.0], np.cumprod(_I0_EXPANSION_STEP)))  # c_0, c_1, ...
    for k in range((n_orders + 1) // 2):
        binom = 1.0
        for j in range(n_orders - 2 * k):
            coef[2 * k + j, j] = c[k] * binom
            binom *= (0.5 - k - j) / (j + 1)
    return coef


_MARCUM_COEF = _marcum_large_coefficients(_MARCUM_ORDERS)
_MARCUM_PARITY = (-1.0) ** np.arange(_MARCUM_ORDERS)


def _marcum_q1_large(a: float, b: np.ndarray) -> np.ndarray:
    """Q1(a, b) for a >= _MARCUM_LARGE_A from the expansion above.

    With s = |b - a|, the tail moments M_j(s) = int_s^inf t^j phi(t) dt come
    from M_0 = erfc(s / sqrt 2) / 2, M_1 = phi(s) and the all-positive
    recurrence M_j = s^(j-1) phi(s) + (j - 1) M_(j-2).  For b >= a this gives
    Q1 directly; for b < a the lower tail 1 - Q1 is the same sum over
    (-t)^j, so the sum always gives the smaller of the two tails.
    """
    c = b - a
    # phi(40) underflows to 0, so beyond it every moment is 0 and Q1 is 0 or 1.
    s = np.minimum(np.abs(c), 40.0)
    phi = np.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)
    moments = np.empty((_MARCUM_ORDERS, s.size))
    moments[0] = [0.5 * math.erfc(v) for v in s / _SQRT2]
    moments[1] = phi
    power = phi
    for j in range(2, _MARCUM_ORDERS):
        power = power * s
        moments[j] = power + (j - 1) * moments[j - 2]
    weights = (1.0 / a) ** np.arange(_MARCUM_ORDERS) @ _MARCUM_COEF
    upper = weights @ moments
    lower = (weights * _MARCUM_PARITY) @ moments
    return np.where(c >= 0.0, upper, 1.0 - lower)


def marcum_q1(a: float, b):
    """First-order Marcum Q function Q1(a, b) = P(|a + z| > b) for a
    complex z with unit-variance real and imaginary parts.

    Two regimes, chosen by ``a``:

    - a < 12: a Poisson(a^2 / 2) mixture of Erlang tail probabilities (the
      series of Gil, Segura and Temme, ACM TOMS 2014) summed with array
      operations over the mixture indices up to its bulk plus 13 standard
      deviations and 45.  The discarded mixture mass is below ~1e-30.  The
      mixture weights are scaled to unit sum over the window, so their
      shared rounding cancels; what error is left is rounding in the
      log-space Poisson(b^2 / 2) terms, which grows with a.
    - a >= 12: the large-argument expansion (Temme, Comput. Math. Appl.
      1993) to 20 orders in 1/a, each a sum of Gaussian tail moments; the
      first omitted order weighs below 1.1e-15 at a = 12.  Its cost per
      point does not grow with a.

    Largest absolute errors seen: for the window, against
    ``scipy.stats.ncx2`` over b in a +- 12, 1.8e-14 at a = 10 and 3.3e-14
    just below a = 12; for the expansion, against mpmath quadrature, 1.1e-16
    at a = 12 and 20 over b in a +- 11 and at a = 300 to 1e5 over
    b = a + {-8, -3, 0, 3, 8} (scipy itself is off by 1.3e-12 at a = 1e4).
    The two regimes agree to 3e-14 at a = 12.  Over a in [0.5, 12) in steps
    of 0.005, at b = 1 and 4, no step in a lowers Q1 by more than 7.8e-16.

    ``a`` is a scalar; ``b`` may be a scalar or an array.  Both must be
    nonnegative.  Nonincreasing in ``b``, nondecreasing in ``a``; the range
    is [0, 1], and Q1(a, 0) = 1 exactly.
    """
    require("a", a, "finite and >= 0")
    a = float(a)
    scalar = np.ndim(b) == 0
    require("b", b, "finite and >= 0 in every entry")
    barr = np.atleast_1d(np.asarray(b, dtype=float))
    y = 0.5 * barr * barr
    h = 0.5 * a * a
    # Q1(0, b) = e^-y; Q1(a, 0) = 1 exactly, and y = 0 has no log-pmf.
    total = np.ones_like(y)
    positive = y > 0.0
    if h == 0.0:
        total = np.exp(-y)
    elif a >= _MARCUM_LARGE_A:
        total[positive] = _marcum_q1_large(a, barr[positive])
    elif np.any(positive):
        # Q1 = sum_n w_n P(Poisson(y) <= n) = sum_j P(Poisson(y) = j) tail_j,
        # with w_n the Poisson(h) weights and tail_j = sum_{n >= j} w_n.  The
        # weights are kept for n <= h + 13 sqrt(h) + 45; the mass beyond is
        # below ~1e-30, and below a = 12 the window h +- (13 sqrt(h) + 45)
        # starts at n = 0.  Scaling them to unit sum removes the rounding
        # their cumulative log pmf shares, so the tails near 1 keep only the
        # rounding of their own sums.
        ns = np.arange(1, int(math.ceil(h + 13.0 * math.sqrt(h) + 45.0)) + 1)
        w = np.exp(np.concatenate(([0.0], np.cumsum(math.log(h) - np.log(ns)))) - h)
        tail = np.cumsum((w / np.sum(w))[::-1])[::-1]
        total[positive] = _poisson_pmf_dot(tail, y[positive])
    out = np.clip(total, 0.0, 1.0)
    return float(out[0]) if scalar else out.reshape(np.shape(b))


def ncx2_pdf(g, lam: float):
    """Density of the two-degree-of-freedom noncentral chi-square law.

    The variate is |z|^2 for a complex Gaussian z whose real and imaginary
    parts have unit variance; ``lam`` is the squared mean divided by that
    per-component variance.  The density 0.5 exp(-(g + lam)/2) I0(sqrt(lam g))
    is evaluated as 0.5 exp(-(sqrt g - sqrt lam)^2 / 2 + ln(e^-x I0(x))),
    x = sqrt(lam g), with sqrt g - sqrt lam = (g - lam) / (sqrt g + sqrt lam).
    No term of size lam is ever subtracted: against mpmath the relative
    error is below 3e-15 at lam = 2e4 to 2e8, where the direct form
    -(g + lam)/2 + ln I0(x) loses up to 1.2e-8.
    ``g`` may be a scalar or array; values must be >= 0.
    """
    require("noncentrality", lam, "finite and >= 0")
    lam = float(lam)
    scalar = np.ndim(g) == 0
    require("g", g, "finite and >= 0 in every entry")
    garr = np.atleast_1d(np.asarray(g, dtype=float))
    root = np.sqrt(garr)
    c = math.sqrt(lam)
    both = root + c
    gap = np.divide(garr - lam, both, out=np.zeros_like(garr), where=both > 0.0)
    out = 0.5 * np.exp(_log_i0e(root * c) - 0.5 * gap * gap)
    return float(out[0]) if scalar else out.reshape(np.shape(g))


def ncx2_cdf(g, lam: float):
    """CDF of the two-degree-of-freedom noncentral chi-square law.

    Computed as 1 - Q1(sqrt(lam), sqrt(g)); nondecreasing with cdf(0) = 0.
    """
    require("noncentrality", lam, "finite and >= 0")
    require("g", g, "finite and >= 0 in every entry")
    return 1.0 - marcum_q1(math.sqrt(lam), np.sqrt(g))


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


def integrate(
    f, lower: float, upper: float, tol: float = 1e-9, max_intervals: int = 4000, breakpoints=()
) -> float:
    """Adaptive quadrature of ``f`` with an absolute-error target.

    ``f`` must accept an ndarray of evaluation points and return values
    elementwise.  The first pass applies the 15-point Gauss-Kronrod rule to
    every panel between consecutive seeds, in one call of ``f``; while the
    summed |K15 - G7| bound exceeds ``tol``, the worst panels are halved.
    Both limits must be finite.  The seeds are ``lower``, the
    ``breakpoints`` (each within [lower, upper]) and ``upper``: a caller
    that knows where the integrand lives can seed panels there.

    Raises
    ------
    NumericError
        If the interval budget is exhausted before the error bound reaches
        ``tol``; the exception carries the best estimate and its bound.
    """
    require("tol", tol, "finite and > 0")
    require("integration limits", (lower, upper), "finite in every entry")
    inner = np.asarray(breakpoints, dtype=float).ravel()
    if upper < lower:
        raise ValueError("upper limit must be >= lower limit")
    if not np.all((inner >= lower) & (inner <= upper)):
        raise ValueError("breakpoints must lie within [lower, upper]")
    if upper == lower:
        return 0.0
    seeds = np.array(sorted({lower, upper, *inner.tolist()}), dtype=float)
    return _adaptive(f, seeds, tol, max_intervals)


def _adaptive(f, seeds: np.ndarray, tol: float, max_intervals: int) -> float:
    lo = seeds[:-1].copy()
    hi = seeds[1:].copy()
    vals, errs = _gk15(f, lo, hi)
    # Each pass adds at least one panel, so the budget check ends the loop.
    while True:
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


def _substream(seed: int, *keys: int) -> np.random.SeedSequence:
    # Substreams keyed by (seed, *keys), e.g. a sweep's (variant, grid point)
    # or a Monte Carlo (stream, chunk), make every reported number
    # independent of execution order.
    return np.random.SeedSequence(entropy=(int(seed) & (2**64 - 1), *keys))


def _chunks(total: int, size: int, seed: int, stream: int):
    """The one Monte Carlo driver: ``(start, n, rng)`` per chunk of at most
    ``size`` of ``total`` draws; chunk i draws from substream (seed, stream, i)."""
    for i, start in enumerate(range(0, total, size)):
        rng = np.random.Generator(np.random.Philox(_substream(seed, stream, i)))
        yield start, min(size, total - start), rng


def _noise(rng, shape: tuple, sigma: float) -> np.ndarray | None:
    """(2, *shape) normals of standard deviation ``sigma``, the real plane then
    the imaginary of a complex draw, or None (and no draw) when sigma is 0."""
    if sigma <= 0.0:
        return None
    noise = rng.standard_normal((2, *shape))
    noise *= sigma
    return noise


@dataclass(frozen=True)
class Constellation:
    """A unit-average-power symbol set with per-point bit labels."""

    order: int
    points: tuple
    bit_labels: tuple

    def __post_init__(self):
        require("constellation order", self.order, "a power of two")
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
    order = int(order) if isinstance(order, np.integer) else order
    require("PSK order", order, "a power of two")
    if order == 1:
        raise ValueError("PSK order must be a power of two >= 2, got 1")
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
