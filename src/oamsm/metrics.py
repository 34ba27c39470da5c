"""Analytic and Monte Carlo performance metrics.

Mutual-information (discrete-input, continuous-output) capacity of the
spatially modulated link, conventional-array baselines on the same
geometry, the analytic antenna-detection probability and its bit-level
conversion, the modulation bit error probability, the composed average bit
error probability, and transmitter energy efficiency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, _check_tensor, _pair_geometry, build_channel_tensor
from .config import _MIMO_MODES, SystemConfig
from .errors import ConfigError, NumericError, require
from .numerics import Constellation, _chunks, _distance_blocks, _grid, _noise, integrate, marcum_q1, ncx2_pdf, q_function

_LN2 = math.log(2.0)


# Slotted: each estimate a caller keeps takes 64 bytes, not 104 (CPython 3.11).
@dataclass(frozen=True, slots=True)
class CapacityEstimate:
    """Capacity in bits per channel use with its Monte Carlo standard error."""

    value: float
    std_error: float
    samples: int


def _check_link(rho: float, noise_var: float) -> None:
    """Reject a transmit power or noise variance no metric can be computed
    from: NaN, infinite, a negative power or a noise variance <= 0."""
    require("rho", rho, "finite and >= 0")
    require("noise_var", noise_var, "finite and > 0")


_CAP_CHUNK = 512
# ln 2^-60: a neighbour is dropped when its term provably stays below
# 2^-60 / n_inputs, so no log-sum-exp moves by as much as 2^-60.
_PRUNE_LN_BUDGET = 60.0 * _LN2
# A row's terms go through the shared-shift product only if its own factor
# e^(q_i - c) and each neighbour's e^-d2 are at least e^-600.  Then every
# term that matters, at least e^-600 2^-60 / n_inputs, is the product of two
# factors in [e^-642 / n_inputs, 1], all normal doubles (the smallest is
# e^-708.4) for any n_inputs below e^66.
_PRODUCT_LN_FLOOR = 600.0


def _mutual_information(
    coords: np.ndarray,
    step: int,
    table: np.ndarray | None,
    rho: float,
    noise_var: float,
    samples: int,
    seed: int,
    stream: int,
) -> CapacityEstimate:
    """Mutual information I(X; Y) of a uniform discrete input X and the
    received vector Y = sqrt(rho) u_X + w, by Monte Carlo over the noise.

    Column i of ``coords`` holds the real coordinates, [Re u_i, Im u_i], of
    input i's clean frame at unit power, and w is circularly symmetric
    complex Gaussian noise of variance ``noise_var`` per complex dimension.
    The inputs come in orbits of ``step`` consecutive columns that a group
    of unit-modulus scalars permutes (the PSK points over the first, or
    just 1), and multiplying w by such a scalar leaves its law as it is.
    Hence the expected log-sum-exp over all candidates j of ln F_ij =
    -(|d_ij|^2 + 2 Re(d_ij . conj(w))) / noise_var, d_ij = sqrt(rho) (u_i -
    u_j), is the same for every input of an orbit, and each draw subtracts
    from log2(n_inputs) its mean over the representatives, columns k step,
    only: the expectation is unchanged, the per-draw variance differs.  At
    low received SNR it is larger, as the part of each log-sum-exp linear
    in w cancels in the mean over every input but not over the
    representatives.  The true input's zero term keeps draws <=
    log2(n_inputs).  An snr = rho / noise_var of 0 gives exactly 0: every
    likelihood ratio is 1 (to rounding, where a positive rho underflows).

    Everything is in units of the noise's standard deviation.  With z =
    w / sqrt(noise_var), a unit complex Gaussian, the cross term factors,
    so ln F_ij = q_j - q_i - d2_ij with q = 2 sqrt(snr) Re(u . conj(z))
    (one matrix product per chunk of draws, on noise coordinates scaled by
    2 sqrt(snr)) and d2_ij = snr D_ij, where D is the unit-power table of
    squared frame distances, formed from differences by
    ``numerics._distance_table``.  ``table`` is D for every representative,
    kept by the caller (``ChannelTensor.orbit_distances``); without it, D is
    formed block by block (``numerics._distance_blocks``), and each block
    redraws the same noise.  The scale is the ratio snr, never (D rho) /
    noise_var, which overflows at noise powers near the double limit.  A
    distance that overflows is +inf, which is right: its term is exactly 0,
    as exp(-d2_ij) already is in doubles, and the pruning below drops it.
    If snr itself overflows, coinciding frames stay 0 apart (not 0 inf =
    NaN) and every other distance is +inf.

    By Cauchy-Schwarz, F_ij <= exp(-(d2_ij - 2 w sqrt(d2_ij))), where w is
    the chunk's largest |z|; neighbour j of input i is dropped when that
    bound is below 2^-60 / n_inputs, that is when d2_ij >= (w + sqrt(w^2 +
    cut))^2 with cut = ln(2^60 n_inputs).  The dropped terms of one
    log-sum-exp sum to less than 2^-60 against the true input's term of 1,
    so it moves by less than 2^-60, far below double rounding.  An input
    whose only remaining term is its own adds exactly ln 1 = 0 and is
    skipped, so saturated draws cost almost nothing.

    The rows that keep a neighbour share one shift per draw, c = max q_j
    over the union C of their neighbours, and one matrix product:
    sum_j F_ij = (exp(-d2[rows, C]) @ exp(q[C] - c))_i / exp(q_i - c).  A
    row takes it only if q_i - c >= -600 at every draw of the chunk and
    d2_ij <= 600 for each neighbour (``_PRODUCT_LN_FLOOR``), so every term
    that matters is a product of two normal doubles.  Any other row, which
    happens only at high received SNR, sums its neighbours' F_ij itself:
    its own term is exactly 1 and, for a neighbour, ln F_ij <= w^2, so no
    shift is needed and nothing overflows.
    """
    require("samples", samples, "a positive integer")
    require("seed", seed, "a nonnegative integer")
    snr = rho / noise_var  # a float quotient overflows to inf; it never raises
    if snr == 0.0:
        return CapacityEstimate(value=0.0, std_error=0.0, samples=samples)
    # q = coords.T @ (z * q_scale) per draw, with q_scale = 2 sqrt(snr) taken
    # as a ratio of roots, which stays finite where snr overflows.
    q_scale = 2.0 * math.sqrt(rho) / math.sqrt(noise_var)
    n_inputs = coords.shape[1]
    log2_inputs = math.log2(n_inputs)
    cut_ln = _PRUNE_LN_BUDGET + math.log(n_inputs)
    acc = np.zeros(samples)
    for rows, dist in _distance_blocks(coords, np.arange(0, n_inputs, step), table):
        with np.errstate(over="ignore"):
            d2 = dist * snr if math.isfinite(snr) else np.where(dist > 0.0, math.inf, 0.0)
        del dist
        for done, n, rng in _chunks(samples, _CAP_CHUNK, seed, stream):
            # [Re z, Im z]: the real plane of the draw, then the imaginary.
            z = np.concatenate(_noise(rng, (n, coords.shape[0] // 2), math.sqrt(0.5)), axis=1)
            w_max = math.sqrt(float(np.max(np.sum(z * z, axis=1))))
            reach = (w_max + math.sqrt(w_max * w_max + cut_ln)) ** 2
            near = d2 < reach
            live = np.count_nonzero(near, axis=1) > 1
            if not live.any():
                continue
            # The live rows: input indices, neighbour masks and distances.
            r, nr, dr = (rows, near, d2) if live.all() else (rows[live], near[live], d2[live])
            z *= q_scale
            q = coords.T @ z.T
            out = acc[done : done + n]
            cols = np.flatnonzero(np.any(nr, axis=0))
            qc = q if cols.size == n_inputs else q[cols]
            shift = np.max(qc, axis=0)
            own = q[r]
            own -= shift
            shared = np.min(own, axis=1) >= -_PRODUCT_LN_FLOOR
            if reach > _PRODUCT_LN_FLOOR:
                shared &= ~np.any(nr & (dr > _PRODUCT_LN_FLOOR), axis=1)
            for i in np.flatnonzero(~shared):
                nb = np.flatnonzero(nr[i])
                t = q[nb] - dr[i, nb, None]
                t -= q[r[i]]
                np.exp(t, out=t)
                out += np.log(np.sum(t, axis=0))
            if shared.any():
                qc -= shift  # q itself when every input is a column; its rows are read above
                np.exp(qc, out=qc)
                e = (dr if shared.all() else dr[shared]).take(cols, axis=1)
                np.negative(e, out=e)
                np.exp(e, out=e)
                s = e @ qc
                np.log(s, out=s)
                out += np.sum(s, axis=0) - np.sum(own if shared.all() else own[shared], axis=0)
    per_draw = log2_inputs - acc / (n_inputs // step * _LN2)
    value = float(np.mean(per_draw))
    stderr = float(np.std(per_draw, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return CapacityEstimate(value=min(max(0.0, value), log2_inputs), std_error=stderr, samples=samples)


def dcmc_capacity(
    tensor: ChannelTensor, rho: float, noise_var: float, samples: int, seed: int
) -> CapacityEstimate:
    """Capacity of the spatially modulated link in bits per channel use.

    The observation is the full (M, 2) received frame, the same one the
    maximum-likelihood detector reads, so the value is I(X; Y) of the
    codeword and the frame, between 0 and log2(M * L * P).  ``rho = 0``
    returns exactly zero (every likelihood ratio is 1).  Input (m, l, p) is
    x_p / x_0 times input (m, l, 0), so each draw scores only p = 0 (see
    ``_mutual_information``): same expectation, different variance.

    The inputs are the tensor's kept hypothesis table, ``unit_frames``.
    Later calls on a tensor, at any rho and noise variance, only rescale it
    and its kept table of frame distances, ``tensor.orbit_distances``, whose
    row minima the ML certificate reads; a tensor that keeps none has it
    formed in blocks.
    """
    _check_link(rho, noise_var)
    coords, P = tensor.unit_frames, tensor.config.constellation().order
    return _mutual_information(coords, P, tensor.orbit_distances, rho, noise_var, samples, seed, stream=0xCA9)


def mimo_channel_matrix(config: SystemConfig) -> np.ndarray:
    """Line-of-sight response matrix of the conventional-array baseline.

    M receive antennas sit at the first-antenna positions of the receive
    pairs; entry (j, m) is wavelength/(4 pi d_mj) * exp(-i k d_mj) with no
    ring gain, i.e. plain free-space attenuation on the same geometry.
    """
    cfg = config
    lam = cfg.wavelength_m
    k = 2.0 * math.pi / lam
    geometry = (cfg.tx_antennas, cfg.element_spacing_m, cfg.distance_m, cfg.ring_radius_m, cfg.beta_value)
    d = _pair_geometry(*geometry)[0][..., 0].T
    return lam / (4.0 * math.pi * d) * np.exp(-1j * k * d)


def _check_baseline(config: SystemConfig, mode: str) -> None:
    """ConfigError unless ``mode`` is a baseline mode that ``config`` can
    run: ``dcmc_psk`` enumerates all P^M inputs, at most 4096."""
    require("mimo_mode", mode, _MIMO_MODES, ConfigError)
    inputs = config.constellation_order**config.tx_antennas
    if mode == "dcmc_psk" and inputs > 4096:
        raise ConfigError(f"dcmc_psk baseline limited to P^M <= 4096 inputs, got {inputs}")


def mimo_capacity_baseline(
    config: SystemConfig, rho_total: float, noise_var: float, mode: str = "logdet", samples: int = 20000, seed: int = 0
) -> CapacityEstimate:
    """Capacity of the M x M conventional array at total-power parity.

    ``logdet`` evaluates log2 det(I + c H H*), c = rho_total/(M sigma^2),
    for the deterministic line-of-sight channel (exact, no sampling) as
    the sum of log2(1 + c mu_k) over the squared singular values mu_k of H,
    taking ln c = ln rho_total - ln(M sigma^2) so that no ratio overflows.
    ``dcmc_psk`` estimates the mutual information with independent uniform
    PSK inputs on each antenna by Monte Carlo, upper-bounded by M log2 P,
    through ``_mutual_information``, which documents the kernel.  It scores
    every x, each its own orbit: at its received SNR, ~100 dB below
    rho_total / sigma^2, one x per orbit is far noisier.  Its table of frame
    distances is formed per call.  The singular values are computed once
    per config object and kept on it.
    """
    _check_baseline(config, mode)
    _check_link(rho_total, noise_var)
    M = config.tx_antennas
    if mode == "logdet":
        if rho_total == 0.0:
            return CapacityEstimate(0.0, 0.0, 0)
        sv = config._mimo_singular_values
        with np.errstate(divide="ignore"):  # a zero singular value adds log2(1 + 0) = 0
            ln_terms = math.log(rho_total) - math.log(M * noise_var) + 2.0 * np.log(sv)
        return CapacityEstimate(float(np.sum(np.logaddexp(0.0, ln_terms))) / _LN2, 0.0, 0)
    points = np.asarray(config.constellation().points)
    grids = np.meshgrid(*([points] * M), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=1)  # (P^M, M)
    u = x @ mimo_channel_matrix(config).T  # received vectors at unit power per antenna
    coords = np.concatenate([u.real.T, u.imag.T])
    return _mutual_information(coords, 1, None, rho_total / M, noise_var, samples, seed, stream=0x313)


def _noncentralities(h: np.ndarray, x: complex, rho: float, noise_var: float) -> np.ndarray:
    """Detection-statistic noncentralities rho |h x|^2 / sigma0^2 of the
    responses ``h``, elementwise.

    The statistic |y|^2 / sigma0^2 with sigma0^2 = noise_var / 2 follows the
    two-degree noncentral chi-square law with this noncentrality.
    """
    _check_link(rho, noise_var)
    return rho * np.abs(h * x) ** 2 / (noise_var / 2.0)


# Half-width, in r = sqrt(g), of the window around the true pair's bulk:
# P(r > sqrt(lam_m) + 9) <= exp(-81/2) < 3e-18, far under _DETECTION_TOL.
_BULK_HALF_WIDTH = 9
# Absolute quadrature error allowed in each detection integral.
_DETECTION_TOL = 1e-9
# Coarsest float step near sqrt(lam_m) at which the unit-width bulk is
# still sampled where its panels' nodes lie (see _detection_integral).
_BULK_RESOLUTION = 2.0**-10


def _detection_integral(lam_own: float, factors: np.ndarray, rows: np.ndarray) -> float:
    """Mean detection probability of rows that share the true pair's
    noncentrality ``lam_own``.

    Row i's other pairs have amplitudes factors[rows[i]], so the value is
    the integral over r of ncx2_pdf(r^2, lam_own) 2r times the row mean of
    prod_j (1 - Q1(factors[rows[i, j]], r)), to an absolute quadrature
    error of at most ``_DETECTION_TOL``.  Each 1 - Q1(a, r) is evaluated
    once per integrand call, however many rows share it, and all of them
    in one broadcast ``marcum_q1`` call on the pass's nodes.  In r the
    true pair's density is Rician: a bump of unit width at c =
    sqrt(lam_own) whatever the SNR, so unit-width panels over [max(0, c -
    9), c + 9], plus one panel on [0, c - 9] when c > 9, resolve it in the
    first quadrature pass at every SNR.  The integral stops at c + 9: r = |c + z| <= c + |z| for
    the unit complex Gaussian z, so P(r > c + 9) <= P(|z| > 9) =
    exp(-81/2) < 3e-18.  The panel below carries P(r < c - 9) <= Q(9) <
    1.2e-19, so its error bound vanishes at once.

    Those panels need floats finer than their width near c.  Once
    np.spacing(c) exceeds ``_BULK_RESOLUTION`` (c >= 2^43, about 8.8e12),
    the nodes round to a grid no finer than about 1/20 of the smallest gap
    between Kronrod nodes on a unit panel (0.021), and from spacing 1 on
    whole panels collapse.  At the default config every such c either
    failed to converge or returned a wrong value (0.667 for abep at 350 dB,
    where it is about 0), so this raises ``NumericError`` instead.
    """
    c = math.sqrt(lam_own)
    if np.spacing(c) > _BULK_RESOLUTION:
        raise NumericError(f"detection integral cannot resolve the bulk at sqrt(lam) = {c:.4g}", math.nan, math.inf)
    edges = c + np.arange(-_BULK_HALF_WIDTH, _BULK_HALF_WIDTH + 1.0)

    def integrand(r):
        r = np.asarray(r, dtype=float)
        # One call for every factor: b is a zero-copy (factors, nodes) view,
        # so the factors share its points and its size is the Q1 count.
        cdf = 1.0 - marcum_q1(factors[:, None], np.broadcast_to(r, (factors.size, r.size)))
        return ncx2_pdf(r * r, lam_own) * (2.0 * r) * cdf[rows].prod(axis=1).mean(axis=0)

    value = integrate(integrand, 0.0, edges[-1], tol=_DETECTION_TOL, breakpoints=edges[edges > 0.0])
    return float(min(max(value, 0.0), 1.0))


def antenna_detection_prob(tensor: ChannelTensor, m: int, l: int, x: complex, rho: float, noise_var: float) -> float:
    """Probability that the strongest-pair rule picks the true antenna.

    With r = sqrt(g) the amplitude of the true pair's statistic, the
    probability is the integral over r of ncx2_pdf(r^2, lam_m) 2r
    prod_j (1 - Q1(sqrt(lam_j), r)) over the other pairs j: the true pair's
    density times the chance that every other statistic stays below it.
    It is one row of ``_detection_integral``, with one factor per other
    pair, and its absolute quadrature error is at most ``_DETECTION_TOL``.
    """
    require("x", x, "a finite number")
    i = tensor.antenna_index(m)
    lam = _noncentralities(tensor.entries[i, tensor.state_index(l), :, 0], x, rho, noise_var)
    if lam.size == 1:
        return 1.0
    others = np.sqrt(np.delete(lam, i))
    return _detection_integral(float(lam[i]), others, np.arange(others.size)[None, :])


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-D array, keyed to 12 significant digits
    (mirrored geometry reproduces the amplitudes only to rounding): the
    index of the first entry with each key, and the key index of every
    entry."""
    keys: dict[str, int] = {}
    inverse = np.array([keys.setdefault(f"{v:.11e}", len(keys)) for v in values.tolist()])
    return np.unique(inverse, return_index=True)[1], inverse


def antenna_detection_prob_avg(tensor: ChannelTensor, rho, noise_var: float):
    """Detection probability marginalized uniformly over (m, l, p), at one
    ``rho`` or at each of a 1-D sequence of them (a list of values, value k
    the one-``rho`` call at ``rho[k]``; every rho is checked before the first
    integral).

    Every constellation a config builds has unit modulus (PSK, or the one
    point 1), so the average over p is implicit; (m, l) are enumerated.
    The (m, l) whose true pair has the same noncentrality lam share its
    density f_lam(r), so by linearity the mean of their integrals of
    f_lam(r) prod_j F_j(r), F = 1 - Q1, is one integral of f_lam(r) times
    the mean of their products.  One integral is taken per distinct lam;
    every config the package builds has a single one.  Each integral's
    absolute quadrature error is at most ``_DETECTION_TOL``, so that of the
    average, their weighted mean, is too.  Inside the integrand each distinct
    other-pair amplitude sqrt(lam_j) is evaluated once.

    The grouping depends on no rho, so it is formed once per call: both
    keys round the unit-power amplitude |h| to 12 significant digits, and
    each key's first (m, l) stands for it.  Per rho only the
    representatives' noncentralities, the integrals and their mean are
    formed, each lam as ``_noncentralities`` forms it.  So value k is bit
    for bit the one-rho call at ``rho[k]`` by construction.  A key on
    sqrt(lam) at each rho could instead split two amplitudes that agree
    only to rounding at one rho and not at another; the two keyings gave
    the same values, bit for bit, on the fig8, fig9, fig10 and sweep
    configs they were compared on, which is a check, not a proof.
    """
    rhos, grid = _grid(rho)
    for r in rhos:
        _check_link(r, noise_var)
    M, L = tensor.entries.shape[:2]
    if M == 1:
        values = [1.0] * len(rhos)
        return values if grid else values[0]
    # amp[m, l, j]: pair j's unit-power amplitude when antenna m sends in state l.
    amp = np.abs(tensor.entries[..., 0])
    pair = np.arange(M)
    own = amp[pair, :, pair].ravel()
    off_pair = np.broadcast_to(~np.eye(M, dtype=bool)[:, None, :], amp.shape)
    others = amp[off_pair].reshape(M * L, M - 1)
    first, groups = _distinct(own)
    # Per group: its size, its count of distinct other amplitudes and its
    # rows of them; the representatives' amplitudes, own ones first.
    plan, picks = [], [own[first]]
    for g in range(first.size):
        members = others[groups == g]
        reps, inverse = _distinct(members.ravel())
        picks.append(members.ravel()[reps])
        plan.append((len(members), reps.size, inverse.reshape(members.shape)))
    power = np.concatenate(picks) ** 2
    values = []
    for r in rhos:
        lam = r * power / (noise_var / 2.0)
        factors = np.sqrt(lam[first.size :])
        total, start = 0.0, 0
        for g, (size, count, rows) in enumerate(plan):
            total += size * _detection_integral(float(lam[g]), factors[start : start + count], rows)
            start += count
        values.append(total / own.size)
    return values if grid else values[0]


def gray_gamma(n: int) -> float:
    """Average bit multiplicity of uniformly mislabeled n-bit words.

    gamma_n = n 2^(n-1) / (2^n - 1): each of the n bits differs in 2^(n-1)
    of the 2^n - 1 other words; gamma_0 = 0.
    """
    require("n", n, "a nonnegative integer")
    return n * 2.0 ** (n - 1) / (2.0**n - 1.0) if n else 0.0


#: The distance variants of ``mod_bep``.
_DISTANCE_MODES = ("euclidean",)


def mod_bep(
    h: complex, rho: float, noise_var: float, constellation: Constellation, distance_mode: str = "euclidean"
) -> float:
    """Bit error probability of the constellation bits on a scalar channel.

    Pairwise union form: (1 / (P log2 P)) * sum over ordered pairs of the
    label Hamming distance times Q(sqrt(rho |h|^2 |x_p - x_q|^2 / (2 sigma^2))),
    which matches a maximum-likelihood scalar detector (``euclidean``, the
    one ``distance_mode``).  A 1-point constellation carries no bits and
    gives 0.
    """
    require("distance_mode", distance_mode, _DISTANCE_MODES, ConfigError)
    require("|h|", abs(h), "finite and > 0")
    _check_link(rho, noise_var)
    P = constellation.order
    if P == 1:
        return 0.0
    nbits = constellation.bits_per_symbol
    points = constellation.points
    labels = constellation.bit_labels
    scale = rho * abs(h) ** 2 / (2.0 * noise_var)
    total = 0.0
    for p in range(P):
        for q in range(P):
            if p == q:
                continue
            hamming = sum(c1 != c2 for c1, c2 in zip(labels[p], labels[q]))
            total += hamming * q_function(math.sqrt(scale * abs(points[p] - points[q]) ** 2))
    return total / (P * nbits)


def abep(config: SystemConfig, rho, tensor: ChannelTensor | None = None):
    """Average bit error probability of the full demodulation chain, at one
    ``rho`` or at each of a 1-D sequence of them: a list of values, value k
    bit for bit the one-``rho`` call at ``rho[k]``.  Every rho is checked
    before the tensor is built and before the first integral.

    Composes the antenna-index stage with the constellation stage as
    1 - (1 - e_ant)(1 - e_mod); the state stage is error-free under the
    pair-angle constraint once the antenna index is right.  The antenna
    stage is the averaged detection miss weighted by gamma_{log2 M} / log2 M,
    and 0 for a single antenna, which carries no index bits.  The
    constellation stage is ``mod_bep`` averaged uniformly over the in-ring
    gains of every (m, l).  The tensor check, the constellation and the
    groupings by gain and amplitude depend on no rho and are formed once
    per call (``antenna_detection_prob_avg``); per rho come the detection
    integrals and the ``mod_bep`` sums.
    """
    rhos, grid = _grid(rho)
    noise_var = config.noise_power_w
    for r in rhos:
        _check_link(r, noise_var)
    if tensor is None:
        tensor = build_channel_tensor(config)
    _check_tensor(tensor, config)
    M = tensor.entries.shape[0]
    e_ant = [0.0] * len(rhos)
    if M > 1:
        nbits = M.bit_length() - 1
        gamma = gray_gamma(nbits)
        e_ant = [(1.0 - p) * gamma / nbits for p in antenna_detection_prob_avg(tensor, rhos, noise_var)]
    const = config.constellation()
    # mod_bep depends on h through |h| only: one call per distinct gain
    # (keyed as in the detection average), summed in (m, l) order.
    pair = np.arange(M)
    gain = np.abs(tensor.entries[pair, :, pair, 0]).ravel()
    first, inverse = _distinct(gain)
    gains, inverse = gain[first].tolist(), inverse.tolist()
    values = []
    for r, e in zip(rhos, e_ant):
        by_gain = [mod_bep(g, r, noise_var, const) for g in gains]
        e_mod = sum(by_gain[g] for g in inverse) / len(inverse)
        values.append(1.0 - (1.0 - e) * (1.0 - e_mod))
    return values if grid else values[0]


def energy_efficiency(capacity_bits: float, rho: float, config: SystemConfig, n_active: int) -> float:
    """Delivered bits per joule of transmitter power.

    ``n_active`` chains share the total transmit power ``rho``: denominator
    n_active * circuit_power_w + power_slope * rho, over the configured
    bandwidth.  OAM-SM keeps one antenna active; the conventional array
    drives all M.
    """
    require("capacity_bits", capacity_bits, "finite and >= 0")
    require("rho", rho, "finite and >= 0")
    require("n_active", n_active, "a positive integer")
    denom = n_active * config.circuit_power_w + config.power_slope * rho
    require("power denominator", denom, "finite and > 0", ConfigError)
    ee = config.bandwidth_hz * capacity_bits / denom
    require("energy efficiency", ee, "finite", ConfigError)
    return ee
