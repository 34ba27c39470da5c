"""Reference computations made apart from the program.

Each function here re-derives a quantity from its definition with numpy
and scipy, taking from oamsm only the channel tensor entries (the model's
input, not a result under test).  Nothing here calls the kernels that the
benchmark checks.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats


def psk_points(order: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(order) / order)


def gray_labels(order: int) -> np.ndarray:
    k = np.arange(order)
    return k ^ (k >> 1)


def clean_frames(entries: np.ndarray, order: int, rho: float) -> np.ndarray:
    """Noise-free received frame of every (m, l, p) codeword, (M L P, 2M)."""
    M, L = entries.shape[:2]
    h = entries.reshape(M, L, 1, -1)
    x = psk_points(order).reshape(1, 1, -1, 1)
    return (math.sqrt(rho) * h * x).reshape(M * L * order, -1)


# -- capacity ---------------------------------------------------------------


def gaussian_bound_bits(frames: np.ndarray, noise_var: float) -> float:
    """log2 det(I + K_S / sigma^2): the mutual information of a Gaussian input
    with the covariance K_S of the uniformly drawn clean frames, an upper
    bound on any input with that covariance."""
    centred = frames - frames.mean(axis=0, keepdims=True)
    cov = centred.T @ centred.conj() / frames.shape[0]
    sign, logdet = np.linalg.slogdet(np.eye(cov.shape[0]) + cov / noise_var)
    return float(logdet / math.log(2.0))


def mi_estimate(frames: np.ndarray, noise_var: float, draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo I(X; Y) for a uniform input over ``frames`` in complex
    AWGN, from distances ||y - s_j||^2 = ||y||^2 + ||s_j||^2 - 2 Re(y . s_j*)
    on an own PCG64 noise stream.  Returns (mean bits, standard error)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x5EF))))
    n, dims = frames.shape
    s_norm = np.sum(np.abs(frames) ** 2, axis=1)
    per_draw = np.empty(draws)
    for k in range(draws):
        w = math.sqrt(noise_var / 2.0) * (
            rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        )
        y = frames + w[None, :]
        dist = (
            np.sum(np.abs(y) ** 2, axis=1)[:, None] + s_norm[None, :]
            - 2.0 * (y @ frames.conj().T).real
        )
        own = np.sum(np.abs(w) ** 2)
        lse = special.logsumexp(-(dist - own) / noise_var, axis=1)
        per_draw[k] = math.log2(n) - float(np.mean(lse)) / math.log(2.0)
    return float(per_draw.mean()), float(per_draw.std(ddof=1) / math.sqrt(draws))


def min_distance(frames: np.ndarray) -> float:
    d2 = np.sum(np.abs(frames[:, None, :] - frames[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(math.sqrt(d2.min()))


def ml_union_bound(frames: np.ndarray, noise_var: float) -> float:
    """Union bound on the ML codeword error probability:
    (1/N) sum_i sum_{j != i} Q(|d_ij| / sqrt(2 sigma^2))."""
    d = np.sqrt(np.sum(np.abs(frames[:, None, :] - frames[None, :, :]) ** 2, axis=2))
    q = 0.5 * special.erfc(d / math.sqrt(2.0 * noise_var) / math.sqrt(2.0))
    np.fill_diagonal(q, 0.0)
    return float(q.sum() / frames.shape[0])


def mimo_logdet_bits(config, rho: float, noise_var: float) -> float:
    """log2 det(I + rho / (M sigma^2) H H*) for the line-of-sight array whose
    receive antennas sit on the pair ring: H_jm = lambda/(4 pi d) e^{-i k d},
    d = sqrt(z^2 + ((j - m) xi)^2 + r_ring^2)."""
    lam = 299_792_458.0 / config.carrier_freq_hz
    M = config.tx_antennas
    offs = (np.arange(M)[:, None] - np.arange(M)[None, :]) * config.element_spacing_m
    d = np.sqrt(config.distance_m**2 + offs**2 + config.ring_radius_m**2)
    H = lam / (4.0 * math.pi * d) * np.exp(-2j * math.pi / lam * d)
    gram = np.eye(M) + rho / (M * noise_var) * (H @ H.conj().T)
    return float(np.linalg.slogdet(gram)[1] / math.log(2.0))


# -- antenna detection ----------------------------------------------------


def noncentralities(entries: np.ndarray, m: int, l_index: int, snr_linear: float) -> np.ndarray:
    """|y_j|^2 / (sigma^2/2) at each pair's first antenna is ncx2(2, lambda_j)
    with lambda_j = 2 snr |h_j|^2 for a unit-modulus symbol."""
    return 2.0 * snr_linear * np.abs(entries[m - 1, l_index, :, 0]) ** 2


def detection_prob_scipy(lam: np.ndarray, m: int) -> float:
    """P(pair m has the largest statistic), by quadrature in r = sqrt(g) of
    2 r ncx2.pdf(r^2; lam_m) prod_j ncx2.cdf(r^2; lam_j) over sqrt(lam_m) +-
    12, where the true statistic's density sits (mass outside < 1e-30)."""
    lam_m = float(lam[m - 1])
    others = np.delete(lam, m - 1)

    def f(r):
        g = r * r
        value = 2.0 * r * stats.ncx2.pdf(g, 2, lam_m)
        for a in others:
            value *= stats.ncx2.cdf(g, 2, a)
        return value

    c = math.sqrt(lam_m)
    lo, hi = max(0.0, c - 12.0), c + 12.0
    points = [c] if lo < c < hi else None
    value, _ = integrate.quad(f, lo, hi, points=points, epsabs=1e-11, epsrel=1e-9, limit=400)
    return float(value)


def detection_prob_mc(lam: np.ndarray, m: int, draws: int, seed: int) -> tuple[float, float]:
    """Monte Carlo of the strongest-pair rule on the unit-variance statistic:
    the true pair wins when |sqrt(lam_m) + z_m| is the largest.  Returns
    (probability, binomial standard error)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xDE7))))
    mean = np.sqrt(lam)[None, :]
    z = mean + rng.standard_normal((draws, lam.size)) + 1j * rng.standard_normal((draws, lam.size))
    p = float(np.mean(np.argmax(np.abs(z) ** 2, axis=1) == m - 1))
    return p, math.sqrt(p * (1.0 - p) / draws)


# -- average bit error probability ----------------------------------------


def mod_bep_erfc(h: complex, snr_linear: float, order: int) -> float:
    """Pairwise union form of the constellation-bit error probability,
    (1 / (P log2 P)) sum_{p != q} hamming(p, q) Q(sqrt(snr |h|^2 |x_p - x_q|^2 / 2)),
    with Q(x) = erfc(x / sqrt 2) / 2 and Gray labels."""
    x = psk_points(order)
    labels = gray_labels(order)
    hamming = np.array([[bin(a ^ b).count("1") for b in labels] for a in labels])
    d2 = np.abs(x[:, None] - x[None, :]) ** 2
    q = 0.5 * special.erfc(np.sqrt(snr_linear * abs(h) ** 2 * d2 / 2.0) / math.sqrt(2.0))
    return float(np.sum(hamming * q) / (order * math.log2(order)))


def abep_reference(entries: np.ndarray, order: int, snr_db: float) -> tuple[float, float]:
    """(ABEP, mean detection probability) composed as ``metrics.abep``
    documents it: 1 - (1 - e_ant)(1 - e_mod), e_ant the index-bit error
    (1 - mean P_det) * 2^(n-1) / (2^n - 1) for n = log2 M index bits, e_mod
    the constellation-bit error averaged over (m, l)."""
    snr = 10.0 ** (snr_db / 10.0)
    M, L = entries.shape[:2]
    p_det = []
    e_mod = []
    for m in range(1, M + 1):
        for li in range(L):
            p_det.append(detection_prob_scipy(noncentralities(entries, m, li, snr), m))
            e_mod.append(mod_bep_erfc(entries[m - 1, li, m - 1, 0], snr, order))
    p_mean = float(np.mean(p_det))
    n = int(round(math.log2(M)))
    e_ant = (1.0 - p_mean) * 2 ** (n - 1) / (2**n - 1) if n else 0.0
    return 1.0 - (1.0 - e_ant) * (1.0 - float(np.mean(e_mod))), p_mean
