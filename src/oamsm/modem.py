"""Bit mapping, transmission, demodulation, and Monte Carlo error counting.

A codeword selects one transmit antenna, one beam state, and one
constellation point, carrying log2(M) + log2(L) + log2(P) bits; its integer
label is antenna << (state_bits + point_bits) | state << point_bits |
Gray(point), with 0-based indices into the ascending state table.  The
receiver either solves the joint maximum-likelihood problem over all
hypotheses or runs the three-step chain: pick the strongest pair, read the
state off the pair phase difference, then decide the constellation point.
Each rule is one batched function (``_detector``); the single-frame
detectors are 1-row calls into it.

One frame builder (``_frames``) makes received samples from a table of
clean samples: it gathers the table's leading-axis entries ``rows``,
scales each by its drawn point (broadcast over the trailing axes), and adds
in place a noise draw (``_noise``) laid out as (2, *shape): the real plane,
then the imaginary plane.  ``transmit`` and the ML trials call it on the
(M * L, M, 2) table of clean frames sqrt(rho) * h, gathered by m * L + l.
The stepwise trials build only the samples their rule reads, in two calls:
the M first-antenna samples from the (M * L, M) table, which decide the
antenna, then the decided pair's second sample from the flat (M * L * M,)
second-antenna table at (m * L + l) * M + m_hat.  That is 2M + 2 normals
per trial instead of 4M; the noise left undrawn is independent of every
sample the rule reads, so the error counts have the same distribution.

The stepwise draw (the indices, the (2, n, M) first-antenna noise, then
the (2, n) decided-pair noise, all at the config's noise power) depends on
no SNR.  A ``simulate_ber`` call over several SNRs therefore draws each
chunk once and decides that draw at every SNR, each from its own clean
tables and rule: common random numbers across the curve (Law & Kelton,
Simulation Modeling and Analysis).  Each SNR's counts keep the law of a
one-SNR call, to the bit: report k is the one-SNR call at SNR k with the
same seed.  The ML radius draw depends on the SNR, so ML runs one pass
over the same substreams per SNR.

ML trials are certified before they are scored.  A received point closer
to the sent hypothesis than half that hypothesis's distance to its nearest
other one lies in its decision region (bounded-distance decoding; Agrell,
Eriksson, Vardy & Zeger, IEEE Trans. IT 2002).  That distance is a row
minimum of the capacity kernel's table of frame distances, kept with the
tensor (``ChannelTensor.nearest_distances``).  ``_ml_radii`` shrinks the
half-distance by a slack that covers every rounding of the distance, the
radius, the frame and the expanded score, so a trial whose noise is inside
it is one the scoring would decide correctly: it is counted as such
without being scored.  ML draws its noise by one of two samplers, chosen
once per run:

- the radius draw, when at least 15 % of the trials are predicted to
  certify, the mean over the rows of 1 - q, q = ``_ml_uncertified``: a
  chunk of n trials draws its trials per (m, l) row, multinomial over the
  M * L equally likely rows, then the uncertified ones per row, binomial
  with that row's q = P(chi2(4M) >= t) for t its certificate energy.  The
  K uncertified trials alone draw: a uniform point, then a noise energy
  from chi2(4M) conditioned on exceeding t (``_ml_tail_energy``: per row, a
  multinomial count of the trials at each Poisson arrival count, then one
  gamma variate per trial), then a (2, M, 2) standard-normal direction
  rescaled to norm sigma * sqrt(E), and are built and scored.  The certified trials draw nothing, so a chunk
  where every trial certifies costs two draws of M * L counts, whatever n.
  Why the counts are exact in distribution: the antenna, state and point
  are uniform and independent, the certificate depends on the row alone,
  so given the row counts each row's uncertified count is binomial; and the
  norm and the direction of isotropic Gaussian noise are independent
  (Muller, CACM 1959).  One caveat: ``_poisson_pmf_dots`` returns 0 outside
  its window, so a row whose true q is below about 1e-30 never yields an
  uncertified trial.
- the direct draw, below 15 %: the antenna, state and point indices
  and the full (2, n, M, 2) noise of every trial, and every trial scored.
  Certifying would change no count, and there the radius draw's energies
  and tables cost more than the normals they save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, _check_tensor, _position, build_channel_tensor
from .config import _DETECTORS, SystemConfig, _check_symbol_axes, _state, _state_index
from .errors import ConfigError, require
from .numerics import Constellation, _chunks, _noise, _poisson_pmf_dots


@dataclass(frozen=True)
class OamSymbol:
    """One transmitted codeword: antenna index (1-based), beam state, and
    constellation point (with its index for exact decoding)."""

    antenna: int
    state: int
    point: complex
    point_index: int


def _symbol(states, points, m_idx, l_idx, p_idx) -> OamSymbol:
    """The codeword at 0-based (antenna, state, point) indices."""
    return OamSymbol(int(m_idx) + 1, int(states[l_idx]), complex(points[p_idx]), int(p_idx))


class SymbolMap:
    """Bijective mapping between bit strings and codewords.

    ``word`` is the one bit layout (see the module docstring); ``encode``
    and ``decode`` only parse and format it as a string, most significant
    bit first.
    """

    def __init__(self, n_antennas: int, states, constellation: Constellation):
        states = tuple(sorted(_state(s) for s in states))
        _check_symbol_axes(n_antennas, states)
        if len(set(constellation.bit_labels)) != constellation.order:
            raise ConfigError("constellation bit labels must be distinct")
        self.n_antennas = n_antennas
        self.states = states
        self.constellation = constellation
        self.antenna_bits = n_antennas.bit_length() - 1
        self.state_bits = len(states).bit_length() - 1
        self.point_bits = constellation.bits_per_symbol
        self.bits_per_symbol = self.antenna_bits + self.state_bits + self.point_bits
        self._gray = np.array([int(lbl, 2) if lbl else 0 for lbl in constellation.bit_labels])
        self._point_of_gray = np.argsort(self._gray)

    @property
    def n_symbols(self) -> int:
        return self.n_antennas * len(self.states) * self.constellation.order

    def word(self, m_idx, l_idx, p_idx):
        """Integer labels of 0-based (antenna, state, point) indices; takes
        scalars or integer arrays."""
        return (m_idx << (self.state_bits + self.point_bits)) | (l_idx << self.point_bits) | self._gray[p_idx]

    def encode(self, bits: str) -> OamSymbol:
        if len(bits) != self.bits_per_symbol or set(bits) - {"0", "1"}:
            raise ConfigError(f"expected a {self.bits_per_symbol}-bit string, got {bits!r}")
        w = int(bits, 2) if bits else 0
        p_idx = self._point_of_gray[w & ((1 << self.point_bits) - 1)]
        l_idx = (w >> self.point_bits) & ((1 << self.state_bits) - 1)
        m_idx = w >> (self.state_bits + self.point_bits)
        return _symbol(self.states, self.constellation.points, m_idx, l_idx, p_idx)

    def decode(self, symbol: OamSymbol) -> str:
        """The codeword's bit string; ConfigError naming the antenna, state
        or point index that lies outside this map."""
        m_idx = _position("antenna", symbol.antenna, self.n_antennas)
        p_idx = _position("point", symbol.point_index, self.constellation.order, first=0)
        w = int(self.word(m_idx, _state_index(self.states, symbol.state), p_idx))
        return format(w, "b").zfill(self.bits_per_symbol) if self.bits_per_symbol else ""

    def all_symbols(self):
        for i in range(self.n_symbols):
            yield self.encode(format(i, "b").zfill(self.bits_per_symbol) if self.bits_per_symbol else "")


def transmit(
    symbol: OamSymbol,
    tensor: ChannelTensor,
    rho: float,
    noise_var: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One channel use: an (M, 2) complex frame sqrt(rho) * h * x + noise.

    Noise is circularly symmetric complex Gaussian with total variance
    ``noise_var`` per sample; 0 is allowed and gives the noiseless frame.
    Deterministic given the generator state.
    """
    require("rho", rho, "finite and >= 0")
    require("noise_var", noise_var, "finite and >= 0")
    require("point", symbol.point, "a finite number")
    h = tensor.entries[tensor.antenna_index(symbol.antenna), tensor.state_index(symbol.state)]
    rows, points = np.zeros(1, dtype=np.intp), np.array([symbol.point])
    noise = _noise(rng, (1, *h.shape), math.sqrt(noise_var / 2.0))
    return _frames(math.sqrt(rho) * h[None], rows, points, noise)[0]


def _frames(clean: np.ndarray, rows: np.ndarray, points: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The samples clean[rows] * points, with each point broadcast over the
    table's trailing axes, plus the (2, *shape) ``noise`` from ``_noise``,
    added plane by plane as the module docstring describes."""
    y = clean.take(rows, axis=0)
    y *= points.reshape(-1, *(1,) * (y.ndim - 1))
    y.real += noise[0]
    y.imag += noise[1]
    return y


# Elements per ML decision block: each block holds rows x hypotheses scores,
# so memory stays bounded whatever the constellation or array size.
_BLOCK_ELEMS = 1 << 17


def _detector(tensor: ChannelTensor, rho: float, rule: str):
    """``decide(y)``: (n, M, 2) complex received frames to three length-n
    arrays of 0-based (antenna, state, point) indices under ``rule``.

    The ML score and the stepwise antenna and state scores are small real
    products whose argmin or argmax breaks ties to the lowest index, so an
    all-zero frame decides antenna 1, the first state and point 0.

    - ``stepwise``: the pair whose first antenna has the largest
      Re^2 + Im^2; then, with z = y0 * conj(y1) over that pair, the state
      maximizing Re(z * e^(-i beta l)) = |z| cos(arg z - beta l), which is
      the signature beta * l nearest the pair phase difference on the circle
      (the ML rule under the pair-angle constraint), by one (n, 2) @ (2, L)
      product, as the signatures are not evenly spaced; then the point whose
      sector holds the phase of w = y0 * conj(ref), ref being the in-ring
      response of the decided (antenna, state): rint(P arg(w) / 2 pi) mod P.
      Point k sits at angle 2 pi k / P (PSK, or the single point 1), so this
      is the point of least residual |y0 - ref * x_p|^2 (Proakis & Salehi,
      Digital Communications, sec. 4.3); a w exactly on a sector boundary
      (probability zero under noise) rounds half to even.
      The two phases are exposed as ``decide.antenna(first)``, the (n, M)
      first-antenna samples to m_hat, and ``decide.pair(y0, y1, m_hat)``,
      the decided pair's two length-n samples to (l_hat, p_hat); ``decide``
      on full frames composes them and reads nothing else of the frame.
    - ``ml``: the (m, l, p) hypothesis, in that flat order, minimizing the
      Frobenius residual |y - s_h|^2 between the frame and
      s_h = sqrt(rho) * h * x.  Since |y|^2 is common to every hypothesis,
      the argmin runs over the expanded score
      ||s_h||^2 - 2 * [Re y, Im y] . [Re s_h, Im s_h]: one real matrix
      product per block of max(1, _BLOCK_ELEMS // H) rows of the frames'
      float view (interleaved Re, Im) against a (4M, H) basis built once,
      plus the H energies.  The expanded form can change a decision only
      where two residuals agree to within rounding of |y|^2 + |s_h|^2.
    """
    M, n_states = tensor.entries.shape[:2]
    points = np.asarray(tensor.config.constellation().points)
    sqrt_rho = math.sqrt(rho)
    if rule == "ml":
        clean = sqrt_rho * tensor.entries.reshape(M * n_states, 2 * M)
        hyp = clean[:, None, :] * points[None, :, None]
        # Interleaved (Re, Im) coordinates of each hypothesis: the float view
        # of the complex array, as the received frames are read below.
        coords = hyp.reshape(-1, 2 * M).view(np.float64)  # (H, 4M)
        basis = np.ascontiguousarray(-2.0 * coords.T)
        energy = np.einsum("hk,hk->h", coords, coords)
        rows = max(1, _BLOCK_ELEMS // len(energy))

        def decide(y):
            feats = np.ascontiguousarray(y, dtype=complex).reshape(len(y), 2 * M).view(np.float64)
            flat = np.empty(len(y), dtype=np.intp)
            # One score buffer for every block of the call.
            block = np.empty((min(rows, len(y)), len(energy)))
            for lo in range(0, len(y), rows):
                score = np.matmul(feats[lo : lo + rows], basis, out=block[: len(y) - lo])
                score += energy
                flat[lo : lo + rows] = np.argmin(score, axis=1)
            return np.unravel_index(flat, (M, n_states, points.size))

        return decide

    beta_l = tensor.config.beta_value * np.asarray(tensor.states, dtype=float)
    state_basis = np.array([np.cos(beta_l), np.sin(beta_l)])  # (2, L)
    ref = sqrt_rho * tensor.entries[np.arange(M), :, np.arange(M), 0]  # (M, L)
    sector = points.size / (2.0 * math.pi)

    def antenna(first):
        return np.argmax(first.real**2 + first.imag**2, axis=1)

    def pair(y0, y1, m_hat):
        # (n, 2) float view [Re, Im] of z = y0 * conj(y1).
        z = (y0 * y1.conj()).view(np.float64).reshape(-1, 2)
        l_hat = np.argmax(z @ state_basis, axis=1)
        w = y0 * ref[m_hat, l_hat].conj()
        # + 0.0 turns a signed zero into +0.0, so w = 0 has angle 0.
        p_hat = np.rint(sector * np.arctan2(w.imag + 0.0, w.real + 0.0)).astype(np.intp)
        return l_hat, p_hat % points.size

    def decide(y):
        m_hat = antenna(y[:, :, 0])
        # ``take`` of flat rows: several times faster than 2-D fancy indexing.
        decided = y.reshape(-1, 2).take(np.arange(len(y)) * M + m_hat, axis=0)
        return (m_hat, *pair(decided[:, 0], decided[:, 1], m_hat))

    decide.antenna, decide.pair = antenna, pair
    return decide


def _ml_radii(tensor: ChannelTensor, scale: float) -> np.ndarray:
    """``scale`` times the unit-power certificate radius r_a of each (m, l)
    row a, indexed m L + l: an ML frame s + n, s = sqrt(rho) h_a x_p, with
    |n| < sqrt(rho) r_a is decided (a, p) by ``_detector``'s expanded score.

    Every point is a unit-modulus rotation of point 0, so at unit power each
    hypothesis of row a is d_a from its nearest other one, d_a^2 =
    ``tensor.nearest_distances[a]``.  With the slack t = 2^-46 * 4M * max E,
    E_a = |h_a|^2 (128 units of rounding per real coordinate),

        r_a = (d_a^2 - 3t) / (2 sqrt(d_a^2 - t)),  or 0 where d_a^2 <= 3t,

    so coincident hypotheses are never certified, and r_a = inf for a
    1-codeword system.  Why this is exact (every term scales with rho): d_a^2
    sums 4M squared differences of coordinates off by a few units of rounding
    u = 2^-53 of sqrt(max E), each difference, square and sum rounding
    relative to d_a^2 <= 4 max E, so it is within (16M + 82) u max E < t / 5
    of the true D^2.  Hence D >= sqrt(d_a^2 - t), and for |n| < r_a every
    other residual exceeds the sent one's by D^2 - 2 D |n| > t, which bounds
    the rounding of the two expanded scores compared, each within
    gamma_4M (2 |y| |s| + |s|^2) + 5 units, |y| <= 2 sqrt(max E).  The last
    t / (2 sqrt(d_a^2 - t)) of r_a covers the rounding of its scaling, the
    frame, the test |n|^2 < r^2 and the radius draw's rescaled norm, each at
    most a tenth of it.
    """
    h = tensor.entries
    slack = 2.0**-46 * (4 * h.shape[0]) * float(np.max(np.sum(h.real**2 + h.imag**2, axis=(2, 3))))
    lo = tensor.nearest_distances - slack
    # (lo - 2 slack) / (2 sqrt(lo)), written so that lo = inf gives inf.
    with np.errstate(invalid="ignore"):
        return np.where(lo > 2.0 * slack, scale * (np.sqrt(lo) / 2.0 - slack / np.sqrt(lo)), 0.0)


def _ml_uncertified(cert_energy: np.ndarray, n_antennas: int) -> np.ndarray:
    """Per-row share q of ML trials left uncertified: P(|z|^2 >= t) for
    |z|^2 ~ chi2(4M) and t = ``cert_energy``, that is P(Poisson(t / 2) < 2M),
    taken directly so that a small q keeps its relative accuracy, and
    capped at 1, which the summed pmf can pass by a rounding.  A row of
    t = 0 (coincident frames) gives 1, and one of t = inf (a single
    hypothesis) gives 0.  Outside the Poisson window of ``_poisson_pmf_dots``
    (a true q below about 1e-30) q is 0."""
    half = np.asarray(cert_energy, dtype=float) / 2.0
    q = np.ones_like(half)
    mid = half > 0.0
    q[mid] = np.minimum(_poisson_pmf_dots([np.ones(2 * n_antennas)], half[mid])[0], 1.0)
    return q


def _ml_arrival_pmf(cert_energy: np.ndarray, n_antennas: int) -> np.ndarray:
    """(rows, 2M) law of the arrival count i that ``_ml_tail_energy`` draws:
    Poisson(t / 2) restricted to 0 .. 2M - 1, weights s^i / i! with
    s = t / 2, formed in log space.  A row of t = 0 puts all its mass on
    i = 0; so does one of t = inf, which is never drawn (its q is 0)."""
    half = np.asarray(cert_energy, dtype=float) / 2.0
    ks = np.arange(2 * n_antennas)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(ks[1:]))))
    pmf = np.zeros((half.size, ks.size))
    pmf[:, 0] = 1.0
    mid = (half > 0.0) & np.isfinite(half)
    log_w = np.multiply.outer(np.log(half[mid]), ks) - log_fact
    w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
    pmf[mid] = w / w.sum(axis=1, keepdims=True)
    return pmf


def _ml_tail_energy(rng: np.random.Generator, cert_energy: np.ndarray, arrival_pmf: np.ndarray, per_row: np.ndarray):
    """``(rows, energy)`` of ``per_row[r]`` trials of each row r, in row
    order: E ~ chi2(4M) conditioned on E >= t, t = ``cert_energy[rows]``,
    exactly.  With X = E / 2 ~ Gamma(2M, 1) the time of the 2M-th arrival
    of a unit Poisson process, X > s = t / 2 means fewer than 2M arrivals
    in [0, s]: their number i follows ``arrival_pmf``, Poisson(s) restricted
    to 0 .. 2M - 1, and the 2M - i arrivals still due come after s, so
    X = s + Gamma(2M - i, 1).  The trials of a row are exchangeable, so one
    multinomial per row draws how many have each i."""
    width = arrival_pmf.shape[1]
    counts = rng.multinomial(per_row, arrival_pmf)
    rows, arrivals = np.divmod(np.repeat(np.arange(counts.size), counts.reshape(-1)), width)
    return rows, cert_energy[rows] + 2.0 * rng.standard_gamma(width - arrivals)


# The radius draw pays once this share of ML trials certify; below it the
# energies and counts cost more than the scoring they save.  Timed in
# process, the two samplers broke even at a certified share between 0.10
# (8 antennas) and 0.2 (2 antennas and BPSK, whose 8 hypotheses score
# cheaply); at the default config, at 0.13.
_RADIUS_DRAW_SHARE = 0.15


def _demodulate(frame: np.ndarray, tensor: ChannelTensor, rho: float, rule: str) -> OamSymbol:
    """Decide one frame by the batched ``rule``.  The frame and rho are
    checked here, not in ``_detector``, so batched trials pay nothing."""
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != tensor.entries.shape[2:]:
        raise ValueError(f"frame must have shape {tensor.entries.shape[2:]}, got {frame.shape}")
    require("frame", frame, "a finite number in every entry")
    require("rho", rho, "finite and >= 0")
    indices = (i[0] for i in _detector(tensor, rho, rule)(frame[None]))
    return _symbol(tensor.states, tensor.config.constellation().points, *indices)


def demodulate_stepwise(frame: np.ndarray, tensor: ChannelTensor, rho: float) -> OamSymbol:
    """Three-step detection of one (M, 2) frame: strongest pair, pair phase
    difference, point decision."""
    return _demodulate(frame, tensor, rho, "stepwise")


def demodulate_ml(frame: np.ndarray, tensor: ChannelTensor, rho: float) -> OamSymbol:
    """Joint maximum-likelihood detection of one (M, 2) frame over every
    (m, l, p) hypothesis."""
    return _demodulate(frame, tensor, rho, "ml")


@dataclass(frozen=True)
class BerReport:
    """Monte Carlo error rates, each with the standard error of the mean of
    its per-trial count (binomial for the 0/1 stage and symbol errors)."""

    trials: int
    bits_per_symbol: int
    bit_error_rate: float
    bit_error_stderr: float
    antenna_error_rate: float
    antenna_error_stderr: float
    state_error_rate: float
    state_error_stderr: float
    symbol_error_rate: float
    symbol_error_stderr: float
    detector: str
    snr_db: float
    seed: int


def _stderr(total: int, squares: int, n: int, scale: int = 1) -> float:
    """Standard error of the mean of n per-trial error counts over ``scale``,
    from their sum and sum of squares.  For 0/1 counts (squares == total)
    this is the binomial sqrt(p (1 - p) / n), bit for bit."""
    p = total / n
    var = p * (squares / total - p) if total else 0.0
    return math.sqrt(max(var, 0.0) / n) / scale


_CHUNK = 8192


def simulate_ber(
    config: SystemConfig,
    snr_db,
    trials: int,
    seed: int,
    detector: str = "stepwise",
    tensor: ChannelTensor | None = None,
) -> BerReport | list[BerReport]:
    """Monte Carlo bit/stage error rates at one operating point, or at each
    SNR of a 1-D sequence ``snr_db``.

    Bits are drawn uniformly, mapped to codewords, sent through the channel
    with complex Gaussian noise at the configured noise power, and detected
    with the requested detector.  Chunk i of 8192 trials draws from Philox
    substream (seed, 0xBE7, i) by the detector's sampler (module
    docstring): the stepwise draw of the indices and of only the samples
    its rule reads, or one of the two ML samplers, chosen once per run; a
    radius-draw chunk in which every trial certifies draws O(M * L) counts,
    not O(trials).  Every sampler gives error counts exact in distribution,
    save that a row whose uncertified share is below about 1e-30 counts as
    certifying every trial.  Results are deterministic in (config, snr_db,
    trials, seed, detector).

    A 1-D ``snr_db`` returns a list of reports, report k equal to the call
    at ``snr_db[k]`` alone with the same seed; every SNR is checked before
    the first draw.  Stepwise decides each chunk's one draw at every SNR,
    so the reports' counts are correlated; ML runs one pass over the same
    substreams per SNR (module docstring).

    Each standard error is that of the mean of a per-trial count: the bits
    of one codeword err together, so the bit rate's comes from the variance
    of the per-trial bit-error count, not from trials * bits independent
    bits.  ``tensor``, when given, must have the config's antennas, states
    and constellation order (ConfigError otherwise).
    """
    require("trials", trials, "a positive integer")
    require("detector", detector, _DETECTORS, ConfigError)
    if tensor is None:
        tensor = build_channel_tensor(config)
    _check_tensor(tensor, config)
    if (order := tensor.config.constellation_order) != config.constellation_order:
        raise ConfigError(f"tensor built for constellation order {order}, config has {config.constellation_order}")
    # A list is a grid and a plain number is not, without np.ndim: it costs
    # 2 us through np.asarray, and fails on a list holding an array.
    grid = isinstance(snr_db, (list, tuple)) or (not isinstance(snr_db, (int, float)) and np.ndim(snr_db) == 1)
    snrs = list(snr_db) if grid else [snr_db]
    rhos = [config.rho_for_snr_db(s) for s in snrs]
    smap = config._symbol_map
    sigma = math.sqrt(config.noise_power_w / 2.0)
    if detector == "ml":
        counts = [_ml_errors(tensor, rho, trials, seed, sigma, smap) for rho in rhos]
    else:
        counts = _stepwise_errors(tensor, rhos, trials, seed, sigma, smap)
    reports = [_report(c, trials, smap, detector, s, seed) for c, s in zip(counts, snrs)]
    return reports if grid else reports[0]


def _stepwise_errors(tensor: ChannelTensor, rhos: list, trials: int, seed: int, sigma: float, smap: SymbolMap):
    """(len(rhos), 5) ``_errors`` totals of the stepwise rule: each chunk's
    one draw, decided at every rho."""
    M, n_states = tensor.entries.shape[:2]
    points = np.asarray(smap.constellation.points)
    # The two tables of the stepwise draw (module docstring) and the rule,
    # per rho.
    tables = []
    for rho in rhos:
        clean = (math.sqrt(rho) * tensor.entries).reshape(M * n_states, M, 2)
        first, second = np.ascontiguousarray(clean[:, :, 0]), clean[:, :, 1].reshape(-1)
        tables.append((first, second, _detector(tensor, rho, "stepwise")))
    counts = np.zeros((len(rhos), 5), dtype=np.int64)
    for _, n, rng in _chunks(trials, _CHUNK, seed, 0xBE7):
        sent = rng.integers(0, M, size=n), rng.integers(0, n_states, size=n), rng.integers(0, points.size, size=n)
        first_noise, second_noise = _noise(rng, (n, M), sigma), _noise(rng, (n,), sigma)
        rows = sent[0] * n_states + sent[1]
        x = points[sent[2]]
        flat = np.arange(n) * M
        for k, (first_table, second_table, decide) in enumerate(tables):
            # ``_frames`` adds the noise to a gathered copy, so every rho
            # reads the same draw.
            first = _frames(first_table, rows, x, first_noise)
            m_hat = decide.antenna(first)
            second = _frames(second_table, rows * M + m_hat, x, second_noise)
            first = first.reshape(-1).take(flat + m_hat)
            decided = (m_hat, *decide.pair(first, second, m_hat))
            del first, second
            counts[k] += _errors(smap, sent, decided)
    return counts


def _ml_errors(tensor: ChannelTensor, rho: float, trials: int, seed: int, sigma: float, smap: SymbolMap):
    """The five ``_errors`` totals of the ML rule at one rho, by the sampler
    the module docstring chooses."""
    M, n_states = tensor.entries.shape[:2]
    points = np.asarray(smap.constellation.points)
    # Clean frames of every (antenna, state), gathered by m * L + l.
    clean = (math.sqrt(rho) * tensor.entries).reshape(M * n_states, M, 2)
    # A trial whose noise has |z|^2 < r^2 for its codeword's certificate
    # radius r in noise standard deviations is decided correctly
    # (``_ml_radii``).
    cert_energy = _ml_radii(tensor, math.sqrt(rho) / sigma) ** 2
    uncertified = _ml_uncertified(cert_energy, M)
    radius_draw = 1.0 - uncertified.mean() >= _RADIUS_DRAW_SHARE
    row_share = np.full(M * n_states, 1.0 / (M * n_states))
    # The radius draw forms its scoring basis and arrival table only once a
    # chunk has a trial to score.
    decide = None if radius_draw else _detector(tensor, rho, "ml")

    counts = np.zeros(5, dtype=np.int64)
    for _, n, rng in _chunks(trials, _CHUNK, seed, 0xBE7):
        if radius_draw:
            # Trials per row, then the uncertified ones per row; only those
            # draw a point, an energy and a direction and are built and
            # scored.  The certified ones add no error.
            per_row = rng.binomial(rng.multinomial(n, row_share), uncertified)
            if not (k := int(per_row.sum())):
                continue
            if decide is None:
                decide, arrival_pmf = _detector(tensor, rho, "ml"), _ml_arrival_pmf(cert_energy, M)
            p_idx = rng.integers(0, points.size, size=k)
            rows, energy = _ml_tail_energy(rng, cert_energy, arrival_pmf, per_row)
            m_idx, l_idx = np.divmod(rows, n_states)
            noise = rng.standard_normal((2, k, M, 2))
            norm2 = np.einsum("ankc,ankc->n", noise, noise)
            noise *= (sigma * np.sqrt(energy / norm2))[:, None, None]
        else:
            m_idx = rng.integers(0, M, size=n)
            l_idx = rng.integers(0, n_states, size=n)
            p_idx = rng.integers(0, points.size, size=n)
            rows = m_idx * n_states + l_idx
            noise = _noise(rng, (n, M, 2), sigma)
        decided = decide(_frames(clean, rows, points[p_idx], noise))
        # Release the noise before the errors are counted and the next
        # chunk's noise is drawn.
        del noise, rows
        counts += _errors(smap, (m_idx, l_idx, p_idx), decided)
    return counts


def _errors(smap: SymbolMap, sent: tuple, decided: tuple) -> tuple:
    """One chunk's (bit errors, sum of their squares over trials, antenna
    errors, state errors, symbol errors) from the sent and decided 0-based
    (antenna, state, point) index arrays."""
    (m_idx, l_idx, p_idx), (m_hat, l_hat, p_hat) = sent, decided
    ant_err = m_hat != m_idx
    st_err = l_hat != l_idx
    sym_err = ant_err | st_err | (p_hat != p_idx)
    xor = smap.word(m_idx, l_idx, p_idx) ^ smap.word(m_hat, l_hat, p_hat)
    # int64: a dot product of the uint8 counts would overflow.
    per_trial = np.bitwise_count(xor).astype(np.int64)
    stages = (int(np.count_nonzero(e)) for e in (ant_err, st_err, sym_err))
    return (int(per_trial.sum()), int(per_trial @ per_trial), *stages)


def _report(counts: np.ndarray, trials: int, smap: SymbolMap, detector: str, snr_db, seed: int) -> BerReport:
    """The ``BerReport`` of five ``_errors`` totals over ``trials``."""
    bit_errors, bit_squares, ant_errors, state_errors, sym_errors = counts.tolist()
    bits = max(smap.bits_per_symbol, 1)  # a 0-bit codeword counts no bit errors
    return BerReport(
        trials=trials,
        bits_per_symbol=smap.bits_per_symbol,
        bit_error_rate=bit_errors / (trials * bits),
        bit_error_stderr=_stderr(bit_errors, bit_squares, trials, bits),
        antenna_error_rate=ant_errors / trials,
        antenna_error_stderr=_stderr(ant_errors, ant_errors, trials),
        state_error_rate=state_errors / trials,
        state_error_stderr=_stderr(state_errors, state_errors, trials),
        symbol_error_rate=sym_errors / trials,
        symbol_error_stderr=_stderr(sym_errors, sym_errors, trials),
        detector=detector,
        snr_db=float(snr_db),
        seed=seed,
    )
