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
unit-power responses: it gathers the table's leading-axis entries ``rows``,
scales them by sqrt(rho), multiplies each by its drawn point (broadcast over
the trailing axes), and adds in place a noise draw (``_noise``) laid out as
(2, *shape): the real plane, then the imaginary plane.  ``transmit`` and
the ML trials call it on the (M * L, M, 2) table of frames h, gathered by
m * L + l.  The stepwise trials draw only the noise their rule reads: the
M first-antenna samples, whose powers decide the antenna, and the decided
pair's second sample.  That is 2M + 2 normals per trial instead of 4M; the
noise left undrawn is independent of every sample the rule reads, so the
error counts have the same distribution.

The stepwise draw (the indices, the (2, n, M) first-antenna noise, then
the (2, n) decided-pair noise, all at the config's noise power) depends on
no SNR.  A ``simulate_ber`` call over several SNRs therefore draws each
chunk once and decides that draw at every SNR, each by its own rule:
common random numbers across the curve (Law & Kelton, Simulation Modeling
and Analysis).  Each SNR's counts keep the law of a one-SNR call, to the
bit: report k is the one-SNR call at SNR k with the same seed.  The ML
radius draw depends on the SNR, so ML runs one pass over the same
substreams per SNR.

Stepwise forms each thing once, where it stops changing.  Per chunk: the
gather rows m * L + l, the drawn points and the sent words.  Per block of
at most ``_BLOCK_ELEMS // M`` trials: the SNR-free terms of every pair's
first-antenna power.  With a = h x the unit-power sample, n its noise and
s = sqrt(rho), that power is |s a + n|^2 = s^2 |h|^2 + s 2 Re(a conj(n))
+ |n|^2, as every point has unit modulus; the block keeps the three terms
in (M, n) layout.  Per SNR, which keeps only s and its rule: the powers
(four passes, by Horner's rule in s), the antenna decision, the decided
pair's two samples (the scaled table entry times the point, plus that
pair's noise, as a full frame holds them), the state and point decisions
and the counts.  Every block and SNR of the call reuses one work buffer.
The decisions run in (axis, trial) layout, the antenna from the (M, n)
powers and the state from (L, n) scores, each by one running first maximum
over its short leading axis (``_first_max``), not by an argmax per trial.

ML trials are certified before they are scored.  A received point closer
to the sent hypothesis than half that hypothesis's distance to its nearest
other one lies in its decision region (bounded-distance decoding; Agrell,
Eriksson, Vardy & Zeger, IEEE Trans. IT 2002).  That distance is a row
minimum of the capacity kernel's table of frame distances, kept with the
tensor (``ChannelTensor.nearest_distances``).  ``_ml_radii`` shrinks the
half-distance by a slack that covers every rounding of the distance, the
radius, the frame and the expanded score, so a trial whose noise is inside
it is one the scoring would decide correctly: it is counted as such
without being scored.  ML draws its noise by the radius draw, at every
SNR.  A chunk of n trials draws its trials per (m, l) row, multinomial
over the M * L equally likely rows, then the uncertified ones per row,
binomial with that row's q = P(chi2(4M) >= t) for t its certificate
energy (``_ml_tail_law``).  The K uncertified trials alone draw: a uniform
point, then a noise energy from chi2(4M) conditioned on exceeding t
(``_ml_tail_energy``: per row, a multinomial count of the trials at each
Poisson arrival count, then one gamma variate per trial), then a
(2, M, 2) standard-normal direction rescaled to norm sigma * sqrt(E), and
are built and scored.  The certified trials draw nothing, so a chunk where
every trial certifies costs two draws of M * L counts, whatever n; at low
SNR, where t is near 0 and q near 1, the conditional law is the
unconditional chi2(4M) and nearly every trial is scored.  Why the counts
are exact in distribution: the antenna, state and point are uniform and
independent, the certificate depends on the row alone, so given the row
counts each row's uncertified count is binomial; and the norm and the
direction of isotropic Gaussian noise are independent (Muller, CACM 1959).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, _check_tensor, _position, build_channel_tensor
from .config import _DETECTORS, SystemConfig, _check_symbol_axes, _state, _state_index
from .errors import ConfigError, require
from .numerics import Constellation, _chunks, _grid, _noise


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
        m_bits = np.left_shift(m_idx, self.state_bits + self.point_bits, dtype=np.intp)
        return m_bits | np.left_shift(l_idx, self.point_bits, dtype=np.intp) | self._gray[p_idx]

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
    return _frames(h[None], rows, math.sqrt(rho), points, noise)[0]


def _frames(table: np.ndarray, rows: np.ndarray, scale: float, points: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """The samples (scale * table[rows]) * points, with each point broadcast
    over the table's trailing axes, plus the (2, *shape) ``noise`` from
    ``_noise``, added plane by plane as the module docstring describes."""
    y = table.take(rows, axis=0)
    y *= scale
    y *= points.reshape(-1, *(1,) * (y.ndim - 1))
    y.real += noise[0]
    y.imag += noise[1]
    return y


# Elements per decision block: an ML block holds rows x hypotheses scores and
# a stepwise block trials x antennas power terms, so memory stays bounded
# whatever the constellation or array size.
_BLOCK_ELEMS = 1 << 17


def _detector(tensor: ChannelTensor, rho: float, rule: str):
    """``decide(y)``: (n, M, 2) complex received frames to three length-n
    arrays of 0-based (antenna, state, point) indices under ``rule``.

    The ML score and the stepwise antenna and state scores are small real
    products whose argmin or first maximum breaks ties to the lowest index,
    so an all-zero frame decides antenna 1, the first state and point 0.

    - ``stepwise``: the pair whose first antenna has the largest
      Re^2 + Im^2; then, with z = y0 * conj(y1) over that pair, the state
      maximizing Re(z * e^(-i beta l)) = |z| cos(arg z - beta l), which is
      the signature beta * l nearest the pair phase difference on the circle
      (the ML rule under the pair-angle constraint), by one (L, 2) @ (2, n)
      product, as the signatures are not evenly spaced; then the point whose
      sector holds the phase of w = y0 * conj(ref), ref being the in-ring
      response of the decided (antenna, state): rint(P arg(w) / 2 pi) mod P.
      Point k sits at angle 2 pi k / P (PSK, or the single point 1), so this
      is the point of least residual |y0 - ref * x_p|^2 (Proakis & Salehi,
      Digital Communications, sec. 4.3); a w exactly on a sector boundary
      (probability zero under noise) rounds half to even.
      Both maxima are taken in (axis, trial) layout by ``_first_max``,
      whose strict comparison keeps the lowest index on a tie, as argmax
      does; m_hat and l_hat come in its small unsigned dtype.
      The pair phase is exposed as ``decide.pair(y0, y1, m_hat, work)``:
      the decided pair's two contiguous length-n samples to (l_hat, p_hat)
      through (L, n) scores in the float buffer ``work``, of at least L n
      entries; it forms z in ``y1`` and w in ``y0``.  ``decide`` on full
      frames forms the (M, n) powers as Re^2 + Im^2 of the first antennas
      and reads nothing else of the frame but the decided pair.  The Monte
      Carlo grid forms them from SNR-free terms instead, as
      s^2 |h|^2 + s 2 Re(h x conj(n)) + |n|^2 with s = sqrt(rho)
      (``_stepwise_errors``), and takes their first maximum itself; like
      the ML expanded score, that form can change a decision only where
      two pairs' powers agree to within rounding.
    - ``ml``: the (m, l, p) hypothesis, in that flat order, minimizing the
      Frobenius residual |y - s_h|^2 between the frame and
      s_h = sqrt(rho) * h * x.  Since |y|^2 is common to every hypothesis,
      the argmin runs over the expanded score
      rho E_h - 2 sqrt(rho) [Re y, Im y] . u_h, with u_h the column of the
      tensor's kept ``unit_frames`` and E_h its ``unit_energies`` entry:
      one real matrix product per block of max(1, _BLOCK_ELEMS // H) rows
      of the frames' split planes (the real parts, then the imaginary, as
      U is laid out) against the (4M, H) basis -2 sqrt(rho) U, plus the H
      energies.  The expanded form can change a decision only where two
      residuals agree to within rounding of |y|^2 + |s_h|^2.
    """
    M, n_states = tensor.entries.shape[:2]
    n_points = tensor.config.constellation_order
    sqrt_rho = math.sqrt(rho)
    if rule == "ml":
        basis = (-2.0 * sqrt_rho) * tensor.unit_frames
        energy = rho * tensor.unit_energies
        rows = max(1, _BLOCK_ELEMS // len(energy))

        def decide(y):
            y = y.reshape(len(y), 2 * M)
            feats = np.concatenate([y.real, y.imag], axis=1)
            flat = np.empty(len(y), dtype=np.intp)
            # One score buffer for every block of the call.
            block = np.empty((min(rows, len(y)), len(energy)))
            for lo in range(0, len(y), rows):
                score = np.matmul(feats[lo : lo + rows], basis, out=block[: len(y) - lo])
                score += energy
                flat[lo : lo + rows] = np.argmin(score, axis=1)
            return np.unravel_index(flat, (M, n_states, n_points))

        return decide

    beta_l = tensor.config.beta_value * np.asarray(tensor.states, dtype=float)
    state_basis = np.array([np.cos(beta_l), np.sin(beta_l)]).T  # (L, 2)
    # conj of the in-ring responses sqrt(rho) h_m,m,l, indexed m L + l.
    ref_conj = (sqrt_rho * tensor.entries[np.arange(M), :, np.arange(M), 0]).conj().reshape(-1)
    sector = n_points / (2.0 * math.pi)

    def pair(y0, y1, m_hat, work):
        # z = y0 * conj(y1), formed in y1; its (2, n) planes [Re z; Im z].
        z = np.multiply(y0, np.conjugate(y1, out=y1), out=y1).view(np.float64).reshape(-1, 2).T
        l_hat = _first_max(np.matmul(state_basis, z, out=work[: n_states * y0.size].reshape(n_states, -1)))
        # w, formed in y0; np.intp: m_hat L in the indices' small dtype
        # could overflow.
        w = np.multiply(y0, ref_conj.take(m_hat * np.intp(n_states) + l_hat), out=y0)
        # + 0.0 turns a signed zero into +0.0, so w = 0 has angle 0.
        phase = np.arctan2(w.imag + 0.0, w.real + 0.0)
        phase *= sector
        p_hat = np.rint(phase, out=phase).astype(np.intp)
        # mod P, as P is a power of two.
        return l_hat, p_hat & (n_points - 1)

    def decide(y):
        work = np.empty(max(2 * M, n_states) * len(y))
        # The (M, n) powers of the first antennas, from their transposed view.
        first = y[:, :, 0].T
        power, imag2 = work[: 2 * first.size].reshape(2, *first.shape)
        np.multiply(first.real, first.real, out=power)
        power += np.multiply(first.imag, first.imag, out=imag2)
        m_hat = _first_max(power)
        # ``take`` of flat rows: several times faster than 2-D fancy indexing.
        y0, y1 = y.reshape(-1, 2).take(np.arange(len(y)) * M + m_hat, axis=0).T.copy()
        return (m_hat, *pair(y0, y1, m_hat, work))

    decide.pair = pair
    return decide


def _first_max(v: np.ndarray) -> np.ndarray:
    """The row index of the first maximum in each column of the (K, n)
    array ``v``: ``np.argmax(v, axis=0)`` for NaN-free ``v``, in the
    smallest unsigned dtype that holds K - 1.

    One running maximum over the rows: row j takes over only where it is
    strictly greater, so a tie keeps the lowest row.  As j exceeds every
    earlier index, the index update is the maximum of the index so far and
    j where row j took over, with no masked write.  That is four whole-row
    passes per row against argmax's step per column: cheaper for a few
    rows (4 or 8 at 8192 columns), dearer for many (64), and a strided view
    such as the transpose of an (n, K) array is read without a copy.
    """
    best = v[0].copy()
    idx = np.zeros(v.shape[1], dtype=np.min_scalar_type(len(v) - 1))
    took, step = np.empty(v.shape[1], dtype=bool), np.empty_like(idx)
    for j in range(1, len(v)):
        np.greater(v[j], best, out=took)
        np.maximum(best, v[j], out=best)
        np.maximum(idx, np.multiply(took, idx.dtype.type(j), out=step), out=idx)
    return idx


def _ml_radii(tensor: ChannelTensor, scale: float) -> np.ndarray:
    """``scale`` times the unit-power certificate radius r_a of each (m, l)
    row a, indexed m L + l: an ML frame s + n, s = sqrt(rho) h_a x_p, with
    |n| < sqrt(rho) r_a is decided (a, p) by ``_detector``'s expanded score.

    Every point is a unit-modulus rotation of point 0, so at unit power each
    hypothesis of row a is d_a from its nearest other one, d_a^2 =
    ``tensor.nearest_distances[a]``.  With the slack t = 2^-46 * 4M * max E,
    E the tensor's kept ``unit_energies`` (128 units of rounding per real
    coordinate),

        r_a = (d_a^2 - 3t) / (2 sqrt(d_a^2 - t)),  or 0 where d_a^2 <= 3t,

    so coincident hypotheses are never certified, and r_a = inf for a
    1-codeword system.  Why this is exact (every term scales with rho): d_a^2
    sums 4M squared differences of coordinates off by a few units of rounding
    u = 2^-53 of sqrt(max E), each difference, square and sum rounding
    relative to d_a^2 <= 4 max E, so it is within (16M + 82) u max E < t / 5
    of the true D^2.  Hence D >= sqrt(d_a^2 - t), and for |n| < r_a every
    other residual exceeds the sent one's by D^2 - 2 D |n| > t, which bounds
    the rounding of the two expanded scores compared, each within
    gamma_4M (2 |y| |s| + |s|^2) + 6 units, |y| <= 2 sqrt(max E); the
    sixth unit is the product rho E_h, which rounds the kept unit-power
    energy once more.  The last
    t / (2 sqrt(d_a^2 - t)) of r_a covers the rounding of its scaling, the
    frame, the test |n|^2 < r^2 and the radius draw's rescaled norm, each at
    most a tenth of it.
    """
    slack = 2.0**-46 * (4 * tensor.entries.shape[0]) * float(tensor.unit_energies.max())
    lo = tensor.nearest_distances - slack
    # (lo - 2 slack) / (2 sqrt(lo)), written so that lo = inf gives inf.
    with np.errstate(invalid="ignore"):
        return np.where(lo > 2.0 * slack, scale * (np.sqrt(lo) / 2.0 - slack / np.sqrt(lo)), 0.0)


def _ml_tail_law(cert_energy: np.ndarray, n_antennas: int):
    """``(q, arrival_pmf)`` of rows with certificate energies t =
    ``cert_energy``, from one log-space table of the weights s^i / i!,
    s = t / 2, i = 0 .. 2M - 1.

    q is each row's share of ML trials left uncertified, P(|z|^2 >= t) for
    |z|^2 ~ chi2(4M), that is P(Poisson(s) < 2M) = e^(c - s) S, with c the
    row's largest log weight and S the sum of its weights over e^c: taken
    directly, so a small q keeps its relative accuracy down to the smallest
    normal double, and capped at 1, which the product can pass by a
    rounding.  ``arrival_pmf`` is the (rows, 2M) law of the arrival count
    i that ``_ml_tail_energy`` draws, Poisson(s) restricted to 0 .. 2M - 1:
    the weights over e^c S.  A row of t = 0 (coincident frames) has q = 1
    and one of t = inf (a single hypothesis) q = 0; both take -1e300 for
    log s, so their law puts all its mass on i = 0 and no 0 * inf is formed.
    """
    half = cert_energy / 2.0
    ks = np.arange(2 * n_antennas)[:, None]
    log_fact = np.add.accumulate(np.log(np.maximum(ks, 1)))
    log_w = ks * np.log(half, out=np.full_like(half, -1e300), where=(half > 0.0) & (half < np.inf))
    log_w -= log_fact
    top = np.maximum.reduce(log_w)
    log_w -= top
    weights = np.exp(log_w, out=log_w)
    total = np.add.reduce(weights)
    weights /= total
    return np.minimum(np.exp(top - half) * total, 1.0), weights.T


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
    its rule reads, or the ML radius draw, in which a chunk whose trials all
    certify draws O(M * L) counts, not O(trials).  Both give error counts
    exact in distribution.  Results are deterministic in (config, snr_db,
    trials, seed, detector).

    A 1-D ``snr_db`` returns a list of reports, report k equal to the call
    at ``snr_db[k]`` alone with the same seed; every SNR is checked before
    the first draw.  Stepwise decides each chunk's one draw at every SNR,
    from SNR-free power terms formed once per block, so the reports'
    counts are correlated; ML runs one pass over the same substreams per
    SNR (module docstring).

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
    snrs, grid = _grid(snr_db)
    rhos = [config.rho_for_snr_db(s) for s in snrs]
    smap = config._symbol_map
    sigma = math.sqrt(config.noise_power_w / 2.0)
    if detector == "ml":
        counts = [_ml_errors(tensor, rho, trials, seed, sigma, smap) for rho in rhos]
    else:
        # An empty grid has no SNR to decide a draw at, so it draws nothing.
        counts = _stepwise_errors(tensor, rhos, trials, seed, sigma, smap) if rhos else []
    reports = [_report(c, trials, smap, detector, s, seed) for c, s in zip(counts, snrs)]
    return reports if grid else reports[0]


def _stepwise_errors(tensor: ChannelTensor, rhos: list, trials: int, seed: int, sigma: float, smap: SymbolMap):
    """(len(rhos), 5) ``_errors`` totals of the stepwise rule: each chunk's
    one draw, decided at every rho in blocks from the block's SNR-free power
    terms (module docstring)."""
    M, n_states = tensor.entries.shape[:2]
    points = np.asarray(smap.constellation.points)
    # Unit-power tables: the first antennas and their |h|^2, transposed to
    # (M, M * L), gathered by m * L + l; either antenna, flat, gathered by
    # (m * L + l) * M + m_hat.
    unit = tensor.entries.reshape(M * n_states, M, 2)
    first = np.ascontiguousarray(unit[:, :, 0])
    gain_table = np.ascontiguousarray((first.real**2 + first.imag**2).T)
    first_flat, second_flat = first.reshape(-1), unit[:, :, 1].reshape(-1)
    rules = [(math.sqrt(rho), _detector(tensor, rho, "stepwise")) for rho in rhos]
    # One work buffer for every block and rho of the call: three (M, block)
    # power terms, then a scratch of max(M, L, 2) rows.
    block = min(max(1, _BLOCK_ELEMS // M), _CHUNK, trials)
    work = np.empty((3 * M + max(M, n_states, 2)) * block)
    flat = np.arange(block) * M
    counts = np.zeros((len(rhos), 5), dtype=np.int64)

    def decide_chunk(rng, n):
        # One call per chunk, so no view of its draw outlives it.
        sent = rng.integers(0, M, size=n), rng.integers(0, n_states, size=n), rng.integers(0, points.size, size=n)
        first_noise, second_noise = _noise(rng, (n, M), sigma), _noise(rng, (n,), sigma)
        # What no rho changes: the gather rows, the points, the sent words.
        rows, x, word = sent[0] * n_states + sent[1], points[sent[2]], smap.word(*sent)
        del sent
        for lo in range(0, n, block):
            part, size = slice(lo, lo + block), min(block, n - lo)
            gain, cross, energy = work[: 3 * M * size].reshape(3, M, size)
            scratch = work[3 * M * size :]
            noise = first_noise[:, part]
            # The terms of |s a + n|^2 = s^2 |h|^2 + s 2 Re(a conj(n)) + |n|^2
            # per pair and trial, a = h x.  Both noise terms are summed in the
            # draw's (n, M) layout in the gain slot, then copied transposed
            # into their (M, n) slots: passes that read the draw transposed
            # took twice the time at M = 64.  a lies across the energy slot
            # and the scratch.  Every row is in range; "clip" spares ``take``
            # the copy it makes for ``out`` in its default mode.
            a_out = work[2 * M * size : 4 * M * size].view(complex).reshape(size, M)
            a = first.take(rows[part], axis=0, out=a_out, mode="clip")
            a *= x[part, None]
            term, other = work[: 2 * M * size].reshape(2, size, M)
            np.multiply(a.real, noise[0], out=term)
            term += np.multiply(a.imag, noise[1], out=other)
            np.multiply(term.T, 2.0, out=cross)
            other = scratch[: M * size].reshape(size, M)
            np.multiply(noise[0], noise[0], out=term)
            term += np.multiply(noise[1], noise[1], out=other)
            np.copyto(energy, term.T)
            gain_table.take(rows[part], axis=1, out=gain, mode="clip")
            for k, (s, decide) in enumerate(rules):
                power = np.multiply(gain, s, out=scratch[: M * size].reshape(M, size))
                power += cross
                power *= s
                power += energy
                m_hat = _first_max(power)
                # The decided pair's samples, as a full frame holds them: the
                # first one's noise is gathered into the scratch, which the
                # pair phase then overwrites, plane by plane, as ``take``
                # along an axis copies a non-contiguous source whole.
                pair_noise = scratch[: 2 * size].reshape(2, size)
                picked = flat[:size] + m_hat
                for plane, out in zip(noise, pair_noise):
                    plane.reshape(-1).take(picked, out=out, mode="clip")
                at = rows[part] * M + m_hat
                y0 = _frames(first_flat, at, s, x[part], pair_noise)
                y1 = _frames(second_flat, at, s, x[part], second_noise[:, part])
                # Each array is released once read, as the pair phase and
                # the counts would otherwise raise the call's peak.
                del picked, at
                decided = (m_hat, *decide.pair(y0, y1, m_hat, scratch))
                del y0, y1
                counts[k] += _errors(smap, word[part], decided)

    for _, n, rng in _chunks(trials, _CHUNK, seed, 0xBE7):
        decide_chunk(rng, n)
    return counts


def _ml_errors(tensor: ChannelTensor, rho: float, trials: int, seed: int, sigma: float, smap: SymbolMap):
    """The five ``_errors`` totals of the ML rule at one rho, by the radius
    draw of the module docstring."""
    M, n_states = tensor.entries.shape[:2]
    points = np.asarray(smap.constellation.points)
    # Unit-power frames of every (antenna, state), gathered by m * L + l.
    unit = tensor.entries.reshape(M * n_states, M, 2)
    # A trial whose noise has |z|^2 < r^2 for its codeword's certificate
    # radius r in noise standard deviations is decided correctly
    # (``_ml_radii``).
    cert_energy = _ml_radii(tensor, math.sqrt(rho) / sigma) ** 2
    uncertified, arrival_pmf = _ml_tail_law(cert_energy, M)
    row_share = np.full(M * n_states, 1.0 / (M * n_states))
    decide = _detector(tensor, rho, "ml")

    counts = np.zeros(5, dtype=np.int64)
    for _, n, rng in _chunks(trials, _CHUNK, seed, 0xBE7):
        # Trials per row, then the uncertified ones per row; only those draw
        # a point, an energy and a direction and are built and scored.  The
        # certified ones add no error.
        per_row = rng.binomial(rng.multinomial(n, row_share), uncertified)
        if not (k := int(per_row.sum())):
            continue
        p_idx = rng.integers(0, points.size, size=k)
        rows, energy = _ml_tail_energy(rng, cert_energy, arrival_pmf, per_row)
        m_idx, l_idx = np.divmod(rows, n_states)
        noise = rng.standard_normal((2, k, M, 2))
        norm2 = np.einsum("ankc,ankc->n", noise, noise)
        noise *= (sigma * np.sqrt(energy / norm2))[:, None, None]
        decided = decide(_frames(unit, rows, math.sqrt(rho), points[p_idx], noise))
        # Release the noise before the errors are counted and the next
        # chunk's noise is drawn.
        del noise, rows
        counts += _errors(smap, smap.word(m_idx, l_idx, p_idx), decided)
    return counts


def _errors(smap: SymbolMap, word: np.ndarray, decided: tuple) -> tuple:
    """One chunk's (bit errors, sum of their squares over trials, antenna
    errors, state errors, symbol errors) from the sent words and the decided
    0-based (antenna, state, point) index arrays."""
    xor = word ^ smap.word(*decided)
    # int64: a dot product of the uint8 counts would overflow.
    per_trial = np.bitwise_count(xor).astype(np.int64)
    # The word is a bijection, so a stage errs exactly where its bits differ.
    antenna = xor >> (smap.state_bits + smap.point_bits)
    state = (xor >> smap.point_bits) & ((1 << smap.state_bits) - 1)
    stages = (int(np.count_nonzero(e)) for e in (antenna, state, xor))
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
