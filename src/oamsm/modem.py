"""Bit mapping, transmission, demodulation, and Monte Carlo error counting.

A codeword selects one transmit antenna, one beam state, and one
constellation point, carrying log2(M) + log2(L) + log2(P) bits; its integer
label is antenna << (state_bits + point_bits) | state << point_bits |
Gray(point), with 0-based indices into the ascending state table.  The
receiver either solves the joint maximum-likelihood problem over all
hypotheses or runs the three-step chain: pick the strongest pair, read the
state off the pair phase difference, then decide the constellation point.
Each rule is one batched function (``_detector``) that scores every
candidate by a small real matrix product, in row blocks bounded by one
element budget; the single-frame detectors are 1-row calls into it.
One frame builder (``_frames``) makes the (n, M, 2) complex frames by
gathering the clean frames sqrt(rho) * h of the drawn (antenna, state)
pairs, scaling them by the drawn points, and adding in place one noise draw
laid out as (2, n, M, 2): the real plane, then the imaginary plane.
``simulate_ber`` calls it once per chunk and ``transmit`` for one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, build_channel_tensor
from .config import _DETECTORS, SystemConfig, _check_symbol_axes, _state
from .errors import ConfigError, require
from .numerics import Constellation, _chunks

_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


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
        w = int(self.word(symbol.antenna - 1, self.states.index(symbol.state), symbol.point_index))
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
    h = tensor.entries[symbol.antenna - 1, tensor.state_index(symbol.state)]
    rows, points = np.zeros(1, dtype=np.intp), np.array([symbol.point])
    return _frames(math.sqrt(rho) * h[None], rows, points, math.sqrt(noise_var / 2.0), rng)[0]


def _frames(clean: np.ndarray, rows: np.ndarray, points: np.ndarray, sigma: float, rng) -> np.ndarray:
    """The (n, M, 2) frames clean[rows] * points, plus noise of standard
    deviation ``sigma`` per real dimension when sigma > 0, drawn and added
    plane by plane as the module docstring describes."""
    y = clean.take(rows, axis=0)
    y *= points[:, None, None]
    if sigma > 0.0:
        noise = rng.standard_normal((2, *y.shape))
        noise *= sigma
        y.real += noise[0]
        y.imag += noise[1]
    return y


# Elements per decision block: each block holds rows x hypotheses ML scores
# or rows x points stepwise scores, so memory stays bounded whatever the
# constellation or array size.
_BLOCK_ELEMS = 1 << 17


def _detector(tensor: ChannelTensor, rho: float, rule: str):
    """``decide(y)``: (n, M, 2) complex received frames to three length-n
    arrays of 0-based (antenna, state, point) indices under ``rule``.

    Every score is a small real matrix product, and every argmin or argmax
    breaks ties to the lowest index, so under either rule an all-zero frame
    decides antenna 1, the first state and point 0.  Decisions run in row
    blocks of ``max(1, _BLOCK_ELEMS // K)`` rows, K being the number of
    candidates (hypotheses or points) scored per row.

    - ``stepwise``: the pair whose first antenna has the largest
      Re^2 + Im^2; then, with z = y0 * conj(y1) over that pair, the state
      maximizing Re(z * e^(-i beta l)) = |z| cos(arg z - beta l), which is
      the signature beta * l nearest the pair phase difference on the circle
      (the ML rule under the pair-angle constraint), by one (n, 2) @ (2, L)
      product; then the point maximizing Re(y0 * conj(ref) * conj(x_p)), ref
      being the in-ring response of the decided (antenna, state), by one
      (rows, 2) @ (2, P) product per block.  Every point has the same energy
      (unit-modulus PSK, or the single point 1), so this is the point of
      least residual |y0 - ref * x_p|^2.  Unlike that residual, which rounds
      every point to |y0|^2 once |ref| is far below |y0| (at -300 dB, say)
      and then takes point 0, the score still resolves the points there.
    - ``ml``: the (m, l, p) hypothesis, in that flat order, minimizing the
      Frobenius residual |y - s_h|^2 between the frame and
      s_h = sqrt(rho) * h * x.  Since |y|^2 is common to every hypothesis,
      the argmin runs over the expanded score
      ||s_h||^2 - 2 * [Re y, Im y] . [Re s_h, Im s_h]: one real matrix
      product per block of the frames' float view (interleaved Re, Im)
      against a (4M, H) basis built once, plus the H energies.  The expanded
      form can change a decision only where two residuals agree to within
      rounding of |y|^2 + |s_h|^2.
    """
    M, n_states = tensor.entries.shape[:2]
    points = np.asarray(tensor.config.constellation().points)
    sqrt_rho = math.sqrt(rho)
    if rule == "ml":
        hyp = sqrt_rho * tensor.entries[:, :, None, :, :] * points[None, None, :, None, None]
        # Interleaved (Re, Im) coordinates of each hypothesis: the float view
        # of the complex array, as the received frames are read below.
        coords = hyp.reshape(-1, 2 * M).view(np.float64)  # (H, 4M)
        basis = np.ascontiguousarray(-2.0 * coords.T)
        energy = np.einsum("hk,hk->h", coords, coords)
        rows = max(1, _BLOCK_ELEMS // len(energy))

        def decide(y):
            feats = np.ascontiguousarray(y, dtype=complex).reshape(len(y), 2 * M).view(np.float64)
            flat = np.empty(len(y), dtype=np.intp)
            for lo in range(0, len(y), rows):
                score = feats[lo : lo + rows] @ basis
                score += energy
                flat[lo : lo + rows] = np.argmin(score, axis=1)
            return np.unravel_index(flat, (M, n_states, points.size))

        return decide

    beta_l = tensor.config.beta_value * np.asarray(tensor.states, dtype=float)
    state_basis = np.array([np.cos(beta_l), np.sin(beta_l)])  # (2, L)
    point_basis = np.array([points.real, points.imag])  # (2, P)
    ref = sqrt_rho * tensor.entries[np.arange(M), :, np.arange(M), 0]  # (M, L)
    rows = max(1, _BLOCK_ELEMS // points.size)

    def decide(y):
        first = y[:, :, 0]
        m_hat = np.argmax(first.real**2 + first.imag**2, axis=1)
        # ``take`` of flat rows: several times faster than 2-D fancy indexing.
        pair = y.reshape(-1, 2).take(np.arange(len(y)) * M + m_hat, axis=0)
        # (n, 2) float views [Re, Im] of z = y0 * conj(y1) and w = y0 * conj(ref).
        z = (pair[:, 0] * pair[:, 1].conj()).view(np.float64).reshape(-1, 2)
        l_hat = np.argmax(z @ state_basis, axis=1)
        w = (pair[:, 0] * ref[m_hat, l_hat].conj()).view(np.float64).reshape(-1, 2)
        p_hat = np.empty(len(y), dtype=np.intp)
        for lo in range(0, len(y), rows):
            p_hat[lo : lo + rows] = np.argmax(w[lo : lo + rows] @ point_basis, axis=1)
        return m_hat, l_hat, p_hat

    return decide


def _demodulate(frame: np.ndarray, tensor: ChannelTensor, rho: float, rule: str) -> OamSymbol:
    """Decide one frame by the batched ``rule``.  The frame and rho are
    checked here, not in ``_detector``, so batched trials pay nothing."""
    frames = np.asarray(frame, dtype=complex)[None]
    shape = (1, tensor.entries.shape[0], 2)
    if frames.shape != shape or not np.all(np.isfinite(frames)):
        raise ValueError(f"frame must be a finite array of shape {shape[1:]}")
    require("rho", rho, "finite and >= 0")
    indices = (i[0] for i in _detector(tensor, rho, rule)(frames))
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
    """Monte Carlo error rates with binomial standard errors."""

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


def _binomial_stderr(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


_CHUNK = 8192


def simulate_ber(
    config: SystemConfig,
    snr_db: float,
    trials: int,
    seed: int,
    detector: str = "stepwise",
    tensor: ChannelTensor | None = None,
) -> BerReport:
    """Monte Carlo bit/stage error rates at one operating point.

    Bits are drawn uniformly, mapped to codewords, sent through the channel
    with complex Gaussian noise at the configured noise power, and detected
    with the requested detector.  Results are deterministic in
    (config, snr_db, trials, seed, detector).
    """
    require("trials", trials, "a positive integer")
    require("detector", detector, _DETECTORS, ConfigError)
    if tensor is None:
        tensor = build_channel_tensor(config)
    const = config.constellation()
    smap = SymbolMap(config.tx_antennas, config.oam_states, const)
    rho = config.rho_for_snr_db(snr_db)
    decide = _detector(tensor, rho, detector)

    M, n_states, P = config.tx_antennas, len(tensor.states), const.order
    points = np.asarray(const.points)
    # Clean frames of every (antenna, state), gathered by m * L + l.
    clean = (math.sqrt(rho) * tensor.entries).reshape(M * n_states, M, 2)
    sigma = math.sqrt(config.noise_power_w / 2.0)

    bit_errors = ant_errors = state_errors = sym_errors = 0
    for _, n, rng in _chunks(trials, _CHUNK, seed, 0xBE7):
        m_idx = rng.integers(0, M, size=n)
        l_idx = rng.integers(0, n_states, size=n)
        p_idx = rng.integers(0, P, size=n)
        y = _frames(clean, m_idx * n_states + l_idx, points[p_idx], sigma, rng)
        m_hat, l_hat, p_hat = decide(y)
        # Release the frames before the next chunk's noise is drawn.
        del y

        ant_err = m_hat != m_idx
        st_err = l_hat != l_idx
        ant_errors += int(np.count_nonzero(ant_err))
        state_errors += int(np.count_nonzero(st_err))
        sym_errors += int(np.count_nonzero(ant_err | st_err | (p_hat != p_idx)))
        xor = smap.word(m_idx, l_idx, p_idx) ^ smap.word(m_hat, l_hat, p_hat)
        for _ in range(0, smap.bits_per_symbol, 8):
            bit_errors += int(np.sum(_POPCOUNT[xor & 0xFF]))
            xor >>= 8

    total_bits = trials * max(smap.bits_per_symbol, 1)
    ber = bit_errors / total_bits if smap.bits_per_symbol else 0.0
    p_ant = ant_errors / trials
    p_state = state_errors / trials
    p_sym = sym_errors / trials
    return BerReport(
        trials=trials,
        bits_per_symbol=smap.bits_per_symbol,
        bit_error_rate=ber,
        bit_error_stderr=_binomial_stderr(ber, total_bits),
        antenna_error_rate=p_ant,
        antenna_error_stderr=_binomial_stderr(p_ant, trials),
        state_error_rate=p_state,
        state_error_stderr=_binomial_stderr(p_state, trials),
        symbol_error_rate=p_sym,
        symbol_error_stderr=_binomial_stderr(p_sym, trials),
        detector=detector,
        snr_db=float(snr_db),
        seed=int(seed),
    )
