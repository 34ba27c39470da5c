"""Bit mapping, transmission, demodulation, and Monte Carlo error counting.

A codeword selects one transmit antenna, one beam state, and one
constellation point, carrying log2(M) + log2(L) + log2(P) bits.  The
receiver either solves the joint maximum-likelihood problem over all
hypotheses or runs the three-step chain: pick the strongest pair, read the
state off the pair phase difference, then decide the constellation point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelTensor, build_channel_tensor
from .config import SystemConfig
from .errors import ConfigError
from .numerics import Constellation, _chunk_rng

__all__ = [
    "OamSymbol",
    "SymbolMap",
    "transmit",
    "demodulate_stepwise",
    "demodulate_ml",
    "BerReport",
    "simulate_ber",
]

_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


@dataclass(frozen=True)
class OamSymbol:
    """One transmitted codeword: antenna index (1-based), beam state, and
    constellation point (with its index for exact decoding)."""

    antenna: int
    state: int
    point: complex
    point_index: int


class SymbolMap:
    """Bijective mapping between bit strings and codewords.

    Antenna bits use natural binary; state bits index the state table
    sorted ascending; constellation bits are the point's Gray label.
    """

    def __init__(self, n_antennas: int, states, constellation: Constellation):
        if n_antennas < 1 or n_antennas & (n_antennas - 1):
            raise ConfigError(f"antenna count must be a power of two, got {n_antennas!r}")
        states = tuple(sorted(int(s) for s in states))
        if len(states) & (len(states) - 1):
            raise ConfigError(f"state count must be a power of two, got {len(states)}")
        if 0 in states or len(set(states)) != len(states):
            raise ConfigError("states must be distinct nonzero integers")
        self.n_antennas = n_antennas
        self.states = states
        self.constellation = constellation
        self.antenna_bits = n_antennas.bit_length() - 1
        self.state_bits = len(states).bit_length() - 1
        self.point_bits = constellation.bits_per_symbol
        self.bits_per_symbol = self.antenna_bits + self.state_bits + self.point_bits
        self._label_to_point = {lbl: i for i, lbl in enumerate(constellation.bit_labels)}

    @property
    def n_symbols(self) -> int:
        return self.n_antennas * len(self.states) * self.constellation.order

    def encode(self, bits: str) -> OamSymbol:
        if len(bits) != self.bits_per_symbol or set(bits) - {"0", "1"}:
            raise ConfigError(
                f"expected a {self.bits_per_symbol}-bit string, got {bits!r}"
            )
        a, s = self.antenna_bits, self.state_bits
        antenna = 1 + (int(bits[:a], 2) if a else 0)
        state = self.states[int(bits[a : a + s], 2) if s else 0]
        p_idx = self._label_to_point[bits[a + s :]]
        return OamSymbol(antenna, state, complex(self.constellation.points[p_idx]), p_idx)

    def decode(self, symbol: OamSymbol) -> str:
        a_part = format(symbol.antenna - 1, "b").zfill(self.antenna_bits) if self.antenna_bits else ""
        s_part = (
            format(self.states.index(symbol.state), "b").zfill(self.state_bits)
            if self.state_bits
            else ""
        )
        return a_part + s_part + self.constellation.bit_labels[symbol.point_index]

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
    if rho < 0.0:
        raise ValueError(f"rho must be >= 0, got {rho!r}")
    if noise_var < 0.0:
        raise ValueError(f"noise_var must be >= 0, got {noise_var!r}")
    h = tensor.entries[symbol.antenna - 1, tensor.state_index(symbol.state)]
    frame = math.sqrt(rho) * h * symbol.point
    if noise_var > 0.0:
        scale = math.sqrt(noise_var / 2.0)
        frame = frame + scale * (
            rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
        )
    return frame


def _wrap_angle(x):
    return np.remainder(x + np.pi, 2.0 * np.pi) - np.pi


def demodulate_stepwise(frame: np.ndarray, tensor: ChannelTensor, rho: float) -> OamSymbol:
    """Three-step detection: strongest pair, pair phase ratio, point decision.

    Step 1 takes the pair whose first antenna has the most power (ties to
    the lowest index).  Step 2 reads the measured pair phase difference and
    rounds to the nearest legal state signature beta * l, the ML rule under
    the pair-angle constraint.  Step 3 minimizes the scalar residual against
    the in-ring response of the decided state.
    """
    cfg = tensor.config
    power = np.abs(frame[:, 0]) ** 2
    m_hat = int(np.argmax(power)) + 1
    delta = float(np.angle(frame[m_hat - 1, 0] * np.conj(frame[m_hat - 1, 1])))
    states = np.asarray(tensor.states, dtype=float)
    dist = np.abs(_wrap_angle(delta - cfg.beta_value * states))
    l_hat = int(tensor.states[int(np.argmin(dist))])
    const = cfg.constellation()
    h_ref = tensor.entries[m_hat - 1, tensor.state_index(l_hat), m_hat - 1, 0]
    points = np.asarray(const.points)
    residual = np.abs(frame[m_hat - 1, 0] - math.sqrt(rho) * h_ref * points) ** 2
    p_hat = int(np.argmin(residual))
    return OamSymbol(m_hat, l_hat, complex(points[p_hat]), p_hat)


def demodulate_ml(frame: np.ndarray, tensor: ChannelTensor, rho: float) -> OamSymbol:
    """Joint maximum-likelihood detection over every (m, l, p) hypothesis.

    Minimizes the Frobenius residual between the frame and sqrt(rho) * h * x
    for all hypotheses; the power scaling matches the transmit model.
    """
    cfg = tensor.config
    const = cfg.constellation()
    points = np.asarray(const.points)
    # Hypothesis frames, shape (M, n_states, P, M, 2).
    hyp = math.sqrt(rho) * tensor.entries[:, :, None, :, :] * points[None, None, :, None, None]
    residual = np.sum(np.abs(frame[None, None, None, :, :] - hyp) ** 2, axis=(3, 4))
    flat = int(np.argmin(residual))
    mi, li, pi = np.unravel_index(flat, residual.shape)
    return OamSymbol(int(mi) + 1, int(tensor.states[li]), complex(points[pi]), int(pi))


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
# Rows per ML residual block: bounds the (rows, hypotheses, M, 2) temporary.
_ML_BLOCK = 1024


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
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if detector not in ("stepwise", "ml"):
        raise ConfigError(f"detector must be stepwise|ml, got {detector!r}")
    cfg = config.resolved()
    if tensor is None:
        tensor = build_channel_tensor(cfg)
    const = cfg.constellation()
    smap = SymbolMap(cfg.tx_antennas, cfg.oam_states, const)
    rho = cfg.rho_for_snr_db(snr_db)
    noise_var = cfg.noise_power_w

    M = cfg.tx_antennas
    states = np.asarray(tensor.states)
    points = np.asarray(const.points)
    n_states = states.size
    P = points.size
    a_bits, s_bits, p_bits = smap.antenna_bits, smap.state_bits, smap.point_bits
    gray = np.asarray([int(lbl, 2) if lbl else 0 for lbl in const.bit_labels])
    sqrt_rho = math.sqrt(rho)
    sigma = math.sqrt(noise_var / 2.0)
    beta = cfg.beta_value
    state_sig = beta * states.astype(float)
    in_ring = tensor.entries[np.arange(M), :, np.arange(M), 0]  # (M, n_states)

    if detector == "ml":
        hyp = sqrt_rho * tensor.entries[:, :, None, :, :] * points[None, None, :, None, None]
        hyp_flat = hyp.reshape(-1, M, 2)

    bit_errors = 0
    ant_errors = 0
    state_errors = 0
    sym_errors = 0

    done = 0
    chunk_index = 0
    while done < trials:
        n = min(_CHUNK, trials - done)
        rng = _chunk_rng(seed, 0xBE7, chunk_index)
        m_idx = rng.integers(0, M, size=n)
        l_idx = rng.integers(0, n_states, size=n)
        p_idx = rng.integers(0, P, size=n)
        noise = sigma * (
            rng.standard_normal((n, M, 2)) + 1j * rng.standard_normal((n, M, 2))
        )
        h = tensor.entries[m_idx, l_idx]  # (n, M, 2)
        y = sqrt_rho * h * points[p_idx][:, None, None] + noise

        if detector == "stepwise":
            m_hat = np.argmax(np.abs(y[:, :, 0]) ** 2, axis=1)
            pair = y[np.arange(n), m_hat]
            delta = np.angle(pair[:, 0] * np.conj(pair[:, 1]))
            l_hat = np.argmin(np.abs(_wrap_angle(delta[:, None] - state_sig[None, :])), axis=1)
            h_ref = in_ring[m_hat, l_hat]
            resid = np.abs(pair[:, 0, None] - sqrt_rho * h_ref[:, None] * points[None, :]) ** 2
            p_hat = np.argmin(resid, axis=1)
        else:
            flat = np.empty(n, dtype=np.intp)
            for lo in range(0, n, _ML_BLOCK):
                yb = y[lo : lo + _ML_BLOCK]
                resid = np.sum(
                    np.abs(yb[:, None, :, :] - hyp_flat[None, :, :, :]) ** 2, axis=(2, 3)
                )
                flat[lo : lo + _ML_BLOCK] = np.argmin(resid, axis=1)
            m_hat = flat // (n_states * P)
            l_hat = (flat // P) % n_states
            p_hat = flat % P

        ant_err = m_hat != m_idx
        st_err = l_hat != l_idx
        pt_err = p_hat != p_idx
        ant_errors += int(np.count_nonzero(ant_err))
        state_errors += int(np.count_nonzero(st_err))
        sym_errors += int(np.count_nonzero(ant_err | st_err | pt_err))
        xor = (m_idx ^ m_hat) << (s_bits + p_bits)
        xor |= (l_idx ^ l_hat) << p_bits
        xor |= gray[p_idx] ^ gray[p_hat]
        bit_errors += int(np.sum(_POPCOUNT[xor & 0xFF] + _POPCOUNT[(xor >> 8) & 0xFF]))

        done += n
        chunk_index += 1

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
