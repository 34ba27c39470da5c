"""Deterministic free-space channel responses for every (antenna, state) pair.

The transmit elements sit on a line with spacing ``xi``; each one faces a
receive antenna pair mounted on the intensity ring (radius ``ring_radius``)
of its own beam, a propagation distance ``z`` away, and the two antennas of
a pair are separated by the azimuth ``beta`` about the pair's axis.  Every
receive antenna, on the facing ring or off it, sees the transverse beam
field ``beam.lg_field`` at its own position, normalized to the ring and
scaled by the Friis amplitude of the ring.  The responses form an immutable
complex tensor indexed by (transmit antenna, state, receive pair,
antenna-in-pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import beam as beam_mod
from .config import SystemConfig, _matched_beam, _ring_amplitude
from .errors import ConfigError


def _pair_geometry(M: int, xi: float, z: float, ring_radius: float, beta: float):
    """Distance, radial offset and azimuth of both antennas of every receive
    pair j about the beam axis of every transmit element m.

    Returns three (M, M, 2) arrays indexed [m, j, antenna], 0-based.  The
    first antenna of pair j sits at transverse offset (j - m) * xi from the
    m-th axis and height ``ring_radius``; the second is rotated by ``beta``
    about pair j's own axis.  Distances depend on |j - m| only; the radial
    offset equals ``ring_radius`` for j == m and exceeds it otherwise.
    """
    idx = np.arange(M)
    dx = (idx[None, :] - idx[:, None]) * xi
    x = np.stack([dx, dx - ring_radius * math.sin(beta)], axis=-1)
    y = np.array([ring_radius, ring_radius * math.cos(beta)])
    distance = np.sqrt(z**2 + x**2 + y**2)
    radial = np.sqrt(x**2 + y**2)
    azimuth = np.arctan2(y, x)
    return distance, radial, azimuth


@dataclass(frozen=True)
class ChannelTensor:
    """Complex responses for all (antenna m, state l, pair j, antenna a).

    ``entries[m-1, state_index(l), j-1, a-1]`` holds the response; the
    array is read-only and carries the producing config for traceability.
    Transmit power never enters here: it scales the signal at transmit time.
    """

    entries: np.ndarray
    states: tuple
    config: SystemConfig = field(repr=False)

    def __post_init__(self):
        self.entries.setflags(write=False)

    def state_index(self, l: int) -> int:
        try:
            return self.states.index(l)
        except ValueError:
            raise ConfigError(f"state {l!r} not in the configured set {self.states}") from None

    def antenna_index(self, m: int) -> int:
        """0-based row of the 1-based transmit antenna ``m``."""
        return _position("antenna", m, self.entries.shape[0])

    def response(self, m: int, l: int, j: int, antenna: int) -> complex:
        """1-based accessor mirroring the (m, l, j, antenna) index notation."""
        M = self.entries.shape[0]
        return complex(
            self.entries[
                _position("antenna", m, M),
                self.state_index(l),
                _position("receive pair", j, M),
                _position("antenna-in-pair", antenna, 2),
            ]
        )


def _position(name: str, index: int, size: int) -> int:
    """0-based position of the 1-based ``index``; ConfigError for a
    non-integer (a bool included) or one outside 1..size."""
    if isinstance(index, bool) or not (isinstance(index, (int, np.integer)) and 1 <= index <= size):
        raise ConfigError(f"{name} index {index!r} not in 1..{size}")
    return index - 1


def _check_tensor(tensor: ChannelTensor, config: SystemConfig) -> None:
    """ConfigError naming ``tensor`` unless its entries have the config's
    (M, L, M, 2) shape and its states are the config's."""
    M, states = config.tx_antennas, tuple(config.oam_states)
    if tensor.entries.shape != (M, len(states), M, 2) or tuple(tensor.states) != states:
        raise ConfigError(
            f"tensor of shape {tensor.entries.shape} with states {tuple(tensor.states)} does not match"
            f" the config's {M} antennas and states {states}"
        )


def matched_beams(config: SystemConfig) -> dict:
    """Per-state beams whose rings all coincide with the reference ring at
    the configured distance, once the config's derived entries of scope
    "state" pass: else a ConfigError names the state."""
    config._check_derived("state")
    return {l: _matched_beam(config, l) for l in config.oam_states}


def build_channel_tensor(config: SystemConfig) -> ChannelTensor:
    """Assemble the full channel tensor for a configuration.

    With A(d) = gain * wavelength / (4 pi d) and k = 2 pi / wavelength, every
    entry is

        A(d_in) exp(-i k d_in) lg_field(r, phi) / lg_field(r_ring, 0)

    with the state's matched beam, d_in the distance of the facing pair's
    first antenna and (r, phi) the antenna's radial offset and azimuth about
    the transmit element's axis.  On the facing ring r = r_ring, so |h| is
    the Friis value A(d_in), and the field's helical phase -l phi puts the
    pair phase difference at beta * l.  One formula for every entry makes
    the tensor continuous in the spacing: as it shrinks to 0, each off-ring
    entry approaches the in-ring one.

    The geometry depends on the pair offset j - m alone, so the entries are
    computed once per offset and ``entries`` is a read-only view of those
    (2M - 1, L, 2) responses: entries[m, l, j, a] = by_offset[j - m + M - 1,
    l, a].  Deterministic: the same config yields a bit-identical tensor.
    Raises ConfigError if some entry is not finite, or, from
    ``matched_beams``, if some state has no matched beam with a finite,
    nonzero ring response.
    """
    beams = matched_beams(config)
    M = config.tx_antennas
    lam = config.wavelength_m
    z = config.distance_m
    ring = config.ring_radius_m
    xi = config.element_spacing_m
    by_offset = np.empty((2 * M - 1, len(config.oam_states), 2), dtype=complex)
    # An overflow shows up as a non-finite entry, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Row M - 1 of the (2M - 1)-element geometry: offsets 1 - M ... M - 1.
        distance, radial, azimuth = (g[M - 1] for g in _pair_geometry(2 * M - 1, xi, z, ring, config.beta_value))
        d_in = distance[M - 1, 0]
        k = 2.0 * math.pi / lam
        base = _ring_amplitude(config) * np.exp(-1j * k * d_in)
        for li, beam in enumerate(beams.values()):
            by_offset[:, li] = base * beam_mod.lg_field(beam, radial, azimuth, z) / beam_mod.lg_field(beam, ring, 0.0, z)
    if not np.all(np.isfinite(by_offset)):
        raise ConfigError(f"channel tensor is not finite at element spacing {xi!r} m and distance {z!r} m")
    # windows[k, l, a, j] = by_offset[k + j]; row k = M - 1 - m is antenna m.
    windows = np.lib.stride_tricks.sliding_window_view(by_offset, M, axis=0)
    entries = windows[::-1].transpose(0, 1, 3, 2)
    return ChannelTensor(entries=entries, states=tuple(config.oam_states), config=config)
