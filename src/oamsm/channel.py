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

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import beam as beam_mod
from . import numerics
from .config import SystemConfig, _matched_beam, _ring_amplitude, _state_index
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
    A non-finite entry raises ConfigError naming the config's element
    spacing and distance.  The unit-power hypothesis table ``unit_frames``
    with its column energies ``unit_energies``, the one table of frame
    distances ``orbit_distances`` and its row minima ``nearest_distances``
    are formed on first use and kept with the tensor; every consumer reads
    them there.
    """

    entries: np.ndarray
    states: tuple
    config: SystemConfig = field(repr=False)

    def __post_init__(self):
        c = self.config
        if not np.all(np.isfinite(self.entries)):
            raise ConfigError(
                f"channel tensor is not finite at element spacing {c.element_spacing_m!r} m and distance {c.distance_m!r} m"
            )
        self.entries.setflags(write=False)

    @functools.cached_property
    def unit_frames(self) -> np.ndarray:
        """Read-only real coordinates U of the clean received frame of every
        codeword (m, l, p) at unit transmit power, one column per codeword,
        formed once per tensor: the one hypothesis table of the capacity
        kernel, the distance tables and the ML scorer.

        Column (m L + l) P + p holds x_p h[m, l], flattened over (pair,
        antenna-in-pair), as its real parts, then its imaginary parts.  It
        is x_p / x_0 times the p = 0 column (m L + l) P, so multiplying by a
        unit-modulus scalar maps each rotation orbit onto its p = 0 frame.
        """
        points = np.asarray(self.config.constellation().points)
        dims = 2 * self.entries.shape[0]
        frames = (self.entries.reshape(-1, 1, dims) * points[:, None]).reshape(-1, dims)
        coords = np.concatenate([frames.real.T, frames.imag.T])
        coords.setflags(write=False)
        return coords

    @functools.cached_property
    def unit_energies(self) -> np.ndarray:
        """Read-only squared norms of the columns of ``unit_frames``."""
        energies = np.einsum("ch,ch->h", self.unit_frames, self.unit_frames)
        energies.setflags(write=False)
        return energies

    @functools.cached_property
    def orbit_distances(self) -> np.ndarray | None:
        """Read-only table D[k, i] of squared distances between the p = 0
        column k P of ``unit_frames`` and its column i, from differences
        (``numerics._distance_table``), formed once per tensor; None above
        ``numerics._TABLE_ENTRIES`` entries, as such a table is never kept."""
        coords, P = self.unit_frames, self.config.constellation().order
        if coords.shape[1] // P * coords.shape[1] > numerics._TABLE_ENTRIES:
            return None
        table = numerics._distance_table(coords, np.arange(0, coords.shape[1], P))
        table.setflags(write=False)
        return table

    @functools.cached_property
    def nearest_distances(self) -> np.ndarray:
        """Read-only minima of the rows of ``orbit_distances`` without their
        own column k P, indexed m L + l (+inf for a 1-codeword system): the
        ML certificate's distances, formed once per tensor."""
        coords = self.unit_frames
        cols = np.arange(coords.shape[1])
        blocks = numerics._distance_blocks(coords, cols[:: self.config.constellation().order], self.orbit_distances)
        nearest = np.concatenate([np.min(d, axis=1, initial=math.inf, where=cols != r[:, None]) for r, d in blocks])
        nearest.setflags(write=False)
        return nearest

    def state_index(self, l: int) -> int:
        return _state_index(self.states, l)

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


def _position(name: str, index: int, size: int, first: int = 1) -> int:
    """0-based position of ``index`` on an axis numbered from ``first``;
    ConfigError for a non-integer (a bool included) or one outside
    first..first + size - 1."""
    if isinstance(index, bool) or not (isinstance(index, (int, np.integer)) and first <= index < first + size):
        raise ConfigError(f"{name} index {index!r} not in {first}..{first + size - 1}")
    return index - first


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
    """The full channel tensor of a configuration, built on the first call
    for each config object and kept on it: every later call with the same
    object returns the same immutable tensor, and with it the frame
    distances cached on it.  A config made by ``dataclasses.replace`` is a
    new object with its own tensor.

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
    l, a].  Deterministic: equal configs yield bit-identical tensors.
    Raises ConfigError, from ``ChannelTensor``, if some entry is not
    finite, or, from ``matched_beams``, if some state has no matched beam
    with a finite, nonzero ring response; nothing is kept then.
    """
    return config._channel_tensor


def _assemble_channel_tensor(config: SystemConfig) -> ChannelTensor:
    """What ``build_channel_tensor`` returns, built afresh."""
    beams = matched_beams(config)
    M = config.tx_antennas
    lam = config.wavelength_m
    z = config.distance_m
    ring = config.ring_radius_m
    xi = config.element_spacing_m
    by_offset = np.empty((2 * M - 1, len(config.oam_states), 2), dtype=complex)
    # An overflow shows up as a non-finite entry, which ChannelTensor reports.
    with np.errstate(over="ignore", invalid="ignore"):
        # Row M - 1 of the (2M - 1)-element geometry: offsets 1 - M ... M - 1.
        distance, radial, azimuth = (g[M - 1] for g in _pair_geometry(2 * M - 1, xi, z, ring, config.beta_value))
        d_in = distance[M - 1, 0]
        k = 2.0 * math.pi / lam
        base = _ring_amplitude(config) * np.exp(-1j * k * d_in)
        for li, beam in enumerate(beams.values()):
            by_offset[:, li] = base * beam_mod.lg_field(beam, radial, azimuth, z) / beam_mod.lg_field(beam, ring, 0.0, z)
    # windows[k, l, a, j] = by_offset[k + j]; row k = M - 1 - m is antenna m.
    windows = np.lib.stride_tricks.sliding_window_view(by_offset, M, axis=0)
    entries = windows[::-1].transpose(0, 1, 3, 2)
    return ChannelTensor(entries=entries, states=tuple(config.oam_states), config=config)
