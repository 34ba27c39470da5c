"""Deterministic free-space channel responses for every (antenna, state) pair.

The pair facing the active element sits on the beam's intensity ring and
sees a Friis-scaled response with the helical phase of the state.  All
other pairs sit off the ring and pick up the ring-normalized transverse
beam envelope on top of the same Friis scale.  The full set of responses is
assembled into an immutable complex tensor indexed by
(transmit antenna, state, receive pair, antenna-in-pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import beam as beam_mod
from .beam import BeamParams, NoMatchingWaistError
from .config import SystemConfig
from .errors import ConfigError
from .geometry import ArrayLayout, pair_azimuths, pair_distances, radial_offsets

__all__ = ["ChannelTensor", "in_ring_response", "off_ring_response", "build_channel_tensor"]


def in_ring_response(
    m: int, l: int, layout: ArrayLayout, wavelength: float, gain: float
) -> tuple[complex, complex]:
    """Response from element m to its own ring-mounted pair for state l.

    Magnitude gain * wavelength / (4 pi d); the helical phase advances by a
    quarter turn per state unit at the first antenna and additionally by
    beta * l at the second, so the pair phase difference is exactly beta * l.
    """
    if gain <= 0.0:
        raise ConfigError(f"gain must be > 0, got {gain!r}")
    d1, d2 = pair_distances(m, m, layout)
    k = 2.0 * math.pi / wavelength
    amp1 = gain * wavelength / (4.0 * math.pi * d1)
    amp2 = gain * wavelength / (4.0 * math.pi * d2)
    h1 = amp1 * np.exp(-1j * (k * d1 + (math.pi / 4.0) * l))
    h2 = amp2 * np.exp(-1j * (k * d2 + (math.pi / 4.0 + layout.beta) * l))
    return complex(h1), complex(h2)


def off_ring_response(
    m: int, j: int, l: int, layout: ArrayLayout, beam: BeamParams, gain: float
) -> tuple[complex, complex]:
    """Response from element m to pair j != m for state l.

    Derived by ratio against the in-ring response, so the Friis factor uses
    the in-ring distance while the transverse offset enters through the
    ring-normalized beam envelope (r/r_ring)^|l| * exp(-(r^2-r_ring^2)/w^2),
    the matching curvature phase, and the helical phase at the pair azimuth.
    """
    if j == m:
        raise ConfigError("off_ring_response requires j != m; use in_ring_response")
    if gain <= 0.0:
        raise ConfigError(f"gain must be > 0, got {gain!r}")
    lam = beam.wavelength
    k = 2.0 * math.pi / lam
    z = layout.z
    d_in = pair_distances(m, m, layout)[0]
    r1, r2 = radial_offsets(m, j, layout)
    phi1, phi2 = pair_azimuths(m, j, layout)
    r_ring = layout.ring_radius
    w_z = beam_mod.spot_size(beam, z)
    curvature = beam_mod.curvature_radius(beam, z)
    base = gain * lam / (4.0 * math.pi * d_in)
    l_abs = abs(l)

    def response(r: float, phi: float) -> complex:
        envelope = (r / r_ring) ** l_abs * math.exp(-(r**2 - r_ring**2) / w_z**2)
        phase = (
            -math.pi * (r**2 - r_ring**2) / (lam * curvature)
            - k * d_in
            - l * phi
        )
        return complex(base * envelope * np.exp(1j * phase))

    return response(r1, phi1), response(r2, phi2)


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

    def response(self, m: int, l: int, j: int, antenna: int) -> complex:
        """1-based accessor mirroring the (m, l, j, antenna) index notation."""
        return complex(self.entries[m - 1, self.state_index(l), j - 1, antenna - 1])

    @property
    def n_antennas(self) -> int:
        return self.entries.shape[0]


def matched_beams(config: SystemConfig) -> dict:
    """Per-state beams whose rings all coincide with the reference ring at
    the configured distance."""
    ref = config.reference_beam
    beams = {}
    for l in config.oam_states:
        try:
            w = beam_mod.waist_for_state(ref, l, config.distance_m, config.coeff_mode)
        except NoMatchingWaistError as exc:
            raise ConfigError(f"waist matching failed for state {l}: {exc}") from exc
        beams[l] = BeamParams(w, l, config.wavelength_m)
    return beams


def build_channel_tensor(config: SystemConfig) -> ChannelTensor:
    """Assemble the full channel tensor for a configuration.

    Deterministic: the same config yields a bit-identical tensor.  Raises
    ConfigError if some state admits no ring-matching waist at the
    configured distance.
    """
    layout = ArrayLayout(
        M=config.tx_antennas,
        xi=config.element_spacing_m,
        z=config.distance_m,
        beta=config.beta_value,
        ring_radius=config.ring_radius_m,
        l_max=config.l_max,
    )
    beams = matched_beams(config)
    gain = config.gain_value
    wavelength = config.wavelength_m
    M = config.tx_antennas
    entries = np.zeros((M, len(config.oam_states), M, 2), dtype=complex)
    for mi in range(M):
        for li, l in enumerate(config.oam_states):
            for ji in range(M):
                if ji == mi:
                    h1, h2 = in_ring_response(mi + 1, l, layout, wavelength, gain)
                else:
                    h1, h2 = off_ring_response(mi + 1, ji + 1, l, layout, beams[l], gain)
                entries[mi, li, ji, 0] = h1
                entries[mi, li, ji, 1] = h2
    return ChannelTensor(entries=entries, states=tuple(config.oam_states), config=config)

