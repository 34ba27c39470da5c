"""System configuration: defaults, validation, and the flat key=value loader.

Every run is parameterized by a single ``SystemConfig``.  Fields whose
defaults trace to the standard 60 GHz evaluation setup are tagged
``paper`` in ``PROVENANCE``; values the setup leaves open (beam waist, ring
gain, pair separation, power grid) are tagged ``decision`` so every output
file can state where its numbers come from.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import beam as beam_mod
from .errors import ConfigError
from .numerics import Constellation, _is_power_of_two, psk_constellation

__all__ = ["SystemConfig", "load_config", "default_states", "PROVENANCE", "SPEED_OF_LIGHT"]

SPEED_OF_LIGHT = 299792458.0

#: Where each default comes from: the published evaluation setup ("paper")
#: or a documented choice of this implementation ("decision").
PROVENANCE = {
    "carrier_freq_hz": "paper",
    "bandwidth_hz": "paper",
    "noise_psd_dbm_hz": "paper",
    "tx_antennas": "paper",
    "oam_states": "decision",
    "constellation_order": "paper",
    "distance_m": "paper",
    "element_spacing": "paper",
    "beta_rad": "decision",
    "waist_m": "decision",
    "ref_state": "decision",
    "gain": "decision",
    "circuit_power_w": "paper",
    "power_slope": "paper",
    "snr_db": "decision",
    "coeff_mode": "decision",
    "distance_mode": "decision",
    "detector": "decision",
    "seed": "decision",
    "trials": "decision",
    "samples": "decision",
}


def default_states(count: int) -> tuple[int, ...]:
    """Symmetric state sets {±1, ..., ±count/2}, ascending; 0 is excluded
    because a zero-state beam has no intensity ring."""
    if count < 2 or count % 2 != 0:
        raise ConfigError(f"state count must be a positive even number, got {count!r}")
    half = count // 2
    return tuple(range(-half, 0)) + tuple(range(1, half + 1))


def _check_symbol_axes(n_antennas, states) -> None:
    """The antenna-count and state-set rule every codeword layout needs:
    a power-of-two antenna count, and a power-of-two number of distinct
    nonzero states (a zero-state beam has no intensity ring)."""
    if not isinstance(n_antennas, int) or not _is_power_of_two(n_antennas):
        raise ConfigError(f"antenna count must be a power of two, got {n_antennas!r}")
    if not _is_power_of_two(len(states)):
        raise ConfigError(f"number of OAM states must be a power of two, got {len(states)}")
    if 0 in states:
        raise ConfigError("OAM state 0 is not usable: its beam has no intensity ring")
    if len(set(states)) != len(states):
        raise ConfigError("OAM states must be distinct")


@dataclass(frozen=True)
class SystemConfig:
    """Full experiment parameterization.

    ``element_spacing`` may be a float in meters or a string like
    ``"20lambda"`` that tracks the carrier.  ``beta_rad`` of None means
    "half of the legal maximum", i.e. pi / (2 * max|l|).  ``gain`` of
    ``"auto"`` normalizes the ring response to unit magnitude at the
    configured distance, making the transmit SNR equal the in-ring received
    SNR there; pass a float to override.
    """

    carrier_freq_hz: float = 60e9
    bandwidth_hz: float = 20e6
    noise_psd_dbm_hz: float = -174.0
    tx_antennas: int = 4
    oam_states: tuple = default_states(8)
    constellation_order: int = 4
    distance_m: float = 50.0
    element_spacing: object = "20lambda"
    beta_rad: object = None
    waist_m: float = 0.04
    ref_state: int = 1
    gain: object = "auto"
    circuit_power_w: float = 6.8
    power_slope: float = 4.0
    snr_db: float = 20.0
    coeff_mode: str = "rederived"
    distance_mode: str = "euclidean"
    detector: str = "stepwise"
    seed: int = 12345
    trials: int = 100000
    samples: int = 20000

    def __post_init__(self):
        # Canonical ascending order; the bit mapping indexes this table.
        object.__setattr__(self, "oam_states", tuple(sorted(int(v) for v in self.oam_states)))
        self._validate()

    # -- derived quantities -------------------------------------------------

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def n_states(self) -> int:
        return len(self.oam_states)

    @property
    def l_max(self) -> int:
        return max(abs(l) for l in self.oam_states)

    @property
    def element_spacing_m(self) -> float:
        if isinstance(self.element_spacing, str):
            return _parse_spacing(self.element_spacing) * self.wavelength_m
        return float(self.element_spacing)

    @property
    def beta_value(self) -> float:
        if self.beta_rad is None:
            return math.pi / (2.0 * self.l_max)
        return float(self.beta_rad)

    @property
    def noise_power_w(self) -> float:
        return 10.0 ** (self.noise_psd_dbm_hz / 10.0) / 1000.0 * self.bandwidth_hz

    @property
    def reference_beam(self) -> beam_mod.BeamParams:
        return beam_mod.BeamParams(self.waist_m, self.ref_state, self.wavelength_m)

    @property
    def ring_radius_m(self) -> float:
        return beam_mod.ring_radius(self.reference_beam, self.distance_m)

    @property
    def in_ring_distance_m(self) -> float:
        return math.sqrt(self.distance_m**2 + self.ring_radius_m**2)

    @property
    def gain_value(self) -> float:
        if isinstance(self.gain, str):
            # Unit ring response at the configured distance.
            return 4.0 * math.pi * self.in_ring_distance_m / self.wavelength_m
        return float(self.gain)

    @property
    def bits_per_symbol(self) -> int:
        return (
            (self.tx_antennas.bit_length() - 1)
            + (self.n_states.bit_length() - 1)
            + (self.constellation_order.bit_length() - 1)
        )

    def rho_for_snr_db(self, snr_db: float) -> float:
        """Transmit power (watts) realizing the given transmit SNR, defined
        as rho / noise_power over the configured bandwidth.  Raises
        ``ValueError`` for a non-finite SNR or a power that overflows a float."""
        if not math.isfinite(snr_db):
            raise ValueError(f"snr_db must be finite, got {snr_db!r}")
        try:
            rho = self.noise_power_w * 10.0 ** (snr_db / 10.0)
        except OverflowError:
            rho = math.inf
        if not math.isfinite(rho):
            raise ValueError(
                f"snr_db={snr_db!r} at noise_psd_dbm_hz={self.noise_psd_dbm_hz!r} gives a transmit"
                " power that is not a finite float"
            )
        return rho

    def constellation(self) -> Constellation:
        if self.constellation_order == 1:
            return Constellation(order=1, points=(1.0 + 0.0j,), bit_labels=("",))
        return psk_constellation(self.constellation_order)

    def resolved(self) -> "SystemConfig":
        """Copy with spacing, pair angle, and gain pinned to numbers.

        Sweeps resolve once and then vary fields, so e.g. a distance sweep
        keeps the gain fixed at its value for the base geometry instead of
        silently re-normalizing at every grid point.
        """
        return dataclasses.replace(
            self,
            element_spacing=self.element_spacing_m,
            beta_rad=self.beta_value,
            gain=self.gain_value,
        )

    # -- validation ----------------------------------------------------------

    def _validate(self):
        _check_symbol_axes(self.tx_antennas, self.oam_states)
        if not isinstance(self.constellation_order, int) or not _is_power_of_two(
            self.constellation_order
        ):
            raise ConfigError(
                f"constellation_order must be a power of two, got {self.constellation_order!r}"
            )
        for name in ("carrier_freq_hz", "bandwidth_hz", "distance_m", "waist_m", "power_slope"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {v!r}")
        for name in ("noise_psd_dbm_hz", "snr_db"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        try:
            noise = self.noise_power_w
        except OverflowError:
            noise = math.inf
        if not (math.isfinite(noise) and noise > 0.0):
            raise ConfigError(
                f"noise_psd_dbm_hz={self.noise_psd_dbm_hz!r} over bandwidth_hz={self.bandwidth_hz!r}"
                f" gives a noise power of {noise!r} W; it must be finite and > 0"
            )
        try:
            self.rho_for_snr_db(self.snr_db)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not (math.isfinite(self.circuit_power_w) and self.circuit_power_w >= 0.0):
            raise ConfigError(f"circuit_power_w must be finite and >= 0, got {self.circuit_power_w!r}")
        if not (math.isfinite(self.element_spacing_m) and self.element_spacing_m > 0.0):
            raise ConfigError(f"element spacing must be finite and > 0, got {self.element_spacing!r}")
        if self.ref_state == 0 or not isinstance(self.ref_state, int):
            raise ConfigError(f"ref_state must be a nonzero integer, got {self.ref_state!r}")
        beta = self.beta_value
        if not (0.0 < beta < math.pi / self.l_max):
            raise ConfigError(
                f"beta={beta!r} violates the measurement constraint (0, pi/{self.l_max})"
            )
        if not isinstance(self.gain, str):
            if not (math.isfinite(float(self.gain)) and float(self.gain) > 0.0):
                raise ConfigError(f"gain must be > 0 or 'auto', got {self.gain!r}")
        elif self.gain != "auto":
            raise ConfigError(f"gain must be a number or 'auto', got {self.gain!r}")
        if self.coeff_mode not in ("printed", "rederived"):
            raise ConfigError(f"coeff_mode must be printed|rederived, got {self.coeff_mode!r}")
        if self.distance_mode not in ("printed", "euclidean"):
            raise ConfigError(f"distance_mode must be printed|euclidean, got {self.distance_mode!r}")
        if self.detector not in ("stepwise", "ml"):
            raise ConfigError(f"detector must be stepwise|ml, got {self.detector!r}")
        if not isinstance(self.seed, int):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        for name in ("trials", "samples"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        # Distinct wrapped pair-phase signatures for every state; guaranteed
        # by the beta constraint but asserted so a future relaxation fails loud.
        sigs = [math.remainder(beta * l, 2.0 * math.pi) for l in self.oam_states]
        diffs = np.abs(np.subtract.outer(sigs, sigs))
        if np.any(diffs[~np.eye(len(sigs), dtype=bool)] < 1e-12):
            raise ConfigError("state set yields ambiguous pair phase differences")


def _parse_spacing(text: str) -> float:
    t = text.strip().lower().replace("λ", "lambda")
    if not t.endswith("lambda"):
        raise ConfigError(f"cannot parse element spacing {text!r}")
    head = t[: -len("lambda")].strip()
    factor = 1.0 if head == "" else float(head)
    if factor <= 0.0:
        raise ConfigError(f"element spacing factor must be > 0, got {text!r}")
    return factor


def _spacing_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text  # symbolic, e.g. "20lambda"; validated at use


#: Config-file key: (SystemConfig field, text -> value).
_KEYS = {
    "carrier_freq": ("carrier_freq_hz", float),
    "bandwidth": ("bandwidth_hz", float),
    "noise_psd": ("noise_psd_dbm_hz", float),
    "antennas": ("tx_antennas", int),
    "oam_states": ("oam_states", lambda v: tuple(int(tok) for tok in v.replace(",", " ").split())),
    "constellation": ("constellation_order", int),
    "distance": ("distance_m", float),
    "xi": ("element_spacing", _spacing_value),
    "beta": ("beta_rad", float),
    "waist": ("waist_m", float),
    "ref_state": ("ref_state", int),
    "gain": ("gain", lambda v: "auto" if v.lower() == "auto" else float(v)),
    "circuit_power": ("circuit_power_w", float),
    "power_slope": ("power_slope", float),
    "snr": ("snr_db", float),
    "coeff_mode": ("coeff_mode", str),
    "distance_mode": ("distance_mode", str),
    "detector": ("detector", str),
    "seed": ("seed", int),
    "trials": ("trials", int),
    "samples": ("samples", int),
}


def load_config(path) -> SystemConfig:
    """Read a flat ``key = value`` file into a validated SystemConfig.

    Blank lines and ``#`` comments are ignored.  An empty file yields the
    full default configuration.  Unknown keys and constraint violations
    raise ConfigError naming the offender.
    """
    kwargs: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
            field, parse = _KEYS[key]
            try:
                kwargs[field] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r} ({exc})") from exc
    return SystemConfig(**kwargs)
