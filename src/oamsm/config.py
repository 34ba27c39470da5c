"""System configuration: defaults, validation, and the flat key=value loader.

Every run is parameterized by a single ``SystemConfig``.  Each field is
declared once, with ``_option``: its default, its provenance tag, its
config-file key and parser, its allowed values or the ``errors.require``
rule it must meet, and whether a command-line flag overrides it.  Defaults
that trace to the standard 60 GHz evaluation setup are tagged ``paper``;
values the setup leaves open (beam waist, ring gain, pair separation, power
grid) are tagged ``decision``, so every output file can state where its
numbers come from.  ``PROVENANCE``, the loader's
key table and the command-line overrides are all read off these fields.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import beam as beam_mod
from .errors import ConfigError, require
from .numerics import Constellation, _is_power_of_two, psk_constellation


SPEED_OF_LIGHT = 299792458.0


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


def _spacing_value(text: str):
    try:
        return float(text)
    except ValueError:
        return text  # symbolic, e.g. "20lambda"; validated at use


def _states_value(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _gain_value(text: str):
    return "auto" if text.lower() == "auto" else float(text)


def _state(value) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"OAM state {value!r} is not an integer")
    return int(value)


def _option(default, provenance: str, key: str, parse, choices=None, flag=False, rule=None):
    """A SystemConfig field with everything said about it in one place.

    ``provenance`` is "paper" (the published evaluation setup) or
    "decision" (a documented choice of this implementation); ``key`` is the
    config-file key, read with ``parse``; ``choices``, if given, are the
    allowed values, and ``rule``, if given, the ``errors.require`` rule the
    value must meet; ``flag`` (True, or the flag's help text) adds a
    same-named command-line override.
    """
    meta = {"provenance": provenance, "key": key, "parse": parse, "choices": choices, "flag": flag, "rule": rule}
    return dataclasses.field(default=default, metadata=meta)


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

    carrier_freq_hz: float = _option(60e9, "paper", "carrier_freq", float, rule="finite and > 0")
    bandwidth_hz: float = _option(20e6, "paper", "bandwidth", float, rule="finite and > 0")
    noise_psd_dbm_hz: float = _option(-174.0, "paper", "noise_psd", float, rule="finite")
    tx_antennas: int = _option(4, "paper", "antennas", int)
    oam_states: tuple = _option(default_states(8), "decision", "oam_states", _states_value)
    constellation_order: int = _option(4, "paper", "constellation", int)
    distance_m: float = _option(50.0, "paper", "distance", float, rule="finite and > 0")
    element_spacing: object = _option("20lambda", "paper", "xi", _spacing_value)
    beta_rad: object = _option(None, "decision", "beta", float)
    waist_m: float = _option(0.04, "decision", "waist", float, rule="finite and > 0")
    ref_state: int = _option(1, "decision", "ref_state", int, rule="a nonzero integer")
    gain: object = _option("auto", "decision", "gain", _gain_value)
    circuit_power_w: float = _option(6.8, "paper", "circuit_power", float, rule="finite and >= 0")
    power_slope: float = _option(4.0, "paper", "power_slope", float, rule="finite and > 0")
    snr_db: float = _option(20.0, "decision", "snr", float, rule="finite")
    coeff_mode: str = _option("rederived", "decision", "coeff_mode", str, ("printed", "rederived"), flag=True)
    distance_mode: str = _option("euclidean", "decision", "distance_mode", str, ("printed", "euclidean"), flag=True)
    detector: str = _option("stepwise", "decision", "detector", str, ("stepwise", "ml"), flag=True)
    seed: int = _option(12345, "decision", "seed", int, flag="master seed override", rule="an integer")
    trials: int = _option(
        100000, "decision", "trials", int, flag="Monte Carlo BER trials per point", rule="a positive integer"
    )
    samples: int = _option(
        20000, "decision", "samples", int, flag="capacity noise draws per point", rule="a positive integer"
    )

    def __post_init__(self):
        # Canonical ascending order; the bit mapping indexes this table.
        object.__setattr__(self, "oam_states", tuple(sorted(_state(v) for v in self.oam_states)))
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

    def rho_for_snr_db(self, snr_db: float) -> float:
        """Transmit power (watts) realizing the given transmit SNR, defined
        as rho / noise_power over the configured bandwidth.  Raises
        ``ValueError`` for a non-finite SNR or a power that overflows a float."""
        require("snr_db", snr_db, "finite")
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

        A config varied from the copy (e.g. moved to another distance)
        keeps the gain fixed at its value for the base geometry instead of
        re-normalizing; ``run_sweep`` pins only the gain, the same way.
        """
        return dataclasses.replace(
            self,
            element_spacing=self.element_spacing_m,
            beta_rad=self.beta_value,
            gain=self.gain_value,
        )

    # -- validation ----------------------------------------------------------

    def _validate(self):
        for f in dataclasses.fields(self):
            value, rule, choices = getattr(self, f.name), f.metadata["rule"], f.metadata["choices"]
            if rule:
                require(f.name, value, rule, ConfigError)
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be {'|'.join(choices)}, got {value!r}")
        if self.gain != "auto":
            require("gain", self.gain, "finite and > 0", ConfigError)
        _check_symbol_axes(self.tx_antennas, self.oam_states)
        if not isinstance(self.constellation_order, int) or not _is_power_of_two(self.constellation_order):
            raise ConfigError(f"constellation_order must be a power of two, got {self.constellation_order!r}")
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
        if not (math.isfinite(self.element_spacing_m) and self.element_spacing_m > 0.0):
            raise ConfigError(f"element spacing must be finite and > 0, got {self.element_spacing!r}")
        try:  # the Rayleigh distance can underflow, or (z / z_R)^2 overflow
            ring = self.ring_radius_m
        except ArithmeticError:
            ring = math.inf
        where = f"ring radius at waist_m={self.waist_m!r}, distance_m={self.distance_m!r}"
        require(where, ring, "finite and > 0", ConfigError)
        beta = self.beta_value
        if not (0.0 < beta < math.pi / self.l_max):
            raise ConfigError(
                f"beta={beta!r} violates the measurement constraint (0, pi/{self.l_max})"
            )
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


#: Where each default comes from, field by field: "paper" or "decision".
PROVENANCE = {f.name: f.metadata["provenance"] for f in dataclasses.fields(SystemConfig)}

#: Config-file key: (SystemConfig field, text -> value).
_KEYS = {f.metadata["key"]: (f.name, f.metadata["parse"]) for f in dataclasses.fields(SystemConfig)}


def load_config(path) -> SystemConfig:
    """Read a flat ``key = value`` file into a validated SystemConfig.

    Blank lines and ``#`` comments are ignored.  An empty file yields the
    full default configuration.  Unknown or repeated keys and constraint
    violations raise ConfigError naming the offender.
    """
    kwargs: dict = {}
    seen: dict = {}  # key -> line that set it
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
            if key in seen:
                raise ConfigError(f"{path}:{lineno}: repeated config key {key} (first set on line {seen[key]})")
            seen[key] = lineno
            field, parse = _KEYS[key]
            try:
                kwargs[field] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r} ({exc})") from exc
    return SystemConfig(**kwargs)
