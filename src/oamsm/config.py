"""System configuration: defaults, validation, and the flat key=value loader.

Every run is parameterized by a single ``SystemConfig``.  Each field is
declared once, with ``_option``: its default, its provenance tag, its
config-file key and parser, its allowed values or the ``errors.require``
rule it must meet, and whether a command-line flag overrides it.  Defaults
that trace to the standard 60 GHz evaluation setup are tagged ``paper``;
values the setup leaves open (beam waist, ring gain, pair separation, power
grid) are tagged ``decision``, so every output file can state where its
numbers come from.  ``PROVENANCE``, the loader's key table and the
command-line overrides are all read off these fields.  The quantities the
layers divide by or exponentiate (noise and transmit power, ring radius,
gain, each state's matched waist and ring response, the peak noncentrality)
are checked from one table, ``_DERIVED``, by one evaluator that turns an
overflow into a ConfigError naming the quantity.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import beam as beam_mod
from .errors import ConfigError, require
from .numerics import Constellation, psk_constellation


SPEED_OF_LIGHT = 299792458.0


def default_states(count: int) -> tuple[int, ...]:
    """Symmetric state sets {±1, ..., ±count/2}, ascending; 0 is excluded
    because a zero-state beam has no intensity ring."""
    if count < 2 or count % 2 != 0:
        raise ConfigError(f"state count must be a positive even number, got {count!r}")
    half = count // 2
    return tuple(range(-half, 0)) + tuple(range(1, half + 1))


def _check_symbol_axes(n_antennas, states) -> None:
    """What every codeword layout needs: a power-of-two antenna count and a
    power-of-two number of distinct nonzero states (state 0 has no ring)."""
    require("antenna count", n_antennas, "a power of two", ConfigError)
    require("number of OAM states", len(states), "a power of two", ConfigError)
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
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"OAM state {value!r} is not an integer")
    return int(value)


def _state_index(states: tuple, value) -> int:
    """Position of OAM state ``value`` in ``states``; ConfigError for a
    non-integer (a bool included) or a state outside the set."""
    if (l := _state(value)) not in states:
        raise ConfigError(f"state {l!r} not in the configured set {states}")
    return states.index(l)


#: The detectors of ``modem.simulate_ber`` and the input models of
#: ``metrics.mimo_capacity_baseline``.
_DETECTORS = ("stepwise", "ml")
_MIMO_MODES = ("logdet", "dcmc_psk")


def _option(default, provenance: str, key: str, parse, choices=None, flag=False, rule=None):
    """A SystemConfig field with everything said about it in one place.

    ``provenance`` is "paper" (the published evaluation setup) or
    "decision" (a documented choice of this implementation); ``key`` is the
    config-file key, read with ``parse``; ``rule``, if given, is the
    ``errors.require`` rule the value must meet, and ``choices``, if given,
    the allowed values, which are then its rule; ``flag``, if given, is the
    help text of a same-named command-line override.
    """
    meta = dict(provenance=provenance, key=key, parse=parse, choices=choices, flag=flag, rule=rule or choices)
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
    constellation_order: int = _option(4, "paper", "constellation", int, rule="a power of two")
    distance_m: float = _option(50.0, "paper", "distance", float, rule="finite and > 0")
    element_spacing: object = _option("20lambda", "paper", "xi", _spacing_value)
    beta_rad: object = _option(None, "decision", "beta", float)
    waist_m: float = _option(0.04, "decision", "waist", float, rule="finite and > 0")
    ref_state: int = _option(1, "decision", "ref_state", int, rule="a nonzero integer")
    gain: object = _option("auto", "decision", "gain", _gain_value)
    circuit_power_w: float = _option(6.8, "paper", "circuit_power", float, rule="finite and >= 0")
    power_slope: float = _option(4.0, "paper", "power_slope", float, rule="finite and > 0")
    snr_db: float = _option(20.0, "decision", "snr", float, rule="finite")
    detector: str = _option("stepwise", "decision", "detector", str, _DETECTORS, flag="BER detector")
    mimo_mode: str = _option("logdet", "decision", "mimo_mode", str, _MIMO_MODES, flag="capacity baseline model")
    seed: int = _option(12345, "decision", "seed", int, flag="master seed override", rule="a nonnegative integer")
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

    # -- derived quantities (the geometry is cached once per instance) -------
    # The channel tensor, the baseline's singular values and the symbol map
    # are cached too, so every caller of a config shares them.  Their
    # builders live in modules that import this one, so each is imported
    # where it is called.

    @functools.cached_property
    def _channel_tensor(self):
        from .channel import _assemble_channel_tensor

        return _assemble_channel_tensor(self)

    @functools.cached_property
    def _mimo_singular_values(self) -> np.ndarray:
        from .metrics import mimo_channel_matrix

        sv = np.linalg.svd(mimo_channel_matrix(self), compute_uv=False)
        sv.setflags(write=False)
        return sv

    @functools.cached_property
    def _symbol_map(self):
        from .modem import SymbolMap

        return SymbolMap(self.tx_antennas, self.oam_states, self.constellation())

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_freq_hz

    @property
    def n_states(self) -> int:
        return len(self.oam_states)

    @property
    def l_max(self) -> int:
        return max(abs(l) for l in self.oam_states)

    @functools.cached_property
    def element_spacing_m(self) -> float:
        if isinstance(self.element_spacing, str):
            return _parse_spacing(self.element_spacing) * self.wavelength_m
        return float(self.element_spacing)

    @property
    def beta_value(self) -> float:
        if self.beta_rad is None:
            return math.pi / (2.0 * self.l_max)
        return float(self.beta_rad)

    @functools.cached_property
    def noise_power_w(self) -> float:
        return 10.0 ** (self.noise_psd_dbm_hz / 10.0) / 1000.0 * self.bandwidth_hz

    @functools.cached_property
    def reference_beam(self) -> beam_mod.BeamParams:
        return beam_mod.BeamParams(self.waist_m, self.ref_state, self.wavelength_m)

    @functools.cached_property
    def ring_radius_m(self) -> float:
        return beam_mod.ring_radius(self.reference_beam, self.distance_m)

    @functools.cached_property
    def in_ring_distance_m(self) -> float:
        return math.sqrt(self.distance_m**2 + self.ring_radius_m**2)

    @functools.cached_property
    def gain_value(self) -> float:
        if self.gain == "auto":
            # Unit ring response at the configured distance.
            return 4.0 * math.pi * self.in_ring_distance_m / self.wavelength_m
        return self.gain

    def rho_for_snr_db(self, snr_db: float) -> float:
        """Transmit power (watts) realizing the given transmit SNR, defined
        as rho / noise_power over the configured bandwidth.  Raises
        ``ConfigError`` if the power or the peak noncentrality it gives is
        not a finite float (see ``_DERIVED``), or if ``snr_db`` itself is
        not a finite real number (a bool or an array is refused)."""
        require("snr_db", snr_db, "finite", ConfigError)
        self._check_derived("snr", snr_db)
        return _rho(self, snr_db)

    def constellation(self) -> Constellation:
        return _constellation(self.constellation_order)

    def resolved(self) -> "SystemConfig":
        """Copy with spacing, pair angle, and gain pinned to numbers.

        A config varied from the copy (e.g. moved to another distance)
        keeps the gain fixed at its value for the base geometry instead of
        re-normalizing; ``run_sweep`` pins only the gain, the same way.
        """
        pinned = {"element_spacing": self.element_spacing_m, "beta_rad": self.beta_value, "gain": self.gain_value}
        return dataclasses.replace(self, **pinned)

    # -- validation ----------------------------------------------------------

    def _validate(self):
        for f in dataclasses.fields(self):
            if f.metadata["rule"]:
                require(f.name, getattr(self, f.name), f.metadata["rule"], ConfigError)
        _check_symbol_axes(self.tx_antennas, self.oam_states)
        self._check_derived("config")
        self._check_derived("snr", self.snr_db)
        beta = self.beta_value
        if not (0.0 < beta < math.pi / self.l_max):
            raise ConfigError(f"beta={beta!r} violates the measurement constraint (0, pi/{self.l_max})")
        # Distinct wrapped pair-phase signatures for every state; guaranteed
        # by the beta constraint but asserted so a future relaxation fails loud.
        sigs = [math.remainder(beta * l, 2.0 * math.pi) for l in self.oam_states]
        diffs = np.abs(np.subtract.outer(sigs, sigs))
        if np.any(diffs[~np.eye(len(sigs), dtype=bool)] < 1e-12):
            raise ConfigError("state set yields ambiguous pair phase differences")

    def _check_derived(self, scope: str, snr_db=None) -> None:
        """Check the ``_DERIVED`` entries of ``scope``, with x each OAM state
        for "state", else ``snr_db`` (None for "config").  The one place
        where an overflow in a derived quantity becomes a ConfigError: an
        ``ArithmeticError`` on the way counts as inf, and NumPy's overflows
        show up as non-finite values."""
        xs = self.oam_states if scope == "state" else (snr_db,)
        with np.errstate(all="ignore"):
            for (name, value, rule), x in itertools.product(_DERIVED[scope], xs):
                try:
                    v = value(self, x)
                except ArithmeticError:
                    v = math.inf
                require(name.format(c=self, x=x), v, rule, ConfigError)


@functools.cache
def _constellation(order: int) -> Constellation:
    """One shared constellation per order; it is frozen and holds tuples."""
    return psk_constellation(order) if order > 1 else Constellation(order=1, points=(1.0 + 0.0j,), bit_labels=("",))


def _matched_waist(c: SystemConfig, l: int) -> float:
    return beam_mod.waist_for_state(c.reference_beam, l, c.distance_m)


def _matched_beam(c: SystemConfig, l: int) -> beam_mod.BeamParams:
    """State l's beam, its ring on the reference ring at the configured distance."""
    return beam_mod.BeamParams(_matched_waist(c, l), l, c.wavelength_m)


def _ring_amplitude(c: SystemConfig, _=None) -> float:
    """max|h|: the ring is each beam's peak, so no tensor entry is larger."""
    return c.gain_value * c.wavelength_m / (4.0 * math.pi * c.in_ring_distance_m)


def _ring_response(c: SystemConfig, l: int) -> float:
    return _ring_amplitude(c) * abs(beam_mod.lg_field(_matched_beam(c, l), c.ring_radius_m, 0.0, c.distance_m))


def _rho(c: SystemConfig, snr_db: float) -> float:
    return c.noise_power_w * 10.0 ** (snr_db / 10.0)


def _peak_noncentrality(c: SystemConfig, snr_db: float) -> float:
    return _rho(c, snr_db) * _ring_amplitude(c) ** 2 / (c.noise_power_w / 2.0)


#: Derived quantity, by scope: (name, value from the config c and x, the
#: ``errors.require`` rule it must meet); names are formatted with c and x.
#: Each is a number some layer divides by or exponentiates.  ``_validate``
#: checks scope "config", and "snr" at x = snr_db; ``rho_for_snr_db``
#: checks "snr" at every SNR a run uses, and ``channel.matched_beams``,
#: which every tensor is built from, "state" at x = each OAM state.
_DERIVED = {
    "config": (
        ("noise power at noise_psd_dbm_hz={c.noise_psd_dbm_hz!r}, bandwidth_hz={c.bandwidth_hz!r}",
         lambda c, _: c.noise_power_w, "finite and > 0"),
        # The detection statistics are scaled by 2 / noise power.
        ("2/noise power at bandwidth_hz={c.bandwidth_hz!r}", lambda c, _: 2.0 / c.noise_power_w, "finite and > 0"),
        ("element spacing", lambda c, _: c.element_spacing_m, "finite and > 0"),
        ("ring radius at waist_m={c.waist_m!r}, distance_m={c.distance_m!r}", lambda c, _: c.ring_radius_m,
         "finite and > 0"),
        ("gain", lambda c, _: c.gain_value, "finite and > 0"),
        # The in-ring |h| of every (m, l); the constellation stage needs it > 0.
        ("ring amplitude gain wavelength / (4 pi d_in)", _ring_amplitude, "finite and > 0"),
    ),
    "state": (
        ("matched waist of state {x}", _matched_waist, "finite and > 0"),
        # The tensor forms max|h| field(r, phi) and divides by the ring field.
        ("max|h| times the ring field of state {x}", _ring_response, "finite and > 0"),
    ),
    "snr": (
        ("transmit power at snr_db={x!r}", _rho, "finite and > 0"),
        # 2 rho max|h|^2 / noise power, in the order the detection layers take it.
        ("peak noncentrality at snr_db={x!r}", _peak_noncentrality, "finite"),
    ),
}


def _parse_spacing(text: str) -> float:
    t = text.strip().lower().replace("λ", "lambda")
    if not t.endswith("lambda"):
        raise ConfigError(f"cannot parse element spacing {text!r}")
    head = t[: -len("lambda")].strip()
    return 1.0 if head == "" else float(head)


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
