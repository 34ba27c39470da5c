"""Experiment runner: parameter sweeps to CSV with self-describing metadata.

Two entry points:

* ``oamsm run`` sweeps one variable (snr, distance, antennas, states,
  constellation) over a grid and writes one CSV row per grid point.
* ``oamsm preset figN`` runs a canned sweep specification (fig2..fig11)
  reproducing the standard evaluation curves for this system family.

Every CSV starts with ``#``-prefixed lines echoing the resolved
configuration and the provenance of each default; a ``<out>.meta`` sidecar
repeats them together with the command line and a timestamp.  Given the
same seed, the CSV body is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import math
import sys

import numpy as np

from . import __version__
from .channel import build_channel_tensor
from .config import PROVENANCE, SystemConfig, default_states, load_config
from .errors import ConfigError, NumericError
from .metrics import (
    PowerModel,
    abep,
    dcmc_capacity,
    energy_efficiency,
    mimo_capacity_baseline,
)
from .modem import simulate_ber

__all__ = ["main", "run_sweep", "preset", "PRESETS"]

_SWEEP_KINDS = ("snr", "distance", "antennas", "states", "constellation")
_OUTPUT_KINDS = ("capacity", "abep", "ber", "ee")


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One sweep: the swept variable, its grid, outputs, and overrides."""

    sweep: str
    start: float
    stop: float
    step: float
    outputs: tuple
    overrides: dict = dataclasses.field(default_factory=dict)
    variants: tuple = ()  # (label, {field: value}) pairs; empty = single run
    mimo_mode: str = "logdet"


PRESETS: dict[str, SweepSpec] = {
    # Capacity vs transmit SNR for both systems.
    "fig2": SweepSpec("snr", -20, 40, 2, ("capacity",), {"samples": 12000}),
    # Capacity vs distance; the transmit power is raised until the plain
    # free-space baseline is live inside the window, so the crossover between
    # the two systems is visible (decision, recorded in metadata).
    "fig3": SweepSpec("distance", 10, 150, 5, ("capacity",), {"samples": 6000, "snr_db": 104.0}),
    # Capacity vs SNR for several antenna counts and state-set sizes.
    "fig4": SweepSpec(
        "snr",
        -20,
        40,
        4,
        ("capacity",),
        {"samples": 2000},
        (
            ("M=2", {"tx_antennas": 2}),
            ("M=4", {"tx_antennas": 4}),
            ("M=8", {"tx_antennas": 8}),
            ("L=2", {"oam_states": default_states(2)}),
            ("L=4", {"oam_states": default_states(4)}),
            ("L=8", {"oam_states": default_states(8)}),
        ),
    ),
    # Capacity vs SNR for several constellation orders.
    "fig5": SweepSpec(
        "snr",
        -20,
        40,
        4,
        ("capacity",),
        {"samples": 4000},
        (
            ("P=2", {"constellation_order": 2}),
            ("P=4", {"constellation_order": 4}),
            ("P=8", {"constellation_order": 8}),
        ),
    ),
    # Capacity vs distance for several antenna counts and state-set sizes.
    "fig6": SweepSpec(
        "distance",
        10,
        150,
        10,
        ("capacity",),
        {"samples": 2000},
        (
            ("M=2", {"tx_antennas": 2}),
            ("M=4", {"tx_antennas": 4}),
            ("M=8", {"tx_antennas": 8}),
            ("L=2", {"oam_states": default_states(2)}),
            ("L=4", {"oam_states": default_states(4)}),
            ("L=8", {"oam_states": default_states(8)}),
        ),
    ),
    # Capacity vs distance for several constellation orders.
    "fig7": SweepSpec(
        "distance",
        10,
        150,
        10,
        ("capacity",),
        {"samples": 4000},
        (
            ("P=2", {"constellation_order": 2}),
            ("P=4", {"constellation_order": 4}),
            ("P=8", {"constellation_order": 8}),
        ),
    ),
    # Analytic bit error probability and measured BER vs SNR.
    "fig8": SweepSpec("snr", -10, 30, 2, ("abep", "ber"), {"trials": 30000}),
    # Same, for several antenna counts and constellation orders.
    "fig9": SweepSpec(
        "snr",
        -10,
        30,
        4,
        ("abep", "ber"),
        {"trials": 15000},
        (
            ("M=2", {"tx_antennas": 2}),
            ("M=4", {"tx_antennas": 4}),
            ("M=8", {"tx_antennas": 8}),
            ("P=2", {"constellation_order": 2}),
            ("P=4", {"constellation_order": 4}),
            ("P=8", {"constellation_order": 8}),
        ),
    ),
    # Same, for several distances and state-set sizes.
    "fig10": SweepSpec(
        "snr",
        -10,
        30,
        4,
        ("abep", "ber"),
        {"trials": 15000},
        (
            ("d=25", {"distance_m": 25.0}),
            ("d=50", {"distance_m": 50.0}),
            ("d=100", {"distance_m": 100.0}),
            ("L=2", {"oam_states": default_states(2)}),
            ("L=4", {"oam_states": default_states(4)}),
            ("L=8", {"oam_states": default_states(8)}),
        ),
    ),
    # Energy efficiency vs SNR for both systems.
    "fig11": SweepSpec("snr", 0, 40, 2, ("capacity", "ee"), {"samples": 8000}),
}


def _grid_values(sweep: str, start: float, stop: float, step: float, config: SystemConfig):
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ConfigError("sweep range must be finite")
    if stop < start or step <= 0:
        raise ConfigError(f"sweep range must be monotone: from={start} to={stop} step={step}")
    if sweep in ("antennas", "states", "constellation"):
        # Discrete power-of-two grids; the step is implicit doubling.
        values = []
        v = 2
        while v <= stop:
            if v >= start:
                values.append(v)
            v *= 2
        if not values:
            raise ConfigError(f"no powers of two inside [{start}, {stop}]")
        return values
    n = int(round((stop - start) / step))
    values = [start + i * step for i in range(n + 1) if start + i * step <= stop + 1e-9]
    if sweep == "snr":
        for v in values:
            try:
                config.rho_for_snr_db(v)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
    return values


def _point_config(cfg: SystemConfig, sweep: str, value) -> tuple[SystemConfig, float]:
    """Derive the per-grid-point config and its operating SNR (dB)."""
    if sweep == "snr":
        return cfg, float(value)
    if sweep == "distance":
        return dataclasses.replace(cfg, distance_m=float(value)), cfg.snr_db
    if sweep == "antennas":
        return dataclasses.replace(cfg, tx_antennas=int(value)), cfg.snr_db
    if sweep == "states":
        return dataclasses.replace(cfg, oam_states=default_states(int(value))), cfg.snr_db
    if sweep == "constellation":
        return dataclasses.replace(cfg, constellation_order=int(value)), cfg.snr_db
    raise ConfigError(f"unknown sweep kind {sweep!r}")


def _point_seed(seed: int, *indices: int) -> int:
    ss = np.random.SeedSequence(entropy=(int(seed) & (2**64 - 1), *indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


_SWEEP_COLUMN = {
    "snr": "snr_db",
    "distance": "distance_m",
    "antennas": "antennas",
    "states": "states",
    "constellation": "constellation",
}


def _columns(spec: SweepSpec) -> list:
    cols = [_SWEEP_COLUMN[spec.sweep]]
    if spec.variants:
        cols.append("variant")
    cols.append("rho_w")
    if "capacity" in spec.outputs:
        cols += ["capacity_oam_bits", "capacity_oam_stderr", "capacity_mimo_bits"]
    if "abep" in spec.outputs:
        cols += ["abep"]
    if "ber" in spec.outputs:
        cols += [
            "ber_sim",
            "ber_sim_stderr",
            "antenna_err_rate",
            "state_err_rate",
            "symbol_err_rate",
        ]
    if "ee" in spec.outputs:
        cols += ["ee_oam_bits_per_joule", "ee_mimo_bits_per_joule"]
    return cols


def run_sweep(config: SystemConfig, spec: SweepSpec, out_path: str, command: str = "") -> list:
    """Execute a sweep and write the CSV plus its ``.meta`` sidecar.

    The base gain is materialized once before sweeping, so distance grids
    see genuine attenuation rather than a re-normalized channel at every
    point.  Returns the rows as dictionaries (same order as the CSV).
    """
    for out in spec.outputs:
        if out not in _OUTPUT_KINDS:
            raise ConfigError(f"unknown output {out!r}; expected one of {_OUTPUT_KINDS}")
    base = dataclasses.replace(config, **spec.overrides)
    base = dataclasses.replace(base, gain=base.gain_value)
    grid = _grid_values(spec.sweep, spec.start, spec.stop, spec.step, base)
    variants = spec.variants or (("", {}),)
    columns = _columns(spec)
    rows = []
    for vi, (label, changes) in enumerate(variants):
        variant_cfg = dataclasses.replace(base, **changes) if changes else base
        for gi, value in enumerate(grid):
            cfg, snr_db = _point_config(variant_cfg, spec.sweep, value)
            rho = cfg.rho_for_snr_db(snr_db)
            noise_var = cfg.noise_power_w
            seed_i = _point_seed(cfg.seed, vi, gi)
            row = {columns[0]: value, "rho_w": rho}
            if spec.variants:
                row["variant"] = label
            tensor = None
            if {"capacity", "abep", "ber", "ee"} & set(spec.outputs):
                tensor = build_channel_tensor(cfg)
            if "capacity" in spec.outputs or "ee" in spec.outputs:
                cap = dcmc_capacity(tensor, rho, noise_var, cfg.samples, seed_i)
                cap_mimo = mimo_capacity_baseline(cfg, rho, noise_var, mode=spec.mimo_mode)
                row["capacity_oam_bits"] = cap.value
                row["capacity_oam_stderr"] = cap.std_error
                row["capacity_mimo_bits"] = cap_mimo.value
            if "abep" in spec.outputs:
                row["abep"] = abep(cfg, rho, tensor=tensor)
            if "ber" in spec.outputs:
                rep = simulate_ber(cfg, snr_db, cfg.trials, seed_i, cfg.detector, tensor=tensor)
                row["ber_sim"] = rep.bit_error_rate
                row["ber_sim_stderr"] = rep.bit_error_stderr
                row["antenna_err_rate"] = rep.antenna_error_rate
                row["state_err_rate"] = rep.state_error_rate
                row["symbol_err_rate"] = rep.symbol_error_rate
            if "ee" in spec.outputs:
                model = PowerModel(cfg.circuit_power_w, cfg.power_slope, 1)
                model_mimo = PowerModel(cfg.circuit_power_w, cfg.power_slope, cfg.tx_antennas)
                row["ee_oam_bits_per_joule"] = energy_efficiency(
                    row["capacity_oam_bits"], cfg.bandwidth_hz, rho, model, "oam_sm"
                )
                row["ee_mimo_bits_per_joule"] = energy_efficiency(
                    row["capacity_mimo_bits"], cfg.bandwidth_hz, rho, model_mimo, "mimo"
                )
            rows.append(row)
    _write_csv(out_path, base, spec, columns, rows)
    _write_meta(out_path + ".meta", base, spec, command)
    return rows


def _config_lines(cfg: SystemConfig) -> list:
    lines = []
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        tag = PROVENANCE[f.name] if value == f.default else "override"
        lines.append(f"{f.name} = {value!r}  [{tag}]")
    lines.append(f"resolved_wavelength_m = {cfg.wavelength_m!r}")
    lines.append(f"resolved_element_spacing_m = {cfg.element_spacing_m!r}")
    lines.append(f"resolved_beta_rad = {cfg.beta_value!r}")
    lines.append(f"resolved_gain = {cfg.gain_value!r}")
    lines.append(f"resolved_noise_power_w = {cfg.noise_power_w!r}")
    return lines


def _write_csv(path: str, cfg: SystemConfig, spec: SweepSpec, columns: list, rows: list) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# oamsm {__version__} sweep={spec.sweep} outputs={','.join(spec.outputs)}\n")
            for line in _config_lines(cfg):
                fh.write(f"# {line}\n")
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row.get(c)) for c in columns])
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_meta(path: str, cfg: SystemConfig, spec: SweepSpec, command: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"code_version = {__version__}\n")
            fh.write(f"command = {command}\n")
            fh.write(f"timestamp = {datetime.datetime.now(datetime.timezone.utc).isoformat()}\n")
            fh.write(f"sweep = {spec.sweep}\n")
            fh.write(f"grid = from {spec.start} to {spec.stop} step {spec.step}\n")
            fh.write(f"outputs = {','.join(spec.outputs)}\n")
            if spec.variants:
                fh.write(f"variants = {', '.join(label for label, _ in spec.variants)}\n")
            for line in _config_lines(cfg):
                fh.write(line + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def preset(figure: str) -> SweepSpec:
    """Sweep specification reproducing one of the canned evaluation curves."""
    if figure not in PRESETS:
        raise ConfigError(f"unknown preset {figure!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[figure]


def _cli_changes(args) -> dict:
    changes = {}
    if args.seed is not None:
        changes["seed"] = args.seed
    if args.trials is not None:
        changes["trials"] = args.trials
    if args.samples is not None:
        changes["samples"] = args.samples
    if args.detector is not None:
        changes["detector"] = args.detector
    if args.coeff_mode is not None:
        changes["coeff_mode"] = args.coeff_mode
    if args.distance_mode is not None:
        changes["distance_mode"] = args.distance_mode
    return changes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oamsm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--trials", type=int, default=None, help="Monte Carlo BER trials per point")
        p.add_argument("--samples", type=int, default=None, help="capacity noise draws per point")
        p.add_argument("--detector", choices=("stepwise", "ml"), default=None)
        p.add_argument("--coeff-mode", dest="coeff_mode", choices=("printed", "rederived"), default=None)
        p.add_argument(
            "--distance-mode", dest="distance_mode", choices=("printed", "euclidean"), default=None
        )

    run_p = sub.add_parser("run", help="run one sweep from a config file")
    run_p.add_argument("--config", default=None, help="flat key=value config file")
    run_p.add_argument("--sweep", required=True, choices=_SWEEP_KINDS)
    run_p.add_argument("--from", dest="start", type=float, required=True)
    run_p.add_argument("--to", dest="stop", type=float, required=True)
    run_p.add_argument("--step", dest="step", type=float, default=1.0)
    run_p.add_argument(
        "--outputs",
        default="capacity",
        help="comma list of outputs: capacity,abep,ber,ee",
    )
    run_p.add_argument("--mimo-mode", dest="mimo_mode", choices=("logdet", "dcmc_psk"), default="logdet")
    add_common(run_p)

    preset_p = sub.add_parser("preset", help="run a canned figure sweep")
    preset_p.add_argument("figure", choices=sorted(PRESETS), help="preset id, e.g. fig2")
    add_common(preset_p)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = "oamsm " + " ".join(argv)
    try:
        changes = _cli_changes(args)
        if args.command == "run":
            cfg = load_config(args.config) if args.config else SystemConfig()
            outputs = tuple(tok.strip() for tok in args.outputs.split(",") if tok.strip())
            spec = SweepSpec(
                sweep=args.sweep,
                start=args.start,
                stop=args.stop,
                step=args.step,
                outputs=outputs,
                mimo_mode=args.mimo_mode,
            )
        else:
            spec = preset(args.figure)
            cfg = SystemConfig()
            # Command-line flags beat the preset's default sample counts.
            kept = {k: v for k, v in spec.overrides.items() if k not in changes}
            spec = dataclasses.replace(spec, overrides=kept)
        if changes:
            cfg = dataclasses.replace(cfg, **changes)
        run_sweep(cfg, spec, args.out, command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
