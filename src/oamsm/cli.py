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

from . import __version__
from .channel import build_channel_tensor
from .config import PROVENANCE, SystemConfig, default_states, load_config
from .errors import ConfigError, NumericError
from .metrics import _MIMO_MODES, abep, dcmc_capacity, energy_efficiency, mimo_capacity_baseline
from .modem import simulate_ber
from .numerics import _substream


# Sweep kind: (CSV column, the SystemConfig field a grid value sets, or None
# for the operating SNR, grid value -> field value).  Kinds whose values are
# counts, parsed by something other than ``float``, run on power-of-two grids.
_SWEEPS = {
    "snr": ("snr_db", None, float),
    "distance": ("distance_m", "distance_m", float),
    "antennas": ("antennas", "tx_antennas", int),
    "states": ("states", "oam_states", lambda v: default_states(int(v))),
    "constellation": ("constellation", "constellation_order", int),
}

# Output: its CSV columns, written in this table's order.
_OUTPUT_COLUMNS = {
    "capacity": ("capacity_oam_bits", "capacity_oam_stderr", "capacity_mimo_bits"),
    "abep": ("abep",),
    "ber": ("ber_sim", "ber_sim_stderr", "antenna_err_rate", "state_err_rate", "symbol_err_rate"),
    "ee": ("ee_oam_bits_per_joule", "ee_mimo_bits_per_joule"),
}

# SystemConfig fields that a command-line flag of the same name overrides.
_OVERRIDES = tuple(f for f in dataclasses.fields(SystemConfig) if f.metadata["flag"])


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


# Variant families: antenna counts, state-set sizes, constellation orders
# and distances.
_M = tuple((f"M={n}", {"tx_antennas": n}) for n in (2, 4, 8))
_L = tuple((f"L={n}", {"oam_states": default_states(n)}) for n in (2, 4, 8))
_P = tuple((f"P={n}", {"constellation_order": n}) for n in (2, 4, 8))
_D = tuple((f"d={d:g}", {"distance_m": d}) for d in (25.0, 50.0, 100.0))

PRESETS: dict[str, SweepSpec] = {
    # Capacity vs transmit SNR for both systems.
    "fig2": SweepSpec("snr", -20, 40, 2, ("capacity",), {"samples": 12000}),
    # Capacity vs distance; the transmit power is raised until the plain
    # free-space baseline is live inside the window, so the crossover between
    # the two systems is visible (decision, recorded in metadata).
    "fig3": SweepSpec("distance", 10, 150, 5, ("capacity",), {"samples": 6000, "snr_db": 104.0}),
    # Capacity vs SNR for several antenna counts and state-set sizes.
    "fig4": SweepSpec("snr", -20, 40, 4, ("capacity",), {"samples": 2000}, _M + _L),
    # Capacity vs SNR for several constellation orders.
    "fig5": SweepSpec("snr", -20, 40, 4, ("capacity",), {"samples": 4000}, _P),
    # Capacity vs distance for several antenna counts and state-set sizes.
    "fig6": SweepSpec("distance", 10, 150, 10, ("capacity",), {"samples": 2000}, _M + _L),
    # Capacity vs distance for several constellation orders.
    "fig7": SweepSpec("distance", 10, 150, 10, ("capacity",), {"samples": 4000}, _P),
    # Analytic bit error probability and measured BER vs SNR.
    "fig8": SweepSpec("snr", -10, 30, 2, ("abep", "ber"), {"trials": 30000}),
    # Same, for several antenna counts and constellation orders.
    "fig9": SweepSpec("snr", -10, 30, 4, ("abep", "ber"), {"trials": 15000}, _M + _P),
    # Same, for several distances and state-set sizes.
    "fig10": SweepSpec("snr", -10, 30, 4, ("abep", "ber"), {"trials": 15000}, _D + _L),
    # Energy efficiency vs SNR for both systems.
    "fig11": SweepSpec("snr", 0, 40, 2, ("capacity", "ee"), {"samples": 8000}),
}


def _grid_values(sweep: str, start: float, stop: float, step: float, config: SystemConfig):
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ConfigError("sweep range must be finite")
    if stop < start or step <= 0:
        raise ConfigError(f"sweep range must be monotone: from={start} to={stop} step={step}")
    if _SWEEPS[sweep][2] is not float:
        # Discrete power-of-two grids; the step is implicit doubling.
        if step != 1:
            raise ConfigError(f"{sweep} sweeps double from point to point; their step must be 1, got {step}")
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


def _columns(spec: SweepSpec) -> list:
    cols = [_SWEEPS[spec.sweep][0]] + (["variant"] if spec.variants else []) + ["rho_w"]
    for out, out_cols in _OUTPUT_COLUMNS.items():
        if out in spec.outputs:
            cols += out_cols
    return cols


def run_sweep(config: SystemConfig, spec: SweepSpec, out_path: str, command: str = "") -> list:
    """Execute a sweep and write the CSV plus its ``.meta`` sidecar.

    The base gain is materialized once before sweeping, so distance grids
    see genuine attenuation rather than a re-normalized channel at every
    point; the headers show the gain as configured, its value on the
    ``resolved_gain`` line.  Returns the rows as dictionaries (same order
    as the CSV).
    """
    if spec.sweep not in _SWEEPS:
        raise ConfigError(f"unknown sweep kind {spec.sweep!r}; expected one of {tuple(_SWEEPS)}")
    for out in spec.outputs:
        if out not in _OUTPUT_COLUMNS:
            raise ConfigError(f"unknown output {out!r}; expected one of {tuple(_OUTPUT_COLUMNS)}")
    if spec.mimo_mode not in _MIMO_MODES:
        raise ConfigError(f"unknown mimo mode {spec.mimo_mode!r}; expected one of {_MIMO_MODES}")
    base = dataclasses.replace(config, **spec.overrides)
    pinned = dataclasses.replace(base, gain=base.gain_value)
    grid = _grid_values(spec.sweep, spec.start, spec.stop, spec.step, base)
    _, field, parse = _SWEEPS[spec.sweep]
    variants = spec.variants or (("", {}),)
    columns = _columns(spec)
    rows = []
    for vi, (label, changes) in enumerate(variants):
        variant_cfg = dataclasses.replace(pinned, **changes) if changes else pinned
        # Every output reads the tensor; an SNR sweep keeps the config
        # object, so it builds the tensor once per variant.
        tensor = tensor_cfg = None
        for gi, value in enumerate(grid):
            if field is None:
                cfg, snr_db = variant_cfg, parse(value)
            else:
                cfg = dataclasses.replace(variant_cfg, **{field: parse(value)})
                snr_db = cfg.snr_db
            rho = cfg.rho_for_snr_db(snr_db)
            noise_var = cfg.noise_power_w
            seed_i = int(_substream(cfg.seed, vi, gi).generate_state(1, "uint64")[0])
            row = {columns[0]: value, "rho_w": rho}
            if spec.variants:
                row["variant"] = label
            if spec.outputs and cfg is not tensor_cfg:
                tensor, tensor_cfg = build_channel_tensor(cfg), cfg
            if "capacity" in spec.outputs or "ee" in spec.outputs:
                cap = dcmc_capacity(tensor, rho, noise_var, cfg.samples, seed_i)
                cap_mimo = mimo_capacity_baseline(cfg, rho, noise_var, spec.mimo_mode, cfg.samples, seed_i)
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
                # OAM-SM drives one chain; the array drives all M.
                for system, n_active in (("oam", 1), ("mimo", cfg.tx_antennas)):
                    row[f"ee_{system}_bits_per_joule"] = energy_efficiency(
                        row[f"capacity_{system}_bits"], rho, cfg, n_active
                    )
            rows.append(row)
    config_lines = _config_lines(base)
    head = [f"oamsm {__version__} sweep={spec.sweep} outputs={','.join(spec.outputs)}"]
    _write(out_path, [f"# {line}" for line in head + config_lines], columns, rows)
    now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    meta = [
        f"code_version = {__version__}",
        f"command = {command}",
        f"timestamp = {now}",
        f"sweep = {spec.sweep}",
        f"grid = from {spec.start} to {spec.stop} step {spec.step}",
        f"outputs = {','.join(spec.outputs)}",
        f"mimo_mode = {spec.mimo_mode}",
    ]
    if spec.variants:
        meta.append(f"variants = {', '.join(label for label, _ in spec.variants)}")
    _write(out_path + ".meta", meta + config_lines)
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


def _write(path: str, lines: list, columns=(), rows=()) -> None:
    """Write ``lines``, then, if ``columns`` are given, a CSV table of
    ``rows`` under that header."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
            if columns:
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def preset(figure: str) -> SweepSpec:
    """Sweep specification reproducing one of the canned evaluation curves."""
    if figure not in PRESETS:
        raise ConfigError(f"unknown preset {figure!r}; expected one of {sorted(PRESETS)}")
    return PRESETS[figure]


def _cli_changes(args) -> dict:
    return {f.name: getattr(args, f.name) for f in _OVERRIDES if getattr(args, f.name) is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oamsm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help="output CSV path")
        for f in _OVERRIDES:
            flag, parse, choices = f.metadata["flag"], f.metadata["parse"], f.metadata["choices"]
            help_text = None if flag is True else flag
            p.add_argument("--" + f.name.replace("_", "-"), type=parse, choices=choices, help=help_text)

    run_p = sub.add_parser("run", help="run one sweep from a config file")
    run_p.add_argument("--config", default=None, help="flat key=value config file")
    run_p.add_argument("--sweep", required=True, choices=tuple(_SWEEPS))
    run_p.add_argument("--from", dest="start", type=float, required=True)
    run_p.add_argument("--to", dest="stop", type=float, required=True)
    run_p.add_argument(
        "--step",
        type=float,
        default=1.0,
        help="grid step; antennas, states and constellation double from point to point and take only 1",
    )
    run_p.add_argument(
        "--outputs",
        default="capacity",
        help="comma list of outputs: capacity,abep,ber,ee",
    )
    run_p.add_argument("--mimo-mode", dest="mimo_mode", choices=_MIMO_MODES, default="logdet")
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
