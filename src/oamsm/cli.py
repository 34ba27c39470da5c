"""Experiment runner: parameter sweeps to CSV with self-describing metadata.

Two entry points:

* ``oamsm run`` sweeps one variable (snr, distance, antennas, states,
  constellation) over a grid and writes one CSV row per grid point.
* ``oamsm preset figN`` runs a canned sweep specification (fig2..fig11)
  reproducing the standard evaluation curves for this system family.

A sweep is planned, then computed, then written, so a point it cannot
run stops it before any output runs.  Every CSV starts with ``#`` lines
echoing the resolved configuration and the provenance of each default; a
``<out>.meta`` sidecar repeats them with the command line and a timestamp.
Given the same seed, the CSV body is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import itertools
import sys

from . import __version__
from .channel import build_channel_tensor
from .config import PROVENANCE, SystemConfig, default_states, load_config
from .errors import ConfigError, NumericError, require
from .metrics import _check_baseline, abep, dcmc_capacity, energy_efficiency, mimo_capacity_baseline
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

# Output: its CSV columns, written in this table's order; the one place that
# names them.
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
    """One sweep: the swept variable, its grid, outputs, and overrides of
    ``SystemConfig`` fields.  Every run option is such a field, so a sweep
    keeps none of its own and the CSV headers state them all.  A field
    takes the config file's value or its default, then a preset's override,
    then the command-line flag, which ``main`` merges into ``overrides``."""

    sweep: str
    start: float
    stop: float
    step: float
    outputs: tuple
    overrides: dict = dataclasses.field(default_factory=dict)
    variants: tuple = ()  # (label, {field: value}) pairs; empty = single run


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


def _grid_values(sweep: str, start: float, stop: float, step: float):
    require("sweep range", (start, stop, step), "finite in every entry", ConfigError)
    if stop < start or step <= 0:
        raise ConfigError(f"sweep range must be monotone: from={start} to={stop} step={step}")
    if _SWEEPS[sweep][2] is not float:
        # Discrete power-of-two grids; the step is implicit doubling.
        if step != 1:
            raise ConfigError(f"{sweep} sweeps double from point to point; their step must be 1, got {step}")
        values = []
        v = 1
        while v <= stop:
            if v >= start:
                values.append(v)
            v *= 2
        if not values:
            raise ConfigError(f"no powers of two inside [{start}, {stop}]")
        return values
    count = (stop - start) / step
    require("sweep point count", count, "finite", ConfigError)
    return [start + i * step for i in range(round(count) + 1) if start + i * step <= stop + 1e-9]


def run_sweep(config: SystemConfig, spec: SweepSpec, out_path: str, command: str = "") -> list:
    """Execute a sweep and write the CSV plus its ``.meta`` sidecar.

    Plan, then compute, then write: the plan builds every point's config,
    power, seed and tensor, and for capacity and ee outputs checks the
    baseline, so a sweep raises every ConfigError before any output runs.
    The points of one config object share its tensor, the capacity
    kernel's table of frame distances kept on it and the logdet baseline's
    singular values; a distance sweep builds them at every point.
    Capacity and ee draw from point (variant, grid index)'s own seed.
    ``abep`` and BER make one call each per config object of a variant:
    ``abep`` on the grid of its points' powers, each value bit for bit the
    one-point call's; ``simulate_ber`` under the seed of its first point.
    In an SNR sweep every point of a variant shares that seed and, under
    stepwise, each chunk's draw, so the variant's BER cells are correlated,
    each keeping its own law and standard error; every other sweep makes
    one call of each per point.  The ``.meta`` says which seed BER used.
    The base gain is materialized once, so distance grids see genuine
    attenuation, not a re-normalized channel; the headers show the gain as
    configured, its value on the ``resolved_gain`` line.  Each output's
    values fill its ``_OUTPUT_COLUMNS`` entry in order.  ``abep`` is the
    stepwise analysis whatever ``detector`` is, and the ``.meta`` says so.
    Returns the rows as dictionaries (same order as the CSV).
    """
    require("sweep kind", spec.sweep, tuple(_SWEEPS), ConfigError)
    for out in spec.outputs:
        require("output", out, tuple(_OUTPUT_COLUMNS), ConfigError)
    base = dataclasses.replace(config, **spec.overrides)
    pinned = dataclasses.replace(base, gain=base.gain_value)
    grid = _grid_values(spec.sweep, spec.start, spec.stop, spec.step)
    swept, field, parse = _SWEEPS[spec.sweep]
    columns = [swept] + ["variant"] * bool(spec.variants) + ["rho_w"]
    columns += [c for out, cols in _OUTPUT_COLUMNS.items() if out in spec.outputs for c in cols]
    capacity = "capacity" in spec.outputs or "ee" in spec.outputs
    plan = []
    for vi, (label, changes) in enumerate(spec.variants or (("", {}),)):
        variant_cfg = dataclasses.replace(pinned, **changes) if changes else pinned
        for gi, value in enumerate(grid):
            cfg = dataclasses.replace(variant_cfg, **{field: parse(value)}) if field else variant_cfg
            snr_db = cfg.snr_db if field else parse(value)
            rho = cfg.rho_for_snr_db(snr_db)
            seed_i = int(_substream(cfg.seed, vi, gi).generate_state(1, "uint64")[0])
            # Every output reads the tensor.  It is kept on the config, and an
            # SNR sweep keeps the config object, so it is built once per variant.
            tensor = build_channel_tensor(cfg) if spec.outputs else None
            if capacity:
                _check_baseline(cfg, cfg.mimo_mode)
            row = dict(zip(columns, (value, label, rho) if spec.variants else (value, rho)))
            plan.append((row, vi, cfg, snr_db, rho, seed_i, tensor))
    # The points of one config object of a variant share one abep and one
    # BER call, the latter under the first point's seed.
    groups = [list(points) for _, points in itertools.groupby(plan, key=lambda p: (p[1], id(p[2])))]
    abeps, ber = [], []
    for points in groups:
        _, _, cfg, _, _, seed_i, tensor = points[0]
        if "abep" in spec.outputs:
            abeps += abep(cfg, [p[4] for p in points], tensor=tensor)
        if "ber" in spec.outputs:
            ber += simulate_ber(cfg, [p[3] for p in points], cfg.trials, seed_i, cfg.detector, tensor=tensor)
    for i, (row, _, cfg, _, rho, seed_i, tensor) in enumerate(plan):
        values = {}
        if capacity:
            cap = dcmc_capacity(tensor, rho, cfg.noise_power_w, cfg.samples, seed_i)
            mimo = mimo_capacity_baseline(cfg, rho, cfg.noise_power_w, cfg.mimo_mode, cfg.samples, seed_i).value
            values["capacity"] = (cap.value, cap.std_error, mimo)
        if "abep" in spec.outputs:
            values["abep"] = (abeps[i],)
        if "ber" in spec.outputs:
            rep = ber[i]
            stages = (rep.antenna_error_rate, rep.state_error_rate, rep.symbol_error_rate)
            values["ber"] = (rep.bit_error_rate, rep.bit_error_stderr, *stages)
        if "ee" in spec.outputs:
            # OAM-SM drives one chain; the array drives all M.
            values["ee"] = (
                energy_efficiency(cap.value, rho, cfg, 1),
                energy_efficiency(mimo, rho, cfg, cfg.tx_antennas),
            )
        for out in spec.outputs:
            row.update(zip(_OUTPUT_COLUMNS[out], values[out]))
    rows = [row for row, *_ in plan]
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
    ]
    if "abep" in spec.outputs:
        meta.append("abep_analysis = stepwise strongest-pair receiver, whatever detector is; ber_sim follows detector")
    if "ber" in spec.outputs:
        shared = (
            "one per variant: its SNR points share it and, under stepwise, each chunk's draw,"
            " so their ber cells are correlated; each cell keeps its own law and standard error"
        )
        meta.append(f"ber_seed = {shared if field is None else 'one per point'}")
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
                writer.writerows([row[c] for c in columns] for row in rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def preset(figure: str) -> SweepSpec:
    """Sweep specification reproducing one of the canned evaluation curves."""
    require("preset", figure, tuple(sorted(PRESETS)), ConfigError)
    return PRESETS[figure]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oamsm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", required=True, help="output CSV path")
        for f in _OVERRIDES:
            help_text, parse, choices = f.metadata["flag"], f.metadata["parse"], f.metadata["choices"]
            p.add_argument("--" + f.name.replace("_", "-"), type=parse, choices=choices, help=help_text)

    run_p = sub.add_parser("run", help="run one sweep from a config file")
    run_p.add_argument("--config", default=None, help="flat key=value config file")
    run_p.add_argument("--sweep", required=True, choices=tuple(_SWEEPS))
    run_p.add_argument("--from", dest="start", type=float, required=True)
    run_p.add_argument("--to", dest="stop", type=float, required=True)
    step_help = "grid step; antennas, states and constellation double from point to point and take only 1"
    run_p.add_argument("--step", type=float, default=1.0, help=step_help)
    run_p.add_argument("--outputs", default="capacity", help="comma list of outputs: capacity,abep,ber,ee")
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
        changes = {f.name: getattr(args, f.name) for f in _OVERRIDES if getattr(args, f.name) is not None}
        if args.command == "run":
            cfg = load_config(args.config) if args.config else SystemConfig()
            outputs = tuple(tok.strip() for tok in args.outputs.split(",") if tok.strip())
            spec = SweepSpec(args.sweep, args.start, args.stop, args.step, outputs)
        else:
            spec = preset(args.figure)
            cfg = SystemConfig()
        spec = dataclasses.replace(spec, overrides={**spec.overrides, **changes})
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
