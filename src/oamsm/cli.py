"""Experiment runner: parameter sweeps to CSV with self-describing metadata.

Two entry points:

* ``oamsm run`` sweeps one variable (snr, distance, antennas, states,
  constellation) over a grid and writes one CSV row per grid point.
* ``oamsm preset figN`` runs a canned sweep specification (fig2..fig11)
  reproducing the standard evaluation curves for this system family.

A sweep is planned whole, so a point it cannot run stops it before any
file is opened or any output runs; then each group of points is computed
and its rows written as it finishes.  Every CSV starts with ``#`` lines
echoing the resolved configuration and the provenance of each default; a
``<out>.meta`` sidecar repeats them with the command line and a timestamp.
Given the same seed, the CSV body is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import functools
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


class _Group:
    """The planned points of one config object of one variant, in grid order:
    each point's SNR, power, seed and row.  They share the config's tensor
    and one call of each output."""

    def __init__(self, cfg: SystemConfig, tensor):
        self.cfg, self.tensor = cfg, tensor
        self.snr_db, self.rho, self.seed, self.rows = [], [], [], []

    @functools.cached_property
    def capacities(self) -> list:
        """Each point's (OAM-SM capacity, its standard error, baseline
        capacity), drawn from the point's own seed; ``ee`` reads these too."""
        cfg, points = self.cfg, list(zip(self.rho, self.seed))
        caps = [dcmc_capacity(self.tensor, r, cfg.noise_power_w, cfg.samples, s) for r, s in points]
        mimo = [mimo_capacity_baseline(cfg, r, cfg.noise_power_w, cfg.mimo_mode, cfg.samples, s) for r, s in points]
        return [(cap.value, cap.std_error, m.value) for cap, m in zip(caps, mimo)]


def _ber(g: _Group) -> list:
    reps = simulate_ber(g.cfg, g.snr_db, g.cfg.trials, g.seed[0], g.cfg.detector, tensor=g.tensor)
    rates = ("bit_error_rate", "bit_error_stderr", "antenna_error_rate", "state_error_rate", "symbol_error_rate")
    return [tuple(getattr(rep, rate) for rate in rates) for rep in reps]


def _ee(g: _Group) -> list:
    # OAM-SM drives one chain; the array drives all M.
    return [
        (energy_efficiency(cap, rho, g.cfg, 1), energy_efficiency(mimo, rho, g.cfg, g.cfg.tx_antennas))
        for (cap, _, mimo), rho in zip(g.capacities, g.rho)
    ]


# Output: (its CSV columns, group -> one tuple of values per point); the one
# place that names them, in the order they are written.  The evaluators read
# the output functions as module globals when they run, not when this is built.
_OUTPUTS = {
    "capacity": (("capacity_oam_bits", "capacity_oam_stderr", "capacity_mimo_bits"), lambda g: g.capacities),
    "abep": (("abep",), lambda g: [(p,) for p in abep(g.cfg, g.rho, tensor=g.tensor)]),
    "ber": (("ber_sim", "ber_sim_stderr", "antenna_err_rate", "state_err_rate", "symbol_err_rate"), _ber),
    "ee": (("ee_oam_bits_per_joule", "ee_mimo_bits_per_joule"), _ee),
}


def run_sweep(config: SystemConfig, spec: SweepSpec, out_path: str, command: str = "") -> list:
    """Execute a sweep and write the CSV plus its ``.meta`` sidecar.

    The plan groups the points by config object of a variant: a variant is
    one group in an SNR sweep, and every other sweep makes a group per
    point.  Point by point it checks the power, then the group's tensor,
    then, for capacity and ee outputs, the baseline, so a sweep raises
    every ConfigError before any file is opened or any output runs.  The
    base gain is materialized once, so distance grids see genuine
    attenuation, not a re-normalized channel; the headers show the gain as
    configured, its value on the ``resolved_gain`` line.

    Then the ``.meta`` is written, and the CSV's ``#`` lines and column row;
    each group's rows follow as soon as its outputs are done.  A failed run
    so leaves this run's ``.meta`` and every finished group's rows: a
    failure inside a variant's grid ``abep`` loses that variant's rows, not
    an earlier variant's.

    Each ``_OUTPUTS`` evaluator makes one call per group.  Capacity draws
    from point (variant, grid index)'s own seed, BER from its group's first
    point's, so in an SNR sweep a variant's BER cells are correlated, each
    keeping its own law and standard error.  ``abep`` is the stepwise
    analysis whatever ``detector`` is.  The ``.meta`` says both.  Returns
    the rows as dictionaries, in CSV order.
    """
    require("sweep kind", spec.sweep, tuple(_SWEEPS), ConfigError)
    for out in spec.outputs:
        require("output", out, tuple(_OUTPUTS), ConfigError)
    base = dataclasses.replace(config, **spec.overrides)
    pinned = dataclasses.replace(base, gain=base.gain_value)
    grid = _grid_values(spec.sweep, spec.start, spec.stop, spec.step)
    swept, field, parse = _SWEEPS[spec.sweep]
    outputs = [entry for out, entry in _OUTPUTS.items() if out in spec.outputs]
    columns = [swept] + ["variant"] * bool(spec.variants) + ["rho_w"] + [c for cols, _ in outputs for c in cols]
    groups = []
    for vi, (label, changes) in enumerate(spec.variants or (("", {}),)):
        variant_cfg = dataclasses.replace(pinned, **changes) if changes else pinned
        for gi, value in enumerate(grid):
            cfg = dataclasses.replace(variant_cfg, **{field: parse(value)}) if field else variant_cfg
            snr_db = cfg.snr_db if field else parse(value)
            rho = cfg.rho_for_snr_db(snr_db)
            # A new variant or a new config object starts a group.  Every
            # output reads the tensor, which is kept on the config.
            if gi == 0 or group.cfg is not cfg:
                groups.append(group := _Group(cfg, build_channel_tensor(cfg) if spec.outputs else None))
                if "capacity" in spec.outputs or "ee" in spec.outputs:
                    _check_baseline(cfg, cfg.mimo_mode)
            group.snr_db.append(snr_db)
            group.rho.append(rho)
            group.seed.append(int(_substream(cfg.seed, vi, gi).generate_state(1, "uint64")[0]))
            group.rows.append(dict(zip(columns, (value, label, rho) if spec.variants else (value, rho))))
    config_lines = _config_lines(base)
    meta = [
        f"code_version = {__version__}",
        f"command = {command}",
        f"timestamp = {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
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
    meta += [f"variants = {', '.join(label for label, _ in spec.variants)}"] * bool(spec.variants)
    with _writing(out_path + ".meta") as fh:
        fh.writelines(line + "\n" for line in meta + config_lines)
    head = [f"oamsm {__version__} sweep={spec.sweep} outputs={','.join(spec.outputs)}"]
    with _writing(out_path) as fh:
        fh.writelines(f"# {line}\n" for line in head + config_lines)
        writer = csv.writer(fh)
        writer.writerow(columns)
        for group in groups:
            for cols, evaluate in outputs:
                for row, values in zip(group.rows, evaluate(group)):
                    row.update(zip(cols, values))
            writer.writerows([row[c] for c in columns] for row in group.rows)
            fh.flush()
    return [row for group in groups for row in group.rows]


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


@contextlib.contextmanager
def _writing(path: str):
    """``path`` opened for writing; an OSError opening or writing it is a
    ConfigError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
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
