"""The three benchmark workloads.

Each workload has ``setup`` (configs, tensors, one warm-up call per layer;
repeatable), ``run_round`` (the timed operations, identical inputs every
round) and ``check`` (every operation of a round against a computation made
apart from the program).  An operation is one checked call: one grid point,
one detection probability or one BER run.

The package is reached through module attributes (``metrics.dcmc_capacity``,
``cli.main``, ...) at call time, so a traced run sees the same calls.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from oamsm import channel, cli, metrics, modem
from oamsm.config import SystemConfig


@dataclass
class Op:
    """One checked operation of a round."""

    key: tuple
    seconds: float
    result: object
    extra: dict = field(default_factory=dict)
    known_fault: bool = False


def _seed(seed: int, *parts: int) -> int:
    value = int(seed) & 0xFFFFFFFF
    for p in parts:
        value = (value * 1_000_003 + (int(p) & 0xFFFFFFFF)) & (2**63 - 1)
    return value


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _ms_per(ops, unit_key: str, scale: float) -> float:
    work = sum(op.extra[unit_key] for op in ops)
    return scale * sum(op.seconds for op in ops) / work if work else 0.0


class CapacitySweep:
    """fig2's grid at M=4 and fig4's M=8 curve through ``dcmc_capacity`` and
    the logdet baseline, at a reduced draw count per point."""

    name = "capacity_sweep"
    GRID4 = tuple(-20.0 + 2.0 * i for i in range(31))
    GRID8 = tuple(-20.0 + 4.0 * i for i in range(16))
    DRAWS4 = 120
    DRAWS8 = 40
    # The benchmark's own MI estimate (draws per M) runs where the Gaussian
    # bound is within a few standard errors of the true value (<= -4 dB)
    # and at three mid-range points.  At those low-SNR points the per-draw
    # MI is skewed and the sample standard error of 40 or 120 draws runs
    # low (seed 1002: M=8, -20 dB read 0.2554 +- 0.0099 against a
    # 2000-draw 0.2209 +- 0.0020 and a bound of 0.2228), so the checks
    # there use the spread of the own estimate's draws instead.
    OWN_DRAWS = {4: 400, 8: 100}
    OWN_EXTRA = ((4, 0.0), (4, 10.0), (8, 0.0))

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self._ref_cache = {}

    def setup(self) -> None:
        self.cfg = {4: SystemConfig().resolved(), 8: SystemConfig(tx_antennas=8).resolved()}
        for cfg in self.cfg.values():
            tensor = channel.build_channel_tensor(cfg)
            rho = cfg.rho_for_snr_db(0.0)
            metrics.dcmc_capacity(tensor, rho, cfg.noise_power_w, 4, 0)
            metrics.mimo_capacity_baseline(cfg, rho, cfg.noise_power_w, mode="logdet")

    def run_round(self) -> list:
        ops = []
        for M, grid, draws in ((4, self.GRID4, self.DRAWS4), (8, self.GRID8, self.DRAWS8)):
            cfg = self.cfg[M]
            tensor = channel.build_channel_tensor(cfg)
            nv = cfg.noise_power_w
            for gi, snr_db in enumerate(grid):
                rho = cfg.rho_for_snr_db(snr_db)
                cap, dt = _timed(metrics.dcmc_capacity, tensor, rho, nv, draws, _seed(self.seed, M, gi))
                base = metrics.mimo_capacity_baseline(cfg, rho, nv, mode="logdet")
                ops.append(Op((M, snr_db), dt, cap, {"draws": draws, "baseline": base.value, "tensor": tensor}))
        return ops

    def timings(self, ops) -> dict:
        m4 = [op for op in ops if op.key[0] == 4]
        return {
            "capacity_ms_per_draw.low_snr": _ms_per([o for o in m4 if o.key[1] <= 10.0], "draws", 1e3),
            "capacity_ms_per_draw.high_snr": _ms_per([o for o in m4 if o.key[1] >= 20.0], "draws", 1e3),
            "capacity_ms_per_draw.m8": _ms_per([o for o in ops if o.key[0] == 8], "draws", 1e3),
            "capacity_s_to_0.01bit": sum(o.seconds * (o.result.std_error / 0.01) ** 2 for o in m4),
        }

    def check(self, ops, refs) -> list:
        """Returns one (op, problem or None) per op of one round."""
        cache = self._ref_cache
        problems = []
        ses = []
        for i, op in enumerate(ops):
            M, snr_db = op.key
            cfg = self.cfg[M]
            nv = cfg.noise_power_w
            rho = cfg.rho_for_snr_db(snr_db)
            cap = op.result
            if (M, snr_db) not in cache:
                frames = refs.clean_frames(op.extra["tensor"].entries, cfg.constellation_order, rho)
                bound = min(math.log2(frames.shape[0]), refs.gaussian_bound_bits(frames, nv))
                own = None  # (mean, its stderr, stderr at the program's draw count)
                if snr_db <= -4.0 or (M, snr_db) in self.OWN_EXTRA:
                    draws = self.OWN_DRAWS[M]
                    own = refs.mi_estimate(frames, nv, draws, _seed(self.seed, 0x5EF, M, int(snr_db)))
                    own = own + (own[1] * math.sqrt(draws / op.extra["draws"]),)
                cache[(M, snr_db)] = (bound, own, refs.mimo_logdet_bits(cfg, rho, nv))
            bound, own, logdet = cache[(M, snr_db)]
            se = max(cap.std_error, own[2]) if own else cap.std_error
            ses.append(se)
            problem = None
            if not (math.isfinite(cap.value) and cap.value >= 0.0 and cap.std_error >= 0.0):
                problem = f"estimate {cap.value!r} +- {cap.std_error!r}"
            elif cap.value > bound + 5.0 * se + 1e-9:
                problem = f"{cap.value:.6f} above the bound {bound:.6f} by > 5 se ({se:.6f})"
            elif abs(op.extra["baseline"] - logdet) > 1e-9 * max(1.0, abs(logdet)):
                problem = f"logdet baseline {op.extra['baseline']!r} != {logdet!r}"
            elif own and abs(cap.value - own[0]) > 5.0 * math.hypot(se, own[1]) + 1e-9:
                problem = f"{cap.value:.6f} +- {se:.6f} vs own MI {own[0]:.6f} +- {own[1]:.6f}"
            elif i and ops[i - 1].key[0] == M:
                prev = ops[i - 1].result.value
                if cap.value < prev - 3.0 * math.hypot(se, ses[i - 1]) - 1e-9:
                    problem = f"decreases from {prev:.6f} by > 3 se"
            problems.append((op, problem))
        return problems


REFERENCE = Path(__file__).resolve().parent / "fig8_reference.json"


class Fig8Sweep:
    """``oamsm preset fig8`` in-process through ``oamsm.cli.main``, checked
    against the stored scipy reference (``make_fig8_reference.py``)."""

    name = "fig8_sweep"
    GRID = tuple(-10.0 + 2.0 * i for i in range(21))
    TRIALS = 30000
    # 5 binomial standard errors: at 4, one of 21 points would stray in
    # about 0.13 % of runs, and a stray failure breaks the exact failed share
    # that two sets of runs must repeat.

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        warm = self.workdir / "warmup.csv"
        argv = ["run", "--sweep", "snr", "--from", "-10", "--to", "-10", "--outputs", "abep,ber",
                "--trials", "2000", "--out", str(warm)]
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up sweep failed")

    def run_round(self) -> list:
        out = self.workdir / "fig8.csv"
        code, dt = _timed(cli.main, ["preset", "fig8", "--out", str(out), "--seed", str(self.seed)])
        rows = []
        if code == 0:
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        # One operation per grid point; the sweep's time is shared evenly.
        return [
            Op(("snr", snr_db), dt / len(self.GRID), rows[i] if i < len(rows) else None,
               {"exit": code, "rows": len(rows)})
            for i, snr_db in enumerate(self.GRID)
        ]

    def timings(self, ops) -> dict:
        return {}

    def check(self, ops, refs) -> list:
        ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
        problems = []
        for i, op in enumerate(ops):
            row = op.result
            problem = None
            if op.extra["exit"] != 0 or op.extra["rows"] != len(self.GRID):
                problem = f"exit {op.extra['exit']}, {op.extra['rows']} rows"
            elif abs(float(row["snr_db"]) - ref["snr_db"][i]) > 1e-9:
                problem = f"row {i} is {row['snr_db']} dB"
            else:
                a_ref = ref["abep"][i]
                e_ref = 1.0 - ref["p_det_mean"][i]
                se = math.sqrt(e_ref * (1.0 - e_ref) / self.TRIALS)
                if abs(float(row["abep"]) - a_ref) > 1e-6:
                    problem = f"abep {row['abep']} vs reference {a_ref:.9f}"
                elif abs(float(row["antenna_err_rate"]) - e_ref) > 5.0 * se:
                    problem = f"antenna_err_rate {row['antenna_err_rate']} vs {e_ref:.5f} +- {se:.5f}"
            problems.append((op, problem))
        return problems


class HighSnrLink:
    """40-80 dB: detection probability, saturated capacity, ML detector."""

    name = "high_snr_link"
    DET_SNRS = (40.0, 50.0, 70.0, 80.0)
    DET_PAIRS = ((2, 1), (1, 4))
    # antenna_detection_prob returns ~0 at 70 and 80 dB: its single starting
    # GK15 panel on [0, g_hi] misses the ncx2 peak.
    KNOWN_FAULT_DB = 70.0
    CAP_SNRS = (40.0, 50.0, 60.0, 70.0, 80.0)
    CAP_DRAWS = 200
    ML_SNRS = (40.0, 60.0, 80.0)
    ML_TRIALS = 20000
    MC_DRAWS = 200_000
    MC_SEED = 20_161_214

    def __init__(self, seed: int, workdir):
        self.seed = seed
        self._ref_cache = {}

    def setup(self) -> None:
        self.cfg = SystemConfig().resolved()
        tensor = channel.build_channel_tensor(self.cfg)
        nv = self.cfg.noise_power_w
        metrics.antenna_detection_prob(tensor, 2, 1, 1.0 + 0.0j, self.cfg.rho_for_snr_db(0.0), nv)
        metrics.dcmc_capacity(tensor, self.cfg.rho_for_snr_db(40.0), nv, 4, 0)
        modem.simulate_ber(self.cfg, 40.0, 500, 0, "ml", tensor=tensor)

    def run_round(self) -> list:
        cfg = self.cfg
        nv = cfg.noise_power_w
        tensor = channel.build_channel_tensor(cfg)
        ops = []
        for snr_db in self.DET_SNRS:
            for m, l in self.DET_PAIRS:
                p, dt = _timed(metrics.antenna_detection_prob, tensor, m, l, 1.0 + 0.0j,
                               cfg.rho_for_snr_db(snr_db), nv)
                ops.append(Op(("det", snr_db, m, l), dt, p, {"tensor": tensor},
                              known_fault=snr_db >= self.KNOWN_FAULT_DB))
        for gi, snr_db in enumerate(self.CAP_SNRS):
            cap, dt = _timed(metrics.dcmc_capacity, tensor, cfg.rho_for_snr_db(snr_db), nv,
                             self.CAP_DRAWS, _seed(self.seed, 0xCA9, gi))
            ops.append(Op(("cap", snr_db), dt, cap, {"draws": self.CAP_DRAWS, "tensor": tensor}))
        for gi, snr_db in enumerate(self.ML_SNRS):
            rep, dt = _timed(modem.simulate_ber, cfg, snr_db, self.ML_TRIALS,
                             _seed(self.seed, 0xB1, gi), "ml", tensor=tensor)
            ops.append(Op(("ml", snr_db), dt, rep, {"trials": self.ML_TRIALS, "tensor": tensor}))
        return ops

    def timings(self, ops) -> dict:
        det = [op for op in ops if op.key[0] == "det"]
        return {
            "capacity_ms_per_draw.high_snr": _ms_per([o for o in ops if o.key[0] == "cap"], "draws", 1e3),
            "detection_s_per_call": statistics.fmean(o.seconds for o in det),
            "ml_us_per_trial": _ms_per([o for o in ops if o.key[0] == "ml"], "trials", 1e6),
        }

    def _references(self, op, refs):
        cfg = self.cfg
        entries = op.extra["tensor"].entries
        kind, snr_db = op.key[:2]
        if kind == "det":
            m, l = op.key[2:]
            lam = refs.noncentralities(entries, m, op.extra["tensor"].state_index(l), 10.0 ** (snr_db / 10.0))
            p_mc, se = refs.detection_prob_mc(lam, m, self.MC_DRAWS, _seed(self.MC_SEED, m, l, int(snr_db)))
            return p_mc, se, refs.detection_prob_scipy(lam, m)
        frames = refs.clean_frames(entries, cfg.constellation_order, cfg.rho_for_snr_db(snr_db))
        nv = cfg.noise_power_w
        if kind == "cap":
            return refs.min_distance(frames) / math.sqrt(nv), refs.gaussian_bound_bits(frames, nv)
        return (refs.ml_union_bound(frames, nv),)

    def check(self, ops, refs) -> list:
        cache = self._ref_cache
        problems = []
        for op in ops:
            if op.key not in cache:
                cache[op.key] = self._references(op, refs)
            ref = cache[op.key]
            kind = op.key[0]
            problem = None
            if kind == "det":
                p_mc, se, p_sp = ref
                if abs(p_mc - p_sp) > 5.0 * se:
                    raise RuntimeError(f"references disagree at {op.key}: MC {p_mc} vs scipy {p_sp}")
                if abs(op.result - p_mc) > 5.0 * se or abs(op.result - p_sp) > 5.0 * se:
                    problem = f"P_det {op.result:.6g} vs MC {p_mc:.4f} +- {se:.4f}, scipy {p_sp:.4f}"
            elif kind == "cap":
                d_sigmas, bound = ref
                cap = op.result
                top = math.log2(self.cfg.tx_antennas * self.cfg.n_states * self.cfg.constellation_order)
                if d_sigmas > 12.0:
                    if abs(cap.value - top) > 1e-9:
                        problem = f"{cap.value!r} != log2(MLP) = {top} at d_min = {d_sigmas:.1f} sigma"
                elif not (0.0 <= cap.value <= min(top, bound) + 3.0 * cap.std_error + 1e-9):
                    problem = f"{cap.value!r} outside [0, {min(top, bound):.6f}]"
            else:
                (union,) = ref
                rep = op.result
                if union * rep.trials < 1e-3:
                    if rep.bit_error_rate != 0.0 or rep.symbol_error_rate != 0.0:
                        problem = f"BER {rep.bit_error_rate!r} with union bound {union:.3g}"
                elif rep.symbol_error_rate > union + 5.0 * math.sqrt(union / rep.trials):
                    problem = f"SER {rep.symbol_error_rate!r} above union bound {union:.3g}"
            problems.append((op, problem))
        return problems


WORKLOADS = {w.name: w for w in (CapacitySweep, Fig8Sweep, HighSnrLink)}
