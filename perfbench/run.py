"""Benchmark of the oamsm package: three workloads, checked outputs, and an
outside-in traced run for per-layer numbers.

    python3 perfbench/run.py [--workload capacity_sweep|fig8_sweep|high_snr_link|all]
                             [--seed N] [--seconds S] [--trace 0|1]

A named workload runs in this process; ``all`` (the default) runs each in
its own child process, one after the other.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run first times one untraced round, then installs the
tracer and reports the per-layer metrics and ``trace.overhead_s``.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

# One workload process at a time on a 2-core machine: pin every thread pool
# before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("capacity_sweep", "fig8_sweep", "high_snr_link")
SETUP_REPEATS = 5

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

# Timings the workloads take around their own direct calls, reported per round.
DIRECT = (
    ("capacity_ms_per_draw.low_snr", "ms"),
    ("capacity_ms_per_draw.high_snr", "ms"),
    ("capacity_ms_per_draw.m8", "ms"),
    ("capacity_s_to_0.01bit", "s"),
    ("detection_s_per_call", "s"),
    ("ml_us_per_trial", "us"),
)

# Per-layer metrics from the trace: (metric, span or counter, field, unit).
TRACED = (
    ("metrics.dcmc_capacity.calls", "metrics.dcmc_capacity", "calls", "count"),
    ("metrics.dcmc_capacity.draws", "metrics.dcmc_capacity.draws", "count", "count"),
    ("metrics.dcmc_capacity.s", "metrics.dcmc_capacity", "s", "s"),
    ("metrics.mimo_capacity_baseline.calls", "metrics.mimo_capacity_baseline", "calls", "count"),
    ("metrics.mimo_capacity_baseline.s", "metrics.mimo_capacity_baseline", "s", "s"),
    ("metrics.abep.calls", "metrics.abep", "calls", "count"),
    ("metrics.abep.s", "metrics.abep", "s", "s"),
    ("metrics.abep.self_s", "metrics.abep", "self_s", "s"),
    ("metrics.antenna_detection_prob.calls", "metrics.antenna_detection_prob", "calls", "count"),
    ("metrics.antenna_detection_prob.s", "metrics.antenna_detection_prob", "s", "s"),
    ("metrics.antenna_detection_prob.self_s", "metrics.antenna_detection_prob", "self_s", "s"),
    ("numerics.integrate.calls", "numerics.integrate", "calls", "count"),
    ("numerics.integrate.nodes", "numerics.integrate.nodes", "count", "count"),
    ("numerics.integrate.s", "numerics.integrate", "s", "s"),
    ("numerics.integrate.self_s", "numerics.integrate", "self_s", "s"),
    ("numerics.marcum_q1.calls", "numerics.marcum_q1", "calls", "count"),
    ("numerics.marcum_q1.points", "numerics.marcum_q1.points", "count", "count"),
    ("numerics.marcum_q1.s", "numerics.marcum_q1", "s", "s"),
    ("numerics.ncx2_pdf.calls", "numerics.ncx2_pdf", "calls", "count"),
    ("numerics.ncx2_pdf.points", "numerics.ncx2_pdf.points", "count", "count"),
    ("numerics.ncx2_pdf.s", "numerics.ncx2_pdf", "s", "s"),
    ("metrics.mod_bep.calls", "metrics.mod_bep", "calls", "count"),
    ("metrics.mod_bep.s", "metrics.mod_bep", "s", "s"),
    ("modem.simulate_ber.stepwise.trials", "modem.simulate_ber.stepwise.trials", "count", "count"),
    ("modem.simulate_ber.ml.trials", "modem.simulate_ber.ml.trials", "count", "count"),
    ("channel.build_channel_tensor.calls", "channel.build_channel_tensor", "calls", "count"),
    ("channel.build_channel_tensor.s", "channel.build_channel_tensor", "s", "s"),
    ("cli.run_sweep.s", "cli.run_sweep", "s", "s"),
    ("cli.run_sweep.self_s", "cli.run_sweep", "self_s", "s"),
)

# Ratios of two traced metrics: (metric, numerator, denominator, scale, unit).
RATIOS = (
    ("metrics.dcmc_capacity.ms_per_draw", "metrics.dcmc_capacity.s", "metrics.dcmc_capacity.draws", 1e3, "ms"),
    ("numerics.marcum_q1.us_per_point", "numerics.marcum_q1.s", "numerics.marcum_q1.points", 1e6, "us"),
    ("modem.simulate_ber.stepwise.us_per_trial", "modem.simulate_ber.stepwise.s",
     "modem.simulate_ber.stepwise.trials", 1e6, "us"),
    ("modem.simulate_ber.ml.us_per_trial", "modem.simulate_ber.ml.s", "modem.simulate_ber.ml.trials", 1e6, "us"),
)

PER_LAYER_UNITS = dict(
    [(m, u) for m, u in DIRECT]
    + [(m, u) for m, _, _, u in TRACED]
    + [(m, u) for m, _, _, _, u in RATIOS]
    + [("trace.overhead_s", "s")]
)


def _fail(message: str, code: int) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(code)


def _import_program() -> None:
    """Import oamsm from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import oamsm
    import oamsm.cli  # noqa: F401

    if Path(oamsm.__file__).resolve().parent != (SRC / "oamsm").resolve():
        _fail(f"imported oamsm from {oamsm.__file__}, not from {SRC}", 2)


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "git_sha": _git_sha(),
    }


def _per_round(total, rounds: int):
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def _per_layer(tracer, n_rounds: int, direct: dict, overhead: float) -> dict:
    totals = tracer.layer_totals()
    values = dict(direct)
    for metric, source, fld, _ in TRACED:
        total = tracer.counts.get(source, 0) if fld == "count" else totals.get(source, {}).get(fld, 0)
        values[metric] = _per_round(total, n_rounds)
    for detector in ("stepwise", "ml"):
        values[f"modem.simulate_ber.{detector}.s"] = (
            totals.get(f"modem.simulate_ber.{detector}", {}).get("s", 0.0) / n_rounds
        )
    for metric, num, den, scale, _ in RATIOS:
        values[metric] = scale * values[num] / values[den] if values[den] else 0.0
    values["trace.overhead_s"] = overhead
    return {m: {"value": values[m], "unit": u} for m, u in PER_LAYER_UNITS.items()}


def setup_only(name: str, seed: int) -> int:
    """One set-up from a fresh process: import, configs, tensors and one
    warm-up call per layer.  Prints raw and speed-scaled seconds."""
    t0 = time.perf_counter()
    _import_program()
    import workloads  # noqa: E402

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-setup-", dir=OUT) as tmp:
        workloads.WORKLOADS[name](seed, Path(tmp)).setup()
    raw = time.perf_counter() - t0
    import speed  # noqa: E402

    print(json.dumps({"raw_s": raw, "setup_s": speed.at_reference(raw)}))
    return 0


def measure_setup(name: str, seed: int) -> list:
    """``SETUP_REPEATS`` set-ups, each in its own process, one at a time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--setup-only"]
    runs = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            _fail(f"set-up of {name} exited with {proc.returncode}", 1)
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return runs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    setup_runs = [] if trace else measure_setup(name, seed)
    _import_program()
    import speed  # noqa: E402
    import workloads  # noqa: E402

    OUT.mkdir(exist_ok=True)
    probe = speed.SpeedProbe()
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT) as tmp:
        wl = workloads.WORKLOADS[name](seed, Path(tmp))
        wl.setup()

        def one_round(traced: bool) -> dict:
            mark = probe.mark()
            ops = wl.run_round()
            raw, scaled = probe.measure(mark)
            return {"raw_s": raw, "wall_s": scaled, "ops": ops, "traced": traced}

        with probe:
            # A traced run times one untraced round first, for the overhead.
            rounds = [one_round(False)] if trace else []
            tracer = None
            if trace:
                from tracing import Tracer

                tracer = Tracer()
                tracer.install()
            try:
                t_start = time.perf_counter()
                measured = []
                while True:
                    measured.append(one_round(trace))
                    typical = statistics.median(r["raw_s"] for r in measured)
                    if time.perf_counter() - t_start + typical > seconds:
                        break
            finally:
                if tracer is not None:
                    tracer.uninstall()
        rounds += measured
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import refs  # scipy is loaded only now, after the peak memory is read

    attempted = failed = 0
    unexpected = []
    for r in rounds:
        for op, problem in wl.check(r["ops"], refs):
            attempted += 1
            if problem is not None:
                failed += 1
                if not op.known_fault:
                    unexpected.append(f"{op.key}: {problem}")
                print(f"{name} FAILED {op.key}: {problem}", file=sys.stderr)

    raw_walls = [r["raw_s"] for r in measured]
    direct_rounds = [wl.timings(r["ops"]) for r in measured]
    direct = {m: statistics.median(d.get(m, 0.0) for d in direct_rounds) for m, _ in DIRECT}
    if trace:
        overhead = statistics.median(r["wall_s"] for r in measured) - rounds[0]["wall_s"]
        metrics = _per_layer(tracer, len(measured), direct, overhead)
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
            "wall_s": statistics.median(r["wall_s"] for r in measured),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}

    env = _environment()
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(
        result, workload=name, seed=seed, seconds=seconds, trace=int(trace), env=env,
        rounds=[{k: r[k] for k in ("raw_s", "wall_s", "traced")} for r in rounds],
        setup_runs=setup_runs, speed_firings=probe.firings, direct=direct, unexpected=unexpected,
    )
    stem = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))

    print(f"{name}: {len(measured)} round(s), seed {seed}, trace {int(trace)}, env {json.dumps(env)}")
    print(f"  raw round seconds: {', '.join(f'{w:.4g}' for w in raw_walls)}")
    if not trace:
        raw_setups = ", ".join(f"{r['raw_s']:.4g}" for r in setup_runs)
        print(f"  raw set-up seconds: {raw_setups}")
        for m, u in DIRECT:
            if direct[m]:
                print(f"  {m} = {direct[m]:.6g} {u}")
    for m, v in metrics.items():
        print(f"  {m} = {v['value']:.6g} {v['unit']}")
    print(f"  attempted {attempted}, failed {failed}" + (f", unexpected: {unexpected}" if unexpected else ""))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one at a time."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {proc.returncode}", 1)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            combined["metrics"][f"{name}.{m}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "oamsm" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'oamsm'} is missing", 2)
    if args.workload == "all":
        if args.setup_only:
            parser.error("--setup-only needs one workload")
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
