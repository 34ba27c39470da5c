"""Quick self-tests of the benchmark's own code.  No workload runs here."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
import tracing  # noqa: E402
from oamsm import metrics, numerics  # noqa: E402
from oamsm.channel import build_channel_tensor  # noqa: E402
from oamsm.config import SystemConfig  # noqa: E402


def test_tracer_nests_spans_counts_nodes_and_restores_bindings():
    cfg = SystemConfig().resolved()
    tensor = build_channel_tensor(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics.antenna_detection_prob(tensor, 2, 1, 1.0 + 0.0j, cfg.rho_for_snr_db(0.0), cfg.noise_power_w)
    finally:
        tracer.uninstall()
    assert metrics.integrate is numerics.integrate
    assert metrics.marcum_q1 is numerics.marcum_q1
    totals = tracer.layer_totals()
    assert totals["metrics.antenna_detection_prob"]["calls"] == 1
    assert totals["numerics.integrate"]["calls"] == 1
    nodes = tracer.counts["numerics.integrate.nodes"]
    assert nodes > 0 and nodes % 15 == 0
    # The integrand evaluates one ncx2 density and M - 1 = 3 Marcum Q's per node.
    assert tracer.counts["numerics.ncx2_pdf.points"] == nodes
    assert tracer.counts["numerics.marcum_q1.points"] == 3 * nodes
    integrate_span = tracer.names.index("numerics.integrate")
    detection_span = tracer.names.index("metrics.antenna_detection_prob")
    first = list(tracer.name_id).index(integrate_span)
    assert tracer.name_id[tracer.parent[first]] == detection_span
    for row in totals.values():
        assert 0.0 <= row["self_s"] <= row["s"] + 1e-12


def test_scipy_detection_reference_is_one_over_m_for_equal_pairs():
    lam = np.full(4, 2.0)
    assert abs(refs.detection_prob_scipy(lam, 2) - 0.25) < 1e-8
    p, se = refs.detection_prob_mc(lam, 2, 20000, 1)
    assert abs(p - 0.25) < 5.0 * se


def test_gaussian_bound_holds_over_own_mi_estimate():
    cfg = SystemConfig().resolved()
    entries = build_channel_tensor(cfg).entries
    frames = refs.clean_frames(entries, cfg.constellation_order, cfg.rho_for_snr_db(-10.0))
    bound = refs.gaussian_bound_bits(frames, cfg.noise_power_w)
    mi, se = refs.mi_estimate(frames, cfg.noise_power_w, 50, 1)
    assert 0.0 < mi <= bound + 3.0 * se


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench / f.name)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "capacity_sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
