"""Regenerate the stored scipy reference for the ``fig8_sweep`` workload.

    python3 perfbench/make_fig8_reference.py

For each SNR of ``oamsm preset fig8`` (-10 to 30 dB in steps of 2, default
config) it computes the mean antenna-detection probability over all (m, l)
by scipy ncx2 quadrature and the ABEP composed with the erfc constellation
stage (see ``refs.abep_reference``), and writes them to
``perfbench/fig8_reference.json``.  It covers 21 points x 32 integrals and
takes a few minutes.  Only the channel tensor is taken from oamsm.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scipy  # noqa: E402

import refs  # noqa: E402
from oamsm.channel import build_channel_tensor  # noqa: E402
from oamsm.config import SystemConfig  # noqa: E402

GRID_DB = [-10.0 + 2.0 * i for i in range(21)]
OUT = HERE / "fig8_reference.json"


def main() -> int:
    cfg = SystemConfig()
    entries = build_channel_tensor(cfg.resolved()).entries
    abep, p_det = [], []
    for snr_db in GRID_DB:
        a, p = refs.abep_reference(entries, cfg.constellation_order, snr_db)
        abep.append(a)
        p_det.append(p)
        print(f"{snr_db:6.1f} dB  abep {a:.12f}  mean P_det {p:.12f}", flush=True)
    doc = {
        "what": "oamsm preset fig8 at the default config: ABEP and mean antenna-detection "
        "probability by scipy ncx2 quadrature in r = sqrt(g) and an erfc constellation stage",
        "scipy": scipy.__version__,
        "snr_db": GRID_DB,
        "abep": abep,
        "p_det_mean": p_det,
    }
    OUT.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
