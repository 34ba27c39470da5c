"""Configuration loading, validation, and the sweep runner."""

import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oamsm.cli
from oamsm import (
    PROVENANCE,
    BeamParams,
    ConfigError,
    SystemConfig,
    load_config,
    mimo_capacity_baseline,
    mod_bep,
    psk_constellation,
    simulate_ber,
    waist_for_state,
)
from oamsm.beam import _COEFF_MODES
from oamsm.cli import PRESETS, SweepSpec, main, preset, run_sweep
from oamsm.config import _KEYS, SPEED_OF_LIGHT, default_states
from oamsm.metrics import _DISTANCE_MODES
from oamsm.numerics import _substream


class TestSystemConfig:
    def test_defaults(self):
        cfg = SystemConfig()
        assert cfg.carrier_freq_hz == 60e9
        assert cfg.bandwidth_hz == 20e6
        assert cfg.tx_antennas == 4
        assert cfg.oam_states == (-4, -3, -2, -1, 1, 2, 3, 4)
        assert cfg.constellation_order == 4
        assert cfg.distance_m == 50.0
        assert cfg.element_spacing_m == pytest.approx(20 * SPEED_OF_LIGHT / 60e9, rel=1e-12)

    def test_every_field_has_provenance(self):
        # The CSV header tags each field from PROVENANCE; a new field must
        # say where its default comes from.
        assert set(PROVENANCE) == {f.name for f in dataclasses.fields(SystemConfig)}

    def test_noise_power(self):
        cfg = SystemConfig()
        # -174 dBm/Hz over 20 MHz, converted to watts.
        assert cfg.noise_power_w == pytest.approx(10 ** (-17.4) * 1e-3 * 20e6, rel=1e-12)

    def test_beta_defaults_to_half_limit(self):
        cfg = SystemConfig()
        assert cfg.beta_value == pytest.approx(math.pi / 8, rel=1e-15)
        small = dataclasses.replace(cfg, oam_states=(-1, 1))
        assert small.beta_value == pytest.approx(math.pi / 2, rel=1e-15)

    def test_auto_gain_normalizes_ring_response(self):
        from oamsm import build_channel_tensor

        cfg = SystemConfig()
        tensor = build_channel_tensor(cfg)
        assert abs(tensor.response(1, 1, 1, 1)) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_wide_beta(self):
        with pytest.raises(ConfigError):
            SystemConfig(beta_rad=math.pi / 2)  # limit is pi/4 for |l|max = 4

    def test_rejects_beta_at_limit(self):
        with pytest.raises(ConfigError):
            SystemConfig(beta_rad=math.pi / 4)

    def test_accepts_beta_inside_limit(self):
        assert SystemConfig(beta_rad=math.pi / 4 - 1e-9).beta_value < math.pi / 4

    @pytest.mark.parametrize(
        "field, value",
        [
            ("element_spacing", 0.0),
            ("element_spacing", math.nan),
            ("element_spacing", math.inf),
            ("element_spacing", "nanlambda"),
            ("distance_m", -1.0),
            ("circuit_power_w", math.nan),
            ("circuit_power_w", math.inf),
            ("power_slope", math.nan),
            ("power_slope", math.inf),
            ("power_slope", 0.0),
            ("detector", "walrus"),
            ("noise_psd_dbm_hz", math.nan),
            ("noise_psd_dbm_hz", -math.inf),
            ("noise_psd_dbm_hz", -4000.0),
            ("noise_psd_dbm_hz", 4000.0),
            ("snr_db", math.nan),
            ("snr_db", math.inf),
            ("snr_db", 4000.0),
            ("distance_m", "5"),
            ("gain", -1.0),
            ("gain", "walrus"),
            ("seed", 1.5),
            ("seed", -1),
            ("samples", 2.5),
            ("trials", 0),
            ("ref_state", 0),
            ("oam_states", (1.5, -1)),
            # A bool is not an integer: True used to pass as 1.
            ("tx_antennas", True),
            ("trials", True),
            ("oam_states", (True, -1)),
        ],
    )
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ConfigError):
            SystemConfig(**{field: value})

    def test_replace_recomputes_cached_geometry(self):
        # The geometry is cached per instance; ``replace`` builds a new
        # instance, so no cached value outlives a change of distance or
        # carrier.
        base = SystemConfig()
        names = ("ring_radius_m", "gain_value", "element_spacing_m")
        for field, value, moved in (("distance_m", 80.0, names[:2]), ("carrier_freq_hz", 30e9, names)):
            varied = dataclasses.replace(base, **{field: value})
            fresh = SystemConfig(**{field: value})
            for name in names:
                assert getattr(varied, name) == getattr(fresh, name)
                assert (getattr(varied, name) != getattr(base, name)) == (name in moved)

    @pytest.mark.parametrize(
        "field, run",
        [
            ("coeff_mode", lambda mode: waist_for_state(BeamParams(0.04, 1, 0.005), 2, 50.0, mode)),
            ("distance_mode", lambda mode: mod_bep(1.0, 1.0, 1.0, psk_constellation(4), mode)),
            ("detector", lambda mode: simulate_ber(SystemConfig(), 0.0, 10, 1, mode)),
            ("mimo_mode", lambda mode: mimo_capacity_baseline(SystemConfig(), 1.0, 1.0, mode)),
        ],
    )
    def test_mode_is_checked_against_its_field_choices(self, field, run):
        # The function a mode selects and its config field, where it has one,
        # share one tuple.  The printed-formula variants are no config field.
        choices = {"coeff_mode": _COEFF_MODES, "distance_mode": _DISTANCE_MODES}
        choices |= {f.name: f.metadata["choices"] for f in dataclasses.fields(SystemConfig) if f.metadata["choices"]}
        message = f"{field} must be {'|'.join(choices[field])}, got 'walrus'"
        rejects = (run, lambda mode: SystemConfig(**{field: mode})) if field in PROVENANCE else (run,)
        for reject in rejects:
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                reject("walrus")

    def test_rho_rejects_overflowing_snr(self):
        # 10 ** (snr / 10) leaves the float range near 3083 dB.
        assert math.isfinite(SystemConfig().rho_for_snr_db(3000.0))
        with pytest.raises(ValueError, match="finite"):
            SystemConfig().rho_for_snr_db(4000.0)

    def test_rejects_state_zero(self):
        with pytest.raises(ConfigError):
            SystemConfig(oam_states=(0, 1, -1, 2))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigError):
            SystemConfig(tx_antennas=3)
        with pytest.raises(ConfigError):
            SystemConfig(constellation_order=5)
        with pytest.raises(ConfigError):
            SystemConfig(oam_states=(-1, 1, 2))

    def test_constellation_is_built_once_per_order(self):
        assert SystemConfig().constellation() is SystemConfig(seed=3).constellation()
        assert SystemConfig(constellation_order=8).constellation().order == 8

    def test_states_canonical_order(self):
        cfg = SystemConfig(oam_states=(4, -4, 1, -1, 3, -3, 2, -2))
        assert cfg.oam_states == (-4, -3, -2, -1, 1, 2, 3, 4)

    def test_states_accept_numpy_integers(self):
        cfg = SystemConfig(oam_states=tuple(np.array([2, -1, 1, -2])))
        assert cfg.oam_states == (-2, -1, 1, 2)
        assert all(type(l) is int for l in cfg.oam_states)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            # Used to be truncated to (-1, 1) without a word.
            ("oam_states", (1.5, -1), "OAM state 1.5 is not an integer"),
            # Used to be accepted; the tensor build then raised
            # "TypeError: must be real number, not str".
            ("distance_m", "5", "distance_m must be finite and > 0, got '5'"),
        ],
    )
    def test_error_names_the_bad_value(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            SystemConfig(**{field: value})

    def test_resolved_pins_gain(self):
        cfg = SystemConfig().resolved()
        assert isinstance(cfg.gain, float)
        moved = dataclasses.replace(cfg, distance_m=100.0)
        assert moved.gain_value == cfg.gain_value  # frozen, not re-normalized

    def test_default_states_helper(self):
        assert default_states(4) == (-2, -1, 1, 2)
        with pytest.raises(ConfigError):
            default_states(3)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == SystemConfig()

    def test_full_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            """
            # experiment setup
            carrier_freq = 60e9
            antennas = 2
            oam_states = -2,-1,1,2
            constellation = 2
            distance = 25.0
            xi = 20lambda
            waist = 0.03
            snr = 12.5
            detector = ml
            seed = 99
            """
        )
        cfg = load_config(path)
        assert cfg.tx_antennas == 2
        assert cfg.oam_states == (-2, -1, 1, 2)
        assert cfg.distance_m == 25.0
        assert cfg.detector == "ml"
        assert cfg.seed == 99

    def test_lambda_shorthand(self, tmp_path):
        path = tmp_path / "xi.cfg"
        path.write_text("xi = 20lambda\n")
        cfg = load_config(path)
        assert cfg.element_spacing_m == pytest.approx(20 * SPEED_OF_LIGHT / 60e9, rel=1e-12)

    def test_explicit_spacing_meters(self, tmp_path):
        path = tmp_path / "xi.cfg"
        path.write_text("xi = 0.25\n")
        assert load_config(path).element_spacing_m == 0.25

    def test_unknown_key_named(self, tmp_path):
        # coeff_mode and distance_mode were keys while the printed-formula
        # variants were config fields.
        path = tmp_path / "bad.cfg"
        for key, value in (("antennae", "4"), ("coeff_mode", "printed"), ("distance_mode", "euclidean")):
            path.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=f"unknown config key: {key}$"):
                load_config(path)

    def test_constraint_violation_rejected(self, tmp_path):
        path = tmp_path / "beta.cfg"
        path.write_text(f"beta = {math.pi / 2}\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_keys_name_every_field_once(self):
        fields = [field for field, _ in _KEYS.values()]
        assert len(fields) == len(set(fields))
        assert set(fields) == {f.name for f in dataclasses.fields(SystemConfig)}

    def test_every_key_loads_value_and_type(self, tmp_path):
        text = {
            "carrier_freq": "28e9",
            "bandwidth": "1e8",
            "noise_psd": "-170",
            "antennas": "2",
            "oam_states": "-2, -1 1 2",
            "constellation": "8",
            "distance": "30",
            "xi": "0.2",
            "beta": "0.5",
            "waist": "0.05",
            "ref_state": "2",
            "gain": "1000",
            "circuit_power": "5",
            "power_slope": "3",
            "snr": "15",
            "detector": "ml",
            "mimo_mode": "dcmc_psk",
            "seed": "7",
            "trials": "300",
            "samples": "400",
        }
        assert set(text) == set(_KEYS)
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        cfg = load_config(path)
        expected = {
            "carrier_freq_hz": 28e9,
            "bandwidth_hz": 1e8,
            "noise_psd_dbm_hz": -170.0,
            "tx_antennas": 2,
            "oam_states": (-2, -1, 1, 2),
            "constellation_order": 8,
            "distance_m": 30.0,
            "element_spacing": 0.2,
            "beta_rad": 0.5,
            "waist_m": 0.05,
            "ref_state": 2,
            "gain": 1000.0,
            "circuit_power_w": 5.0,
            "power_slope": 3.0,
            "snr_db": 15.0,
            "detector": "ml",
            "mimo_mode": "dcmc_psk",
            "seed": 7,
            "trials": 300,
            "samples": 400,
        }
        assert set(expected) == {f.name for f in dataclasses.fields(SystemConfig)}
        for name, value in expected.items():
            got = getattr(cfg, name)
            assert got == value and type(got) is type(value), name

    def test_gain_auto_any_case(self, tmp_path):
        path = tmp_path / "auto.cfg"
        path.write_text("gain = AUTO\n")
        assert load_config(path).gain == "auto"

    def test_repeated_key_names_both_lines(self, tmp_path):
        # Used to keep the last value silently: this file loaded 8 antennas.
        path = tmp_path / "twice.cfg"
        path.write_text("antennas = 2\n# second thoughts\nantennas = 8\n")
        with pytest.raises(ConfigError, match=r"twice.cfg:3: repeated config key antennas \(first set on line 1\)"):
            load_config(path)

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("antennas = four\n")
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "antennas" in str(info.value)


def tiny_spec(**kw):
    defaults = dict(
        sweep="snr", start=0.0, stop=4.0, step=2.0, outputs=("capacity",), overrides={"samples": 60}
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def count_output_calls(monkeypatch):
    """The list of output functions ``run_sweep`` calls, by name in call
    order, counted through the ``oamsm.cli`` bindings."""
    calls = []
    for name in ("dcmc_capacity", "mimo_capacity_baseline", "abep", "simulate_ber"):
        real = getattr(oamsm.cli, name)
        monkeypatch.setattr(oamsm.cli, name, lambda *a, _n=name, _f=real, **k: calls.append(_n) or _f(*a, **k))
    return calls


class TestRunSweep:
    def test_rows_and_files(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rows = run_sweep(SystemConfig(), tiny_spec(), str(out))
        assert len(rows) == 3
        assert out.exists() and (tmp_path / "sweep.csv.meta").exists()
        text = out.read_text()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header.split(",")[0] == "snr_db"
        assert "capacity_oam_bits" in header

    def test_csv_config_header_present(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_sweep(SystemConfig(), tiny_spec(), str(out))
        text = out.read_text()
        assert "# carrier_freq_hz = 60000000000.0  [paper]" in text
        assert "# waist_m = 0.04  [decision]" in text

    def test_monotone_grid_required(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(SystemConfig(), tiny_spec(start=5.0, stop=1.0), str(tmp_path / "x.csv"))
        with pytest.raises(ConfigError):
            run_sweep(SystemConfig(), tiny_spec(step=-1.0), str(tmp_path / "x.csv"))

    def test_states_sweep_grid(self, tmp_path):
        spec = tiny_spec(sweep="states", start=2, stop=8, step=1)
        rows = run_sweep(SystemConfig(), spec, str(tmp_path / "s.csv"))
        assert [r["states"] for r in rows] == [2, 4, 8]

    def test_state_count_tradeoff_at_fixed_snr(self, tmp_path):
        # Extra states add input entropy but crowd the received signal set;
        # at this operating point the entropy gain wins, so capacity grows
        # with the state count while staying below each ceiling log2(M*L*P).
        spec = tiny_spec(
            sweep="states", start=2, stop=8, step=1, overrides={"samples": 1200, "snr_db": 20.0}
        )
        rows = run_sweep(SystemConfig(), spec, str(tmp_path / "s.csv"))
        caps = {r["states"]: r["capacity_oam_bits"] for r in rows}
        assert caps[2] < caps[4] < caps[8]
        for count, cap in caps.items():
            assert cap <= math.log2(4 * count * 4)

    def test_unknown_sweep_kind_rejected(self, tmp_path):
        # Used to raise a bare KeyError while naming the CSV columns.
        spec = SweepSpec("spacing", 1, 2, 1, ("capacity",))
        with pytest.raises(ConfigError, match="spacing"):
            run_sweep(SystemConfig(), spec, str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_headers_tag_gain_as_configured(self, tmp_path):
        # The sweep pins the gain to a number internally; the headers show
        # the configured 'auto' and the number on the resolved_gain line.
        out = tmp_path / "g.csv"
        run_sweep(SystemConfig(), tiny_spec(), str(out))
        gain = SystemConfig().gain_value
        for text in (out.read_text(), (tmp_path / "g.csv.meta").read_text()):
            assert "gain = 'auto'  [decision]" in text
            assert f"resolved_gain = {gain!r}" in text
            assert "[override]" not in text.replace("samples = 60  [override]", "")
        run_sweep(SystemConfig(gain=2.5), tiny_spec(), str(out))
        assert "gain = 2.5  [override]" in out.read_text()

    def test_unknown_output_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(SystemConfig(), tiny_spec(outputs=("entropy",)), str(tmp_path / "x.csv"))

    def test_unknown_mimo_mode_rejected(self, tmp_path, capsys):
        # A bad mimo_mode used to be written to the .meta; it is rejected
        # before any file is written, from a config file and from the CLI.
        cfg_path, out = tmp_path / "m.cfg", tmp_path / "x.csv"
        cfg_path.write_text("mimo_mode = walrus\n")
        argv = ["run", "--sweep", "snr", "--from", "0", "--to", "0", "--outputs", "capacity", "--out", str(out)]
        assert main(argv + ["--config", str(cfg_path)]) == 2
        assert "config error: mimo_mode must be logdet|dcmc_psk, got 'walrus'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(argv + ["--mimo-mode", "walrus"])
        assert info.value.code == 2
        with pytest.raises(ConfigError, match="^mimo_mode must be"):
            run_sweep(SystemConfig(), tiny_spec(overrides={"mimo_mode": "walrus"}), str(out))
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize(
        "sweep, variants, builds",
        [
            # An SNR sweep keeps the point config, so one tensor per variant.
            ("snr", (), 1),
            ("snr", (("M=2", {"tx_antennas": 2}), ("M=4", {"tx_antennas": 4})), 2),
            # A distance sweep changes the geometry at every point.
            ("distance", (), 3),
        ],
    )
    def test_tensor_built_once_per_point_config(self, tmp_path, monkeypatch, sweep, variants, builds):
        # Every point asks for its config's tensor; a config keeps the one it built.
        built = []
        real = oamsm.cli.build_channel_tensor
        monkeypatch.setattr(oamsm.cli, "build_channel_tensor", lambda cfg: built.append(real(cfg)) or built[-1])
        spec = tiny_spec(
            sweep=sweep,
            start=40.0,
            stop=44.0,
            outputs=("capacity", "abep", "ber"),
            overrides={"samples": 20, "trials": 100},
            variants=variants,
        )
        rows = run_sweep(SystemConfig(), spec, str(tmp_path / "t.csv"))
        assert len(rows) == 3 * max(1, len(variants))
        assert len(built) == len(rows)
        assert len({id(tensor) for tensor in built}) == builds

    def test_kept_tensors_leave_the_csv_body_as_it_is(self, tmp_path):
        # The tensor, the capacity kernel's table of frame distances and the
        # baseline's singular values are kept on the config objects.
        def body(config, name):
            out = tmp_path / name
            spec = tiny_spec(outputs=("capacity", "ee"), stop=40.0, step=10.0, overrides={"samples": 120})
            run_sweep(config, spec, str(out))
            return [line for line in out.read_text().splitlines() if not line.startswith("#")]

        config = SystemConfig()
        first = body(config, "a.csv")
        assert len(first) == 6
        assert body(config, "b.csv") == first
        assert body(SystemConfig(), "c.csv") == first

    def test_every_variant_snr_is_checked_before_any_output(self, tmp_path, monkeypatch):
        # With the gain pinned at d=50, 3078 dB is inside d=100's
        # peak-noncentrality limit (3082.5 dB) and past d=25's (3073.5 dB).
        # Only the base config's SNRs were checked up front, so the d=100
        # point ran first.
        calls = count_output_calls(monkeypatch)
        variants = (("d=100", {"distance_m": 100.0}), ("d=25", {"distance_m": 25.0}))
        spec = tiny_spec(start=3078.0, stop=3078.0, overrides={"samples": 20}, variants=variants)
        with pytest.raises(ConfigError, match="snr_db=3078.0"):
            run_sweep(SystemConfig(), spec, str(tmp_path / "x.csv"))
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_snr_sweep_draws_each_chunk_once_per_variant(self, tmp_path, monkeypatch):
        # 20 000 trials are 3 chunks; the 21 points of fig8's one variant
        # decide the same stepwise draws, so 3 generators are made, not 63.
        made = []
        real = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: made.append(a) or real(*a, **k))
        assert main(["preset", "fig8", "--trials", "20000", "--out", str(tmp_path / "f.csv")]) == 0
        assert len(made) == 3
        assert "ber_seed = one per variant: " in (tmp_path / "f.csv.meta").read_text()

    @pytest.mark.parametrize("detector", ["stepwise", "ml"])
    def test_distance_sweep_ber_is_one_call_per_point(self, tmp_path, detector):
        # Every other sweep builds a config per point, so each point keeps
        # its own call and its (seed, variant, grid index) seed.
        out = tmp_path / "d.csv"
        argv = ["run", "--sweep", "distance", "--from", "10", "--to", "100", "--step", "30", "--outputs", "ber"]
        argv += ["--trials", "3000", "--seed", "9", "--detector", detector, "--out", str(out)]
        assert main(argv) == 0
        assert "ber_seed = one per point" in (tmp_path / "d.csv.meta").read_text().splitlines()
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        base = SystemConfig(trials=3000, seed=9, detector=detector)
        pinned = dataclasses.replace(base, gain=base.gain_value)
        assert [row["distance_m"] for row in rows] == ["10.0", "40.0", "70.0", "100.0"]
        for gi, row in enumerate(rows):
            cfg = dataclasses.replace(pinned, distance_m=float(row["distance_m"]))
            seed = int(_substream(9, 0, gi).generate_state(1, "uint64")[0])
            rep = simulate_ber(cfg, cfg.snr_db, 3000, seed, detector)
            want = (rep.bit_error_rate, rep.bit_error_stderr, rep.antenna_error_rate, rep.state_error_rate,
                    rep.symbol_error_rate)
            cols = ("ber_sim", "ber_sim_stderr", "antenna_err_rate", "state_err_rate", "symbol_err_rate")
            assert [row[c] for c in cols] == [str(v) for v in want]

    @pytest.mark.parametrize("figure, variants", [("fig8", 1), ("fig9", 6), ("fig10", 6)])
    def test_snr_sweep_abep_is_one_call_per_variant(self, tmp_path, monkeypatch, figure, variants):
        calls = count_output_calls(monkeypatch)
        assert main(["preset", figure, "--trials", "300", "--out", str(tmp_path / "f.csv")]) == 0
        assert calls.count("abep") == variants

    def test_distance_sweep_abep_is_one_call_per_point(self, tmp_path, monkeypatch):
        calls = count_output_calls(monkeypatch)
        argv = ["run", "--sweep", "distance", "--from", "10", "--to", "100", "--step", "30", "--outputs", "abep"]
        assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
        assert calls == ["abep"] * 4

    def test_ber_and_abep_columns(self, tmp_path):
        spec = tiny_spec(outputs=("abep", "ber"), overrides={"trials": 400})
        rows = run_sweep(SystemConfig(), spec, str(tmp_path / "b.csv"))
        for row in rows:
            assert 0.0 <= row["abep"] <= 1.0
            assert 0.0 <= row["ber_sim"] <= 1.0


class TestPresets:
    def test_known_ids(self):
        assert set(PRESETS) == {f"fig{i}" for i in range(2, 12)}

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            preset("fig99")

    def test_fig2_shape(self):
        spec = preset("fig2")
        assert spec.sweep == "snr"
        assert "capacity" in spec.outputs

    def test_fig8_shape(self):
        spec = preset("fig8")
        assert spec.sweep == "snr"
        assert set(spec.outputs) == {"abep", "ber"}

    def test_fig11_shape(self):
        spec = preset("fig11")
        assert "ee" in spec.outputs


class TestCliMain:
    def test_run_subcommand(self, tmp_path):
        out = tmp_path / "o.csv"
        rc = main(
            [
                "run",
                "--sweep",
                "snr",
                "--from",
                "0",
                "--to",
                "2",
                "--step",
                "2",
                "--outputs",
                "capacity",
                "--samples",
                "50",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert out.exists()

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        # Seed -1 used to run the stream of seed 2^64 - 1.
        out = tmp_path / "o.csv"
        assert main(["run", "--sweep", "snr", "--from", "0", "--to", "0", "--seed", "-1", "--out", str(out)]) == 2
        assert "config error: seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 1\n")
        rc = main(
            [
                "run",
                "--config",
                str(bad),
                "--sweep",
                "snr",
                "--from",
                "0",
                "--to",
                "2",
                "--step",
                "2",
                "--out",
                str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "line, sweep, outputs",
        [
            ("circuit_power = nan", "snr", "capacity,ee"),
            ("noise_psd = nan", "snr", "capacity,ee"),
            ("snr = nan", "distance", "capacity"),
            ("xi = nanlambda", "snr", "capacity"),
            ("snr = 4000", "distance", "capacity"),
            ("noise_psd = -4000", "snr", "capacity"),
            ("xi = 1e300", "snr", "capacity,abep,ber,ee"),
            ("bandwidth = 1e-300", "snr", "capacity,abep,ber,ee"),
            ("waist = 1e100", "snr", "capacity,abep,ber,ee"),
            ("carrier_freq = 1e300", "snr", "capacity,abep,ber,ee"),
            ("gain = 1e300", "snr", "capacity,abep,ber,ee"),
            # max|h| times the ring field underflows to 0: no in-ring gain.
            ("waist = 1.09e-73\ngain = 3.29e-204", "snr", "capacity,abep,ber,ee"),
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, line, sweep, outputs):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(line + "\n")
        rc = main(
            [
                "run",
                "--config",
                str(cfg),
                "--sweep",
                sweep,
                "--from",
                "50",
                "--to",
                "50",
                "--outputs",
                outputs,
                "--samples",
                "50",
                "--out",
                str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_unresolvable_abep_is_numeric_error(self, tmp_path, capsys):
        # At 400 dB the detection integral's bulk is beyond float resolution;
        # the run used to exit 0 with abep = 0.6666666666666666.
        out = tmp_path / "o.csv"
        rc = main(["run", "--sweep", "snr", "--from", "400", "--to", "400", "--outputs", "abep", "--out", str(out)])
        assert rc == 3
        assert "numeric error: detection integral cannot resolve the bulk" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep", ["antennas", "states", "constellation"])
    def test_count_sweep_rejects_step(self, tmp_path, capsys, sweep):
        # Count sweeps double from point to point; --step 3 used to be
        # ignored, writing rows 2, 4, 8.
        out = tmp_path / "o.csv"
        argv = ["run", "--sweep", sweep, "--from", "2", "--to", "8", "--step", "3", "--out", str(out)]
        assert main(argv) == 2
        assert "step must be 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sweep, stop, want", [("antennas", "4", ["1", "2", "4"]), ("constellation", "1", ["1"])])
    def test_count_sweep_starts_at_one(self, tmp_path, sweep, stop, want):
        # 1 = 2^0: the doubling used to start at 2, so antennas 1-4 wrote
        # rows 2 and 4 and constellation 1-1 found no grid point.
        out = tmp_path / "o.csv"
        argv = ["run", "--sweep", sweep, "--from", "1", "--to", stop, "--outputs", "ber", "--trials", "100"]
        assert main([*argv, "--out", str(out)]) == 0
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert [line.split(",")[0] for line in body[1:]] == want

    def test_states_sweep_from_one_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        argv = ["run", "--sweep", "states", "--from", "1", "--to", "4", "--outputs", "ber", "--trials", "100"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "state count must be a positive even number, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config_text, sweep",
        [
            # The Rayleigh distance underflows to 0: ZeroDivisionError.
            ("waist = 1e-300\n", ["snr", "--from", "0", "--to", "0"]),
            # (z / z_R)^2 overflows in spot_size: OverflowError.
            ("", ["distance", "--from", "1e300", "--to", "1e300"]),
        ],
    )
    def test_unrepresentable_ring_is_a_config_error(self, tmp_path, capsys, config_text, sweep):
        cfg_path = tmp_path / "ring.cfg"
        cfg_path.write_text(config_text)
        out = tmp_path / "o.csv"
        argv = ["run", "--config", str(cfg_path), "--sweep", *sweep, "--outputs", "capacity", "--out", str(out)]
        assert main(argv) == 2
        assert "config error: ring radius at waist_m=" in capsys.readouterr().err
        assert not out.exists()

    def test_dcmc_psk_baseline_reads_samples_and_seed(self, tmp_path):
        # The dcmc_psk baseline used to run 20000 draws at seed 0 whatever
        # --samples and --seed said.
        def mimo_bits(*flags):
            out = tmp_path / "o.csv"
            argv = ["run", "--sweep", "snr", "--from", "100", "--to", "100", "--outputs", "capacity"]
            assert main(argv + ["--mimo-mode", "dcmc_psk", "--out", str(out), *flags]) == 0
            assert "mimo_mode = 'dcmc_psk'  [override]" in (tmp_path / "o.csv.meta").read_text().splitlines()
            body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            return dict(zip(body[0].split(","), body[1].split(",")))["capacity_mimo_bits"]

        first = mimo_bits("--samples", "50", "--seed", "1")
        assert first == mimo_bits("--samples", "50", "--seed", "1")
        assert first != mimo_bits("--samples", "50", "--seed", "2")
        assert first != mimo_bits("--samples", "60", "--seed", "1")

    def test_preset_and_config_file_take_mimo_mode(self, tmp_path):
        # --mimo-mode used to be an argument of "run" alone, so a preset
        # could not compare OAM-SM with the discrete-input baseline.
        out = tmp_path / "o.csv"
        assert main(["preset", "fig11", "--mimo-mode", "dcmc_psk", "--samples", "50", "--out", str(out)]) == 0
        assert "# mimo_mode = 'dcmc_psk'  [override]" in out.read_text().splitlines()
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text("mimo_mode = dcmc_psk\n")
        argv = ["run", "--config", str(cfg_path), "--sweep", "snr", "--from", "0", "--to", "0", "--samples", "50"]
        assert main(argv + ["--out", str(out)]) == 0
        assert "# mimo_mode = 'dcmc_psk'  [override]" in out.read_text().splitlines()

    def test_meta_names_the_abep_analysis(self, tmp_path):
        # abep is the stepwise analysis whatever the detector, and nothing
        # said so beside an ML ber_sim.
        line = "abep_analysis = stepwise strongest-pair receiver, whatever detector is; ber_sim follows detector"
        argv = ["run", "--sweep", "snr", "--from", "20", "--to", "20", "--trials", "200"]

        def run(*flags):
            out = tmp_path / "o.csv"
            assert main(argv + [*flags, "--out", str(out)]) == 0
            body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
            return dict(zip(body[0].split(","), body[1].split(","))), (tmp_path / "o.csv.meta").read_text().splitlines()

        ml, ml_meta = run("--outputs", "abep,ber", "--detector", "ml")
        stepwise, _ = run("--outputs", "abep,ber")
        assert line in ml_meta
        assert ml["abep"] == stepwise["abep"] and ml["ber_sim"] != stepwise["ber_sim"]
        assert line not in run("--outputs", "ber", "--detector", "ml")[1]

    @pytest.mark.parametrize("figure", ["fig4", "fig6"])
    def test_dcmc_psk_input_limit_stops_a_preset_before_any_output(self, tmp_path, capsys, monkeypatch, figure):
        # The M=2 and M=4 variants used to run for 8-16 s before the M=8
        # variant's 4^8 baseline inputs stopped the sweep.
        calls = count_output_calls(monkeypatch)
        assert main(["preset", figure, "--mimo-mode", "dcmc_psk", "--out", str(tmp_path / "o.csv")]) == 2
        assert "config error: dcmc_psk baseline limited to P^M <= 4096 inputs, got 65536" in capsys.readouterr().err
        assert calls == [] and list(tmp_path.iterdir()) == []

    def test_dcmc_psk_input_limit_binds_only_capacity_outputs(self, tmp_path):
        # fig9 has an M=8 variant but writes abep and ber only, so the
        # baseline's mode changes nothing in its body.
        def body(*flags):
            out = tmp_path / "o.csv"
            assert main(["preset", "fig9", "--trials", "300", "--seed", "5", "--out", str(out), *flags]) == 0
            return [l for l in out.read_text().splitlines() if not l.startswith("#")]

        assert body("--mimo-mode", "dcmc_psk") == body()

    def test_unrepresentable_distance_stops_the_sweep_before_any_output(self, tmp_path, capsys, monkeypatch):
        # The 10 m point used to run before 5e159 m overflowed the ring radius.
        calls, out = count_output_calls(monkeypatch), tmp_path / "o.csv"
        argv = ["run", "--sweep", "distance", "--from", "10", "--to", "1e160", "--step", "5e159"]
        assert main(argv + ["--outputs", "capacity", "--samples", "20", "--out", str(out)]) == 2
        assert "config error: ring radius at waist_m=0.04, distance_m=5e+159" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_override_flags_follow_field_declarations(self, capsys):
        # Each flag-declared field has its --dashed-name flag, typed by the
        # field's parser and limited to its choices.
        parser = oamsm.cli._build_parser()
        overrides = [f for f in dataclasses.fields(SystemConfig) if f.metadata["flag"]]
        expected = {"seed", "trials", "samples", "detector", "mimo_mode"}
        assert {f.name for f in overrides} == expected
        for gone in ("--coeff-mode", "--distance-mode"):
            with pytest.raises(SystemExit) as info:
                main(["preset", "fig8", gone, "printed", "--out", "o.csv"])
            assert info.value.code == 2
        for f in overrides:
            flag = "--" + f.name.replace("_", "-")
            got = getattr(parser.parse_args(["preset", "fig8", "--out", "o.csv", flag, str(f.default)]), f.name)
            assert got == f.default and type(got) is type(f.default)
            if f.metadata["choices"]:
                with pytest.raises(SystemExit):
                    parser.parse_args(["preset", "fig8", "--out", "o.csv", flag, "walrus"])

    def test_overflowing_snr_sweep_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        rc = main(
            ["run", "--sweep", "snr", "--from", "4000", "--to", "4000", "--outputs", "capacity", "--out", str(out)]
        )
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_grid_count_is_config_error(self, tmp_path, capsys):
        # Used to exit 1: "cannot convert float infinity to integer".
        out = tmp_path / "o.csv"
        argv = ["run", "--sweep", "snr", "--from=-1e300", "--to", "1e300", "--step", "1e-300", "--out", str(out)]
        assert main(argv + ["--outputs", "capacity", "--samples", "10"]) == 2
        assert "config error: sweep point count must be finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    def test_peak_noncentrality_is_checked_at_each_grid_snr(self, tmp_path, capsys):
        # gain = 1e150 is a valid config at 50 dB; at 200 dB its peak
        # noncentrality overflows, which used to crash the detection integral.
        assert math.isfinite(SystemConfig(gain=1e150).rho_for_snr_db(50.0))
        cfg_path, out = tmp_path / "g.cfg", tmp_path / "o.csv"
        cfg_path.write_text("gain = 1e150\n")
        argv = ["run", "--config", str(cfg_path), "--sweep", "snr", "--from", "200", "--to", "200"]
        assert main(argv + ["--outputs", "abep", "--samples", "20", "--trials", "50", "--out", str(out)]) == 2
        assert "config error: peak noncentrality" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_frame_distance_runs_the_sweep(self, tmp_path):
        # 3075 dB passes the peak-noncentrality check, and the capacity
        # kernel's frame distances overflow there: each is an exactly-zero
        # term, so the point saturates at log2(M L P) = 7 bits.
        out = tmp_path / "o.csv"
        argv = ["run", "--sweep", "snr", "--from", "3075", "--to", "3075", "--outputs", "capacity,ee"]
        assert main(argv + ["--samples", "20", "--out", str(out)]) == 0
        header, row = (line.split(",") for line in out.read_text().splitlines()[-2:])
        cells = dict(zip(header, map(float, row)))
        assert cells["capacity_oam_bits"] == 7.0 and cells["capacity_oam_stderr"] == 0.0
        assert all(math.isfinite(v) for v in cells.values())

    def test_ber_run_keeps_the_snr_range_past_the_frame_distance_limit(self, tmp_path):
        # Frame distances overflow at 3070 dB, but only the capacity kernel
        # forms them.
        out = tmp_path / "o.csv"
        argv = ["run", "--sweep", "snr", "--from", "3070", "--to", "3070", "--outputs", "ber"]
        assert main(argv + ["--trials", "200", "--out", str(out)]) == 0
        row = out.read_text().splitlines()[-1].split(",")
        assert row[0] == "3070.0" and all(math.isfinite(float(v)) for v in row)

    def test_module_entry_point(self):
        # ``python -m oamsm`` runs the same parser as the ``oamsm`` script.
        env = dict(os.environ, PYTHONPATH=str(Path(oamsm.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "oamsm", "--help"], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert "usage: oamsm" in done.stdout
        assert "preset" in done.stdout

    def test_a_run_imports_only_the_runtime_dependencies(self, tmp_path):
        # numpy is the one runtime dependency; the test-only packages must not
        # be pulled in by any output a sweep computes.
        env = dict(os.environ, PYTHONPATH=str(Path(oamsm.__file__).resolve().parents[1]))
        script = (
            "import sys; from oamsm.cli import main; rc = main(sys.argv[1:]); "
            "print(rc, *sorted({m.partition('.')[0] for m in sys.modules} & "
            "{'scipy', 'mpmath', 'hypothesis', 'pytest'}))"
        )
        argv = ["run", "--sweep", "snr", "--from", "10", "--to", "10", "--outputs", "capacity,abep,ber,ee"]
        argv += ["--samples", "50", "--trials", "200", "--out", str(tmp_path / "o.csv")]
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.stdout.split() == ["0"], done.stderr

    def test_preset_deterministic_bodies(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["preset", "fig8", "--out", str(a), "--trials", "500", "--seed", "5"]) == 0
        assert main(["preset", "fig8", "--out", str(b), "--trials", "500", "--seed", "5"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_cli_overrides_beat_preset_defaults(self, tmp_path):
        out = tmp_path / "o.csv"
        main(["preset", "fig8", "--out", str(out), "--trials", "200", "--seed", "5"])
        meta = (tmp_path / "o.csv.meta").read_text()
        assert "trials = 200" in meta

    def test_cli_overrides_beat_config_file_values(self, tmp_path):
        cfg_path, out = tmp_path / "c.cfg", tmp_path / "o.csv"
        cfg_path.write_text("samples = 300\n")
        argv = ["run", "--config", str(cfg_path), "--sweep", "snr", "--from", "0", "--to", "0", "--samples", "40"]
        assert main(argv + ["--out", str(out)]) == 0
        assert "# samples = 40  [override]" in out.read_text().splitlines()
        assert "samples = 40  [override]" in (tmp_path / "o.csv.meta").read_text().splitlines()

    def test_unknown_preset_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["preset", "fig99", "--out", str(tmp_path / "o.csv")])
        assert info.value.code == 2


class TestConfigSweep:
    """Every config that validation accepts runs to finite numbers, or the
    run stops with a config error."""

    def test_accepted_configs_run_to_finite_numbers(self, tmp_path, capsys):
        # Each float field with a rule is drawn log-uniform up to 1e+-300
        # (with either sign if it may be negative) or left at its default,
        # with even odds, so that one absurd field does not reject nearly
        # every draw; each field with choices is drawn uniformly.
        rng = np.random.default_rng(1612)
        fields = dataclasses.fields(SystemConfig)
        floats = [f for f in fields if f.metadata["parse"] is float and f.metadata["rule"]]
        modes = [f for f in fields if f.metadata["choices"]]
        cfg_path, out = tmp_path / "c.cfg", tmp_path / "o.csv"
        ran = 0
        start = time.monotonic()
        for _ in range(400):
            lines = {}
            for f in floats:
                if rng.random() < 0.5:
                    sign = -1.0 if f.metadata["rule"] == "finite" and rng.random() < 0.5 else 1.0
                    lines[f.metadata["key"]] = sign * 10.0 ** rng.uniform(-300.0, 300.0)
            for f in modes:
                lines[f.metadata["key"]] = f.metadata["choices"][rng.integers(len(f.metadata["choices"]))]
            cfg_path.write_text("".join(f"{key} = {value}\n" for key, value in lines.items()))
            out.unlink(missing_ok=True)
            snr = lines.get("snr", SystemConfig().snr_db)
            argv = ["run", "--config", str(cfg_path), "--sweep", "snr", f"--from={snr!r}", f"--to={snr!r}"]
            rc = main(argv + ["--outputs", "capacity,abep,ber,ee", "--samples", "8", "--trials", "16", "--out", str(out)])
            err = capsys.readouterr().err
            if rc == 2:
                assert err.startswith("config error: "), (lines, err)
                continue
            assert rc == 0, (lines, err)
            header, row = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            assert all(math.isfinite(float(v)) for v in row.split(",")), (lines, header, row)
            ran += 1
        assert ran >= 40  # the sweep reaches the layers, not just the validation
        assert time.monotonic() - start < 10.0
