"""Bit mapping, transmission, detection, and Monte Carlo error counting."""

import dataclasses
import math

import numpy as np
import pytest

from oamsm import (
    ConfigError,
    Constellation,
    SymbolMap,
    SystemConfig,
    build_channel_tensor,
    demodulate_ml,
    demodulate_stepwise,
    psk_constellation,
    simulate_ber,
    transmit,
)


@pytest.fixture(scope="module")
def default_map(default_config):
    return SymbolMap(
        default_config.tx_antennas, default_config.oam_states, default_config.constellation()
    )


class TestSymbolMap:
    def test_bits_per_symbol(self, default_map):
        assert default_map.bits_per_symbol == 7
        assert default_map.n_symbols == 128

    def test_all_zero_bits(self, default_map):
        sym = default_map.encode("0000000")
        assert sym.antenna == 1
        assert sym.state == min(default_map.states)
        assert sym.point_index == 0

    def test_bijection_exhaustive(self, default_map):
        seen = set()
        for i in range(128):
            bits = format(i, "07b")
            sym = default_map.encode(bits)
            assert default_map.decode(sym) == bits
            seen.add((sym.antenna, sym.state, sym.point_index))
        assert len(seen) == 128

    def test_wrong_length_rejected(self, default_map):
        with pytest.raises(ConfigError):
            default_map.encode("0" * 6)
        with pytest.raises(ConfigError):
            default_map.encode("0" * 8)

    def test_state_table_sorted(self, default_map):
        assert list(default_map.states) == sorted(default_map.states)

    def test_single_hypothesis_map(self):
        cmap = SymbolMap(1, (1,), Constellation(order=1, points=(1 + 0j,), bit_labels=("",)))
        assert cmap.bits_per_symbol == 0
        sym = cmap.encode("")
        assert (sym.antenna, sym.state, sym.point_index) == (1, 1, 0)


class TestTransmit:
    def test_noiseless_is_exact(self, default_tensor, default_map):
        rng = np.random.default_rng(0)
        sym = default_map.encode("1011001")
        rho = 2.5
        frame = transmit(sym, default_tensor, rho, 0.0, rng)
        h = default_tensor.entries[sym.antenna - 1, default_tensor.state_index(sym.state)]
        assert np.array_equal(frame, math.sqrt(rho) * h * sym.point)

    def test_noise_only_power(self, default_tensor, default_map):
        rng = np.random.default_rng(1)
        sym = default_map.encode("0000000")
        nv = 0.35
        frames = [transmit(sym, default_tensor, 0.0, nv, rng) for _ in range(4000)]
        power = np.mean([np.mean(np.abs(f) ** 2) for f in frames])
        assert power == pytest.approx(nv, rel=0.05)

    def test_seeded_repeatability(self, default_tensor, default_map):
        sym = default_map.encode("0101010")
        f1 = transmit(sym, default_tensor, 1.0, 0.1, np.random.default_rng(99))
        f2 = transmit(sym, default_tensor, 1.0, 0.1, np.random.default_rng(99))
        assert np.array_equal(f1, f2)


class TestDetectors:
    def test_zero_noise_round_trip_both_detectors(self, default_config, default_tensor, default_map):
        rng = np.random.default_rng(0)
        rho = default_config.rho_for_snr_db(20.0)
        for sym in default_map.all_symbols():
            frame = transmit(sym, default_tensor, rho, 0.0, rng)
            for detector in (demodulate_stepwise, demodulate_ml):
                out = detector(frame, default_tensor, rho)
                assert (out.antenna, out.state, out.point_index) == (
                    sym.antenna,
                    sym.state,
                    sym.point_index,
                )

    def test_antenna_swap_tracked(self, default_config, default_tensor, default_map):
        rng = np.random.default_rng(0)
        rho = default_config.rho_for_snr_db(20.0)
        for bits in ("0000000", "0100000", "1000000", "1100000"):
            sym = default_map.encode(bits)
            frame = transmit(sym, default_tensor, rho, 0.0, rng)
            assert demodulate_stepwise(frame, default_tensor, rho).antenna == sym.antenna

    def test_single_hypothesis_returns_it(self):
        cfg = dataclasses.replace(
            SystemConfig(), tx_antennas=1, oam_states=(1,), constellation_order=1
        )
        tensor = build_channel_tensor(cfg)
        cmap = SymbolMap(1, (1,), cfg.constellation())
        sym = cmap.encode("")
        frame = transmit(sym, tensor, 1.0, cfg.noise_power_w, np.random.default_rng(3))
        out = demodulate_ml(frame, tensor, 1.0)
        assert (out.antenna, out.state, out.point_index) == (1, 1, 0)


class TestSimulateBer:
    def test_noise_only_antenna_rate(self, default_config):
        rep = simulate_ber(default_config, -300.0, 40000, 11, "stepwise")
        correct = 1.0 - rep.antenna_error_rate
        assert abs(correct - 0.25) <= 3 * rep.antenna_error_stderr

    def test_deterministic_across_runs(self, default_config, default_tensor):
        r1 = simulate_ber(default_config, 10.0, 30000, 5, "stepwise", tensor=default_tensor)
        r2 = simulate_ber(default_config, 10.0, 30000, 5, "stepwise", tensor=default_tensor)
        assert r1 == r2

    def test_trial_count_extends_stream(self, default_config, default_tensor):
        # Determinism is keyed to (seed, chunk); a longer run must not change
        # the statistics regime, only tighten them.
        r1 = simulate_ber(default_config, 10.0, 8192, 5, "stepwise", tensor=default_tensor)
        r2 = simulate_ber(default_config, 10.0, 16384, 5, "stepwise", tensor=default_tensor)
        assert abs(r1.bit_error_rate - r2.bit_error_rate) < 6 * max(
            r1.bit_error_stderr, 1e-6
        )

    def test_ml_error_free_at_high_snr(self, default_config, default_tensor):
        rep = simulate_ber(default_config, 30.0, 100000, 7, "ml", tensor=default_tensor)
        assert rep.symbol_error_rate < 1e-3
        assert rep.bit_error_rate < 1e-3

    def test_ml_beats_stepwise(self, default_config, default_tensor):
        for snr in (0.0, 10.0, 20.0):
            ml = simulate_ber(default_config, snr, 20000, 13, "ml", tensor=default_tensor)
            sw = simulate_ber(default_config, snr, 20000, 13, "stepwise", tensor=default_tensor)
            tol = 2 * math.sqrt(ml.symbol_error_stderr**2 + sw.symbol_error_stderr**2)
            assert ml.symbol_error_rate <= sw.symbol_error_rate + tol

    def test_ber_monotone_in_snr(self, short_range_config, short_range_tensor):
        reps = [
            simulate_ber(short_range_config, snr, 20000, 17, "stepwise", tensor=short_range_tensor)
            for snr in (5.0, 10.0, 15.0, 20.0, 25.0)
        ]
        for lo, hi in zip(reps, reps[1:]):
            tol = 3 * math.sqrt(lo.bit_error_stderr**2 + hi.bit_error_stderr**2)
            assert hi.bit_error_rate <= lo.bit_error_rate + tol

    def test_stepwise_chain_works_at_short_range(self, short_range_config, short_range_tensor):
        rep = simulate_ber(short_range_config, 40.0, 20000, 19, "stepwise", tensor=short_range_tensor)
        assert rep.symbol_error_rate < 1e-3

    def test_rejects_non_finite_snr(self, default_config, default_tensor):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                simulate_ber(default_config, bad, 10, 1, "stepwise", tensor=default_tensor)

    def test_rejects_bad_detector(self, default_config):
        with pytest.raises(ConfigError):
            simulate_ber(default_config, 0.0, 10, 1, "zf")
