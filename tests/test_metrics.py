"""Capacity, detection probability, bit error probability, energy efficiency."""

import dataclasses
import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oamsm import metrics, numerics
from oamsm import (
    ChannelTensor,
    ConfigError,
    NumericError,
    SystemConfig,
    abep,
    antenna_detection_prob,
    antenna_detection_prob_avg,
    build_channel_tensor,
    dcmc_capacity,
    demodulate_ml,
    energy_efficiency,
    gray_gamma,
    mimo_capacity_baseline,
    mimo_channel_matrix,
    mod_bep,
    psk_constellation,
    q_function,
    simulate_ber,
)

# Noise variances and powers no metric can be computed from.
BAD_NOISE_VARS = (math.nan, math.inf, 0.0, -1.0)
BAD_POWERS = (math.nan, math.inf, -1.0)


def clean_frames(tensor, rho):
    """Noise-free (M, 2) frame of every (m, l, p) codeword, flattened."""
    points = np.asarray(tensor.config.constellation().points)
    n_ant, n_states = tensor.entries.shape[:2]
    return np.array(
        [
            math.sqrt(rho) * tensor.entries[m, l].ravel() * x
            for m in range(n_ant)
            for l in range(n_states)
            for x in points
        ]
    )


def einsum_mutual_information(signals, noise_var, samples, seed, stream, rows):
    """Reference for the capacity kernel: the same noise draws (512-draw
    chunks, one Philox substream per chunk), each input in ``rows`` scored
    as the true input against every candidate input, and the cross term
    Re(d . conj(w)) summed over the frame for each input separately.  With
    ``rows`` every input, this is the full-input estimator, which the
    ``dcmc_psk`` baseline uses; ``dcmc_capacity`` scores one representative
    per rotation orbit."""
    n_in, dims = signals.shape
    per_draw = np.empty(samples)
    done = 0
    chunk = 0
    while done < samples:
        n = min(512, samples - done)
        ss = np.random.SeedSequence(entropy=(seed, stream, chunk))
        rng = np.random.Generator(np.random.Philox(ss))
        w = math.sqrt(noise_var / 2.0) * (
            rng.standard_normal((n, dims)) + 1j * rng.standard_normal((n, dims))
        )
        acc = np.zeros(n)
        for i in rows:
            d = signals[i][None, :] - signals
            ln_f = -(
                np.sum(np.abs(d) ** 2, axis=1)[:, None]
                + 2.0 * np.einsum("jm,nm->jn", d, w.conj()).real
            ) / noise_var
            m = np.max(ln_f, axis=0)
            acc += m + np.log(np.sum(np.exp(ln_f - m[None, :]), axis=0))
        per_draw[done : done + n] = math.log2(n_in) - acc / (len(rows) * math.log(2.0))
        done += n
        chunk += 1
    value = min(max(0.0, float(np.mean(per_draw))), math.log2(n_in))
    return value, float(np.std(per_draw, ddof=1) / math.sqrt(samples))


class TestDcmcCapacity:
    def test_zero_power_is_exactly_zero(self, default_tensor, default_config):
        est = dcmc_capacity(default_tensor, 0.0, default_config.noise_power_w, 50, 1)
        assert est.value == 0.0
        assert est.std_error == 0.0

    def test_bounded_by_input_entropy(self, default_tensor, default_config):
        nv = default_config.noise_power_w
        for snr in (0.0, 20.0, 60.0):
            est = dcmc_capacity(default_tensor, default_config.rho_for_snr_db(snr), nv, 400, 3)
            assert 0.0 <= est.value <= 7.0 + 1e-12

    def test_deterministic(self, default_tensor, default_config):
        nv = default_config.noise_power_w
        rho = default_config.rho_for_snr_db(10.0)
        a = dcmc_capacity(default_tensor, rho, nv, 600, 5)
        b = dcmc_capacity(default_tensor, rho, nv, 600, 5)
        assert a == b

    def test_rejects_bad_noise_and_power(self, default_tensor, default_config):
        nv = default_config.noise_power_w
        for rho in (0.0, default_config.rho_for_snr_db(0.0)):
            for bad in BAD_NOISE_VARS:
                with pytest.raises(ValueError):
                    dcmc_capacity(default_tensor, rho, bad, 10, 1)
        for bad in BAD_POWERS:
            with pytest.raises(ValueError):
                dcmc_capacity(default_tensor, bad, nv, 10, 1)
        # A bad seed: at rho = 0 it used to return 0 unchecked.
        for rho in (0.0, default_config.rho_for_snr_db(0.0)):
            with pytest.raises(ValueError, match="seed must be a nonnegative integer, got 1.5"):
                dcmc_capacity(default_tensor, rho, nv, 10, 1.5)

    @pytest.mark.parametrize("samples", [0, -5, 2.5])
    @pytest.mark.parametrize("rho_db", [None, 10.0])
    def test_rejects_bad_sample_count(self, default_tensor, default_config, samples, rho_db):
        # 2.5 raised a bare TypeError; at rho = 0 any count was accepted.
        rho = 0.0 if rho_db is None else default_config.rho_for_snr_db(rho_db)
        with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples}"):
            dcmc_capacity(default_tensor, rho, default_config.noise_power_w, samples, 1)

    def test_increases_with_snr(self, default_tensor, default_config):
        nv = default_config.noise_power_w
        vals = [
            dcmc_capacity(default_tensor, default_config.rho_for_snr_db(s), nv, 800, 7).value
            for s in (-10.0, 0.0, 10.0, 20.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"tx_antennas": 8},
            {"tx_antennas": 2, "oam_states": (-1, 1), "constellation_order": 2},
            {"noise_psd_dbm_hz": 150.0},
            {"noise_psd_dbm_hz": 250.0},
            {"gain": 1e-12},
            {"bandwidth_hz": 1e-200},
            {"gain": SystemConfig().gain_value, "distance_m": 100.0},
        ],
        ids=["default", "M=8", "tiny", "noise_psd=150", "noise_psd=250", "gain=1e-12", "bandwidth=1e-200", "d=100"],
    )
    def test_top_accepted_snr_runs_clean(self, changes):
        # The kernel's frame distances overflowed at SNRs the config
        # accepted (3076 dB at d=100 with the gain pinned at d=50).  An
        # overflowing distance is an exactly-zero term, so the kernel runs
        # clean up to the top SNR that rho_for_snr_db accepts.
        cfg = dataclasses.replace(SystemConfig(), **changes)
        lo, hi = 0, 20000  # accepted and rejected SNRs, in units of 0.5 dB
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                cfg.rho_for_snr_db(mid / 2)
                lo = mid
            except ConfigError:
                hi = mid
        rho = cfg.rho_for_snr_db(lo / 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cap = dcmc_capacity(build_channel_tensor(cfg), rho, cfg.noise_power_w, 20, 1)
            assert cap.value == math.log2(cfg.tx_antennas * cfg.n_states * cfg.constellation_order)
            if cfg.tx_antennas <= 4:
                assert math.isfinite(mimo_capacity_baseline(cfg, rho, cfg.noise_power_w, "dcmc_psk", 20, 1).value)


def orbit_rows(tensor):
    """Rows of ``clean_frames`` with p = 0: one input per rotation orbit."""
    P = tensor.config.constellation().order
    return range(0, tensor.entries.shape[0] * tensor.entries.shape[1] * P, P)


def psk_baseline_frames(cfg, rho):
    """Received vectors of every x in PSK^M, first antenna slowest."""
    points = np.asarray(cfg.constellation().points)
    M = cfg.tx_antennas
    x = np.array(list(itertools.product(points, repeat=M)))  # (P^M, M)
    return math.sqrt(rho / M) * x @ mimo_channel_matrix(cfg).T


def chunk_noise(samples, dims, noise_var, seed, stream):
    """The kernel's noise draws, chunk by chunk, as ``einsum_mutual_information``
    draws them: 512-draw chunks, one Philox substream per chunk."""
    for chunk, done in enumerate(range(0, samples, 512)):
        n = min(512, samples - done)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, stream, chunk))))
        yield math.sqrt(noise_var / 2.0) * (rng.standard_normal((n, dims)) + 1j * rng.standard_normal((n, dims)))


def kernel_rows(signals, noise_var, samples, seed, stream, rows):
    """Per chunk of the kernel's draws: the neighbours that the 2^-60 bound
    keeps for each of ``rows`` (rows x inputs, bool), and which of ``rows``
    keep a neighbour yet score more than 600 below the shared shift (the
    largest score of any kept neighbour) at some draw."""
    cut = 60.0 * math.log(2.0) + math.log(signals.shape[0])
    d2 = np.array([np.sum(np.abs(signals[i] - signals) ** 2, axis=1) for i in rows]) / noise_var
    for w in chunk_noise(samples, signals.shape[1], noise_var, seed, stream):
        w_max = math.sqrt(np.max(np.sum(np.abs(w) ** 2, axis=1)) / noise_var)
        keep = d2 - 2.0 * w_max * np.sqrt(d2) < cut
        live = np.count_nonzero(keep, axis=1) > 1
        q = 2.0 * (signals.conj() @ w.T).real / noise_var
        shift = np.max(q[np.any(keep[live], axis=0)], axis=0)
        yield keep, live & (np.min(q[list(rows)] - shift, axis=1) < -600.0)


class TestMutualInformationKernel:
    """``dcmc_capacity`` and the ``dcmc_psk`` baseline against the per-input
    reference loop on the same draws, scoring the same representatives:
    factoring the cross term and dropping neighbours below 2^-60 / n_inputs
    may move only the last digits."""

    CONFIGS = {
        "tiny": (dict(tx_antennas=2, oam_states=(-1, 1), constellation_order=2), 1100),
        "default": ({}, 600),
        "m8": (dict(tx_antennas=8), 130),
    }

    @pytest.fixture(scope="class")
    def tensors(self):
        return {
            name: build_channel_tensor(dataclasses.replace(SystemConfig(), **fields))
            for name, (fields, _) in self.CONFIGS.items()
        }

    @pytest.mark.parametrize("name", ["tiny", "default", "m8"])
    @pytest.mark.parametrize("snr", [-20.0, 0.0, 10.0, 20.0, 40.0])
    def test_dcmc_capacity_matches_reference(self, tensors, name, snr):
        tensor = tensors[name]
        cfg = tensor.config
        rho = cfg.rho_for_snr_db(snr)
        samples = self.CONFIGS[name][1]
        est = dcmc_capacity(tensor, rho, cfg.noise_power_w, samples, 21)
        value, stderr = einsum_mutual_information(
            clean_frames(tensor, rho), cfg.noise_power_w, samples, 21, 0xCA9, orbit_rows(tensor)
        )
        assert est.value == pytest.approx(value, abs=1e-12)
        assert est.std_error == pytest.approx(stderr, abs=1e-12)

    @pytest.mark.parametrize("snr", [0.0, 20.0])
    def test_dcmc_psk_baseline_matches_reference(self, default_config, snr):
        cfg = default_config
        rho = cfg.rho_for_snr_db(snr)
        est = mimo_capacity_baseline(cfg, rho, cfg.noise_power_w, mode="dcmc_psk", samples=40, seed=4)
        frames = psk_baseline_frames(cfg, rho)
        value, stderr = einsum_mutual_information(
            frames, cfg.noise_power_w, 40, 4, 0x313, range(frames.shape[0])
        )
        assert est.value == pytest.approx(value, abs=1e-12)
        assert est.std_error == pytest.approx(stderr, abs=1e-12)

    @pytest.mark.parametrize(
        "fields, samples",
        [
            (dict(tx_antennas=2, oam_states=(-1, 1), constellation_order=2), 4000),  # tiny, BPSK
            ({}, 1000),  # default, QPSK
            (dict(constellation_order=8), 400),
        ],
        ids=["tiny", "default", "8psk"],
    )
    @pytest.mark.parametrize("snr", [-10.0, 0.0, 6.0])
    def test_orbit_estimate_is_unbiased(self, fields, samples, snr):
        # The full-input estimator scores every input as the true one, on
        # draws independent of the kernel's; by the rotation symmetry both
        # have the same expectation.
        tensor = build_channel_tensor(dataclasses.replace(SystemConfig(), **fields))
        cfg = tensor.config
        rho = cfg.rho_for_snr_db(snr)
        frames = clean_frames(tensor, rho)
        est = dcmc_capacity(tensor, rho, cfg.noise_power_w, samples, 31)
        value, stderr = einsum_mutual_information(
            frames, cfg.noise_power_w, samples, 32, 0xCA9, range(frames.shape[0])
        )
        assert est.std_error > 0.0
        assert abs(est.value - value) < 3.0 * math.hypot(est.std_error, stderr)

    # The baseline has no ring gain: 0 dB transmit SNR is about -102 dB at
    # its receiver, and 102 dB is about 0 dB there.  At -102 dB one input
    # per rotation orbit reads ~5e4 times the full-input standard error.
    @pytest.mark.parametrize("snr", [0.0, 102.0])
    def test_dcmc_psk_as_precise_as_full_input_reference(self, default_config, snr):
        cfg = default_config
        rho = cfg.rho_for_snr_db(snr)
        est = mimo_capacity_baseline(cfg, rho, cfg.noise_power_w, mode="dcmc_psk", samples=600, seed=31)
        frames = psk_baseline_frames(cfg, rho)
        value, stderr = einsum_mutual_information(
            frames, cfg.noise_power_w, 600, 32, 0x313, range(frames.shape[0])
        )
        assert 0.0 < est.std_error <= 2.0 * stderr
        assert abs(est.value - value) < 3.0 * math.hypot(est.std_error, stderr)

    def test_saturated_point_is_exact(self, default_tensor, default_config):
        est = dcmc_capacity(
            default_tensor, default_config.rho_for_snr_db(40.0), default_config.noise_power_w, 1100, 53
        )
        assert est.value == 7.0
        assert est.std_error == 0.0

    def test_partial_pruning_matches_reference(self, default_tensor, default_config):
        # At 10 dB the bound drops some neighbours of some inputs but not all
        # of them, on the kernel's own draws.
        rho = default_config.rho_for_snr_db(10.0)
        nv = default_config.noise_power_w
        frames = clean_frames(default_tensor, rho)
        keeps = [keep for keep, _ in kernel_rows(frames, nv, 600, 8, 0xCA9, orbit_rows(default_tensor))]
        assert not all(np.all(keep) for keep in keeps), "no neighbour was dropped"
        assert any(np.any(np.count_nonzero(keep, axis=1) > 1) for keep in keeps), "every neighbour was dropped"
        est = dcmc_capacity(default_tensor, rho, nv, 600, 8)
        value, stderr = einsum_mutual_information(frames, nv, 600, 8, 0xCA9, orbit_rows(default_tensor))
        assert est.value == pytest.approx(value, abs=1e-14)
        assert est.std_error == pytest.approx(stderr, abs=1e-14)

    @pytest.mark.parametrize(
        "fields, snr, samples",
        [
            (dict(constellation_order=16), 30.0, 200),
            (dict(constellation_order=16), 40.0, 200),
            (dict(tx_antennas=8), 24.0, 130),
            (dict(tx_antennas=8), 28.0, 130),
        ],
        ids=["16psk-30", "16psk-40", "m8-24", "m8-28"],
    )
    def test_rows_below_the_shift_floor_match_reference(self, fields, snr, samples):
        # High received SNR: some live representative scores more than 600
        # below the shared shift, so it sums its own neighbours.
        tensor = build_channel_tensor(dataclasses.replace(SystemConfig(), **fields))
        cfg = tensor.config
        rho = cfg.rho_for_snr_db(snr)
        frames = clean_frames(tensor, rho)
        rows = orbit_rows(tensor)
        assert any(np.any(low) for _, low in kernel_rows(frames, cfg.noise_power_w, samples, 21, 0xCA9, rows))
        est = dcmc_capacity(tensor, rho, cfg.noise_power_w, samples, 21)
        value, stderr = einsum_mutual_information(frames, cfg.noise_power_w, samples, 21, 0xCA9, rows)
        assert est.value == pytest.approx(value, abs=1e-12)
        assert est.std_error == pytest.approx(stderr, abs=1e-12)

    @pytest.mark.parametrize("snr", [0.0, 20.0])
    def test_representative_blocks_match_reference(self, default_config, monkeypatch, snr):
        # Four blocks of 8 representatives, each redrawing the same two
        # chunks: a fresh tensor, as the session's one keeps its whole table.
        monkeypatch.setattr(numerics, "_TABLE_ENTRIES", 8 * 128)
        tensor = build_channel_tensor(dataclasses.replace(default_config))
        assert tensor.orbit_distances is None
        rho = default_config.rho_for_snr_db(snr)
        nv = default_config.noise_power_w
        est = dcmc_capacity(tensor, rho, nv, 600, 9)
        value, stderr = einsum_mutual_information(clean_frames(tensor, rho), nv, 600, 9, 0xCA9, orbit_rows(tensor))
        assert est.value == pytest.approx(value, abs=1e-12)
        assert est.std_error == pytest.approx(stderr, abs=1e-12)

    @pytest.mark.parametrize("psd", [3030.0, 3037.0])
    @pytest.mark.parametrize("snr", [0.0, 2.0])
    def test_noise_power_near_the_double_limit_matches_reference(self, psd, snr):
        # A noise power near 1e308 W: distances between frames on different
        # antennas, ~4e308 before dividing by it, are only a few noise powers.
        # Scaling signals and noise together leaves I(X; Y) unchanged, so the
        # reference runs on frames in units of the noise's standard deviation.
        cfg = dataclasses.replace(SystemConfig(), noise_psd_dbm_hz=psd, snr_db=snr)
        tensor = build_channel_tensor(cfg)
        rho, nv = cfg.rho_for_snr_db(snr), cfg.noise_power_w
        assert nv > 1e307
        frames = clean_frames(tensor, rho) / math.sqrt(nv)
        est = dcmc_capacity(tensor, rho, nv, 200, 21)
        value, stderr = einsum_mutual_information(frames, 1.0, 200, 21, 0xCA9, orbit_rows(tensor))
        assert 1.0 < value < 6.0
        assert est.value == pytest.approx(value, abs=1e-12)
        assert est.std_error == pytest.approx(stderr, abs=1e-12)
        base = mimo_capacity_baseline(cfg, rho, nv, mode="dcmc_psk", samples=40, seed=4)
        frames = psk_baseline_frames(cfg, rho) / math.sqrt(nv)
        value, stderr = einsum_mutual_information(frames, 1.0, 40, 4, 0x313, range(frames.shape[0]))
        assert base.value == pytest.approx(value, abs=1e-12)
        assert base.std_error == pytest.approx(stderr, abs=1e-12)

    def test_peak_memory_is_bounded(self):
        # A dense (representatives x inputs x draws) block would be 64 MiB
        # per 512-draw chunk at M=8.
        cfg = dataclasses.replace(SystemConfig(), tx_antennas=8)
        tensor = build_channel_tensor(cfg)
        rho = cfg.rho_for_snr_db(0.0)
        tracemalloc.start()
        try:
            dcmc_capacity(tensor, rho, cfg.noise_power_w, 2048, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def count_tables(monkeypatch):
    """Row counts of the ``numerics._distance_table`` calls that follow: the
    one binding of it, which the channel tensor and the kernel call."""
    formed = []
    real = numerics._distance_table

    def counting(coords, rows):
        formed.append(rows.size)
        return real(coords, rows)

    monkeypatch.setattr(numerics, "_distance_table", counting)
    return formed


class TestFrameDistanceTable:
    """The unit-power table of frame distances, formed once per channel
    tensor: the capacity kernel rescales it by rho / noise_var at every
    call, and the ML certificate reads its row minima."""

    def test_formed_once_for_a_tensor(self, monkeypatch):
        formed = count_tables(monkeypatch)
        cfg = dataclasses.replace(SystemConfig(), distance_m=51.0)
        tensor = build_channel_tensor(cfg)
        grid = [-20.0 + 2.0 * i for i in range(31)]
        estimates = [dcmc_capacity(tensor, cfg.rho_for_snr_db(s), cfg.noise_power_w, 30, 3) for s in grid]
        assert formed == [32]
        assert tensor.orbit_distances is build_channel_tensor(cfg).orbit_distances
        # A fresh tensor, with a fresh table, reads the same numbers.
        fresh = build_channel_tensor(dataclasses.replace(cfg))
        assert [dcmc_capacity(fresh, cfg.rho_for_snr_db(s), cfg.noise_power_w, 30, 3) for s in grid] == estimates
        assert formed == [32, 32]

    def test_one_table_serves_capacity_and_the_ml_certificate(self, monkeypatch):
        formed = count_tables(monkeypatch)
        cfg = dataclasses.replace(SystemConfig(), distance_m=51.0)
        tensor = build_channel_tensor(cfg)
        dcmc_capacity(tensor, cfg.rho_for_snr_db(0.0), cfg.noise_power_w, 30, 3)
        for snr in (40.0, 60.0, 80.0):
            simulate_ber(cfg, snr, 20000, 5, "ml", tensor=tensor)
        assert formed == [32]
        assert tensor.nearest_distances is build_channel_tensor(cfg).nearest_distances

    def test_one_hypothesis_table_serves_every_consumer(self, monkeypatch):
        # The capacity kernel, the distance tables, the ML certificate and
        # the ML scorer all read the tensor's kept unit_frames: on a fresh
        # tensor it is formed once, whichever consumer comes first.
        fresh = build_channel_tensor(dataclasses.replace(SystemConfig()))
        assert fresh.unit_frames is fresh.unit_frames
        built = []
        real = ChannelTensor.unit_frames.func

        def counting(tensor):
            built.append(tensor)
            return real(tensor)

        kept = functools.cached_property(counting)
        kept.__set_name__(ChannelTensor, "unit_frames")
        monkeypatch.setattr(ChannelTensor, "unit_frames", kept)
        cfg = dataclasses.replace(SystemConfig(), distance_m=51.0)
        tensor = build_channel_tensor(cfg)
        simulate_ber(cfg, [20.0, 60.0], 9000, 5, "ml", tensor=tensor)
        assert built == [tensor]
        dcmc_capacity(tensor, cfg.rho_for_snr_db(20.0), cfg.noise_power_w, 30, 3)
        demodulate_ml(tensor.entries[0, 0], tensor, cfg.rho_for_snr_db(20.0))
        assert built == [tensor]
        for kept_array in (tensor.unit_frames, tensor.unit_energies):
            with pytest.raises(ValueError):
                kept_array[0] = 0.0
        assert tensor.unit_frames.shape == (16, 128)
        assert np.allclose(tensor.unit_energies, np.sum(tensor.unit_frames**2, axis=0), rtol=1e-14, atol=0.0)

    def test_kept_table_is_read_only(self, default_tensor):
        table = default_tensor.orbit_distances
        assert table.shape == (32, 128)
        assert np.all(table[np.arange(32), 4 * np.arange(32)] == 0.0)
        with pytest.raises(ValueError):
            table[0, 1] = 0.0

    @pytest.mark.parametrize(
        "rho, noise_var",
        [(1e300, 1e-10), (1e-300, 1e10), (1e-300, 1e100)],
        ids=["snr-overflows", "snr-subnormal", "snr-underflows"],
    )
    def test_scale_at_the_double_limits_matches_reference(self, default_tensor, rho, noise_var):
        # rho / noise_var past the double range must not turn the zero
        # diagonal into 0 * inf = NaN; below it, the table scales to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = dcmc_capacity(default_tensor, rho, noise_var, 200, 21)
        with np.errstate(over="ignore"):
            value, stderr = einsum_mutual_information(
                clean_frames(default_tensor, rho), noise_var, 200, 21, 0xCA9, orbit_rows(default_tensor)
            )
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        assert est.value == pytest.approx(value, abs=1e-12)
        assert est.std_error == pytest.approx(stderr, abs=1e-12)


class TestMimoBaseline:
    def test_singular_values_kept_per_config(self, monkeypatch):
        built = []
        real = metrics.mimo_channel_matrix
        monkeypatch.setattr(metrics, "mimo_channel_matrix", lambda cfg: built.append(cfg) or real(cfg))
        cfg = dataclasses.replace(SystemConfig(), distance_m=51.0)

        def logdet_bits(config):
            return [mimo_capacity_baseline(config, cfg.rho_for_snr_db(s), cfg.noise_power_w).value for s in (0, 20, 40)]

        values = logdet_bits(cfg)
        assert built == [cfg]
        assert logdet_bits(dataclasses.replace(cfg)) == values
        assert len(built) == 2

    def test_zero_singular_value_adds_nothing(self):
        # At 1e103 Hz the plain array's smallest singular value can round to
        # 0. Its log2(1 + 0) = 0 term used to warn "divide by zero
        # encountered in log", which the test settings make an error.
        cfg = SystemConfig(carrier_freq_hz=1e103)
        cap = mimo_capacity_baseline(cfg, cfg.rho_for_snr_db(20.0), cfg.noise_power_w)
        assert math.isfinite(cap.value) and cap.value >= 0.0

    def test_zero_power(self, default_config):
        nv = default_config.noise_power_w
        for mode in ("logdet", "dcmc_psk"):
            est = mimo_capacity_baseline(default_config, 0.0, nv, mode=mode, samples=10)
            assert est.value == 0.0

    def test_siso_reduction(self):
        cfg = dataclasses.replace(
            SystemConfig(), tx_antennas=1, oam_states=(-1, 1), constellation_order=2
        )
        nv = cfg.noise_power_w
        rho = cfg.rho_for_snr_db(30.0)
        h = mimo_channel_matrix(cfg)[0, 0]
        expected = math.log2(1.0 + rho * abs(h) ** 2 / nv)
        est = mimo_capacity_baseline(cfg, rho, nv, mode="logdet")
        assert est.value == pytest.approx(expected, rel=1e-12)

    def test_dcmc_psk_entropy_bound(self, default_config):
        nv = default_config.noise_power_w
        # Strong signal: the estimate must respect the 8-bit input entropy.
        rho = nv * 1e12
        est = mimo_capacity_baseline(default_config, rho, nv, mode="dcmc_psk", samples=400, seed=3)
        assert est.value <= 8.0 + 3 * est.std_error + 1e-9

    @pytest.mark.parametrize("mode", ["logdet", "dcmc_psk"])
    def test_rejects_bad_noise_and_power(self, default_config, mode):
        nv = default_config.noise_power_w
        for rho in (0.0, default_config.rho_for_snr_db(0.0)):
            for bad in BAD_NOISE_VARS:
                with pytest.raises(ValueError):
                    mimo_capacity_baseline(default_config, rho, bad, mode=mode, samples=10)
        for bad in BAD_POWERS:
            with pytest.raises(ValueError):
                mimo_capacity_baseline(default_config, bad, nv, mode=mode, samples=10)

    def test_unknown_mode(self, default_config):
        with pytest.raises(ConfigError):
            mimo_capacity_baseline(default_config, 1.0, 1.0, mode="walrus")

    @pytest.mark.parametrize("samples", [0, -5, 2.5])
    @pytest.mark.parametrize("rho_db", [None, 10.0])
    def test_dcmc_psk_rejects_bad_sample_count(self, default_config, samples, rho_db):
        # 0 returned a quiet CapacityEstimate(0.0, 0.0, 0) with a "Mean of
        # empty slice" warning, -5 a numpy "negative dimensions" error.
        rho = 0.0 if rho_db is None else default_config.rho_for_snr_db(rho_db)
        nv = default_config.noise_power_w
        with pytest.raises(ValueError, match=f"samples must be a positive integer, got {samples}"):
            mimo_capacity_baseline(default_config, rho, nv, "dcmc_psk", samples, 0)

    def test_logdet_matches_determinant(self, default_config):
        cfg = default_config
        H = mimo_channel_matrix(cfg)
        M = cfg.tx_antennas
        for snr in (104.0, 130.0):
            rho = cfg.rho_for_snr_db(snr)
            gram = np.eye(M) + rho / (M * cfg.noise_power_w) * (H @ H.conj().T)
            expected = np.linalg.slogdet(gram)[1] / math.log(2.0)
            est = mimo_capacity_baseline(cfg, rho, cfg.noise_power_w, mode="logdet")
            assert est.value == pytest.approx(expected, rel=1e-12)

    def test_logdet_finite_when_power_ratio_overflows(self, default_config):
        # rho / (M sigma^2) = 1e600 / M overflows a float; every c mu_k is
        # then huge, so the sum is M log2 c + log2 det(H H*).
        H = mimo_channel_matrix(default_config)
        M = default_config.tx_antennas
        est = mimo_capacity_baseline(default_config, 1e300, 1e-300, mode="logdet")
        log2_c = (math.log(1e300) - math.log(M * 1e-300)) / math.log(2.0)
        expected = M * log2_c + np.linalg.slogdet(H @ H.conj().T)[1] / math.log(2.0)
        assert math.isfinite(est.value)
        assert est.value == pytest.approx(expected, rel=1e-12)


def scaled_first_antenna(tensor):
    """``tensor`` with transmit antenna 1's entries scaled by 1.5, so that its
    true pair's noncentrality (2.25 times the others') makes a second one."""
    entries = tensor.entries.copy()
    entries[0] *= 1.5
    return dataclasses.replace(tensor, entries=entries)


class TestAntennaDetectionProb:
    def test_single_antenna_is_certain(self):
        cfg = dataclasses.replace(
            SystemConfig(), tx_antennas=1, oam_states=(-1, 1), constellation_order=2
        )
        tensor = build_channel_tensor(cfg)
        assert antenna_detection_prob(tensor, 1, 1, 1 + 0j, 1.0, cfg.noise_power_w) == 1.0

    def test_no_signal_gives_chance_level(self, default_tensor, default_config):
        p = antenna_detection_prob(default_tensor, 1, 1, 1 + 0j, 0.0, default_config.noise_power_w)
        assert p == pytest.approx(0.25, abs=1e-9)

    def test_matches_monte_carlo_default_geometry(self, default_config, default_tensor):
        nv = default_config.noise_power_w
        for snr in (0.0, 10.0):
            rho = default_config.rho_for_snr_db(snr)
            analytic = antenna_detection_prob_avg(default_tensor, rho, nv)
            rep = simulate_ber(default_config, snr, 60000, 23, "stepwise", tensor=default_tensor)
            measured = 1.0 - rep.antenna_error_rate
            assert abs(analytic - measured) <= 3 * rep.antenna_error_stderr

    def test_matches_monte_carlo_resolvable_geometry(self, short_range_config, short_range_tensor):
        nv = short_range_config.noise_power_w
        rho = short_range_config.rho_for_snr_db(25.0)
        analytic = antenna_detection_prob_avg(short_range_tensor, rho, nv)
        rep = simulate_ber(short_range_config, 25.0, 60000, 29, "stepwise", tensor=short_range_tensor)
        measured = 1.0 - rep.antenna_error_rate
        assert abs(analytic - measured) <= 3 * rep.antenna_error_stderr
        assert analytic > 0.9  # the stage genuinely works here

    def test_rejects_bad_noise_and_power(self, default_tensor, default_config):
        nv = default_config.noise_power_w
        rho = default_config.rho_for_snr_db(0.0)
        for bad in BAD_NOISE_VARS:
            with pytest.raises(ValueError):
                antenna_detection_prob(default_tensor, 1, 1, 1 + 0j, rho, bad)
        for bad in BAD_POWERS:
            with pytest.raises(ValueError):
                antenna_detection_prob(default_tensor, 1, 1, 1 + 0j, bad, nv)

    @pytest.mark.parametrize("m", [0, 5, 1.5])
    def test_rejects_antenna_index_outside_one_to_m(self, default_tensor, default_config, m):
        # m = 0 used to read antenna 4 through the -1 wrap, m = 5 and 1.5 an
        # IndexError.
        rho = default_config.rho_for_snr_db(10.0)
        with pytest.raises(ConfigError, match=f"antenna index {m} "):
            antenna_detection_prob(default_tensor, m, 1, 1 + 0j, rho, default_config.noise_power_w)

    @pytest.mark.parametrize("x", [complex(math.nan), complex(math.inf), complex(0.0, math.nan), math.inf])
    def test_rejects_non_finite_point(self, default_tensor, default_config, x):
        # Used to raise "integration limits must be finite" from integrate.
        rho = default_config.rho_for_snr_db(10.0)
        with pytest.raises(ValueError, match="x must be a finite number"):
            antenna_detection_prob(default_tensor, 1, 1, x, rho, default_config.noise_power_w)

    @pytest.mark.parametrize("M, scaled", [(2, False), (4, False), (8, False), (4, True)])
    def test_average_equals_plain_mean_over_every_pair_and_state(self, M, scaled):
        cfg = dataclasses.replace(SystemConfig(), tx_antennas=M)
        tensor = build_channel_tensor(cfg)
        if scaled:
            tensor = scaled_first_antenna(tensor)
        nv = cfg.noise_power_w
        for snr in (-10.0, 10.0, 30.0):
            rho = cfg.rho_for_snr_db(snr)
            plain = np.mean(
                [
                    antenna_detection_prob(tensor, m, l, 1 + 0j, rho, nv)
                    for m in range(1, M + 1)
                    for l in tensor.states
                ]
            )
            assert antenna_detection_prob_avg(tensor, rho, nv) == pytest.approx(plain, abs=1e-12)

    def test_average_integrates_each_distinct_integral_once(
        self, default_tensor, default_config, monkeypatch
    ):
        # One integral per distinct true-pair noncentrality: all 32 (m, l)
        # at M = 4, L = 8 share it; scaling antenna 1 splits off its 8.
        calls = []
        real = metrics.integrate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "integrate", counting)
        nv = default_config.noise_power_w
        for tensor, integrals in ((default_tensor, 1), (scaled_first_antenna(default_tensor), 2)):
            for snr in (-10.0, 10.0, 30.0):
                calls.clear()
                antenna_detection_prob_avg(tensor, default_config.rho_for_snr_db(snr), nv)
                assert len(calls) == integrals

    @pytest.mark.parametrize("snr", [40.0, 50.0, 60.0, 70.0, 80.0])
    @pytest.mark.parametrize("m,l", [(2, 1), (1, 4)])
    def test_high_snr_matches_strongest_pair_monte_carlo(self, default_tensor, default_config, m, l, snr):
        nv = default_config.noise_power_w
        rho = default_config.rho_for_snr_db(snr)
        p = antenna_detection_prob(default_tensor, m, l, 1 + 0j, rho, nv)
        # The statistic |y_j|^2 / (nv / 2) at each pair's first antenna is
        # |sqrt(lam_j) + z_j|^2 with z_j unit complex Gaussian.
        h = default_tensor.entries[m - 1, default_tensor.state_index(l), :, 0]
        lam = 2.0 * rho * np.abs(h) ** 2 / nv
        rng = np.random.default_rng([m, l, int(snr)])
        draws = 200_000
        z = np.sqrt(lam) + rng.standard_normal((draws, lam.size)) + 1j * rng.standard_normal((draws, lam.size))
        p_mc = float(np.mean(np.argmax(np.abs(z) ** 2, axis=1) == m - 1))
        assert abs(p - p_mc) <= 5.0 * math.sqrt(p_mc * (1.0 - p_mc) / draws)
        # scipy.stats.ncx2 quadrature in r = sqrt(g) over sqrt(lam_m) +- 12.
        scipy_reference = {(2, 1, 70.0): 0.2896, (2, 1, 80.0): 0.3461, (1, 4, 70.0): 0.5132, (1, 4, 80.0): 0.6004}
        if (m, l, snr) in scipy_reference:
            assert p == pytest.approx(scipy_reference[(m, l, snr)], abs=1e-3)

    def test_one_pass_per_integral_at_any_snr(self, default_tensor, default_config, monkeypatch):
        # Unit panels over the bulk in r resolve each integral in the first
        # GK15 pass, so the cost does not grow with SNR.
        integrand_calls = []
        real = metrics.integrate

        def counting(f, *args, **kwargs):
            integrand_calls.append(0)

            def counted(r):
                integrand_calls[-1] += 1
                return f(r)

            return real(counted, *args, **kwargs)

        monkeypatch.setattr(metrics, "integrate", counting)
        nv = default_config.noise_power_w
        for tensor, integrals in ((default_tensor, 1), (scaled_first_antenna(default_tensor), 2)):
            for snr in (0.0, 40.0, 80.0):
                integrand_calls.clear()
                antenna_detection_prob_avg(tensor, default_config.rho_for_snr_db(snr), nv)
                assert len(integrand_calls) == integrals
                assert max(integrand_calls) <= 2

    def test_one_marcum_call_per_integrand_pass(self, default_tensor, default_config, monkeypatch):
        # Every distinct other-pair amplitude of a pass shares one broadcast
        # call, whose b has one row of the pass's nodes per amplitude.
        marcum_calls, pass_nodes = [], []
        real_marcum, real_integrate = metrics.marcum_q1, metrics.integrate

        def counting_marcum(a, b):
            marcum_calls.append((np.shape(a), np.size(b)))
            return real_marcum(a, b)

        def counting_integrate(f, *args, **kwargs):
            def counted(r):
                pass_nodes.append(np.size(r))
                return f(r)

            return real_integrate(counted, *args, **kwargs)

        monkeypatch.setattr(metrics, "marcum_q1", counting_marcum)
        monkeypatch.setattr(metrics, "integrate", counting_integrate)
        nv = default_config.noise_power_w
        M = default_tensor.entries.shape[0]
        h = default_tensor.entries[..., 0]
        other = np.broadcast_to(~np.eye(M, dtype=bool)[:, None, :], h.shape)
        for snr in (-10.0, 10.0, 40.0):
            marcum_calls.clear()
            pass_nodes.clear()
            rho = default_config.rho_for_snr_db(snr)
            amplitudes = np.sqrt(rho * np.abs(h[other]) ** 2 / (nv / 2.0))
            F = len({f"{v:.11e}" for v in amplitudes.tolist()})
            assert F > 1
            antenna_detection_prob_avg(default_tensor, rho, nv)
            assert pass_nodes
            assert marcum_calls == [((F, 1), F * n) for n in pass_nodes]

    def test_within_unit_interval_and_above_chance(self, default_tensor, default_config):
        nv = default_config.noise_power_w
        for snr in (-10.0, 0.0, 10.0, 20.0, 30.0):
            p = antenna_detection_prob_avg(default_tensor, default_config.rho_for_snr_db(snr), nv)
            assert 0.25 - 1e-9 <= p <= 1.0


class TestGrayGamma:
    def test_base_cases(self):
        assert gray_gamma(0) == 0.0
        assert gray_gamma(1) == pytest.approx(1.0, rel=1e-15)
        assert gray_gamma(2) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_rejects_negative(self):
        for n in (-1, 2.0):
            with pytest.raises(ValueError):
                gray_gamma(n)

    def test_closed_form_matches_recurrence(self):
        # gamma_n = gamma_(n-1) + (2^(n-1) - gamma_(n-1)) / (2^n - 1), bit for
        # bit up to 2048 antennas.
        gamma = 0.0
        for n in range(12):
            if n:
                gamma = gamma + (2.0 ** (n - 1) - gamma) / (2.0**n - 1.0)
            assert gray_gamma(n) == gamma


class TestAntennaAbep:
    # With a single constellation point abep is the antenna-index stage alone.
    def test_single_antenna_pinned_to_zero(self):
        cfg = SystemConfig(tx_antennas=1, oam_states=(-1, 1), constellation_order=1)
        assert abep(cfg, 1.0) == 0.0

    def test_two_antennas_bit_equals_symbol(self):
        cfg = SystemConfig(tx_antennas=2, constellation_order=1)
        tensor = build_channel_tensor(cfg)
        rho = cfg.rho_for_snr_db(10.0)
        e_symbol = 1.0 - antenna_detection_prob_avg(tensor, rho, cfg.noise_power_w)
        assert abep(cfg, rho, tensor=tensor) == pytest.approx(e_symbol, rel=1e-12)

    def test_four_antennas_weighting(self, default_tensor, default_config):
        cfg = dataclasses.replace(default_config, constellation_order=1)
        rho = cfg.rho_for_snr_db(10.0)
        e_symbol = 1.0 - antenna_detection_prob_avg(default_tensor, rho, cfg.noise_power_w)
        assert abep(cfg, rho, tensor=default_tensor) == pytest.approx(e_symbol * (2.0 / 3.0), rel=1e-12)

    def test_vanishes_at_high_snr_resolvable_geometry(self, short_range_tensor, short_range_config):
        cfg = dataclasses.replace(short_range_config, constellation_order=1)
        assert abep(cfg, cfg.rho_for_snr_db(40.0), tensor=short_range_tensor) < 1e-6

    def test_decreasing_in_snr(self, short_range_tensor, short_range_config):
        cfg = dataclasses.replace(short_range_config, constellation_order=1)
        vals = [abep(cfg, cfg.rho_for_snr_db(s), tensor=short_range_tensor) for s in (5.0, 15.0, 25.0, 35.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestModBep:
    def test_no_signal_gives_half_per_pair(self):
        const = psk_constellation(4)
        nv = 1.0
        value = mod_bep(1.0, 0.0, nv, const, "euclidean")
        hamming_sum = 0
        for p in range(4):
            for q in range(4):
                if p != q:
                    hamming_sum += sum(
                        c1 != c2 for c1, c2 in zip(const.bit_labels[p], const.bit_labels[q])
                    )
        assert value == pytest.approx(hamming_sum * 0.5 / (4 * 2), rel=1e-12)

    def test_bpsk_closed_forms(self):
        const = psk_constellation(2)
        rho, nv, h = 3.0, 2.0, 0.7
        snr = rho * abs(h) ** 2 / nv
        assert mod_bep(h, rho, nv, const, "euclidean") == pytest.approx(
            q_function(math.sqrt(2 * snr)), rel=1e-12
        )

    def test_euclidean_matches_bpsk_monte_carlo(self, default_config):
        nv = default_config.noise_power_w
        rng = np.random.default_rng(31)
        const = psk_constellation(2)
        for snr in (0.0, 4.0, 8.0):
            rho = default_config.rho_for_snr_db(snr)
            analytic = mod_bep(1.0, rho, nv, const, "euclidean")
            n = 100000
            bits = rng.integers(0, 2, n)
            x = 1.0 - 2.0 * bits
            y = math.sqrt(rho) * x + math.sqrt(nv / 2) * (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
            )
            errors = np.mean((y.real < 0).astype(int) != bits)
            se = math.sqrt(max(errors * (1 - errors), 1e-12) / n)
            assert abs(analytic - errors) <= 3 * se

    def test_rejects_zero_channel(self):
        with pytest.raises(ValueError):
            mod_bep(0.0, 1.0, 1.0, psk_constellation(2))

    def test_rejects_bad_noise_and_power(self):
        for bad in BAD_NOISE_VARS:
            with pytest.raises(ValueError):
                mod_bep(1.0, 1.0, bad, psk_constellation(4))
        for bad in BAD_POWERS:
            with pytest.raises(ValueError):
                mod_bep(1.0, bad, 1.0, psk_constellation(4))


class TestAbep:
    def test_compose_identity(self, default_config, default_tensor):
        cfg = default_config.resolved()
        rho = cfg.rho_for_snr_db(10.0)
        nv = cfg.noise_power_w
        total = abep(cfg, rho, tensor=default_tensor)
        e_ant = (1.0 - antenna_detection_prob_avg(default_tensor, rho, nv)) * gray_gamma(2) / 2
        const = cfg.constellation()
        mods = [
            mod_bep(default_tensor.response(m, l, m, 1), rho, nv, const)
            for m in range(1, cfg.tx_antennas + 1)
            for l in default_tensor.states
        ]
        e_mod = float(np.mean(mods))
        assert total == pytest.approx(1.0 - (1.0 - e_ant) * (1.0 - e_mod), abs=1e-12)

    @pytest.mark.parametrize("rho", BAD_POWERS)
    def test_rejects_bad_power(self, rho):
        # A single antenna and point skip both stages; the power used to be
        # read by neither, so nan, -1 and inf returned 0.0.
        with pytest.raises(ValueError):
            abep(SystemConfig(tx_antennas=1, constellation_order=1), rho)

    @pytest.mark.parametrize("other", [{"tx_antennas": 8}, {"oam_states": (-1, 1)}])
    def test_rejects_tensor_of_another_config(self, default_config, other):
        # A tensor of 8 antennas used to be read as if it had 4.
        tensor = build_channel_tensor(dataclasses.replace(default_config, **other))
        with pytest.raises(ConfigError, match="tensor"):
            abep(default_config, default_config.rho_for_snr_db(10.0), tensor=tensor)

    def test_constellation_stage_once_per_distinct_gain(self, default_config, default_tensor, monkeypatch):
        # Every in-ring entry of the default tensor has the same |h|.
        calls = []
        real = metrics.mod_bep

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "mod_bep", counting)
        abep(default_config, default_config.rho_for_snr_db(10.0), tensor=default_tensor)
        assert len(calls) == 1

    def test_nonincreasing_in_snr(self, default_config, default_tensor):
        cfg = default_config.resolved()
        vals = [abep(cfg, cfg.rho_for_snr_db(s), tensor=default_tensor) for s in range(-10, 32, 6)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_increasing_in_distance(self, default_config):
        cfg = default_config.resolved()
        vals = []
        for z in (25.0, 50.0, 100.0):
            c = dataclasses.replace(cfg, distance_m=z)
            vals.append(abep(c, c.rho_for_snr_db(15.0)))
        assert vals[0] < vals[1] < vals[2]

    def test_vanishes_at_high_snr_resolvable_geometry(self, short_range_config, short_range_tensor):
        cfg = short_range_config.resolved()
        assert abep(cfg, cfg.rho_for_snr_db(40.0), tensor=short_range_tensor) < 1e-9

    def test_within_unit_interval(self, default_config, default_tensor):
        cfg = default_config.resolved()
        for s in (-20.0, 0.0, 20.0):
            v = abep(cfg, cfg.rho_for_snr_db(s), tensor=default_tensor)
            assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("snr", [262.0, 290.0, 310.0, 330.0, 350.0, 400.0])
    def test_unresolvable_bulk_raises(self, default_config, default_tensor, snr):
        # Past c = sqrt(lam) ~ 8.8e12 the float grid near c is too coarse for
        # the unit bulk panels.  These SNRs used to return 2.3e-7, 1.9e-4,
        # 4.7e-3, 0.667, 0.667 and 0.667, where abep is about 0.
        rho = default_config.rho_for_snr_db(snr)
        with pytest.raises(NumericError, match="cannot resolve the bulk"):
            abep(default_config, rho, tensor=default_tensor)
        with pytest.raises(NumericError, match="cannot resolve the bulk"):
            antenna_detection_prob(default_tensor, 2, 1, 1.0, rho, default_config.noise_power_w)

    def test_values_inside_the_resolution_limit_are_unchanged(self, default_config, default_tensor):
        # The bulk-resolution check moves no value below its limit: fig8's
        # range, the 40-80 dB detection probabilities and abep up to 180 dB
        # are the values computed before it was added, to the bit.
        cfg, nv = default_config, default_config.noise_power_w
        abeps = {
            -10.0: 0.8516346205901417,
            0.0: 0.6186033066403636,
            10.0: 0.500165671042146,
            20.0: 0.4992732544015961,
            30.0: 0.49771244780298896,
            80.0: 0.3501619772962652,
            120.0: 2.4580226742898503e-11,
            150.0: 9.633027708844111e-11,
            180.0: 4.373978956806468e-11,
        }
        for snr, want in abeps.items():
            assert abep(cfg, cfg.rho_for_snr_db(snr), tensor=default_tensor) == want
        detections = {
            (2, 1, 40.0): 0.25137233530141495,
            (1, 4, 40.0): 0.2782464124753368,
            (2, 1, 50.0): 0.25431546160798496,
            (1, 4, 50.0): 0.32882415127789133,
            (2, 1, 70.0): 0.2895901140263621,
            (1, 4, 70.0): 0.5131512133384609,
            (2, 1, 80.0): 0.3461303727948501,
            (1, 4, 80.0): 0.6003623541862438,
        }
        for (m, l, snr), want in detections.items():
            assert antenna_detection_prob(default_tensor, m, l, 1.0, cfg.rho_for_snr_db(snr), nv) == want


class TestAbepGrid:
    CONFIGS = {
        "default": {},
        "M=2": {"tx_antennas": 2},
        "M=8": {"tx_antennas": 8},
        "M=1": {"tx_antennas": 1},
        "16-PSK": {"constellation_order": 16},
        "L=2": {"oam_states": (-1, 1)},
        "L=16": {"oam_states": tuple(range(-8, 0)) + tuple(range(1, 9))},
    }
    SNRS = [float(s) for s in range(-10, 31, 2)] + [80.0, 120.0, 150.0, 180.0]

    @pytest.mark.parametrize("changes", list(CONFIGS.values()), ids=list(CONFIGS))
    def test_grid_equals_one_call_per_rho(self, changes):
        cfg = dataclasses.replace(SystemConfig(), **changes)
        tensor = build_channel_tensor(cfg)
        nv = cfg.noise_power_w
        rhos = [cfg.rho_for_snr_db(s) for s in self.SNRS]
        assert abep(cfg, rhos, tensor=tensor) == [abep(cfg, rho, tensor=tensor) for rho in rhos]
        assert abep(cfg, tuple(rhos[:3])) == abep(cfg, np.array(rhos[:3]), tensor=tensor) == abep(cfg, rhos[:3])
        detection = antenna_detection_prob_avg(tensor, rhos, nv)
        assert detection == [antenna_detection_prob_avg(tensor, rho, nv) for rho in rhos]
        assert abep(cfg, [], tensor=tensor) == [] and antenna_detection_prob_avg(tensor, [], nv) == []

    @pytest.mark.parametrize("bad", BAD_POWERS)
    def test_every_rho_is_checked_before_any_integral(self, default_config, default_tensor, monkeypatch, bad):
        calls = []
        for name in ("integrate", "build_channel_tensor"):
            real = getattr(metrics, name)
            monkeypatch.setattr(metrics, name, lambda *a, _f=real, **k: calls.append(a) or _f(*a, **k))
        rhos = [default_config.rho_for_snr_db(s) for s in (0.0, 10.0)] + [bad]
        with pytest.raises(ValueError, match="rho must be finite and >= 0"):
            abep(default_config, rhos, tensor=default_tensor)
        with pytest.raises(ValueError, match="rho must be finite and >= 0"):
            abep(default_config, rhos)
        with pytest.raises(ValueError, match="rho must be finite and >= 0"):
            antenna_detection_prob_avg(default_tensor, rhos, default_config.noise_power_w)
        assert calls == []

    def test_grouping_once_per_call(self, default_config, default_tensor, monkeypatch):
        # The groupings key on the unit-power amplitudes, so a grid forms
        # them as often as one rho does: own amplitudes, other amplitudes
        # and gains.  Per rho come one integral and one mod_bep call.
        counts = {"_distinct": 0, "integrate": 0, "mod_bep": 0}
        for name in counts:
            real = getattr(metrics, name)

            def counting(*a, _n=name, _f=real, **k):
                counts[_n] += 1
                return _f(*a, **k)

            monkeypatch.setattr(metrics, name, counting)
        rhos = [default_config.rho_for_snr_db(s) for s in range(-10, 31, 2)]
        abep(default_config, rhos, tensor=default_tensor)
        assert counts == {"_distinct": 3, "integrate": 21, "mod_bep": 21}


class TestEnergyEfficiency:
    # The default config: 20 MHz, 6.8 W circuit power per chain, slope 4.
    def test_zero_capacity(self):
        assert energy_efficiency(0.0, 1.0, SystemConfig(), 1) == 0.0

    def test_single_chain_arithmetic(self):
        eta = energy_efficiency(7.0, 1.0, SystemConfig(), 1)
        assert eta == pytest.approx(20e6 * 7.0 / (6.8 + 4.0), rel=1e-12)
        assert eta == pytest.approx(1.296e7, rel=1e-3)

    def test_array_denominator(self):
        eta = energy_efficiency(7.0, 1.0, SystemConfig(), 4)
        assert eta == pytest.approx(20e6 * 7.0 / 31.2, rel=1e-12)

    def test_reads_the_config(self):
        cfg = SystemConfig(bandwidth_hz=1e6, circuit_power_w=2.0, power_slope=0.5)
        assert energy_efficiency(3.0, 4.0, cfg, 2) == pytest.approx(1e6 * 3.0 / (2 * 2.0 + 0.5 * 4.0), rel=1e-15)

    def test_single_chain_denominator_strictly_smaller(self):
        rho = 0.37
        d1 = 6.8 + 4.0 * rho
        d2 = 4 * 6.8 + 4.0 * rho
        assert d1 < d2
        cfg = SystemConfig()
        assert energy_efficiency(1.0, rho, cfg, 1) > energy_efficiency(1.0, rho, cfg, 4)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ConfigError):
            energy_efficiency(1.0, 0.0, SystemConfig(circuit_power_w=0.0), 1)

    @pytest.mark.parametrize(
        "cfg, rho, quantity",
        [
            # slope * rho overflows: the efficiency used to read 0.0.
            (SystemConfig(power_slope=1e300), 1e300, "power denominator"),
            # bandwidth * capacity / 4e-300 overflows: it used to read inf.
            (SystemConfig(circuit_power_w=0.0, bandwidth_hz=1e300), 1e-300, "energy efficiency"),
        ],
    )
    def test_rejects_unrepresentable_efficiency(self, cfg, rho, quantity):
        with pytest.raises(ConfigError, match=f"^{quantity} must be finite"):
            energy_efficiency(1.0, rho, cfg, 1)

    @pytest.mark.parametrize("rho", [math.inf, math.nan, -1.0])
    def test_rejects_bad_rho(self, rho):
        # rho = inf used to give 0.0 and nan a nan, both without an error.
        with pytest.raises(ValueError):
            energy_efficiency(1.0, rho, SystemConfig(), 1)

    @pytest.mark.parametrize("capacity", [math.inf, -math.inf, math.nan, -1.0])
    def test_rejects_bad_capacity(self, capacity):
        # nan used to give nan, and -1.0 bit a negative efficiency.
        with pytest.raises(ValueError):
            energy_efficiency(capacity, 1.0, SystemConfig(), 1)

    @pytest.mark.parametrize("n_active", [0, -1, 1.0])
    def test_rejects_bad_chain_count(self, n_active):
        with pytest.raises(ValueError):
            energy_efficiency(1.0, 1.0, SystemConfig(), n_active)

    @pytest.mark.parametrize(
        "power, slope", [(math.nan, 4.0), (math.inf, 4.0), (6.8, math.nan), (6.8, math.inf)]
    )
    def test_power_model_rejects_non_finite(self, power, slope):
        # The power model is the config's circuit_power_w and power_slope.
        with pytest.raises(ConfigError):
            SystemConfig(circuit_power_w=power, power_slope=slope)
