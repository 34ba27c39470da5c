"""Bit mapping, transmission, detection, and Monte Carlo error counting."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oamsm import (
    BerReport,
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
        assert cmap.decode(sym) == ""

    def test_word_is_the_bit_string(self, default_map):
        # The vectorised integer label and the public bit string are one layout.
        syms = list(default_map.all_symbols())
        idx = np.array([(s.antenna - 1, default_map.states.index(s.state), s.point_index) for s in syms])
        words = default_map.word(idx[:, 0], idx[:, 1], idx[:, 2])
        assert [format(int(w), "07b") for w in words] == [default_map.decode(s) for s in syms]
        assert list(words) == list(range(128))

    def test_rejects_empty_state_set(self):
        # An empty set used to construct, with state_bits == -1 and no symbols.
        with pytest.raises(ConfigError):
            SymbolMap(4, (), psk_constellation(4))

    def test_rejects_duplicate_bit_labels(self):
        twins = Constellation(order=2, points=(1 + 0j, -1 + 0j), bit_labels=("0", "0"))
        with pytest.raises(ConfigError):
            SymbolMap(2, (-1, 1), twins)


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

    def test_rejects_non_finite_power_and_noise(self, default_tensor, default_map):
        # noise_var = nan used to return the noiseless frame, and a NaN or
        # infinite rho a NaN frame.
        sym = default_map.encode("0000000")
        rng = np.random.default_rng(2)
        for rho, nv in ((1.0, math.nan), (1.0, math.inf), (math.nan, 0.1), (math.inf, 0.1), (-1.0, 0.1)):
            with pytest.raises(ValueError):
                transmit(sym, default_tensor, rho, nv, rng)

    def test_seeded_repeatability(self, default_tensor, default_map):
        sym = default_map.encode("0101010")
        f1 = transmit(sym, default_tensor, 1.0, 0.1, np.random.default_rng(99))
        f2 = transmit(sym, default_tensor, 1.0, 0.1, np.random.default_rng(99))
        assert np.array_equal(f1, f2)


def reference_decisions(config, tensor, y, rho, detector):
    """0-based (antenna, state, point) indices of each (M, 2) frame in ``y``,
    decided in one block by the rule written out here, apart from the
    package: the whole ML residual at once, or the three stepwise steps."""
    points = np.asarray(config.constellation().points)
    M = config.tx_antennas
    states = np.asarray(tensor.states)
    n_states, P = states.size, points.size
    sqrt_rho = math.sqrt(rho)
    if detector == "ml":
        hyp = (sqrt_rho * tensor.entries[:, :, None] * points[None, None, :, None, None]).reshape(-1, M, 2)
        flat = np.argmin(np.sum(np.abs(y[:, None] - hyp[None]) ** 2, axis=(2, 3)), axis=1)
        return flat // (n_states * P), (flat // P) % n_states, flat % P
    in_ring = tensor.entries[np.arange(M), :, np.arange(M), 0]
    m_hat = np.argmax(np.abs(y[:, :, 0]) ** 2, axis=1)
    pair = y[np.arange(len(y)), m_hat]
    delta = np.angle(pair[:, 0] * np.conj(pair[:, 1]))
    wrapped = np.remainder(delta[:, None] - config.beta_value * states + np.pi, 2 * np.pi) - np.pi
    l_hat = np.argmin(np.abs(wrapped), axis=1)
    resid = np.abs(pair[:, 0, None] - sqrt_rho * in_ring[m_hat, l_hat][:, None] * points) ** 2
    return m_hat, l_hat, np.argmin(resid, axis=1)


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

    @pytest.mark.parametrize("snr", [0.0, 10.0])
    def test_single_frame_matches_reference_on_noisy_frames(
        self, default_config, default_tensor, default_map, snr
    ):
        rng = np.random.default_rng(4000 + int(snr))
        rho = default_config.rho_for_snr_db(snr)
        sent = [default_map.encode(format(int(w), "07b")) for w in rng.integers(0, 128, size=300)]
        frames = np.stack(
            [transmit(s, default_tensor, rho, default_config.noise_power_w, rng) for s in sent]
        )
        for name, detector in (("stepwise", demodulate_stepwise), ("ml", demodulate_ml)):
            want = np.column_stack(reference_decisions(default_config, default_tensor, frames, rho, name))
            got = np.array(
                [
                    (out.antenna - 1, default_tensor.state_index(out.state), out.point_index)
                    for out in (detector(f, default_tensor, rho) for f in frames)
                ]
            )
            assert np.array_equal(got, want)
            # The noise must move some decisions, or the check shows nothing.
            truth = [(s.antenna - 1, default_tensor.state_index(s.state), s.point_index) for s in sent]
            assert np.any(got != np.array(truth))

    def test_ml_at_zero_power_picks_first_hypothesis(self, default_config, default_tensor, default_map):
        # At rho = 0 every hypothesis is the zero frame and scores the same,
        # so the lowest index wins: antenna 1, the first state, point 0.
        sym = default_map.encode("1011011")
        frame = transmit(sym, default_tensor, 1.0, default_config.noise_power_w, np.random.default_rng(8))
        out = demodulate_ml(frame, default_tensor, 0.0)
        assert (out.antenna, out.state, out.point_index) == (1, default_tensor.states[0], 0)

    def test_state_decision_at_its_boundaries(self, default_config, default_tensor):
        # Pair phase differences 1e-9 rad below and above every decision
        # boundary: the midpoint between each two adjacent signatures
        # beta * l, and the +-pi cut between the last state and the first.
        # The decisions must match the angle/wrap reference and fall on the
        # side of the boundary the phase lies on.
        sig = default_config.beta_value * np.array(default_tensor.states)
        n_states = sig.size
        mids = (sig[:-1] + sig[1:]) / 2
        deltas = np.concatenate([mids - 1e-9, mids + 1e-9, [np.pi - 1e-9, -np.pi + 1e-9]])
        nearest = np.concatenate([np.arange(n_states - 1), np.arange(1, n_states), [n_states - 1, 0]])
        rho = default_config.rho_for_snr_db(20.0)
        frames = np.zeros((len(deltas), 4, 2), dtype=complex)
        frames[:, 2, 0] = 3.0 * np.exp(1j * deltas)
        frames[:, 2, 1] = 3.0
        want = np.column_stack(reference_decisions(default_config, default_tensor, frames, rho, "stepwise"))
        got = np.array(
            [
                (out.antenna - 1, default_tensor.state_index(out.state), out.point_index)
                for out in (demodulate_stepwise(f, default_tensor, rho) for f in frames)
            ]
        )
        assert np.array_equal(got, want)
        assert np.array_equal(got[:, 1], nearest)

    def test_stepwise_all_zero_frame_picks_lowest_indices(self, default_config, default_tensor):
        # Every antenna, state and point scores 0, so the lowest index wins:
        # antenna 1, the first state, point 0.  The angle/wrap rule took
        # angle(0) = 0 and decided state -1.  A real-valued frame reads as
        # the complex one.
        rho = default_config.rho_for_snr_db(20.0)
        for dtype in (complex, float):
            out = demodulate_stepwise(np.zeros((4, 2), dtype=dtype), default_tensor, rho)
            assert (out.antenna, out.state, out.point_index) == (1, default_tensor.states[0], 0)

    @pytest.mark.parametrize("detect", [demodulate_stepwise, demodulate_ml])
    @pytest.mark.parametrize(
        "frame, rho",
        [
            (np.zeros((3, 2)), 1.0),
            (np.zeros((4, 3)), 1.0),
            (np.full((4, 2), np.nan), 1.0),
            (np.array([[np.inf, 0.0]] * 4), 1.0),
            (np.zeros((4, 2)), math.inf),
            (np.zeros((4, 2)), math.nan),
            (np.zeros((4, 2)), -1.0),
        ],
        ids=["3x2", "4x3", "nan-frame", "inf-frame", "rho-inf", "rho-nan", "rho-negative"],
    )
    def test_rejects_bad_frame_or_power(self, default_tensor, detect, frame, rho):
        # These used to decide a symbol (a wrong-shaped or all-NaN frame,
        # ML at rho = inf) or raise a bare "math domain error" (rho = -1).
        with pytest.raises(ValueError):
            detect(frame, default_tensor, rho)

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


def unblocked_ber(config, tensor, snr_db, trials, seed, detector, rows=None):
    """Reference for ``simulate_ber``: the same draws (8192-trial chunks, one
    Philox substream per chunk) with each chunk's detection done in a single
    block by ``reference_decisions``, or in slices of ``rows`` frames where
    one block's residual would not fit in memory."""
    const = config.constellation()
    points = np.asarray(const.points)
    M = config.tx_antennas
    n_states, P = len(tensor.states), points.size
    s_bits, p_bits = n_states.bit_length() - 1, P.bit_length() - 1
    bits = (M.bit_length() - 1) + s_bits + p_bits
    gray = np.asarray([int(lbl, 2) if lbl else 0 for lbl in const.bit_labels])
    rho = config.rho_for_snr_db(snr_db)
    sigma = math.sqrt(config.noise_power_w / 2.0)
    errors = np.zeros(4, dtype=np.int64)  # bits, antenna, state, symbol
    for chunk, lo in enumerate(range(0, trials, 8192)):
        n = min(8192, trials - lo)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 0xBE7, chunk))))
        m_idx = rng.integers(0, M, size=n)
        l_idx = rng.integers(0, n_states, size=n)
        p_idx = rng.integers(0, P, size=n)
        noise = sigma * (rng.standard_normal((n, M, 2)) + 1j * rng.standard_normal((n, M, 2)))
        y = math.sqrt(rho) * tensor.entries[m_idx, l_idx] * points[p_idx][:, None, None] + noise
        step = rows or n
        blocks = [reference_decisions(config, tensor, y[i : i + step], rho, detector) for i in range(0, n, step)]
        m_hat, l_hat, p_hat = (np.concatenate(parts) for parts in zip(*blocks))
        xor = (m_idx ^ m_hat) << (s_bits + p_bits) | (l_idx ^ l_hat) << p_bits | (gray[p_idx] ^ gray[p_hat])
        errors += [
            sum(bin(int(v)).count("1") for v in xor),
            np.count_nonzero(m_hat != m_idx),
            np.count_nonzero(l_hat != l_idx),
            np.count_nonzero((m_hat != m_idx) | (l_hat != l_idx) | (p_hat != p_idx)),
        ]
    return errors, trials * bits


def reference_report(config, tensor, snr_db, trials, seed, detector, rows=None):
    """The ``BerReport`` that ``simulate_ber`` must return, built from the
    error counts of ``unblocked_ber``."""
    errors, total_bits = unblocked_ber(config, tensor, snr_db, trials, seed, detector, rows)
    rates = [errors[0] / total_bits, *(e / trials for e in errors[1:])]
    counts = [total_bits, trials, trials, trials]
    se = [math.sqrt(r * (1 - r) / c) for r, c in zip(rates, counts)]
    return BerReport(
        trials=trials,
        bits_per_symbol=total_bits // trials,
        bit_error_rate=rates[0],
        bit_error_stderr=se[0],
        antenna_error_rate=rates[1],
        antenna_error_stderr=se[1],
        state_error_rate=rates[2],
        state_error_stderr=se[2],
        symbol_error_rate=rates[3],
        symbol_error_stderr=se[3],
        detector=detector,
        snr_db=snr_db,
        seed=seed,
    )


class TestSimulateBer:
    def test_noise_only_antenna_rate(self, default_config):
        rep = simulate_ber(default_config, -300.0, 40000, 11, "stepwise")
        correct = 1.0 - rep.antenna_error_rate
        assert abs(correct - 0.25) <= 3 * rep.antenna_error_stderr

    def test_counts_every_bit_of_a_wide_codeword(self):
        # 64 antennas, 2 states and 1024-PSK make 17 bits per codeword.  At
        # -300 dB the sent word is independent of the decision, so every bit
        # errs with probability 1/2; counting only the low 16 bits read
        # 16 * 0.5 / 17 = 0.47.
        cfg = SystemConfig(tx_antennas=64, oam_states=(-1, 1), constellation_order=1024)
        rep = simulate_ber(cfg, -300.0, 20000, 5, "stepwise")
        assert rep.bits_per_symbol == 17
        assert abs(rep.bit_error_rate - 0.5) <= 4 * rep.bit_error_stderr

    def test_stepwise_memory_is_bounded_by_row_blocks(self):
        # 1024-PSK: deciding the point for a whole 8192-trial chunk at once
        # builds (8192, 1024) complex temporaries, and this call peaked at
        # 290 MiB under tracemalloc that way.  Row blocks bound them.
        cfg = SystemConfig(tx_antennas=64, oam_states=(-1, 1), constellation_order=1024)
        tensor = build_channel_tensor(cfg)
        tracemalloc.start()
        try:
            simulate_ber(cfg, 20.0, 20000, 5, "stepwise", tensor=tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 290 * 2**20 / 3

    def test_frame_memory_is_bounded(self):
        # The chunk's noise is drawn straight into the frame and the signal
        # added in place, so no separate noise array and its complex
        # temporaries (~17 MB each at M = 64) are kept; this call peaked at
        # 73.6 MiB under tracemalloc with them.
        cfg = SystemConfig(tx_antennas=64, oam_states=(-1, 1), constellation_order=1024)
        tensor = build_channel_tensor(cfg)
        tracemalloc.start()
        try:
            simulate_ber(cfg, 20.0, 20000, 5, "stepwise", tensor=tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20

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

    @pytest.mark.parametrize("detector", ["stepwise", "ml"])
    @pytest.mark.parametrize("snr", [0.0, 40.0])
    def test_matches_unblocked_reference(self, default_config, default_tensor, detector, snr):
        # 9000 trials span two 8192-trial chunks; the ML argmin runs in row
        # blocks inside each chunk and must decide exactly as one block does.
        rep = simulate_ber(default_config, snr, 9000, 23, detector, tensor=default_tensor)
        (bit_err, ant_err, st_err, sym_err), total_bits = unblocked_ber(
            default_config, default_tensor, snr, 9000, 23, detector
        )
        rates = [bit_err / total_bits, ant_err / 9000, st_err / 9000, sym_err / 9000]
        counts = [total_bits, 9000, 9000, 9000]
        assert rep == BerReport(
            trials=9000,
            bits_per_symbol=total_bits // 9000,
            bit_error_rate=rates[0],
            bit_error_stderr=math.sqrt(rates[0] * (1 - rates[0]) / counts[0]),
            antenna_error_rate=rates[1],
            antenna_error_stderr=math.sqrt(rates[1] * (1 - rates[1]) / counts[1]),
            state_error_rate=rates[2],
            state_error_stderr=math.sqrt(rates[2] * (1 - rates[2]) / counts[2]),
            symbol_error_rate=rates[3],
            symbol_error_stderr=math.sqrt(rates[3] * (1 - rates[3]) / counts[3]),
            detector=detector,
            snr_db=snr,
            seed=23,
        )

    @pytest.mark.parametrize("name", ["default", "m8", "tiny"])
    @pytest.mark.parametrize("snr", [-10.0, 0.0, 10.0, 40.0])
    def test_factored_ml_matches_direct_residual(self, request, name, snr):
        # simulate_ber scores ML hypotheses by ||s||^2 - 2 Re<y, s>; the
        # reference takes the argmin of |y - s|^2 itself.  9000 trials span
        # two chunks; the reference works in 256-frame slices so that the
        # M = 8 residual (256 hypotheses x 16 entries per frame) stays small.
        cfg = {
            "default": SystemConfig(),
            "m8": dataclasses.replace(SystemConfig(), tx_antennas=8),
            "tiny": request.getfixturevalue("tiny_config"),
        }[name]
        tensor = build_channel_tensor(cfg)
        rep = simulate_ber(cfg, snr, 9000, 29, "ml", tensor=tensor)
        assert rep == reference_report(cfg, tensor, snr, 9000, 29, "ml", rows=256)

    @pytest.mark.parametrize("name", ["tiny", "m8", "psk16", "order1", "short_range"])
    @pytest.mark.parametrize("snr", [-10.0, 0.0, 10.0, 20.0, 40.0, 80.0])
    def test_stepwise_matches_angle_reference(self, request, name, snr):
        # simulate_ber decides the state and point by real products; the
        # reference takes np.angle of the pair product, wraps its distance to
        # each signature and minimizes the complex point residual.  9000
        # trials span two chunks.
        cfg = {
            "tiny": request.getfixturevalue("tiny_config"),
            "m8": dataclasses.replace(SystemConfig(), tx_antennas=8),
            "psk16": SystemConfig(constellation_order=16),
            "order1": SystemConfig(constellation_order=1),
            "short_range": request.getfixturevalue("short_range_config"),
        }[name]
        tensor = build_channel_tensor(cfg)
        rep = simulate_ber(cfg, snr, 9000, 37, "stepwise", tensor=tensor)
        assert rep == reference_report(cfg, tensor, snr, 9000, 37, "stepwise")

    @pytest.mark.parametrize(
        "detector, cfg, snr, trials, seed, bound_mib",
        [
            # 16-PSK makes 256 hypotheses; a (1024, 256, 4, 2) complex
            # residual per block peaked at 102 MiB here.
            ("ml", SystemConfig(constellation_order=16), 10.0, 9000, 3, 16),
            # 1024-PSK: point-decision blocks of 1024 rows held (1024, 1024)
            # complex temporaries and peaked at 58.1 MiB.
            ("stepwise", SystemConfig(tx_antennas=64, oam_states=(-1, 1), constellation_order=1024), 20.0, 20000, 5, 40),
        ],
    )
    def test_memory_is_bounded_by_element_blocks(self, detector, cfg, snr, trials, seed, bound_mib):
        # Blocks bound rows x candidates (hypotheses or points), not rows.
        tensor = build_channel_tensor(cfg)
        tracemalloc.start()
        try:
            simulate_ber(cfg, snr, trials, seed, detector, tensor=tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

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

    @pytest.mark.parametrize("trials", [0, -5, 2.5])
    def test_rejects_bad_trial_count(self, default_config, default_tensor, trials):
        # 2.5 raised a bare TypeError.
        with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials}"):
            simulate_ber(default_config, 0.0, trials, 1, "stepwise", tensor=default_tensor)
