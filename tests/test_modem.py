"""Bit mapping, transmission, detection, and Monte Carlo error counting."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chi2

from oamsm import (
    BerReport,
    ChannelTensor,
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
from oamsm import modem


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

    def test_rejects_non_integer_state(self):
        # Used to be truncated to (-1, 1) without a word.
        with pytest.raises(ConfigError, match="OAM state 1.5 is not an integer"):
            SymbolMap(2, (1.5, -1), psk_constellation(4))

    def test_states_accept_numpy_integers(self):
        cmap = SymbolMap(2, tuple(np.array([1, -1])), psk_constellation(4))
        assert cmap.states == (-1, 1)
        assert all(type(l) is int for l in cmap.states)

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


def hypotheses(tensor, rho):
    """(H, M, 2) clean frames of every (m, l, p) hypothesis, in flat order."""
    points = np.asarray(tensor.config.constellation().points)
    M = tensor.entries.shape[0]
    return (math.sqrt(rho) * tensor.entries[:, :, None] * points[None, None, :, None, None]).reshape(-1, M, 2)


def ml_radii(tensor, rho):
    """``modem._ml_radii`` of the tensor's clean frames, indexed m * L + l."""
    M, n_states = tensor.entries.shape[:2]
    points = np.asarray(tensor.config.constellation().points)
    return modem._ml_radii(math.sqrt(rho) * tensor.entries.reshape(M * n_states, 2 * M), points)


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
        hyp = hypotheses(tensor, rho)
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


def unblocked_ber(config, tensor, snr_db, trials, seed, detector, rows=None, full_draw=False):
    """Reference for ``simulate_ber``: the same draws (8192-trial chunks, one
    Philox substream per chunk) with each chunk's detection done in a single
    block by ``reference_decisions``, or in slices of ``rows`` frames where
    one block's residual would not fit in memory.

    ML takes the radius draw where the chi2 cdf predicts that at least a
    quarter of the trials certify: one chi2(4M) energy per trial, then the
    (2, k, M, 2) directions of the k trials it leaves uncertified, rescaled
    to that norm and scored; the certified trials are counted as decided
    correctly.  Elsewhere ML draws the whole (2, n, M, 2) frame noise.
    Stepwise draws the (2, n, M) first-antenna noise, decides the antenna by
    the reference rule, then draws (2, n) for the decided pair's second
    sample; the other second samples stay noiseless, as the rule never reads
    them.  ``full_draw`` gives either rule the whole frame noise instead: the
    same distribution, other draws.
    """
    const = config.constellation()
    points = np.asarray(const.points)
    M = config.tx_antennas
    n_states, P = len(tensor.states), points.size
    s_bits, p_bits = n_states.bit_length() - 1, P.bit_length() - 1
    bits = (M.bit_length() - 1) + s_bits + p_bits
    gray = np.asarray([int(lbl, 2) if lbl else 0 for lbl in const.bit_labels])
    rho = config.rho_for_snr_db(snr_db)
    sigma = math.sqrt(config.noise_power_w / 2.0)
    cert_energy = (ml_radii(tensor, rho) / sigma) ** 2
    radius_draw = detector == "ml" and not full_draw and chi2.cdf(cert_energy, 4 * M).mean() >= 0.25
    errors = np.zeros(5, dtype=np.int64)  # bits, antenna, state, symbol, sum of squared bit errors
    for chunk, lo in enumerate(range(0, trials, 8192)):
        n = min(8192, trials - lo)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 0xBE7, chunk))))
        m_idx = rng.integers(0, M, size=n)
        l_idx = rng.integers(0, n_states, size=n)
        p_idx = rng.integers(0, P, size=n)
        sent = math.sqrt(rho) * tensor.entries[m_idx, l_idx] * points[p_idx][:, None, None]
        live = np.ones(n, dtype=bool)
        if radius_draw:
            energy = rng.chisquare(4 * M, size=n)
            live = energy >= cert_energy[m_idx * n_states + l_idx]
            d = rng.standard_normal((2, np.count_nonzero(live), M, 2))
            scale = sigma * np.sqrt(energy[live] / np.sum(d**2, axis=(0, 2, 3)))
            y = sent[live] + scale[:, None, None] * (d[0] + 1j * d[1])
        elif detector == "ml" or full_draw:
            y = sent + sigma * (rng.standard_normal((n, M, 2)) + 1j * rng.standard_normal((n, M, 2)))
        else:
            y = sent
            y[:, :, 0] += sigma * (rng.standard_normal((n, M)) + 1j * rng.standard_normal((n, M)))
            m_hat = reference_decisions(config, tensor, y, rho, detector)[0]
            y[np.arange(n), m_hat, 1] += sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        step = rows or max(len(y), 1)
        blocks = [reference_decisions(config, tensor, y[i : i + step], rho, detector) for i in range(0, len(y), step)]
        m_hat, l_hat, p_hat = m_idx.copy(), l_idx.copy(), p_idx.copy()
        for decided, parts in zip((m_hat, l_hat, p_hat), zip(*blocks)):
            decided[live] = np.concatenate(parts)
        xor = (m_idx ^ m_hat) << (s_bits + p_bits) | (l_idx ^ l_hat) << p_bits | (gray[p_idx] ^ gray[p_hat])
        per_trial = [bin(int(v)).count("1") for v in xor]
        errors += [
            sum(per_trial),
            np.count_nonzero(m_hat != m_idx),
            np.count_nonzero(l_hat != l_idx),
            np.count_nonzero((m_hat != m_idx) | (l_hat != l_idx) | (p_hat != p_idx)),
            sum(e * e for e in per_trial),
        ]
    return errors, trials * bits


def reference_report(config, tensor, snr_db, trials, seed, detector, rows=None, full_draw=False):
    """The ``BerReport`` that ``simulate_ber`` must return, built from the
    error counts of ``unblocked_ber``."""
    errors, total_bits = unblocked_ber(config, tensor, snr_db, trials, seed, detector, rows, full_draw)
    rates = [errors[0] / total_bits, *(e / trials for e in errors[1:4])]
    counts = [total_bits, trials, trials, trials]
    se = [math.sqrt(r * (1 - r) / c) for r, c in zip(rates, counts)]
    # The bit rate's error is that of the mean of the per-trial bit-error
    # counts, whose bits err together; it is binomial only for 1-bit words.
    bits, mean = total_bits // trials, errors[0] / trials
    se[0] = math.sqrt(max(mean * (errors[4] / errors[0] - mean), 0.0) / trials) / bits if errors[0] else 0.0
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


def count_scored(monkeypatch):
    """A list that collects the number of frames of every ML ``decide`` call
    (the scored trials) once ``modem._detector`` is patched here."""
    seen = []
    real = modem._detector

    def counting(*args):
        decide = real(*args)

        def wrapped(y):
            seen.append(len(y))
            return decide(y)

        return wrapped

    monkeypatch.setattr(modem, "_detector", counting)
    return seen


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
        assert rep == reference_report(default_config, default_tensor, snr, 9000, 23, detector)

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

    @pytest.mark.parametrize("name", ["tiny", "default", "m8", "psk16"])
    @pytest.mark.parametrize("snr", [-10.0, 0.0, 10.0, 20.0])
    def test_stepwise_draw_matches_full_frame_draw_in_distribution(self, request, name, snr):
        # Stepwise draws only the noise its rule reads; the unread noise is
        # independent of what it reads, so the error rates must agree with
        # the full-frame draw's on independent seeds.  The full-frame side's
        # bit error is taken as binomial here, up to 1.4x too small (the bits
        # of one codeword err together), so the bound of 4 allows for it.
        cfg = {
            "tiny": request.getfixturevalue("tiny_config"),
            "default": SystemConfig(),
            "m8": dataclasses.replace(SystemConfig(), tx_antennas=8),
            "psk16": SystemConfig(constellation_order=16),
        }[name]
        tensor = build_channel_tensor(cfg)
        trials = 20000
        rep = simulate_ber(cfg, snr, trials, 53, "stepwise", tensor=tensor)
        errors, total_bits = unblocked_ber(cfg, tensor, snr, trials, 54, "stepwise", full_draw=True)
        got = [rep.bit_error_rate, rep.antenna_error_rate, rep.state_error_rate, rep.symbol_error_rate]
        se = [rep.bit_error_stderr, rep.antenna_error_stderr, rep.state_error_stderr, rep.symbol_error_stderr]
        counts = [total_bits, trials, trials, trials]
        for g, s, e, c in zip(got, se, errors, counts):
            r = e / c
            assert abs(g - r) <= 4 * math.sqrt(s**2 + r * (1 - r) / c)

    @pytest.mark.parametrize("poison", [1e300, math.nan])
    def test_stepwise_reads_only_first_antennas_and_decided_pair(self, default_config, default_tensor, poison):
        # Overwrite the second sample of every pair but the decided one: the
        # decisions must not move, or the stepwise draw would be wrong.
        rho = default_config.rho_for_snr_db(10.0)
        rng = np.random.default_rng(61)
        y = rng.standard_normal((3000, 4, 2)) + 1j * rng.standard_normal((3000, 4, 2))
        decide = modem._detector(default_tensor, rho, "stepwise")
        want = decide(y)
        unread = np.ones((3000, 4), dtype=bool)
        unread[np.arange(3000), want[0]] = False
        y[:, :, 1][unread] = poison * (1 + 1j)
        for w, g in zip(want, decide(y)):
            assert np.array_equal(w, g)

    @pytest.mark.parametrize("name", ["tiny", "default", "m8"])
    @pytest.mark.parametrize(
        "detector, snr",
        [("stepwise", 10.0), ("ml", -300.0), ("ml", 0.0), ("ml", 10.0), ("ml", 30.0), ("ml", 40.0), ("ml", 80.0)],
    )
    def test_normals_drawn_per_trial(self, request, monkeypatch, name, detector, snr):
        # Stepwise reads the M first-antenna samples and the decided pair's
        # second sample: 2M + 2 normals per trial.  ML's direct draw reads
        # whole frames, 4M normals per trial; its radius draw takes one chi2
        # variate per trial and 4M normals per scored (uncertified) trial.
        # Up to 10 dB ML takes the direct draw, from 30 dB on the radius
        # draw.  9000 trials span two chunks.
        cfg = {
            "tiny": request.getfixturevalue("tiny_config"),
            "default": SystemConfig(),
            "m8": dataclasses.replace(SystemConfig(), tx_antennas=8),
        }[name]
        normals, chi2s = [], []

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                normals.append(np.size(out))
                return out

            def chisquare(self, *args, **kwargs):
                out = self.rng.chisquare(*args, **kwargs)
                chi2s.append(np.size(out))
                return out

            def __getattr__(self, attr):
                return getattr(self.rng, attr)

        chunks = modem._chunks
        monkeypatch.setattr(
            modem, "_chunks", lambda *a: ((s, n, Counting(rng)) for s, n, rng in chunks(*a))
        )
        scored = count_scored(monkeypatch) if detector == "ml" else []
        simulate_ber(cfg, snr, 9000, 3, detector)
        M = cfg.tx_antennas
        if detector == "stepwise":
            assert (sum(normals), sum(chi2s)) == (9000 * (2 * M + 2), 0)
        elif snr >= 30.0:
            assert sum(chi2s) == 9000
            assert sum(normals) == 4 * M * sum(scored)
            assert sum(scored) < 9000
        else:
            assert (sum(normals), sum(chi2s), sum(scored)) == (9000 * 4 * M, 0, 9000)

    @pytest.mark.parametrize(
        "detector, cfg, snr, trials, seed, bound_mib",
        [
            # 16-PSK makes 256 hypotheses; a (1024, 256, 4, 2) complex
            # residual per block peaked at 102 MiB here.
            ("ml", SystemConfig(constellation_order=16), 10.0, 9000, 3, 16),
            # 1024-PSK: deciding the point for a whole 8192-trial chunk at
            # once built (8192, 1024) complex temporaries and peaked at
            # 290 MiB.  Row blocks cut that to 73.6 MiB; drawing the noise
            # straight into the frame, with no separate noise array and its
            # ~17 MB complex temporaries, to 58.1 MiB; blocks of 1024 rows
            # still held (1024, 1024) complex temporaries.
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

    def test_bit_stderr_matches_seed_spread(self, default_config, default_tensor):
        # The bits of one codeword err together, so the bit rate's error is
        # that of the per-trial bit-error count; the binomial form over
        # trials * bits read 1.24x (stepwise) and 1.69x (ML) below the
        # spread of 200 seeds here.  The spread of 200 draws estimates its
        # own standard deviation to about 5 %, so 0.15 is 3 of those.
        for detector in ("stepwise", "ml"):
            reps = [
                simulate_ber(default_config, 10.0, 2000, seed, detector, tensor=default_tensor)
                for seed in range(1000, 1200)
            ]
            spread = np.std([r.bit_error_rate for r in reps], ddof=1)
            assert spread / np.mean([r.bit_error_stderr for r in reps]) == pytest.approx(1.0, abs=0.15)

    @pytest.mark.parametrize("other", [{"tx_antennas": 8}, {"oam_states": (-1, 1)}])
    def test_rejects_tensor_of_another_config(self, default_config, other):
        # An 8-antenna tensor died in a bare "cannot reshape array of size
        # 1024 into shape (32,4,2)".
        tensor = build_channel_tensor(dataclasses.replace(default_config, **other))
        with pytest.raises(ConfigError, match="tensor"):
            simulate_ber(default_config, 10.0, 2000, 1, "ml", tensor=tensor)

    def test_rejects_tensor_of_another_constellation_order(self, default_config, default_tensor):
        # Points drawn from the config's 8-PSK were decided among the
        # tensor's QPSK: SER 0.951 at 40 dB, against 0.735 with its own tensor.
        config = dataclasses.replace(default_config, constellation_order=8)
        with pytest.raises(ConfigError, match="constellation order 4, config has 8"):
            simulate_ber(config, 40.0, 4000, 1, tensor=default_tensor)


def named_config(request, name):
    return {
        "default": SystemConfig(),
        "m8": dataclasses.replace(SystemConfig(), tx_antennas=8),
        "psk16": SystemConfig(constellation_order=16),
        "tiny": request.getfixturevalue("tiny_config"),
        "short_range": request.getfixturevalue("short_range_config"),
    }[name]


class TestCertifiedMl:
    """ML trials whose noise lies inside the certificate radius of the sent
    hypothesis are counted as correct without being scored."""

    @pytest.mark.parametrize("trials", [9000, 8192])
    @pytest.mark.parametrize("snr", [20.0, 30.0, 60.0, 80.0])
    @pytest.mark.parametrize("name", ["default", "m8", "psk16", "tiny", "short_range"])
    def test_matches_direct_residual_where_certificates_fire(self, request, name, snr, trials):
        # 9000 trials span two chunks, 8192 fill one.
        cfg = named_config(request, name)
        tensor = build_channel_tensor(cfg)
        rep = simulate_ber(cfg, snr, trials, 43, "ml", tensor=tensor)
        assert rep == reference_report(cfg, tensor, snr, trials, 43, "ml", rows=256)

    @pytest.mark.parametrize("name", ["default", "m8", "psk16", "tiny", "short_range"])
    def test_radius_is_sound_in_the_worst_direction(self, request, name):
        # Noise of norm just under r_h, pointed at the nearest other
        # hypothesis, still decides h; noise just past half the distance
        # to it is not certified, and the direct residual then leaves h.
        cfg = named_config(request, name)
        tensor = build_channel_tensor(cfg)
        rho = cfg.rho_for_snr_db(20.0)
        decide = modem._detector(tensor, rho, "ml")
        hyp = hypotheses(tensor, rho)
        H = len(hyp)
        shape = (cfg.tx_antennas, len(tensor.states), cfg.constellation_order)
        flat = hyp.reshape(H, -1)
        nearest = np.empty(H, dtype=np.intp)
        half = np.empty(H)
        for h in range(H):
            dist = np.linalg.norm(flat - flat[h], axis=1)
            dist[h] = np.inf
            nearest[h] = np.argmin(dist)
            half[h] = dist[nearest[h]] / 2
        radius = np.repeat(ml_radii(tensor, rho), cfg.constellation_order)
        assert np.all(radius < half)
        # Not vacuous: the slack is far below the radius.
        assert np.all(radius > half * (1 - 1e-9))
        toward = (hyp[nearest] - hyp) / (2 * half)[:, None, None]

        y = hyp + (radius * (1 - 1e-12))[:, None, None] * toward
        assert np.array_equal(np.ravel_multi_index(decide(y), shape), np.arange(H))
        direct = reference_decisions(cfg, tensor, y, rho, "ml")
        assert np.array_equal(np.ravel_multi_index(direct, shape), np.arange(H))

        past = half * (1 + 1e-6)
        assert np.all(past**2 >= radius**2)
        direct = reference_decisions(cfg, tensor, hyp + past[:, None, None] * toward, rho, "ml")
        assert np.all(np.ravel_multi_index(direct, shape) != np.arange(H))

    def test_coincident_frames_are_never_certified(self, default_config, default_tensor):
        # Antenna 2 sends state index 0 exactly as antenna 1 does: their
        # hypotheses coincide, so both get radius 0, and the direct
        # residual's lowest-index tie break still holds.
        entries = default_tensor.entries.copy()
        entries[1, 0] = entries[0, 0]
        tensor = ChannelTensor(entries=entries, states=default_tensor.states, config=default_config)
        n_states = len(tensor.states)
        for snr in (30.0, 60.0):
            radius = ml_radii(tensor, default_config.rho_for_snr_db(snr))
            assert radius[0] == radius[n_states] == 0.0
            assert np.all(np.delete(radius, [0, n_states]) > 0.0)
            rep = simulate_ber(default_config, snr, 9000, 47, "ml", tensor=tensor)
            assert rep == reference_report(default_config, tensor, snr, 9000, 47, "ml")
            assert rep.antenna_error_rate > 0.0

    @pytest.mark.parametrize("snr, scored", [(60.0, 0), (-300.0, 9000)])
    def test_decide_scores_only_uncertified_trials(self, default_config, default_tensor, monkeypatch, snr, scored):
        seen = count_scored(monkeypatch)
        simulate_ber(default_config, snr, 9000, 5, "ml", tensor=default_tensor)
        assert sum(seen) == scored

    def test_single_hypothesis_certifies_every_trial(self):
        cfg = dataclasses.replace(SystemConfig(), tx_antennas=1, oam_states=(1,), constellation_order=1)
        tensor = build_channel_tensor(cfg)
        assert ml_radii(tensor, 1.0).tolist() == [math.inf]
        rep = simulate_ber(cfg, 0.0, 100, 3, "ml", tensor=tensor)
        assert rep.symbol_error_rate == 0.0


def certified_fraction(cfg, tensor, snr):
    """``modem._ml_certified_fraction`` of ``cfg`` at ``snr``."""
    sigma = math.sqrt(cfg.noise_power_w / 2.0)
    return modem._ml_certified_fraction((ml_radii(tensor, cfg.rho_for_snr_db(snr)) / sigma) ** 2, cfg.tx_antennas)


class TestRadiusDraw:
    """ML draws each trial's noise energy first, and a direction only for
    the trials it leaves uncertified, once a quarter are predicted to
    certify."""

    @pytest.mark.parametrize("M", [1, 2, 4, 8, 64])
    def test_predicted_fraction_matches_chi2_cdf(self, M):
        # P(chi2(4M) < t) = 1 - P(Poisson(t / 2) < 2M), for t / 2 from 1e-3
        # to 1e7, each value alone and all as rows of one table.
        t = 2.0 * np.logspace(-3, 7, 81)
        want = chi2.cdf(t, 4 * M)
        got = [modem._ml_certified_fraction(np.array([v]), M) for v in t]
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        assert modem._ml_certified_fraction(t, M) == pytest.approx(want.mean(), abs=1e-12)

    def test_zero_and_infinite_rows_predict_without_warnings(self, default_config, default_tensor):
        # A radius-0 row (coincident frames) never certifies, an inf row (one
        # hypothesis) always does; inf - inf in the Poisson window and
        # log(0) must not be reached.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert modem._ml_certified_fraction(np.array([0.0]), 4) == 0.0
            assert modem._ml_certified_fraction(np.array([5e-324]), 4) == 0.0
            assert modem._ml_certified_fraction(np.array([math.inf]), 4) == 1.0
            assert modem._ml_certified_fraction(np.array([0.0, math.inf]), 4) == 0.5
            entries = default_tensor.entries.copy()
            entries[1, 0] = entries[0, 0]
            tensor = ChannelTensor(entries=entries, states=default_tensor.states, config=default_config)
            assert certified_fraction(default_config, tensor, 60.0) == 30 / 32
            cfg = dataclasses.replace(SystemConfig(), tx_antennas=1, oam_states=(1,), constellation_order=1)
            assert certified_fraction(cfg, build_channel_tensor(cfg), 0.0) == 1.0

    @pytest.mark.parametrize("name, snr", [("default", 20.0), ("m8", 17.0), ("psk16", 30.0)])
    def test_predicted_fraction_matches_measured(self, request, monkeypatch, name, snr):
        # The share of trials simulate_ber leaves unscored on the radius
        # draw, over 40 000 trials, within 4 binomial standard errors.
        cfg = named_config(request, name)
        tensor = build_channel_tensor(cfg)
        seen = count_scored(monkeypatch)
        trials = 40000
        simulate_ber(cfg, snr, trials, 67, "ml", tensor=tensor)
        frac = certified_fraction(cfg, tensor, snr)
        assert 0.25 <= frac < 1.0
        measured = 1.0 - sum(seen) / trials
        assert abs(measured - frac) <= 4 * math.sqrt(frac * (1 - frac) / trials)

    @pytest.mark.parametrize(
        "name, snr, trials",
        [
            ("default", 17.0, 20000),
            ("default", 20.0, 20000),
            ("m8", 17.0, 20000),
            ("m8", 20.0, 20000),
            ("psk16", 25.0, 20000),
            ("psk16", 30.0, 20000),
            ("tiny", 15.0, 80000),
        ],
    )
    def test_radius_draw_matches_direct_draw_in_distribution(self, request, name, snr, trials):
        # Where the radius draw runs (predicted fraction in [1/4, 1)), its
        # error rates must agree with the full 4M-normal draw's on
        # independent seeds, within 4 combined standard errors.  Where the
        # error-prone rows rarely certify, a direction left at its own norm
        # moves few errors; tiny's rows certify alike, and there it took
        # 158 of 20 000 symbol errors down to 98.
        cfg = named_config(request, name)
        tensor = build_channel_tensor(cfg)
        assert 0.25 <= certified_fraction(cfg, tensor, snr) < 1.0
        rep = simulate_ber(cfg, snr, trials, 59, "ml", tensor=tensor)
        ref = reference_report(cfg, tensor, snr, trials, 60, "ml", rows=256, full_draw=True)
        for stage in ("bit", "antenna", "state", "symbol"):
            got, want = getattr(rep, f"{stage}_error_rate"), getattr(ref, f"{stage}_error_rate")
            se = math.hypot(getattr(rep, f"{stage}_error_stderr"), getattr(ref, f"{stage}_error_stderr"))
            assert abs(got - want) <= 4 * se
