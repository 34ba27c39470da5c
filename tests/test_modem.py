"""Bit mapping, transmission, detection, and Monte Carlo error counting."""

import collections
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import chi2, kstest, poisson

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
from oamsm import modem, numerics


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("antenna", 9, "antenna index 9 not in 1..4"),
            ("antenna", 0, "antenna index 0 not in 1..4"),
            ("state", 7, r"state 7 not in the configured set"),
            ("state", True, "OAM state True is not an integer"),
            ("point_index", -1, r"point index -1 not in 0..3"),
            ("point_index", 4, r"point index 4 not in 0..3"),
        ],
    )
    def test_decode_rejects_a_symbol_outside_the_map(self, default_map, field, value, message):
        # Antenna 9 used to give the 9-bit string '100010000', point index -1
        # the last Gray label, and state 7 a bare "tuple.index(x): x not in
        # tuple".
        sym = dataclasses.replace(default_map.encode("0000000"), **{field: value})
        with pytest.raises(ConfigError, match=message):
            default_map.decode(sym)

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

    def test_config_keeps_one_map(self, default_config, default_map, monkeypatch):
        # simulate_ber reads the config's map, built once, not one per call.
        smap = default_config._symbol_map
        assert default_config._symbol_map is smap
        assert [smap.decode(s) for s in default_map.all_symbols()] == [format(i, "07b") for i in range(128)]
        built = []
        monkeypatch.setattr(modem, "SymbolMap", lambda *args: built.append(args))
        simulate_ber(default_config, 10.0, 10, 1)
        assert built == []

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
        # Antenna 0 used to send from antenna 4 through the -1 wrap, and a
        # NaN point to return a NaN frame.
        for bad, message in ((dict(antenna=0), "antenna index 0 "), (dict(point=complex(math.nan)), "point must be")):
            with pytest.raises(ValueError, match=message):
                transmit(dataclasses.replace(sym, **bad), default_tensor, 1.0, 0.1, rng)

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
    return modem._ml_radii(tensor, math.sqrt(rho))


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

    def test_ml_scorer_reads_the_kept_hypothesis_table(self, default_config):
        # The scorer forms no frames of its own: with the columns of the
        # tensor's kept table and energies reversed, every clean frame
        # decides the mirrored hypothesis.
        tensor = build_channel_tensor(dataclasses.replace(default_config))
        rho = default_config.rho_for_snr_db(20.0)
        hyp = hypotheses(tensor, rho)
        H = len(hyp)
        tensor.__dict__["unit_frames"] = tensor.unit_frames[:, ::-1]
        tensor.__dict__["unit_energies"] = tensor.unit_energies[::-1]
        decided = modem._detector(tensor, rho, "ml")(hyp)
        assert np.array_equal(np.ravel_multi_index(decided, (4, 8, 4)), H - 1 - np.arange(H))

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

    @pytest.mark.parametrize("name", ["default", "m8", "psk16", "tiny", "d37", "d91_psk8"])
    def test_stepwise_all_zero_frame_picks_lowest_indices(self, request, name):
        # Every antenna and state scores 0, so the lowest index wins:
        # antenna 1 and the first state (the angle/wrap rule took
        # angle(0) = 0 and decided state -1).  The point slicer reads the
        # phase of w = y0 * conj(ref), whose zero carries a sign set by ref;
        # it must take angle 0, point 0, for -0.0 as for +0.0.  A real-valued
        # frame reads as the complex one.
        cfg = {
            "default": SystemConfig(),
            "m8": dataclasses.replace(SystemConfig(), tx_antennas=8),
            "psk16": SystemConfig(constellation_order=16),
            "tiny": request.getfixturevalue("tiny_config"),
            "d37": SystemConfig(distance_m=37.0),
            "d91_psk8": SystemConfig(distance_m=91.3, constellation_order=8),
        }[name]
        tensor = build_channel_tensor(cfg)
        rho = cfg.rho_for_snr_db(20.0)
        for dtype in (complex, float):
            for zero in (0.0, -0.0):
                out = demodulate_stepwise(np.full((cfg.tx_antennas, 2), zero, dtype=dtype), tensor, rho)
                assert (out.antenna, out.state, out.point_index) == (1, tensor.states[0], 0), (dtype, zero)

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

    def test_stepwise_decides_by_the_first_max_phases(self, monkeypatch, default_config, default_tensor):
        # One stepwise rule: a single frame and a Monte Carlo run both decide
        # the antenna from (M, n) powers and the state from (L, n) scores
        # through the first-max helper, once each per decision block.
        shapes = []
        first_max = modem._first_max
        monkeypatch.setattr(modem, "_first_max", lambda v: shapes.append(v.shape) or first_max(v))
        demodulate_stepwise(np.ones((4, 2)), default_tensor, default_config.rho_for_snr_db(10.0))
        assert shapes == [(4, 1), (8, 1)]
        shapes.clear()
        simulate_ber(default_config, [0.0, 10.0], 9000, 1, tensor=default_tensor)
        assert shapes == [(4, 8192), (8, 8192)] * 2 + [(4, 808), (8, 808)] * 2


class TestFirstMax:
    """``modem._first_max`` is ``np.argmax(v, axis=0)``, ties to the lowest
    row, on contiguous rows and on the strided transpose of an (n, K)
    array."""

    @pytest.mark.parametrize("kind", ["random", "ties", "equal", "inf"])
    @pytest.mark.parametrize("n", [1, 8192])
    @pytest.mark.parametrize("K", [1, 2, 3, 4, 8, 64, 300])
    def test_matches_argmax(self, K, n, kind):
        rng = np.random.default_rng([K, n])
        if kind == "random":
            v = rng.standard_normal((K, n))
        elif kind == "ties":
            # Small integer values: most columns hold their maximum in
            # several rows.
            v = rng.integers(-2, 3, size=(K, n)).astype(float)
        elif kind == "equal":
            v = np.repeat(rng.standard_normal((1, n)), K, axis=0)
        else:
            v = rng.choice([-np.inf, -1.0, 0.0, 1.0, np.inf], size=(K, n))
            v[:, 0] = np.inf
            v[:, -1] = -np.inf
        for view in (v, np.ascontiguousarray(v.T).T):
            got = modem._first_max(view)
            assert np.array_equal(got, np.argmax(view, axis=0))
            assert np.iinfo(got.dtype).max >= K - 1


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unblocked_ber(config, tensor, snr_db, trials, seed, detector, rows=None, full_draw=False):
    """Reference for ``simulate_ber``: the same draws (8192-trial chunks, one
    Philox substream per chunk) with each chunk's detection done in a single
    block by ``reference_decisions``, or in slices of ``rows`` frames where
    one block's residual would not fit in memory.

    ML takes the radius draw.  Each chunk draws its trials per (m, l) row,
    multinomial over the M * L rows, then the uncertified ones per row,
    binomial with the package's q (``modem._ml_tail_law``: a q of exactly
    0 draws nothing, so the stream depends on it bit for bit).  Only the k
    uncertified trials draw: their points, then per row a multinomial count
    of the trials at each arrival count i under the restricted Poisson
    weights (scipy's, apart from the package), then Gamma(2M - i) per trial
    in row order, giving the energy t + 2 Gamma, then their (2, k, M, 2)
    directions, rescaled to that norm and scored; the certified trials are
    counted as decided correctly.
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
    radius_draw = detector == "ml" and not full_draw
    n_rows = M * n_states
    if radius_draw:
        cert_energy = (ml_radii(tensor, rho) / sigma) ** 2
        q = modem._ml_tail_law(cert_energy, M)[0]
        # Arrival-count law of every row that can be drawn (q > 0, so t
        # finite); the other rows are never drawn.
        pmf = np.zeros((n_rows, 2 * M))
        pmf[:, 0] = 1.0
        log_w = poisson.logpmf(np.arange(2 * M), cert_energy[q > 0.0, None] / 2.0)
        w = np.exp(log_w - log_w.max(axis=1, keepdims=True))
        pmf[q > 0.0] = w / w.sum(axis=1, keepdims=True)
    errors = np.zeros(5, dtype=np.int64)  # bits, antenna, state, symbol, sum of squared bit errors
    for chunk, lo in enumerate(range(0, trials, 8192)):
        n = min(8192, trials - lo)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 0xBE7, chunk))))
        if radius_draw:
            per_row = rng.binomial(rng.multinomial(n, [1.0 / n_rows] * n_rows), q)
            row = np.repeat(np.arange(n_rows), per_row)
            m_idx, l_idx = row // n_states, row % n_states
            p_idx = rng.integers(0, P, size=row.size)
        else:
            m_idx = rng.integers(0, M, size=n)
            l_idx = rng.integers(0, n_states, size=n)
            p_idx = rng.integers(0, P, size=n)
        sent = math.sqrt(rho) * tensor.entries[m_idx, l_idx] * points[p_idx][:, None, None]
        live = np.ones(len(sent), dtype=bool)
        if radius_draw:
            counts = rng.multinomial(per_row, pmf)  # (rows, 2M)
            arrivals = np.concatenate([np.repeat(np.arange(2 * M), c) for c in counts])
            energy = cert_energy[row] + 2.0 * rng.standard_gamma(2 * M - arrivals)
            d = rng.standard_normal((2, row.size, M, 2))
            scale = sigma * np.sqrt(energy / np.sum(d**2, axis=(0, 2, 3)))
            y = sent + scale[:, None, None] * (d[0] + 1j * d[1])
        elif full_draw:
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


def top_accepted_snr(cfg):
    """The top SNR that ``cfg.rho_for_snr_db`` accepts, in steps of 0.5 dB,
    found by bisection."""
    lo, hi = 0, 20000  # accepted and rejected SNRs, in units of 0.5 dB
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            cfg.rho_for_snr_db(mid / 2)
            lo = mid
        except ConfigError:
            hi = mid
    return lo / 2


def frame_rule_counts(cfg, tensor, snrs, trials, seed):
    """(len(snrs), 5) stepwise ``_errors`` totals of ``simulate_ber``'s draw
    decided by ``decide(y)`` on full frames built from it at each SNR: every
    first antenna s h x plus its drawn noise, every second antenna s h x
    plus the trial's one second-antenna noise, of which the rule reads only
    the decided pair's."""
    points = np.asarray(cfg.constellation().points)
    M, n_states = tensor.entries.shape[:2]
    smap = cfg._symbol_map
    sigma = math.sqrt(cfg.noise_power_w / 2.0)
    counts = np.zeros((len(snrs), 5), dtype=np.int64)
    for chunk, lo in enumerate(range(0, trials, 8192)):
        n = min(8192, trials - lo)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 0xBE7, chunk))))
        sent = [rng.integers(0, k, size=n) for k in (M, n_states, points.size)]
        first_noise = sigma * rng.standard_normal((2, n, M))
        second_noise = sigma * rng.standard_normal((2, n, 1))
        for k, snr in enumerate(snrs):
            rho = cfg.rho_for_snr_db(snr)
            y = math.sqrt(rho) * tensor.entries[sent[0], sent[1]] * points[sent[2], None, None]
            for part, noise in ((y[:, :, 0], first_noise), (y[:, :, 1], second_noise)):
                part.real += noise[0]
                part.imag += noise[1]
            decided = modem._detector(tensor, rho, "stepwise")(y)
            counts[k] += modem._errors(smap, smap.word(*sent), decided)
    return counts


def count_draws(monkeypatch):
    """A dict that sums, by generator method, the number of variates every
    chunk of ``simulate_ber`` draws once ``modem._chunks`` is patched here;
    a method never called has no entry."""
    drawn = collections.Counter()

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, attr):
            method = getattr(self.rng, attr)

            def counted(*args, **kwargs):
                out = method(*args, **kwargs)
                drawn[attr] += np.size(out)
                return out

            return counted

    chunks = modem._chunks
    monkeypatch.setattr(modem, "_chunks", lambda *a: ((s, n, Counting(rng)) for s, n, rng in chunks(*a)))
    return drawn


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
        # second sample: 2M + 2 normals per trial.  ML's radius draw, at
        # every SNR, takes no chi2 variate: per chunk, one multinomial and
        # one binomial count per (m, l) row; per chunk that scores (one
        # ``decide`` call each), one multinomial count per row and arrival
        # count 0 .. 2M - 1; and one gamma and 4M normals per scored
        # (uncertified) trial.  From 30 dB on some trials certify.  9000
        # trials span two chunks.
        cfg = named_config(request, name)
        drawn = count_draws(monkeypatch)
        scored = count_scored(monkeypatch) if detector == "ml" else []
        simulate_ber(cfg, snr, 9000, 3, detector)
        M, rows = cfg.tx_antennas, cfg.tx_antennas * cfg.n_states
        counts = (drawn["chisquare"], drawn["standard_gamma"], drawn["multinomial"], drawn["binomial"])
        if detector == "stepwise":
            assert drawn["standard_normal"] == 9000 * (2 * M + 2)
            assert counts == (0, 0, 0, 0)
        else:
            assert counts == (0, sum(scored), 2 * rows + len(scored) * rows * 2 * M, 2 * rows)
            assert drawn["standard_normal"] == 4 * M * sum(scored)
            if snr >= 30.0:
                assert sum(scored) < 9000

    @pytest.mark.parametrize("trials", [9000, 900_000])
    @pytest.mark.parametrize("name", ["default", "m8", "tiny"])
    def test_certified_run_costs_no_draw_per_trial(self, request, monkeypatch, name, trials):
        # At 80 dB every row's q is 0: a chunk draws its M * L row counts
        # and their uncertified counts, all 0, and nothing per trial; the
        # scoring basis is formed once per call and no frame is scored.
        cfg = named_config(request, name)
        drawn = count_draws(monkeypatch)
        scored = count_scored(monkeypatch)
        rep = simulate_ber(cfg, 80.0, trials, 11, "ml")
        chunks = -(-trials // 8192)
        rows = cfg.tx_antennas * cfg.n_states
        assert drawn == {"multinomial": chunks * rows, "binomial": chunks * rows}
        assert scored == []
        assert (rep.trials, rep.bit_error_rate, rep.symbol_error_rate) == (trials, 0.0, 0.0)

    @pytest.mark.parametrize(
        "detector, cfg, snr, trials, seed, bound_mib",
        [
            # 16-PSK makes 256 hypotheses; a (1024, 256, 4, 2) complex
            # residual per block peaked at 102 MiB here.
            ("ml", SystemConfig(constellation_order=16), 10.0, 9000, 3, 16),
            # 1024-PSK: scoring every point for a whole 8192-trial chunk at
            # once built (8192, 1024) complex temporaries and peaked at
            # 290 MiB; row blocks of the point scores cut that to 73.6 MiB.
            # The point is now the sector index of one phase per trial, so
            # no per-point array remains; the peak is 18.1 MiB.
            ("stepwise", SystemConfig(tx_antennas=64, oam_states=(-1, 1), constellation_order=1024), 20.0, 20000, 5, 40),
        ],
    )
    def test_memory_is_bounded_by_element_blocks(self, detector, cfg, snr, trials, seed, bound_mib):
        # ML blocks bound rows x hypotheses, not rows; stepwise holds no
        # per-point array.
        tensor = build_channel_tensor(cfg)
        tracemalloc.start()
        try:
            simulate_ber(cfg, snr, trials, seed, detector, tensor=tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20

    def test_snr_grid_reuses_the_blocked_buffers(self):
        # 21 SNRs at the 64-antenna, 1024-PSK config above: every SNR and
        # block of 2048 trials reuses one frame and one work buffer, so the
        # grid peaked at 21.1 MiB, 7.7 MiB above one SNR, its 21 pairs of
        # clean tables taking 5.3 MiB of that.  Deciding whole 8192-trial
        # chunks at once peaked at 33.4 MiB, inside the one-SNR bound above.
        cfg = SystemConfig(tx_antennas=64, oam_states=(-1, 1), constellation_order=1024)
        tensor = build_channel_tensor(cfg)
        snrs = [float(s) for s in range(-10, 31, 2)]
        assert traced_peak(lambda: simulate_ber(cfg, snrs, 20000, 5, tensor=tensor)) <= 24 * 2**20

    def test_fig8_sized_grid_memory(self, default_config, default_tensor):
        # 21 SNRs and 30 000 trials, as fig8 runs.  It peaked at 2.43 MiB
        # when every SNR formed its own frames, and at 2.76 MiB with one
        # frame and work buffer per call and each chunk's draw released
        # before the next.  A 1-trial call first, so that no lazy import
        # counts.
        simulate_ber(default_config, 0.0, 1, 0, tensor=default_tensor)
        snrs = [float(s) for s in range(-10, 31, 2)]
        peak = traced_peak(lambda: simulate_ber(default_config, snrs, 30000, 5, tensor=default_tensor))
        assert peak <= 3 * 2**20

    @pytest.mark.parametrize(
        "changes", [{}, {"distance_m": 100.0}, {"tx_antennas": 8}], ids=["default", "d=100", "M=8"]
    )
    def test_stepwise_at_the_top_accepted_snr(self, changes):
        # No other stepwise test runs above 80 dB.  The samples, powers, pair
        # products and point slicer stay finite and decide as the reference
        # does up to the top SNR that rho_for_snr_db accepts, found by
        # bisection as in test_metrics, alone and inside a grid.
        cfg = dataclasses.replace(SystemConfig(), **changes)
        top = top_accepted_snr(cfg)
        tensor = build_channel_tensor(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = reference_report(cfg, tensor, top, 9000, 43, "stepwise")
            assert simulate_ber(cfg, top, 9000, 43, tensor=tensor) == want
            assert simulate_ber(cfg, [0.0, top], 9000, 43, tensor=tensor)[1] == want

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

    @pytest.mark.parametrize("snr", [20.0, 60.0])
    def test_minima_formed_in_blocks_match_the_kept_table(self, default_config, default_tensor, monkeypatch, snr):
        # Blocks of 5 of the 32 representatives, the last of 2: a fresh
        # tensor keeps no table and forms its minima block by block.
        kept = simulate_ber(default_config, snr, 20000, 5, "ml", tensor=default_tensor)
        monkeypatch.setattr(numerics, "_TABLE_ENTRIES", 5 * 128)
        tensor = build_channel_tensor(dataclasses.replace(default_config))
        assert tensor.orbit_distances is None
        assert np.array_equal(tensor.nearest_distances, default_tensor.nearest_distances)
        assert repr(simulate_ber(default_config, snr, 20000, 5, "ml", tensor=tensor)) == repr(kept)

    def test_single_hypothesis_certifies_every_trial(self):
        cfg = dataclasses.replace(SystemConfig(), tx_antennas=1, oam_states=(1,), constellation_order=1)
        tensor = build_channel_tensor(cfg)
        assert ml_radii(tensor, 1.0).tolist() == [math.inf]
        rep = simulate_ber(cfg, 0.0, 100, 3, "ml", tensor=tensor)
        assert rep.symbol_error_rate == 0.0


def uncertified(cert_energy, M):
    """The q of ``modem._ml_tail_law``: each row's uncertified share."""
    return modem._ml_tail_law(cert_energy, M)[0]


def certified_fraction(cfg, tensor, snr):
    """Predicted share of ML trials that certify in ``cfg`` at ``snr``: 1
    less the mean of the q of ``modem._ml_tail_law`` over the rows."""
    sigma = math.sqrt(cfg.noise_power_w / 2.0)
    cert_energy = (ml_radii(tensor, cfg.rho_for_snr_db(snr)) / sigma) ** 2
    return 1.0 - uncertified(cert_energy, cfg.tx_antennas).mean()


class TestRadiusDraw:
    """At every SNR, ML draws each chunk's trials per row and its
    uncertified trials per row; only those draw an energy, from the chi2
    law conditioned past the certificate, and a direction."""

    @pytest.mark.parametrize("M", [1, 2, 4, 8, 64])
    def test_predicted_fraction_matches_chi2_cdf(self, M):
        # q = P(chi2(4M) >= t) = P(Poisson(t / 2) < 2M), for t / 2 from 1e-3
        # to 1e7, each value alone and all as rows of one table: within
        # 1e-12 of scipy's, and within 1e-11 relative where scipy's is above
        # 1e-25, as q is taken directly, not as 1 less the certified share.
        t = 2.0 * np.logspace(-3, 7, 81)
        want = chi2.sf(t, 4 * M)
        got = np.array([uncertified(np.array([v]), M)[0] for v in t])
        assert np.allclose(got, want, rtol=0.0, atol=1e-12)
        tail = want > 1e-25
        assert np.allclose(got[tail], want[tail], rtol=1e-11, atol=0.0)
        assert np.allclose(uncertified(t, M), got, rtol=1e-14, atol=0.0)
        assert 1.0 - uncertified(t, M).mean() == pytest.approx(chi2.cdf(t, 4 * M).mean(), abs=1e-12)

    @pytest.mark.parametrize("M", [1, 2, 4, 8, 64])
    def test_far_tail_keeps_its_relative_accuracy(self, M):
        # Down to the smallest q scipy gives above 1e-290, within 1e-12
        # relative, past the Poisson window s +- (13 sqrt(s) + 45) of the
        # Marcum helper too, where a q of 0 would drop its rows' draws.
        t = np.linspace(0.0, 2.0 * (2 * M + 1000), 4001)[1:]
        want = chi2.sf(t, 4 * M)
        kept = want >= 1e-290
        got = uncertified(t, M)
        assert np.allclose(got[kept], want[kept], rtol=1e-12, atol=0.0)
        s = t[kept] / 2.0
        assert np.any(s > 2 * M + 13.0 * np.sqrt(s) + 45.0)
        assert np.all(got[~kept] <= 1e-285)

    def test_zero_and_infinite_rows_predict_without_warnings(self, default_config, default_tensor):
        # A radius-0 row (coincident frames) never certifies, an inf row (one
        # hypothesis) always does; inf - inf in the Poisson window and
        # log(0) must not be reached, in q, in the arrival table or in the
        # tail draw.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = np.array([0.0, 5e-324, math.inf, 1e-300, 1e300])
            q, pmf = modem._ml_tail_law(t, 4)
            assert q.tolist() == [1.0, 1.0, 0.0, 1.0, 0.0]
            # The summed pmf passes 1 by a rounding at some small t (at
            # t / 2 = 1e-6 .. 10 it did for M = 2 .. 64): q stays a
            # probability, as the binomial draw requires.
            small = 2.0 * np.logspace(-6, 1, 2000)
            for M in (2, 4, 8, 64):
                q = uncertified(small, M)
                assert np.all((q > 0.0) & (q <= 1.0))
                np.random.default_rng(0).binomial(8192, q)
            assert uncertified(np.array([0.0, math.inf]), 4).mean() == 0.5
            # All the mass at i = 0 where t / 2 is 0, subnormal or inf, all
            # but 5e-301 of it where t / 2 is 5e-301, and all but about
            # 7 / 5e299 of it at i = 2M - 1 where t / 2 is 5e299.
            assert np.all(pmf[:3] == np.eye(1, 8))
            assert pmf[3, 0] == 1.0 and pmf[3, 1:].max() < 1e-300
            assert pmf[4, -2] < 1e-298 and pmf[4, -1] == 1.0
            rows, energy = modem._ml_tail_energy(np.random.default_rng(5), t, pmf, np.array([50, 50, 0, 50, 50]))
            assert np.array_equal(rows, np.repeat([0, 1, 3, 4], 50))
            assert np.all(np.isfinite(energy))
            assert np.all(energy >= t[rows])
            entries = default_tensor.entries.copy()
            entries[1, 0] = entries[0, 0]
            tensor = ChannelTensor(entries=entries, states=default_tensor.states, config=default_config)
            assert certified_fraction(default_config, tensor, 60.0) == 30 / 32
            cfg = dataclasses.replace(SystemConfig(), tx_antennas=1, oam_states=(1,), constellation_order=1)
            assert certified_fraction(cfg, build_channel_tensor(cfg), 0.0) == 1.0

    @pytest.mark.parametrize("M", [1, 4, 8])
    def test_tail_energy_follows_the_conditional_chi2_law(self, M):
        # E ~ chi2(4M) given E >= t, for t / 2 from 0 up to where
        # P(E >= t) = 1e-30, every t a row of one table: each row's 4000
        # draws against scipy's 1 - sf(x) / sf(t) by Kolmogorov-Smirnov.
        # The ratio of survival functions keeps its accuracy in the far
        # tail, where (cdf(x) - cdf(t)) / sf(t) cancels.
        far = chi2.isf(1e-30, 4 * M)
        t = np.array([0.0, 0.2, 2.0, 4.0 * M, far / 4, far / 2, far])
        pmf = modem._ml_tail_law(t, M)[1]
        rows, energy = modem._ml_tail_energy(np.random.default_rng(2024), t, pmf, np.full(t.size, 4000))
        for k, tk in enumerate(t):
            drawn = energy[rows == k]
            assert np.all(drawn >= tk)
            sf_t = chi2.sf(tk, 4 * M)
            assert kstest(drawn, lambda x: 1.0 - chi2.sf(x, 4 * M) / sf_t).pvalue > 1e-3

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
            ("default", -10.0, 20000),
            ("default", 0.0, 20000),
            ("default", 10.0, 20000),
            ("default", 17.0, 20000),
            ("default", 20.0, 20000),
            ("m8", -10.0, 20000),
            ("m8", 0.0, 20000),
            ("m8", 10.0, 20000),
            ("m8", 17.0, 20000),
            ("m8", 20.0, 20000),
            ("psk16", 25.0, 20000),
            ("psk16", 30.0, 20000),
            ("tiny", 0.0, 80000),
            ("tiny", 10.0, 80000),
            ("tiny", 15.0, 80000),
        ],
    )
    def test_radius_draw_matches_direct_draw_in_distribution(self, request, name, snr, trials):
        # At every SNR, from where almost no trial certifies to where most
        # do, the radius draw's error rates must agree with the full
        # 4M-normal draw's on independent seeds, within 4 combined standard
        # errors.  Where the error-prone rows rarely certify, a direction
        # left at its own norm moves few errors; tiny's rows certify alike,
        # and there it took 158 of 20 000 symbol errors down to 98.
        cfg = named_config(request, name)
        tensor = build_channel_tensor(cfg)
        rep = simulate_ber(cfg, snr, trials, 59, "ml", tensor=tensor)
        ref = reference_report(cfg, tensor, snr, trials, 60, "ml", rows=256, full_draw=True)
        for stage in ("bit", "antenna", "state", "symbol"):
            got, want = getattr(rep, f"{stage}_error_rate"), getattr(ref, f"{stage}_error_rate")
            se = math.hypot(getattr(rep, f"{stage}_error_stderr"), getattr(ref, f"{stage}_error_stderr"))
            assert abs(got - want) <= 4 * se


class TestSnrGrid:
    """A 1-D ``snr_db`` returns one report per SNR, each the one-SNR call;
    stepwise decides each chunk's one draw at every SNR."""

    SNRS = (-10.0, 0.0, 7.5, 20.0, 30.0, 60.0, 80.0)

    @pytest.mark.parametrize("detector", ["stepwise", "ml"])
    @pytest.mark.parametrize("trials", [1, 8192, 20000])
    @pytest.mark.parametrize("name", ["default", "m8", "tiny", "psk16"])
    def test_each_report_is_the_one_snr_call(self, request, name, trials, detector):
        # 1 trial, one full chunk, and three chunks, the last partial.
        cfg = named_config(request, name)
        tensor = build_channel_tensor(cfg)
        reports = simulate_ber(cfg, self.SNRS, trials, 61, detector, tensor=tensor)
        want = [simulate_ber(cfg, snr, trials, 61, detector, tensor=tensor) for snr in self.SNRS]
        assert isinstance(reports, list)
        assert [repr(r) for r in reports] == [repr(r) for r in want]

    def test_takes_any_one_dimensional_sequence(self, monkeypatch, default_config, default_tensor):
        snrs = np.array(self.SNRS[:3])
        reports = simulate_ber(default_config, snrs, 500, 7, tensor=default_tensor)
        assert reports == [simulate_ber(default_config, snr, 500, 7, tensor=default_tensor) for snr in snrs]
        # An empty grid decides nothing, so it draws nothing.
        drawn = count_draws(monkeypatch)
        for detector in ("stepwise", "ml"):
            assert simulate_ber(default_config, [], 500, 7, detector, tensor=default_tensor) == []
        assert "standard_normal" not in drawn

    def test_stepwise_draws_each_chunk_once(self, monkeypatch, default_config, default_tensor):
        drawn = count_draws(monkeypatch)
        simulate_ber(default_config, self.SNRS, 20000, 3, "stepwise", tensor=default_tensor)
        grid = dict(drawn)
        drawn.clear()
        simulate_ber(default_config, 0.0, 20000, 3, "stepwise", tensor=default_tensor)
        assert grid == dict(drawn)
        assert grid["standard_normal"] == 2 * 20000 * (default_config.tx_antennas + 1)

    @pytest.mark.parametrize("detector", ["stepwise", "ml"])
    @pytest.mark.parametrize("at", [0, 3, 6])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, 1e6, True, np.array([[1.0]])])
    def test_a_bad_snr_anywhere_raises_before_any_draw(
        self, monkeypatch, default_config, default_tensor, detector, at, bad
    ):
        # 1e6 dB overflows the transmit power.
        drawn = count_draws(monkeypatch)
        snrs = list(self.SNRS)
        snrs[at] = bad
        with pytest.raises(ValueError, match="snr"):
            simulate_ber(default_config, snrs, 20000, 3, detector, tensor=default_tensor)
        assert "standard_normal" not in drawn

    @pytest.mark.parametrize(
        "changes, trials",
        [
            ({}, 9000),
            ({"tx_antennas": 2}, 9000),
            ({"tx_antennas": 8}, 9000),
            ({"constellation_order": 16}, 9000),
            ({"distance_m": 100.0}, 9000),
            ({"tx_antennas": 64, "oam_states": (-1, 1), "constellation_order": 1024}, 3000),
        ],
        ids=["default", "M=2", "M=8", "16-PSK", "d=100", "M=64"],
    )
    def test_power_terms_decide_as_full_frames(self, changes, trials):
        # The grid decides the antenna from per-block SNR-free power terms,
        # not from first-antenna samples; its totals equal those of full
        # frames built from the same draw and decided by ``decide(y)``, from
        # -10 dB to the top accepted SNR.  9000 trials span two chunks; at
        # M = 64, 3000 span two blocks of one chunk.
        cfg = dataclasses.replace(SystemConfig(), **changes)
        tensor = build_channel_tensor(cfg)
        snrs = [*range(-10, 31, 2), 40, 60, 80, top_accepted_snr(cfg)]
        sigma = math.sqrt(cfg.noise_power_w / 2.0)
        rhos = [cfg.rho_for_snr_db(snr) for snr in snrs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = modem._stepwise_errors(tensor, rhos, trials, 71, sigma, cfg._symbol_map)
            assert np.array_equal(got, frame_rule_counts(cfg, tensor, snrs, trials, 71))

    def test_grid_builds_only_the_decided_pairs(self, monkeypatch, default_config, default_tensor):
        # Per SNR and block the grid builds the decided pair's two length-n
        # samples and no (n, M) frame, and never calls the full-frame rule.
        shapes = []
        frames, detector = modem._frames, modem._detector

        def recording(*args):
            y = frames(*args)
            shapes.append(y.shape)
            return y

        def no_full_frames(*args):
            decide = detector(*args)

            def refuse(y):
                raise AssertionError("a full frame was decided")

            refuse.pair = decide.pair
            return refuse

        monkeypatch.setattr(modem, "_frames", recording)
        monkeypatch.setattr(modem, "_detector", no_full_frames)
        simulate_ber(default_config, self.SNRS, 9000, 3, tensor=default_tensor)
        snrs = len(self.SNRS)
        assert shapes == [(8192,)] * 2 * snrs + [(808,)] * 2 * snrs

    def test_each_chunk_releases_its_draw(self, default_config, default_tensor):
        # Nothing of a chunk's draw outlives it, so four chunks peak within
        # 64 KiB of one.  A 1-trial call first, so that no lazy import counts.
        simulate_ber(default_config, 0.0, 1, 0, tensor=default_tensor)
        snrs = [float(s) for s in range(-10, 31, 2)]
        one, four = (
            traced_peak(lambda: simulate_ber(default_config, snrs, trials, 5, tensor=default_tensor))
            for trials in (8192, 4 * 8192)
        )
        assert four <= one + 64 * 2**10

    def test_snr_grid_keeps_no_per_snr_arrays(self):
        # At 64 antennas and 1024-PSK, 21 SNRs peak within 256 KiB of one:
        # each SNR keeps sqrt(rho) and a rule of a few KiB.  Two scaled
        # clean tables per SNR peaked 7.9 MiB above one SNR, and rules that
        # each held the 1024 points 0.38 MiB above.  A 1-trial call first,
        # so that no lazy import counts.
        cfg = SystemConfig(tx_antennas=64, oam_states=(-1, 1), constellation_order=1024)
        tensor = build_channel_tensor(cfg)
        simulate_ber(cfg, 0.0, 1, 0, tensor=tensor)
        snrs = [float(s) for s in range(-10, 31, 2)]
        one, grid = (traced_peak(lambda: simulate_ber(cfg, snr, 20000, 5, tensor=tensor)) for snr in (10.0, snrs))
        assert grid <= one + 256 * 2**10
