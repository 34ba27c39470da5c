"""Special-function kernels against independent high-precision oracles."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamsm import (
    Constellation,
    NumericError,
    integrate,
    marcum_q1,
    ncx2_cdf,
    ncx2_pdf,
    psk_constellation,
    q_function,
)
from oamsm import numerics
from oamsm.numerics import _chunks, _log_i0e, _poisson_pmf_dots

mpmath.mp.dps = 40


def log_bessel_i0(x):
    """ln I0(x) as the noncentral chi-square density computes it:
    x + ln(e^-x I0(x))."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = arr + _log_i0e(arr)
    return float(out[0]) if np.ndim(x) == 0 else out


def normal_tail_oracle(x: float) -> float:
    """Gaussian tail by extended-precision quadrature of the density."""
    f = lambda t: mpmath.e ** (-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
    return float(mpmath.quad(f, [x, x + 60]))


def ncx2_cdf_oracle(g: float, lam: float) -> float:
    """CDF by extended-precision quadrature of the closed-form density."""
    f = lambda t: mpmath.e ** (-(t + lam) / 2) * mpmath.besseli(0, mpmath.sqrt(lam * t)) / 2
    return float(mpmath.quad(f, [0, g]))


def marcum_q1_oracle(a: float, b: float) -> float:
    """Q1(a, b) = P(|z|^2 > b^2) by extended-precision quadrature of the
    density over [b^2, (a + 15)^2], split at the bulk a^2 so the peak is
    never missed; the mass beyond (a + 15)^2 is below 1e-50."""
    lam = a * a
    f = lambda t: mpmath.e ** (-(t + lam) / 2) * mpmath.besseli(0, mpmath.sqrt(lam * t)) / 2
    knots = [b * b] + ([lam] if b < a else []) + [(a + 15.0) ** 2]
    return float(mpmath.quad(f, knots))


class TestQFunction:
    def test_zero_is_half(self):
        assert q_function(0.0) == 0.5

    def test_far_tail_underflows_cleanly(self):
        v = q_function(40.0)
        assert 0.0 <= v < 1e-300

    def test_against_integration_oracle(self):
        for x in (-2.0, -0.5, 0.3, 1.6449, 3.0):
            assert q_function(x) == pytest.approx(normal_tail_oracle(x), abs=1e-10)
        assert q_function(1.6449) == pytest.approx(0.05, abs=1e-4)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                q_function(bad)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    def test_symmetry(self, x):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(-6, 6, 200)
        vals = [q_function(float(x)) for x in xs]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestLogBesselI0:
    def test_zero(self):
        assert log_bessel_i0(0.0) == 0.0

    def test_one_against_series_oracle(self):
        oracle = float(mpmath.log(mpmath.besseli(0, 1)))
        assert log_bessel_i0(1.0) == pytest.approx(oracle, abs=1e-13)
        assert log_bessel_i0(1.0) == pytest.approx(math.log(1.2660658777520084), abs=1e-12)

    def test_asymptotic_regime(self):
        x = 700.0
        leading = x - 0.5 * math.log(2 * math.pi * x)
        assert log_bessel_i0(x) == pytest.approx(leading, rel=1e-6)

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 49.9, 50.1, 100.0, 700.0, 1e5, 1e6])
    def test_extended_precision_oracle(self, x):
        oracle = float(mpmath.log(mpmath.besseli(0, mpmath.mpf(x))))
        assert log_bessel_i0(x) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("x", [24.9, 25.0, 25.1, 30.0, 49.9, 50.1, 200.0])
    def test_fixed_terms_reach_double_precision(self, x):
        # 40 series terms up to x = 25 and 16 expansion terms above it leave
        # ~1e-16 relative in I0, so ~1e-15 absolute in its log here.
        oracle = float(mpmath.log(mpmath.besseli(0, mpmath.mpf(x))))
        assert log_bessel_i0(x) == pytest.approx(oracle, abs=2e-14)

    def test_no_overflow_at_1e6(self):
        assert math.isfinite(log_bessel_i0(1e6))

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, 50.0])
        out = log_bessel_i0(xs)
        assert out.shape == xs.shape
        assert out[0] == 0.0


class TestMarcumQ1:
    def test_whole_support(self):
        assert marcum_q1(3.0, 0.0) == 1.0

    def test_central_closed_form(self):
        for b in (0.5, 1.0, 2.0, 4.0):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-b * b / 2), rel=1e-14)

    def test_one_one_against_quadrature_oracle(self):
        oracle = 1.0 - ncx2_cdf_oracle(1.0, 1.0)
        assert marcum_q1(1.0, 1.0) == pytest.approx(oracle, abs=1e-12)
        assert marcum_q1(1.0, 1.0) == pytest.approx(0.7328, abs=1e-4)

    @pytest.mark.parametrize(
        "a,b",
        [(0.5, 2.0), (2.0, 0.5), (3.0, 3.0), (10.0, 9.0), (40.0, 41.0), (100.0, 97.0), (100.0, 103.0)],
    )
    def test_grid_against_quadrature_oracle(self, a, b):
        assert marcum_q1(a, b) == pytest.approx(marcum_q1_oracle(a, b), abs=1e-11)

    @pytest.mark.parametrize("a", [0.0, 0.7, 6.0, 30.0, 120.0])
    def test_array_matches_scalar_calls(self, a):
        bs = np.linspace(0.0, a + 12.0, 41)
        vals = marcum_q1(a, bs)
        assert vals.shape == bs.shape
        for b, v in zip(bs, vals):
            assert v == pytest.approx(marcum_q1(a, float(b)), abs=1e-15)

    @pytest.mark.parametrize("a", [0.7, 6.0, 30.0, 120.0])
    def test_zero_b_in_array_is_exactly_one_without_warnings(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = marcum_q1(a, np.array([a + 1.0, 0.0, 0.5 * a, 0.0]))
        assert vals[1] == 1.0 and vals[3] == 1.0
        assert 0.0 < vals[0] < 1.0

    def test_monotone_in_b(self):
        bs = np.linspace(0.0, 8.0, 60)
        vals = marcum_q1(2.0, bs)
        assert np.all(np.diff(vals) <= 1e-14)

    def test_monotone_in_a(self):
        vals = [marcum_q1(a, 2.0) for a in np.linspace(0.0, 8.0, 60)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_monotone_in_a_below_the_switch(self):
        # The Poisson window's weights are scaled to unit sum; unscaled, the
        # rounding of their cumulative log pmf lowered Q1 by up to 4.4e-14
        # per step near a = 12.
        a_grid = np.arange(0.5, A_SWITCH, 0.005)
        for b in (1.0, 4.0):
            vals = np.array([marcum_q1(float(a), b) for a in a_grid])
            assert np.all(np.diff(vals) >= -2e-15)

    def test_range(self):
        for a in (0.0, 1.0, 5.0, 200.0):
            vals = marcum_q1(a, np.linspace(0, 250, 50))
            assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(ValueError):
            marcum_q1(1.0, -1.0)


# Where marcum_q1 switches from the Poisson window to the large-a expansion.
A_SWITCH = 12.0


class TestMarcumQ1LargeArgument:
    @pytest.mark.parametrize("a", [A_SWITCH - 0.5, A_SWITCH + 0.5, 300.0, 1e3, 1e4, 1e5])
    def test_against_quadrature_oracle(self, a):
        for offset in (-8.0, -3.0, 0.0, 3.0, 8.0):
            b = a + offset
            assert marcum_q1(a, b) == pytest.approx(marcum_q1_oracle(a, b), abs=1e-11)

    def test_regimes_agree_at_the_switch(self):
        bs = A_SWITCH + np.linspace(-12.0, 12.0, 481)
        below = marcum_q1(math.nextafter(A_SWITCH, 0.0), bs)
        assert np.max(np.abs(below - marcum_q1(A_SWITCH, bs))) <= 1e-12

    def test_monotone_across_the_switch(self):
        # The window side carries up to ~1e-15 of rounding where Q1 is near 1.
        a_grid = np.linspace(A_SWITCH - 0.5, A_SWITCH + 0.5, 101)
        for b in (4.0, 9.0, 12.0, 15.0, 20.0):
            vals = np.array([marcum_q1(float(a), b) for a in a_grid])
            assert np.all(np.diff(vals) >= -1e-13)
        for a in (A_SWITCH - 0.5, A_SWITCH, A_SWITCH + 0.5, 300.0, 1e4):
            vals = marcum_q1(a, np.linspace(max(0.0, a - 15.0), a + 15.0, 3001))
            assert np.all(np.diff(vals) <= 1e-14)


class TestMarcumQ1Broadcast:
    # Both regimes, their edges and a subnormal h = a^2 / 2.
    AMPS = [0.0, 1e-160, 0.5, 3.0, 11.99, A_SWITCH, 45.0, 1e4]
    # b = 0, the bulk of every window, points above each window (a = 0.5's
    # ends near b = 26, a = 11.99's near b = 34) and the large-a bulk.
    B = np.concatenate((np.linspace(0.0, 60.0, 241), [200.0, 1e4 - 5.0, 1e4 + 5.0, 1e4 + 50.0, 3e4]))

    def test_shared_points_equal_one_scalar_a_call_per_amplitude(self):
        a = np.array(self.AMPS)[:, None]
        for b in (self.B, np.broadcast_to(self.B, (a.size, self.B.size))):
            out = marcum_q1(a, b)
            assert out.shape == (a.size, self.B.size)
            for row, amp in zip(out, self.AMPS):
                assert np.array_equal(row, marcum_q1(amp, self.B))

    def test_own_points_equal_one_scalar_a_call_per_amplitude(self):
        a = np.array(self.AMPS)[:, None]
        b = np.stack([np.roll(self.B, 17 * k) for k in range(a.size)])
        out = marcum_q1(a, b)
        assert out.shape == b.shape
        for row, amp, points in zip(out, self.AMPS, b):
            assert np.array_equal(row, marcum_q1(amp, points))

    def test_repeated_amplitudes_in_any_order(self):
        amps = [45.0, 3.0, 0.0, 3.0, 45.0, 11.99]
        out = marcum_q1(np.array(amps)[:, None], self.B)
        for row, amp in zip(out, amps):
            assert np.array_equal(row, marcum_q1(amp, self.B))

    def test_shapes(self):
        assert type(marcum_q1(3.0, 2.0)) is float
        assert marcum_q1(np.array(3.0), np.array(2.0)) == marcum_q1(3.0, 2.0)
        assert marcum_q1(np.array([0.5, 3.0]), 2.0).shape == (2,)
        assert marcum_q1(np.ones((3, 1)), np.ones((3, 5))).shape == (3, 5)
        assert marcum_q1(np.ones((3, 1)), np.ones(5)).shape == (3, 5)

    @pytest.mark.parametrize("bad", [math.nan, -0.5])
    def test_a_bad_amplitude_is_named_by_its_index(self, bad):
        a = np.array([[0.5], [3.0], [bad]])
        with pytest.raises(ValueError, match=rf"(?s)^a must be finite and >= 0 in every entry.*; first failing entry \[2, 0\] = {bad!r}$"):
            marcum_q1(a, np.linspace(0.0, 5.0, 4))


class TestMarcumQ1Pooled:
    # Many distinct amplitudes of both regimes share one call: the window
    # ones build their tails once per width, the large ones run one moment
    # recurrence, in blocks of _BLOCK_ELEMENTS moments.
    @pytest.mark.parametrize("n_points", [285, 2500])
    def test_many_amplitudes_equal_one_scalar_call_each(self, n_points):
        rng = np.random.default_rng(n_points)
        amps = np.concatenate((rng.uniform(A_SWITCH, 400.0, 60), rng.uniform(0.0, A_SWITCH, 20), [0.0, A_SWITCH, 1e4]))
        rng.shuffle(amps)
        if n_points == 2500:  # the recurrence crosses a block
            assert 62 * numerics._MARCUM_ORDERS * n_points > numerics._BLOCK_ELEMENTS
        b = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1e4 + 20.0, n_points - 1))))
        for points in (b, np.broadcast_to(b, (amps.size, b.size))):
            out = marcum_q1(amps[:, None], points)
            for row, amp in zip(out, amps.tolist()):
                assert np.array_equal(row, marcum_q1(amp, b))

    def test_scalar_amplitude_equals_the_array_path(self):
        b = np.stack([TestMarcumQ1Broadcast.B, TestMarcumQ1Broadcast.B[::-1]])
        for amp in TestMarcumQ1Broadcast.AMPS:
            assert np.array_equal(marcum_q1(amp, b), marcum_q1(np.full((1, 1), amp), b))

    def test_pooled_moments_are_blocked(self):
        # 50 large amplitudes on 4000 points: one recurrence over all of them
        # would hold 50 * 20 * 4000 moments (30.5 MiB).  Blocks of at most
        # _BLOCK_ELEMENTS moments share one 7.3 MiB buffer, so the call
        # peaks at 14.5 MiB; two live block buffers would reach 20 MiB.
        amps = np.linspace(12.5, 300.0, 50)[:, None]
        b = np.linspace(0.0, 320.0, 4000)
        marcum_q1(amps, b[:10])
        tracemalloc.start()
        try:
            marcum_q1(amps, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18 * 2**20


class TestNoncentralChiSq2:
    def test_rejects_bad_noncentrality(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ncx2_pdf(1.0, bad)
            with pytest.raises(ValueError):
                ncx2_cdf(1.0, bad)
        assert ncx2_cdf(0.0, 2.0) == 0.0

    def test_central_density_at_origin(self):
        assert ncx2_pdf(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_central_closed_form(self):
        assert ncx2_pdf(2.0, 0.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)
        assert ncx2_cdf(2.0, 0.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_pdf_matches_cdf_derivative(self):
        h = 1e-5
        deriv = (ncx2_cdf(3.0 + h, 2.0) - ncx2_cdf(3.0 - h, 2.0)) / (2 * h)
        assert ncx2_pdf(3.0, 2.0) == pytest.approx(deriv, abs=1e-6)

    def test_cdf_matches_quadrature(self):
        quad = integrate(lambda g: ncx2_pdf(g, 3.0), 0.0, 5.0, tol=1e-10)
        assert ncx2_cdf(5.0, 3.0) == pytest.approx(quad, abs=1e-8)

    def test_cdf_quadrature_agreement_on_grid(self):
        # Includes the central case plus a log grid of noncentralities.
        lams = [0.0] + list(np.logspace(-2, 2, 7))
        gs = np.linspace(0.0, 200.0, 21)
        for lam in lams:
            for g in gs[1:]:
                quad = integrate(lambda t: ncx2_pdf(t, lam), 0.0, float(g), tol=1e-10)
                assert abs(ncx2_cdf(float(g), lam) - quad) <= 1e-8

    def test_marcum_identity(self):
        for a in np.linspace(0.0, 6.0, 7):
            for b in np.linspace(0.0, 6.0, 7):
                total = marcum_q1(float(a), float(b)) + ncx2_cdf(float(b) ** 2, float(a) ** 2)
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_normalization(self):
        # The mass beyond 200 is below exp(-70) at noncentrality 4.
        v = integrate(lambda g: ncx2_pdf(g, 4.0), 0.0, 200.0, tol=1e-9)
        assert v == pytest.approx(1.0, abs=1e-9)

    def test_cdf_monotone(self):
        gs = np.linspace(0, 60, 200)
        vals = ncx2_cdf(gs, 5.0)
        assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("lam", [2e4, 2e6, 2e8])
    def test_pdf_at_large_noncentrality_against_closed_form(self, lam):
        for offset in (-4.0, -2.0, 0.0, 2.0, 4.0):
            g = (math.sqrt(lam) + offset) ** 2
            g_mp, lam_mp = mpmath.mpf(g), mpmath.mpf(lam)
            exact = mpmath.exp(-(g_mp + lam_mp) / 2) * mpmath.besseli(0, mpmath.sqrt(lam_mp * g_mp)) / 2
            assert ncx2_pdf(g, lam) == pytest.approx(float(exact), rel=1e-11, abs=0.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            ncx2_pdf(-0.1, 1.0)
        with pytest.raises(ValueError):
            ncx2_cdf(-0.1, 1.0)


@pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: marcum_q1(2.0, v), "b"),
        (lambda v: ncx2_pdf(v, 3.0), "g"),
        (lambda v: ncx2_cdf(v, 3.0), "g"),
    ],
    ids=["marcum_q1", "ncx2_pdf", "ncx2_cdf"],
)
def test_rejects_a_bad_entry_inside_an_array(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0 in every entry"):
        call(np.array([[0.5, 1.0], [bad, 2.0]]))


def test_message_names_the_first_bad_entry_of_a_long_array():
    # numpy's repr shows only the first and last three entries of an array
    # over 1000 entries, so the message used to carry no nan.
    b = np.linspace(0.0, 30.0, 2400)
    b[7] = math.nan
    with pytest.raises(ValueError, match=r"; first failing entry \[7\] = nan$") as info:
        marcum_q1(2.0, b)
    assert "..." in str(info.value)


def test_poisson_pmf_dot_far_above_the_window_is_zero_without_warning():
    # y = inf used to form inf - inf in the window test.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _poisson_pmf_dots([np.ones((1, 8))], np.array([np.inf, 1e300, 3.0]))[0]
    assert out[0] == 0.0 and out[1] == 0.0
    assert out[2] == pytest.approx(sum(math.exp(-3.0) * 3.0**k / math.factorial(k) for k in range(8)), rel=1e-14)


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda g: 3 * g**2, 0.0, 1.0, tol=1e-10) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("lower, upper", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_rejects_infinite_limits(self, lower, upper):
        with pytest.raises(ValueError, match="finite"):
            integrate(lambda g: np.exp(-g), lower, upper)

    def test_empty_interval(self):
        assert integrate(lambda g: g, 2.0, 2.0) == 0.0

    def test_non_convergence_carries_estimate(self, monkeypatch):
        # Oscillation far beyond what an 8-interval budget can resolve.
        monkeypatch.setattr(numerics, "_MAX_INTERVALS", 8)
        rough = lambda g: np.cos(1e6 * g)
        with pytest.raises(NumericError) as info:
            integrate(rough, 0.0, 1.0, tol=1e-12)
        assert math.isfinite(info.value.estimate)
        assert info.value.bound > 0.0

    def test_breakpoints_seed_the_first_pass(self):
        # A unit-width bump at 700 in [0, 1000]: unit panels around it
        # resolve it in one integrand call.
        calls = []

        def bump(g):
            calls.append(np.size(g))
            return np.exp(-0.5 * (g - 700.0) ** 2) / math.sqrt(2.0 * math.pi)

        v = integrate(bump, 0.0, 1000.0, tol=1e-10, breakpoints=np.arange(691.0, 710.0))
        assert v == pytest.approx(1.0, abs=1e-10)
        assert calls == [15 * 20]

    def test_rejects_bad_breakpoints(self):
        for bad in ([-1.0], [2.0], [math.nan]):
            with pytest.raises(ValueError):
                integrate(lambda g: g, 0.0, 1.0, breakpoints=bad)

    def test_bad_tolerance(self):
        # tol = nan used to pass the check, exhaust the interval budget and
        # raise NumericError "did not converge"; tol = inf was accepted.
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                integrate(lambda g: g, 0.0, 1.0, tol=tol)


class TestChunks:
    def test_covers_the_total_in_order(self):
        spans = [(start, n) for start, n, _ in _chunks(1200, 512, 7, 3)]
        assert spans == [(0, 512), (512, 512), (1024, 176)]
        assert list(_chunks(0, 512, 7, 3)) == []

    def test_chunk_i_draws_from_substream_seed_stream_i(self):
        for i, (_, _, rng) in enumerate(_chunks(1100, 512, 7, 3)):
            ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(7, 3, i))))
            assert np.array_equal(rng.standard_normal(4), ref.standard_normal(4))

    @pytest.mark.parametrize("seed", [1.5, True, "3", np.int64(3), -1])
    def test_rejects_a_seed_that_is_not_a_plain_int(self, seed):
        # 1.5 and True used to run seed 1's stream, "3" seed 3's, and -1
        # seed 2^64 - 1's.
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            next(_chunks(10, 512, seed, 3))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64])
    def test_every_nonnegative_seed_keys_its_own_stream(self, seed):
        # Seeds used to be taken modulo 2^64, so 2^64 ran seed 0's stream.
        def first_draws(s):
            return next(_chunks(10, 512, s, 3))[2].standard_normal(4)

        ref = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=(seed, 3, 0))))
        assert np.array_equal(first_draws(seed), ref.standard_normal(4))
        assert seed < 2**64 or not np.array_equal(first_draws(seed), first_draws(seed - 2**64))


def _hamming(a: str, b: str) -> int:
    return sum(c1 != c2 for c1, c2 in zip(a, b))


class TestPskConstellation:
    def test_bpsk_points_and_labels(self):
        c = psk_constellation(2)
        assert c.points == (1 + 0j, -1 + 0j)
        assert c.bit_labels == ("0", "1")

    def test_unit_mean_power(self):
        for order in (2, 4, 8, 16):
            c = psk_constellation(order)
            power = np.mean(np.abs(np.asarray(c.points)) ** 2)
            assert power == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_gray_adjacency(self, order):
        c = psk_constellation(order)
        for k in range(order):
            assert _hamming(c.bit_labels[k], c.bit_labels[(k + 1) % order]) == 1

    def test_qpsk_unit_magnitudes(self):
        c = psk_constellation(4)
        assert all(abs(abs(p) - 1.0) < 1e-15 for p in c.points)

    def test_rejects_non_power_of_two(self):
        for order in (0, 1, 3, 6):
            with pytest.raises(ValueError):
                psk_constellation(order)

    def test_degenerate_single_point_type(self):
        c = Constellation(order=1, points=(1.0 + 0.0j,), bit_labels=("",))
        assert c.bits_per_symbol == 0

    def test_type_rejects_bad_power(self):
        with pytest.raises(ValueError):
            Constellation(order=2, points=(2.0 + 0j, 0.0j), bit_labels=("0", "1"))
