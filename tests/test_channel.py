"""Channel responses, the pair geometry they are built on, and the
assembled tensor."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from oamsm import ConfigError, SystemConfig, build_channel_tensor
from oamsm.channel import _pair_geometry, matched_beams


def lg_oracle(waist, l, wavelength, r, phi, z):
    """Textbook LG_0^l field in extended precision: normalization
    sqrt(2 / (pi |l|!)) / w(z), envelope (r sqrt2 / w)^|l| exp(-r^2 / w^2),
    curvature phase -k r^2 / (2 R(z)), Gouy phase (|l| + 1) arctan(z / z_R)
    and helical phase -l phi."""
    w0, lam, r, phi, z = (mpmath.mpf(v) for v in (waist, wavelength, r, phi, z))
    zr = mpmath.pi * w0**2 / lam
    w = w0 * mpmath.sqrt(1 + (z / zr) ** 2)
    curvature = z * (1 + (zr / z) ** 2)
    k = 2 * mpmath.pi / lam
    la = abs(l)
    amp = (
        mpmath.sqrt(2 / (mpmath.pi * mpmath.factorial(la)))
        / w
        * (r * mpmath.sqrt(2) / w) ** la
        * mpmath.exp(-(r**2) / w**2)
    )
    return complex(amp * mpmath.expj(-k * r**2 / (2 * curvature) + (la + 1) * mpmath.atan(z / zr) - l * phi))


class TestInRingResponse:
    def test_pair_phase_difference(self, default_config, default_tensor):
        e = default_tensor.entries
        beta = default_config.beta_value
        for m in range(default_config.tx_antennas):
            for li, l in enumerate(default_tensor.states):
                measured = np.angle(e[m, li, m, 0] * np.conj(e[m, li, m, 1]))
                assert math.remainder(measured - beta * l, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_friis_magnitude(self):
        cfg = dataclasses.replace(
            SystemConfig(), tx_antennas=1, oam_states=(-1, 1), constellation_order=2, gain=1.0
        )
        h = build_channel_tensor(cfg).entries
        d = math.sqrt(cfg.distance_m**2 + cfg.ring_radius_m**2)
        assert np.abs(h[0, :, 0, 0]) == pytest.approx(cfg.wavelength_m / (4 * math.pi * d), rel=1e-12)
        assert np.abs(h[0, :, 0, 1]) == pytest.approx(cfg.wavelength_m / (4 * math.pi * d), rel=1e-12)
        # 60 GHz at 50 m with a 1.41 m ring: lambda / (4 pi d) = 7.949e-6.
        assert abs(h[0, 0, 0, 0]) == pytest.approx(7.949e-6, rel=1e-4)


class TestOffRingResponse:
    def test_ring_limit_matches_in_ring_magnitude(self):
        # Shrinking the transverse offset drives the off-ring magnitude to
        # the in-ring Friis value, and the off-ring entry, phase included,
        # to the in-ring one: the tensor is continuous in the spacing.  The
        # gap is first order in the spacing (the azimuth moves by about
        # xi / ring): ~1.4e-5 at 1e-6 m, ~7e-8 at 1e-6 wavelengths.
        cfg = dataclasses.replace(SystemConfig(), tx_antennas=2, element_spacing=1e-6)
        e = build_channel_tensor(cfg).entries
        for li in range(cfg.n_states):
            assert abs(e[0, li, 1, 0]) == pytest.approx(abs(e[0, li, 0, 0]), rel=1e-8)
            assert abs(e[1, li, 0, 0]) == pytest.approx(abs(e[1, li, 1, 0]), rel=1e-8)
        e = build_channel_tensor(dataclasses.replace(cfg, element_spacing="1e-6lambda")).entries
        np.testing.assert_allclose(e[0, :, 1], e[0, :, 0], rtol=1e-6, atol=0)
        np.testing.assert_allclose(e[1, :, 0], e[1, :, 1], rtol=1e-6, atol=0)

    def test_off_ring_weaker_than_in_ring(self, default_config, default_tensor):
        mags = np.abs(default_tensor.entries)
        M = default_config.tx_antennas
        for m in range(M):
            for li in range(len(default_tensor.states)):
                for j in range(M):
                    if j != m:
                        assert mags[m, li, j, 0] < mags[m, li, m, 0]
                        assert mags[m, li, j, 1] < mags[m, li, m, 0]

    def test_ratio_against_beam_field_oracle(self, default_config, default_tensor):
        # The response ratio off/in must reproduce the transverse field
        # ratio, phase included.  Geometry by hand.
        cfg = default_config
        beams = matched_beams(cfg)
        xi, ring, beta, z = cfg.element_spacing_m, cfg.ring_radius_m, cfg.beta_value, cfg.distance_m
        for (m, j, l) in [(1, 2, 1), (1, 3, -2), (2, 4, 4), (4, 1, -3)]:
            h_in = default_tensor.response(m, l, m, 1)
            dx = (j - m) * xi
            positions = [(dx, ring), (dx - ring * math.sin(beta), ring * math.cos(beta))]
            for antenna, (x, y) in enumerate(positions, start=1):
                h_off = default_tensor.response(m, l, j, antenna)
                args = (beams[l].waist, l, cfg.wavelength_m)
                field_off = lg_oracle(*args, math.hypot(x, y), math.atan2(y, x), z)
                field_in = lg_oracle(*args, ring, math.pi / 2, z)
                assert abs(h_off / h_in - field_off / field_in) / abs(field_off / field_in) < 1e-9


class TestBuildChannelTensor:
    def test_single_antenna_contains_only_ring_pairs(self):
        cfg = dataclasses.replace(
            SystemConfig(), tx_antennas=1, oam_states=(-1, 1), constellation_order=2
        )
        tensor = build_channel_tensor(cfg)
        assert tensor.entries.shape == (1, 2, 1, 2)
        h1 = tensor.response(1, 1, 1, 1)
        h2 = tensor.response(1, 1, 1, 2)
        assert abs(h1) == pytest.approx(abs(h2), rel=1e-12)

    def test_default_invariants(self, default_tensor):
        e = default_tensor.entries
        assert np.all(np.isfinite(e))
        assert np.all(np.abs(e) > 0)
        M = e.shape[0]
        in1 = np.abs(e[np.arange(M), :, np.arange(M), 0])
        in2 = np.abs(e[np.arange(M), :, np.arange(M), 1])
        assert np.allclose(in1, in2, rtol=1e-12)

    def test_deterministic(self, default_config):
        t1 = build_channel_tensor(default_config)
        t2 = build_channel_tensor(default_config)
        assert np.array_equal(t1.entries, t2.entries)

    def test_immutable(self, default_tensor):
        with pytest.raises(ValueError):
            default_tensor.entries[0, 0, 0, 0] = 0.0

    def test_entries_are_held_once_per_pair_offset(self):
        # M = 16, L = 8: one response per offset j - m is 31 x 8 x 2 complex
        # values (7.75 KiB); every (m, j) pair would be 16 x 8 x 16 x 2 (64 KiB).
        cfg = dataclasses.replace(SystemConfig(), tx_antennas=16)
        build_channel_tensor(cfg)
        tracemalloc.start()
        try:
            tensor = build_channel_tensor(cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 16 * 2**10
        e = tensor.entries
        assert np.array_equal(e[:-1, :, :-1], e[1:, :, 1:])

    def test_offset_pattern_shifts_with_antenna(self, default_tensor):
        # |h| depends on the offset magnitude |j - m| only.
        mags = np.abs(default_tensor.entries)
        for li in range(len(default_tensor.states)):
            assert mags[0, li, 1, 0] == pytest.approx(mags[1, li, 2, 0], rel=1e-12)
            assert mags[0, li, 2, 0] == pytest.approx(mags[1, li, 3, 0], rel=1e-12)
            assert mags[0, li, 1, 0] == pytest.approx(mags[1, li, 0, 0], rel=1e-12)

    def test_magnitude_decays_with_offset(self, default_tensor):
        mags = np.abs(default_tensor.entries)
        for li in range(len(default_tensor.states)):
            row = mags[0, li, :, 0]
            assert row[1] >= row[2] >= row[3]

    @pytest.mark.parametrize(
        "changes",
        [
            {},
            {"tx_antennas": 8},
            {"tx_antennas": 2},
            {"distance_m": 25.0},
            {"distance_m": 100.0},
            {"oam_states": (-1, 1)},
            {"element_spacing": "400lambda"},
            {"constellation_order": 8},
        ],
        ids=["default", "M8", "M2", "d25", "d100", "L2", "400lambda", "8psk"],
    )
    def test_magnitudes_are_friis_on_ring_and_field_ratio_off_it(self, changes):
        # |h| is the Friis value of each antenna's own distance on the facing
        # ring and A(d_in) times the field-envelope ratio off it, from the
        # extended-precision oracle.
        cfg = dataclasses.replace(SystemConfig(), **changes)
        mags = np.abs(build_channel_tensor(cfg).entries)
        z, ring, M = cfg.distance_m, cfg.ring_radius_m, cfg.tx_antennas
        dist, radial, phi = _pair_geometry(M, cfg.element_spacing_m, z, ring, cfg.beta_value)
        friis = cfg.gain_value * cfg.wavelength_m / (4 * math.pi * dist)
        pair = np.arange(M)
        for li, (l, beam) in enumerate(matched_beams(cfg).items()):
            args = (beam.waist, l, cfg.wavelength_m)
            field = np.array([abs(lg_oracle(*args, r, f, z)) for r, f in zip(radial.ravel(), phi.ravel())])
            expected = friis[0, 0, 0] * field.reshape(radial.shape) / abs(lg_oracle(*args, ring, 0.0, z))
            expected[pair, pair] = friis[pair, pair]
            np.testing.assert_allclose(mags[:, li], expected, rtol=1e-12, atol=0)

    def test_non_finite_entries_name_spacing_and_distance(self):
        # A spacing this wide passes the field checks, but the off-ring
        # field overflows.
        cfg = dataclasses.replace(SystemConfig(), element_spacing=1e300)
        with pytest.raises(ConfigError, match=r"element spacing 1e\+300 m and distance 50\.0 m"):
            build_channel_tensor(cfg)

    def test_waist_failure_names_state(self):
        cfg = dataclasses.replace(SystemConfig(), distance_m=5.0, waist_m=0.05)
        with pytest.raises(ConfigError) as info:
            build_channel_tensor(cfg)
        assert "state" in str(info.value)

    def test_unknown_state_lookup(self, default_tensor):
        with pytest.raises(ConfigError):
            default_tensor.state_index(7)


    @pytest.mark.parametrize(
        "index, name",
        [
            ((0, 1, 1, 1), "antenna index 0 "),
            ((5, 1, 1, 1), "antenna index 5 "),
            ((1, 1, 0, 1), "receive pair index 0 "),
            ((1, 1, 5, 1), "receive pair index 5 "),
            ((1, 1, 1, 0), "antenna-in-pair index 0 "),
            ((1, 1, 1, 3), "antenna-in-pair index 3 "),
            ((1.5, 1, 1, 1), "antenna index 1.5 "),
            ((1, 1, 2.5, 1), "receive pair index 2.5 "),
            ((1, 1, 1, 1.0), "antenna-in-pair index 1.0 "),
        ],
    )
    def test_response_rejects_index_outside_range(self, default_tensor, index, name):
        # 0 used to read the last entry through the -1 wrap, M + 1 and a
        # non-integer an IndexError.
        with pytest.raises(ConfigError, match=name):
            default_tensor.response(*index)


def geometry(M=4, xi=0.1, z=50.0, beta=math.pi / 8, ring=1.4):
    """(distance, radial, azimuth), each (M, M, 2) indexed [m, j, antenna]."""
    return _pair_geometry(M, xi, z, ring, beta)


class TestPairDistances:
    def test_facing_pair_equal_distances(self):
        dist, _, _ = geometry()
        expected = math.sqrt(50.0**2 + 1.4**2)
        assert dist[1, 1, 0] == pytest.approx(expected, rel=1e-15)
        assert dist[1, 1, 1] == pytest.approx(expected, rel=1e-15)

    def test_degenerate_ring_345(self):
        # Collapsed ring turns the geometry into a 3-4-5 triangle.
        dist, _, _ = geometry(xi=4.0, z=3.0, beta=1e-9, ring=1e-12)
        assert dist[0, 1, 0] == pytest.approx(5.0, rel=1e-9)
        assert dist[0, 1, 1] == pytest.approx(5.0, rel=1e-9)

    def test_hand_arithmetic(self):
        dist, _, _ = geometry(xi=0.1, z=50.0, ring=0.5)
        assert dist[0, 2, 0] == pytest.approx(math.sqrt(50.0**2 + (2 * 0.1) ** 2 + 0.5**2), rel=1e-15)

    def test_depends_on_offset_magnitude_only(self):
        dist, _, _ = geometry()
        assert dist[0, 2, 0] == pytest.approx(dist[2, 0, 0], rel=1e-15)
        assert dist[1, 3, 0] == pytest.approx(dist[0, 2, 0], rel=1e-15)

    def test_pythagorean_consistency(self):
        dist, radial, _ = geometry()
        assert dist.shape == radial.shape == (4, 4, 2)
        np.testing.assert_allclose(dist**2, 50.0**2 + radial**2, rtol=1e-12)


class TestPairAzimuths:
    def test_facing_pair(self):
        beta = math.pi / 8
        _, _, phi = geometry(beta=beta)
        assert phi[2, 2, 0] == pytest.approx(math.pi / 2, rel=1e-15)
        assert phi[2, 2, 1] == pytest.approx(math.pi / 2 + beta, rel=1e-15)

    def test_forty_five_degrees(self):
        # Ring radius equal to the transverse offset gives arctan(1).
        _, _, phi = geometry(xi=0.7, ring=0.7, beta=1e-9)
        assert phi[0, 1, 0] == pytest.approx(math.pi / 4, rel=1e-9)

    def test_mirror_reflection(self):
        _, _, phi = geometry()
        assert phi[2, 0, 0] == pytest.approx(math.pi - phi[0, 2, 0], rel=1e-12)

    def test_range(self):
        beta = math.pi / 8
        _, _, phi = geometry(beta=beta)
        assert np.all((0.0 < phi[..., 0]) & (phi[..., 0] < math.pi))
        assert np.all((0.0 < phi[..., 1]) & (phi[..., 1] < math.pi + beta))

    def test_second_antenna_over_axis(self):
        # Spacing ring * sin(beta) puts the second antenna of pair 2 straight
        # above element 1's axis, at height ring * cos(beta): azimuth pi/2.
        base = SystemConfig()
        xi = base.ring_radius_m * math.sin(base.beta_value)
        cfg = dataclasses.replace(base, element_spacing=xi)
        tensor = build_channel_tensor(cfg)
        assert np.all(np.isfinite(tensor.entries))
        _, _, phi = _pair_geometry(
            cfg.tx_antennas, cfg.element_spacing_m, cfg.distance_m, cfg.ring_radius_m, cfg.beta_value
        )
        assert phi[0, 1, 1] == math.pi / 2


class TestRadialOffsets:
    def test_facing_pair_on_ring(self):
        _, radial, _ = geometry()
        assert radial[1, 1, 0] == pytest.approx(1.4, rel=1e-15)
        assert radial[1, 1, 1] == pytest.approx(1.4, rel=1e-15)

    def test_345(self):
        _, radial, _ = geometry(xi=4.0, ring=3.0, beta=1e-12)
        assert radial[0, 1, 0] == pytest.approx(5.0, rel=1e-9)
        assert radial[0, 1, 1] == pytest.approx(5.0, rel=1e-9)

    def test_off_axis_exceeds_ring(self):
        _, radial, _ = geometry()
        for m in range(4):
            for j in range(4):
                if j == m:
                    assert radial[m, j, 0] == pytest.approx(1.4, rel=1e-15)
                else:
                    assert radial[m, j, 0] > 1.4
