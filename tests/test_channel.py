"""Channel responses and the assembled tensor."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from oamsm import ConfigError, SystemConfig, build_channel_tensor
from oamsm.channel import matched_beams


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
                assert math.remainder(measured - beta * l, 2 * math.pi) == pytest.approx(0.0, abs=1e-10)

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
        # the in-ring Friis value.
        cfg = dataclasses.replace(SystemConfig(), tx_antennas=2, element_spacing=1e-6)
        e = build_channel_tensor(cfg).entries
        for li in range(cfg.n_states):
            assert abs(e[0, li, 1, 0]) == pytest.approx(abs(e[0, li, 0, 0]), rel=1e-8)
            assert abs(e[1, li, 0, 0]) == pytest.approx(abs(e[1, li, 1, 0]), rel=1e-8)

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
        # ratio.  The ring response carries a fixed pi/4-per-state phase in
        # place of the field's l pi/2 at the ring azimuth, so the comparison
        # compensates by exp(i l pi/4) vs exp(i l pi/2).  Geometry by hand.
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
                lhs = (h_off / h_in) * np.exp(-1j * l * math.pi / 4)
                rhs = (field_off / field_in) * np.exp(-1j * l * math.pi / 2)
                assert abs(lhs - rhs) / abs(rhs) < 1e-9


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
