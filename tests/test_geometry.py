"""Pair geometry of the channel build: distances, azimuths, radial offsets."""

import dataclasses
import math

import numpy as np
import pytest

from oamsm import SystemConfig, build_channel_tensor
from oamsm.channel import _pair_geometry


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
