"""Beam physics: axial evolution, ring matching, and the transverse field."""

import math

import numpy as np
import pytest

from oamsm import (
    BeamParams,
    ConfigError,
    NoMatchingWaistError,
    curvature_radius,
    lg_field,
    ring_radius,
    spot_size,
    waist_for_state,
)
from oamsm.beam import gouy_phase

WAVELENGTH = 5e-3


def beam(waist=0.04, state=1):
    return BeamParams(waist=waist, state=state, wavelength=WAVELENGTH)


class TestBeamParams:
    def test_rayleigh_distance(self):
        b = beam(waist=0.05)
        assert b.rayleigh_distance == pytest.approx(math.pi * 0.05**2 / WAVELENGTH, rel=1e-15)

    def test_rejects_zero_state(self):
        with pytest.raises(ConfigError):
            BeamParams(waist=0.05, state=0, wavelength=WAVELENGTH)

    def test_rejects_nonpositive_waist(self):
        with pytest.raises(ConfigError):
            BeamParams(waist=0.0, state=1, wavelength=WAVELENGTH)


class TestSpotSize:
    def test_at_source(self):
        assert spot_size(beam(), 0.0) == beam().waist

    def test_at_rayleigh_distance(self):
        b = beam()
        assert spot_size(b, b.rayleigh_distance) == pytest.approx(b.waist * math.sqrt(2), rel=1e-15)

    def test_at_twice_rayleigh(self):
        b = beam()
        assert spot_size(b, 2 * b.rayleigh_distance) == pytest.approx(
            b.waist * math.sqrt(5), rel=1e-15
        )

    def test_strictly_increasing(self):
        b = beam()
        zs = np.linspace(0.1, 100, 50)
        vals = [spot_size(b, float(z)) for z in zs]
        assert all(y > x for x, y in zip(vals, vals[1:]))

    def test_rejects_negative_z(self):
        with pytest.raises(ValueError):
            spot_size(beam(), -1.0)


class TestRingRadius:
    def test_unit_state_at_source(self):
        b = beam(state=1)
        assert ring_radius(b, 0.0) == pytest.approx(b.waist / math.sqrt(2), rel=1e-15)

    def test_scales_with_root_state(self):
        b1, b4 = beam(state=1), beam(state=4)
        z = 20.0
        # Equal waists: radii scale with sqrt of the state magnitude.
        assert ring_radius(b4, z) / ring_radius(b1, z) == pytest.approx(2.0, rel=1e-12)

    def test_hand_substitution(self):
        b = BeamParams(waist=0.05, state=2, wavelength=WAVELENGTH)
        z = 50.0
        w_z = 0.05 * math.sqrt(1 + (z / b.rayleigh_distance) ** 2)
        assert ring_radius(b, z) == pytest.approx(math.sqrt(2 / 2) * w_z, rel=1e-12)

    def test_square_matches_closed_form(self):
        for state in (1, -2, 3):
            b = beam(state=state)
            for z in (0.0, 5.0, 50.0):
                expected = (abs(state) / 2) * b.waist**2 * (1 + (z / b.rayleigh_distance) ** 2)
                assert ring_radius(b, z) ** 2 == pytest.approx(expected, rel=1e-12)


class TestCurvatureRadius:
    def test_minimum_at_rayleigh_distance(self):
        b = beam()
        zr = b.rayleigh_distance
        assert curvature_radius(b, zr) == pytest.approx(2 * zr, rel=1e-15)
        assert curvature_radius(b, 0.9 * zr) > 2 * zr
        assert curvature_radius(b, 1.1 * zr) > 2 * zr

    def test_far_field_limit(self):
        b = beam()
        z = 1e6 * b.rayleigh_distance
        assert curvature_radius(b, z) / z == pytest.approx(1.0, abs=1e-6)

    def test_half_rayleigh(self):
        b = beam()
        zr = b.rayleigh_distance
        assert curvature_radius(b, zr / 2) == pytest.approx(2.5 * zr, rel=1e-15)

    def test_flat_wavefront_rejected(self):
        with pytest.raises(ValueError):
            curvature_radius(beam(), 0.0)


class TestWaistForState:
    @pytest.mark.parametrize("mode", ["printed", "rederived"])
    def test_identity_exact(self, mode):
        ref = beam(waist=0.04, state=1)
        for z in (0.0, 10.0, 50.0):
            assert waist_for_state(ref, 1, z, mode) == 0.04
            assert waist_for_state(ref, -1, z, mode) == 0.04

    def test_source_plane_ratio(self):
        ref = beam(waist=0.04, state=2)
        w = waist_for_state(ref, 4, 0.0, "rederived")
        assert w == pytest.approx(0.04 * math.sqrt(2 / 4), rel=1e-12)

    @pytest.mark.parametrize("z", [0.0, 10.0, 50.0])
    def test_rederived_ring_match(self, z):
        states = [-4, -3, -2, -1, 1, 2, 3, 4]
        for l in states:
            ref = beam(waist=0.04, state=l)
            target = ring_radius(ref, z)
            for lp in states:
                w = waist_for_state(ref, lp, z, "rederived")
                matched = ring_radius(BeamParams(w, lp, WAVELENGTH), z)
                assert abs(matched - target) / max(target, 1e-300) < 1e-10

    def test_printed_mode_solves_its_own_quadratic(self):
        ref = beam(waist=0.04, state=1)
        z, lp = 50.0, 3
        w = waist_for_state(ref, lp, z, "printed")
        a = ref.waist**2 * abs(ref.state) * math.pi**2
        b = abs(ref.state) * (math.pi**2 * ref.waist**4 + z**2 * WAVELENGTH**2)
        c = ref.waist**2 * abs(lp) * z**2 * WAVELENGTH**2
        residual = a * w**4 - b * w**2 + c
        assert residual == pytest.approx(0.0, abs=1e-12 * b)

    def test_printed_mode_breaks_ring_match_off_state(self):
        # The widely circulated coefficient variant is not self-consistent.
        ref = beam(waist=0.04, state=1)
        z, lp = 50.0, 3
        w = waist_for_state(ref, lp, z, "printed")
        matched = ring_radius(BeamParams(w, lp, WAVELENGTH), z)
        target = ring_radius(ref, z)
        assert abs(matched - target) / target > 1e-3

    def test_no_solution_band(self):
        # Matching a much higher state inside the transition region fails.
        ref = BeamParams(waist=0.05, state=1, wavelength=WAVELENGTH)
        with pytest.raises(NoMatchingWaistError):
            waist_for_state(ref, 4, 5.0, "rederived")

    def test_rejects_zero_target_state(self):
        with pytest.raises(ConfigError):
            waist_for_state(beam(), 0, 10.0)

    def test_rejects_negative_z(self):
        with pytest.raises(ValueError):
            waist_for_state(beam(), 2, -1.0)


class TestLgField:
    def test_azimuthal_magnitude_invariance(self):
        b = beam(state=3)
        r, z = 0.5, 25.0
        mags = [abs(lg_field(b, r, phi, z)) for phi in np.linspace(0, 2 * math.pi, 9)]
        assert max(mags) - min(mags) < 1e-15 * max(mags)

    def test_helical_phase_step(self):
        b = beam(state=-2)
        r, z = 0.7, 30.0
        delta = 0.3
        for phi in (0.1, 1.0, 2.5):
            a1 = np.angle(lg_field(b, r, phi, z))
            a2 = np.angle(lg_field(b, r, phi + delta, z))
            step = math.remainder(a1 - a2 - b.state * delta, 2 * math.pi)
            assert abs(step) < 1e-12

    def test_radial_peak_at_ring(self):
        b = beam(state=2)
        z = 40.0
        rs = np.linspace(1e-6, 4 * ring_radius(b, z), 4001)
        mags = np.abs(lg_field(b, rs, 0.0, z))
        peak = rs[int(np.argmax(mags))]
        cell = rs[1] - rs[0]
        assert abs(peak - ring_radius(b, z)) <= cell

    def test_source_plane_curvature_term_absent(self):
        b = beam(state=1)
        v = lg_field(b, b.waist, 0.0, 0.0)
        # At the source the phase is the (zero) axial anomaly only.
        assert np.angle(v) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_negative_radius(self):
        for r in (-0.1, math.nan, [0.1, math.nan]):
            with pytest.raises(ValueError):
                lg_field(beam(), r, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_rejects_non_finite_azimuth(self, bad, shape):
        # phi = nan used to return nan+nanj, and phi = inf warned.
        phi = bad if shape == "scalar" else np.array([0.0, bad, 1.0])
        with pytest.raises(ValueError, match="^phi must be finite in every entry"):
            lg_field(beam(), 0.1, phi, 1.0)


PLANE_FUNCTIONS = {
    "spot_size": spot_size,
    "ring_radius": ring_radius,
    "curvature_radius": curvature_radius,
    "gouy_phase": gouy_phase,
    "waist_for_state": lambda b, z: waist_for_state(b, 2, z),
    "lg_field": lambda b, z: lg_field(b, 0.1, 0.0, z),
}


@pytest.mark.parametrize("name", PLANE_FUNCTIONS)
@pytest.mark.parametrize("z", [math.nan, math.inf, -1.0])
def test_rejects_plane_outside_range(name, z):
    # NaN and inf used to pass the z < 0 checks: spot_size(b, nan) gave nan
    # and ring_radius(b, inf) gave inf.
    with pytest.raises(ValueError):
        PLANE_FUNCTIONS[name](beam(), z)
