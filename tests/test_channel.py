"""Channel responses and the assembled tensor."""

import dataclasses
import math

import numpy as np
import pytest

from oamsm import (
    ArrayLayout,
    BeamParams,
    ConfigError,
    SystemConfig,
    build_channel_tensor,
    in_ring_response,
    lg_field,
    off_ring_response,
)
from oamsm.channel import matched_beams


def make_layout(**kw):
    defaults = dict(M=4, xi=0.1, z=50.0, beta=math.pi / 8, ring_radius=1.4, l_max=4)
    defaults.update(kw)
    return ArrayLayout(**defaults)


class TestInRingResponse:
    def test_zero_state_degenerate_formula(self):
        # State 0 is outside the signaling set, but the formula collapses to
        # equal responses on both antennas, a useful structural check.
        layout = make_layout()
        h1, h2 = in_ring_response(1, 0, layout, 5e-3, 1.0)
        assert h1 == pytest.approx(h2, rel=1e-12)

    def test_pair_phase_difference(self):
        layout = make_layout()
        for l in (-4, -1, 2, 3):
            h1, h2 = in_ring_response(2, l, layout, 5e-3, 1.0)
            measured = np.angle(h1 * np.conj(h2))
            assert math.remainder(measured - layout.beta * l, 2 * math.pi) == pytest.approx(
                0.0, abs=1e-10
            )

    def test_friis_magnitude(self):
        layout = ArrayLayout(M=1, xi=0.1, z=50.0, beta=math.pi / 8, ring_radius=1e-9, l_max=4)
        h1, _ = in_ring_response(1, 1, layout, 5e-3, 1.0)
        assert abs(h1) == pytest.approx(5e-3 / (4 * math.pi * 50.0), rel=1e-9)
        assert abs(h1) == pytest.approx(7.9577e-6, rel=1e-4)


class TestOffRingResponse:
    def test_ring_limit_matches_in_ring_magnitude(self):
        # Shrinking the transverse offset drives the off-ring magnitude to
        # the in-ring Friis value.
        beam = BeamParams(waist=0.04, state=1, wavelength=5e-3)
        from oamsm import ring_radius as ring_of

        z = 50.0
        ring = ring_of(beam, z)
        layout = ArrayLayout(M=2, xi=1e-6, z=z, beta=math.pi / 8, ring_radius=ring, l_max=4)
        h_off, _ = off_ring_response(1, 2, 1, layout, beam, 1.0)
        h_in, _ = in_ring_response(1, 1, layout, 5e-3, 1.0)
        assert abs(h_off) == pytest.approx(abs(h_in), rel=1e-8)

    def test_off_ring_weaker_than_in_ring(self, default_config, default_tensor):
        mags = np.abs(default_tensor.entries)
        M = default_config.tx_antennas
        for m in range(M):
            for li in range(len(default_tensor.states)):
                for j in range(M):
                    if j != m:
                        assert mags[m, li, j, 0] < mags[m, li, m, 0]
                        assert mags[m, li, j, 1] < mags[m, li, m, 0]

    def test_ratio_against_beam_field_oracle(self, default_config):
        # The response ratio off/in must reproduce the transverse field
        # ratio.  The ring response carries a fixed quarter-turn-per-state
        # phase in place of the field's half-turn at the ring azimuth, so
        # the comparison compensates by exp(i l pi/4) vs exp(i l pi/2).
        cfg = default_config.resolved()
        beams = matched_beams(cfg)
        layout = ArrayLayout(
            M=cfg.tx_antennas,
            xi=cfg.element_spacing_m,
            z=cfg.distance_m,
            beta=cfg.beta_value,
            ring_radius=cfg.ring_radius_m,
            l_max=cfg.l_max,
        )
        from oamsm import pair_azimuths, radial_offsets

        gain = cfg.gain_value
        for (m, j, l) in [(1, 2, 1), (1, 3, -2), (2, 4, 4), (4, 1, -3)]:
            beam = beams[l]
            h_in, _ = in_ring_response(m, l, layout, cfg.wavelength_m, gain)
            h_off, _ = off_ring_response(m, j, l, layout, beam, gain)
            r1, _ = radial_offsets(m, j, layout)
            phi1, _ = pair_azimuths(m, j, layout)
            field_off = lg_field(beam, r1, phi1, cfg.distance_m)
            field_in = lg_field(beam, layout.ring_radius, math.pi / 2, cfg.distance_m)
            lhs = (h_off / h_in) * np.exp(-1j * l * math.pi / 4)
            rhs = (field_off / field_in) * np.exp(-1j * l * math.pi / 2)
            assert abs(lhs - rhs) / abs(rhs) < 1e-9

    def test_rejects_same_pair(self):
        layout = make_layout()
        beam = BeamParams(waist=0.04, state=1, wavelength=5e-3)
        with pytest.raises(ConfigError):
            off_ring_response(2, 2, 1, layout, beam, 1.0)


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

