"""Laguerre-Gaussian beam physics for helically phased (vortex) beams.

Covers the axial evolution of the spot size, the annular intensity maximum
("ring") that receive pairs are mounted on, wavefront curvature, the axial
phase anomaly, the full complex field with zero radial index, and the
solver that finds, for another beam state, the waist whose ring matches a
reference beam's ring at a chosen plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require


#: The leading-coefficient variants of ``waist_for_state``.
_COEFF_MODES = ("printed", "rederived")


class NoMatchingWaistError(ConfigError):
    """No real waist gives the requested state the same ring radius as the
    reference beam at the requested plane."""


@dataclass(frozen=True)
class BeamParams:
    """One helically phased beam: waist at the source plane, integer state,
    and carrier wavelength.  State 0 carries no ring and is rejected."""

    waist: float
    state: int
    wavelength: float

    def __post_init__(self):
        require("waist", self.waist, "finite and > 0", ConfigError)
        require("wavelength", self.wavelength, "finite and > 0", ConfigError)
        require("beam state", self.state, "a nonzero integer", ConfigError)

    @property
    def rayleigh_distance(self) -> float:
        return math.pi * self.waist**2 / self.wavelength

    @property
    def norm(self) -> float:
        # Transverse normalization for zero radial index.
        return math.sqrt(1.0 / (math.pi * math.factorial(abs(self.state))))


def _check_z(z: float, positive: bool = False) -> None:
    require("z", z, "finite and > 0" if positive else "finite and >= 0")


def spot_size(beam: BeamParams, z: float) -> float:
    """1/e field radius at distance z; equals the waist at z = 0."""
    _check_z(z)
    return beam.waist * math.sqrt(1.0 + (z / beam.rayleigh_distance) ** 2)


def ring_radius(beam: BeamParams, z: float) -> float:
    """Radius of the annular intensity maximum, sqrt(|l|/2) * spot size."""
    _check_z(z)
    return math.sqrt(abs(beam.state) / 2.0) * spot_size(beam, z)


def curvature_radius(beam: BeamParams, z: float) -> float:
    """Wavefront curvature radius; minimal (= 2 z_R) at the Rayleigh distance.

    The wavefront is flat at the source plane, so z = 0 is a singularity.
    """
    _check_z(z, positive=True)
    zr = beam.rayleigh_distance
    return z * (1.0 + (zr / z) ** 2)


def gouy_phase(beam: BeamParams, z: float) -> float:
    """Axial phase anomaly arctan(z / z_R)."""
    _check_z(z)
    return math.atan(z / beam.rayleigh_distance)


def waist_for_state(
    ref: BeamParams, l_prime: int, z: float, coeff_mode: str = "rederived"
) -> float:
    """Waist giving state ``l_prime`` the same ring radius as ``ref`` at z.

    Equating the two ring radii yields a quadratic A u^2 - B u + C = 0 in
    u = waist^2.  ``coeff_mode`` selects the leading coefficient:

    * ``"rederived"`` uses A proportional to |l_prime|, which makes the ring
      radii agree identically when the root is substituted back (default).
    * ``"printed"`` uses A proportional to |l| of the reference beam; kept
      selectable because it reproduces a widely circulated variant that is
      not self-consistent for l_prime != l.

    Root selection follows the branch that continues the z = 0 solution,
    breaking ties toward the larger root.  States with |l_prime| == |l|
    reuse the reference waist exactly (the ring equation depends on the
    state only through its magnitude).
    """
    require("coeff_mode", coeff_mode, _COEFF_MODES, ConfigError)
    require("l_prime", l_prime, "a nonzero integer", ConfigError)
    _check_z(z)
    l_abs = abs(ref.state)
    lp_abs = abs(l_prime)
    if lp_abs == l_abs:
        return ref.waist
    w = ref.waist
    lam = ref.wavelength
    if coeff_mode == "printed":
        a = w**2 * l_abs * math.pi**2
    else:
        a = w**2 * lp_abs * math.pi**2
    b = l_abs * (math.pi**2 * w**4 + z**2 * lam**2)
    c = w**2 * lp_abs * z**2 * lam**2
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoMatchingWaistError(
            f"no real waist matches state {l_prime} to the ring of state {ref.state} "
            f"at z={z!r} (discriminant {disc!r})"
        )
    root = (b + math.sqrt(disc)) / (2.0 * a)
    if root <= 0.0:
        raise NoMatchingWaistError(
            f"matching waist for state {l_prime} is not positive at z={z!r}"
        )
    return math.sqrt(root)


def lg_field(beam: BeamParams, r, phi, z: float):
    """Complex transverse field of the beam at radius r, azimuth phi, plane z.

    Zero radial index: the generalized-polynomial factor is 1.  Includes the
    amplitude envelope, the curvature phase (taken as 0 at z = 0 where the
    wavefront is flat), the axial anomaly phase (|l|+1) * arctan(z/z_R), and
    the helical phase exp(-i l phi).  ``r`` and ``phi`` broadcast.
    """
    _check_z(z)
    r_arr = np.asarray(r, dtype=float)
    if not np.all(r_arr >= 0.0):
        raise ValueError("r must be >= 0 and not NaN")
    require("phi", phi, "finite in every entry")
    phi_arr = np.asarray(phi, dtype=float)
    l_abs = abs(beam.state)
    w_z = spot_size(beam, z)
    amp = (
        beam.norm
        / w_z
        * (r_arr * math.sqrt(2.0) / w_z) ** l_abs
        * np.exp(-((r_arr / w_z) ** 2))
    )
    if z == 0.0:
        curvature = 0.0
    else:
        curvature = -math.pi * r_arr**2 / (beam.wavelength * curvature_radius(beam, z))
    phase = curvature + (l_abs + 1) * gouy_phase(beam, z) - beam.state * phi_arr
    out = amp * np.exp(1j * phase)
    if np.ndim(r) == 0 and np.ndim(phi) == 0:
        return complex(out)
    return out
