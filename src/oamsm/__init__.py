"""Link-level simulator and analytic evaluator for spatial modulation over
helically phased (orbital-angular-momentum) millimeter-wave beams.

The package builds the deterministic free-space channel between a transmit
line array and ring-mounted receive antenna pairs, runs the
encode/transmit/demodulate chain, and evaluates discrete-input capacity,
average bit error probability, and transmitter energy efficiency, with a
conventional-array baseline on the same geometry for comparison.
"""

__version__ = "0.1.0"

from .beam import BeamParams, NoMatchingWaistError, curvature_radius, lg_field, ring_radius, spot_size, waist_for_state
from .channel import ChannelTensor, build_channel_tensor
from .config import PROVENANCE, SystemConfig, default_states, load_config
from .errors import ConfigError, NumericError
from .metrics import (
    CapacityEstimate,
    abep,
    antenna_abep,
    antenna_detection_prob,
    antenna_detection_prob_avg,
    dcmc_capacity,
    energy_efficiency,
    gray_gamma,
    mimo_capacity_baseline,
    mimo_channel_matrix,
    mod_bep,
)
from .modem import BerReport, SymbolMap, demodulate_ml, demodulate_stepwise, simulate_ber, transmit
from .numerics import (
    Constellation,
    integrate,
    marcum_q1,
    ncx2_cdf,
    ncx2_pdf,
    psk_constellation,
    q_function,
)

__all__ = [
    "__version__",
    "BeamParams",
    "BerReport",
    "CapacityEstimate",
    "ChannelTensor",
    "ConfigError",
    "Constellation",
    "NoMatchingWaistError",
    "NumericError",
    "PROVENANCE",
    "SymbolMap",
    "SystemConfig",
    "abep",
    "antenna_abep",
    "antenna_detection_prob",
    "antenna_detection_prob_avg",
    "build_channel_tensor",
    "curvature_radius",
    "dcmc_capacity",
    "default_states",
    "demodulate_ml",
    "demodulate_stepwise",
    "energy_efficiency",
    "gray_gamma",
    "integrate",
    "lg_field",
    "load_config",
    "marcum_q1",
    "mimo_capacity_baseline",
    "mimo_channel_matrix",
    "mod_bep",
    "ncx2_cdf",
    "ncx2_pdf",
    "psk_constellation",
    "q_function",
    "ring_radius",
    "simulate_ber",
    "spot_size",
    "transmit",
    "waist_for_state",
]
