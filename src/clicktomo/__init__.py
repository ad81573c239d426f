"""Joint photon-number statistics from on/off click data.

Simulate click-pattern frequencies of multimode light measured by
binary detectors at many quantum efficiencies, and reconstruct the
joint photon-number distribution with a maximum-likelihood EM
iteration.
"""

from .detection import (
    ClickProbabilities,
    DetectionMatrix,
    EfficiencyGrid,
    build_matrix,
    forward_click_probabilities,
    no_click_coefficient,
    uniform_grid,
)
from .metrics import bootstrap_uncertainty, fidelity, marginal
from .sampler import ClickRecord, frequencies, sample_clicks
from .solver import (
    ReconstructionTrace,
    StoppingConfig,
    em_step,
    log_likelihood,
    reconstruct,
    reconstruct_exact,
    total_error,
)
from .states import (
    JointDistribution,
    ThermalSpec,
    heralded_split_state,
    multithermal_click_reference,
    multithermal_marginal,
    split_on_beamsplitter,
    state_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "ClickProbabilities",
    "ClickRecord",
    "DetectionMatrix",
    "EfficiencyGrid",
    "JointDistribution",
    "ReconstructionTrace",
    "StoppingConfig",
    "ThermalSpec",
    "bootstrap_uncertainty",
    "build_matrix",
    "em_step",
    "fidelity",
    "forward_click_probabilities",
    "frequencies",
    "heralded_split_state",
    "log_likelihood",
    "marginal",
    "multithermal_click_reference",
    "multithermal_marginal",
    "no_click_coefficient",
    "reconstruct",
    "reconstruct_exact",
    "sample_clicks",
    "split_on_beamsplitter",
    "state_from_json",
    "total_error",
    "uniform_grid",
]
