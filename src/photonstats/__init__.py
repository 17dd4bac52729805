"""Heralded photon-number statistics through lossy binary-bin detectors.

Simulation of a photon-pair source heralded by click detectors and measured
through a lossy multiplexed detector bank, together with the loss-tolerant
analysis chain: channel-efficiency self-calibration from conditional click
statistics, maximum-likelihood reconstruction of the photon-number
distribution, and nonclassicality witnesses.
"""

__version__ = "0.1.0"

from .distributions import (
    PhotonDistribution,
    coherent,
    fock,
    from_probs,
    mix,
    thermal,
    tms_marginal,
)
from .detector import (
    ClickDistribution,
    ConvolutionMatrix,
    LossMatrix,
    apply_loss,
    convolution_matrix,
    forward_model,
    loss_matrix,
    uniform_bins,
)
from .heralding import (
    ConditionalStats,
    HeraldConfig,
    TriggerKind,
    herald,
    herald_rate,
    heralded_click_distribution,
    trigger_click_prob,
)
from .calibration import (
    CountHistogram,
    EfficiencyEstimate,
    EstimatorOrder,
    TransmissionRatio,
    combine_efficiencies,
    consistency_check,
    double_trigger_efficiencies,
    klyshko_efficiency,
    single_trigger_efficiency,
    transmission_ratio,
)
from .inversion import (
    EmOptions,
    InversionResult,
    deconvolve_clicks,
    direct_invert,
    em_invert,
    fidelity,
)
from .pipeline import run_pipeline
from .nonclassicality import (
    NonclassicalityReport,
    b_criterion,
    b_std_err,
    b_sweep,
    mandel_q,
    mandel_q_std_err,
    report,
)
from .montecarlo import (
    Contaminant,
    ExperimentConfig,
    SimulationOutput,
    run,
)

__all__ = [
    "__version__",
    "PhotonDistribution",
    "coherent",
    "fock",
    "from_probs",
    "mix",
    "thermal",
    "tms_marginal",
    "ClickDistribution",
    "ConvolutionMatrix",
    "LossMatrix",
    "apply_loss",
    "convolution_matrix",
    "forward_model",
    "loss_matrix",
    "uniform_bins",
    "ConditionalStats",
    "HeraldConfig",
    "TriggerKind",
    "herald",
    "herald_rate",
    "heralded_click_distribution",
    "trigger_click_prob",
    "CountHistogram",
    "EfficiencyEstimate",
    "EstimatorOrder",
    "TransmissionRatio",
    "combine_efficiencies",
    "consistency_check",
    "double_trigger_efficiencies",
    "klyshko_efficiency",
    "single_trigger_efficiency",
    "transmission_ratio",
    "EmOptions",
    "InversionResult",
    "deconvolve_clicks",
    "direct_invert",
    "em_invert",
    "fidelity",
    "run_pipeline",
    "NonclassicalityReport",
    "b_criterion",
    "b_std_err",
    "b_sweep",
    "mandel_q",
    "mandel_q_std_err",
    "report",
    "Contaminant",
    "ExperimentConfig",
    "SimulationOutput",
    "run",
]
