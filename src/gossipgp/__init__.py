"""Decentralized Gaussian process regression with random Fourier features.

The model keeps a Gaussian posterior over random-feature weights in
information form (precision matrix and information vector), which makes
Bayesian updates additive: a network of agents can reconstruct the
centralized posterior by summing their local update increments via gossip.
On top of that sit robust residual reweighing, forgetting schemes for
drifting targets, and evidence-weighted hyperparameter ensembles.
"""

from .features import KernelSpec, FeatureMap, sample_frequencies, feature_matrix
from .info_filter import (
    InfoState,
    PosteriorFactor,
    NumericalDegeneracyError,
    prior_state,
    apply_increment,
    factorize,
    posterior_root,
    predict_batch,
    save_state,
    load_state,
)
from .robust import (
    RobustConfig,
    huber_weight,
    hampel_weight,
    weights_for,
    standardized_residuals,
    robust_increment,
)
from .dynamics import DynamicsConfig, apply_forgetting, rotate
from .consensus import (
    Topology,
    ConsensusConfig,
    build_topology,
    metropolis_weights,
    consensus_sum,
)
from .ensemble import (
    EnsembleSpec,
    EnsembleState,
    member_seed,
    init_ensemble,
    ensemble_weights,
    gaussian_log_density,
    mixture_log_density,
    mixture_predict_batch,
)

__version__ = "0.1.0"

__all__ = [
    "KernelSpec",
    "FeatureMap",
    "sample_frequencies",
    "feature_matrix",
    "InfoState",
    "PosteriorFactor",
    "NumericalDegeneracyError",
    "prior_state",
    "apply_increment",
    "factorize",
    "posterior_root",
    "predict_batch",
    "save_state",
    "load_state",
    "RobustConfig",
    "huber_weight",
    "hampel_weight",
    "weights_for",
    "standardized_residuals",
    "robust_increment",
    "DynamicsConfig",
    "apply_forgetting",
    "rotate",
    "Topology",
    "ConsensusConfig",
    "build_topology",
    "metropolis_weights",
    "consensus_sum",
    "EnsembleSpec",
    "EnsembleState",
    "member_seed",
    "init_ensemble",
    "ensemble_weights",
    "gaussian_log_density",
    "mixture_log_density",
    "mixture_predict_batch",
    "__version__",
]
