"""Fairness-aware spectral learning on graphs.

The package ships a truncated eigensolver for symmetric graph operators, a
spectral node-classification model whose filter response is produced by a
small attention block over the eigenvalue spectrum, a smoothing reference
model, group-fairness metrics, numerical verification of the convergence
claims behind the design, and a command-line interface tying it together.
"""

__version__ = "0.1.0"

from .eigen import (
    SpectralBasis,
    full_dense_eigendecomposition,
    load_basis,
    save_basis,
    top_k_eigenpairs,
)
from .graph import Graph, SbmConfig, generate_sbm, load_graph, make_splits, normalize
from .metrics import FairnessReport, delta_eo, delta_sp, evaluate
from .model import (
    ModelParams,
    forward_propagation,
    forward_spectral,
    init_propagation_params,
    init_spectral_params,
    propagate_features,
)
from .train import TrainConfig, TrainHistory, train

__all__ = [
    "__version__",
    "SpectralBasis",
    "full_dense_eigendecomposition",
    "top_k_eigenpairs",
    "save_basis",
    "load_basis",
    "Graph",
    "SbmConfig",
    "generate_sbm",
    "load_graph",
    "make_splits",
    "normalize",
    "FairnessReport",
    "delta_sp",
    "delta_eo",
    "evaluate",
    "ModelParams",
    "forward_spectral",
    "forward_propagation",
    "propagate_features",
    "init_spectral_params",
    "init_propagation_params",
    "TrainConfig",
    "TrainHistory",
    "train",
]
