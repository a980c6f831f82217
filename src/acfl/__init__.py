"""Simulation laboratory for adaptive coded federated learning.

Pieces: deterministic numerics and seeded streams (:mod:`acfl.numerics`),
synthetic regression instances (:mod:`acfl.dataset`), noisy Gram-matrix
encoding (:mod:`acfl.coding`), an MI-DP accountant (:mod:`acfl.privacy`),
the straggler-afflicted training loop (:mod:`acfl.training`), closed-form
bounds and trade-off curves (:mod:`acfl.analysis`), and a config-driven
experiment harness with a CLI (:mod:`acfl.harness`, :mod:`acfl.cli`).
"""

from .analysis import (
    BoundInputs,
    TradeoffPoint,
    comm_overhead,
    convergence_bound,
    tradeoff_curve,
    u_of,
    u_tilde,
)
from .coding import (
    GlobalCodedData,
    NoiseParams,
    encode_levels,
    payload_size,
)
from .dataset import (
    FederatedDataset,
    ProblemFacts,
    generate,
    loss,
    optimum,
)
from .errors import NumericError, ParameterError
from .harness import (
    ComparisonResult,
    ExperimentConfig,
    OracleAuto,
    RunResult,
    compare_baselines,
    load_config,
    run_experiment,
)
from .numerics import RngStream, eig_min_sym
from .privacy import epsilon_of, sigma_for_epsilon
from .training import (
    AdaptiveEstimated,
    AdaptiveOracle,
    AggregationPolicy,
    FixedWeight,
    InverseDecay,
    TrainingTrace,
    alpha_oracle,
    sample_stragglers,
    schedule_for_strong_convexity,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveEstimated",
    "AdaptiveOracle",
    "AggregationPolicy",
    "BoundInputs",
    "ComparisonResult",
    "ExperimentConfig",
    "FederatedDataset",
    "FixedWeight",
    "GlobalCodedData",
    "InverseDecay",
    "NoiseParams",
    "NumericError",
    "OracleAuto",
    "ParameterError",
    "ProblemFacts",
    "RngStream",
    "RunResult",
    "TradeoffPoint",
    "TrainingTrace",
    "alpha_oracle",
    "comm_overhead",
    "compare_baselines",
    "convergence_bound",
    "eig_min_sym",
    "encode_levels",
    "epsilon_of",
    "generate",
    "load_config",
    "loss",
    "optimum",
    "payload_size",
    "run_experiment",
    "sample_stragglers",
    "schedule_for_strong_convexity",
    "sigma_for_epsilon",
    "tradeoff_curve",
    "train",
    "u_of",
    "u_tilde",
]
