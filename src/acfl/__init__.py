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
    LocalCodedData,
    NoiseParams,
    aggregate_coded,
    encode_dataset,
    encode_levels,
    encode_local,
    payload_size,
)
from .dataset import (
    DeviceData,
    FederatedDataset,
    ProblemFacts,
    eig_min_sum,
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
    save_config,
)
from .numerics import RngStream, eig_min_sym, gaussian_matrix, spd_solve, uniform_matrix
from .privacy import epsilon_of, sigma_for_epsilon
from .training import (
    AdaptiveEstimated,
    AdaptiveOracle,
    AggregationPolicy,
    Arm,
    FixedWeight,
    InverseDecay,
    TrainingTrace,
    aggregate,
    alpha_estimated,
    alpha_oracle,
    coded_gradient,
    local_gradient,
    sample_stragglers,
    schedule_for_strong_convexity,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveEstimated",
    "AdaptiveOracle",
    "AggregationPolicy",
    "Arm",
    "BoundInputs",
    "ComparisonResult",
    "DeviceData",
    "ExperimentConfig",
    "FederatedDataset",
    "FixedWeight",
    "GlobalCodedData",
    "InverseDecay",
    "LocalCodedData",
    "NoiseParams",
    "NumericError",
    "OracleAuto",
    "ParameterError",
    "ProblemFacts",
    "RngStream",
    "RunResult",
    "TradeoffPoint",
    "TrainingTrace",
    "aggregate",
    "aggregate_coded",
    "alpha_estimated",
    "alpha_oracle",
    "coded_gradient",
    "comm_overhead",
    "compare_baselines",
    "convergence_bound",
    "eig_min_sum",
    "eig_min_sym",
    "encode_dataset",
    "encode_levels",
    "encode_local",
    "epsilon_of",
    "gaussian_matrix",
    "generate",
    "load_config",
    "local_gradient",
    "loss",
    "optimum",
    "payload_size",
    "run_experiment",
    "sample_stragglers",
    "save_config",
    "schedule_for_strong_convexity",
    "sigma_for_epsilon",
    "spd_solve",
    "tradeoff_curve",
    "train",
    "u_of",
    "u_tilde",
    "uniform_matrix",
]
