"""Core pooled-data substrate and the paper's greedy algorithm.

The core package implements the problem model of Section II (ground
truths, pooling designs, noise channels, measurements), the greedy
maximum-neighborhood decoder of Section III (Algorithm 1) in batch and
incremental form, and the theoretical query thresholds of Section IV
(Theorems 1 and 2).
"""

from repro.core.bounds import (
    DEFAULT_EPS,
    GAMMA_CONST,
    counting_lower_bound,
    noisy_query_phase,
    queries_from_density,
    theorem1_bound,
    theorem1_linear,
    theorem1_sublinear_gnc,
    theorem1_sublinear_z,
    theorem2_bound,
    theorem2_linear,
    theorem2_sublinear,
)
from repro.core.ground_truth import (
    GroundTruth,
    linear_k,
    regime_k,
    sample_ground_truth,
    sample_linear,
    sample_sublinear,
    sublinear_k,
)
from repro.core.batch import (
    BatchTrialRunner,
    first_success_m,
    sample_pooling_graph_batch,
)
from repro.core.chunking import chunk_bounds, chunk_sequence
from repro.core.corruption import (
    CorruptionModel,
    CorruptionReport,
    FaultSpec,
    apply_corruption,
    corruption_rng,
    network_fault_rng,
)
from repro.core.greedy import greedy_reconstruct, run_greedy_trial
from repro.core.incremental import (
    IncrementalDecoder,
    default_max_queries,
    required_queries,
)
from repro.core.measurement import Measurements, measure, measure_query
from repro.core.noise import (
    Channel,
    GaussianQueryNoise,
    NoiselessChannel,
    NoisyChannel,
    ZChannel,
    effective_channel_regime,
    make_channel,
)
from repro.core.pooling import (
    PoolingGraph,
    PoolingGraphBuilder,
    default_gamma,
    sample_pooling_graph,
    sample_query,
    sample_regular_design,
)
from repro.core.scores import (
    CENTERING_MODES,
    centered_scores,
    expected_query_result,
    scores_from_measurements,
    separation_margin,
    top_k_estimate,
)
from repro.core.twostage import (
    TwoStageConfig,
    channel_corrected_results,
    two_stage_reconstruct,
)
from repro.core.types import (
    ReconstructionResult,
    RequiredQueriesResult,
    evaluate_estimate,
)

__all__ = [
    # ground truth
    "GroundTruth",
    "sample_ground_truth",
    "sample_sublinear",
    "sample_linear",
    "sublinear_k",
    "linear_k",
    "regime_k",
    # pooling
    "PoolingGraph",
    "PoolingGraphBuilder",
    "sample_pooling_graph",
    "sample_pooling_graph_batch",
    "sample_query",
    "sample_regular_design",
    "default_gamma",
    # batch engine
    "BatchTrialRunner",
    "first_success_m",
    # chunking (sharded execution support)
    "chunk_bounds",
    "chunk_sequence",
    # noise
    "Channel",
    "NoiselessChannel",
    "NoisyChannel",
    "ZChannel",
    "GaussianQueryNoise",
    "make_channel",
    "effective_channel_regime",
    # measurement
    "Measurements",
    "measure",
    "measure_query",
    # fault scenarios (measurement corruption + network-fault specs)
    "CorruptionModel",
    "CorruptionReport",
    "FaultSpec",
    "apply_corruption",
    "corruption_rng",
    "network_fault_rng",
    # scores / greedy
    "CENTERING_MODES",
    "centered_scores",
    "expected_query_result",
    "scores_from_measurements",
    "top_k_estimate",
    "separation_margin",
    "greedy_reconstruct",
    "run_greedy_trial",
    # two-stage extension
    "TwoStageConfig",
    "two_stage_reconstruct",
    "channel_corrected_results",
    # incremental
    "IncrementalDecoder",
    "required_queries",
    "default_max_queries",
    # bounds
    "GAMMA_CONST",
    "DEFAULT_EPS",
    "queries_from_density",
    "theorem1_bound",
    "theorem1_sublinear_z",
    "theorem1_sublinear_gnc",
    "theorem1_linear",
    "theorem2_bound",
    "theorem2_sublinear",
    "theorem2_linear",
    "counting_lower_bound",
    "noisy_query_phase",
    # results
    "ReconstructionResult",
    "RequiredQueriesResult",
    "evaluate_estimate",
]
