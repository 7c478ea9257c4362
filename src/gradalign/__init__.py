"""Deterministic simulator of gradient-aligned distributed/federated
optimization with a numerical theorem-verification harness."""

from .algorithms import (
    AlgoConfig,
    RoundResult,
    expected_round,
    fedavg_round,
    fedga_perstep_round,
    fedga_round,
    fedprox_round,
    gradalign_round,
    largebatch_gd_round,
    linear_scaled_step,
    run_gd_sequence,
    run_sgd_sequence,
    run_surrogate_gd_sequence,
    scaffold_round,
)
from .datagen import Dataset, MinibatchSchedule, Partition, gen_blobs, load_csv, partition, save_csv
from .errors import (
    ConfigError,
    DataFormatError,
    DimensionError,
    DivergenceError,
    NumericError,
    UsageError,
)
from .harness import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    run_sweep,
    verify_suite,
)
from .objectives import (
    ClientObjective,
    FederatedProblem,
    LogisticClient,
    MLPClient,
    QuadraticClient,
    make_quadratic_problem,
    make_supervised_client,
)
from .params import SeededStream, axpy, derive_stream, mean_reduce
from .regularizer import (
    RegularizerReport,
    SmoothnessEstimate,
    estimate_smoothness_constants,
    regularizer_report,
    regularizer_value,
    surrogate_value,
)
from .verify import (
    TheoremVerdict,
    descent_condition_check,
    descent_rate_check,
    expected_sgd_over_orderings,
    fit_loglog_slope,
    taylor_displaced_gradient_check,
    theorem1_residual,
    theorem2_residual,
    theorem4_residual,
    theorem5_residual,
)

__version__ = "0.1.0"
