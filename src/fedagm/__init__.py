"""Deterministic desk-scale simulator of federated learning rounds with
calibrated adaptive server optimizers, plus the bound machinery to check
runs against the convergence analysis they implement."""

from .errors import (
    ConfigError,
    FedAgmError,
    NumericError,
    ParameterError,
    StructuralError,
)
from .local import LocalConfig, LocalResult, draw_minibatches, run_clients, run_local
from .numerics import (
    ParamVector,
    RngStream,
    StreamBatch,
    as_generator,
    l2_norm_sq,
    sample_dirichlet,
    splitmix64,
)
from .orchestrator import (
    ExperimentConfig,
    ExperimentResult,
    FederatedProblem,
    PlateauTracker,
    ScheduleSpec,
    apply_schedule,
    run_experiment,
)
from .partition import (
    ClientShard,
    PartitionSpec,
    empirical_label_histogram,
    mean_label_entropy,
    partition,
    write_partition_report,
)
from .sampling import SamplingSpec, sample_round
from .serialize import (
    RoundMetrics,
    fmt17,
    load_model,
    metrics_to_csv,
    save_model,
    write_metrics,
)
from .server import (
    Calibration,
    ServerOptimizer,
    ServerState,
    aggregate,
    calibrate,
    init_server_state,
    named_optimizer,
    recover_baseline,
    server_step,
)
from .tasks import (
    Dataset,
    GradSample,
    LogisticRegressionTask,
    MlpTask,
    QuadraticTask,
    StackedFederation,
    evaluate,
    full_gradient,
    init_params,
    load_idx_dataset,
    make_blobs_dataset,
    make_quadratic_client_data,
    make_synthetic_federated_quadratic,
    quadratic_global_optimum,
    quadratic_sigma_sq,
    quadratic_smoothness,
    stochastic_gradient,
)
from .theory import (
    BoundReport,
    MuPair,
    ProblemConstants,
    calibration_span_violations,
    compute_V,
    drift_rhs,
    empirical_sigma_g,
    estimate_problem_constants,
    lemma_second_moment_bound,
    mean_identity_zscores,
    mu_pair,
    probe_gradient_bounds,
    quadratic_sigma_g_exact,
    rate_envelope,
    stepsize_admissible,
    verify_drift_bound,
    verify_lemma_second_moment,
)

__version__ = "0.1.0"
