"""dropsim: timing simulator and analysis toolkit for synchronous
data-parallel training under compute variance.

Workers that accumulate M micro-batch gradients per step are held hostage by
the slowest of them; capping each worker's compute at a threshold tau trades
a little dropped work for a much shorter synchronous step. The package
simulates that trade, predicts it in closed form, selects the threshold that
maximizes effective speedup from recorded traces, and verifies the
stochastic-batch-size convergence guarantees on small exactly-known problems.
"""

__version__ = "0.1.0"

from .stats import EULER_GAMMA, RngStream, phi_cdf, phi_inv
from .latency import (
    BernoulliNoise,
    BoundedLogNormalNoise,
    EmpiricalNoise,
    ExponentialNoise,
    FleetSpec,
    GammaNoise,
    LogNormalNoise,
    NoNoise,
    NormalNoise,
    WorkerLatencyModel,
    read_comm_csv,
    read_trace_csv,
    simulated_delay_noise,
    write_comm_csv,
    write_trace_csv,
)
from .simulate import (
    LocalSgdResult,
    RunStats,
    SimConfig,
    SweepPoint,
    local_sgd_run,
    run,
    run_detailed,
    run_from_trace,
    scale_sweep,
    simulate_iteration,
)
from .analytic import (
    GaussianStepModel,
    expected_completed,
    expected_max_time,
    expected_speedup,
    optimal_threshold_analytic,
)
from .threshold import (
    ThresholdSearchResult,
    TraceTensor,
    default_grid,
    select_threshold,
)
from .sgd import (
    BatchSchedule,
    CompensationResult,
    MarginReport,
    SgdProblem,
    TrainingPlan,
    apply_compensation,
    theorem_step_size,
    verify_convex_bound,
    verify_nonconvex_bound,
)

__all__ = [
    "__version__",
    "EULER_GAMMA",
    "RngStream",
    "phi_cdf",
    "phi_inv",
    "NoNoise",
    "NormalNoise",
    "LogNormalNoise",
    "BoundedLogNormalNoise",
    "BernoulliNoise",
    "ExponentialNoise",
    "GammaNoise",
    "EmpiricalNoise",
    "WorkerLatencyModel",
    "FleetSpec",
    "simulated_delay_noise",
    "read_trace_csv",
    "write_trace_csv",
    "read_comm_csv",
    "write_comm_csv",
    "SimConfig",
    "RunStats",
    "SweepPoint",
    "LocalSgdResult",
    "simulate_iteration",
    "run",
    "run_detailed",
    "run_from_trace",
    "scale_sweep",
    "local_sgd_run",
    "GaussianStepModel",
    "expected_max_time",
    "expected_completed",
    "expected_speedup",
    "optimal_threshold_analytic",
    "TraceTensor",
    "ThresholdSearchResult",
    "select_threshold",
    "default_grid",
    "SgdProblem",
    "BatchSchedule",
    "MarginReport",
    "TrainingPlan",
    "CompensationResult",
    "theorem_step_size",
    "verify_convex_bound",
    "verify_nonconvex_bound",
    "apply_compensation",
]
