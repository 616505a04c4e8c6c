"""Dual control with online Bayesian identification of bounded disturbances.

The package simulates scalar discrete-time plants whose dynamics are scaled
and shifted by piecewise-constant disturbances, identifies the active
disturbance combination over a discretized candidate set in real time, and
closes the loop with a posterior-blended dual controller.
"""

from .config import (
    config_from_dict,
    config_to_dict,
    parse_config,
    save_config,
)
from .controller import (
    ControllerConfig,
    blended_control,
    candidate_control_terms,
    optimal_control,
)
from .errors import (
    BatchError,
    ConfigError,
    DualctlError,
    FitError,
    PosteriorUnderflowError,
    RunError,
    SimulationError,
    SingularControlError,
    StateError,
)
from .grid import (
    BoundedInterval,
    grid_from_intervals,
    partition_interval,
)
from .harness import (
    RunTrace,
    batch_metrics,
    recovery_streak,
    monte_carlo,
    read_trace,
    run_experiment,
    run_metrics,
    trace_change_points,
    write_trace,
)
from .learner import (
    COVARIANCE_CAP,
    POSTERIOR_FLOOR,
    LearnerState,
    ResetPolicy,
    bayes_step,
    detect_change,
    make_state,
    reset,
    update_covariance,
    update_posteriors,
)
from .plants import (
    DisturbanceSchedule,
    PlantModel,
    ReferenceSpec,
    affine_f,
    affine_g,
    reference_at,
    sample_noise,
    train_f,
    train_g,
    validate_segments,
)
from .rbf import (
    RbfNetwork,
    branch,
    eval_network,
    geometry,
    load_network,
    save_network,
    train_offline,
)

__version__ = "0.1.0"
