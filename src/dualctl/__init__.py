"""Dual control with online Bayesian identification of bounded disturbances.

The package simulates scalar discrete-time plants whose dynamics are scaled
and shifted by piecewise-constant disturbances, identifies the active
disturbance combination over a discretized candidate set in real time, and
closes the loop with a posterior-blended dual controller.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so parsing a config never
compiles the run engine (``harness``, ``learner``, ``controller``). A name is
looked up in its module on every access and never stored here.
"""

_MODULE_EXPORTS = {
    "config": "ControllerConfig ResetPolicy config_from_dict config_to_dict parse_config save_config",
    "controller": "blended_control candidate_control_terms optimal_control",
    "errors": "BatchError ConfigError DualctlError FitError PosteriorUnderflowError RunError "
    "SimulationError SingularControlError StateError",
    "grid": "BoundedInterval grid_from_intervals partition_interval",
    "harness": "RunTrace batch_metrics recovery_streak monte_carlo read_trace run_experiment "
    "run_metrics trace_change_points write_trace",
    "learner": "COVARIANCE_CAP POSTERIOR_FLOOR LearnerState bayes_step detect_change make_state "
    "reset update_covariance update_posteriors",
    "plants": "DisturbanceSchedule PlantModel ReferenceSpec affine_f affine_g reference_at "
    "sample_noise train_f train_g validate_segments",
    "rbf": "RbfNetwork branch eval_network geometry load_network save_network train_offline",
}
# Exported name -> the module that defines it.
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_MODULE_EXPORTS, "cli")

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def _load(module):
    # __import__ rather than importlib.import_module, whose own imports
    # `python -X importtime` does not list.  A fromlist returns the submodule.
    return __import__(f"{__name__}.{module}", fromlist=["_"])


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(_load(_EXPORTS[name]), name)
    if name in _SUBMODULES:
        return _load(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_EXPORTS])
