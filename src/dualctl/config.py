"""Experiment documents: YAML schema, validation and round-trip serialization.

A document fully specifies one closed-loop experiment: the plant and its noise
level, the reference, the surrogate network parameter file, the per-channel
disturbance intervals / grid tolerances / true schedules, controller and
change-detector settings, and Monte Carlo randomization. Validation errors
name the offending field path; a key that config_to_dict does not write is
an unknown field. The document's value types and the initial-covariance
check that make_state also runs live here, so parsing loads no run engine.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from numbers import Integral

import yaml

from .errors import ConfigError, StateError
from .grid import BoundedInterval, CandidateGrid, grid_from_intervals, partition_count
from .plants import (
    PLANT_PARAMS,
    REFERENCE_FIELDS,
    PlantModel,
    ReferenceSpec,
    Segments,
    finite_number,
    reference_at,
    validate_segments,
)
from .rbf import RbfNetwork, load_network

SCHEMA_VERSION = 1
RNG = "pcg64"  # the only generator; documents name it explicitly
CHANNELS = ("alpha", "beta", "gamma")
# Largest candidate grid a document may imply.  The per-iteration cost and the
# learner state grow linearly with it; the bundled configs reach 105.
MAX_GRID_SIZE = 10_000
# Largest horizon a document may ask for.  Parsing evaluates the reference at
# every row and a run keeps every row in memory; the bundled configs use 600.
MAX_ITERATIONS = 100_000
_COVARIANCE_PRESETS = ("identity", "zero", "interval_variance")
# The keys config_to_dict writes: every mapping of a document accepts these only.
_TOP_KEYS = (
    "schema_version", "name", "iterations", "seed", "rng", "initial_output",
    "initial_control", "plant", "reference", "network", "channels", "controller",
    "reset", "initial_covariance", "monte_carlo",
)
# Reference fields a document may omit or set to null: ReferenceSpec's default applies.
_OPTIONAL_REFERENCE_FIELDS = ("amplitude", "form")


class _UniqueKeys:
    """Loader mixin that refuses a mapping repeating a key; pyyaml keeps the last."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode):
                key = (key_node.tag, key_node.value)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found a repeated key {key_node.value!r}", key_node.start_mark,
                    )
                seen.add(key)
        return super().construct_mapping(node, deep)


# libyaml's parser when pyyaml was built with it; the pure-Python one reads the same objects.
_LOADER = type(
    "_Loader", (_UniqueKeys, yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader), {}
)


@dataclass(frozen=True)
class ControllerConfig:
    dual_lambda: float
    input_clamp: float | None = None  # symmetric |u| bound, None = unbounded

    def __post_init__(self):
        if not (0.0 < finite_number(self.dual_lambda, "dual_lambda") < 1.0):
            raise ValueError(f"dual_lambda must lie in (0, 1), got {self.dual_lambda}")
        if self.input_clamp is not None and not (finite_number(self.input_clamp, "input_clamp") > 0):
            raise ValueError("input_clamp must be > 0 when set")


@dataclass(frozen=True)
class ResetPolicy:
    """Thresholds of the change detector."""

    admissible_error: float  # residual magnitude that counts as "wrong"
    posterior_threshold: float = 0.95  # dominance level that counts as "locked"

    def __post_init__(self):
        if not (finite_number(self.admissible_error, "admissible_error") > 0):
            raise ValueError("admissible_error must be > 0")
        if not (0.0 < finite_number(self.posterior_threshold, "posterior_threshold") < 1.0):
            raise ValueError("posterior_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class ChannelSpec:
    """Bounded interval, grid tolerance and true timeline of one channel."""

    interval: BoundedInterval
    schedule: Segments


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    iterations: int
    seed: int
    initial_output: float
    initial_control: float
    plant: PlantModel
    reference: ReferenceSpec
    network: RbfNetwork
    network_file: str
    alpha: ChannelSpec
    beta: ChannelSpec
    gamma: ChannelSpec
    controller: ControllerConfig
    reset: ResetPolicy
    initial_covariance: tuple[tuple[float, ...], ...]
    mc_randomize: tuple[str, ...] = ()

    def build_grid(self) -> CandidateGrid:
        return grid_from_intervals(
            self.alpha.interval, self.beta.interval, self.gamma.interval
        )


@contextmanager
def _reported(path=None, errors=ValueError):
    """Re-raise ``errors`` of the block as ConfigErrors, prefixed with ``path`` if given."""
    try:
        yield
    except errors as exc:
        raise ConfigError(f"{path}: {exc}" if path else str(exc)) from exc


def _expect(mapping, key, types, path, required=True, default=None):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = mapping[key]
    # Explicit nulls on optional fields mean "not set".
    if value is None and not required:
        return default
    # A bool is an int to isinstance, but never what a typed field means.
    if types is not None and (isinstance(value, bool) or not isinstance(value, types)):
        raise ConfigError(
            f"{path}.{key}: expected {getattr(types, '__name__', types)}, got {type(value).__name__}"
        )
    return value


def _known(mapping, keys, path) -> None:
    """Reject a key outside ``keys``: a misspelt optional field would otherwise
    leave its default in force without a word."""
    for key in mapping:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown field")


def _finite(value, where) -> float:
    """``value`` as a float; a boolean, a non-number or a NaN/inf is a ConfigError."""
    with _reported():
        return finite_number(value, where)


def _number(mapping, key, path, required=True, default=None):
    v = _expect(mapping, key, None, path, required, default)
    return None if v is None and not required else _finite(v, f"{path}.{key}")


def _number_fields(raw, cls, path):
    """``cls`` built from the numbers of mapping ``raw``, one per dataclass field;
    a field with a default is optional."""
    _known(raw, [f.name for f in fields(cls)], path)
    with _reported(path):
        return cls(**{
            f.name: _number(raw, f.name, path, f.default is MISSING, f.default)
            for f in fields(cls)
        })


def _segments(raw, path) -> Segments:
    if not isinstance(raw, list) or not all(
        isinstance(s, list) and len(s) == 2 for s in raw
    ):
        raise ConfigError(f"{path}: expected a list of [start_k, value] pairs")
    with _reported():
        return validate_segments(raw, path)


def _channel(raw, path, iterations) -> ChannelSpec:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a mapping")
    _known(raw, ("lower", "upper", "eps", "schedule"), path)
    with _reported(path):
        interval = BoundedInterval(
            lower=_number(raw, "lower", path),
            upper=_number(raw, "upper", path),
            admissible_error=_number(raw, "eps", path),
        )
    sched = _segments(_expect(raw, "schedule", list, path), f"{path}.schedule")
    if sched[-1][0] > iterations:
        raise ConfigError(
            f"{path}.schedule: segment starts at k={sched[-1][0]} beyond iterations={iterations}"
        )
    return ChannelSpec(interval=interval, schedule=sched)


def check_seed(name: str, seed: int | None) -> None:
    """A seed, the config's or an override, must be a non-negative integer; a
    numpy integer is one, a bool is not."""
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0):
        raise ConfigError(f"{name}: expected a non-negative integer, got {seed!r}")


def check_name(name: str, where: str) -> None:
    """A run name must be one line without surrounding whitespace, the form that a
    trace's ``# name:`` line reads back unchanged; a ValueError otherwise."""
    if name != name.strip() or len(name.splitlines()) > 1:
        raise ValueError(f"{where}: must be one line without surrounding spaces, got {name!r}")


def check_grid_size(intervals, path: str) -> None:
    """Reject a grid above ``MAX_GRID_SIZE`` candidates without building it."""
    try:
        counts = [partition_count(interval) for interval in intervals]
    except OverflowError:  # width / eps is infinite
        counts = [math.inf]
    if math.prod(counts) > MAX_GRID_SIZE:
        raise ConfigError(
            f"{path}: the candidate grid has "
            f"{' x '.join(map(str, counts))} candidates, more than {MAX_GRID_SIZE}"
        )


def _plant(raw, path) -> PlantModel:
    kind = _expect(raw, "kind", str, path)
    if kind not in PLANT_PARAMS:
        raise ConfigError(f"{path}.kind: unknown plant kind {kind!r}")
    _known(raw, ("kind", "noise_variance", "params"), path)
    params = _expect(raw, "params", dict, path, required=False, default={})
    # PlantModel refuses these too; checked here so the error names the field.
    _known(params, PLANT_PARAMS[kind], f"{path}.params")
    with _reported(path):
        return PlantModel(
            kind=kind,
            noise_variance=_number(raw, "noise_variance", path),
            params={k: _finite(v, f"{path}.params.{k}") for k, v in params.items()},
        )


def _reference_field(raw, key, path):
    """One reference field, read as its name says; None for an unset optional one."""
    if key == "segments":
        return _segments(_expect(raw, key, list, path), f"{path}.{key}")
    if key == "form":
        return _expect(raw, key, str, path, required=False)
    if key == "values":
        values = _expect(raw, key, list, path)
        return tuple(_finite(v, f"{path}.{key}[{i}]") for i, v in enumerate(values))
    return _number(raw, key, path, required=key not in _OPTIONAL_REFERENCE_FIELDS)


def _reference(raw, path) -> ReferenceSpec:
    kind = _expect(raw, "kind", str, path)
    if kind not in REFERENCE_FIELDS:
        raise ConfigError(f"{path}.kind: unknown reference kind {kind!r}")
    _known(raw, ("kind",) + REFERENCE_FIELDS[kind], path)
    read = {key: _reference_field(raw, key, path) for key in REFERENCE_FIELDS[kind]}
    with _reported(path):  # a ValueError from ReferenceSpec; the ConfigErrors name their field
        return ReferenceSpec(kind=kind, **{k: v for k, v in read.items() if v is not None})


def _reference_is_finite(spec: ReferenceSpec, iterations: int) -> bool:
    """Whether y_r(1) .. y_r(iterations + 1), the last a look-ahead target, are finite."""
    try:
        return all(math.isfinite(reference_at(spec, k)) for k in range(1, iterations + 2))
    except (ValueError, OverflowError):  # math domain and range errors
        return False


def _is_diagonal(p0) -> bool:
    """True when every off-diagonal entry of ``p0`` is zero (of either sign) and
    no diagonal entry is negative (``-0.0`` is not)."""
    return (
        p0[0][1] == p0[0][2] == p0[1][0] == p0[1][2] == p0[2][0] == p0[2][1] == 0.0
        and min(p0[0][0], p0[1][1], p0[2][2]) >= 0.0
    )


def check_covariance(p0) -> bool:
    """Check the 3x3 float matrix ``p0`` as an initial covariance; return whether
    it is diagonal (see :func:`_is_diagonal`).

    ``p0`` must be symmetric and positive semidefinite, both within 1e-9. A
    diagonal ``p0`` with finite entries passes both checks by construction: its
    off-diagonal entries are zero and its eigenvalues are its non-negative
    diagonal entries. It is accepted without numpy, which is then not imported.
    Any other ``p0`` (a cross entry, a tiny negative variance, a NaN or an inf)
    is checked with numpy's ``isclose`` and ``eigvalsh``; an infinite entry is
    refused. Raises :class:`StateError`.
    """
    diagonal = _is_diagonal(p0)
    if not (diagonal and all(math.isfinite(p0[i][i]) for i in range(3))):
        import numpy as np

        mat = np.asarray(p0)
        if not np.isclose(mat, mat.T, atol=1e-9).all():
            raise StateError("covariance 0 is not symmetric")
        if not np.isfinite(mat).all():  # eigvalsh of an inf entry is NaN, which no bound refuses
            raise StateError("covariance 0 has a non-finite entry")
        if np.linalg.eigvalsh(mat).min() < -1e-9:
            raise StateError("covariance 0 is not positive semidefinite")
    return diagonal


def _initial_covariance(raw, path, channels) -> tuple[tuple[float, ...], ...]:
    p0 = _covariance_matrix(raw, path, channels)
    with _reported(path, StateError):
        check_covariance(p0)  # the check make_state runs on every P0
    return p0


def _covariance_matrix(raw, path, channels) -> tuple[tuple[float, ...], ...]:
    if isinstance(raw, str):
        if raw not in _COVARIANCE_PRESETS:
            raise ConfigError(
                f"{path}: unknown preset {raw!r}, expected one of {_COVARIANCE_PRESETS} or a 3x3 matrix"
            )
        if raw == "identity":
            return tuple(tuple(1.0 if i == j else 0.0 for j in range(3)) for i in range(3))
        if raw == "zero":
            return ((0.0,) * 3,) * 3
        # interval_variance: variance of a uniform draw over each channel interval
        return tuple(
            tuple(ch.interval.width**2 / 12.0 if i == j else 0.0 for j in range(3))
            for i, ch in enumerate(channels)
        )
    if isinstance(raw, list):
        if len(raw) != 3 or any(not isinstance(r, list) or len(r) != 3 for r in raw):
            raise ConfigError(f"{path}: matrix form must be 3 rows of 3 numbers")
        return tuple(
            tuple(_finite(v, f"{path}[{i}][{j}]") for j, v in enumerate(row))
            for i, row in enumerate(raw)
        )
    raise ConfigError(f"{path}: expected a preset name or a 3x3 matrix")


def parse_config(path) -> ExperimentConfig:
    """Load, validate and resolve an experiment document."""
    with open(path, encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_LOADER)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def config_from_dict(raw: dict, base_dir: str = ".") -> ExperimentConfig:
    version = _expect(raw, "schema_version", int, "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"config.schema_version: this build reads version {SCHEMA_VERSION}, got {version}"
        )
    _known(raw, _TOP_KEYS, "config")
    iterations = _expect(raw, "iterations", int, "config")
    if iterations < 2:
        raise ConfigError("config.iterations: must be >= 2")
    if iterations > MAX_ITERATIONS:
        raise ConfigError(f"config.iterations: {iterations} is more than {MAX_ITERATIONS}")
    seed = _expect(raw, "seed", int, "config")
    check_seed("config.seed", seed)
    rng = _expect(raw, "rng", str, "config", required=False, default=RNG)
    if rng != RNG:
        raise ConfigError(f"config.rng: only {RNG!r} is supported, got {rng!r}")

    channels_raw = _expect(raw, "channels", dict, "config")
    _known(channels_raw, CHANNELS, "config.channels")
    channels = []
    for name in CHANNELS:
        if name not in channels_raw:
            raise ConfigError(f"config.channels.{name}: missing required field")
        channels.append(_channel(channels_raw[name], f"config.channels.{name}", iterations))
    check_grid_size([ch.interval for ch in channels], "config.channels")

    controller = _number_fields(
        _expect(raw, "controller", dict, "config"), ControllerConfig, "config.controller"
    )
    reset = _number_fields(_expect(raw, "reset", dict, "config"), ResetPolicy, "config.reset")

    mc_raw = _expect(raw, "monte_carlo", dict, "config", required=False, default={})
    _known(mc_raw, ("randomize",), "config.monte_carlo")
    randomize = _expect(mc_raw, "randomize", list, "config.monte_carlo", required=False, default=[])
    for ch in randomize:
        if ch not in CHANNELS:
            raise ConfigError(f"config.monte_carlo.randomize: unknown channel {ch!r}")

    reference = _reference(_expect(raw, "reference", dict, "config"), "config.reference")
    if not _reference_is_finite(reference, iterations):
        raise ConfigError(f"config.reference: not finite over iterations 1..{iterations + 1}")

    network_file = _expect(raw, "network", str, "config")
    resolved = network_file if os.path.isabs(network_file) else os.path.join(base_dir, network_file)
    if not os.path.exists(resolved):
        raise ConfigError(f"config.network: parameter file not found: {resolved}")
    with _reported("config.network", (ValueError, OSError)):  # OSError: a directory, no access
        network = load_network(resolved)

    name = _expect(raw, "name", str, "config")
    with _reported():
        check_name(name, "config.name")
    return ExperimentConfig(
        name=name,
        iterations=iterations,
        seed=seed,
        initial_output=_number(raw, "initial_output", "config"),
        initial_control=_number(raw, "initial_control", "config", required=False, default=0.0),
        plant=_plant(_expect(raw, "plant", dict, "config"), "config.plant"),
        reference=reference,
        network=network,
        network_file=os.path.abspath(resolved),
        alpha=channels[0],
        beta=channels[1],
        gamma=channels[2],
        controller=controller,
        reset=reset,
        initial_covariance=_initial_covariance(
            _expect(raw, "initial_covariance", None, "config", required=False, default="identity"),
            "config.initial_covariance",
            channels,
        ),
        mc_randomize=tuple(randomize),
    )


def _lists(value):
    """``value`` with its tuples, at any depth, as lists: plain YAML has no tuples."""
    return [_lists(v) for v in value] if isinstance(value, (tuple, list)) else value


def _channel_dict(ch: ChannelSpec) -> dict:
    interval = ch.interval
    return {
        "lower": interval.lower,
        "upper": interval.upper,
        "eps": interval.admissible_error,
        "schedule": _lists(ch.schedule),
    }


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Plain-YAML form of a config; parse_config(save) reproduces the dataclass."""
    ref = cfg.reference
    return {
        "schema_version": SCHEMA_VERSION,
        "name": cfg.name,
        "iterations": cfg.iterations,
        "seed": cfg.seed,
        "rng": RNG,
        "initial_output": cfg.initial_output,
        "initial_control": cfg.initial_control,
        "plant": {
            "kind": cfg.plant.kind,
            "noise_variance": cfg.plant.noise_variance,
            "params": dict(cfg.plant.params),
        },
        "reference": {
            "kind": ref.kind, **{k: _lists(getattr(ref, k)) for k in REFERENCE_FIELDS[ref.kind]}
        },
        "network": cfg.network_file,
        "channels": {name: _channel_dict(getattr(cfg, name)) for name in CHANNELS},
        "controller": asdict(cfg.controller),
        "reset": asdict(cfg.reset),
        "initial_covariance": _lists(cfg.initial_covariance),
        "monte_carlo": {"randomize": list(cfg.mc_randomize)},
    }


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=False)
