"""Simulated plants, disturbance schedules, reference signals and noise.

Both bundled plants share the disturbed one-step form

    y(k+1) = alpha(k) * f(y(k)) + beta(k) * g(y(k)) * u(k) + gamma(k) + e(k)

with scalar output and input. ``affine_case1`` uses ``f(y) = sin(y) +
cos(3y)`` and ``g(y) = 2 + cos(y)``. ``crh3_train`` models train speed under
traction/braking force ``u``: ``f(v) = v - xi*T*(c_r + c_m*v + c_a*v^2)`` and
``g(v) = xi*T``; its ``params`` are ``(name, value)`` pairs over ``TRAIN_DEFAULTS``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import partial
from numbers import Real
from typing import TYPE_CHECKING

from .errors import SimulationError

if TYPE_CHECKING:
    import numpy as np

TRAIN_DEFAULTS = {
    "xi": 0.06,  # per-mass force scaling
    "sampling_interval": 0.1,
    "c_r": 0.1,  # rolling resistance
    "c_m": 0.0064,  # mechanical resistance per speed
    "c_a": 0.000115,  # aerodynamic resistance per speed^2
}

# The plant kinds and the params names each takes
PLANT_PARAMS = {"affine_case1": (), "crh3_train": tuple(TRAIN_DEFAULTS)}


def finite_number(value, name: str) -> float:
    """``value`` as a float; a bool, a non-number, NaN or an infinity is a
    ValueError that names ``name``. The one number rule of every value type."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name}: expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    return number


def _require_finite(**values) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise SimulationError(f"{name} is not finite: {v}")


def affine_f(y: float) -> float:
    return math.sin(y) + math.cos(3.0 * y)


def affine_g(y: float) -> float:
    return 2.0 + math.cos(y)


def train_f(v: float, params: dict | None = None) -> float:
    p = params or TRAIN_DEFAULTS
    xt = p["xi"] * p["sampling_interval"]
    return v - xt * (p["c_r"] + p["c_m"] * v + p["c_a"] * v * v)


def train_g(v: float, params: dict | None = None) -> float:
    p = params or TRAIN_DEFAULTS
    return p["xi"] * p["sampling_interval"]


@dataclass(frozen=True)
class PlantModel:
    """A one-step simulated plant with separated nonlinearities f and g.

    Every kind resolves to one ``(f, g)`` pair at construction; ``step`` is the
    same disturbed one-step formula for all of them.
    """

    kind: str
    noise_variance: float
    params: tuple[tuple[str, float], ...] = ()  # (name, value) pairs; built from pairs or a dict

    def __post_init__(self):
        if self.kind not in PLANT_PARAMS:
            raise ValueError(f"unknown plant kind {self.kind!r}, expected one of {tuple(PLANT_PARAMS)}")
        if finite_number(self.noise_variance, "noise_variance") < 0:
            raise ValueError("noise_variance must be >= 0")
        given = dict(self.params)
        for name, value in given.items():
            if name not in PLANT_PARAMS[self.kind]:
                raise ValueError(f"{self.kind} plant has no parameter {name!r}")
            finite_number(value, f"params.{name}")
        if self.kind == "affine_case1":
            merged, pair = given, (affine_f, affine_g)
        else:  # the partials' own dict, seen only as the frozen pairs
            merged = {**TRAIN_DEFAULTS, **given}
            pair = (partial(train_f, params=merged), partial(train_g, params=merged))
        object.__setattr__(self, "params", tuple(merged.items()))
        # Private attributes, not fields: equality, repr and the config
        # document stay those of the declared fields.
        object.__setattr__(self, "_f", pair[0])
        object.__setattr__(self, "_g", pair[1])

    def f_value(self, y: float) -> float:
        return self._f(y)

    def g_value(self, y: float) -> float:
        return self._g(y)

    def step(self, y: float, u: float, disturbance, noise: float) -> float:
        """y(k+1) = alpha * f(y) + beta * g(y) * u + gamma + noise."""
        a, b, g = disturbance
        isfinite = math.isfinite
        if not (
            isfinite(y) and isfinite(u) and isfinite(a) and isfinite(b) and isfinite(g)
            and isfinite(noise)
        ):
            _require_finite(y=y, u=u, alpha=a, beta=b, gamma=g, noise=noise)
        return a * self._f(y) + b * self._g(y) * u + g + noise


# ---------------------------------------------------------------------------
# Disturbance schedules

Segments = tuple[tuple[int, float], ...]


def _whole_number(value, name: str) -> int:
    """``value`` as an int; a bool, a non-number, NaN, an infinity or a fraction is a ValueError."""
    try:
        whole = int(value)
    except (OverflowError, TypeError, ValueError):  # inf, None, NaN
        whole = None
    if isinstance(value, bool) or whole is None or value != whole:
        raise ValueError(f"{name}: expected a whole number, got {value!r}")
    return whole


def validate_segments(segments, name: str = "schedule") -> Segments:
    """Check (start_k, value) segments: whole starts, the first 1, strictly
    increasing, and finite values."""
    segs = tuple(
        (_whole_number(k, f"{name}[{i}][0]"), finite_number(v, f"{name}[{i}][1]"))
        for i, (k, v) in enumerate(segments)
    )
    if not segs:
        raise ValueError(f"{name}: needs at least one segment")
    if segs[0][0] != 1:
        raise ValueError(f"{name}: first segment must start at k=1, got k={segs[0][0]}")
    for (k0, _), (k1, _) in zip(segs, segs[1:]):
        if k1 <= k0:
            raise ValueError(
                f"{name}: segment starting at k={k1} overlaps or reorders the one at k={k0}"
            )
    return segs


@dataclass(frozen=True)
class DisturbanceSchedule:
    """Piecewise-constant (alpha, beta, gamma) timelines."""

    alpha: Segments
    beta: Segments
    gamma: Segments

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, validate_segments(getattr(self, name), name))

    def at(self, k: int) -> tuple[float, float, float]:
        """The (alpha, beta, gamma) values in force at iteration ``k >= 1``."""
        if k < 1:
            raise ValueError(f"iteration index must be >= 1, got {k}")
        return tuple(
            segs[bisect_right([s for s, _ in segs], k) - 1][1]
            for segs in (self.alpha, self.beta, self.gamma)
        )

    def rows(self, n: int) -> list[tuple[float, float, float]]:
        """The (alpha, beta, gamma) values in force at k = 1..n: ``rows(n)[k - 1] == at(k)``.

        Built by expanding the segments once, so a run indexes a list instead of
        searching the schedule on every row.
        """
        if n < 0:
            raise ValueError(f"row count must be >= 0, got {n}")
        columns = []
        for segs in (self.alpha, self.beta, self.gamma):
            column = []
            # A segment runs until the next one starts; the last until k = n.
            for (start, value), (end, _) in zip(segs, segs[1:] + ((n + 1, 0.0),)):
                column += [value] * (min(end, n + 1) - start)
            columns.append(column)
        return list(zip(*columns))


# ---------------------------------------------------------------------------
# Reference signals

# The document fields of each reference kind, in the order config files write them.
REFERENCE_FIELDS = {
    "cosine": ("amplitude", "half_cycles", "span"),
    "square": ("segments",),
    "logistic_train": ("base", "gain", "rate", "form"),
    "user_table": ("values",),
}
REFERENCE_KINDS = tuple(REFERENCE_FIELDS)


@dataclass(frozen=True)
class ReferenceSpec:
    """A reference trajectory.

    cosine:          y_r(k) = amplitude * cos(half_cycles * pi * k / span)
    square:          piecewise-constant (start_k, level) segments; iterations
                     beyond the last segment hold its level
    logistic_train:  base + gain / (1 + exp(-rate * k)), or with form
                     "expanded" the variant base + gain * (1 + exp(-rate * k))
    user_table:      explicit values for k = 1..len(values)
    """

    kind: str
    amplitude: float = 1.0
    half_cycles: float = 5.0
    span: int = 600
    segments: Segments = ()
    base: float = 270.0
    gain: float = 50.0
    rate: float = 2.0
    form: str = "logistic"
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in REFERENCE_KINDS:
            raise ValueError(
                f"unknown reference kind {self.kind!r}, expected one of {REFERENCE_KINDS}"
            )
        for f in fields(self)[1:]:
            if f.name not in REFERENCE_FIELDS[self.kind] and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} reference does not use {f.name!r}")
        for name in ("amplitude", "half_cycles", "base", "gain", "rate"):  # unused: the defaults
            finite_number(getattr(self, name), name)
        if self.kind == "square":
            object.__setattr__(self, "segments", validate_segments(self.segments, "reference"))
        if self.kind == "logistic_train" and self.form not in ("logistic", "expanded"):
            raise ValueError(f"logistic_train form must be 'logistic' or 'expanded', got {self.form!r}")
        if self.kind == "user_table":
            values = tuple(finite_number(v, f"values[{i}]") for i, v in enumerate(self.values))
            if not values:
                raise ValueError("user_table reference needs values")
            object.__setattr__(self, "values", values)
        if self.kind == "cosine":
            object.__setattr__(self, "span", _whole_number(self.span, "span"))
            if self.span <= 0:
                raise ValueError("cosine reference span must be > 0")


def reference_at(spec: ReferenceSpec, k: int) -> float:
    """Reference value at iteration k (k >= 0 for the closed-form kinds)."""
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    if spec.kind == "cosine":
        return spec.amplitude * math.cos(spec.half_cycles * math.pi * k / spec.span)
    if spec.kind == "square":
        starts = [s for s, _ in spec.segments]
        return spec.segments[max(bisect_right(starts, k) - 1, 0)][1]
    if spec.kind == "logistic_train":
        if spec.form == "expanded":
            return spec.base + spec.gain * (1.0 + math.exp(-spec.rate * k))
        return spec.base + spec.gain / (1.0 + math.exp(-spec.rate * k))
    # user_table: clamp past the last entry so look-ahead targets stay defined
    if k < 1:
        raise ValueError(f"user_table reference has no value for k={k}")
    return spec.values[min(k, len(spec.values)) - 1]


def sample_noise(rng: np.random.Generator, noise_variance: float, size: int) -> list[float]:
    """``size`` Gaussian draws with the given variance (exactly 0.0 when variance is 0).

    The draws happen in one call, and equal ``size`` sequential scalar draws
    from the same generator. They happen regardless of the variance, so runs
    with different noise levels but equal seeds see identical generator
    streams elsewhere.
    """
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    return rng.normal(0.0, math.sqrt(noise_variance), size=size).tolist()
