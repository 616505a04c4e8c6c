"""Gaussian radial-basis surrogate of the plant's separated nonlinearities.

The one-step model is ``y(k+1) = theta1 * fhat(y) + theta2 * ghat(y) * u + theta3``
where ``fhat`` and ``ghat`` are independent RBF expansions of the scalar
output ``y``. Basis i of a branch responds with
``h_i(y) = exp(-(y - c_i)^2 / (2 * b_i^2))``; the branch output is the
weighted sum ``w . h(y)``. Centers and widths are fixed design choices; only
the output weights are fit, by (optionally ridge-regularized) linear least
squares on recorded ``(y, u, y_next)`` triples collected while the plant is
undisturbed. One function evaluates the terms ``w_i * h_i(y)``: the run
loop's ``eval_network(net, y)`` sums them per branch, and the fit calls it at
unit weight to build its design, so it regresses on the bases the loop uses.

Parameter file format (plain text, ``#`` comments allowed anywhere):

    rbfnet v1
    state_dim 1
    branch f <n_f>
    basis <width^2> <center>     (one line per basis)
    ...
    weights <w_1> ... <w_nf>
    branch g <n_g>
    ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import FitError, SimulationError
from .plants import finite_number

FORMAT_TAG = "rbfnet"
FORMAT_VERSION = "v1"


@dataclass(frozen=True)
class RbfBranch:
    """One RBF expansion: centers, squared widths and output weights."""

    centers: tuple[float, ...]
    widths: tuple[float, ...]  # squared widths b_i^2, one per basis
    weights: tuple[float, ...]

    def __post_init__(self):
        n = len(self.centers)
        if n == 0:
            raise ValueError("branch needs at least one basis")
        if len(self.widths) != n or len(self.weights) != n:
            raise ValueError(
                f"centers/widths/weights lengths differ: {n}/{len(self.widths)}/{len(self.weights)}"
            )
        for name in ("centers", "widths", "weights"):
            for i, v in enumerate(getattr(self, name)):
                finite_number(v, f"{name}[{i}]")
        if not all(w > 0 for w in self.widths):
            raise ValueError("squared widths must be > 0")
        # A private attribute, not a field: equality, repr and the parameter
        # file stay those of the declared fields.
        object.__setattr__(
            self,
            "_terms",
            tuple((w, c, 2.0 * b2) for w, c, b2 in zip(self.weights, self.centers, self.widths)),
        )

    @property
    def size(self) -> int:
        return len(self.centers)


def branch(centers, widths, weights) -> RbfBranch:
    """Build a branch, accepting one shared squared width for every basis."""
    cents = tuple(float(c) for c in centers)
    if isinstance(widths, (int, float)):
        widths = (float(widths),) * len(cents)
    else:
        widths = tuple(float(w) for w in widths)
    return RbfBranch(cents, widths, tuple(float(w) for w in weights))


def _weighted_bases(br: RbfBranch, y: float) -> list[float]:
    """Each basis times its weight, ``w_i * h_i(y)``, in basis order.

    The run loop sums these; the offline fit regresses on them at unit weight.
    """
    exp = math.exp
    terms = []
    for w, c, two_b2 in br._terms:
        d = y - c
        terms.append(w * exp(-(d * d) / two_b2))
    return terms


@dataclass(frozen=True)
class RbfNetwork:
    """The pair of branches used by the one-step predictor."""

    f_branch: RbfBranch
    g_branch: RbfBranch


def eval_network(net: RbfNetwork, y: float) -> tuple[float, float]:
    """Return ``(fhat(y), ghat(y))``, each summed with ``math.fsum``; a sum
    beyond the float range is a :class:`SimulationError`."""
    fsum = math.fsum
    try:
        return fsum(_weighted_bases(net.f_branch, y)), fsum(_weighted_bases(net.g_branch, y))
    except OverflowError as exc:
        raise SimulationError(f"network output overflows at y={y!r}") from exc


def geometry(centers, widths) -> RbfBranch:
    """A branch with zero weights: the fixed bases that :func:`train_offline` fits."""
    return branch(centers, widths, (0.0,) * len(centers))


def train_offline(
    states, inputs, outputs, f_geometry: RbfBranch, g_geometry: RbfBranch, ridge: float = 0.0
) -> tuple[RbfNetwork, float]:
    """Fit output weights of both branches jointly and report the residual RMS.

    ``states``, ``inputs`` and ``outputs`` are equal-length 1-D sequences of
    recorded ``(y, u, y_next)`` triples. The regression target is ``y_next``
    against columns ``[H_f | H_g * u]`` (undisturbed data: theta = (1, 1, 0)).
    With ``ridge == 0`` a rank-deficient design raises :class:`FitError`; with
    ``ridge > 0`` the augmented system is always solvable.
    """
    import numpy as np

    states, inputs, outputs = (np.asarray(a, dtype=float) for a in (states, inputs, outputs))
    if states.ndim != 1 or inputs.ndim != 1 or outputs.ndim != 1:
        raise ValueError("states, inputs and outputs must be 1-D")
    n = len(states)
    if len(inputs) != n or len(outputs) != n:
        raise ValueError("states, inputs and outputs must have equal length")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")
    # Checked here: LAPACK fails on non-finite data with stderr noise and a bare
    # LinAlgError that names no sample.
    finite = np.isfinite(states) & np.isfinite(inputs) & np.isfinite(outputs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(
            f"sample {i} is not finite: state {float(states[i])!r}, "
            f"input {float(inputs[i])!r}, output {float(outputs[i])!r}"
        )
    p = f_geometry.size + g_geometry.size
    if n < p:
        raise FitError(f"need at least {p} samples to fit {p} weights, got {n}")

    # The loop's own evaluator at unit weight (``1.0 * h == h`` exactly).
    unit_f, unit_g = (replace(geo, weights=(1.0,) * geo.size) for geo in (f_geometry, g_geometry))
    ys = states.tolist()
    hf = np.array([_weighted_bases(unit_f, y) for y in ys])
    hg = np.array([_weighted_bases(unit_g, y) for y in ys]) * inputs[:, None]
    design = np.hstack([hf, hg])
    target = outputs

    if ridge > 0.0:
        design = np.vstack([design, math.sqrt(ridge) * np.eye(p)])
        target = np.concatenate([target, np.zeros(p)])

    weights, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if ridge == 0.0 and rank < p:
        raise FitError(f"design matrix is rank deficient (rank {rank} < {p} weights)")

    net = RbfNetwork(
        f_branch=replace(f_geometry, weights=tuple(float(w) for w in weights[: f_geometry.size])),
        g_branch=replace(g_geometry, weights=tuple(float(w) for w in weights[f_geometry.size :])),
    )
    residuals = outputs - (hf @ weights[: f_geometry.size] + hg @ weights[f_geometry.size :])
    return net, float(np.sqrt(np.mean(residuals**2)))


def save_network(net: RbfNetwork, path, comment: str | None = None) -> None:
    """Write a network to the versioned plain-text parameter format."""
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"{FORMAT_TAG} {FORMAT_VERSION}")
    lines.append("state_dim 1")
    for name, br in (("f", net.f_branch), ("g", net.g_branch)):
        lines.append(f"branch {name} {br.size}")
        lines.extend(f"basis {b2!r} {c!r}" for b2, c in zip(br.widths, br.centers))
        lines.append("weights " + " ".join(repr(w) for w in br.weights))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> RbfNetwork:
    """Parse a parameter file written by :func:`save_network`."""
    with open(path) as fh:
        numbered = [(no, ln.strip()) for no, ln in enumerate(fh, start=1)]
    numbered = [(no, ln) for no, ln in numbered if ln and not ln.startswith("#")]
    lines = [ln for _, ln in numbered]
    if not lines:
        raise ValueError(f"{path}: empty parameter file")

    def fail(i, msg):
        # Past the end, the last line is the one that falls short.
        raise ValueError(f"{path}, line {numbered[min(i, len(numbered) - 1)][0]}: {msg}")

    def numbers(i, what):
        try:
            return [float(v) for v in lines[i].split()[1:]]
        except ValueError:
            fail(i, f"{what}: expected numbers, got {lines[i]!r}")

    head = lines[0].split()
    if head != [FORMAT_TAG, FORMAT_VERSION]:
        fail(0, f"expected header '{FORMAT_TAG} {FORMAT_VERSION}', got {lines[0]!r}")
    if len(lines) < 2 or lines[1].split() != ["state_dim", "1"]:
        fail(1, "expected 'state_dim 1': the network state is the scalar output")

    branches: dict[str, RbfBranch] = {}
    i = 2
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] != "branch" or len(parts) != 3:
            fail(i, f"expected 'branch <name> <count>', got {lines[i]!r}")
        name = parts[1]
        if name in branches:
            fail(i, f"branch {name}: defined a second time")
        try:
            count = int(parts[2])
        except ValueError:
            fail(i, f"branch {name}: expected an integer basis count, got {parts[2]!r}")
        i += 1
        centers, widths = [], []
        for _ in range(count):
            if i >= len(lines) or not lines[i].startswith("basis "):
                fail(i, f"branch {name}: missing basis line")
            vals = numbers(i, f"branch {name}: basis")
            if len(vals) != 2:
                fail(i, "basis line needs width^2 and one center")
            if not all(map(math.isfinite, vals)):
                fail(i, f"branch {name}: basis width^2 and center must be finite")
            if not vals[0] > 0:
                fail(i, f"branch {name}: basis width^2 must be > 0, got {vals[0]!r}")
            widths.append(vals[0])
            centers.append(vals[1])
            i += 1
        if i >= len(lines) or not lines[i].startswith("weights "):
            fail(i, f"branch {name}: missing weights line")
        weights = numbers(i, f"branch {name}: weights")
        if len(weights) != count:
            fail(i, f"branch {name}: expected {count} weights, got {len(weights)}")
        if not all(map(math.isfinite, weights)):
            fail(i, f"branch {name}: weights must be finite")
        i += 1
        branches[name] = RbfBranch(tuple(centers), tuple(widths), tuple(weights))

    if set(branches) != {"f", "g"}:
        raise ValueError(f"{path}: parameter file must define branches 'f' and 'g'")
    return RbfNetwork(f_branch=branches["f"], g_branch=branches["g"])
