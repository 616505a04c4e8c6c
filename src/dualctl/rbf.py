"""Gaussian radial-basis surrogate of the plant's separated nonlinearities.

The one-step model is ``y(k+1) = theta1 * fhat(x) + theta2 * ghat(x) * u + theta3``
where ``fhat`` and ``ghat`` are independent RBF expansions sharing the state
vector ``x``. Basis i of a branch responds with
``h_i(x) = exp(-||x - c_i||^2 / (2 * b_i^2))``; the branch output is the
weighted sum ``w . h(x)``. Centers and widths are fixed design choices; only
the output weights are fit, by (optionally ridge-regularized) linear least
squares on recorded ``(x, u, y_next)`` triples collected while the plant is
undisturbed.

Parameter file format (plain text, ``#`` comments allowed anywhere):

    rbfnet v1
    state_dim <d>
    branch f <n_f>
    basis <width^2> <c_1> ... <c_d>     (one line per basis)
    ...
    weights <w_1> ... <w_nf>
    branch g <n_g>
    ...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FitError

FORMAT_TAG = "rbfnet"
FORMAT_VERSION = "v1"


@dataclass(frozen=True)
class RbfBranch:
    """One RBF expansion: centers, squared widths and output weights."""

    centers: tuple[tuple[float, ...], ...]
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
        dim = len(self.centers[0])
        if dim == 0 or any(len(c) != dim for c in self.centers):
            raise ValueError("all centers must share one nonzero dimension")
        if any(not (math.isfinite(w) and w > 0) for w in self.widths):
            raise ValueError("squared widths must be finite and > 0")

    @property
    def size(self) -> int:
        return len(self.centers)

    @property
    def dim(self) -> int:
        return len(self.centers[0])


def branch(centers, widths, weights) -> RbfBranch:
    """Build a branch, accepting scalar centers (1-D state) and a shared width."""
    cents = tuple(
        (float(c),) if isinstance(c, (int, float)) else tuple(float(v) for v in c)
        for c in centers
    )
    if isinstance(widths, (int, float)):
        widths = (float(widths),) * len(cents)
    else:
        widths = tuple(float(w) for w in widths)
    return RbfBranch(cents, widths, tuple(float(w) for w in weights))


def _branch_value(br: RbfBranch, x) -> float:
    """The branch output ``w . h(x)``, summed with ``math.fsum``."""
    terms = []
    for w, c, b2 in zip(br.weights, br.centers, br.widths):
        d2 = 0.0
        for xv, cv in zip(x, c):
            dv = xv - cv
            d2 += dv * dv
        terms.append(w * math.exp(-d2 / (2.0 * b2)))
    return math.fsum(terms)


@dataclass(frozen=True)
class RbfNetwork:
    """The pair of branches used by the one-step predictor."""

    f_branch: RbfBranch
    g_branch: RbfBranch

    def __post_init__(self):
        if self.f_branch.dim != self.g_branch.dim:
            raise ValueError(
                f"branch state dimensions differ: f={self.f_branch.dim}, g={self.g_branch.dim}"
            )

    @property
    def state_dim(self) -> int:
        return self.f_branch.dim


def eval_network(net: RbfNetwork, x) -> tuple[float, float]:
    """Return ``(fhat(x), ghat(x))``."""
    if len(x) != net.state_dim:
        raise ValueError(f"state has dimension {len(x)}, network expects {net.state_dim}")
    return _branch_value(net.f_branch, x), _branch_value(net.g_branch, x)


def geometry(centers, widths) -> RbfBranch:
    """A branch with zero weights: the fixed bases that :func:`train_offline` fits."""
    return branch(centers, widths, (0.0,) * len(centers))


@dataclass
class TrainingDataset:
    """Recorded (state, input, next output) triples plus the ridge factor."""

    states: np.ndarray  # (n, d)
    inputs: np.ndarray  # (n,)
    outputs: np.ndarray  # (n,)
    ridge: float = 0.0

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.states.shape[0] == 1 and self.states.shape[1] > 1:
            # allow a flat list of scalar states
            self.states = self.states.T
        self.inputs = np.asarray(self.inputs, dtype=float).ravel()
        self.outputs = np.asarray(self.outputs, dtype=float).ravel()
        n = self.states.shape[0]
        if self.inputs.shape[0] != n or self.outputs.shape[0] != n:
            raise ValueError("states, inputs and outputs must have equal length")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")


def _activation_matrix(geom: RbfBranch, states: np.ndarray) -> np.ndarray:
    centers = np.asarray(geom.centers, dtype=float)  # (m, d)
    widths = np.asarray(geom.widths, dtype=float)  # (m,)
    d2 = ((states[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-d2 / (2.0 * widths[None, :]))


def train_offline(
    data: TrainingDataset, f_geometry: RbfBranch, g_geometry: RbfBranch
) -> tuple[RbfNetwork, float]:
    """Fit output weights of both branches jointly and report the residual RMS.

    The regression target is ``y_next`` against columns ``[H_f | H_g * u]``
    (undisturbed data: theta = (1, 1, 0)). With ``ridge == 0`` a rank-deficient
    design raises :class:`FitError`; with ``ridge > 0`` the augmented system is
    always solvable.
    """
    n = data.states.shape[0]
    p = f_geometry.size + g_geometry.size
    if n == 0:
        raise FitError("empty training dataset")
    if n < p:
        raise FitError(f"need at least {p} samples to fit {p} weights, got {n}")
    if data.states.shape[1] != f_geometry.dim:
        raise ValueError(
            f"training states have dimension {data.states.shape[1]}, "
            f"geometry expects {f_geometry.dim}"
        )

    hf = _activation_matrix(f_geometry, data.states)
    hg = _activation_matrix(g_geometry, data.states) * data.inputs[:, None]
    design = np.hstack([hf, hg])
    target = data.outputs

    if data.ridge > 0.0:
        design = np.vstack([design, math.sqrt(data.ridge) * np.eye(p)])
        target = np.concatenate([target, np.zeros(p)])

    weights, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if data.ridge == 0.0 and rank < p:
        raise FitError(f"design matrix is rank deficient (rank {rank} < {p} weights)")

    net = RbfNetwork(
        f_branch=replace(f_geometry, weights=tuple(float(w) for w in weights[: f_geometry.size])),
        g_branch=replace(g_geometry, weights=tuple(float(w) for w in weights[f_geometry.size :])),
    )
    residuals = data.outputs - (hf @ weights[: f_geometry.size] + hg @ weights[f_geometry.size :])
    rms = float(np.sqrt(np.mean(residuals**2))) if n else 0.0
    return net, rms


def save_network(net: RbfNetwork, path, comment: str | None = None) -> None:
    """Write a network to the versioned plain-text parameter format."""
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"{FORMAT_TAG} {FORMAT_VERSION}")
    lines.append(f"state_dim {net.state_dim}")
    for name, br in (("f", net.f_branch), ("g", net.g_branch)):
        lines.append(f"branch {name} {br.size}")
        for b2, c in zip(br.widths, br.centers):
            lines.append("basis " + " ".join(repr(v) for v in (b2, *c)))
        lines.append("weights " + " ".join(repr(w) for w in br.weights))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_network(path) -> RbfNetwork:
    """Parse a parameter file written by :func:`save_network`."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    lines = [ln for ln in raw if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"{path}: empty parameter file")

    def fail(i, msg):
        raise ValueError(f"{path}, line {i + 1}: {msg}")

    head = lines[0].split()
    if head != [FORMAT_TAG, FORMAT_VERSION]:
        fail(0, f"expected header '{FORMAT_TAG} {FORMAT_VERSION}', got {lines[0]!r}")
    if len(lines) < 2 or lines[1].split()[0] != "state_dim":
        fail(1, "expected 'state_dim <d>'")
    dim = int(lines[1].split()[1])

    branches: dict[str, RbfBranch] = {}
    i = 2
    while i < len(lines):
        parts = lines[i].split()
        if parts[0] != "branch" or len(parts) != 3:
            fail(i, f"expected 'branch <name> <count>', got {lines[i]!r}")
        name, count = parts[1], int(parts[2])
        i += 1
        centers, widths = [], []
        for _ in range(count):
            if i >= len(lines) or not lines[i].startswith("basis "):
                fail(i if i < len(lines) else len(lines) - 1, f"branch {name}: missing basis line")
            vals = [float(v) for v in lines[i].split()[1:]]
            if len(vals) != dim + 1:
                fail(i, f"basis line needs width^2 plus {dim} coordinates")
            widths.append(vals[0])
            centers.append(tuple(vals[1:]))
            i += 1
        if i >= len(lines) or not lines[i].startswith("weights "):
            fail(min(i, len(lines) - 1), f"branch {name}: missing weights line")
        weights = [float(v) for v in lines[i].split()[1:]]
        if len(weights) != count:
            fail(i, f"branch {name}: expected {count} weights, got {len(weights)}")
        i += 1
        branches[name] = RbfBranch(tuple(centers), tuple(widths), tuple(weights))

    if set(branches) != {"f", "g"}:
        raise ValueError(f"{path}: parameter file must define branches 'f' and 'g'")
    return RbfNetwork(f_branch=branches["f"], g_branch=branches["g"])
