"""Closed-loop experiment runner, trace files, metrics and Monte Carlo batches.

One run iterates the plant under either the posterior-blended dual controller
("proposed") or the disturbance-aware baseline ("optimal").  Per iteration k,
in order: the plant produces y(k+1); the candidate posteriors are updated from
the regressor built at the previous state; the per-candidate control laws are
evaluated at the new state against the next reference value and blended into
the applied input, in one call; the change detector inspects the leading
candidate's residual and may reset the learner; finally the candidate
covariances are renormalized.  Traces hold one row per iteration including
row 1 (the initial condition).  Each stage returns only what the loop reads:
the Bayes update returns the new state, and the loop recomputes the one
residual it logs, the leading candidate's, with the update's own expression.

The disturbance of every row and the noise of every plant step are built once
per run, before the loop, by :func:`run_streams`.  Each row's other
quantities are evaluated once, at the row's new output, and carried forward:
the look-ahead reference (the next row's ``y_r``) and the network outputs
``(f_hat, g_hat)``, which give the control law of this row and the regressor
``(f_hat, g_hat * u, 1)`` of the next.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

from .config import CHANNELS, ExperimentConfig, check_name, check_seed
from .controller import blended_control, optimal_control
from .errors import BatchError, DualctlError, RunError, SingularControlError
from .learner import bayes_step, detect_change, make_state, update_covariance
from .learner import reset as reset_learner
from .plants import DisturbanceSchedule, reference_at, sample_noise
from .rbf import eval_network

CONTROLLER_KINDS = ("proposed", "optimal")
HOOK_EVENTS = ("posterior_update", "control", "reset_check", "covariance_update")

TRACE_FORMAT_TAG = "dualctl-trace"
# Each version's metadata lines, written and required in this order after the first line.
# v1 has no posteriors or (read only) pi_* columns; v2 keeps them in a float64 .npy sidecar.
TRACE_METADATA = {
    "v1": ("name", "controller", "seed", "grid_size"),
    "v2": ("name", "controller", "seed", "grid_size", "posteriors"),
}
POSTERIOR_SUFFIX = ".pi.npy"
TRACE_COLUMNS = (
    "k", "y_r", "y", "u", "u_opt", "y_hat", "err",
    "argmax_t", "max_pi", "reset", "alpha_true", "beta_true", "gamma_true",
)
_PARSERS = tuple(int if c in ("k", "argmax_t", "reset") else float for c in TRACE_COLUMNS)

# Abort rather than let a diverging loop overflow into inf/nan arithmetic.
_DIVERGENCE_LIMIT = 1e9


@dataclass
class RunTrace:
    """Column-wise record of one closed-loop run.

    argmax_t is 1-indexed to match candidate numbering in reports.  At a reset
    row, argmax_t/max_pi reflect the posterior state that triggered the reset;
    the optional posterior rows hold the state carried into the next iteration.
    u_opt is NaN on the rows of a proposed run where the true input gain is
    singular.
    """

    name: str
    controller: str
    seed: int
    grid_size: int
    k: list[int]
    y_r: list[float]
    y: list[float]
    u: list[float]
    u_opt: list[float]
    y_hat: list[float]
    err: list[float]
    argmax_t: list[int]
    max_pi: list[float]
    reset: list[int]
    alpha_true: list[float]
    beta_true: list[float]
    gamma_true: list[float]
    posteriors: list[list[float]] | None = None
    wall_time: float = 0.0

    def __len__(self) -> int:
        return len(self.k)


def _bounded(name: str, value: float, k: int) -> float:
    """``value`` if it is finite and inside the divergence limit, else a RunError."""
    if not math.isfinite(value) or abs(value) > _DIVERGENCE_LIMIT:
        raise RunError(f"{name} diverged to {value!r}", iteration=k)
    return value


def _fire(hooks, event, k, **info):
    fn = hooks.get(event)
    if fn is not None:
        fn(k, info)


def run_streams(
    cfg: ExperimentConfig, seed: int, randomize: tuple[str, ...] = ()
) -> tuple[list[tuple[float, float, float]], list[float]]:
    """The disturbance rows and plant-step noises of one run of ``cfg`` at ``seed``.

    This is the draw-order contract of a run; every loop that replays a run
    takes its streams from here.  The run generator is ``default_rng(seed)``.
    Channels named in ``randomize`` replace their configured schedule with a
    single constant drawn uniformly from the channel interval; these draws
    consume the generator first, in alpha, beta, gamma order.  Then the noise
    of all ``cfg.iterations - 1`` plant steps is drawn in one call, which
    yields the same values as one draw per step, so equal seeds give identical
    streams at every noise level.  Returns ``cfg.iterations`` disturbance rows,
    ``(alpha, beta, gamma)`` in force at k = 1..n, and the ``n - 1`` noises,
    that of the step from row ``k`` to row ``k + 1`` at index ``k - 1``.
    """
    for ch in randomize:
        if ch not in CHANNELS:
            raise ValueError(f"randomize names unknown channel {ch!r}")
    import numpy as np

    rng = np.random.default_rng(seed)
    schedule = DisturbanceSchedule(**{
        name: ((1, float(rng.uniform(ch.interval.lower, ch.interval.upper))),)
        if name in randomize else ch.schedule
        for name, ch in zip(CHANNELS, (cfg.alpha, cfg.beta, cfg.gamma))
    })
    n = cfg.iterations
    return schedule.rows(n), sample_noise(rng, cfg.plant.noise_variance, n - 1)


def run_experiment(
    cfg: ExperimentConfig,
    controller: str = "proposed",
    seed: int | None = None,
    collect_posteriors: bool = False,
    randomize: tuple[str, ...] = (),
    hooks: dict | None = None,
) -> RunTrace:
    """Simulate one closed-loop run of ``cfg.iterations`` rows.

    ``seed`` overrides ``cfg.seed``.  The run's disturbances and noise come
    from :func:`run_streams`, whose docstring is the draw-order contract;
    ``randomize`` is passed to it.  ``hooks`` maps names in ``HOOK_EVENTS`` to
    callables ``fn(k, info)``, fired at each stage of each iteration.
    """
    if controller not in CONTROLLER_KINDS:
        raise ValueError(f"controller must be one of {CONTROLLER_KINDS}, got {controller!r}")
    for event in hooks or ():
        if event not in HOOK_EVENTS:
            raise ValueError(f"hooks names unknown event {event!r}, expected one of {HOOK_EVENTS}")
    check_seed("seed", seed)
    # numpy is imported by the functions that use it, so that importing
    # dualctl, parsing a config and building its grid never load it. A run
    # needs it for run_streams; it is loaded here, before the clock starts, so
    # that the first run's wall time does not hold the import.
    import numpy  # noqa: F401

    started = time.perf_counter()
    plant = cfg.plant
    net = cfg.network
    spec = cfg.reference
    grid = cfg.build_grid()
    thetas = grid.vectors
    size = grid.size
    lam = cfg.controller.dual_lambda
    clamp = cfg.controller.input_clamp
    run_seed = cfg.seed if seed is None else seed
    n = cfg.iterations
    disturbances, noises = run_streams(cfg, run_seed, randomize)

    def optimal_input(theta, y, target):
        try:
            return optimal_control(theta, plant.f_value(y), plant.g_value(y), target)
        except SingularControlError:
            if controller == "optimal":
                raise
            return math.nan  # the proposed law never uses the true gain

    state = make_state(size, plant.noise_variance, cfg.initial_covariance)

    # Row 1: the given initial condition.  No prediction exists yet, so
    # y_hat mirrors y and the posterior rows show the uniform start.
    theta = disturbances[0]
    y = _bounded("initial output", cfg.initial_output, 1)
    y_r = reference_at(spec, 1)
    target = reference_at(spec, 2)
    try:
        u_opt = optimal_input(theta, y, target)
        f_hat, g_hat = eval_network(net, y)
    except DualctlError as exc:
        raise RunError(f"iteration failed: {exc}", iteration=1) from exc
    u = u_opt if controller == "optimal" else cfg.initial_control

    rows = [(1, y_r, y, u, u_opt, y, y - y_r, 1, state.eta, 0, *theta)]
    pi_rows = [list(state.posteriors)] if collect_posteriors else None

    for k in range(1, n):
        try:
            y = _bounded("output", plant.step(y, u, theta, noises[k - 1]), k + 1)

            # The input enters the regressor, so it is bounded like the output.
            a, b, c = phi = (f_hat, g_hat * _bounded("input", u, k + 1), 1.0)
            state = bayes_step(state, phi, y, thetas)
            pi_star = max(state.posteriors)
            t_star = state.posteriors.index(pi_star)
            # The logged prediction belongs to the argmax candidate on this
            # row; its residual is y - y_hat by construction.  It is the
            # expression bayes_step evaluates for that candidate.
            t0, t1, t2 = thetas[t_star]
            residual = y - (t0 * a + t1 * b + t2 * c)
            y_hat = y - residual
            if hooks is not None:
                _fire(hooks, "posterior_update", k + 1, argmax_t=t_star + 1, max_pi=pi_star)

            y_r = target
            target = reference_at(spec, k + 2)
            theta = disturbances[k]
            u_opt = optimal_input(theta, y, target)
            f_hat, g_hat = eval_network(net, y)
            if controller == "proposed":
                u = blended_control(thetas, f_hat, g_hat, target, state, lam, clamp).u_applied
            else:
                u = u_opt
            if hooks is not None:
                _fire(hooks, "control", k + 1, u=u)

            triggered = detect_change(residual, pi_star, cfg.reset)
            if triggered:
                state = reset_learner(state)
            if hooks is not None:
                _fire(hooks, "reset_check", k + 1, triggered=triggered)

            # Renormalize covariances under the posteriors now in effect.  A
            # fresh reset leaves them untouched (factor is exactly 1 at the
            # uniform posterior).
            state = update_covariance(state)
            if hooks is not None:
                _fire(hooks, "covariance_update", k + 1)
        except RunError:
            raise
        except DualctlError as exc:
            raise RunError(f"iteration failed: {exc}", iteration=k + 1) from exc

        rows.append(
            (k + 1, y_r, y, u, u_opt, y_hat, y - y_r, t_star + 1, pi_star, int(triggered), *theta)
        )
        if pi_rows is not None:
            pi_rows.append(list(state.posteriors))

    return RunTrace(
        name=cfg.name,
        controller=controller,
        seed=run_seed,
        grid_size=size,
        posteriors=pi_rows,
        wall_time=time.perf_counter() - started,
        **_columns(rows),
    )


def _columns(rows) -> dict[str, list]:
    """RunTrace column lists from row tuples in ``TRACE_COLUMNS`` order."""
    columns = list(zip(*rows)) or [()] * len(TRACE_COLUMNS)
    return {name: list(col) for name, col in zip(TRACE_COLUMNS, columns)}


# ---------------------------------------------------------------------------
# Trace files


def write_trace(trace: RunTrace, path) -> None:
    """Write a trace as CSV with '#'-prefixed metadata lines before the header.

    Floats are serialized with repr() so reading the file back reproduces the
    exact values.  A trace without posteriors is a ``v1`` file.  A trace with
    posteriors is a ``v2`` file: the CSV keeps the same scalar columns and adds
    the line ``# posteriors: .pi.npy``, and the posteriors go to the sidecar
    ``<path>.pi.npy``, a float64 ``(rows, grid_size)`` array written by
    ``np.save`` without pickling.  The line holds only the suffix, so the CSV's
    bytes do not depend on its path. A name that the ``# name:`` line would not
    read back unchanged is a ValueError, raised before any file is opened.
    """
    check_name(trace.name, "trace name")
    version = "v1" if trace.posteriors is None else "v2"
    with open(path, "w") as fh:
        fh.write(f"# {TRACE_FORMAT_TAG} {version}\n")
        for key in TRACE_METADATA[version]:
            value = POSTERIOR_SUFFIX if key == "posteriors" else getattr(trace, key)
            fh.write(f"# {key}: {value}\n")
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in zip(*(getattr(trace, c) for c in TRACE_COLUMNS)):
            fh.write(",".join(map(repr, row)) + "\n")
    if trace.posteriors is not None:
        import numpy as np

        pi = np.array(trace.posteriors, dtype=np.float64).reshape(len(trace), trace.grid_size)
        with open(f"{path}{POSTERIOR_SUFFIX}", "wb") as fh:
            np.save(fh, pi, allow_pickle=False)


def read_trace(path) -> RunTrace:
    """Read a trace written by write_trace (wall_time is not persisted).

    The first line must be ``# dualctl-trace v1`` or ``v2``, and exactly that
    version's ``TRACE_METADATA`` lines must follow, in order.  A ``v2`` file's
    posteriors come from the sidecar its ``# posteriors: .pi.npy`` line names,
    loaded without unpickling as the exact float64 values written (numpy is
    imported only then); a ``v1`` file's, if any, from its ``pi_*`` columns.
    A missing, misspelt, repeated or reordered metadata line, a malformed cell,
    a ``grid_size`` that disagrees with the ``pi_*`` columns, or a sidecar that
    is missing or is not a float64 ``(rows, grid_size)`` array, is a ValueError
    that names its line.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith(f"# {TRACE_FORMAT_TAG} "):
        raise ValueError(f"{path}: not a {TRACE_FORMAT_TAG} file")
    version = lines[0].removeprefix(f"# {TRACE_FORMAT_TAG} ")
    if version not in TRACE_METADATA:
        raise ValueError(f"{path}: unsupported trace version {version!r}")
    meta, where = {}, {}
    for idx, key in enumerate(TRACE_METADATA[version], start=1):
        line = lines[idx] if idx < len(lines) else None
        label, _, value = (line or "").partition(":")
        if label != f"# {key}":
            found = "the end of the file" if line is None else repr(line)
            raise ValueError(
                f"{path}: a {version} trace needs a '# {key}:' line as line {idx + 1}, not {found}"
            )
        meta[key], where[key] = value.strip(), f"{path}, line {idx + 1}, {key}"
    idx = len(meta) + 1
    if idx >= len(lines):
        raise ValueError(f"{path}: missing column header")
    header = lines[idx].split(",")
    n_pi = len(header) - len(TRACE_COLUMNS)
    if header[: len(TRACE_COLUMNS)] != list(TRACE_COLUMNS) or (version == "v2" and n_pi):
        raise ValueError(f"{path}, line {idx + 1}: unexpected columns {header}")

    rows = []
    pi_rows: list[list[float]] | None = [] if n_pi else None
    for line_no, line in enumerate(lines[idx + 1:], start=idx + 2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}, line {line_no}: expected {len(header)} fields")
        try:
            rows.append(tuple(parse(raw) for parse, raw in zip(_PARSERS, parts)))
            if pi_rows is not None:
                pi_rows.append([float(v) for v in parts[len(TRACE_COLUMNS):]])
        except ValueError:
            # Some cell does not parse: name the first one.
            for column, raw, parse in zip(header, parts, _PARSERS + (float,) * n_pi):
                _parse_cell(parse, raw, f"{path}, line {line_no}, column {column}")

    seed, grid_size = (_parse_cell(int, meta[key], where[key]) for key in ("seed", "grid_size"))
    if n_pi and grid_size != n_pi:
        raise ValueError(
            f"{where['grid_size']}: {grid_size} disagrees with the {n_pi} pi_* columns"
        )
    if version == "v2":
        sidecar = meta["posteriors"]
        if sidecar != POSTERIOR_SUFFIX:
            raise ValueError(f"{where['posteriors']}: expected {POSTERIOR_SUFFIX}, got {sidecar!r}")
        pi_rows = _load_posteriors(f"{path}{sidecar}", where["posteriors"], (len(rows), grid_size))
    return RunTrace(
        name=meta["name"],
        controller=meta["controller"],
        seed=seed,
        grid_size=grid_size,
        posteriors=pi_rows,
        wall_time=0.0,
        **_columns(rows),
    )


def _load_posteriors(sidecar: str, where: str, shape: tuple[int, int]) -> list[list[float]]:
    """The float64 array of ``shape`` in the .npy file ``sidecar``, as row lists.

    Anything else, an object array included, is a ValueError that names
    ``where`` and the sidecar; nothing is unpickled.
    """
    import numpy as np

    try:
        with open(sidecar, "rb") as fh:
            pi = np.lib.format.read_array(fh, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(f"{where}: {sidecar} is missing") from None
    except ValueError as exc:
        raise ValueError(f"{where}: {sidecar} is not a float64 .npy array ({exc})") from None
    if pi.dtype != np.float64:
        raise ValueError(f"{where}: {sidecar} holds {pi.dtype.str}, expected float64")
    if pi.shape != shape:
        raise ValueError(f"{where}: {sidecar} has shape {pi.shape}, expected {shape}")
    return pi.tolist()


def _parse_cell(parse, raw: str, where: str):
    """``parse(raw)``; a ValueError names ``where`` and the expected type."""
    try:
        return parse(raw)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ValueError(f"{where}: expected {kind}, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class RunMetrics:
    j_index: float  # sqrt(sum err^2) / n
    rms: float
    mean_abs: float


@dataclass(frozen=True)
class BatchMetrics:
    runs: int
    j_m: float  # mean over runs of j_index
    j_std: float
    mean_abs: float
    median_wall_time: float
    j_values: tuple[float, ...]


def run_metrics(trace: RunTrace) -> RunMetrics:
    n = len(trace)
    sq = math.fsum(e * e for e in trace.err)
    return RunMetrics(
        j_index=math.sqrt(sq) / n,
        rms=math.sqrt(sq / n),
        mean_abs=math.fsum(abs(e) for e in trace.err) / n,
    )


def batch_metrics(traces) -> BatchMetrics:
    if not traces:
        raise ValueError("batch_metrics needs at least one trace")
    import numpy as np

    per_run = [run_metrics(t) for t in traces]
    j = [m.j_index for m in per_run]
    return BatchMetrics(
        runs=len(traces),
        j_m=float(np.mean(j)),
        j_std=float(np.std(j)),
        mean_abs=float(np.mean([m.mean_abs for m in per_run])),
        median_wall_time=float(np.median([t.wall_time for t in traces])),
        j_values=tuple(j),
    )


def trace_change_points(trace: RunTrace) -> list[int]:
    """Rows at which any true disturbance channel differs from the row before."""
    points = []
    for i in range(1, len(trace)):
        if (
            trace.alpha_true[i] != trace.alpha_true[i - 1]
            or trace.beta_true[i] != trace.beta_true[i - 1]
            or trace.gamma_true[i] != trace.gamma_true[i - 1]
        ):
            points.append(trace.k[i])
    return points


def recovery_streak(trace: RunTrace, change_k: int, threshold: float) -> int:
    """Consecutive iterations with |err| > threshold after a change at change_k.

    The disturbance value at iteration change_k first shows up in the output
    one row later, so the scan starts at change_k + 1.  Returns 0 when the
    first affected output is already inside the band.
    """
    try:
        start = trace.k.index(change_k) + 1
    except ValueError:
        raise ValueError(f"iteration {change_k} not present in trace")
    streak = 0
    for i in range(start, len(trace)):
        if abs(trace.err[i]) > threshold:
            streak += 1
        else:
            break
    return streak


# ---------------------------------------------------------------------------
# Monte Carlo


@dataclass
class BatchResult:
    name: str
    controller: str
    seed_base: int
    requested: int
    traces: list[RunTrace]  # the completed runs, in seed order; each holds its seed
    failures: list[tuple[int, RunError]]  # (batch index, its error)
    metrics: BatchMetrics


def _mc_worker(args) -> RunTrace | RunError:
    cfg, controller, seed = args
    try:
        return run_experiment(cfg, controller=controller, seed=seed, randomize=cfg.mc_randomize)
    except RunError as exc:
        # A copy without traceback or cause, as a process pool returns it. The
        # raised error's frames reach back to monte_carlo's outcomes; holding it
        # makes a cycle that keeps each failed run's frames until a full collection.
        return RunError(str(exc), exc.iteration)


def monte_carlo(
    cfg: ExperimentConfig,
    runs: int,
    seed_base: int | None = None,
    controller: str = "proposed",
    jobs: int = 1,
) -> BatchResult:
    """Run ``runs`` independent experiments seeded seed_base..seed_base+runs-1.

    Channels listed in cfg.mc_randomize get a fresh uniform constant per run.
    Results are identical for any ``jobs`` because every run owns its seeded
    generator.  Failed runs are dropped with a warning; more than 10% failures
    raise BatchError.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    check_seed("seed_base", seed_base)
    base = cfg.seed if seed_base is None else seed_base
    tasks = [(cfg, controller, base + i) for i in range(runs)]
    jobs = min(jobs, runs)  # a process pool forks all its workers at its first task
    # Both paths return the outcomes in task order.
    if jobs > 1:
        # Imported here: the process pool module is a tenth of the package's
        # import time, and only parallel batches need it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_mc_worker, tasks))
    else:
        outcomes = [_mc_worker(t) for t in tasks]

    traces = [outcome for outcome in outcomes if isinstance(outcome, RunTrace)]
    failures = [(i, outcome) for i, outcome in enumerate(outcomes) if isinstance(outcome, RunError)]
    if failures:
        index, first = failures[0]
        warnings.warn(
            f"{cfg.name}: {len(failures)}/{runs} runs failed and were excluded "
            f"(first: run {index} at iteration {first.iteration}: {first})"
        )
        if len(failures) > 0.1 * runs:
            raise BatchError(
                f"{cfg.name}: {len(failures)}/{runs} runs failed, exceeding the 10% budget"
            )
    return BatchResult(
        name=cfg.name,
        controller=controller,
        seed_base=base,
        requested=runs,
        traces=traces,
        failures=failures,
        metrics=batch_metrics(traces),
    )
