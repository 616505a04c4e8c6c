"""Call tracing for the benchmark, installed on dualctl from outside.

The program itself is never edited.  A traced function is replaced by a
wrapper at every place that binds it: its own module, each dualctl module that
imported it by name (``dualctl.harness.bayes_step``, ``dualctl.cli.main``) and,
for methods, the class.  ``uninstall`` puts every original back.

Self time is measured with a call stack: each wrapper times its call and hands
the elapsed time to its caller's frame, so a function's self time is its own
time minus the time of the traced functions it called.  The wrapper's own cost
lands in the caller's self time; the benchmark reports the total cost as the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
from time import perf_counter

# Traced functions as "<module>.<attribute path>".  The layers are dualctl's
# modules; ``errors`` does no runtime work.
TRACED = (
    "config.parse_config",
    "config.ExperimentConfig.build_grid",
    "grid.grid_from_intervals",
    "grid.partition_interval",
    "rbf.load_network",
    "rbf.eval_network",
    "plants.PlantModel.step",
    "plants.PlantModel.f_value",
    "plants.PlantModel.g_value",
    "plants.DisturbanceSchedule.at",
    "plants.sample_noise",
    "plants.reference_at",
    "learner.make_state",
    "learner.bayes_step",
    "learner.update_covariance",
    "learner.detect_change",
    "learner.reset",
    "controller.candidate_control_terms",
    "controller.blended_control",
    "controller.optimal_control",
    "harness.run_experiment",
    "harness.monte_carlo",
    "harness.batch_metrics",
    "harness.write_trace",
    "harness.read_trace",
    "cli.main",
)

# Traced functions that also open a span of their own.
SPAN_KINDS = {
    "harness.run_experiment": "run",
    "harness.write_trace": "write",
    "harness.read_trace": "read",
}

# One call per closed-loop iteration, so its count is the iteration count.
ITERATION_FUNCTION = "plants.PlantModel.step"

# run_experiment hook event -> stage that ends at it.  A stage runs from the
# previous event to this one; "observe" starts at the covariance event of the
# iteration before, so it also holds the row bookkeeping of that iteration.
STAGE_OF_EVENT = {
    "posterior_update": "observe",
    "control": "control",
    "reset_check": "reset_check",
    "covariance_update": "covariance",
}

_MARK = "_bench_traced"


def _bindings(pkg, name):
    """Every (owner, attribute, original) that binds the traced function ``name``."""
    module_name, _, path = name.partition(".")
    owner = sys.modules[f"{pkg.__name__}.{module_name}"]
    *classes, attr = path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    if classes:
        return [(owner, attr, owner.__dict__[attr])]
    original = getattr(owner, attr)
    found = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name == pkg.__name__ or mod_name.startswith(pkg.__name__ + "."):
            for key, value in list(vars(module).items()):
                if value is original:
                    found.append((module, key, original))
    return found


def installed_wrappers(pkg) -> list[str]:
    """Names in dualctl's modules and classes that are still bound to a wrapper."""
    left = []
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == pkg.__name__ or mod_name.startswith(pkg.__name__ + ".")):
            continue
        for key, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                left.append(f"{mod_name}.{key}")
            if isinstance(value, type) and value.__module__ == mod_name:
                left += [
                    f"{mod_name}.{key}.{k}"
                    for k, v in vars(value).items()
                    if getattr(v, _MARK, False)
                ]
    return left


class Tracer:
    """Wrappers, per-function counters and spans of one traced pass."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.stats = {name: [0, 0.0] for name in TRACED}
        self.spans: list[dict] = []
        self.iterations = 0
        self.useful_iterations = 0
        self.failed_runs = 0
        self.trace_bytes = 0
        self.io_s = 0.0
        self.last_written = None
        self._stack: list[float] = []
        self._open: list[int] = []
        self._bound: list[tuple] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for name in TRACED:
            self._bind(name, self._wrap(name))

    def install_hooks(self, clock: "StageClock") -> None:
        """Bind only run_experiment, to a wrapper that passes the stage hooks."""

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                clock.start_run()
                return fn(*args, hooks=clock.hooks, **kwargs)

            return wrapper

        self._bind("harness.run_experiment", make)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        self._bound.clear()

    def _bind(self, name, make):
        bindings = _bindings(self.pkg, name)
        wrapper = make(bindings[0][2])
        setattr(wrapper, _MARK, True)
        for owner, attr, original in bindings:
            setattr(owner, attr, wrapper)
            self._bound.append((owner, attr, original))

    def _wrap(self, name):
        stat = self.stats[name]
        stack = self._stack

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    stat[0] += 1
                    stat[1] += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed

            kind = SPAN_KINDS.get(name)
            if kind is None:
                return timed

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                try:
                    with self.span(kind) as span:
                        return timed(*args, **kwargs)
                finally:
                    self._account(kind, span, args, kwargs)

            return spanned

        return make

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, kind: str, **attrs):
        """A span around the block, with the traced calls made inside it."""
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "kind": kind,
            "start": perf_counter(),
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        before = self.snapshot()
        try:
            yield span
        except BaseException as exc:
            span["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span["end"] = perf_counter()
            self._open.pop()
            span["calls"] = {
                name: [n - n0, self_s - self0]
                for (name, (n, self_s)), (n0, self0) in zip(self.stats.items(), before)
                if n != n0
            }

    def snapshot(self):
        return [tuple(stat) for stat in self.stats.values()]

    def _account(self, kind, span, args, kwargs):
        if kind == "run":
            done = span["calls"].get(ITERATION_FUNCTION, [0])[0]
            self.iterations += done
            if "error" in span:
                self.failed_runs += 1
            else:
                self.useful_iterations += done
        elif kind in ("write", "read"):
            self.io_s += span["end"] - span["start"]
            if kind == "write" and "error" not in span:
                trace = args[0] if args else kwargs["trace"]
                path = args[1] if len(args) > 1 else kwargs["path"]
                self.last_written = trace
                self.trace_bytes += os.path.getsize(path)


class StageClock:
    """Sums the time between consecutive run_experiment hook events."""

    def __init__(self):
        self.total = dict.fromkeys(STAGE_OF_EVENT.values(), 0.0)
        self.count = dict.fromkeys(STAGE_OF_EVENT.values(), 0)
        self._last = None
        self.hooks = {event: self._on(stage) for event, stage in STAGE_OF_EVENT.items()}

    def start_run(self) -> None:
        # The first observe stage of a run would include the run's set-up.
        self._last = None

    def _on(self, stage):
        def hook(k, info):
            now = perf_counter()
            if self._last is not None:
                self.total[stage] += now - self._last
                self.count[stage] += 1
            self._last = now

        return hook

    def ns_per_iteration(self) -> dict[str, float]:
        return {
            stage: 1e9 * self.total[stage] / self.count[stage] if self.count[stage] else 0.0
            for stage in self.total
        }
