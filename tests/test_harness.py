"""Closed-loop runs: determinism, trace files, hooks, metrics, batches."""

import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from dualctl import (
    BatchError,
    ConfigError,
    DisturbanceSchedule,
    RunError,
    RunTrace,
    StateError,
    batch_metrics,
    config_from_dict,
    config_to_dict,
    eval_network,
    monte_carlo,
    parse_config,
    read_trace,
    recovery_streak,
    run_experiment,
    run_metrics,
    trace_change_points,
    write_trace,
)
from dualctl.harness import HOOK_EVENTS


@pytest.fixture(scope="module")
def case1_cfg():
    return parse_config("configs/case1.yaml")


def _short(cfg, iterations=80):
    raw = config_to_dict(cfg)
    raw["iterations"] = iterations
    for ch in raw["channels"].values():
        ch["schedule"] = [s for s in ch["schedule"] if s[0] <= iterations]
    return config_from_dict(raw, base_dir="configs")


def test_identical_seed_gives_byte_identical_traces(case1_cfg, tmp_path):
    cfg = _short(case1_cfg)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(run_experiment(cfg, seed=3), a)
    write_trace(run_experiment(cfg, seed=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ(case1_cfg):
    cfg = _short(case1_cfg)
    ta = run_experiment(cfg, seed=3)
    tb = run_experiment(cfg, seed=4)
    assert ta.y != tb.y


def test_parallel_monte_carlo_matches_serial(case1_cfg, tmp_path):
    cfg = _short(case1_cfg)
    serial = monte_carlo(cfg, runs=6, seed_base=100, jobs=1)
    parallel = monte_carlo(cfg, runs=6, seed_base=100, jobs=3)
    assert serial.seeds == parallel.seeds
    for i, (ts, tp) in enumerate(zip(serial.traces, parallel.traces)):
        pa, pb = tmp_path / f"s{i}.csv", tmp_path / f"p{i}.csv"
        write_trace(ts, pa)
        write_trace(tp, pb)
        assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("jobs", [0, -2])
def test_monte_carlo_rejects_fewer_than_one_job(case1_cfg, jobs):
    with pytest.raises(ValueError, match="^jobs must be >= 1$"):
        monte_carlo(_short(case1_cfg), runs=2, jobs=jobs)


def test_trace_round_trip(case1_cfg, tmp_path):
    cfg = _short(case1_cfg)
    trace = run_experiment(cfg, seed=1, collect_posteriors=True)
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    back = read_trace(path)
    assert back.name == trace.name
    assert back.controller == trace.controller
    assert back.seed == trace.seed
    assert back.grid_size == trace.grid_size
    assert back.k == trace.k
    assert back.y == trace.y  # repr round-trip is exact
    assert back.u == trace.u
    assert back.y_hat == trace.y_hat
    assert back.argmax_t == trace.argmax_t
    assert back.reset == trace.reset
    assert back.posteriors == trace.posteriors


@pytest.mark.parametrize(
    "row, cell, message",
    [
        (3, ("u", "0.12x"), "line 9, column u: expected a number, got '0.12x'"),
        (1, ("argmax_t", "2.0"), "line 7, column argmax_t: expected an integer, got '2.0'"),
        (2, ("pi_3", "p"), "line 8, column pi_3: expected a number, got 'p'"),
        (None, ("seed", "one"), "line 4, seed: expected an integer, got 'one'"),
        (None, ("grid_size", "15.5"), "line 5, grid_size: expected an integer, got '15.5'"),
        (None, ("grid_size", "99"), "line 5, grid_size: 99 disagrees with the 15 pi_* columns"),
    ],
)
def test_read_trace_names_the_malformed_cell(case1_cfg, tmp_path, row, cell, message):
    path = tmp_path / "t.csv"
    trace = run_experiment(_short(case1_cfg, iterations=5), seed=1, collect_posteriors=True)
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    column, value = cell
    if row is None:  # a metadata line
        index = next(i for i, line in enumerate(lines) if line.startswith(f"# {column}:"))
        lines[index] = f"# {column}: {value}"
    else:
        header = lines[5].split(",")
        fields = lines[5 + row].split(",")
        fields[header.index(column)] = value
        lines[5 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == f"{path}, {message}"


def test_first_row_conventions(case1_cfg):
    cfg = _short(case1_cfg)
    trace = run_experiment(cfg, seed=0)
    assert trace.k[0] == 1
    assert trace.y[0] == cfg.initial_output
    assert trace.u[0] == cfg.initial_control
    assert trace.y_hat[0] == trace.y[0]
    assert trace.argmax_t[0] == 1
    assert trace.max_pi[0] == pytest.approx(1.0 / cfg.build_grid().size, abs=1e-15)
    assert trace.reset[0] == 0


def test_logged_prediction_and_reset_use_the_leading_candidates_residual():
    # case2 has candidates with nonzero gamma, so every regressor entry
    # shows in the residual.  Row i predicts y[i] from row i-1.
    cfg = parse_config("configs/case2.yaml")
    thetas = cfg.build_grid().vectors
    trace = run_experiment(cfg, seed=0)
    assert sum(trace.reset) > 0
    for i in range(1, len(trace)):
        f_hat, g_hat = eval_network(cfg.network, trace.y[i - 1])
        t0, t1, t2 = thetas[trace.argmax_t[i] - 1]
        residual = trace.y[i] - (t0 * f_hat + t1 * (g_hat * trace.u[i - 1]) + t2 * 1.0)
        assert trace.y_hat[i] == trace.y[i] - residual
        locked_and_wrong = (
            abs(residual) > cfg.reset.admissible_error
            and trace.max_pi[i] > cfg.reset.posterior_threshold
        )
        assert trace.reset[i] == int(locked_and_wrong)


def test_hooks_fire_in_loop_order(case1_cfg):
    cfg = _short(case1_cfg, iterations=12)
    events = []
    hooks = {
        "posterior_update": lambda k, info: events.append(("posterior_update", k)),
        "control": lambda k, info: events.append(("control", k)),
        "reset_check": lambda k, info: events.append(("reset_check", k)),
        "covariance_update": lambda k, info: events.append(("covariance_update", k)),
    }
    run_experiment(cfg, seed=0, hooks=hooks)
    assert len(events) == 4 * 11  # iterations 2..12
    for i in range(0, len(events), 4):
        chunk = events[i : i + 4]
        k = chunk[0][1]
        assert tuple(name for name, _ in chunk) == HOOK_EVENTS
        assert all(ek == k for _, ek in chunk)
    assert [e[1] for e in events[::4]] == list(range(2, 13))
    # A misspelled name is refused before the first iteration, not ignored.
    events.clear()
    hooks["covariance_updated"] = hooks.pop("covariance_update")
    with pytest.raises(ValueError, match="unknown event 'covariance_updated', expected one of"):
        run_experiment(cfg, seed=0, hooks=hooks)
    assert events == []


def test_posterior_columns_are_normalized(case1_cfg):
    cfg = _short(case1_cfg)
    trace = run_experiment(cfg, seed=2, collect_posteriors=True)
    assert len(trace.posteriors) == len(trace)
    for row in trace.posteriors:
        assert len(row) == trace.grid_size
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-12)


def test_noiseless_optimal_controller_tracks_exactly(case1_cfg):
    raw = config_to_dict(case1_cfg)
    raw["iterations"] = 120
    raw["plant"]["noise_variance"] = 0.0
    for ch in raw["channels"].values():
        ch["schedule"] = [s for s in ch["schedule"] if s[0] <= 120]
    cfg = config_from_dict(raw, base_dir="configs")
    trace = run_experiment(cfg, controller="optimal")
    for k, err in zip(trace.k, trace.err):
        if k >= 2:
            assert abs(err) < 1e-12


def test_randomized_channels_draw_inside_interval(case1_cfg):
    cfg = _short(case1_cfg)
    trace = run_experiment(cfg, seed=9, randomize=("alpha", "beta"))
    assert len(set(trace.alpha_true)) == 1  # constant across the run
    assert 0.75 <= trace.alpha_true[0] <= 1.25
    assert 0.75 <= trace.beta_true[0] <= 1.05
    assert trace.alpha_true[0] != 1.0  # overrode the schedule
    again = run_experiment(cfg, seed=9, randomize=("alpha", "beta"))
    assert again.alpha_true[0] == trace.alpha_true[0]


def test_run_rejects_unknown_controller_and_channel(case1_cfg):
    with pytest.raises(ValueError):
        run_experiment(case1_cfg, controller="pid")
    with pytest.raises(ValueError):
        run_experiment(case1_cfg, randomize=("delta",))


def test_divergence_aborts_with_iteration(case1_cfg):
    raw = config_to_dict(case1_cfg)
    raw["initial_control"] = 1e12  # kicks the output past the guard at once
    cfg = config_from_dict(raw, base_dir="configs")
    with pytest.raises(RunError) as err:
        run_experiment(cfg, seed=0)
    assert err.value.iteration == 2


def test_first_row_and_input_failures_are_typed(case1_cfg):
    raw = config_to_dict(_short(case1_cfg, iterations=20))
    raw["channels"]["beta"]["schedule"] = [[1, 0.0]]  # no true input gain at row 1
    with pytest.raises(RunError) as err:
        run_experiment(config_from_dict(raw, base_dir="configs"), controller="optimal")
    assert err.value.iteration == 1
    # The exact inversion cancels a huge offset with a huge input: the output
    # stays bounded, but the input must not reach the regressor.
    raw["channels"]["beta"]["schedule"] = [[1, 0.9]]
    raw["channels"]["gamma"]["schedule"] = [[1, 1e15]]
    with pytest.raises(RunError, match="input diverged") as err:
        run_experiment(config_from_dict(raw, base_dir="configs"), controller="optimal")
    assert err.value.iteration == 2


def test_singular_true_gain_gives_nan_u_opt_in_proposed_runs(case1_cfg, tmp_path):
    raw = config_to_dict(case1_cfg)
    raw["channels"]["beta"]["schedule"].append([590, 0.0])
    cfg = config_from_dict(raw, base_dir="configs")
    trace = run_experiment(cfg, seed=0)
    assert len(trace) == 600
    assert [k for k, v in zip(trace.k, trace.u_opt) if math.isnan(v)] == list(range(590, 601))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(trace, a)
    back = read_trace(a)
    write_trace(back, b)
    assert a.read_bytes() == b.read_bytes()
    assert [math.isnan(v) for v in back.u_opt] == [math.isnan(v) for v in trace.u_opt]
    assert back.y == trace.y and back.u == trace.u
    # The optimal controller needs the true gain, so its run still fails.
    with pytest.raises(RunError) as err:
        run_experiment(cfg, controller="optimal", seed=0)
    assert err.value.iteration == 590


def test_negative_seed_overrides_are_config_errors(case1_cfg):
    with pytest.raises(ConfigError, match="seed: expected a non-negative integer, got -1"):
        run_experiment(case1_cfg, seed=-1)
    with pytest.raises(ConfigError, match="seed_base: expected a non-negative integer, got -5"):
        monte_carlo(case1_cfg, runs=2, seed_base=-5)


def test_monte_carlo_aborts_when_most_runs_fail(case1_cfg):
    raw = config_to_dict(case1_cfg)
    raw["initial_control"] = 1e12
    cfg = config_from_dict(raw, base_dir="configs")
    with pytest.warns(UserWarning, match="5/5 runs failed"), pytest.raises(BatchError):
        monte_carlo(cfg, runs=5)


def _zero_variance(cfg):
    # Noiseless plant and a zero initial covariance: every prediction
    # variance is exactly 0, so no Gaussian likelihood exists.
    raw = config_to_dict(cfg)
    raw["plant"]["noise_variance"] = 0.0
    raw["initial_covariance"] = "zero"
    return config_from_dict(raw, base_dir="configs")


def test_zero_prediction_variance_is_a_typed_run_error(case1_cfg):
    with pytest.raises(RunError) as err:
        run_experiment(_zero_variance(case1_cfg), seed=0)
    assert err.value.iteration == 2
    assert isinstance(err.value.__cause__, StateError)
    assert "prediction variance" in str(err.value)


def test_zero_prediction_variance_fails_monte_carlo_runs(case1_cfg):
    cfg = _zero_variance(_short(case1_cfg))
    with pytest.warns(UserWarning, match="3/3 runs failed"), pytest.raises(BatchError):
        monte_carlo(cfg, runs=3)


def _toy_trace(err, k0=1, **overrides):
    n = len(err)
    cols = dict(
        name="toy", controller="proposed", seed=0, grid_size=3,
        k=list(range(k0, k0 + n)),
        y_r=[0.0] * n, y=list(err), u=[0.0] * n, u_opt=[0.0] * n,
        y_hat=[0.0] * n, err=list(err), argmax_t=[1] * n, max_pi=[1.0] * n,
        reset=[0] * n, alpha_true=[1.0] * n, beta_true=[1.0] * n,
        gamma_true=[0.0] * n,
    )
    cols.update(overrides)
    return RunTrace(**cols)


def test_run_metrics_hand_oracle():
    m = run_metrics(_toy_trace([3.0, -4.0]))
    assert m.j_index == pytest.approx(5.0 / 2.0, abs=1e-15)
    assert m.rms == pytest.approx(math.sqrt(12.5), abs=1e-12)
    assert m.mean_abs == pytest.approx(3.5, abs=1e-15)


def test_batch_metrics_aggregates():
    traces = [_toy_trace([3.0, -4.0]), _toy_trace([0.0, 0.0])]
    traces[0].wall_time = 2.0
    traces[1].wall_time = 1.0
    m = batch_metrics(traces)
    assert m.runs == 2
    assert m.j_m == pytest.approx(1.25, abs=1e-15)
    assert m.median_wall_time == 1.5
    assert m.j_values == (2.5, 0.0)
    with pytest.raises(ValueError):
        batch_metrics([])


def test_recovery_streak_counts_from_first_affected_row():
    # change lands at k=5; outputs at k=6,7,8 are out of band
    err = [0.0, 0.0, 0.0, 0.0, 0.05, 1.0, 0.8, 0.3, 0.05, 0.0]
    trace = _toy_trace(err)
    trace.alpha_true = [1.0] * 4 + [1.1] * 6
    assert trace_change_points(trace) == [5]
    assert recovery_streak(trace, 5, 0.1) == 3
    assert recovery_streak(trace, 5, 2.0) == 0
    with pytest.raises(ValueError):
        recovery_streak(trace, 99, 0.1)


def _schedule_trace(schedule, n):
    """A toy trace whose true-disturbance columns follow ``schedule`` for n rows."""
    alpha, beta, gamma = zip(*(schedule.at(k) for k in range(1, n + 1)))
    return _toy_trace(
        [0.0] * n, alpha_true=list(alpha), beta_true=list(beta), gamma_true=list(gamma)
    )


def test_trace_change_points_merge_channels():
    sched = DisturbanceSchedule(
        alpha=((1, 1.0), (100, 1.05), (250, 0.95)),
        beta=((1, 0.9),),
        gamma=((1, 0.0), (100, -0.5)),
    )
    assert trace_change_points(_schedule_trace(sched, 600)) == [100, 250]
    assert trace_change_points(_schedule_trace(sched, 120)) == [100]
    # A segment that repeats the previous value is not a change.
    flat = DisturbanceSchedule(
        alpha=((1, 1.0), (50, 1.0)), beta=((1, 1.0),), gamma=((1, 0.0),)
    )
    assert trace_change_points(_schedule_trace(flat, 600)) == []


def test_trace_change_points_on_bundled_schedule(case1_cfg):
    trace = run_experiment(case1_cfg, seed=0)
    assert trace_change_points(trace) == [85, 180, 340, 520]


def test_wall_time_is_recorded(case1_cfg):
    trace = run_experiment(_short(case1_cfg, iterations=20), seed=0)
    assert trace.wall_time > 0.0


# ---------------------------------------------------------------------------
# Every config that validates runs or fails typed


def _case1_raw(iterations):
    """case1 as a plain document, its schedules squeezed into ``iterations``."""
    with open("configs/case1.yaml") as fh:
        raw = yaml.safe_load(fh)
    raw["iterations"] = iterations
    for ch in raw["channels"].values():
        squeezed = {}
        for start, value in ch["schedule"]:
            squeezed.setdefault(1 + (start - 1) * (iterations - 1) // 599, value)
        ch["schedule"] = [[k, v] for k, v in squeezed.items()]
    return raw


_SCALAR_FIELDS = (
    ("seed",), ("initial_output",), ("initial_control",),
    ("plant", "noise_variance"),
    ("reference", "amplitude"), ("reference", "half_cycles"), ("reference", "span"),
    ("controller", "dual_lambda"), ("controller", "input_clamp"),
    ("reset", "admissible_error"), ("reset", "posterior_threshold"),
) + tuple(
    ("channels", ch, "schedule", -1, i) for ch in ("alpha", "beta", "gamma") for i in (0, 1)
)
# Interval fields take finite values only within a factor of 4 of case1's:
# validation bounds the grid at MAX_GRID_SIZE candidates, but a grid near the
# bound makes each example slow, which is not a question of error types.
_GRID_FIELDS = tuple(
    ("channels", ch, key) for ch in ("alpha", "beta", "gamma") for key in ("lower", "upper", "eps")
)
_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 0, -3])


def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _get(raw, path):
    node = raw
    for key in path:
        node = node[key]
    return node


def _matrices(entry):
    return st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3)


@st.composite
def _perturbed_case1(draw):
    raw = _case1_raw(draw(st.integers(2, 30)))
    if draw(st.booleans()):
        raw["iterations"] = draw(st.one_of(_SPECIAL, st.integers(max_value=30)))
    for path in draw(st.lists(st.sampled_from(_SCALAR_FIELDS), max_size=3, unique=True)):
        _set(raw, path, draw(st.one_of(_SPECIAL, st.floats(), st.integers())))
    for path in draw(st.lists(st.sampled_from(_GRID_FIELDS), max_size=2, unique=True)):
        scaled = _get(raw, path) * draw(st.floats(0.25, 4.0))
        _set(raw, path, draw(st.one_of(_SPECIAL, st.just(scaled), st.just(-scaled))))
    kind = draw(st.sampled_from(["keep", "any", "gram"]))
    if kind == "any":
        entry = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, 0.0]))
        raw["initial_covariance"] = draw(_matrices(entry))
    elif kind == "gram":  # symmetric positive semidefinite
        a = np.array(draw(_matrices(st.floats(-2.0, 2.0))))
        raw["initial_covariance"] = (a @ a.T).tolist()
    return raw


@given(raw=_perturbed_case1())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_valid_config_runs_or_fails_typed(raw):
    try:
        cfg = config_from_dict(raw, base_dir="configs")
    except ConfigError:
        return
    try:
        run_experiment(cfg)
    except RunError:
        pass
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            monte_carlo(cfg, runs=2)
        except BatchError:
            pass
