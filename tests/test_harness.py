"""Closed-loop runs: determinism, trace files, hooks, metrics, batches."""

import math
import pickle
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from dualctl import (
    BatchError,
    ConfigError,
    DisturbanceSchedule,
    PlantModel,
    ReferenceSpec,
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
    save_config,
    trace_change_points,
    write_trace,
)
from dualctl.harness import (
    CONTROLLER_KINDS,
    HOOK_EVENTS,
    POSTERIOR_SUFFIX,
    TRACE_COLUMNS,
    run_streams,
)
from dualctl.plants import REFERENCE_FIELDS, TRAIN_DEFAULTS

import oracle
from conftest import DIVERGING_AFFINE_NETWORK


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
    assert len(serial.traces) == len(parallel.traces) == 6
    for i, (ts, tp) in enumerate(zip(serial.traces, parallel.traces)):
        pa, pb = tmp_path / f"s{i}.csv", tmp_path / f"p{i}.csv"
        write_trace(ts, pa)
        write_trace(tp, pb)
        assert pa.read_bytes() == pb.read_bytes()


def test_monte_carlo_pool_has_no_more_workers_than_runs(case1_cfg, monkeypatch):
    # A fork-started pool starts every worker at its first task, so the pool is
    # replaced by one that records its size and maps in this process.
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = _short(case1_cfg, iterations=20)
    serial = monte_carlo(cfg, runs=3, jobs=1)
    for runs, jobs in ((3, 32), (3, 2), (1, 4)):
        batch = monte_carlo(cfg, runs=runs, jobs=jobs)
        assert [t.y for t in batch.traces] == [t.y for t in serial.traces[:runs]]
    assert sizes == [3, 2]  # one run needs no pool


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


def _write_v1_with_pi_columns(trace, path):
    """Write ``trace`` in the v1 layout that keeps one ``pi_t`` column per candidate."""
    write_trace(replace(trace, posteriors=None), path)
    lines = path.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("k,"))
    lines[header] += "".join(f",pi_{t + 1}" for t in range(trace.grid_size))
    for i, row in enumerate(trace.posteriors, start=header + 1):
        lines[i] += "".join(f",{v!r}" for v in row)
    path.write_text("\n".join(lines) + "\n")


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
    # The row cases and the pi_* cross-check read a v1 file in the layout with
    # one pi_* column per candidate, whose first row is line 7; the metadata
    # cases read the v2 file of write_trace, whose lines 1-5 are the same.
    path = tmp_path / "t.csv"
    trace = run_experiment(_short(case1_cfg, iterations=5), seed=1, collect_posteriors=True)
    if row is None and "pi_*" not in message:
        write_trace(trace, path)
    else:
        _write_v1_with_pi_columns(trace, path)
    lines = path.read_text().splitlines()
    column, value = cell
    if row is None:  # a metadata line
        index = next(i for i, line in enumerate(lines) if line.startswith(f"# {column}:"))
        lines[index] = f"# {column}: {value}"
    else:
        at = next(i for i, line in enumerate(lines) if line.startswith("k,"))
        header = lines[at].split(",")
        fields = lines[at + row].split(",")
        fields[header.index(column)] = value
        lines[at + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value) == f"{path}, {message}"


def _refuse_unpickling(*args, **kwargs):
    raise AssertionError("a posterior sidecar must not be unpickled")


@pytest.mark.parametrize(
    "damage, problem",
    [
        (None, "is missing"),
        (lambda pi: pi.astype(np.float32), "holds <f4, expected float64"),
        (lambda pi: pi[:-1], "has shape (4, 15), expected (5, 15)"),
        (lambda pi: pi.astype(object), "is not a float64 .npy array ("),
    ],
    ids=["missing", "float32", "shape", "pickle"],
)
def test_read_trace_refuses_a_bad_posterior_sidecar(
    case1_cfg, tmp_path, monkeypatch, damage, problem
):
    path = tmp_path / "t.csv"
    sidecar = tmp_path / f"t.csv{POSTERIOR_SUFFIX}"
    write_trace(run_experiment(_short(case1_cfg, iterations=5), seed=1, collect_posteriors=True), path)
    pi = np.load(sidecar)
    sidecar.unlink()
    if damage is not None:
        np.save(sidecar, damage(pi), allow_pickle=True)
    monkeypatch.setattr(pickle, "load", _refuse_unpickling)
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value).startswith(f"{path}, line 6, posteriors: {sidecar} {problem}")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("# posteriors: .pi.npy\n", "", ": a v2 trace needs a '# posteriors:' line"),
        (".pi.npy\n", ".x.npy\n", ", line 6, posteriors: expected .pi.npy, got '.x.npy'"),
        ("gamma_true\n", "gamma_true,pi_1\n", ", line 7: unexpected columns ["),
        ("\n3,", "\n3x,", ", line 10, column k: expected an integer, got '3x'"),
        (
            "# seed: 1\n",
            "",
            ": a v2 trace needs a '# seed:' line as line 4, not '# grid_size: 15'",
        ),
        (
            "# controller: proposed\n",
            "",
            ": a v2 trace needs a '# controller:' line as line 3, not '# seed: 1'",
        ),
        ("# name:", "# nmae:", ": a v2 trace needs a '# name:' line as line 2, not '# nmae: "),
        (
            "# controller:",
            "# name: again\n# controller:",
            ": a v2 trace needs a '# controller:' line as line 3, not '# name: again'",
        ),
        ("# dualctl-trace v2", "# dualctl-trace junk v2", ": unsupported trace version 'junk v2'"),
    ],
    ids=[
        "no posteriors line", "other sidecar", "pi column", "malformed cell", "no seed line",
        "no controller line", "misspelt name line", "repeated name line", "junk version",
    ],
)
def test_read_trace_refuses_a_malformed_v2_csv(case1_cfg, tmp_path, old, new, message):
    path = tmp_path / "t.csv"
    write_trace(run_experiment(_short(case1_cfg, iterations=5), seed=1, collect_posteriors=True), path)
    # A valid sidecar under another suffix: only the posteriors line can be wrong.
    Path(f"{path}.x.npy").write_bytes(Path(f"{path}{POSTERIOR_SUFFIX}").read_bytes())
    path.write_text(path.read_text().replace(old, new, 1))
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value).startswith(f"{path}{message}")


def test_read_trace_refuses_a_v1_csv_without_its_grid_size_line(case1_cfg, tmp_path):
    path = tmp_path / "t.csv"
    write_trace(run_experiment(_short(case1_cfg, iterations=5), seed=1), path)
    path.write_text(path.read_text().replace("# grid_size: 15\n", "", 1))
    with pytest.raises(ValueError) as info:
        read_trace(path)
    assert str(info.value).startswith(
        f"{path}: a v1 trace needs a '# grid_size:' line as line 5, not 'k,y_r,y,"
    )


def test_rewritten_trace_files_have_the_same_bytes_under_any_name(case1_cfg, tmp_path):
    trace = run_experiment(_short(case1_cfg), seed=1, collect_posteriors=True)
    first, second = tmp_path / "trace.csv", tmp_path / "sub" / "another name.csv"
    second.parent.mkdir()
    write_trace(trace, first)
    write_trace(read_trace(first), second)
    for suffix in ("", POSTERIOR_SUFFIX):
        assert Path(f"{first}{suffix}").read_bytes() == Path(f"{second}{suffix}").read_bytes()
    # Without posteriors the file is v1, with the same scalar lines and no sidecar.
    plain = tmp_path / "plain.csv"
    write_trace(replace(trace, posteriors=None), plain)
    assert not Path(f"{plain}{POSTERIOR_SUFFIX}").exists()
    v1 = plain.read_text().splitlines()
    v2 = first.read_text().splitlines()
    assert v2 == ["# dualctl-trace v2", *v1[1:5], f"# posteriors: {POSTERIOR_SUFFIX}", *v1[5:]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_case4_traces_read_back_equal_to_the_run(tmp_path, seed):
    trace = run_experiment(parse_config("configs/case4.yaml"), seed=seed, collect_posteriors=True)
    fields = [f for f in vars(trace) if f != "wall_time"]  # wall_time is not persisted
    v2, v1 = tmp_path / "v2.csv", tmp_path / "v1.csv"
    write_trace(trace, v2)
    _write_v1_with_pi_columns(trace, v1)
    for path in (v2, v1):
        back = read_trace(path)
        assert [f for f in fields if getattr(back, f) != getattr(trace, f)] == [], path


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


def test_run_streams_refuse_a_repeated_channel(case1_cfg):
    with pytest.raises(ValueError, match="^randomize names channel 'beta' more than once$"):
        run_streams(case1_cfg, 0, ("beta", "alpha", "beta"))


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
    # numpy would refuse a fraction with a bare TypeError, and a bool seed
    # writes a "# seed: True" line that read_trace refuses.
    for seed in (1.5, True):
        with pytest.raises(ConfigError, match=f"^seed: expected a non-negative integer, got {seed}$"):
            run_experiment(case1_cfg, seed=seed)
        with pytest.raises(ConfigError, match=f"^seed_base: expected a non-negative integer, got {seed}$"):
            monte_carlo(case1_cfg, runs=2, seed_base=seed)
    assert len(run_experiment(replace(case1_cfg, iterations=5), seed=np.int64(3))) == 5


@pytest.mark.parametrize("jobs", [1, 2])
def test_monte_carlo_failures_keep_their_run_error(jobs):
    # Seed 10 of case3-eps02 diverges with this network; the batch index and
    # iteration survive the pool.
    raw = config_to_dict(parse_config("configs/case3-eps02.yaml"))
    raw["network"] = DIVERGING_AFFINE_NETWORK
    cfg = config_from_dict(raw)
    with pytest.warns(UserWarning, match=r"1/10 runs failed .*\(first: run 9 at iteration 330: "):
        result = monte_carlo(cfg, runs=10, seed_base=1, jobs=jobs)
    ((index, error),) = result.failures
    assert index == 9 and type(error) is RunError and error.iteration == 330
    # A held traceback would keep the failed run's frames, and the batch, in a reference cycle.
    assert error.__traceback__ is None and error.__cause__ is None
    assert [t.seed for t in result.traces] == list(range(1, 10))


def test_monte_carlo_aborts_when_most_runs_fail(case1_cfg):
    raw = config_to_dict(case1_cfg)
    raw["initial_control"] = 1e12
    cfg = config_from_dict(raw, base_dir="configs")
    with pytest.warns(UserWarning, match="5/5 runs failed"), pytest.raises(BatchError):
        monte_carlo(cfg, runs=5)


def test_an_overflowing_network_output_is_a_typed_run_error(case1_cfg, tmp_path):
    # Finite weights validate, but fhat overflows the float range near y = 0.
    net = tmp_path / "overflow.rbfnet"
    net.write_text(
        "rbfnet v1\nstate_dim 1\nbranch f 2\nbasis 1.0 0.0\nbasis 1.0 0.1\n"
        "weights 1e308 1e308\nbranch g 1\nbasis 1.0 0.0\nweights 1.0\n"
    )
    raw = config_to_dict(_short(case1_cfg))
    raw["network"] = str(net)
    cfg = config_from_dict(raw, base_dir="configs")
    with pytest.raises(RunError, match="network output overflows at y=0.0") as err:
        run_experiment(cfg, seed=0)
    assert err.value.iteration == 1
    with pytest.warns(UserWarning, match="3/3 runs failed"), pytest.raises(BatchError):
        monte_carlo(cfg, runs=3)


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


# ---------------------------------------------------------------------------
# A run's streams, and the whole loop against the per-matrix oracles


@pytest.mark.parametrize("name, randomized", [("case1", True), ("case4", False)])
def test_run_streams_are_the_streams_the_run_used(name, randomized):
    cfg = parse_config(f"configs/{name}.yaml")
    randomize = cfg.mc_randomize if randomized else ()
    trace = run_experiment(cfg, seed=0, randomize=randomize)
    disturbances, noises = run_streams(cfg, 0, randomize)
    assert disturbances == list(zip(trace.alpha_true, trace.beta_true, trace.gamma_true))
    y = [cfg.initial_output]
    for k in range(1, cfg.iterations):
        y.append(cfg.plant.step(y[-1], trace.u[k - 1], disturbances[k - 1], noises[k - 1]))
    assert y == trace.y
    # The documented draw order: the uniforms in channel order, then every noise.
    rng = np.random.default_rng(0)
    for channel in randomize:
        interval = getattr(cfg, channel).interval
        assert rng.uniform(interval.lower, interval.upper) == getattr(trace, f"{channel}_true")[0]
    assert noises == rng.normal(0.0, math.sqrt(cfg.plant.noise_variance), cfg.iterations - 1).tolist()


def _matches_the_oracle(cfg, seed, randomize, controller):
    """Run the unit and the whole-loop oracle: the same failing iteration, or
    the same reprs of every row and its posteriors. Returns the failing
    iteration, or None; a mismatch names its first row."""
    failed = None
    try:
        trace = run_experiment(
            cfg, controller=controller, seed=seed, collect_posteriors=True, randomize=randomize
        )
    except RunError as exc:
        failed = exc.iteration
    try:
        rows, posteriors = oracle.reference_run(cfg, seed, randomize, controller)
    except RunError as exc:
        assert failed == exc.iteration
        return failed
    assert failed is None
    got = zip(zip(*(getattr(trace, c) for c in TRACE_COLUMNS)), trace.posteriors)
    assert len(trace) == len(rows)
    for k, (row, expected) in enumerate(zip(got, zip(rows, posteriors)), start=1):
        assert repr(row) == repr(expected), f"row {k}"
    return None


@pytest.mark.parametrize(
    "name, seed, randomized, controller, failure",
    [
        ("case1", 0, True, "proposed", None),
        ("case1", 1, True, "proposed", None),
        ("case1", 2, True, "proposed", None),
        ("case2", 0, False, "proposed", None),
        ("case4", 0, False, "proposed", None),
        ("case1", 0, False, "optimal", None),
        ("case3g-eps04", 34, True, "proposed", 156),  # a singular control denominator
    ],
)
def test_run_matches_the_whole_loop_oracle(name, seed, randomized, controller, failure):
    cfg = parse_config(f"configs/{name}.yaml")
    randomize = cfg.mc_randomize if randomized else ()
    assert _matches_the_oracle(cfg, seed, randomize, controller) == failure


@st.composite
def _cross_entry_case1(draw):
    """A _perturbed_case1 document whose P0 is a Gram matrix half of the time:
    a cross entry sends the learner and the control law down their general paths."""
    raw = draw(_perturbed_case1())
    if draw(st.booleans()):
        a = np.array(draw(_matrices(st.floats(-2.0, 2.0))))
        raw["initial_covariance"] = (a @ a.T).tolist()
    return raw


@given(raw=_cross_entry_case1(), seed=st.integers(0, 2**32), controller=st.sampled_from(CONTROLLER_KINDS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_valid_config_matches_the_whole_loop_oracle(raw, seed, controller):
    try:
        cfg = config_from_dict(raw, base_dir="configs")
    except ConfigError:
        return
    _matches_the_oracle(cfg, seed, cfg.mc_randomize, controller)


# ---------------------------------------------------------------------------
# Every config, parsed or built through the API, round-trips


def _assert_round_trips(cfg, directory):
    assert config_from_dict(config_to_dict(cfg)) == cfg
    path = directory / "config.yaml"
    save_config(cfg, path)
    assert parse_config(path) == cfg


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round-trip")


@given(raw=_perturbed_case1())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_valid_config_round_trips(raw, round_trip_dir):
    try:
        cfg = config_from_dict(raw, base_dir="configs")
    except ConfigError:
        return
    _assert_round_trips(cfg, round_trip_dir)


_BASES = {name: parse_config(f"configs/{name}.yaml") for name in ("case1", "case4")}
_MODEST = st.floats(-1e3, 1e3)
# Each reference kind with valid values in the fields it uses.
_USED_FIELDS = {
    "cosine": st.fixed_dictionaries(
        {"amplitude": _MODEST, "half_cycles": _MODEST, "span": st.integers(1, 1000)}
    ),
    "square": st.fixed_dictionaries({"segments": st.tuples(
        _MODEST, st.lists(st.tuples(st.integers(2, 600), _MODEST), max_size=3, unique_by=lambda s: s[0])
    ).map(lambda drawn: ((1, drawn[0]),) + tuple(sorted(drawn[1])))}),
    "logistic_train": st.fixed_dictionaries({
        "base": _MODEST, "gain": _MODEST, "rate": st.floats(0.1, 5.0),
        "form": st.sampled_from(["logistic", "expanded"]),
    }),
    "user_table": st.fixed_dictionaries(  # a list or a tuple: the spec keeps a tuple
        {"values": st.lists(_MODEST, min_size=1, max_size=5).flatmap(
            lambda values: st.sampled_from([values, tuple(values)])
        )}
    ),
}
_REFERENCE_DEFAULTS = {k: v for k, v in vars(ReferenceSpec(kind="cosine")).items() if k != "kind"}
# Any value, or some field's default (which equals the field's own at times).
_ANY_VALUE = st.one_of(
    st.sampled_from(list(_REFERENCE_DEFAULTS.values())),
    st.floats(), st.integers(), st.text(max_size=3), st.tuples(st.floats()),
)


@st.composite
def _api_config(draw):
    cfg = _BASES[draw(st.sampled_from(sorted(_BASES)))]
    kind = draw(st.sampled_from(sorted(REFERENCE_FIELDS)))
    used = draw(_USED_FIELDS[kind])
    unused = draw(st.dictionaries(
        st.sampled_from([name for name in _REFERENCE_DEFAULTS if name not in used]), _ANY_VALUE
    ))
    names = draw(st.lists(st.sampled_from(sorted(TRAIN_DEFAULTS)), unique=True))
    params = {name: draw(st.floats(-1.0, 1.0)) for name in names}
    if draw(st.booleans()):
        params = tuple(params.items())
    return cfg, kind, used, unused, params


@given(drawn=_api_config())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_api_built_config_round_trips_or_is_refused(drawn, round_trip_dir):
    cfg, kind, used, unused, params = drawn
    # In field order, the order ReferenceSpec checks them in.
    moved = [k for k, v in _REFERENCE_DEFAULTS.items() if k in unused and unused[k] != v]
    try:
        reference = ReferenceSpec(kind=kind, **used, **unused)
    except ValueError as exc:
        assert moved and str(exc) == f"{kind} reference does not use {moved[0]!r}"
        return
    assert not moved
    train = PlantModel(kind="crh3_train", noise_variance=cfg.plant.noise_variance, params=params)
    if cfg.plant.kind == "crh3_train":  # the same plant, reached through replace
        assert replace(cfg.plant, params=params) == train
    _assert_round_trips(replace(cfg, reference=reference, plant=train), round_trip_dir)


@pytest.mark.parametrize("name", ["two\nlines", "  padded  "])
def test_write_trace_refuses_a_name_it_cannot_read_back(case1_cfg, tmp_path, name):
    trace = replace(run_experiment(_short(case1_cfg, iterations=5), seed=1), name=name)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match="^trace name: must be one line without surrounding spaces"):
        write_trace(trace, path)
    assert not path.exists()
