"""End-to-end acceptance gate.

Each criterion gets one test and one PASS/FAIL line in the terminal summary
(see conftest.record_criterion). The bundled configs, seeds and tolerances
are exercised exactly as shipped; nothing here may loosen a bound to pass.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import spearmanr

from dualctl import (
    RunError,
    bayes_step,
    batch_metrics,
    blended_control,
    config_from_dict,
    config_to_dict,
    eval_network,
    make_state,
    monte_carlo,
    optimal_control,
    parse_config,
    recovery_streak,
    reference_at,
    reset,
    run_experiment,
    trace_change_points,
    update_covariance,
    update_posteriors,
    write_trace,
)
from dualctl.learner import prediction_errors
from conftest import record_criterion

MC_RUNS = 100
MC_JOBS = 4


def _check(number, ok, detail):
    record_criterion(number, ok, detail)
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Shared expensive fixtures


@pytest.fixture(scope="module")
def case1_trace():
    return run_experiment(parse_config("configs/case1.yaml"), collect_posteriors=True)


@pytest.fixture(scope="module")
def case2_trace():
    return run_experiment(parse_config("configs/case2.yaml"))


@pytest.fixture(scope="module")
def case4_trace():
    return run_experiment(parse_config("configs/case4.yaml"))


def _batch(name, controller="proposed"):
    cfg = parse_config(f"configs/{name}.yaml")
    result = monte_carlo(cfg, runs=MC_RUNS, controller=controller, jobs=MC_JOBS)
    return cfg.build_grid().size, batch_metrics(result.traces)


@pytest.fixture(scope="module")
def multiplicative_sweep():
    t0 = time.perf_counter()
    proposed = {}
    for eps, name in [(0.05, "case3-eps005"), (0.075, "case3-eps0075"),
                      (0.1, "case3-eps01"), (0.2, "case3-eps02")]:
        proposed[eps] = _batch(name)
    optimal = _batch("case3-eps005", controller="optimal")[1]
    elapsed = time.perf_counter() - t0
    return proposed, optimal, elapsed


@pytest.fixture(scope="module")
def additive_sweep():
    proposed = {}
    for eps, name in [(0.05, "case3g-eps005"), (0.1, "case3g-eps01"),
                      (0.2, "case3g-eps02"), (0.4, "case3g-eps04")]:
        proposed[eps] = _batch(name)
    optimal = _batch("case3g-eps005", controller="optimal")[1]
    return proposed, optimal


def _segment_lock(trace, lo, hi, settle=5):
    """Dominant argmax candidate and its peak posterior inside [lo, hi)."""
    rows = [i for i in range(len(trace)) if lo + settle <= trace.k[i] < hi]
    counts = Counter(trace.argmax_t[i] for i in rows)
    candidate = counts.most_common(1)[0][0]
    peak = max(trace.max_pi[i] for i in rows if trace.argmax_t[i] == candidate)
    return candidate, peak


# ---------------------------------------------------------------------------
# Criteria 1-6


def test_criterion_1_multiplicative_disturbance_replication(case1_trace):
    trace = case1_trace
    segments = [(1, 85, 8), (85, 180, 11), (180, 340, 1), (340, 520, 6), (520, 601, 15)]
    locks = [_segment_lock(trace, lo, hi) for lo, hi, _ in segments]
    visited = [c for c, _ in locks]
    peaks = [p for _, p in locks]
    streaks = [recovery_streak(trace, cp, 0.1) for cp in (85, 180, 340, 520)]
    ok = (
        visited == [c for _, _, c in segments]
        and all(p > 0.99 for p in peaks)
        and all(s <= 6 for s in streaks)
        and trace.wall_time < 5.0
    )
    _check(
        1, ok,
        f"argmax path {visited}, peaks>{min(peaks):.4f}, "
        f"post-change streaks {streaks} (bound 6), wall {trace.wall_time:.2f}s",
    )


def test_criterion_2_additive_disturbance_replication(case2_trace):
    trace = case2_trace
    streaks = [recovery_streak(trace, cp, 0.1) for cp in (200, 400, 500)]
    # Boundary-value segment: the true offset sits exactly between candidates
    # 6 and 7, so either lock is admissible.
    settled, _ = _segment_lock(trace, 450, 500)
    ok = (
        all(s <= 8 for s in streaks)
        and settled in (6, 7)
        and trace.wall_time < 5.0
    )
    _check(
        2, ok,
        f"streaks after changes {streaks} (bound 8), boundary segment locks "
        f"candidate {settled}, wall {trace.wall_time:.2f}s",
    )


def test_criterion_3_resolution_sweep_multiplicative(multiplicative_sweep):
    proposed, optimal, elapsed = multiplicative_sweep
    eps_sorted = sorted(proposed)
    j = [proposed[e][1].j_m for e in eps_sorted]
    monotone = all(a <= b for a, b in zip(j, j[1:]))
    in_window = 0.0015 <= j[0] <= 0.0045
    beats = all(optimal.j_m <= v for v in j)
    ok = monotone and in_window and beats and elapsed < 180.0
    _check(
        3, ok,
        f"J_M {['%.5f' % v for v in j]} for eps {eps_sorted} (monotone={monotone}), "
        f"J_M(0.05)={j[0]:.5f} in [0.0015,0.0045], optimal {optimal.j_m:.5f} <= all, "
        f"elapsed {elapsed:.0f}s < 180s",
    )


def test_criterion_4_resolution_sweep_additive(additive_sweep):
    proposed, optimal = additive_sweep
    eps_sorted = sorted(proposed)
    j = [proposed[e][1].j_m for e in eps_sorted]
    monotone = all(a <= b for a, b in zip(j, j[1:]))
    in_window = 0.0020 <= j[0] <= 0.0060
    beats = all(optimal.j_m <= v for v in j)
    ok = monotone and in_window and beats
    _check(
        4, ok,
        f"J_M {['%.5f' % v for v in j]} for eps {eps_sorted} (monotone={monotone}), "
        f"J_M(0.05)={j[0]:.5f} in [0.0020,0.0060], optimal {optimal.j_m:.5f} <= all",
    )


TIMING_CONFIGS = (
    "case3g-eps04", "case3-eps02", "case3g-eps02", "case3-eps01",
    "case3g-eps01", "case3-eps0075", "case3g-eps005", "case3-eps005",
)


def test_criterion_5_wall_clock_scales_with_grid_size():
    # Timing runs are sequential and interleaved round-robin over the grid
    # sizes so that slow drift in machine speed hits every size equally;
    # batch-level timing from the parallel sweeps is too noisy for the
    # 10-vs-15 candidate gap.
    configs = [parse_config(f"configs/{name}.yaml") for name in TIMING_CONFIGS]
    sizes = [cfg.build_grid().size for cfg in configs]
    assert sorted(sizes) == [5, 6, 10, 15, 20, 28, 40, 60]
    reps = 25
    walls = [[] for _ in configs]
    for rep in range(reps + 1):
        for slot, cfg in enumerate(configs):
            try:
                trace = run_experiment(
                    cfg, seed=cfg.seed + rep, randomize=cfg.mc_randomize
                )
            except RunError:
                continue  # a diverged run ends early; its time is meaningless
            if rep:  # rep 0 warms caches and is not timed
                walls[slot].append(trace.wall_time)
    by_count = sorted(zip(sizes, (float(np.median(w)) for w in walls)))
    counts = [c for c, _ in by_count]
    medians = [m for _, m in by_count]
    # 5 and 6 candidates differ by one grid point; their medians sit within
    # scheduler noise of each other and count as a single scale point.
    grouped = [0.5 * (medians[0] + medians[1])] + medians[2:]
    monotone = all(a <= b for a, b in zip(grouped, grouped[1:]))
    rho = float(spearmanr(counts, medians).statistic)
    ok = monotone and rho >= 0.9
    _check(
        5, ok,
        f"median wall {['%.3f' % m for m in medians]}s across grids {counts}, "
        f"grouped monotone={monotone}, spearman rho={rho:.3f} >= 0.9",
    )


def test_criterion_6_train_replication(case4_trace):
    trace = case4_trace
    change_points = trace_change_points(trace)
    streaks = [recovery_streak(trace, cp, 3.0) for cp in change_points]
    estimation_errors = np.abs(np.asarray(trace.y_hat) - np.asarray(trace.y))
    in_band = float(np.mean(estimation_errors <= 1.0))
    ok = (
        change_points == [100, 250, 350, 500]
        and all(s <= 10 for s in streaks)
        and in_band >= 0.70
        and trace.wall_time < 10.0
    )
    _check(
        6, ok,
        f"post-change streaks {streaks} (bound 10), estimation error in [-1,1] "
        f"for {in_band:.1%} of rows (need 70%), wall {trace.wall_time:.2f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 7: property suite

EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _prop_normalization():
    rng = np.random.default_rng(41)
    state = make_state(20, 0.01, EYE)
    for step in range(300):
        like = rng.uniform(1e-6, 1e3, size=20)
        state = update_posteriors(state, list(like))
        assert abs(math.fsum(state.posteriors) - 1.0) < 1e-12
        if step % 50 == 49:
            state = reset(state)
            assert abs(math.fsum(state.posteriors) - 1.0) < 1e-12


def _prop_bayes_oracle():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 61))
        prior = rng.uniform(0.01, 1.0, size=size)
        prior /= prior.sum()
        like = rng.uniform(1e-6, 1e3, size=size)
        state = make_state(size, 0.01, EYE)
        state.posteriors = list(prior)
        got = np.asarray(update_posteriors(state, list(like)).posteriors)
        oracle = prior * like
        oracle /= oracle.sum()
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    assert worst < 1e-12


def _prop_blend_oracle():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(1, 61))
        pi = rng.uniform(0.01, 1.0, size=size)
        pi /= pi.sum()
        u = rng.uniform(-100.0, 100.0, size=size)
        # Zero covariance, f_hat = 0, g_hat = 1 and y_r = 0: candidate
        # (0, 1, -u_t) has the input u_t exactly.
        state = make_state(size, 0.01, ((0.0,) * 3,) * 3)
        state.posteriors = list(pi)
        got = blended_control([(0.0, 1.0, -v) for v in u], 0.0, 1.0, 0.0, state, 0.9).u
        worst = max(worst, abs(got - float(pi @ u)))
    assert worst < 1e-12


def _prop_covariance_fixed_point():
    cov = [[1.25, 0.5, -0.75], [0.5, 2.0, 0.25], [-0.75, 0.25, 3.5]]
    state = make_state(15, 0.01, cov)
    eta = state.eta
    assert eta == 1.0 / 15 and state.posteriors == [eta] * 15
    fixed = update_covariance(state)
    assert all(
        entry == [v0] * 15 for row, row0 in zip(fixed.covariances, cov)
        for entry, v0 in zip(row, row0)
    )
    state.posteriors = [eta / 3.0] * 15
    doubled = update_covariance(state)
    assert all(
        v == 2.0 * v0 for row, row0 in zip(doubled.covariances, cov)
        for entry, v0 in zip(row, row0) for v in entry
    )


def _stationary_config(alpha, beta):
    raw = config_to_dict(parse_config("configs/case1.yaml"))
    raw["iterations"] = 100
    raw["channels"]["alpha"]["schedule"] = [[1, float(alpha)]]
    raw["channels"]["beta"]["schedule"] = [[1, float(beta)]]
    raw["channels"]["gamma"]["schedule"] = [[1, 0.0]]
    return config_from_dict(raw, base_dir="configs")


def _prop_posterior_convergence():
    # With a constant on-grid disturbance the true candidate's posterior must
    # dominate quickly.
    base_grid = parse_config("configs/case1.yaml").build_grid()
    rng = np.random.default_rng(7)
    hits = 0
    for trial in range(50):
        i = int(rng.integers(base_grid.alpha.count))
        j = int(rng.integers(base_grid.beta.count))
        alpha = base_grid.alpha.midpoints[i]
        beta = base_grid.beta.midpoints[j]
        cfg = _stationary_config(alpha, beta)
        grid = cfg.build_grid()
        t_true = grid.vectors.index((alpha, beta, grid.gamma.midpoints[0]))
        trace = run_experiment(cfg, seed=trial, collect_posteriors=True)
        if any(row[t_true] > 0.95 for row in trace.posteriors):
            hits += 1
    assert hits >= 48, f"posterior converged in {hits}/50 stationary trials"


def _prop_residual_variance_separation():
    cfg = parse_config("configs/case1.yaml")
    grid = cfg.build_grid()
    plant = cfg.plant
    net = cfg.network
    spec = cfg.reference
    rng_truth = np.random.default_rng(13)
    hits = 0
    for trial in range(50):
        i = int(rng_truth.integers(grid.alpha.count))
        j = int(rng_truth.integers(grid.beta.count))
        truth = (grid.alpha.midpoints[i], grid.beta.midpoints[j], 0.0)
        t_true = grid.vectors.index((truth[0], truth[1], grid.gamma.midpoints[0]))
        rng = np.random.default_rng(1000 + trial)
        state = make_state(grid.size, plant.noise_variance, cfg.initial_covariance)
        y, u = 0.0, 0.0
        sq_sums = np.zeros(grid.size)
        steps = 150
        for k in range(1, steps + 1):
            noise = float(rng.normal(0.0, math.sqrt(plant.noise_variance)))
            y_next = plant.step(y, u, truth, noise)
            fh, gh = eval_network(net, y)
            residuals, _ = prediction_errors(state, (fh, gh * u, 1.0), y_next, grid.vectors)
            state = bayes_step(state, (fh, gh * u, 1.0), y_next, grid.vectors)
            sq_sums += np.square(residuals)
            u = optimal_control(
                truth, plant.f_value(y_next), plant.g_value(y_next), reference_at(spec, k + 2)
            )
            y = y_next
        mean_square = sq_sums / steps
        others = np.delete(mean_square, t_true)
        if mean_square[t_true] < others.min():
            hits += 1
    assert hits >= 48, f"true candidate had smallest residual power in {hits}/50 trials"


def _prop_noiseless_inversion():
    raw = config_to_dict(parse_config("configs/case1.yaml"))
    raw["plant"]["noise_variance"] = 0.0
    cfg = config_from_dict(raw, base_dir="configs")
    trace = run_experiment(cfg, controller="optimal")
    worst = max(abs(e) for k, e in zip(trace.k, trace.err) if k >= 2)
    assert worst < 1e-12


def _prop_determinism(tmp_path):
    raw = config_to_dict(parse_config("configs/case1.yaml"))
    raw["iterations"] = 100
    for ch in raw["channels"].values():
        ch["schedule"] = [s for s in ch["schedule"] if s[0] <= 100]
    cfg = config_from_dict(raw, base_dir="configs")
    reference = None
    for jobs in (1, 3, 5):
        result = monte_carlo(cfg, runs=6, seed_base=500, jobs=jobs)
        blobs = []
        for i, trace in enumerate(result.traces):
            path = tmp_path / f"j{jobs}_{i}.csv"
            write_trace(trace, path)
            blobs.append(path.read_bytes())
        if reference is None:
            reference = blobs
        else:
            assert blobs == reference


def test_criterion_7_property_suite(tmp_path):
    properties = [
        ("posterior normalization", _prop_normalization),
        ("Bayes update oracle", _prop_bayes_oracle),
        ("blend oracle", _prop_blend_oracle),
        ("covariance fixed point", _prop_covariance_fixed_point),
        ("posterior convergence", _prop_posterior_convergence),
        ("residual variance separation", _prop_residual_variance_separation),
        ("noiseless inversion", _prop_noiseless_inversion),
        ("determinism across parallelism", lambda: _prop_determinism(tmp_path)),
    ]
    failures = []
    for name, fn in properties:
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{name}: {exc}")
    ok = not failures
    detail = (
        f"{len(properties)}/{len(properties)} properties hold"
        if ok
        else "; ".join(failures)
    )
    _check(7, ok, detail)
