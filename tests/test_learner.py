"""Bayesian candidate learning: likelihoods, posterior updates, covariance
rescaling and the change-detection reset."""

import copy
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualctl import (
    COVARIANCE_CAP,
    POSTERIOR_FLOOR,
    PosteriorUnderflowError,
    ResetPolicy,
    StateError,
    bayes_step,
    candidate_control_terms,
    detect_change,
    make_state,
    reset,
    update_covariance,
    update_posteriors,
)
from dualctl.learner import prediction_errors

import oracle

EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
COV = ((1.25, 0.5, -0.75), (0.5, 2.0, 0.25), (-0.75, 0.25, 3.5))
ZERO = ((0.0,) * 3,) * 3


def _matrices(state):
    """The state's covariances as one 3x3 nested list per candidate."""
    return [
        [[entry[t] for entry in row] for row in state.covariances]
        for t in range(len(state.posteriors))
    ]


def _layout(cov, size):
    return [[[v] * size for v in row] for row in cov]


def _max_entries(state):
    """Each candidate's largest |entry|."""
    return [max(abs(v) for row in cov for v in row) for cov in _matrices(state)]


def _peak_position_entries(state):
    """Each candidate's |entry| at the position of P0's largest |entry|."""
    p0 = state.initial_covariance
    i, j = max(((i, j) for i in range(3) for j in range(3)), key=lambda ij: abs(p0[ij[0]][ij[1]]))
    return [abs(v) for v in state.covariances[i][j]]


def _random_state(rng, size):
    p = rng.uniform(0.01, 1.0, size=size)
    p /= p.sum()
    state = make_state(size, 0.01, EYE)
    state.posteriors = list(p)
    return state


def test_make_state_is_uniform():
    state = make_state(15, 0.0004, EYE)
    assert state.posteriors == [1.0 / 15] * 15
    assert state.eta == 1.0 / 15
    assert state.covariances == _layout(EYE, 15)
    assert _matrices(state)[3] == [list(r) for r in EYE]
    assert _max_entries(state) == [1.0] * 15


def test_make_state_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_state(0, 0.1, EYE)
    with pytest.raises(ValueError):
        make_state(5, -0.1, EYE)


def test_gaussian_likelihood_matches_closed_form():
    # Zero covariance and regressor (0, 0, 1): candidate t predicts its gamma
    # with variance exactly sigma^2. Candidate 0 sees residual r, candidate 1
    # none, so from a uniform prior pi_0 = d(r, v) / (d(r, v) + d(0, v)).
    for r, v in [(0.0, 1.0), (0.5, 0.25), (-2.0, 0.0004), (3.0, 10.0)]:
        state = make_state(2, v, ZERO)
        residuals, variances = prediction_errors(
            state, (0.0, 0.0, 1.0), r, [(1.0, 1.0, 0.0), (1.0, 1.0, r)]
        )
        new = bayes_step(state, (0.0, 0.0, 1.0), r, [(1.0, 1.0, 0.0), (1.0, 1.0, r)])
        assert residuals == [r, 0.0]
        assert variances == [v, v]
        d0 = math.exp(-r * r / (2 * v)) / math.sqrt(2 * math.pi * v)
        d1 = 1.0 / math.sqrt(2 * math.pi * v)
        assert new.posteriors[0] == pytest.approx(d0 / (d0 + d1), rel=1e-15)


def test_likelihood_rejects_nonpositive_variance():
    # Zero noise and a covariance that vanishes along the regressor leave no
    # Gaussian likelihood: a typed StateError, never a bare ValueError.
    thetas = [(1.0, 1.0, 0.0), (1.0, 1.0, 0.1)]
    state = make_state(2, 0.0, ZERO)
    with pytest.raises(StateError, match="prediction variance of candidate 0"):
        bayes_step(state, (0.5, 1.0, 1.0), 0.1, thetas)
    # Candidate 0's density underflows before candidate 1's zero variance is
    # reached; the step that takes over must still reject candidate 1.
    for p0 in (EYE, COV):
        state, _ = oracle.scaled_state(p0, [1.0, 0.0], [0.5, 0.5], 0.0)
        with pytest.raises(StateError, match=r"^prediction variance of candidate 1 is 0\.0;"):
            bayes_step(state, (0.5, 1.0, 1.0), 1e3, thetas)


def test_prediction_variance_is_quadratic_form_plus_noise():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=(3, 3))
        p = a @ a.T  # random PSD matrix
        phi = rng.normal(size=3)
        sigma2 = float(rng.uniform(0, 2))
        expected = float(phi @ p @ phi) + sigma2
        state = make_state(1, sigma2, p.tolist())
        _, variances = prediction_errors(state, tuple(phi), 0.0, [(1.0, 1.0, 0.0)])
        assert variances[0] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_prediction_variance_rejects_indefinite_covariance():
    p = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
    with pytest.raises(StateError):
        make_state(1, 0.1, p)
    state, _ = oracle.scaled_state(p, [1.0], [1.0], 0.1)
    with pytest.raises(StateError):
        bayes_step(state, (0.0, 0.0, 1.0), 0.0, [(1.0, 1.0, 0.0)])


def test_posterior_update_matches_brute_force_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        size = int(rng.integers(1, 61))
        state = _random_state(rng, size)
        like = rng.uniform(1e-6, 50.0, size=size)
        new = update_posteriors(state, list(like))
        expected = np.asarray(state.posteriors) * like
        expected /= expected.sum()
        assert np.max(np.abs(np.asarray(new.posteriors) - expected)) < 1e-12
        assert math.fsum(new.posteriors) == pytest.approx(1.0, abs=1e-12)


def _gamma_step(state, observed, gammas):
    """bayes_step with zero covariance and regressor (0, 0, 1): candidate t
    has residual ``observed - gammas[t]`` and variance sigma^2."""
    return bayes_step(state, (0.0, 0.0, 1.0), observed, [(1.0, 1.0, g) for g in gammas])


def test_log_domain_update_agrees_with_linear_domain():
    # One candidate 100 sigma away sends the step into the log domain; the
    # others must still get the linear-domain closed form.
    rng = np.random.default_rng(7)
    for _ in range(200):
        size = int(rng.integers(2, 30))
        state = replace(
            _random_state(rng, size),
            covariances=_layout(ZERO, size),
            noise_variance=1.0,
        )
        residuals = list(rng.uniform(-3.0, 3.0, size=size - 1)) + [100.0]
        new = _gamma_step(state, 0.0, [-r for r in residuals])
        lin = np.asarray(state.posteriors) * np.exp(-np.square(residuals) / 2.0)
        lin /= lin.sum()
        assert np.max(np.abs(np.asarray(new.posteriors) - lin)) < 1e-12


def test_underflow_raises_then_log_domain_recovers():
    state = make_state(4, 0.01, EYE)
    tiny = [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(PosteriorUnderflowError):
        update_posteriors(state, tiny)
    # The log domain handles the same situation: residuals of wildly
    # different magnitude still yield a normalized posterior.
    state = make_state(4, 1.0, ZERO)
    residuals = [math.sqrt(2e6), 2000.0, math.sqrt(2e6 + 2.0), math.sqrt(6e6)]
    new = _gamma_step(state, 0.0, [-r for r in residuals])
    assert math.fsum(new.posteriors) == pytest.approx(1.0, abs=1e-12)
    assert new.posteriors[0] > new.posteriors[2] > 0.0
    assert new.posteriors[2] / new.posteriors[0] == pytest.approx(math.exp(-1.0), rel=1e-9)


def test_log_domain_rejects_non_finite_observations():
    state = make_state(2, 0.01, EYE)
    with pytest.raises(StateError, match="not finite"):
        _gamma_step(state, math.inf, [0.0, 1.0])


@given(
    size=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    scale=st.floats(1e-8, 1e8, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_posterior_normalization_invariant(size, seed, scale):
    rng = np.random.default_rng(seed)
    state = _random_state(rng, size)
    like = rng.uniform(0.1, 1.0, size=size) * scale
    new = update_posteriors(state, list(like))
    assert abs(math.fsum(new.posteriors) - 1.0) < 1e-12
    assert all(p >= 0 for p in new.posteriors)


def test_update_rejects_wrong_length_or_bad_values():
    state = make_state(3, 0.01, EYE)
    with pytest.raises(ValueError):
        update_posteriors(state, [1.0, 2.0])
    with pytest.raises(ValueError):
        update_posteriors(state, [1.0, -2.0, 1.0])
    with pytest.raises(ValueError):
        update_posteriors(state, [1.0, math.inf, 1.0])


def test_covariance_fixed_point_at_uniform_mass_is_bit_exact():
    state = make_state(15, 0.01, COV)  # uniform posteriors at eta = 1/15
    out = update_covariance(state)
    assert _matrices(out) == [[list(r) for r in COV]] * 15  # log2(1 + 1) == 1.0 exactly
    assert _max_entries(out) == _max_entries(state)


def test_covariance_doubles_at_one_third_of_uniform_mass():
    state = make_state(5, 0.01, COV)
    eta = state.eta
    assert eta == 0.2
    state.posteriors = [eta / 3.0] * 5
    out = update_covariance(state)
    for cov in _matrices(out):
        for row, row0 in zip(cov, COV):
            for v, v0 in zip(row, row0):
                assert v == 2.0 * v0  # log2(3 + 1) == 2.0 exactly
    assert _max_entries(out) == [2.0 * 3.5] * 5


def test_covariance_growth_saturates():
    cov = ((1e11, 0.0, 0.0), (0.0, 1e11, 0.0), (0.0, 0.0, 1e11))
    state = replace(make_state(2, 0.01, cov), eta=0.1)
    state.posteriors = [1e-300, 1.0]
    out = update_covariance(state)
    peak = max(abs(v) for row in _matrices(out)[0] for v in row)
    assert peak <= 1e12 * (1 + 1e-12)
    assert _peak_position_entries(out)[0] == peak


@given(
    pi=st.floats(1e-12, 1.0, allow_nan=False),
    eta=st.floats(1e-3, 0.5, allow_nan=False),
)
@settings(max_examples=200)
def test_covariance_factor_monotone_in_posterior(pi, eta):
    state = replace(make_state(2, 0.01, EYE), eta=eta)
    state.posteriors = [pi, min(pi * 2, 1.0)]
    p00 = update_covariance(state).covariances[0][0]
    lo, hi = p00
    assert hi <= lo + 1e-15  # more mass, less inflation


def _symmetric_pd(rng, scale):
    a = rng.normal(size=(3, 3))
    p = scale * (a @ a.T + 0.1 * np.eye(3))
    p = np.tril(p) + np.tril(p, -1).T  # exactly symmetric
    if rng.uniform() < 0.5:
        p = np.diag(np.diag(p))  # zero off-diagonal entries are skipped
    return p.tolist()


@given(
    size=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-6, 1e11, allow_nan=False),
    ops=st.lists(st.sampled_from(["rescale", "rescale", "rescale", "reset"]), max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_peaks_track_max_entry_through_rescales_and_resets(size, seed, scale, ops):
    rng = np.random.default_rng(seed)
    state = make_state(size, 0.01, _symmetric_pd(rng, scale))
    for op in ops:
        if op == "reset":
            state = reset(state)
        else:
            # Skewed posteriors with exact zeros: candidates shrink, grow and
            # hit the cap.
            pi = rng.uniform(size=size) ** 8
            pi[rng.uniform(size=size) < 0.3] = 0.0
            state.posteriors = list(pi / pi.sum()) if pi.sum() > 0 else [1.0 / size] * size
            state = update_covariance(state)
        # update_covariance reads each candidate's peak at this position.
        assert _peak_position_entries(state) == _max_entries(state)
        for i in range(3):
            for j in range(i):
                assert state.covariances[i][j] == state.covariances[j][i]


@pytest.mark.parametrize("p0", [COV, ((0.04, 0.0, 0.0), (0.0, 0.09, 0.0), (0.0, 0.0, 0.01))])
def test_fused_stages_match_per_matrix_oracle(p0):
    """Bayes step, control law, reset and rescale against the per-matrix oracles.

    Far-off observations drive densities below the log-domain trigger and
    posteriors to exact zeros, whose candidates then saturate at the cap.
    """
    rng = np.random.default_rng(31)
    size = 12
    thetas = [
        (float(rng.uniform(0.75, 1.25)), float(rng.uniform(0.75, 1.25)), float(rng.uniform(-0.1, 0.1)))
        for _ in range(size)
    ]
    lam = 0.9
    state = make_state(size, 0.01, p0)
    posteriors = list(state.posteriors)
    covs = [[list(row) for row in p0] for _ in range(size)]
    seen = Counter()
    for step in range(400):
        regressor = (float(rng.normal()), float(rng.normal()), float(rng.uniform(0.5, 2.0)))
        truth = thetas[(step // 100) * 5 % size]
        observed = sum(t * x for t, x in zip(truth, regressor)) + float(rng.normal(0.0, 0.1))
        if step % 37 == 36:
            observed += 1e3
        residuals, variances = prediction_errors(state, regressor, observed, thetas)
        state = bayes_step(state, regressor, observed, thetas)
        posteriors, o_residuals, o_variances, used_log = oracle.bayes_step(
            state, posteriors, covs, regressor, observed, thetas
        )
        seen["log"] += used_log
        assert state.posteriors == posteriors
        assert residuals == o_residuals
        assert variances == o_variances

        f_hat, g_hat, y_r = float(rng.normal()), float(rng.uniform(0.5, 2.0)), float(rng.normal())
        inputs = candidate_control_terms(thetas, f_hat, g_hat, y_r, state.covariances, lam)
        assert inputs == [
            oracle.control_law(theta, f_hat, g_hat, y_r, cov, lam)
            for theta, cov in zip(thetas, covs)
        ]

        if step == 250:
            state = reset(state)
            posteriors = [1.0 / size] * size
            covs = [[list(row) for row in p0] for _ in range(size)]
            seen["reset"] += 1
        state = update_covariance(state)
        rescaled = [
            oracle.update_covariance(cov, pi, state.eta) for cov, pi in zip(covs, posteriors)
        ]
        covs = [cov for cov, _ in rescaled]
        seen["cap"] += sum(capped for _, capped in rescaled)
        seen["floor"] += sum(pi < POSTERIOR_FLOOR for pi in posteriors)
        assert _matrices(state) == covs
        assert _peak_position_entries(state) == [
            max(abs(v) for row in cov for v in row) for cov in covs
        ]
    assert seen["log"] > 0 and seen["reset"] == 1
    assert seen["cap"] > 0 and seen["floor"] > 0, seen


def test_change_detector_truth_table():
    policy = ResetPolicy(admissible_error=0.08, posterior_threshold=0.95)
    assert detect_change(0.09, 0.96, policy)
    assert detect_change(-0.09, 0.96, policy)
    assert not detect_change(0.09, 0.94, policy)  # not locked
    assert not detect_change(0.07, 0.96, policy)  # still admissible
    assert not detect_change(0.08, 0.96, policy)  # boundary is exclusive
    assert not detect_change(0.09, 0.95, policy)


def test_reset_policy_validation():
    with pytest.raises(ValueError):
        ResetPolicy(admissible_error=0.0)
    with pytest.raises(ValueError):
        ResetPolicy(admissible_error=0.1, posterior_threshold=1.0)


def test_reset_restores_uniform_and_initial_covariance():
    state = make_state(6, 0.01, EYE)
    state = update_posteriors(state, [10.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    state = update_covariance(state)
    assert state.covariances[0][0][0] < 1.0 < state.covariances[0][0][1]
    fresh = reset(state)
    assert fresh.posteriors == [1.0 / 6] * 6
    assert fresh.covariances == _layout(EYE, 6)
    assert _max_entries(fresh) == [1.0] * 6


def test_bayes_step_reports_residuals_and_variances():
    thetas = [(1.0, 1.0, 0.0), (0.8, 1.2, 0.1)]
    state = make_state(2, 0.04, EYE)
    phi = (0.5, -1.0, 1.0)
    observed = 0.3
    residuals, variances = prediction_errors(state, phi, observed, thetas)
    new = bayes_step(state, phi, observed, thetas)
    for t, theta in enumerate(thetas):
        pred = theta[0] * phi[0] + theta[1] * phi[1] + theta[2] * phi[2]
        assert residuals[t] == pytest.approx(observed - pred, abs=1e-15)
        assert variances[t] == pytest.approx(
            oracle.prediction_variance(phi, EYE, 0.04), abs=1e-15
        )
    # The closer candidate gains mass.
    better = min(range(2), key=lambda t: abs(residuals[t]))
    assert new.posteriors[better] > 0.5
    assert math.fsum(new.posteriors) == pytest.approx(1.0, abs=1e-12)


def test_bayes_step_switches_to_log_domain_on_underflow():
    thetas = [(1.0, 1.0, 0.0), (1.0, 1.0, 50.0)]
    state = make_state(2, 1e-6, [[1e-9, 0, 0], [0, 1e-9, 0], [0, 0, 1e-9]])
    phi = (1.0, 0.0, 1.0)
    # Both candidates are hundreds of sigma away: every density underflows,
    # yet the step must return a normalized posterior favoring the closer one.
    new = bayes_step(state, phi, 2000.0, thetas)
    assert math.fsum(new.posteriors) == pytest.approx(1.0, abs=1e-12)
    assert new.posteriors[1] > 0.999


def test_bayes_step_checks_candidate_count():
    state = make_state(3, 0.01, EYE)
    with pytest.raises(ValueError):
        bayes_step(state, (1.0, 1.0, 1.0), 0.0, [(1.0, 1.0, 0.0)])


def test_successor_states_leave_their_input_untouched():
    # Each stage returns a new state; a caller that keeps the old one (a
    # trace, a retry) must see it as it was.
    thetas = [(1.0, 1.0, 0.0), (0.8, 1.2, 0.1), (1.0, 1.0, 50.0)]
    state = update_covariance(update_posteriors(make_state(3, 0.04, COV), [4.0, 1.0, 0.5]))
    steps = [
        lambda s: bayes_step(s, (0.5, -1.0, 1.0), 0.3, thetas),
        lambda s: bayes_step(s, (1.0, 0.0, 1.0), 2000.0, thetas),  # log domain
        update_covariance,
        reset,
    ]
    for step in steps:
        before = copy.deepcopy(state)
        after = step(state)
        assert state == before
        assert after is not state and after != state


# ---------------------------------------------------------------------------
# Structure-aware kernels: a P0 with zero cross entries runs the diagonal loops
# of bayes_step and candidate_control_terms, and a candidate at the cap with
# pi <= eta skips the factor formula.  Both must match the per-matrix oracles
# bit for bit, signed zeros included, so values are compared by repr.

_SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 12),
    cross=st.lists(_SIGNED_ZEROS, min_size=6, max_size=6),
    diagonal=st.lists(
        st.sampled_from([0.0, -0.0, -1e-12, 1e-300, 0.04, 1.0, 1e11]), min_size=3, max_size=3
    ),
    noise=st.sampled_from([0.0, -0.0, 1e-4, 0.01]),
    regressors=st.lists(
        st.tuples(
            st.sampled_from([0.0, -0.0, 0.5, -1.5, math.inf, -math.inf, math.nan]),
            st.sampled_from([0.0, -0.0, 0.75, -2.0, math.inf, math.nan]),
            st.sampled_from([1.0, 0.0, -0.0, math.nan]),
        ),
        min_size=1,
        max_size=8,
    ),
    f_hat=st.sampled_from([0.0, -0.0, 0.3, -1.1]),
    g_hat=st.sampled_from([0.6, -1.3, 2.0]),
)
@settings(max_examples=300, deadline=None)
def test_diagonal_loops_match_per_matrix_oracles(
    seed, size, cross, diagonal, noise, regressors, f_hat, g_hat
):
    rng = np.random.default_rng(seed)
    p0 = (
        (diagonal[0], cross[0], cross[1]),
        (cross[2], diagonal[1], cross[3]),
        (cross[4], cross[5], diagonal[2]),
    )
    thetas = [
        tuple(float(v) for v in rng.uniform((0.75, 0.75, -0.1), (1.25, 1.25, 0.1)))
        for _ in range(size)
    ]
    state = make_state(size, noise, p0)
    # Exact zeros and subnormal posteriors sit below the floor.
    pi = rng.uniform(size=size) * (rng.uniform(size=size) > 0.3)
    pi[rng.uniform(size=size) < 0.2] = 1e-310
    state.posteriors = list(pi / pi.sum()) if pi.sum() > 0 else list(state.posteriors)
    posteriors = list(state.posteriors)
    covs = [[list(row) for row in p0] for _ in range(size)]
    for step, regressor in enumerate(regressors):
        observed = float(rng.normal()) + (1e3 if step % 3 == 2 else 0.0)  # log domain
        expected_error = oracle.bayes_error(regressor, covs, state.noise_variance)
        if expected_error is not None:
            with pytest.raises(StateError) as info:
                bayes_step(state, regressor, observed, thetas)
            assert str(info.value).startswith(expected_error)
            return
        residuals, variances = prediction_errors(state, regressor, observed, thetas)
        state = bayes_step(state, regressor, observed, thetas)
        posteriors, o_residuals, o_variances, _ = oracle.bayes_step(
            state, posteriors, covs, regressor, observed, thetas
        )
        assert list(map(repr, state.posteriors)) == list(map(repr, posteriors))
        assert list(map(repr, residuals)) == list(map(repr, o_residuals))
        assert list(map(repr, variances)) == list(map(repr, o_variances))

        # One candidate's numerator is an exact zero, whose sign the caution
        # term sets.
        y_r = thetas[0][0] * f_hat + thetas[0][2] if step % 2 else float(rng.normal())
        inputs = candidate_control_terms(thetas, f_hat, g_hat, y_r, state.covariances, 0.9)
        assert list(map(repr, inputs)) == [
            repr(oracle.control_law(theta, f_hat, g_hat, y_r, cov, 0.9))
            for theta, cov in zip(thetas, covs)
        ]

        state = update_covariance(state)
        covs = [oracle.update_covariance(cov, p, state.eta)[0] for cov, p in zip(covs, posteriors)]
        assert [list(map(repr, e)) for row in state.covariances for e in row] == [
            [repr(cov[i][j]) for cov in covs] for i in range(3) for j in range(3)
        ]


@given(
    size=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    eta_below_floor=st.booleans(),
    cross=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_saturated_rescale_matches_the_factor_formula(size, seed, eta_below_floor, cross):
    rng = np.random.default_rng(seed)
    # With cross, P0 has a nonzero (0, 1) entry and runs the general path;
    # its (0, 2) and (1, 2) entries stay zero.
    c = 0.5 if cross else 0.0
    p0 = ((COVARIANCE_CAP, c, 0.0), (c, 0.25, 0.0), (0.0, 0.0, 3.0))
    state = make_state(size, 0.01, p0)
    if eta_below_floor:
        state = replace(state, eta=1e-305)
    eta = state.eta
    # At the cap: pi == eta, pi at or below the floor, and pi either side of eta.
    choices = [eta, 0.0, POSTERIOR_FLOOR, 1e-310, eta * 0.5, eta * 1.5, float(rng.uniform())]
    state.posteriors = [choices[int(i)] for i in rng.integers(len(choices), size=size)]
    # Most candidates sit at the cap; the others hold 1.0 at (0, 0).
    for t in range(size):
        if not rng.uniform() < 0.8:
            state.covariances[0][0][t] = 1.0
    covs = _matrices(state)
    before = copy.deepcopy(state)
    out = update_covariance(state)
    expected = [
        oracle.update_covariance(cov, pi, eta)[0] for cov, pi in zip(covs, state.posteriors)
    ]
    assert [[list(map(repr, row)) for row in cov] for cov in _matrices(out)] == [
        [list(map(repr, row)) for row in cov] for cov in expected
    ]
    assert _max_entries(out) == [max(abs(v) for row in cov for v in row) for cov in expected]
    # The rescale works on copies: the input keeps its contents, and the
    # lists that are zero in P0 come back as the same objects.
    assert state == before
    for i in range(3):
        for j in range(3):
            shared = out.covariances[i][j] is state.covariances[i][j]
            assert shared == (p0[i][j] == 0.0), (i, j)


def test_negative_largest_entry_caps_as_the_per_matrix_rescale():
    # make_state's 1e-9 PSD tolerance admits a tiny negative variance. Here it is
    # P0's largest |entry|, so P0 does not count as diagonal, and the general
    # rescale reads each peak with abs: the dying candidates reach the cap at
    # the 8th rescale, bit for bit as the per-matrix rescale does.
    p0 = ((-1e-10, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 5e-11))
    state = make_state(4, 0.01, p0)
    assert not state.diagonal
    state.posteriors = [1.0, 0.0, 1e-310, POSTERIOR_FLOOR]
    covs = _matrices(state)
    first_capped = [None] * 4
    for step in range(1, 13):
        state = update_covariance(state)
        rescaled = [
            oracle.update_covariance(cov, pi, state.eta) for cov, pi in zip(covs, state.posteriors)
        ]
        covs = [cov for cov, _ in rescaled]
        assert [[list(map(repr, row)) for row in cov] for cov in _matrices(state)] == [
            [list(map(repr, row)) for row in cov] for cov in covs
        ], step
        for t, (_, capped) in enumerate(rescaled):
            if capped and first_capped[t] is None:
                first_capped[t] = step
    assert first_capped == [None, 8, 8, 8]
    assert _peak_position_entries(state) == _max_entries(state)


# ---------------------------------------------------------------------------
# The products-only Bayes pass and prediction_errors: bayes_step keeps only
# the floored prior times density of each candidate, prediction_errors gives
# the residuals and variances the log domain and the callers read.  Both must
# raise the per-matrix form's StateError for the same candidate.


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 10),
    cross=st.lists(st.sampled_from([0.0, -0.0, 0.0, 0.01, -0.3]), min_size=3, max_size=3),
    diagonal=st.lists(
        st.sampled_from([0.0, -0.0, -1e-12, 1e-300, 0.04, 1.0]), min_size=3, max_size=3
    ),
    scales=st.lists(st.sampled_from([1.0, 0.5, 3.0, 1e-300, 1e11]), min_size=10, max_size=10),
    noise=st.sampled_from([0.0, -0.0, 1e-4, 0.01]),
    # Regressors whose squares stay finite: an infinite square can make a NaN
    # density, which test_bayes_step_rejects_a_nan_density covers; the
    # diagonal property above covers infinite regressors with a diagonal P0.
    regressor=st.tuples(
        st.sampled_from([0.0, -0.0, 0.5, -1.5, 1e100]),
        st.sampled_from([0.0, -0.0, 0.75, -2.0]),
        st.sampled_from([1.0, 0.0, -0.0]),
    ),
    far=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_products_pass_and_prediction_errors_match_oracles(
    seed, size, cross, diagonal, scales, noise, regressor, far
):
    rng = np.random.default_rng(seed)
    p0 = (
        (diagonal[0], cross[0], cross[1]),
        (cross[0], diagonal[1], cross[2]),
        (cross[1], cross[2], diagonal[2]),
    )
    pi = rng.uniform(size=size) * (rng.uniform(size=size) > 0.3)
    pi[rng.uniform(size=size) < 0.2] = 1e-310
    posteriors = (pi / pi.sum()).tolist() if pi.sum() > 0 else [1.0 / size] * size
    state, covs = oracle.scaled_state(p0, scales[:size], posteriors, noise)
    thetas = [
        tuple(float(v) for v in rng.uniform((0.75, 0.75, -0.1), (1.25, 1.25, 0.1)))
        for _ in range(size)
    ]
    observed = float(rng.normal()) + (1e3 if far else 0.0)  # far: the log domain
    expected_error = oracle.bayes_error(regressor, covs, noise)
    if expected_error is not None:
        for stage in (bayes_step, prediction_errors):
            with pytest.raises(StateError) as info:
                stage(state, regressor, observed, thetas)
            assert str(info.value).startswith(expected_error)
        return
    residuals, variances = prediction_errors(state, regressor, observed, thetas)
    o_posteriors, o_residuals, o_variances, used_log = oracle.bayes_step(
        state, posteriors, covs, regressor, observed, thetas
    )
    assert list(map(repr, residuals)) == list(map(repr, o_residuals))
    assert list(map(repr, variances)) == list(map(repr, o_variances))
    if used_log and not all(map(math.isfinite, o_posteriors)):
        # Every log-density is -inf (a huge residual over a tiny variance):
        # bayes_step raises where the oracle's arithmetic gives NaN.
        with pytest.raises(StateError, match="log-posteriors are not finite"):
            bayes_step(state, regressor, observed, thetas)
        return
    new = bayes_step(state, regressor, observed, thetas)
    assert list(map(repr, new.posteriors)) == list(map(repr, o_posteriors))
    assert new.diagonal == state.diagonal


# Both Bayes branches turn a NaN normalizing total into a StateError that names
# the candidate.
@pytest.mark.parametrize("p0", [EYE, COV], ids=["diagonal", "cross"])
@pytest.mark.parametrize(
    "thetas, scales, regressor, observed, candidate",
    [
        # r * r and the variance are both inf: the linear domain.
        ([(1.0, 1.0, 0.0), (0.8, 1.2, 0.1)], [1.0, 1.0], (1e200, 1e200, 1.0), 0.3, 0),
        ([(1.0, 1.0, 0.0), (0.8, 1.2, 0.1)], [1.0, 1.0], (0.5, -1.0, 1.0), math.nan, 0),
        # Candidate 2's density underflows, so the log domain runs, and max()
        # passes over candidate 1's NaN log-posterior.
        (
            [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1e3)],
            [0.0, 1.0, 0.0],
            (1e200, 1e200, 1.0),
            0.3,
            1,
        ),
        # The log domain again, with the NaN log-posterior first: max() is NaN.
        (
            [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1e3)],
            [1.0, 0.0, 0.0],
            (1e200, 1e200, 1.0),
            0.3,
            0,
        ),
    ],
    ids=["inf-over-inf", "nan-output", "log-domain", "log-domain-nan-max"],
)
def test_bayes_step_rejects_a_nan_density(p0, thetas, scales, regressor, observed, candidate):
    state, _ = oracle.scaled_state(p0, scales, [1.0 / len(scales)] * len(scales), 0.01)
    before = copy.deepcopy(state)
    with pytest.raises(StateError, match=f"density of candidate {candidate} is not a number"):
        bayes_step(state, regressor, observed, thetas)
    assert state == before


@pytest.mark.parametrize("p0", [EYE, COV], ids=["diagonal", "cross"])
def test_a_nan_density_behind_an_infinite_log_posterior_max(p0):
    # One candidate's log-posterior is -inf (r * r overflows over the noise),
    # the other's is NaN (an infinite r * r over an infinite variance).  max()
    # keeps a -inf that comes first, so the order decides which error is raised.
    regressor, observed = (1e200, 1e200, 1.0), 1e200
    cases = [
        ([0.0, 1.0], [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0)], r"log-posteriors are not finite \(max"),
        ([1.0, 0.0], [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0)], "density of candidate 0 is not a number"),
    ]
    for scales, thetas, message in cases:
        state, _ = oracle.scaled_state(p0, scales, [0.5, 0.5], 0.01)
        with pytest.raises(StateError, match=f"^{message}"):
            bayes_step(state, regressor, observed, thetas)


def test_make_state_sets_the_diagonal_flag_and_successors_carry_it():
    assert make_state(3, 0.01, EYE).diagonal
    assert make_state(3, 0.01, ((1.0, -0.0, 0.0), (-0.0, 1.0, 0.0), (0.0, 0.0, 1.0))).diagonal
    assert not make_state(3, 0.01, COV).diagonal
    # A negative variance inside the 1e-9 PSD tolerance is not diagonal; -0.0 is.
    tiny_negative = ((-1e-10, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 5e-11))
    assert not make_state(3, 0.01, tiny_negative).diagonal
    assert make_state(3, 0.01, ((-0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -0.0))).diagonal
    # Every successor carries the flag over.
    state = make_state(3, 0.04, COV)
    state = bayes_step(state, (0.5, -1.0, 1.0), 0.3, [(1.0, 1.0, 0.0)] * 3)
    for successor in (update_covariance(state), reset(state)):
        assert successor.diagonal is False


def test_make_state_checks_p0_as_one_matrix():
    state = make_state(60, 0.01, COV)
    assert state.covariances == _layout(COV, 60) and _max_entries(state) == [3.5] * 60
    indefinite = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0))
    with pytest.raises(StateError, match="^covariance 0 is not positive semidefinite$"):
        make_state(60, 0.01, indefinite)
    asymmetric = ((1.0, 0.5, 0.0), (0.4, 1.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(StateError, match="^covariance 0 is not symmetric$"):
        make_state(60, 0.01, asymmetric)


def test_tiny_negative_quadratic_form_is_rejected_despite_the_noise():
    # Candidate 1's quadratic form is -2e-300: the noise makes its variance
    # positive, yet the covariance is indefinite along the regressor.
    p0 = ((1.0, -2.0, 0.0), (-2.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    state, _ = oracle.scaled_state(p0, [0.0, 1e-300, 1.0], [0.5, 0.25, 0.25], 0.01)
    regressor, thetas = (1.0, 1.0, 0.0), [(1.0, 1.0, 0.0)] * 3
    for stage in (bayes_step, prediction_errors):
        with pytest.raises(StateError, match=r"^covariance 1 is indefinite .* = -2e-300\)$"):
            stage(state, regressor, 0.5, thetas)
