"""Candidate dual law, posterior-weighted blending and the exact inversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualctl import (
    ControllerConfig,
    RbfNetwork,
    SimulationError,
    SingularControlError,
    blended_control,
    branch,
    candidate_control_terms,
    eval_network,
    optimal_control,
)
from dualctl import make_state
from dualctl.controller import ControlDecision

import oracle

ZERO_COV = ((0.0,) * 3,) * 3


def _blend(posteriors, inputs, input_clamp=None):
    """``blended_control`` of candidates whose laws give exactly ``inputs``.

    With zero covariance, ``f_hat = 0``, ``g_hat = 1`` and ``y_r = 0`` the law
    of candidate ``(0, 1, -x)`` is ``(0 - 0 - (-x)) * 1 / 1 == x``.
    """
    state = make_state(len(posteriors), 0.01, ZERO_COV)
    state.posteriors = list(posteriors)
    thetas = [(0.0, 1.0, -x) for x in inputs]
    return blended_control(thetas, 0.0, 1.0, 0.0, state, 0.9, input_clamp)


def _layout(*covs):
    """Entry-major covariances of one candidate per matrix: [i][j][t]."""
    return [[[cov[i][j] for cov in covs] for j in range(3)] for i in range(3)]


def test_certainty_equivalence_at_zero_covariance():
    theta = (0.9, 1.1, 0.2)
    f, g, y_r = 1.3, 2.1, 0.7
    (u,) = candidate_control_terms([theta], f, g, y_r, _layout(ZERO_COV), 0.9)
    expected = (y_r - theta[0] * f - theta[2]) / (theta[1] * g)
    assert u == pytest.approx(expected, rel=1e-14)


def test_dual_law_hand_computed_value():
    theta = (0.9, 1.1, 0.2)
    f, g, y_r, lam = 1.3, 2.1, 0.7, 0.9
    cov = (
        (0.04, 0.01, -0.02),
        (0.01, 0.09, 0.005),
        (-0.02, 0.005, 0.16),
    )
    t2g = theta[1] * g
    num = (y_r - theta[0] * f - theta[2]) * t2g - (1 - lam) * (f * cov[0][1] + cov[2][1]) * g
    den = (1 - lam) * g * cov[1][1] + t2g * t2g
    assert candidate_control_terms([theta], f, g, y_r, _layout(cov), lam) == [num / den]


def test_uncertainty_makes_control_cautious():
    # A beta-channel variance penalizes the input magnitude (bigger
    # denominator), the hallmark of the dual term.
    theta = (1.0, 1.0, 0.0)
    f, g, y_r = 0.5, 2.0, 1.5
    wary_cov = ((0.0, 0.0, 0.0), (0.0, 5.0, 0.0), (0.0, 0.0, 0.0))
    confident, wary = candidate_control_terms(
        [theta, theta], f, g, y_r, _layout(ZERO_COV, wary_cov), 0.9
    )
    assert abs(wary) < abs(confident)
    assert math.copysign(1, wary) == math.copysign(1, confident)


def test_singular_denominator_raises_with_candidate_index():
    thetas = [(1.0, 1.0, 0.0)] * 4 + [(1.0, 0.0, 0.0)]  # the last has zero input gain
    with pytest.raises(SingularControlError) as err:
        candidate_control_terms(thetas, 1.0, 1.0, 0.5, _layout(*[ZERO_COV] * 5), 0.9)
    assert err.value.candidate_index == 4


def test_candidate_control_evaluates_network_at_state():
    net = RbfNetwork(
        f_branch=branch((0.0,), (1.0,), (1.0,)),
        g_branch=branch((0.0,), (1.0,), (2.0,)),
    )
    cfg = ControllerConfig(dual_lambda=0.9)
    theta = (1.0, 1.0, 0.0)
    f, g = eval_network(net, 0.0)
    (u,) = candidate_control_terms([theta], f, g, 0.8, _layout(ZERO_COV), cfg.dual_lambda)
    # At the center the branches read exactly (1, 2).
    assert u == pytest.approx((0.8 - 1.0) / 2.0, rel=1e-14)


def test_blend_matches_weighted_sum_oracle():
    rng = np.random.default_rng(5)
    for _ in range(500):
        size = int(rng.integers(1, 40))
        pi = rng.uniform(0.01, 1.0, size=size)
        pi /= pi.sum()
        inputs = rng.uniform(-50.0, 50.0, size=size)
        decision = _blend(list(pi), list(inputs))
        assert decision.u == pytest.approx(float(pi @ inputs), abs=1e-12)
        assert decision.u_applied == decision.u
        assert not decision.clipped


def test_blend_of_identical_inputs_is_that_input():
    decision = _blend([0.25, 0.5, 0.25], [3.7, 3.7, 3.7])
    assert decision.u == pytest.approx(3.7, rel=1e-15)


@given(
    seed=st.integers(0, 10_000),
    size=st.integers(1, 30),
)
@settings(max_examples=150)
def test_blend_stays_inside_candidate_hull(seed, size):
    rng = np.random.default_rng(seed)
    pi = rng.uniform(0.0, 1.0, size=size) + 1e-9
    pi /= pi.sum()
    inputs = rng.uniform(-10.0, 10.0, size=size)
    decision = _blend(list(pi), list(inputs))
    assert min(inputs) - 1e-12 <= decision.u <= max(inputs) + 1e-12


def test_blend_clamps_and_reports():
    decision = _blend([1.0], [12.0], input_clamp=5.0)
    assert decision.u == 12.0
    assert decision.u_applied == 5.0
    assert decision.clipped
    neg = _blend([1.0], [-12.0], input_clamp=5.0)
    assert neg.u_applied == -5.0


def test_blend_decision_is_immutable_and_compares_by_fields():
    decision = _blend([0.25, 0.75], [2.0, 6.0], input_clamp=4.0)
    assert decision == ControlDecision(u=5.0, u_applied=4.0, clipped=True)
    assert decision != ControlDecision(u=5.0, u_applied=5.0, clipped=False)
    for field in ("u", "u_applied", "clipped"):
        with pytest.raises(AttributeError):
            setattr(decision, field, 0.0)
    assert (decision.u, decision.u_applied, decision.clipped) == (5.0, 4.0, True)


def test_blend_validates_lengths_and_finiteness():
    with pytest.raises(ValueError):
        _blend([0.5, 0.5], [1.0])
    with pytest.raises(SimulationError):
        _blend([1.0], [math.inf])


def test_optimal_control_inverts_known_dynamics():
    theta = (1.1, 0.9, -0.05)
    f, g = 0.4, 2.5
    y_r = 0.75
    u = optimal_control(theta, f, g, y_r)
    assert theta[0] * f + theta[1] * g * u + theta[2] == pytest.approx(y_r, abs=1e-12)


def test_optimal_control_rejects_zero_gain():
    with pytest.raises(SingularControlError):
        optimal_control((1.0, 0.0, 0.0), 1.0, 1.0, 0.5)


def test_controller_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(dual_lambda=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(dual_lambda=1.0)
    with pytest.raises(ValueError):
        ControllerConfig(dual_lambda=0.9, input_clamp=0.0)


# ---------------------------------------------------------------------------
# The weighted control pass: with a diagonal P0 blended_control evaluates each
# law without its (signed-zero) caution term and keeps only pi_t * u_t; zero
# inputs, singular denominators, non-finite network outputs and cross entries
# fall back to candidate_control_terms.  Every path must give the per-matrix
# law's blend bit for bit, errors included.


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 10),
    cross=st.lists(st.sampled_from([0.0, -0.0, 0.0, 0.01, -0.3]), min_size=3, max_size=3),
    diagonal=st.lists(st.sampled_from([0.0, -0.0, 1e-300, 0.04, 1.0, 1e11]), min_size=3, max_size=3),
    f_hat=st.sampled_from([0.0, -0.0, 0.3, -1.1, math.inf, math.nan]),
    g_hat=st.sampled_from([0.6, -1.3, 2.0, 0.0, -math.inf]),
    dual_lambda=st.sampled_from([0.5, 0.9]),
    input_clamp=st.sampled_from([None, 0.05, 5.0]),
    zero_numerator=st.booleans(),
    zero_gain=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_blended_control_matches_weighted_per_matrix_law(
    seed, size, cross, diagonal, f_hat, g_hat, dual_lambda, input_clamp, zero_numerator, zero_gain
):
    rng = np.random.default_rng(seed)
    p0 = (
        (diagonal[0], cross[0], cross[1]),
        (cross[0], diagonal[1], cross[2]),
        (cross[1], cross[2], diagonal[2]),
    )
    scales = rng.choice([1.0, 0.5, 1e-300, 4.0], size).tolist()
    pi = rng.uniform(size=size) * (rng.uniform(size=size) > 0.3)
    pi[rng.uniform(size=size) < 0.2] = 1e-310
    posteriors = (pi / pi.sum()).tolist() if pi.sum() > 0 else [1.0 / size] * size
    state, covs = oracle.scaled_state(p0, scales, posteriors, 0.01)
    assert state.diagonal == (cross == [0.0, 0.0, 0.0])
    thetas = [
        tuple(float(v) for v in rng.uniform((0.75, 0.75, -0.1), (1.25, 1.25, 0.1)))
        for _ in range(size)
    ]
    pick = int(rng.integers(size))
    if zero_gain:
        thetas[pick] = (thetas[pick][0], 0.0, thetas[pick][2])
    # An exact-zero numerator, whose sign the caution term sets.
    y_r = thetas[pick][0] * f_hat + thetas[pick][2] if zero_numerator else float(rng.normal())

    laws = [
        oracle.control_law(theta, f_hat, g_hat, y_r, cov, dual_lambda)
        for theta, cov in zip(thetas, covs)
    ]
    call = lambda: blended_control(thetas, f_hat, g_hat, y_r, state, dual_lambda, input_clamp)
    if None in laws:
        with pytest.raises(SingularControlError) as info:
            call()
        assert info.value.candidate_index == laws.index(None)
        return
    try:
        u = math.fsum(p * law for p, law in zip(state.posteriors, laws))
    except (ValueError, OverflowError):  # inf - inf, or a partial sum beyond the float range
        u = math.nan
    if not math.isfinite(u):
        with pytest.raises(SimulationError):
            call()
        return
    clipped = input_clamp is not None and abs(u) > input_clamp
    decision = call()
    assert repr(tuple(decision)) == repr(
        (u, math.copysign(input_clamp, u) if clipped else u, clipped)
    )
    inputs = candidate_control_terms(thetas, f_hat, g_hat, y_r, state.covariances, dual_lambda)
    assert list(map(repr, inputs)) == list(map(repr, laws))


@pytest.mark.parametrize("g_hat", [0.6, -1.3])
@pytest.mark.parametrize("f_hat", [0.0, -0.0])
def test_zero_input_takes_the_sign_of_the_full_law(f_hat, g_hat):
    # The numerator is an exact zero, so the (signed-zero) caution term sets
    # the input's sign: blended_control must run the full law for it.
    theta = (0.9, 1.1, 0.2)
    p0 = ((0.04, 0.0, 0.0), (0.0, 0.09, 0.0), (0.0, 0.0, 0.01))
    state = make_state(2, 0.01, p0)
    state.posteriors = [1.0, 0.0]
    law = oracle.control_law(theta, f_hat, g_hat, 0.2, p0, 0.9)
    assert law == 0.0
    decision = blended_control([theta, (1.0, 1.0, 0.0)], f_hat, g_hat, 0.2, state, 0.9)
    assert repr(decision.u) == repr(math.fsum([1.0 * law, 0.0 * oracle.control_law(
        (1.0, 1.0, 0.0), f_hat, g_hat, 0.2, p0, 0.9
    )]))
