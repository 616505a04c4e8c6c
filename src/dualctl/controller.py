"""Posterior-weighted dual control law.

For every disturbance candidate ``theta_t`` with covariance ``P_t`` the
one-step dual law balances tracking against caution about the remaining
estimation uncertainty:

    u_t = ((y_r - theta1*F - theta3) * theta2 * G
           - (1 - lambda) * (F * P_ab + P_gb) * G)
          / ((1 - lambda) * G * P_b + (theta2 * G)^2)

with ``F = fhat(x)``, ``G = ghat(x)``, ``P_b = P[1][1]``, ``P_ab = P[0][1]``,
``P_gb = P[2][1]`` (channel order alpha, beta, gamma). ``lambda`` close to 1
weighs tracking heavily; at ``P = 0`` the law collapses to the certainty-
equivalence inversion. The applied input is the posterior-weighted mean of the
candidate laws, clamped when a clamp is configured; :func:`blended_control`
forms it in one call per iteration and returns it as a float.
"""

from __future__ import annotations

import math
import operator

from .errors import SimulationError, SingularControlError

_SINGULAR_TOL = 1e-12


def candidate_control_terms(
    thetas,
    f_hat: float,
    g_hat: float,
    y_r_next: float,
    covariances,
    dual_lambda: float,
) -> list[float]:
    """Dual law of every candidate given already-evaluated network outputs.

    The general law, caution term included, for any covariance; it is what
    :func:`blended_control` runs when its one-pass shortcut does not apply.
    ``covariances`` is the learner's entry-major layout: ``covariances[i][j][t]``
    is entry ``(i, j)`` of candidate ``t``'s covariance. Raises
    :class:`SingularControlError` carrying the index of the first candidate
    whose denominator vanishes.
    """
    one_minus = 1.0 - dual_lambda
    # ``one_minus * g_hat * p_b`` evaluates as ``(one_minus * g_hat) * p_b``,
    # so hoisting the first product leaves every rounding unchanged.
    caution_g = one_minus * g_hat
    inputs = []
    for t, ((t0, t1, t2), p, p_a, p_g) in enumerate(
        zip(thetas, covariances[1][1], covariances[0][1], covariances[2][1])
    ):
        t2g = t1 * g_hat
        den = caution_g * p + t2g * t2g
        if abs(den) < _SINGULAR_TOL:
            raise SingularControlError(
                f"control denominator {den} is singular for candidate {t}", candidate_index=t
            )
        num = (y_r_next - t0 * f_hat - t2) * t2g - one_minus * (f_hat * p_a + p_g) * g_hat
        inputs.append(num / den)
    return inputs


def blended_control(
    thetas,
    f_hat: float,
    g_hat: float,
    y_r_next: float,
    state,
    dual_lambda: float,
    input_clamp: float | None = None,
) -> float:
    """The applied input: the posterior-weighted mean of the candidate laws,
    clamped to ``input_clamp`` in magnitude when one is given.

    ``state`` is the learner state: its ``posteriors`` weigh the laws, its
    ``covariances`` enter them, and its ``diagonal`` flag says that every
    cross entry is zero.  Then each candidate's caution term
    ``(1 - lambda) * (f_hat * P_ab + P_gb) * g_hat`` is a signed zero, which
    leaves a nonzero numerator unchanged, so one pass evaluates each law
    without it and keeps only ``pi_t * u_t``.  A zero input (whose sign that
    term would set), a singular denominator or a P0 with cross entries run
    :func:`candidate_control_terms` instead.  A non-finite network output
    gives a non-finite blend on both paths, the same :class:`SimulationError`.
    """
    posteriors = state.posteriors
    if len(posteriors) != len(thetas):
        raise ValueError(f"got {len(thetas)} candidates for {len(posteriors)} posteriors")
    caution_g = (1.0 - dual_lambda) * g_hat
    if state.diagonal:
        terms = []
        add_term = terms.append
        for (t0, t1, t2), p, pi in zip(thetas, state.covariances[1][1], posteriors):
            t2g = t1 * g_hat
            den = caution_g * p + t2g * t2g
            if abs(den) < _SINGULAR_TOL:
                break
            u = (y_r_next - t0 * f_hat - t2) * t2g / den
            if u == 0.0:
                break
            add_term(pi * u)
        else:
            return _applied(terms, input_clamp)
    inputs = candidate_control_terms(
        thetas, f_hat, g_hat, y_r_next, state.covariances, dual_lambda
    )
    return _applied(map(operator.mul, posteriors, inputs), input_clamp)


def _applied(products, input_clamp: float | None) -> float:
    """The fsum of ``products``, clamped to ``input_clamp`` in magnitude."""
    try:
        u = math.fsum(products)
    except (ValueError, OverflowError):  # inf - inf, or a partial sum beyond the float range
        u = math.nan
    if not math.isfinite(u):
        raise SimulationError("blended input is not finite")
    if input_clamp is not None and abs(u) > input_clamp:
        return math.copysign(input_clamp, u)
    return u


def optimal_control(true_theta, f_value: float, g_value: float, y_r_next: float) -> float:
    """Exact inversion with the plant nonlinearities and disturbances known."""
    gain = true_theta[1] * g_value
    if abs(gain) < _SINGULAR_TOL:
        raise SingularControlError(f"true input gain {gain} is singular")
    return (y_r_next - true_theta[0] * f_value - true_theta[2]) / gain
