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
candidate laws, formed by :func:`blended_control` in one call per iteration.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import SimulationError, SingularControlError

_SINGULAR_TOL = 1e-12


@dataclass(frozen=True)
class ControllerConfig:
    dual_lambda: float
    input_clamp: float | None = None  # symmetric |u| bound, None = unbounded

    def __post_init__(self):
        if not (0.0 < self.dual_lambda < 1.0):
            raise ValueError(f"dual_lambda must lie in (0, 1), got {self.dual_lambda}")
        if self.input_clamp is not None and not (self.input_clamp > 0):
            raise ValueError("input_clamp must be > 0 when set")


class ControlDecision(NamedTuple):
    """Blended input before and after the optional clamp.

    A named tuple: as immutable as a frozen dataclass, and built once per
    iteration at a fraction of its cost.
    """

    u: float  # posterior-weighted mean of the candidate inputs
    u_applied: float  # after clamping (equals u when no clamp is active)
    clipped: bool


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
) -> ControlDecision:
    """Posterior-weighted mean of the candidate laws, optionally clamped.

    ``state`` is the learner state: its ``posteriors`` weigh the laws, its
    ``covariances`` enter them, and its ``diagonal`` flag says that every
    cross entry is zero.  Then each candidate's caution term
    ``(1 - lambda) * (f_hat * P_ab + P_gb) * g_hat`` is a signed zero, which
    leaves a nonzero numerator unchanged, so one pass evaluates each law
    without it and keeps only ``pi_t * u_t``.  A zero input (whose sign that
    term would set), a singular denominator, non-finite network outputs or a
    P0 with cross entries run :func:`candidate_control_terms` instead.
    """
    posteriors = state.posteriors
    if len(posteriors) != len(thetas):
        raise ValueError(f"got {len(thetas)} candidates for {len(posteriors)} posteriors")
    caution_g = (1.0 - dual_lambda) * g_hat
    if state.diagonal and math.isfinite(f_hat) and math.isfinite(caution_g):
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
            return _decision(terms, input_clamp)
    inputs = candidate_control_terms(
        thetas, f_hat, g_hat, y_r_next, state.covariances, dual_lambda
    )
    return _decision(map(operator.mul, posteriors, inputs), input_clamp)


def _decision(products, input_clamp: float | None) -> ControlDecision:
    try:
        u = math.fsum(products)
    except (ValueError, OverflowError):  # inf - inf, or a partial sum beyond the float range
        u = math.nan
    if not math.isfinite(u):
        raise SimulationError("blended input is not finite")
    if input_clamp is not None and abs(u) > input_clamp:
        return ControlDecision(u, math.copysign(input_clamp, u), True)
    return ControlDecision(u, u, False)


def optimal_control(true_theta, f_value: float, g_value: float, y_r_next: float) -> float:
    """Exact inversion with the plant nonlinearities and disturbances known."""
    gain = true_theta[1] * g_value
    if abs(gain) < _SINGULAR_TOL:
        raise SingularControlError(f"true input gain {gain} is singular")
    return (y_r_next - true_theta[0] * f_value - true_theta[2]) / gain
