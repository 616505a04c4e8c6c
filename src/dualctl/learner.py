"""Real-time Bayesian identification of the active disturbance candidate.

Each grid candidate ``theta_t`` keeps a posterior probability and a 3x3
estimation-error covariance ``P_t``. After every observed output the
posteriors are updated with Gaussian one-step-prediction likelihoods whose
variance is ``phi' P_t phi + sigma^2`` (``phi = (fhat, ghat*u, 1)``), then each
covariance is rescaled by ``log2(eta / pi_t + 1)``: mass above the uniform
level ``eta`` shrinks a candidate's covariance toward zero, mass below grows
it. The shrinking covariance of the leading candidate sharpens its likelihood,
which concentrates the posterior further - the mechanism that drives the
posterior to lock onto a single candidate.

A locked posterior cannot move by Bayes updates alone, so disturbance changes
are detected separately: when the maximum-posterior candidate is both dominant
and persistently wrong (one-step residual beyond the admissible error), the
posteriors are reset to uniform and every covariance is restored to its
initial value, restarting active learning; :func:`reset` needs only the state.

State layout: the covariances are stored entry by entry across candidates.
``covariances[i][j]`` is a list with entry ``(i, j)`` of every candidate's
``P_t``, so ``covariances[i][j][t]`` is ``P_t[i][j]``. No peak is stored: a
rescale multiplies all of a candidate's entries by one positive factor, so
its largest ``|entry|`` stays at the position of P0's largest ``|entry|``.
``diagonal`` records, once per state, that every off-diagonal entry of the
initial covariance P0 is zero and no diagonal entry is negative (``-0.0`` is
not). Each stage of an iteration (:func:`bayes_step`,
:func:`update_covariance`, the control law) is one call that loops over the
candidates, gives bit for bit what a per-matrix implementation gives, and
returns only what the run loop reads. Entries that are zero in P0 stay
exactly P0's value: every rescale factor is finite and positive, and
:func:`reset` restores P0. :func:`make_state` checks P0 once, as one 3x3
matrix: symmetric and positive semidefinite, both within 1e-9 (a finite
diagonal P0 passes both by construction, without numpy). No later state is
checked as a whole. With a diagonal P0, as in all
covariance presets, :func:`bayes_step` reads only the three diagonal lists
and hands every other case (a cross entry in P0, the rare log domain,
underflow and every error) to one exact :func:`_general_step`; the control
law reads only the (1, 1) list; :func:`update_covariance` copies the three
diagonal lists and rescales them in place, sharing the six off-diagonal
lists. Any other P0 runs the general loops over all nine entry lists. In
both rescale paths a candidate at the covariance cap whose floored
posterior is at most ``eta`` has factor exactly 1, so it costs one
comparison and is left as it is; once the posterior locks, most candidates
are such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import ResetPolicy, check_covariance
from .errors import PosteriorUnderflowError, StateError

# Posteriors are clamped here before any division or multiplication so a single
# underflow cannot permanently kill a candidate or divide by zero.
POSTERIOR_FLOOR = 1e-300
# Below this density the posterior product is formed in the log domain.
LOG_DOMAIN_TRIGGER = 1e-290
# Covariance entries saturate here; dying candidates otherwise overflow to inf
# within ~100 iterations (their rescale factor approaches log2(eta/1e-300)).
COVARIANCE_CAP = 1e12

_LOG_2PI = math.log(2.0 * math.pi)
_TWO_PI = 2.0 * math.pi


@dataclass
class LearnerState:
    """Posteriors and per-candidate covariances owned by one run loop."""

    posteriors: list[float]
    covariances: list[list[list[float]]]  # 3 x 3 x size: [i][j][t] is P_t[i][j]
    eta: float
    noise_variance: float
    initial_covariance: tuple[tuple[float, ...], ...]
    diagonal: bool  # initial_covariance has zero cross entries and no negative entry


def _initial_layout(p0, size: int):
    """Covariance entry lists with every candidate at ``p0``."""
    return [[[v] * size for v in row] for row in p0]


def make_state(grid_size: int, noise_variance: float, initial_covariance) -> LearnerState:
    """Uniform posteriors with every covariance at the configured initial value.

    Every candidate starts as the same copy of P0, so P0 itself is checked,
    by :func:`dualctl.config.check_covariance`: symmetric and positive
    semidefinite, both within 1e-9, and without numpy when it is diagonal
    with finite entries.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1")
    if noise_variance < 0:
        raise ValueError("noise_variance must be >= 0")
    p0 = tuple(tuple(float(v) for v in row) for row in initial_covariance)
    diagonal = check_covariance(p0)
    return LearnerState(
        posteriors=[1.0 / grid_size] * grid_size,
        covariances=_initial_layout(p0, grid_size),
        eta=1.0 / grid_size,
        noise_variance=float(noise_variance),
        initial_covariance=p0,
        diagonal=diagonal,
    )


def update_posteriors(state: LearnerState, likelihoods) -> LearnerState:
    """One Bayes step: normalized elementwise product of priors and likelihoods.

    Raises :class:`PosteriorUnderflowError` when every product underflows to
    zero; :func:`bayes_step` never calls this and runs the log domain itself.
    """
    if len(likelihoods) != len(state.posteriors):
        raise ValueError(
            f"got {len(likelihoods)} likelihoods for {len(state.posteriors)} candidates"
        )
    if any(l < 0 or not math.isfinite(l) for l in likelihoods):
        raise ValueError("likelihoods must be finite and non-negative")
    products = [
        (POSTERIOR_FLOOR if POSTERIOR_FLOOR > p else p) * l
        for p, l in zip(state.posteriors, likelihoods)
    ]
    total = math.fsum(products)
    if total <= 0.0:
        raise PosteriorUnderflowError(
            "all posterior-likelihood products underflowed; use the log-domain update"
        )
    return _normalized(state, products, total)


def _successor(state: LearnerState, posteriors, covariances) -> LearnerState:
    """A new state with these posteriors and covariances; ``state`` is untouched.

    The rest is carried over: ``eta``, the noise variance, P0 and ``diagonal``.
    Nothing derived from the covariances, such as their peaks, is stored.
    Built positionally: ``dataclasses.replace`` costs several microseconds, and
    a run makes up to three successors per iteration.
    """
    return LearnerState(
        posteriors,
        covariances,
        state.eta,
        state.noise_variance,
        state.initial_covariance,
        state.diagonal,
    )


def _normalized(state: LearnerState, products, total: float) -> LearnerState:
    """Posteriors ``products[t] / total``, where ``total`` is the fsum of ``products``."""
    return _successor(state, [v / total for v in products], state.covariances)


def update_covariance(state: LearnerState) -> LearnerState:
    """Rescale each candidate's covariance by ``log2(eta / pi_t + 1)``.

    The factor is exactly 1 at ``pi_t == eta`` (uniform mass keeps the
    covariance bit-identical) and 2 at ``pi_t == eta / 3``. A candidate's
    entries saturate at ``COVARIANCE_CAP``, to keep long-dead candidates
    finite: when ``peak * factor`` would exceed it, the factor becomes
    ``COVARIANCE_CAP / peak``. The peak, a candidate's largest ``|entry|``,
    is not stored: it is read from the entry list at the position of P0's
    largest ``|entry|``, picked once per call. Every rescale multiplies all
    of a candidate's entries by one positive factor, and correct rounding is
    monotone and sign-symmetric, so that entry stays the largest.

    Both paths copy the entry lists they rescale once, then multiply in place
    only the candidates whose factor may differ from 1. A candidate at the
    cap whose floored posterior is at most ``eta`` is skipped after that one
    comparison: ``eta / pi + 1 >= 2``, so the log2 is at least 1 and the cap
    rule gives ``CAP / CAP``, exactly 1, which leaves every entry as it is.
    With a diagonal P0 the copies are the three diagonal lists, rescaled
    entry by entry, and the peak is read without ``abs`` since no diagonal
    entry is negative; any other P0 copies and rescales every entry list
    that is nonzero in P0. Lists that are zero in P0 are shared with
    ``state``, which is never modified.
    """
    eta = state.eta
    log2 = math.log2
    if state.diagonal:
        (d0, o01, o02), (o10, d1, o12), (o20, o21, d2) = state.covariances
        n0, n1, n2 = d0[:], d1[:], d2[:]
        # No diagonal entry of P0 is negative: its largest is its largest |entry|.
        (v0, _, _), (_, v1, _), (_, _, v2) = state.initial_covariance
        top = (n0 if v0 >= v2 else n2) if v0 >= v1 else (n1 if v1 >= v2 else n2)
        for t, pi in enumerate(state.posteriors):
            if POSTERIOR_FLOOR > pi:
                pi = POSTERIOR_FLOOR
            peak = top[t]
            if peak == COVARIANCE_CAP and pi <= eta:
                continue
            factor = log2(eta / pi + 1.0)
            if peak * factor > COVARIANCE_CAP:
                factor = COVARIANCE_CAP / peak
            # A diagonal entry that is zero in P0 stays zero: the factor is
            # finite and positive, so v * factor keeps its sign too.
            n0[t] *= factor
            n1[t] *= factor
            n2[t] *= factor
        covariances = [[n0, o01, o02], [o10, n1, o12], [o20, o21, n2]]
        return _successor(state, state.posteriors, covariances)
    # Entries that are zero in P0 stay exactly P0's value, so they are not rescaled.
    sizes = [abs(p) for row in state.initial_covariance for p in row]
    entries = [e for row in state.covariances for e in row]
    entries = [e if w == 0.0 else e[:] for e, w in zip(entries, sizes)]
    moving = [e for e, w in zip(entries, sizes) if w != 0.0]
    top = entries[sizes.index(max(sizes))]
    for t, pi in enumerate(state.posteriors):
        if POSTERIOR_FLOOR > pi:
            pi = POSTERIOR_FLOOR
        peak = abs(top[t])
        if peak == COVARIANCE_CAP and pi <= eta:
            continue
        factor = log2(eta / pi + 1.0)
        if peak * factor > COVARIANCE_CAP:
            factor = COVARIANCE_CAP / peak
        for entry in moving:
            entry[t] *= factor
    covariances = [entries[0:3], entries[3:6], entries[6:9]]
    return _successor(state, state.posteriors, covariances)


def detect_change(residual: float, max_posterior: float, policy: ResetPolicy) -> bool:
    """True when the dominant candidate is locked yet persistently wrong."""
    return abs(residual) > policy.admissible_error and max_posterior > policy.posterior_threshold


def reset(state: LearnerState) -> LearnerState:
    """Restart active learning: uniform posteriors, initial covariances."""
    size = len(state.posteriors)
    return _successor(state, [1.0 / size] * size, _initial_layout(state.initial_covariance, size))


def prediction_errors(state: LearnerState, regressor, observed: float, thetas) -> tuple[
    list[float], list[float]
]:
    """Residual and prediction variance of every candidate.

    With ``regressor = (a, b, c)``, candidate ``t`` predicts ``theta_t . phi``
    with variance ``phi' P_t phi + sigma^2``; its residual is the observed
    output minus that prediction.  The quadratic form is the per-matrix one;
    with zero cross entries and a finite regressor its cross terms are signed
    zeros, so it matches each variance :func:`bayes_step`'s diagonal pass
    accepts.  Raises :class:`StateError` for the first unusable variance.
    """
    a, b, c = regressor
    noise = state.noise_variance
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = state.covariances
    variances = []
    for t, (q00, q01, q02, q10, q11, q12, q20, q21, q22) in enumerate(
        zip(p00, p01, p02, p10, p11, p12, p20, p21, p22)
    ):
        # Keep this term order: traces are bit-exact to the per-matrix form.
        quad = (
            q00 * a * a
            + q11 * b * b
            + q22 * c * c
            + (q01 + q10) * a * b
            + (q02 + q20) * a * c
            + (q12 + q21) * b * c
        )
        if quad < 0.0:
            raise StateError(
                f"covariance {t} is indefinite along the regressor (phi'P phi = {quad})"
            )
        var = quad + noise
        if not var > 0.0:
            raise StateError(
                f"prediction variance of candidate {t} is {var}; it must be > 0 "
                "(zero noise with a covariance that vanishes along the regressor)"
            )
        variances.append(var)
    residuals = [observed - (t0 * a + t1 * b + t2 * c) for t0, t1, t2 in thetas]
    return residuals, variances


def _general_step(state: LearnerState, regressor, observed: float, thetas) -> LearnerState:
    """The exact Bayes update for any P0 and every case the diagonal pass hands off.

    When every density is at least ``LOG_DOMAIN_TRIGGER`` and the floored
    products do not all underflow, they are normalized by their fsum.
    Otherwise each floored log prior is added to the Gaussian log-density and
    shifted by the max before exponentiating.  An infinite max is a
    :class:`StateError`, and so is a NaN density (``r * r / (2 var)`` is NaN
    for an infinite ``r * r`` over an infinite ``2 var``, or a NaN residual).
    Past both checks the max is finite, so the weights sum to at least 1.
    """
    residuals, variances = prediction_errors(state, regressor, observed, thetas)
    exp = math.exp
    sqrt = math.sqrt
    densities = [
        exp(-(r * r) / (2.0 * var)) / sqrt(_TWO_PI * var)
        for r, var in zip(residuals, variances)
    ]
    if all(d >= LOG_DOMAIN_TRIGGER for d in densities):
        products = [
            (POSTERIOR_FLOOR if POSTERIOR_FLOOR > p else p) * d
            for p, d in zip(state.posteriors, densities)
        ]
        total = math.fsum(products)
        if total > 0.0:
            return _normalized(state, products, total)
    log = math.log
    logs = [
        log(max(p, POSTERIOR_FLOOR)) + (-0.5 * (_LOG_2PI + log(v)) - (r * r) / (2.0 * v))
        for p, r, v in zip(state.posteriors, residuals, variances)
    ]
    # max() passes over a NaN log-posterior behind the first entry, so an
    # infinite max is reported as such even where a later density is NaN.
    m = max(logs)
    if math.isinf(m):
        raise StateError(f"log-posteriors are not finite (max {m})")
    for t, (r, var) in enumerate(zip(residuals, variances)):
        if math.isnan((r * r) / (2.0 * var)):
            raise StateError(
                f"density of candidate {t} is not a number (residual {r}, prediction "
                f"variance {var}); the residual and the variance must be finite"
            )
    weights = [exp(v - m) for v in logs]
    return _normalized(state, weights, math.fsum(weights))


def bayes_step(state: LearnerState, regressor, observed: float, thetas) -> LearnerState:
    """Full per-iteration posterior update over all candidates.

    Per candidate, with ``regressor = (a, b, c) = (fhat, ghat*u, 1)``: the
    residual of the one-step prediction ``theta . phi`` against the observed
    output, the prediction variance ``phi' P_t phi + sigma^2`` and the
    Gaussian density of the residual.  Then the Bayes update.  Returns the
    new state.

    With a diagonal P0 one pass forms each quadratic form from the three
    diagonal entries in place (cross terms are signed zeros for a finite
    regressor, and no diagonal term is negative), keeps only each floored
    prior times density and normalizes with the same fsum and division as
    :func:`update_posteriors`.  Every other case is :func:`_general_step`,
    which redoes the step exactly: a P0 with a cross entry, a variance that
    is not positive, a density below ``LOG_DOMAIN_TRIGGER`` (the log domain)
    and a product total that is not positive (every product underflowed, or
    one is NaN, as for any non-finite regressor).

    Raises :class:`StateError` when a covariance is indefinite along the
    regressor, a prediction variance is not positive (zero noise with a
    covariance that vanishes along the regressor), no log-posterior is finite
    or a density is NaN (an infinite squared residual over an infinite
    variance, or a NaN observed output).
    """
    if len(thetas) != len(state.posteriors):
        raise ValueError(
            f"got {len(thetas)} candidates for a state with {len(state.posteriors)}"
        )
    if not state.diagonal:
        return _general_step(state, regressor, observed, thetas)
    a, b, c = regressor
    noise = state.noise_variance
    exp = math.exp
    sqrt = math.sqrt
    products = []
    add_product = products.append
    (p00, _, _), (_, p11, _), (_, _, p22) = state.covariances
    for (t0, t1, t2), q00, q11, q22, p in zip(thetas, p00, p11, p22, state.posteriors):
        var = q00 * a * a + q11 * b * b + q22 * c * c + noise
        if not var > 0.0:
            return _general_step(state, regressor, observed, thetas)
        r = observed - (t0 * a + t1 * b + t2 * c)
        d = exp(-(r * r) / (2.0 * var)) / sqrt(_TWO_PI * var)
        if d < LOG_DOMAIN_TRIGGER:
            return _general_step(state, regressor, observed, thetas)
        add_product((POSTERIOR_FLOOR if POSTERIOR_FLOOR > p else p) * d)
    total = math.fsum(products)
    if total > 0.0:
        return _normalized(state, products, total)
    return _general_step(state, regressor, observed, thetas)
