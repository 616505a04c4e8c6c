"""Per-matrix oracles: one candidate and one 3x3 covariance per call, the
arithmetic the fused learner and controller stages must reproduce bit for
bit, and one builder of hand-made learner states.

Not collected by pytest; the test modules import it as ``oracle``.
"""

import math
from dataclasses import replace

from dualctl import COVARIANCE_CAP, POSTERIOR_FLOOR, LearnerState, PosteriorUnderflowError
from dualctl import update_posteriors
from dualctl.learner import LOG_DOMAIN_TRIGGER


def prediction_variance(regressor, covariance, noise_variance):
    a, b, c = regressor
    p = covariance
    quad = (
        p[0][0] * a * a
        + p[1][1] * b * b
        + p[2][2] * c * c
        + (p[0][1] + p[1][0]) * a * b
        + (p[0][2] + p[2][0]) * a * c
        + (p[1][2] + p[2][1]) * b * c
    )
    assert quad >= 0.0
    return quad + noise_variance


def likelihood(residual, variance):
    assert variance > 0.0
    return math.exp(-(residual * residual) / (2.0 * variance)) / math.sqrt(
        2.0 * math.pi * variance
    )


def log_update(posteriors, residuals, variances):
    """The log-domain Bayes update: floored log prior plus Gaussian log-density,
    shifted by the max before exponentiating."""
    logs = [
        math.log(max(p, POSTERIOR_FLOOR))
        + (-0.5 * (math.log(2.0 * math.pi) + math.log(v)) - (r * r) / (2.0 * v))
        for p, r, v in zip(posteriors, residuals, variances)
    ]
    m = max(logs)
    weights = [math.exp(v - m) for v in logs]
    total = math.fsum(weights)
    return [w / total for w in weights]


def update_covariance(covariance, posterior, eta):
    """Returns the rescaled matrix and whether the cap bound the factor."""
    factor = math.log2(eta / max(posterior, POSTERIOR_FLOOR) + 1.0)
    peak = max(abs(v) for row in covariance for v in row)
    capped = peak * factor > COVARIANCE_CAP
    if capped:
        factor = COVARIANCE_CAP / peak
    return [[v * factor for v in row] for row in covariance], capped


def control_law(theta, f_hat, g_hat, y_r_next, cov, dual_lambda):
    """The candidate's dual law, or None when its denominator is singular."""
    t2g = theta[1] * g_hat
    one_minus = 1.0 - dual_lambda
    den = one_minus * g_hat * cov[1][1] + t2g * t2g
    if abs(den) < 1e-12:
        return None
    num = (y_r_next - theta[0] * f_hat - theta[2]) * t2g - one_minus * (
        f_hat * cov[0][1] + cov[2][1]
    ) * g_hat
    return num / den


def bayes_step(template, posteriors, covariances, regressor, observed, thetas):
    """Returns posteriors, residuals, variances and whether the log domain ran."""
    a, b, c = regressor
    residuals, variances, densities = [], [], []
    for theta, cov in zip(thetas, covariances):
        r = observed - (theta[0] * a + theta[1] * b + theta[2] * c)
        var = prediction_variance(regressor, cov, template.noise_variance)
        residuals.append(r)
        variances.append(var)
        densities.append(likelihood(r, var))
    prior = replace(template, posteriors=list(posteriors))
    if not any(d < LOG_DOMAIN_TRIGGER for d in densities):
        try:
            new = update_posteriors(prior, densities)
            return new.posteriors, residuals, variances, False
        except PosteriorUnderflowError:
            pass
    return log_update(posteriors, residuals, variances), residuals, variances, True


def bayes_error(regressor, covariances, noise_variance):
    """The StateError message of the first candidate the per-matrix form rejects."""
    a, b, c = regressor
    for t, p in enumerate(covariances):
        quad = (
            p[0][0] * a * a
            + p[1][1] * b * b
            + p[2][2] * c * c
            + (p[0][1] + p[1][0]) * a * b
            + (p[0][2] + p[2][0]) * a * c
            + (p[1][2] + p[2][1]) * b * c
        )
        if quad < 0.0:
            return f"covariance {t} is indefinite along the regressor (phi'P phi = {quad})"
        if not quad + noise_variance > 0.0:
            return f"prediction variance of candidate {t} is {quad + noise_variance}; it must"
    return None


def scaled_state(p0, scales, posteriors, noise):
    """A state whose candidate t holds ``scales[t] * P0``, P0 not validated.

    Returns the state and its covariances as one 3x3 nested list per candidate.
    """
    covs = [[[v * f for v in row] for row in p0] for f in scales]
    return LearnerState(
        posteriors=list(posteriors),
        covariances=[[[cov[i][j] for cov in covs] for j in range(3)] for i in range(3)],
        eta=1.0 / len(scales),
        noise_variance=noise,
        initial_covariance=p0,
        diagonal=all(p0[i][j] == 0.0 for i in range(3) for j in range(3) if i != j)
        and not any(p0[i][i] < 0.0 for i in range(3)),
    ), covs
