"""Per-matrix oracles: one candidate and one 3x3 covariance per call, the
arithmetic the fused learner and controller stages must reproduce bit for
bit, one builder of hand-made learner states, and a whole closed-loop run
composed from these oracles.

Not collected by pytest; the test modules import it as ``oracle``.
"""

import math
from dataclasses import replace

from dualctl import COVARIANCE_CAP, POSTERIOR_FLOOR, DualctlError, LearnerState
from dualctl import PosteriorUnderflowError, RunError, eval_network, make_state, reference_at
from dualctl import update_posteriors
from dualctl.harness import _DIVERGENCE_LIMIT, run_streams
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


def reference_run(cfg, seed, randomize=(), controller="proposed"):
    """The rows and posterior rows of one run, built from the oracles above.

    The stages run in the order the harness documents, with one 3x3 list per
    candidate: the Bayes update, the blended control law at the next
    reference value, the detector and reset, then the covariance rescale.
    The streams come from ``run_streams``. Any failure inside an iteration,
    a failed assertion of an oracle included, is a ``RunError`` at that
    iteration; only the iteration is meant to be compared.
    """
    disturbances, noises = run_streams(cfg, seed, randomize)
    plant, policy, spec = cfg.plant, cfg.reset, cfg.reference
    lam, clamp = cfg.controller.dual_lambda, cfg.controller.input_clamp
    thetas = cfg.build_grid().vectors
    size = len(thetas)
    eta = 1.0 / size
    template = make_state(size, plant.noise_variance, cfg.initial_covariance)

    def bounded(value):
        if not math.isfinite(value) or abs(value) > _DIVERGENCE_LIMIT:
            raise ArithmeticError(f"{value!r} is beyond the divergence limit")
        return value

    def optimal_input(theta, y, target):
        gain = theta[1] * plant.g_value(y)
        if abs(gain) < 1e-12:
            if controller == "optimal":
                raise ArithmeticError(f"true input gain {gain} is singular")
            return math.nan
        return (target - theta[0] * plant.f_value(y) - theta[2]) / gain

    def initial():
        return [eta] * size, [[list(row) for row in template.initial_covariance] for _ in thetas]

    failures = (AssertionError, ArithmeticError, ValueError, DualctlError)
    posteriors, covs = initial()
    theta, y = disturbances[0], cfg.initial_output
    y_r, target = reference_at(spec, 1), reference_at(spec, 2)
    try:
        u_opt = optimal_input(theta, bounded(y), target)
        f_hat, g_hat = eval_network(cfg.network, y)
    except failures as exc:
        raise RunError(f"iteration failed: {exc}", iteration=1) from exc
    u = u_opt if controller == "optimal" else cfg.initial_control
    rows = [(1, y_r, y, u, u_opt, y, y - y_r, 1, eta, 0, *theta)]
    pi_rows = [list(posteriors)]
    for k in range(1, cfg.iterations):
        try:
            y = bounded(plant.step(y, u, theta, noises[k - 1]))
            phi = (f_hat, g_hat * bounded(u), 1.0)
            posteriors, residuals, _, _ = bayes_step(template, posteriors, covs, phi, y, thetas)
            pi_star = max(posteriors)
            t_star = posteriors.index(pi_star)
            residual = residuals[t_star]
            y_r, target = target, reference_at(spec, k + 2)
            theta = disturbances[k]
            u_opt = optimal_input(theta, y, target)
            f_hat, g_hat = eval_network(cfg.network, y)
            if controller == "proposed":
                laws = [control_law(t, f_hat, g_hat, target, c, lam) for t, c in zip(thetas, covs)]
                if None in laws:
                    raise ArithmeticError("a control denominator is singular")
                u = math.fsum(pi * law for pi, law in zip(posteriors, laws))
                if not math.isfinite(u):
                    raise ArithmeticError(f"blended input {u} is not finite")
                if clamp is not None and abs(u) > clamp:
                    u = math.copysign(clamp, u)
            else:
                u = u_opt
            triggered = abs(residual) > policy.admissible_error and pi_star > policy.posterior_threshold
            if triggered:
                posteriors, covs = initial()
            covs = [update_covariance(c, pi, eta)[0] for c, pi in zip(covs, posteriors)]
        except failures as exc:
            raise RunError(f"iteration failed: {exc}", iteration=k + 1) from exc
        rows.append((k + 1, y_r, y, u, u_opt, y - residual, y - y_r, t_star + 1, pi_star,
                     int(triggered), *theta))
        pi_rows.append(list(posteriors))
    return rows, pi_rows
