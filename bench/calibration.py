"""A fixed calibration loop, to scale timings to one reference host speed.

The shared hosts this benchmark runs on change speed by tens of percent over
seconds to minutes, as other tenants come and go.  The benchmark therefore
runs this loop between units of work and scales each unit's times by
``REFERENCE_S / <loop time around the unit>``: a time then reads as it would
on a host where the loop takes REFERENCE_S.  The loop is plain Python shaped
like dualctl's per-candidate work (3x3 covariance rescales, the control law,
a normalized weighting), so host load slows it as it slows the package.  It
never calls dualctl, so a change to the package does not move it.
"""

from __future__ import annotations

import math
from time import perf_counter

# Nominal time of one calibration loop: ~50 ms on a 2-vCPU Intel Xeon virtual
# machine.  Fixed, so scaled times compare across commits and runs.
REFERENCE_S = 0.05

_CANDIDATES = 40
_STEPS = 300


def _rescale(cov, weight):
    factor = math.log2(1.0 / max(weight, 1e-300) + 1.0)
    peak = max(abs(v) for row in cov for v in row)
    if peak * factor > 1e12:
        factor = 1e12 / peak
    return [[v * factor for v in row] for row in cov]


def _law(theta, f, g, cov):
    t2g = theta[1] * g
    den = 0.1 * g * cov[1][1] + t2g * t2g
    return ((1.0 - theta[0] * f - theta[2]) * t2g - 0.1 * (f * cov[0][1] + cov[2][1]) * g) / den


def calibration_loop() -> float:
    thetas = [(0.8 + 0.01 * t, 0.9, 0.01 * (t % 3)) for t in range(_CANDIDATES)]
    covs = [[[1.0, 0.1, 0.0], [0.1, 1.0, 0.1], [0.0, 0.1, 1.0]] for _ in thetas]
    acc = 0.0
    for k in range(_STEPS):
        f, g = math.sin(0.1 * k), 2.0 + math.cos(0.1 * k)
        weights = [math.exp(-0.5 * (t - k % _CANDIDATES) ** 2 / 50.0) + 1e-3 for t in range(_CANDIDATES)]
        total = math.fsum(weights)
        covs = [_rescale(c, w / total) for c, w in zip(covs, weights)]
        acc += math.fsum(w * _law(th, f, g, c) for w, th, c in zip(weights, thetas, covs))
    return acc


def calibration_s() -> float:
    """Time of one calibration loop, in seconds."""
    t0 = perf_counter()
    calibration_loop()
    return perf_counter() - t0
