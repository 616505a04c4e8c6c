"""Fit and save the train-plant surrogate used by configs/case4.yaml.

Samples undisturbed transitions v(k+1) = f(v) + g*u over the speed band the
closed loop visits, then fits the two RBF branches offline. The input enters
the model linearly, so the u sampling range only conditions the regression;
the fit extrapolates exactly in u.
"""

import argparse
import os

import numpy as np

from dualctl.plants import TRAIN_DEFAULTS, train_f, train_g
from dualctl.rbf import eval_network, geometry, save_network, train_offline

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "..", "configs", "networks", "case4_train.rbfnet")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=4000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    v = rng.uniform(240.0, 350.0, args.samples)
    u = rng.uniform(-4000.0, 4000.0, args.samples)
    params = dict(TRAIN_DEFAULTS)
    y = np.array([train_f(vi, params) + train_g(vi, params) * ui for vi, ui in zip(v, u)])

    f_geom = geometry([float(c) for c in np.linspace(230.0, 360.0, 30)], 40.0)
    g_geom = geometry([260.0, 300.0, 340.0], 20000.0)
    net, rms = train_offline(v, u, y, f_geom, g_geom, ridge=1e-8)

    # fit quality on the band the closed loop actually occupies
    grid = np.linspace(295.0, 330.0, 141)
    worst_f = max(abs(eval_network(net, (float(s),))[0] - train_f(float(s), params)) for s in grid)
    worst_g = max(abs(eval_network(net, (float(s),))[1] - train_g(float(s), params)) for s in grid)
    print(f"training rms {rms:.6g}, on [295,330]: max |f_hat-f| {worst_f:.4g}, max |g_hat-g| {worst_g:.4g}")

    save_network(
        net,
        args.out,
        comment=(
            "Surrogate for the train speed plant v(k+1) = a*f(v) + b*g(v)*u + c:\n"
            "  f(v) = v - xi*T*(c_r + c_m*v + c_a*v^2), g(v) = xi*T\n"
            "  xi=0.06 T=0.1 c_r=0.1 c_m=0.0064 c_a=0.000115\n"
            "  f: 30 bases evenly spaced on [230, 360], squared width 40\n"
            "  g: 3 bases at 260, 300, 340, squared width 20000\n"
            "Fit offline on undisturbed transitions; regenerate with scripts/make_case4_network.py"
        ),
    )
    print(f"wrote {os.path.normpath(args.out)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
