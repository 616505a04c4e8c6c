"""Surrogate evaluation, offline fitting and the parameter file format."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualctl import (
    FitError,
    RbfNetwork,
    branch,
    eval_network,
    geometry,
    load_network,
    save_network,
    train_offline,
)


def _basis_network(center, width2):
    """One basis of unit weight in each branch: the network returns h(y) twice."""
    br = branch((center,), (width2,), (1.0,))
    return RbfNetwork(f_branch=br, g_branch=br)


def test_basis_is_gaussian_in_squared_width():
    assert eval_network(_basis_network(0.0, 1.0), 1.0)[0] == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )
    assert eval_network(_basis_network(0.0, 4.0), 2.0)[1] == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )


def test_basis_peaks_at_center():
    assert eval_network(_basis_network(-2.0, 0.7), -2.0) == (1.0, 1.0)


@given(
    w_f=st.tuples(st.floats(-5, 5, allow_nan=False), st.floats(-5, 5, allow_nan=False)),
    w_g=st.floats(-5, 5, allow_nan=False),
    x=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=150)
def test_network_matches_closed_form(w_f, w_g, x):
    net = RbfNetwork(
        f_branch=branch((-1.0, 1.0), (1.0, 2.0), w_f),
        g_branch=branch((0.0,), (3.6,), (w_g,)),
    )
    f_hat, g_hat = eval_network(net, x)
    expected_f = w_f[0] * math.exp(-((x + 1.0) ** 2) / 2.0) + w_f[1] * math.exp(
        -((x - 1.0) ** 2) / 4.0
    )
    assert f_hat == pytest.approx(expected_f, abs=1e-12)
    assert g_hat == pytest.approx(w_g * math.exp(-(x**2) / 7.2), abs=1e-12)


def test_offline_fit_recovers_generating_weights():
    rng = np.random.default_rng(3)
    f_geom = geometry((-1.0, 0.0, 1.0), (1.0, 1.0, 1.0))
    g_geom = geometry((-1.0, 1.0), (2.0, 2.0))
    w_f = (0.5, -1.2, 0.9)
    w_g = (1.4, -0.3)
    truth = RbfNetwork(f_branch=branch(f_geom.centers, f_geom.widths, w_f),
                       g_branch=branch(g_geom.centers, g_geom.widths, w_g))
    states = rng.uniform(-2, 2, size=200)
    inputs = rng.uniform(-2, 2, size=200)
    outputs = []
    for s, u in zip(states, inputs):
        f_hat, g_hat = eval_network(truth, s)
        outputs.append(f_hat + g_hat * u)
    net, rms = train_offline(states, inputs, outputs, f_geom, g_geom)
    assert rms < 1e-10
    assert f_geom.weights == (0.0,) * 3  # a geometry is a branch with zero weights
    assert (net.f_branch.centers, net.f_branch.widths) == (f_geom.centers, f_geom.widths)
    assert net.f_branch.weights == pytest.approx(w_f, abs=1e-8)
    assert net.g_branch.weights == pytest.approx(w_g, abs=1e-8)


def test_offline_fit_rejects_rank_deficiency_without_ridge():
    # Two bases at the same center are indistinguishable.
    f_geom = geometry((0.0, 0.0), (1.0, 1.0))
    g_geom = geometry((0.0,), (1.0,))
    rng = np.random.default_rng(0)
    states = rng.uniform(-1, 1, size=50)
    inputs = rng.uniform(-1, 1, size=50)
    outputs = rng.uniform(-1, 1, size=50)
    with pytest.raises(FitError):
        train_offline(states, inputs, outputs, f_geom, g_geom)
    # Ridge regularization makes the same problem solvable.
    net, _ = train_offline(states, inputs, outputs, f_geom, g_geom, ridge=1e-6)
    assert all(math.isfinite(w) for w in net.f_branch.weights)


def test_offline_fit_needs_enough_samples():
    f_geom = geometry((0.0, 1.0), (1.0, 1.0))
    g_geom = geometry((0.0,), (1.0,))
    with pytest.raises(FitError):
        train_offline([0.0, 1.0], [0.0, 1.0], [0.0, 1.0], f_geom, g_geom)


def test_offline_fit_rejects_malformed_samples():
    f_geom = geometry((0.0, 1.0), (1.0, 1.0))
    g_geom = geometry((0.0,), (1.0,))
    rng = np.random.default_rng(1)
    inputs, outputs = rng.uniform(-1, 1, size=20), rng.uniform(-1, 1, size=20)
    with pytest.raises(ValueError, match="1-D"):
        train_offline(rng.uniform(-1, 1, size=(20, 2)), inputs, outputs, f_geom, g_geom)
    with pytest.raises(ValueError, match="equal length"):
        train_offline(rng.uniform(-1, 1, size=19), inputs, outputs, f_geom, g_geom)
    with pytest.raises(ValueError, match="ridge"):
        train_offline(rng.uniform(-1, 1, size=20), inputs, outputs, f_geom, g_geom, ridge=-1.0)
    bad_inputs = inputs.copy()
    bad_inputs[3] = np.nan
    with pytest.raises(ValueError, match="sample 3 is not finite"):
        train_offline(rng.uniform(-1, 1, size=20), bad_inputs, outputs, f_geom, g_geom, ridge=1.0)


def test_save_load_roundtrip_is_exact(tmp_path):
    net = RbfNetwork(
        f_branch=branch((-2.0, 0.5), (1.0, 0.3), (11.2856, -4.6174)),
        g_branch=branch((0.0,), (3.6,), (3.5097,)),
    )
    path = tmp_path / "net.rbfnet"
    save_network(net, path, comment="roundtrip fixture\nsecond line")
    loaded = load_network(path)
    assert loaded == net  # repr() serialization is lossless for floats


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.rbfnet"
    path.write_text("rbfnet v9\nstate_dim 1\n")
    with pytest.raises(ValueError, match="header"):
        load_network(path)
    path.write_text(
        "rbfnet v1\nstate_dim 1\nbranch f 2\nbasis 1.0 0.0\nweights 1.0 2.0\n"
    )
    with pytest.raises(ValueError, match="basis"):
        load_network(path)
    path.write_text(
        "rbfnet v1\nstate_dim 1\nbranch f 1\nbasis 1.0 0.0\nweights 1.0\n"
    )
    with pytest.raises(ValueError, match="'f' and 'g'"):
        load_network(path)


def test_load_rejects_a_state_other_than_the_scalar_output(tmp_path):
    path = tmp_path / "bad.rbfnet"
    g = "branch g 1\nbasis 1.0 0.0\nweights 1.0\n"
    path.write_text("rbfnet v1\nstate_dim 2\nbranch f 1\nbasis 1.0 0.0 0.0\nweights 1.0\n" + g)
    with pytest.raises(ValueError, match="line 2: expected 'state_dim 1'"):
        load_network(path)
    path.write_text("rbfnet v1\nstate_dim 1\nbranch f 1\nbasis 1.0 0.0 0.0\nweights 1.0\n" + g)
    with pytest.raises(ValueError, match="line 4: basis line needs width\\^2 and one center"):
        load_network(path)


def test_bundled_affine_network_matches_frozen_parameters():
    net = load_network("configs/networks/case1_affine.rbfnet")
    f, g = net.f_branch, net.g_branch
    assert f.size == 9 and g.size == 3
    assert f.centers == (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0)
    assert set(f.widths) == {1.0}
    assert g.centers == (-2.0, 0.0, 2.0)
    assert set(g.widths) == {3.6}
    assert f.weights == (
        11.2856, -4.6174, -12.3754, 1.5622, 12.0864, 2.2351, -11.9197, -4.4981, 12.6531,
    )
    assert g.weights == (-0.4449, 3.5097, -0.4449)


def test_bundled_affine_network_tracks_plant_nonlinearities():
    from dualctl import affine_f, affine_g

    net = load_network("configs/networks/case1_affine.rbfnet")
    ys = np.linspace(-1.2, 1.2, 61)
    err_f = max(abs(eval_network(net, y)[0] - affine_f(y)) for y in ys)
    err_g = max(abs(eval_network(net, y)[1] - affine_g(y)) for y in ys)
    # Surrogate quality on the band the reference trajectory occupies;
    # generous bounds, the point is that the file was not corrupted.
    assert err_f < 0.05
    assert err_g < 0.01


def test_bundled_train_network_represents_resistance_curve():
    from dualctl import train_f, train_g

    net = load_network("configs/networks/case4_train.rbfnet")
    vs = np.linspace(295.0, 330.0, 71)
    err_f = max(abs(eval_network(net, v)[0] - train_f(v)) for v in vs)
    err_g = max(abs(eval_network(net, v)[1] - train_g(v)) for v in vs)
    assert err_f < 0.01
    assert err_g < 1e-4


def test_case4_network_script_reproduces_the_bundled_file(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    out = tmp_path / "case4_train.rbfnet"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(repo / "src"), env.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, str(repo / "scripts" / "make_case4_network.py"), "--out", str(out)],
        check=True, capture_output=True, env=env,
    )
    made = out.read_text().splitlines()
    bundled = (repo / "configs" / "networks" / "case4_train.rbfnet").read_text().splitlines()
    assert len(made) == len(bundled)
    for new, old in zip(made, bundled):
        if old.startswith("weights "):
            # Different LAPACK builds may differ in the last bits of the fit.
            new_w = [float(v) for v in new.split()[1:]]
            assert new_w == pytest.approx([float(v) for v in old.split()[1:]], rel=1e-9)
        else:
            assert new == old  # comments, header, branch and basis lines
