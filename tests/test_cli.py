"""Command line interface: partition, train, run and mc subcommands."""

import csv

import numpy as np
import pytest

import dualctl.cli
from dualctl import load_network, read_trace
from dualctl.cli import main
from dualctl.config import MAX_GRID_SIZE


def test_partition_from_config(capsys):
    assert main(["partition", "--config", "configs/case1.yaml"]) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "beta" in out and "gamma" in out
    assert "15 candidates" in out


def test_partition_from_interval(capsys):
    assert main(["partition", "--lower", "-1.45", "--upper", "0.55", "--eps", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "20" in out


@pytest.mark.parametrize("eps", ["1e-9", "5e-324"])
def test_partition_interval_is_bounded_without_building_it(monkeypatch, capsys, eps):
    def unbuilt(interval):
        raise AssertionError("an oversized interval must not be partitioned")

    monkeypatch.setattr(dualctl.cli, "partition_interval", unbuilt)
    assert main(["partition", "--lower", "0", "--upper", "1", "--eps", eps]) == 1
    assert f"more than {MAX_GRID_SIZE}" in capsys.readouterr().err


def test_partition_needs_arguments(capsys):
    assert main(["partition"]) == 2
    assert "--lower" in capsys.readouterr().err


def test_run_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main([
        "run", "--config", "configs/case1.yaml", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "j_index=" in printed
    trace = read_trace(out)
    assert len(trace) == 600
    assert trace.seed == 1
    assert trace.posteriors is None

    full = tmp_path / "full.csv"
    code = main([
        "run", "--config", "configs/case1.yaml", "--seed", "1", "--full-posteriors",
        "--out", str(full),
    ])
    assert code == 0
    assert f"wrote {full} and {full}.pi.npy" in capsys.readouterr().out
    trace = read_trace(full)
    assert len(trace.posteriors) == 600 and len(trace.posteriors[0]) == 15


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--full-posteriors"], "run: --full-posteriors needs --out"),
        (["mc", "--runs", "2", "--save-traces"], "mc: --save-traces needs --out-dir"),
    ],
)
def test_an_output_flag_without_its_destination_is_a_usage_error(
    monkeypatch, capsys, argv, message
):
    def unparsed(path):
        raise AssertionError("the flags must be refused before the config is parsed")

    monkeypatch.setattr(dualctl.cli, "parse_config", unparsed)
    assert main([*argv, "--config", "configs/case1.yaml"]) == 2
    captured = capsys.readouterr()
    assert captured.err.strip() == message
    assert captured.out == ""


def test_run_reports_bad_config(tmp_path, capsys):
    bad = tmp_path / "broken.yaml"
    bad.write_text("name: x\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_an_overflowing_network_output_exits_with_an_error(tmp_path, capsys):
    net = tmp_path / "overflow.rbfnet"
    net.write_text(
        "rbfnet v1\nstate_dim 1\nbranch f 2\nbasis 1.0 0.0\nbasis 1.0 0.1\n"
        "weights 1e308 1e308\nbranch g 1\nbasis 1.0 0.0\nweights 1.0\n"
    )
    cfg = tmp_path / "case1.yaml"
    with open("configs/case1.yaml") as fh:
        cfg.write_text(fh.read().replace("networks/case1_affine.rbfnet", str(net)))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "error: iteration failed: network output overflows at y=0.0\n"


def test_negative_seed_overrides_exit_with_a_config_error(capsys):
    assert main(["run", "--config", "configs/case1.yaml", "--seed", "-1"]) == 1
    assert "error: seed: expected a non-negative integer, got -1" in capsys.readouterr().err
    argv = ["mc", "--config", "configs/case1.yaml", "--runs", "2", "--seed-base", "-5"]
    assert main(argv) == 1
    assert "error: seed_base: expected a non-negative integer, got -5" in capsys.readouterr().err


def test_train_fits_from_csv(tmp_path, capsys):
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(120):
        x = float(rng.uniform(-2, 2))
        u = float(rng.uniform(-2, 2))
        y = 0.7 * np.exp(-(x**2) / 2) + 1.3 * np.exp(-((x - 1) ** 2) / 2) * u
        rows.append((x, u, y))
    data = tmp_path / "samples.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "u", "y"])
        w.writerows(rows)
    out = tmp_path / "fit.rbfnet"
    code = main([
        "train", "--data", str(data),
        "--f-centers", "0", "--f-width2", "1",
        "--g-centers", "1", "--g-width2", "1",
        "--out", str(out),
    ])
    assert code == 0
    assert "residual rms" in capsys.readouterr().out
    net = load_network(out)
    assert net.f_branch.weights[0] == pytest.approx(0.7, abs=1e-6)
    assert net.g_branch.weights[0] == pytest.approx(1.3, abs=1e-6)
    # The network state is the scalar output: a second state column is refused.
    with open(data, "w", newline="") as fh:
        csv.writer(fh).writerows([("x", "x2", "u", "y"), (0.0, 0.0, 0.0, 0.0)])
    assert main(["train", "--data", str(data), "--f-centers", "0", "--f-width2", "1",
                 "--g-centers", "1", "--g-width2", "1", "--out", str(out)]) == 1
    assert "need exactly the columns x, u, y" in capsys.readouterr().err


def test_train_rejects_non_finite_samples_before_the_fit(tmp_path, capfd):
    data = tmp_path / "samples.csv"
    data.write_text("x,u,y\n0.0,0.5,0.1\n0.5,nan,0.2\n1.0,0.1,0.3\n1.5,0.2,0.4\n")
    argv = ["train", "--data", str(data), "--f-centers", "0", "--f-width2", "1",
            "--g-centers", "1", "--g-width2", "1", "--out", str(tmp_path / "fit.rbfnet")]
    for extra in ([], ["--ridge", "1"]):
        assert main(argv + extra) == 1
        out, err = capfd.readouterr()  # file-descriptor level: LAPACK writes there
        assert out == ""
        assert err.splitlines() == [
            "error: sample 1 is not finite: state 0.5, input nan, output 0.2"
        ]
    assert not (tmp_path / "fit.rbfnet").exists()


def test_mc_writes_summary(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code = main([
        "mc", "--config", "configs/case1.yaml", "--runs", "3",
        "--seed-base", "50", "--jobs", "1", "--out-dir", str(out_dir),
        "--save-traces",
    ])
    assert code == 0
    assert "J_M=" in capsys.readouterr().out
    with open(out_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["seed"] for r in rows] == ["50", "51", "52"]
    trace = read_trace(out_dir / "run000.csv")
    assert trace.seed == 50
    # Seed 10 of case3-eps02 diverges: the rows and trace files after it keep
    # their batch index, the one "failed runs:" reports.
    out_dir = tmp_path / "with-failure"
    with pytest.warns(UserWarning, match="1/12 runs failed"):
        code = main([
            "mc", "--config", "configs/case3-eps02.yaml", "--runs", "12",
            "--seed-base", "5", "--out-dir", str(out_dir), "--save-traces",
        ])
    assert code == 0
    assert "failed runs: [5]" in capsys.readouterr().out
    with open(out_dir / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert "5" not in [r["run"] for r in rows]
    assert read_trace(out_dir / "run006.csv").seed == 11
    assert not (out_dir / "run005.csv").exists()


def test_mc_rejects_zero_jobs(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    code = main([
        "mc", "--config", "configs/case1.yaml", "--runs", "2", "--jobs", "0",
        "--out-dir", str(out_dir),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: jobs must be >= 1\n"
    assert not out_dir.exists()


_TRAIN = ["--f-centers", "0", "--f-width2", "1", "--g-centers", "1", "--g-width2", "1"]


def test_missing_input_files_exit_with_an_error(tmp_path, capsys):
    missing = tmp_path / "missing.yaml"
    assert main(["run", "--config", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err
    missing = tmp_path / "missing.csv"
    argv = ["train", "--data", str(missing), *_TRAIN, "--out", str(tmp_path / "fit.rbfnet")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err


def test_unusable_output_paths_fail_before_the_simulation(tmp_path, monkeypatch, capsys):
    def unrun(*args, **kwargs):
        raise AssertionError("no simulation may start")

    monkeypatch.setattr(dualctl.cli, "run_experiment", unrun)
    monkeypatch.setattr(dualctl.cli, "monte_carlo", unrun)
    out = tmp_path / "no" / "such" / "t.csv"
    assert main(["run", "--config", "configs/case1.yaml", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {out}: {tmp_path / 'no' / 'such'} is not an existing directory\n"
    )
    blocker = tmp_path / "file.txt"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "sub" / "dir"):
        argv = ["mc", "--config", "configs/case1.yaml", "--runs", "2", "--out-dir", str(out_dir)]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {out_dir}: {blocker} is not an existing directory\n"
        )


def test_os_errors_while_writing_exit_with_an_error(tmp_path, monkeypatch, capsys):
    def full_disk(trace, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(dualctl.cli, "write_trace", full_disk)
    argv = ["run", "--config", "configs/case1.yaml", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "text, where",
    [
        ("x,u,y\n0.0,0.5,0.1\n0.5,abc,0.2\n", "line 3, column u: expected a number, got 'abc'"),
        ("x,u,y\n0.0,0.5,0.1\n1e400x,0.5,0.2\n", "line 3, column x: expected a number, got '1e400x'"),
        ("y,u,x\n0.1,0.5,\n", "line 2, column x: expected a number, got ''"),
        ("x,u,y\n0.0,0.5,0.1\n\n0.5,0.2\n", "line 4: expected the 3 fields x, u, y"),
        ("x,u,y\n0.0,0.5,0.1,9\n", "line 2: expected the 3 fields x, u, y"),
    ],
)
def test_train_names_the_malformed_cell(tmp_path, capsys, text, where):
    data = tmp_path / "samples.csv"
    data.write_text(text)
    argv = ["train", "--data", str(data), *_TRAIN, "--out", str(tmp_path / "fit.rbfnet")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {data}, {where}\n"
