"""The summary of scripts/bench_pairs.py on synthetic benchmark results."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15},
    {"name": "trace_io_s", "unit": "s", "better": "lower", "bound": 0.1},  # reported by no workload
]


def _runs(values, correct=True):
    """One ``{workload: result}`` per pair, shaped like bench/run.py's result file."""
    return [
        {
            "w": {
                "result": {
                    "correct": correct,
                    "metrics": {
                        "runs_per_s": {"value": rate, "unit": "1/s"},
                        "wall_s": {"value": wall, "unit": "s"},
                    },
                }
            }
        }
        for rate, wall in values
    ]


def test_summary_reports_medians_quartiles_wins_and_bounds():
    parent = _runs([(10.0, 1.0), (11.0, 1.1), (12.0, 0.9), (13.0, 1.0), (14.0, 1.2)])
    # The change wins four rate pairs, ties one; its walls are 20% slower.
    change = _runs([(12.0, 1.2), (11.0, 1.32), (13.0, 1.08), (15.0, 1.2), (16.0, 1.44)])
    summary = bench_pairs.summarize({"parent": parent, "change": change}, END_TO_END)
    rate = summary["w"]["runs_per_s"]
    assert rate["parent_median"] == 12.0 and rate["change_median"] == 13.0
    assert rate["parent_quartiles"] == [11.0, 13.0]
    assert rate["change_quartiles"] == [12.0, 15.0]
    assert rate["change_rel"] == pytest.approx(1 / 12)
    assert rate["change_wins"] == "4/5"
    assert rate["within_bound"] is True
    assert rate["gain_beyond_parent_iqr"] is False  # +1.0 is inside the IQR of 2.0
    wall = summary["w"]["wall_s"]
    assert wall["parent_median"] == 1.0 and wall["change_median"] == pytest.approx(1.2)
    assert wall["change_wins"] == "0/5"
    assert wall["within_bound"] is False  # 20% slower against a 15% bound
    assert wall["gain_beyond_parent_iqr"] is False
    assert "trace_io_s" not in summary["w"]
    assert summary["w"]["correct"] is True


def test_summary_gain_beyond_iqr_and_correctness():
    parent = _runs([(10.0, 1.0), (10.1, 1.0), (10.2, 1.0), (10.0, 1.0)])
    change = _runs([(12.0, 0.8), (12.1, 0.8), (12.2, 0.8), (12.0, 0.8)], correct=False)
    summary = bench_pairs.summarize({"parent": parent, "change": change}, END_TO_END)
    assert summary["w"]["runs_per_s"]["gain_beyond_parent_iqr"] is True
    assert summary["w"]["runs_per_s"]["change_wins"] == "4/4"
    # Lower is better for wall_s: 0.8 against 1.0 gains beyond an IQR of 0.
    assert summary["w"]["wall_s"]["gain_beyond_parent_iqr"] is True
    assert summary["w"]["wall_s"]["change_rel"] == pytest.approx(-0.2)
    assert summary["w"]["correct"] is False


def test_slim_drops_only_the_sample_lists():
    result = {"result": {"correct": True}, "run_samples_s": [0.1] * 500, "unit_walls_s": [1.0],
              "scales": [0.9], "setup_samples_s": [0.2], "raw": {"wall_s": 1.0}}
    assert bench_pairs.slim(result) == {
        "result": {"correct": True}, "setup_samples_s": [0.2], "raw": {"wall_s": 1.0}
    }


def _traced(self_s, stage, calls=7):
    """One traced pass, shaped like bench_pairs.run_traced's result."""
    return {
        "host": {"commit": "c"},
        "correct": True,
        "metrics": {
            "learner.bayes_step.calls": calls,
            "learner.bayes_step.self_s": self_s,
            "learner.bayes_step.share": 0.5,
            "stage.observe": stage,
            "trace.overhead": 1.3,
        },
    }


def test_traced_medians_cover_self_times_and_stage_timers_only():
    passes = [_traced(0.66, 900.0), _traced(0.52, 1100.0), _traced(0.60, 1000.0)]
    assert bench_pairs.traced_medians(passes) == {
        "learner.bayes_step.self_s": 0.60,
        "stage.observe": 1000.0,
    }


def test_traced_passes_alternate_on_every_workload(tmp_path, monkeypatch):
    dirs = {side: tmp_path / side for side in bench_pairs.SIDES}
    for d in dirs.values():
        d.mkdir()
    (dirs["parent"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    side_of = {str(d): side for side, d in dirs.items()}
    calls = []

    def run_pair(checkout, seed, seconds):
        rate = {"parent": 10.0, "change": 12.0}[side_of[checkout]]
        result = _runs([(rate, 1.0)])[0]["w"]
        result["host"] = {"commit": side_of[checkout]}
        return {"w": result, "v": result}

    def run_traced(checkout, workload, seed, seconds):
        side = side_of[checkout]
        calls.append((workload, side))
        n = sum(1 for w, s in calls if (w, s) == (workload, side))
        return _traced({"parent": 0.5, "change": 0.3}[side] + n / 100, 100.0 * n)

    monkeypatch.setattr(bench_pairs, "checkout_commit", lambda checkout: side_of[checkout])
    monkeypatch.setattr(bench_pairs, "run_pair", run_pair)
    monkeypatch.setattr(bench_pairs, "run_traced", run_traced)
    out = tmp_path / "BENCH.json"
    argv = [str(dirs["parent"]), str(dirs["change"]), "--pairs", "2", "--seed", "5",
            "--seconds", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0

    # Three passes per side and workload; even passes run the parent first.
    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [("w", s) for s in order] + [("v", s) for s in order]
    written = json.loads(out.read_text())
    assert (written["parent_commit"], written["change_commit"]) == bench_pairs.SIDES
    traced = written["traced"]
    assert traced["passes"] == bench_pairs.TRACED_PASSES == 3
    for workload in ("w", "v"):
        entry = traced["workloads"][workload]
        assert [len(entry[side]) for side in bench_pairs.SIDES] == [3, 3]
        assert entry["median"]["parent"] == {
            "learner.bayes_step.self_s": pytest.approx(0.52), "stage.observe": 200.0
        }
        assert entry["median"]["change"]["learner.bayes_step.self_s"] == pytest.approx(0.32)


def test_a_directory_without_a_commit_is_refused_before_any_run(tmp_path, monkeypatch):
    # The parent is a repository with one commit; the change is a plain tree,
    # as git archive leaves it.
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(parent)]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", "c"], check=True)
    head = subprocess.run(
        [*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True
    ).stdout.strip()
    assert bench_pairs.checkout_commit(str(parent)) == head

    def run_pair(checkout, seed, seconds):
        raise AssertionError("ran a benchmark")

    monkeypatch.setattr(bench_pairs, "run_pair", run_pair)
    argv = [str(parent), str(change), "--pairs", "2", "--seed", "5", "--seconds", "1",
            "--out", str(tmp_path / "BENCH.json")]
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(argv)
    message = str(info.value)
    assert message.startswith(f"{change}: ") and "git worktree add" in message
    assert not (tmp_path / "BENCH.json").exists()
