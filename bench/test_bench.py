"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
from tracer import TRACED, Tracer, _bindings, installed_wrappers  # noqa: E402
from workloads import WORKLOADS, compare, input_order  # noqa: E402

dualctl = bench.import_program()

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def session_for(workload, seed, tmp_path):
    return bench.Session(dualctl, workload, seed, str(tmp_path))


def exact_counts(metrics):
    names = ("harness.iterations", "harness.failed_runs", "harness.trace_bytes")
    return {k: v for k, (v, _) in metrics.items() if k.endswith(".calls") or k in names}


@pytest.mark.parametrize("name, units", [("mc-coarse", 1), ("run-trace-case4", 2)])
def test_traced_counts_and_j_m_repeat_exactly(name, units, tmp_path):
    workload = replace(WORKLOADS[name], traced_units=units)
    first, _ = bench.traced(session_for(workload, 3, tmp_path), seconds=0.01)
    second, _ = bench.traced(session_for(workload, 3, tmp_path), seconds=0.01)
    assert exact_counts(first) == exact_counts(second)
    assert first["e2e.j_m"] == second["e2e.j_m"]
    assert first["harness.useful_iter_frac"] == second["harness.useful_iter_frac"]
    assert first["harness.run_experiment.calls"][0] == units * workload.batch
    if name == "run-trace-case4":
        assert first["harness.write_trace.calls"][0] == first["harness.read_trace.calls"][0] == units
        assert first["harness.trace_bytes"][0] > 0


def test_every_wrapper_is_removed_after_a_traced_run(tmp_path):
    before = {name: _bindings(dualctl, name) for name in TRACED}
    original = dualctl.learner.bayes_step
    tracer = Tracer(dualctl)
    tracer.install()
    try:
        assert dualctl.harness.bayes_step.__wrapped__ is original
        wrapped = installed_wrappers(dualctl)
        assert "dualctl.harness.bayes_step" in wrapped
        assert "dualctl.cli.run_experiment" in wrapped
        assert "dualctl.plants.PlantModel.step" in wrapped
    finally:
        tracer.uninstall()
    workload = replace(WORKLOADS["run-trace-case4"], traced_units=1)
    bench.traced(session_for(workload, 0, tmp_path), seconds=0.01)
    assert installed_wrappers(dualctl) == []
    assert dualctl.harness.bayes_step is dualctl.learner.bayes_step is original
    assert {name: _bindings(dualctl, name) for name in TRACED} == before


def test_seed_10_of_case3_eps02_counts_in_failed_frac(tmp_path):
    workload = WORKLOADS["mc-coarse"]
    assert all(base <= 10 < base + workload.batch for base in workload.inputs)
    session = session_for(workload, 0, tmp_path)
    outcome = session.unit(workload.inputs[0])
    assert outcome.mismatches == []
    assert outcome.observed["failures"] == [10 - workload.inputs[0]]
    assert bench.workload_metrics([outcome], [outcome])["e2e.failed_frac"] == 1 / workload.batch


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_seed_changes_inputs_and_outputs_match_references(name, tmp_path):
    workload = WORKLOADS[name]
    orders = [input_order(workload, seed) for seed in range(4)]
    assert all(sorted(o) == sorted(workload.inputs) for o in orders)
    assert len({tuple(o) for o in orders}) == len(orders)
    assert input_order(workload, 2) == orders[2]
    firsts = {o[0] for o in orders}
    for inp in sorted(firsts)[:2]:
        session = session_for(workload, 0, tmp_path)
        outcome = session.unit(inp)
        assert outcome is not None, session.errors
        assert outcome.mismatches == []


def test_check_detects_a_change_beyond_the_tolerance(tmp_path):
    workload = WORKLOADS["run-trace-case4"]
    session = session_for(workload, 0, tmp_path)
    inp = workload.inputs[0]
    outcome = session.unit(inp)
    reference = session.references[inp]
    assert compare(outcome.observed, reference) == []
    y = list(outcome.observed["y"])
    y[100] += 1e-12 * abs(y[100]) / 2
    assert compare(dict(outcome.observed, y=y), reference) == []
    y[100] += 1e-9 * abs(y[100])
    assert compare(dict(outcome.observed, y=y), reference) != []
    assert compare(dict(outcome.observed, argmax_sha256="0"), reference) != []


def test_metric_names_match_benchmark_json(tmp_path):
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench.per_layer_units())
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.per_layer_units()
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    metrics, _ = bench.untraced(session_for(WORKLOADS["mc-coarse"], 1, tmp_path), seconds=0.01)
    assert set(metrics) == set(bench.E2E_UNITS)
    assert all(value > 0 for value, _ in metrics.values())
