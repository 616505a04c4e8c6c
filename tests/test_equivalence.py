"""scripts/equivalence.py: the unit set, the trace digests and the comparison."""

import copy
import importlib.util
import math
import os
import shutil

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_SPEC = importlib.util.spec_from_file_location(
    "equivalence", os.path.join(_ROOT, "scripts", "equivalence.py")
)
equivalence = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equivalence)

TWO_UNITS = [("case1", "proposed", 0, True, False), ("case1", "optimal", 1, False, False)]


def _side(results, files=None):
    return {"units": dict(results), "files": files or {"case1/0/mc": "abc"}}


def test_unit_set_has_700_distinct_units():
    units = equivalence.units()
    assert len(units) == 700
    assert len({equivalence.unit_key(u) for u in units}) == 700


def test_identical_sides_match_and_a_perturbed_trace_is_reported():
    from dualctl import parse_config, run_experiment

    configs = {}
    results = [(equivalence.unit_key(u), equivalence.run_unit(_ROOT, u, configs)) for u in TWO_UNITS]
    assert all("fields" in r and "wall_time" not in r["fields"] for _, r in results)
    assert equivalence.compare(_side(results), _side(copy.deepcopy(results))) == []

    cfg = parse_config(os.path.join(_ROOT, "configs", "case1.yaml"))
    trace = run_experiment(cfg, seed=0, collect_posteriors=True, randomize=cfg.mc_randomize)
    key = equivalence.unit_key(TWO_UNITS[0])
    assert {"fields": equivalence.digest(trace)} == dict(results)[key]
    # One ulp in one input, a signed zero in one posterior, the wall time.
    trace.u[5] = math.nextafter(trace.u[5], math.inf)
    trace.posteriors[3][2] = -trace.posteriors[3][2]
    trace.wall_time += 1.0
    perturbed = dict(results, **{key: {"fields": equivalence.digest(trace)}})
    assert equivalence.compare(_side(results), _side(perturbed)) == [
        f"{key}: field u differs",
        f"{key}: field posteriors differs",
    ]


def test_failures_missing_units_and_trace_files_are_reported():
    parent = _side([("a", {"failure": [330, "singular"]}), ("b", {"fields": {"u": "1"}})])
    change = _side(
        [("a", {"failure": [331, "singular"]})], files={"case1/0/mc": "abd"}
    )
    assert equivalence.compare(parent, change) == [
        "a: parent [330, 'singular'], change [331, 'singular']",
        "b: run on one side only",
        "write_trace case1/0/mc: sha256 differs",
    ]
    change = _side([("a", {"fields": {"u": "1"}}), ("b", {"fields": {"u": "1"}})])
    assert equivalence.compare(parent, change) == [
        "a: parent [330, 'singular'], change None",
    ]


def test_a_checkout_matches_itself(capsys):
    assert equivalence.main([_ROOT, _ROOT, "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 units, 0 failures in the parent, 0 differences" in out
    assert "write_trace case4/0: parent " in out


def test_a_changed_or_missing_config_sum_is_reported():
    parent = dict(_side([]), configs={"case1": "a", "case4": "b"})
    assert equivalence.compare(parent, copy.deepcopy(parent)) == []
    change = dict(_side([]), configs={"case4": "c"})
    assert equivalence.compare(parent, change) == [
        "save_config case1: sha256 differs",
        "save_config case4: sha256 differs",
    ]


def test_config_sums_do_not_depend_on_where_the_checkout_is(tmp_path):
    sums = equivalence.config_file_sums(_ROOT)
    assert len(sums) == 11 and "case4" in sums
    shutil.copytree(os.path.join(_ROOT, "configs"), tmp_path / "configs")
    assert equivalence.config_file_sums(str(tmp_path)) == sums
