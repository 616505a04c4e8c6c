"""Config parsing, validation messages and round-trip serialization."""

import copy
import dataclasses
import time
from pathlib import Path

import pytest
import yaml

import dualctl.config
import dualctl.grid
from dualctl import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    parse_config,
    save_config,
)
from dualctl.config import MAX_GRID_SIZE, MAX_ITERATIONS
from dualctl.plants import REFERENCE_FIELDS, ReferenceSpec

BUNDLED = [
    "case1", "case2", "case4",
    "case3-eps005", "case3-eps0075", "case3-eps01", "case3-eps02",
    "case3g-eps005", "case3g-eps01", "case3g-eps02", "case3g-eps04",
]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_parse(name):
    cfg = parse_config(f"configs/{name}.yaml")
    assert cfg.name == name
    assert cfg.iterations == 600
    assert 1 <= cfg.build_grid().size <= MAX_GRID_SIZE
    assert cfg.network.f_branch.size > 0
    assert config_from_dict(config_to_dict(cfg), base_dir="configs") == cfg


def test_case1_config_contents():
    cfg = parse_config("configs/case1.yaml")
    grid = cfg.build_grid()
    assert grid.size == 15
    assert (grid.alpha.count, grid.beta.count, grid.gamma.count) == (5, 3, 1)
    assert cfg.controller.dual_lambda == 0.9
    assert cfg.reset.admissible_error == 0.08
    assert cfg.plant.noise_variance == 0.0004
    assert cfg.mc_randomize == ("alpha", "beta")
    # interval_variance initial covariance: diag(width^2 / 12) per channel
    assert cfg.initial_covariance[0][0] == pytest.approx(0.5**2 / 12, abs=1e-15)
    assert cfg.initial_covariance[1][1] == pytest.approx(0.3**2 / 12, abs=1e-15)
    assert cfg.initial_covariance[2][2] == pytest.approx(0.1**2 / 12, abs=1e-15)
    schedule = cfg.build_schedule()
    starts = {k for segs in (schedule.alpha, schedule.beta, schedule.gamma) for k, _ in segs[1:]}
    assert sorted(starts) == [85, 180, 340, 520]


def test_case4_config_contents():
    cfg = parse_config("configs/case4.yaml")
    grid = cfg.build_grid()
    assert grid.size == 105
    assert (grid.alpha.count, grid.beta.count, grid.gamma.count) == (7, 1, 15)
    assert cfg.plant.kind == "crh3_train"
    assert cfg.plant.noise_variance == 1.0
    assert cfg.reference.kind == "logistic_train"
    assert cfg.initial_output == 314.0
    assert cfg.reset.admissible_error == 1.5


def _template(name="case1"):
    with open(f"configs/{name}.yaml") as fh:
        return yaml.safe_load(fh)


def test_round_trip_through_dict_is_identity():
    cfg = parse_config("configs/case1.yaml")
    again = config_from_dict(config_to_dict(cfg), base_dir="configs")
    assert again == cfg


def test_round_trip_through_file_is_identity(tmp_path):
    cfg = parse_config("configs/case2.yaml")
    out = tmp_path / "copy.yaml"
    save_config(cfg, out)
    assert parse_config(out) == cfg


def test_missing_field_names_the_path():
    raw = _template()
    del raw["channels"]["alpha"]["eps"]
    with pytest.raises(ConfigError, match="channels.alpha.eps"):
        config_from_dict(raw, base_dir="configs")


def test_wrong_type_is_rejected():
    raw = _template()
    raw["iterations"] = "many"
    with pytest.raises(ConfigError, match="iterations"):
        config_from_dict(raw, base_dir="configs")
    raw = _template()
    raw["iterations"] = True  # bools are not iteration counts
    with pytest.raises(ConfigError, match="iterations"):
        config_from_dict(raw, base_dir="configs")


def test_unknown_plant_kind_is_rejected():
    raw = _template()
    raw["plant"]["kind"] = "inverted_pendulum"
    with pytest.raises(ConfigError, match=r"^config\.plant\.kind: "):
        config_from_dict(raw, base_dir="configs")


def test_schedule_start_beyond_horizon_is_rejected():
    raw = _template()
    raw["channels"]["alpha"]["schedule"] = [[1, 1.0], [601, 0.9]]
    with pytest.raises(ConfigError, match="channels.alpha.schedule"):
        config_from_dict(raw, base_dir="configs")


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (
            ("channels", "alpha", "schedule"),
            [[1, 1.0], [100.7, 1.11]],
            "config.channels.alpha.schedule[1][0]: expected a whole number, got 100.7",
        ),
        (
            ("reference",),
            {"kind": "square", "segments": [[1, 1.0], [150.9, -1.0]]},
            "config.reference.segments[1][0]: expected a whole number, got 150.9",
        ),
        (("reference", "span"), 600.9, "config.reference: span: expected a whole number, got 600.9"),
        (("schema_version",), True, "config.schema_version: expected int, got bool"),
        (("seed",), False, "config.seed: expected int, got bool"),
        # Errors that already name their field are not prefixed a second time.
        (
            ("reference",),
            {"kind": "square", "segments": [[1, 1.0], [1, -1.0]]},
            "config.reference.segments: segment starting at k=1 overlaps or reorders the one "
            "at k=1",
        ),
        (
            ("reference",),
            {"kind": "cosine", "half_cycles": "x", "span": 600},
            "config.reference.half_cycles: expected a number, got str",
        ),
        (
            ("reference",),
            {"kind": "user_table", "values": [1, "a"]},
            "config.reference.values[1]: expected a number, got str",
        ),
        (("reference",), {"kind": "square"}, "config.reference.segments: missing required field"),
    ],
    ids=[
        "schedule-start",
        "square-segment-start",
        "span",
        "schema-version-bool",
        "seed-bool",
        "square-overlap",
        "cosine-half-cycles-str",
        "user-table-str",
        "square-no-segments",
    ],
)
def test_integer_fields_reject_fractions_and_booleans(keys, value, message):
    raw = _template()
    *parents, key = keys
    node = raw
    for name in parents:
        node = node[name]
    node[key] = value
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw, base_dir="configs")
    assert str(info.value) == message


def test_whole_number_floats_are_integer_fields():
    raw = _template()
    raw["reference"]["span"] = 600.0
    raw["channels"]["alpha"]["schedule"][1][0] = 85.0
    assert config_from_dict(raw, base_dir="configs") == parse_config("configs/case1.yaml")


@pytest.mark.parametrize(
    "name, keys, value, message",
    [
        ("case1", ("reset", "posterior_treshold"), 0.5, "config.reset.posterior_treshold"),
        ("case1", ("controller", "input_clmp"), 2.0, "config.controller.input_clmp"),
        ("case1", ("initial_covarience",), "zero", "config.initial_covarience"),
        ("case1", ("monte_carlo", "randomise"), ["gamma"], "config.monte_carlo.randomise"),
        ("case4", ("plant", "params"), {"c_aa": 1.0}, "config.plant.params.c_aa"),
        ("case1", ("plant", "params"), {"xi": 5.0}, "config.plant.params.xi"),
    ],
    ids=["reset", "controller", "top-level", "monte-carlo", "train-params", "affine-params"],
)
def test_unknown_fields_are_rejected(name, keys, value, message):
    raw = _template(name)
    *parents, key = keys
    node = raw
    for part in parents:
        node = node[part]
    node[key] = value
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw, base_dir="configs")
    assert str(info.value) == f"{message}: unknown field"


def test_iterations_are_bounded_before_the_reference_is_evaluated():
    assert MAX_ITERATIONS == 100_000
    raw = _template()
    raw["iterations"] = 10**12
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=r"^config\.iterations: "):
        config_from_dict(raw, base_dir="configs")
    assert time.perf_counter() - start < 1.0


def test_schema_version_is_checked():
    raw = _template()
    raw["schema_version"] = 99
    with pytest.raises(ConfigError, match="schema_version"):
        config_from_dict(raw, base_dir="configs")


def test_initial_covariance_forms():
    raw = _template()
    raw["initial_covariance"] = "identity"
    cfg = config_from_dict(raw, base_dir="configs")
    assert cfg.initial_covariance == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

    raw["initial_covariance"] = "zero"
    cfg = config_from_dict(raw, base_dir="configs")
    assert cfg.initial_covariance == ((0.0,) * 3,) * 3

    explicit = [[0.1, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.3]]
    raw["initial_covariance"] = explicit
    cfg = config_from_dict(raw, base_dir="configs")
    assert cfg.initial_covariance == ((0.1, 0.0, 0.0), (0.0, 0.2, 0.0), (0.0, 0.0, 0.3))

    raw["initial_covariance"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ConfigError, match="initial_covariance"):
        config_from_dict(raw, base_dir="configs")

    raw["initial_covariance"] = "diagonal"
    with pytest.raises(ConfigError, match="initial_covariance"):
        config_from_dict(raw, base_dir="configs")


@pytest.mark.parametrize(
    "path, value",
    [
        (("reference", "amplitude"), float("nan")),
        (("reference", "amplitude"), float("inf")),
        (("controller", "input_clamp"), float("inf")),
        (("plant", "noise_variance"), float("inf")),
        (("channels", "alpha", "schedule"), [[1, 1.0], [85, float("nan")]]),
        (("channels", "beta", "schedule"), [[1, 0.9], [float("inf"), 0.8]]),
        (("initial_covariance",), [[1.0, 0.0, 0.0], [0.0, float("inf"), 0.0], [0.0, 0.0, 1.0]]),
        (("reference",), {"kind": "user_table", "values": [0.1, float("-inf")]}),
    ],
)
def test_non_finite_numbers_are_rejected(path, value):
    raw = _template()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with pytest.raises(ConfigError, match=r"\.".join(path)):
        config_from_dict(raw, base_dir="configs")


@pytest.mark.parametrize(
    "matrix",
    [
        [[1, 0.5, 0], [0, 1, 0], [0, 0, 1]],  # asymmetric
        [[-1, 0, 0], [0, 1, 0], [0, 0, 1]],  # indefinite
    ],
)
def test_initial_covariance_must_be_symmetric_psd(matrix):
    raw = _template()
    raw["initial_covariance"] = matrix
    with pytest.raises(ConfigError, match="config.initial_covariance"):
        config_from_dict(raw, base_dir="configs")


def test_reference_must_stay_finite_over_the_horizon():
    raw = _template()
    raw["reference"]["half_cycles"] = 1e308  # cos of an infinite phase
    with pytest.raises(ConfigError, match="config.reference"):
        config_from_dict(raw, base_dir="configs")


def test_seed_must_be_non_negative():
    raw = _template()
    raw["seed"] = -1
    with pytest.raises(ConfigError, match="config.seed"):
        config_from_dict(raw, base_dir="configs")


def test_grid_size_is_bounded_without_building_the_grid(monkeypatch):
    def unbuilt(interval):
        raise AssertionError("validation must not partition an interval")

    monkeypatch.setattr(dualctl.grid, "partition_interval", unbuilt)
    raw = _template()  # alpha spans 0.5 and beta 0.3, gamma has one candidate
    raw["channels"]["alpha"]["eps"] = 0.005  # 100 candidates
    raw["channels"]["beta"]["eps"] = 0.003  # 100 candidates
    assert MAX_GRID_SIZE == 10_000
    config_from_dict(raw, base_dir="configs")
    raw["channels"]["beta"]["eps"] = 0.3 / 100.5  # 101 candidates
    with pytest.raises(ConfigError, match="100 x 101 x 1 candidates, more than 10000"):
        config_from_dict(raw, base_dir="configs")
    raw["channels"]["alpha"]["eps"] = 1e-7  # five million midpoints
    with pytest.raises(ConfigError, match="config.channels: the candidate grid"):
        config_from_dict(raw, base_dir="configs")
    raw["channels"]["alpha"]["eps"] = 5e-324  # width / eps overflows
    with pytest.raises(ConfigError, match="config.channels: the candidate grid"):
        config_from_dict(raw, base_dir="configs")


def test_randomize_names_are_validated():
    raw = _template()
    raw["monte_carlo"] = {"randomize": ["alpha", "delta"]}
    with pytest.raises(ConfigError, match="monte_carlo.randomize"):
        config_from_dict(raw, base_dir="configs")


def test_network_path_resolves_relative_to_config(tmp_path):
    raw = _template()
    nested = tmp_path / "sub"
    nested.mkdir()
    (nested / "networks").mkdir()
    src = Path("configs/networks/case1_affine.rbfnet").read_text()
    (nested / "networks" / "case1_affine.rbfnet").write_text(src)
    path = nested / "exp.yaml"
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    cfg = parse_config(path)
    assert cfg.network.f_branch.size == 9


@pytest.mark.parametrize(
    "old, new, line",
    [("weights 11.2856", "weights nan", 17), ("basis 1.0 -2.0", "basis 1.0 inf", 8)],
)
def test_non_finite_network_is_a_config_error_naming_file_and_line(tmp_path, old, new, line):
    src = Path("configs/networks/case1_affine.rbfnet").read_text()
    assert src.count(old) == 1
    (tmp_path / "bad.rbfnet").write_text(src.replace(old, new))
    raw = _template()
    raw["network"] = "bad.rbfnet"
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump(raw, sort_keys=False))
    with pytest.raises(ConfigError) as info:
        parse_config(tmp_path / "exp.yaml")
    assert f"bad.rbfnet, line {line}: branch f:" in str(info.value)
    assert "must be finite" in str(info.value)


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("weights 11.2856", "weights 11.2856x", 17, "branch f: weights: expected numbers"),
        ("basis 1.0 -2.0", "basis 1.0 -2.0e", 8, "branch f: basis: expected numbers"),
        ("basis 1.0 -2.0", "basis 0.0 -2.0", 8, "branch f: basis width^2 must be > 0, got 0.0"),
        ("basis 1.0 -2.0", "basis -1.0 -2.0", 8, "branch f: basis width^2 must be > 0, got -1.0"),
        ("branch f 9", "branch f nine", 7, "branch f: expected an integer basis count, got 'nine'"),
        (
            "weights -0.4449 3.5097 -0.4449",
            "weights -0.4449 3.5097 -0.4449\nbranch f 1\nbasis 1.0 0.0\nweights 99.0",
            23,
            "branch f: defined a second time",
        ),
    ],
)
def test_malformed_network_number_is_a_config_error_naming_file_and_line(
    tmp_path, old, new, line, message
):
    src = Path("configs/networks/case1_affine.rbfnet").read_text()
    assert src.count(old) == 1
    (tmp_path / "bad.rbfnet").write_text(src.replace(old, new))
    raw = _template()
    raw["network"] = "bad.rbfnet"
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump(raw, sort_keys=False))
    with pytest.raises(ConfigError) as info:
        parse_config(tmp_path / "exp.yaml")
    assert f"bad.rbfnet, line {line}: {message}" in str(info.value)


def test_missing_network_file_reports_path():
    raw = _template()
    raw["network"] = "networks/nonexistent.rbfnet"
    with pytest.raises(ConfigError, match="network"):
        config_from_dict(raw, base_dir="configs")


@pytest.mark.parametrize(
    "mapping, spec",
    [
        (
            {"kind": "cosine", "half_cycles": 3, "span": 150},
            ReferenceSpec(kind="cosine", amplitude=1.0, half_cycles=3.0, span=150),
        ),
        (
            {"kind": "cosine", "amplitude": None, "half_cycles": 3, "span": 150},
            ReferenceSpec(kind="cosine", amplitude=1.0, half_cycles=3.0, span=150),
        ),
        (
            {"kind": "square", "segments": [[1, 0.5], [200, -0.25]]},
            ReferenceSpec(kind="square", segments=((1, 0.5), (200, -0.25))),
        ),
        (
            {"kind": "logistic_train", "base": 1.5, "gain": -2, "rate": 0.125, "form": "expanded"},
            ReferenceSpec(kind="logistic_train", base=1.5, gain=-2.0, rate=0.125, form="expanded"),
        ),
        (
            {"kind": "logistic_train", "base": 1.5, "gain": -2, "rate": 0.125, "form": None},
            ReferenceSpec(kind="logistic_train", base=1.5, gain=-2.0, rate=0.125, form="logistic"),
        ),
        (
            {"kind": "user_table", "values": [0.25, -1, 3.5]},
            ReferenceSpec(kind="user_table", values=(0.25, -1.0, 3.5)),
        ),
    ],
    ids=[
        "cosine-omitted", "cosine-null", "square", "logistic-expanded", "logistic-null", "user-table"
    ],
)
def test_every_reference_kind_round_trips(tmp_path, mapping, spec):
    cfg = dataclasses.replace(parse_config("configs/case1.yaml"), reference=spec)
    assert config_from_dict(dict(_template(), reference=mapping), base_dir="configs") == cfg
    written = config_to_dict(cfg)
    assert tuple(written["reference"]) == ("kind",) + REFERENCE_FIELDS[spec.kind]
    assert config_from_dict(written) == cfg
    save_config(cfg, tmp_path / "copy.yaml")
    assert parse_config(tmp_path / "copy.yaml") == cfg


@pytest.mark.parametrize(
    "path",
    [
        ("initial_output",),
        ("plant", "noise_variance"),
        ("reference", "half_cycles"),
        ("channels", "gamma", "eps"),
        ("controller", "dual_lambda"),
        ("reset", "admissible_error"),
    ],
)
def test_a_null_required_number_is_a_config_error(path):
    raw = _template()
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = None
    with pytest.raises(ConfigError) as info:
        config_from_dict(raw, base_dir="configs")
    assert str(info.value) == f"config.{'.'.join(path)}: expected a number, got NoneType"


@pytest.mark.parametrize("name", BUNDLED)
def test_libyaml_and_python_loaders_read_equal_documents(name, tmp_path):
    saved = tmp_path / "saved.yaml"
    save_config(parse_config(f"configs/{name}.yaml"), saved)
    for path, base_dir in ((f"configs/{name}.yaml", "configs"), (saved, tmp_path)):
        text = Path(path).read_text()
        # The fallback loader reads the config parse_config reads.
        python = yaml.load(text, Loader=yaml.SafeLoader)
        assert config_from_dict(python, base_dir=str(base_dir)) == parse_config(path)
        if yaml.__with_libyaml__:  # repr tells 1 from 1.0 and -0.0 from 0.0
            assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(python)


@pytest.mark.parametrize("loader", ["C", "Python"])
def test_malformed_yaml_is_a_config_error_naming_file_line_and_column(tmp_path, monkeypatch, loader):
    if loader == "C" and not yaml.__with_libyaml__:
        pytest.skip("pyyaml is built without libyaml")
    monkeypatch.setattr(
        dualctl.config, "_LOADER", yaml.CSafeLoader if loader == "C" else yaml.SafeLoader
    )
    path = tmp_path / "bad.yaml"
    path.write_text("schema_version: 1\nname: [a, b\niterations: 3\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    message = str(info.value)
    assert message.startswith(f"{path}: not valid YAML: while parsing a flow sequence\n")
    assert f'in "{path}", line 2, column 7' in message


def _write_document(tmp_path, raw):
    """``raw``, a mapping or its text, saved as tmp_path/exp.yaml beside case1's network."""
    (tmp_path / "networks").mkdir()
    network = "networks/case1_affine.rbfnet"
    (tmp_path / network).write_text(Path(f"configs/{network}").read_text())
    path = tmp_path / "exp.yaml"
    path.write_text(raw if isinstance(raw, str) else yaml.safe_dump(raw, sort_keys=False))
    return path


def test_network_path_that_is_a_directory_is_a_config_error(tmp_path):
    raw = _template()
    raw["network"] = "networks"
    with pytest.raises(ConfigError, match=r"^config\.network: .*Is a directory"):
        parse_config(_write_document(tmp_path, raw))


def test_document_that_is_not_utf8_is_a_config_error(tmp_path):
    path = _write_document(tmp_path, Path("configs/case1.yaml").read_text())
    path.write_bytes(path.read_bytes() + b"# caf\xe9\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    assert str(info.value).startswith(f"{path}: not valid YAML: 'utf-8' codec can't decode")


@pytest.mark.parametrize("loader", ["C", "Python"])
@pytest.mark.parametrize(
    "line, repeat, indent, key",
    [
        ("seed: 4", "seed: 3", "", "seed"),
        ("  noise_variance: 0.0004", "  noise_variance: 1.0", "  ", "noise_variance"),
        ("    eps: 0.1", "    eps: 0.5", "    ", "eps"),
    ],
    ids=["top", "plant", "channels.alpha"],
)
def test_repeated_key_is_a_config_error_naming_file_and_line(
    tmp_path, monkeypatch, loader, line, repeat, indent, key
):
    if loader == "C":  # the loader parse_config uses when pyyaml has libyaml
        if not yaml.__with_libyaml__:
            pytest.skip("pyyaml is built without libyaml")
        assert issubclass(dualctl.config._LOADER, yaml.CSafeLoader)
    else:
        monkeypatch.setattr(
            dualctl.config, "_LOADER",
            type("Loader", (dualctl.config._UniqueKeys, yaml.SafeLoader), {}),
        )
    lines = Path("configs/case1.yaml").read_text().splitlines()
    at = lines.index(line)  # the first occurrence: channels.alpha comes before beta and gamma
    assert lines[at - 1].startswith(indent)  # so the repeat lands in the same mapping
    lines.insert(at, repeat)
    path = _write_document(tmp_path, "\n".join(lines) + "\n")
    with pytest.raises(ConfigError) as info:
        parse_config(path)
    message = str(info.value)
    assert message.startswith(f"{path}: not valid YAML: while constructing a mapping\n")
    assert f"found a repeated key {key!r}\n  in \"{path}\", line {at + 2}, column {len(indent) + 1}" in message


@pytest.mark.parametrize("name", ["two\nlines", "  padded  "])
def test_name_that_a_trace_cannot_read_back_is_a_config_error(tmp_path, name):
    raw = _template()
    raw["name"] = name
    with pytest.raises(ConfigError) as info:
        parse_config(_write_document(tmp_path, raw))
    assert str(info.value) == (
        f"config.name: must be one line without surrounding spaces, got {name!r}"
    )
