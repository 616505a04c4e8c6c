"""Plant dynamics, disturbance schedules, reference signals and noise."""

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dualctl import (
    DisturbanceSchedule,
    PlantModel,
    ReferenceSpec,
    SimulationError,
    affine_f,
    affine_g,
    parse_config,
    reference_at,
    sample_noise,
    save_config,
    train_f,
    train_g,
    validate_segments,
)
from dualctl.plants import TRAIN_DEFAULTS


def test_affine_nonlinearities():
    for y in (-1.3, 0.0, 0.7, 2.0):
        assert affine_f(y) == pytest.approx(math.sin(y) + math.cos(3 * y), abs=1e-15)
        assert affine_g(y) == pytest.approx(2.0 + math.cos(y), abs=1e-15)


def test_affine_step_composition():
    y, u, noise = 0.4, -0.6, 0.013
    theta = (1.1, 0.9, 0.05)
    expected = 1.1 * affine_f(y) + 0.9 * affine_g(y) * u + 0.05 + noise
    plant = PlantModel(kind="affine_case1", noise_variance=0.0)
    assert plant.step(y, u, theta, noise) == pytest.approx(expected, abs=1e-15)


def test_train_resistance_model():
    v = 300.0
    resistance = 0.1 + 0.0064 * v + 0.000115 * v * v
    assert train_f(v) == pytest.approx(v - 0.06 * 0.1 * resistance, abs=1e-12)
    assert train_g(v) == pytest.approx(0.06 * 0.1, abs=1e-15)


def test_train_step_composition():
    v, u, noise = 310.0, 1500.0, -0.8
    theta = (1.05, 0.9, -12.5)
    expected = 1.05 * train_f(v) + 0.9 * train_g(v) * u - 12.5 + noise
    plant = PlantModel(kind="crh3_train", noise_variance=0.0)
    assert plant.step(v, u, theta, noise) == pytest.approx(expected, abs=1e-10)


_STEP_ARGUMENTS = ("y", "u", "alpha", "beta", "gamma", "noise")


@pytest.mark.parametrize("position", range(len(_STEP_ARGUMENTS)))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_names_the_non_finite_argument(position, bad):
    values = [0.4, -0.6, 1.1, 0.9, 0.05, 0.013]
    values[position] = bad
    y, u, a, b, g, noise = values
    plant = PlantModel(kind="affine_case1", noise_variance=0.0)
    name = _STEP_ARGUMENTS[position]
    with pytest.raises(SimulationError) as info:
        plant.step(y, u, (a, b, g), noise)
    assert str(info.value) == f"{name} is not finite: {bad}"


def test_plant_model_dispatch():
    affine = PlantModel(kind="affine_case1", noise_variance=0.0)
    assert affine.f_value(0.3) == affine_f(0.3)
    assert affine.g_value(0.3) == affine_g(0.3)
    train = PlantModel(kind="crh3_train", noise_variance=0.0)
    assert train.f_value(300.0) == train_f(300.0)
    assert train.step(300.0, 0.0, (1.0, 1.0, 0.0), 0.0) == train_f(300.0)


def _train_closed_form(xi, sampling_interval, c_r, c_m, c_a):
    xt = xi * sampling_interval
    return (lambda v: v - xt * (c_r + c_m * v + c_a * v * v)), (lambda v: xi * sampling_interval)


_CUSTOM_TRAIN = {"xi": 0.05, "c_a": 0.0002}
_PLANTS = {
    "affine_case1": (
        dict(kind="affine_case1"),
        lambda y: math.sin(y) + math.cos(3.0 * y),
        lambda y: 2.0 + math.cos(y),
    ),
    "crh3_train_default": (
        dict(kind="crh3_train"),
        *_train_closed_form(0.06, 0.1, 0.1, 0.0064, 0.000115),
    ),
    "crh3_train_custom": (
        dict(kind="crh3_train", params=_CUSTOM_TRAIN),
        *_train_closed_form(0.05, 0.1, 0.1, 0.0064, 0.0002),
    ),
    "user_defined": (
        dict(kind="user_defined", f=lambda y: 0.5 * y * y, g=lambda y: 1.0 + 0.1 * y),
        lambda y: 0.5 * y * y,
        lambda y: 1.0 + 0.1 * y,
    ),
}


@pytest.mark.parametrize("name", sorted(_PLANTS))
def test_plant_model_matches_closed_form(name):
    kwargs, f, g = _PLANTS[name]
    plant = PlantModel(noise_variance=0.0, **kwargs)
    for y, u, theta, noise in (
        (0.3, -0.7, (1.1, 0.9, 0.05), 0.013),
        (-1.2, 2.5, (0.8, 1.05, -0.1), -0.002),
        (310.0, 1500.0, (1.05, 0.9, -12.5), -0.8),
    ):
        assert plant.f_value(y) == f(y)
        assert plant.g_value(y) == g(y)
        a, b, c = theta
        assert plant.step(y, u, theta, noise) == a * f(y) + b * g(y) * u + c + noise


def test_parsed_plant_survives_save_and_pickle(tmp_path):
    cfg = parse_config("configs/case4.yaml")
    out = tmp_path / "copy.yaml"
    save_config(cfg, out)
    assert parse_config(out) == cfg
    again = pickle.loads(pickle.dumps(cfg))
    assert again == cfg
    assert again.plant.step(314.0, 800.0, (1.0, 1.0, -2.0), 0.1) == cfg.plant.step(
        314.0, 800.0, (1.0, 1.0, -2.0), 0.1
    )


def test_plant_model_user_defined_requires_callables():
    with pytest.raises(ValueError):
        PlantModel(kind="user_defined", noise_variance=0.0)
    plant = PlantModel(
        kind="user_defined", noise_variance=0.0, f=lambda y: 2 * y, g=lambda y: 1.0
    )
    assert plant.step(1.5, 0.25, (1.0, 1.0, 0.0), 0.0) == pytest.approx(3.25)


def test_plant_model_validation():
    with pytest.raises(ValueError):
        PlantModel(kind="pendulum", noise_variance=0.0)
    with pytest.raises(ValueError):
        PlantModel(kind="affine_case1", noise_variance=-1.0)


@pytest.mark.parametrize(
    "kind, params, name",
    [("crh3_train", {"xi": 0.05, "c_aa": 1.0}, "c_aa"), ("affine_case1", {"xi": 5.0}, "xi")],
)
def test_plant_model_refuses_unknown_params(kind, params, name):
    with pytest.raises(ValueError, match=f"^{kind} plant has no parameter '{name}'$"):
        PlantModel(kind=kind, noise_variance=0.0, params=params)


def test_plant_params_round_trip_through_a_config_file(tmp_path):
    cfg = parse_config("configs/case4.yaml")
    train = PlantModel(kind="crh3_train", noise_variance=0.5, params={"xi": 0.05})
    assert train.params == {**TRAIN_DEFAULTS, "xi": 0.05}
    changed = replace(cfg, plant=train)
    out = tmp_path / "changed.yaml"
    save_config(changed, out)
    assert parse_config(out) == changed
    # user_defined plants are API-only and keep whatever params they carry.
    custom = {"gain": 2.0}
    plant = PlantModel(kind="user_defined", noise_variance=0.0, params=custom, f=abs, g=abs)
    assert plant.params == custom


def test_segment_validation():
    with pytest.raises(ValueError):
        validate_segments(())
    with pytest.raises(ValueError):
        validate_segments(((2, 1.0),))  # must start at k=1
    with pytest.raises(ValueError):
        validate_segments(((1, 1.0), (5, 2.0), (5, 3.0)))  # duplicate start
    assert validate_segments(((1, 1.0), (5, 2.0))) == ((1, 1.0), (5, 2.0))


@pytest.mark.parametrize(
    "segments, field",
    [
        (((1, 1.0), (100.7, 1.11)), r"schedule\[1\]\[0\]"),  # no longer truncated to k=100
        (((True, 1.0),), r"schedule\[0\]\[0\]"),
        (((1, 1.0), (5, 2.0), (6.5, 3.0)), r"schedule\[2\]\[0\]"),
    ],
    ids=["fraction", "bool", "last-fraction"],
)
def test_segment_starts_must_be_whole_numbers(segments, field):
    with pytest.raises(ValueError, match=field + ": expected a whole number"):
        validate_segments(segments)
    with pytest.raises(ValueError, match="expected a whole number"):
        ReferenceSpec(kind="square", segments=segments)


@pytest.mark.parametrize("span", [600.9, 0.5, True])
def test_cosine_span_must_be_a_whole_number(span):
    with pytest.raises(ValueError, match="span: expected a whole number"):
        ReferenceSpec(kind="cosine", span=span)


def test_whole_float_indices_become_ints():
    segs = validate_segments(((1.0, 1.0), (100.0, 1.11)))
    assert segs == ((1, 1.0), (100, 1.11))
    assert all(type(k) is int for k, _ in segs)
    spec = ReferenceSpec(kind="cosine", span=600.0)
    assert spec.span == 600 and type(spec.span) is int


def _schedule():
    return DisturbanceSchedule(
        alpha=((1, 1.0), (100, 1.05), (250, 0.95)),
        beta=((1, 0.9),),
        gamma=((1, 0.0), (100, -0.5)),
    )


_segments = st.lists(
    st.tuples(st.integers(2, 40), st.floats(-2.0, 2.0)), max_size=4, unique_by=lambda s: s[0]
).map(lambda tail: ((1, 0.5),) + tuple(sorted(tail)))


@given(alpha=_segments, beta=_segments, gamma=_segments, n=st.integers(1, 45))
def test_schedule_rows_match_lookup(alpha, beta, gamma, n):
    # n ranges below and above the segment starts, so some segments start after n.
    sched = DisturbanceSchedule(alpha=alpha, beta=beta, gamma=gamma)
    rows = sched.rows(n)
    assert len(rows) == n
    assert rows == [sched.at(k) for k in range(1, n + 1)]


def test_schedule_rows_of_one_and_late_segments():
    sched = _schedule()
    assert sched.rows(1) == [sched.at(1)]
    assert sched.rows(100)[-2:] == [(1.0, 0.9, 0.0), (1.05, 0.9, -0.5)]
    assert sched.rows(0) == []
    with pytest.raises(ValueError):
        sched.rows(-1)


def test_schedule_piecewise_lookup():
    sched = _schedule()
    assert sched.at(1) == (1.0, 0.9, 0.0)
    assert sched.at(99) == (1.0, 0.9, 0.0)
    assert sched.at(100) == (1.05, 0.9, -0.5)
    assert sched.at(250) == (0.95, 0.9, -0.5)
    assert sched.at(10_000) == (0.95, 0.9, -0.5)
    with pytest.raises(ValueError):
        sched.at(0)


def test_cosine_reference():
    spec = ReferenceSpec(kind="cosine", amplitude=1.0, half_cycles=5, span=600)
    assert reference_at(spec, 0) == 1.0
    assert reference_at(spec, 600) == pytest.approx(math.cos(5 * math.pi), abs=1e-12)
    assert reference_at(spec, 60) == pytest.approx(math.cos(math.pi / 2), abs=1e-12)


def test_square_reference_holds_levels():
    spec = ReferenceSpec(
        kind="square", segments=((1, 1.0), (150, -1.0), (300, 1.0), (450, -1.0))
    )
    assert reference_at(spec, 1) == 1.0
    assert reference_at(spec, 149) == 1.0
    assert reference_at(spec, 150) == -1.0
    assert reference_at(spec, 700) == -1.0  # holds past the last segment


def test_logistic_train_reference_forms():
    spec = ReferenceSpec(kind="logistic_train", base=270.0, gain=50.0, rate=2.0)
    assert reference_at(spec, 1) == pytest.approx(270 + 50 / (1 + math.exp(-2)), abs=1e-12)
    assert reference_at(spec, 10) == pytest.approx(320.0, abs=1e-6)
    expanded = ReferenceSpec(
        kind="logistic_train", base=270.0, gain=50.0, rate=2.0, form="expanded"
    )
    assert reference_at(expanded, 1) == pytest.approx(270 + 50 * (1 + math.exp(-2)), abs=1e-12)
    with pytest.raises(ValueError):
        ReferenceSpec(kind="logistic_train", form="cubic")


def test_user_table_reference_clamps_tail():
    spec = ReferenceSpec(kind="user_table", values=(0.5, 0.6, 0.7))
    assert reference_at(spec, 1) == 0.5
    assert reference_at(spec, 3) == 0.7
    assert reference_at(spec, 4) == 0.7  # look-ahead target past the horizon
    with pytest.raises(ValueError):
        reference_at(spec, 0)
    with pytest.raises(ValueError):
        ReferenceSpec(kind="user_table")


def test_reference_kind_validation():
    with pytest.raises(ValueError):
        ReferenceSpec(kind="triangle")


def test_noise_sampling_is_seeded_and_scaled():
    a = np.random.default_rng(42)
    b = np.random.default_rng(42)
    assert sample_noise(a, 0.25, 1) == sample_noise(b, 0.25, 1)
    assert sample_noise(np.random.default_rng(1), 0.0, 1) == [0.0]
    with pytest.raises(ValueError):
        sample_noise(np.random.default_rng(1), -0.1, 1)


def test_zero_variance_consumes_the_stream_identically():
    # Runs that differ only in noise level must see identical generator
    # state for every other draw.
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    sample_noise(a, 0.0, 1)
    sample_noise(b, 4.0, 1)
    assert a.uniform() == b.uniform()


@pytest.mark.parametrize("seed", [0, 1, 7, 10, 399])
@pytest.mark.parametrize("variance", [0.0, 1e-4, 0.25, 4.0])
def test_batched_noise_equals_sequential_scalar_draws(seed, variance):
    # run_experiment draws a run's noise in one call; the trace must not move.
    batched_rng = np.random.default_rng(seed)
    scalar_rng = np.random.default_rng(seed)
    batched = sample_noise(batched_rng, variance, 599)
    sd = math.sqrt(variance)
    scalar = [float(scalar_rng.normal(0.0, sd)) for _ in range(599)]
    assert all(type(v) is float for v in batched)
    # Compared bit for bit, so a signed zero would show too.
    assert np.asarray(batched).tobytes() == np.asarray(scalar).tobytes()
    assert batched_rng.uniform() == scalar_rng.uniform()
    assert sample_noise(np.random.default_rng(seed), variance, 0) == []
