"""The one SimConfig schema: sweep-spec ``base``, manifest echo, trace record."""
import dataclasses
import json
import re
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import snapdetect
from _corpora import long_traces_corpus, scale_dense_corpus
from _oracles import three_axis_config_for_point
from snapdetect import simulate
from snapdetect.experiment import SpecError, _axis_numeric, _axis_repr, config_for_point, load_spec, parse_spec, run_sweep
from snapdetect.simulate import (
    MAX_MESSAGE_ATTEMPTS,
    MAX_ROOMS,
    MAX_TRAJECTORY_STAYS,
    ConfigError,
    SimConfig,
    generate_trace,
)
from snapdetect.tracefile import load_trace, save_trace

FIXTURES = sorted((Path(snapdetect.__file__).parent / "fixtures").glob("scenario_*.jsonl"))
ROOT = Path(__file__).resolve().parents[1]
SPECS = sorted((ROOT / "specs").glob("*.json"))

#: Every field but the seed, off its default, under its spec name.
SPEC_BASE = {
    "nodes": 3,
    "instances_per_node": 3,
    "events_per_process": 7,
    "event_lifespan_ms": [1.5, 2.2504],
    "message_delay_ms": [0.0004, 3],
    "inter_event_gap_ms": [2, 4.0006],
    "start_jitter_ms": 0.0016,
    "error_rate": 0.25,
    "stay_mean_ms": 1234.5678,
    "users": 5,
    "rooms": 3,
    "peer_fanout": 2,
}

#: What ``SPEC_BASE`` converts to: times as ``int(round(ms * 1000))``.
SPEC_CONFIG = SimConfig(
    nodes=3,
    instances_per_node=3,
    events_per_process=7,
    event_lifespan_us=(1500, 2250),
    message_delay_us=(0, 3000),
    inter_event_gap_us=(2000, 4001),
    start_jitter_us=2,
    error_rate=0.25,
    stay_mean_us=1234568,
    users=5,
    rooms=3,
    peer_fanout=2,
)

#: Every field off its default, seed included.
OFF_DEFAULT = dataclasses.replace(
    SPEC_CONFIG, event_lifespan_us=(1000, 2000), message_delay_us=(100, 900), seed=7
)


def spec(**base):
    return {"base": base, "sweep": {"axis": "nodes", "points": [2]}, "seeds": [1]}


def test_spec_base_names_every_field_but_seed():
    names = {f.name for f in dataclasses.fields(SimConfig)} - {"seed"}
    assert {k.replace("_ms", "_us") for k in SPEC_BASE} == names


def test_spec_base_converts_every_field_exactly():
    base = parse_spec(spec(**SPEC_BASE)).base
    assert base == SPEC_CONFIG
    for f in dataclasses.fields(SimConfig):
        got, want = getattr(base, f.name), getattr(SPEC_CONFIG, f.name)
        assert type(got) is type(want), f.name
        if isinstance(want, tuple):
            assert [type(v) for v in got] == [int, int], f.name


def test_spec_values_other_than_times_pass_through_raw():
    base = parse_spec(spec(nodes=2, error_rate=0)).base
    assert base.error_rate == 0 and type(base.error_rate) is int


def test_spec_range_takes_one_number_as_lo_and_hi():
    base = parse_spec(spec(nodes=2, message_delay_ms=2.5, inter_event_gap_ms=[1, 3])).base
    assert base.message_delay_us == (2500, 2500) and base.inter_event_gap_us == (1000, 3000)


def test_readme_spec_example_parses_to_the_documented_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Sweep spec format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    parsed = parse_spec(json.loads(re.sub(r"//.*", "", example)))
    # Every base value the example lists but two is SimConfig's default.
    assert parsed.base == SimConfig(nodes=4, events_per_process=8)
    assert parsed.axis == "delay_ms" and len(parsed.seeds) == 30


@pytest.mark.parametrize(
    "field, value",
    [
        ("nodes", 2.0),
        ("nodes", True),
        ("users", "3"),
        ("error_rate", "0.1"),
        ("error_rate", False),
        ("message_delay_us", [1, 2]),
        ("message_delay_us", (1, 2.0)),
        ("message_delay_us", (1, 2, 3)),
        ("peer_fanout", 1.0),
        ("seed", 1.5),
    ],
)
def test_validate_checks_each_field_type_first(field, value):
    with pytest.raises(ConfigError, match="expected") as err:
        dataclasses.replace(SPEC_CONFIG, **{field: value}).validate()
    assert err.value.field == field


def test_validate_takes_an_int_error_rate_and_a_null_fanout():
    dataclasses.replace(SPEC_CONFIG, error_rate=0, peer_fanout=None).validate()


def test_field_types_are_read_from_the_annotations_once():
    with mock.patch.object(simulate, "get_type_hints", side_effect=AssertionError("per call")):
        SPEC_CONFIG.validate()
    assert [name for name, _, _ in simulate._FIELD_TYPES] == [f.name for f in dataclasses.fields(SimConfig)]


def test_spec_configs_match_the_three_axis_reference():
    count = 0
    for sweep in map(load_spec, SPECS):
        for point in sweep.points:
            for seed in sweep.seeds:
                got = config_for_point(sweep.base, sweep.axis, point, seed)
                assert got == three_axis_config_for_point(sweep.base, sweep.axis, point, seed)
                count += 1
    assert count == 390


ms = st.one_of(st.integers(0, 10**7), st.floats(0, 1e7, allow_nan=False))
DELAY_BASE = load_spec(ROOT / "specs" / "delay_sweep.json").base


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.just("nodes"), st.integers(2, 1000)),
        st.tuples(st.just("delay_ms"), ms),
        st.tuples(st.just("delay_ms"), st.lists(ms, min_size=2, max_size=2)),
        st.tuples(st.just("error_rate"), st.one_of(st.just(0), st.floats(0, 1, exclude_max=True))),
    ),
    st.integers(0, 2**64 - 1),
)
def test_points_match_the_three_axis_reference(axis_point, seed):
    axis, point = axis_point
    want = three_axis_config_for_point(DELAY_BASE, axis, point, seed)
    assert config_for_point(DELAY_BASE, axis, point, seed) == want


finite = st.one_of(st.integers(-(10**20), 10**20), st.floats(allow_nan=False, allow_infinity=False))


@given(finite, finite)
def test_axis_value_keeps_every_point_and_reads_back(a, b):
    for point, want in ((a, float(a)), ([a, b], (float(a) + float(b)) / 2.0)):
        written = _axis_repr(point)
        assert _axis_numeric(written) == want, written
    if a != b:
        assert _axis_repr(a) != _axis_repr(b)


@pytest.mark.parametrize(
    "point, written",
    [
        (1234567.0, "1234567.0"),
        (1234568.0, "1234568.0"),
        (0.25, "0.25"),
        (1e-05, "1e-05"),
        (1e16, "1e+16"),
        (-2.5e-07, "-2.5e-07"),
        ([1e-05, 1], "1e-05-1"),
        ([-1.5, -2e-05], "-1.5--2e-05"),
        (5, "5"),
    ],
)
def test_axis_value_is_the_repr_of_each_point(point, written):
    assert _axis_repr(point) == written


def test_spec_base_nodes_is_required():
    with pytest.raises(SpecError) as err:
        parse_spec(spec(instances_per_node=2))
    assert err.value.field == "base.nodes"


@pytest.mark.parametrize("key", ["colour", "seed", "event_lifespan_us", "start_jitter_us"])
def test_spec_base_rejects_unknown_keys(key):
    with pytest.raises(SpecError, match="unknown field") as err:
        parse_spec(spec(nodes=2, **{key: 1}))
    assert err.value.field == f"base.{key}"


@pytest.mark.parametrize(
    "data, field",
    [
        (spec(nodes=2, event_lifespan_ms=[1, 2**62]), "base.event_lifespan_ms"),
        (spec(nodes=2, message_delay_ms=[1, 1e16]), "base.message_delay_ms"),
        (dict(spec(nodes=2), sweep={"axis": "delay_ms", "points": [1, 1e16]}), "sweep.points"),
    ],
    ids=["lifespan", "delay", "delay-point"],
)
def test_spec_horizon_past_int64_is_rejected(tmp_path, data, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(SpecError, match="exceeds 2\\*\\*63 - 1") as err:
        load_spec(path)
    assert err.value.field == field


@pytest.mark.parametrize(
    "data, field, message",
    [
        (spec(nodes=2, event_lifespan_ms=[50, 20]), "base.event_lifespan_ms", "range empty or negative: [50, 20]"),
        (spec(nodes=2, message_delay_ms=-2), "base.message_delay_ms", "range empty or negative: -2"),
        (spec(nodes=2, start_jitter_ms=-1), "base.start_jitter_ms", "start_jitter_ms: must be non-negative"),
        (spec(nodes=2, event_lifespan_ms=[0, 1]), "base.event_lifespan_ms", "event_lifespan_ms: events need"),
        (
            dict(spec(nodes=2), sweep={"axis": "delay_ms", "points": [[5, 1]]}),
            "sweep.points",
            "bad point [5, 1]: range empty or negative: [5, 1]",
        ),
        (
            dict(spec(nodes=2), sweep={"axis": "delay_ms", "points": [1e16]}),
            "sweep.points",
            "bad point 1e+16: delay_ms: worst-case horizon",
        ),
        (
            dict(spec(nodes=2), sweep={"axis": "message_delay_ms", "points": [1e16]}),
            "sweep.points",
            "bad point 1e+16: message_delay_ms: worst-case horizon",
        ),
    ],
    ids=["lifespan-range", "delay-scalar", "jitter", "lifespan-zero", "delay-point", "delay-horizon", "alias-horizon"],
)
def test_spec_errors_name_the_key_the_spec_wrote(data, field, message):
    with pytest.raises(SpecError) as err:
        parse_spec(data)
    assert err.value.field == field
    assert message in str(err.value)
    assert "_us" not in str(err.value)


def test_trajectory_stall_is_rejected_at_once():
    # About 5.8e10 room stays per user: generation would not return.
    config = SimConfig(
        nodes=2, instances_per_node=1, events_per_process=3, event_lifespan_us=(2**60, 2**60)
    )
    began = time.perf_counter()
    with pytest.raises(ConfigError, match="trajectory stays") as err:
        generate_trace(config)
    assert time.perf_counter() - began < 1
    assert err.value.field == "event_lifespan_us"


def test_trajectory_bound_names_the_users_at_its_edge():
    # The default horizon is well under one mean stay: one stay per user.
    SimConfig(nodes=2, users=MAX_TRAJECTORY_STAYS).validate()
    with pytest.raises(ConfigError, match="trajectory stays") as err:
        SimConfig(nodes=2, users=MAX_TRAJECTORY_STAYS + 1).validate()
    assert err.value.field == "users"


def test_negative_users_are_rejected_by_name():
    """``users=-5`` would generate the events of ``users=0`` while the records say -5."""
    SimConfig(nodes=3, users=0).validate()
    with pytest.raises(ConfigError, match="-5") as err:
        SimConfig(nodes=3, users=-5).validate()
    assert err.value.field == "users"


def test_room_bound_names_the_rooms_at_its_edge():
    """Validated only: a trace builds one name per room and scans them all per erroneous reading."""
    SimConfig(nodes=2, rooms=2).validate()
    SimConfig(nodes=2, rooms=MAX_ROOMS).validate()
    for rooms in (1, MAX_ROOMS + 1):
        with pytest.raises(ConfigError, match=f"2..{MAX_ROOMS}, got {rooms}") as err:
            SimConfig(nodes=2, rooms=rooms).validate()
        assert err.value.field == "rooms"


@pytest.mark.parametrize(
    "config, field",
    [
        # 4,000 processes x 50 events x 3,999 peers: about 800M attempts.
        (SimConfig(nodes=1000, instances_per_node=4, events_per_process=50), "nodes"),
        (SimConfig(nodes=2, instances_per_node=3000, events_per_process=2), "instances_per_node"),
        (SimConfig(nodes=2, instances_per_node=1, events_per_process=MAX_MESSAGE_ATTEMPTS // 2 + 1), "events_per_process"),
        (SimConfig(nodes=500, instances_per_node=2, events_per_process=400, peer_fanout=50), "nodes"),
    ],
)
def test_message_attempts_past_the_bound_are_rejected(config, field):
    """Validated only: generating any of these would allocate gigabytes."""
    with pytest.raises(ConfigError, match="message attempts") as err:
        config.validate()
    assert err.value.field == field


def test_message_attempt_bound_is_inclusive():
    # Two processes, one peer each: the attempts are twice the events per process.
    SimConfig(nodes=2, instances_per_node=1, events_per_process=MAX_MESSAGE_ATTEMPTS // 2).validate()
    # 4,000 processes x 2 events x the fan-out: 2,097 peers fit, 2,098 do not.
    SimConfig(nodes=1000, instances_per_node=4, events_per_process=2, peer_fanout=2_097).validate()
    with pytest.raises(ConfigError, match="message attempts") as err:
        SimConfig(nodes=1000, instances_per_node=4, events_per_process=2, peer_fanout=2_098).validate()
    assert err.value.field == "nodes"


def test_checked_in_configs_are_within_the_trajectory_bound():
    configs = [
        config_for_point(spec.base, spec.axis, point, seed)
        for spec in map(load_spec, SPECS)
        for point in spec.points
        for seed in spec.seeds
    ]
    assert len(configs) == 390
    configs += [load_trace(path).config for path in FIXTURES]
    configs += [trace.config for trace in (*scale_dense_corpus(), *long_traces_corpus())]
    for config in configs:
        config.validate()


def test_every_field_round_trips_through_a_trace_file(tmp_path):
    trace = generate_trace(OFF_DEFAULT)
    for f in dataclasses.fields(SimConfig):
        if f.default is not dataclasses.MISSING:
            assert getattr(OFF_DEFAULT, f.name) != f.default, f.name
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace
    assert loaded.config == OFF_DEFAULT


def test_manifest_echo_is_the_trace_record_without_seed(tmp_path):
    sweep = parse_spec(spec(**dict(SPEC_BASE, error_rate=0)))
    manifest = json.loads(run_sweep(sweep, tmp_path / "out").manifest.read_text())
    path = tmp_path / "trace.jsonl"
    save_trace(generate_trace(dataclasses.replace(sweep.base, seed=4)), path)
    record = json.loads(path.read_text().splitlines()[0])
    assert record.pop("type") == "config" and record.pop("seed") == 4
    assert manifest["base_config"] == record


@pytest.mark.parametrize("fixture", FIXTURES, ids=lambda p: p.stem)
def test_fixture_save_load_is_byte_identical(fixture, tmp_path):
    path = tmp_path / fixture.name
    save_trace(load_trace(fixture), path)
    assert path.read_bytes() == fixture.read_bytes()
