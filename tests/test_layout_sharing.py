"""Traces wired from a shared layout against traces generated whole.

``generate_trace`` runs in two stages: ``generate_layout`` draws all that
does not read ``message_delay_us``, and ``wire_trace`` draws the delays.
A trace wired from a layout laid out for another delay of the same config,
and handed the event-only caches of a trace wired before it, must equal
``generate_trace(config)``: records, column arrays and dtypes, drops, and
every family's pairs, violations, counters and drops.  ``run_sweep`` shares
one layout among the cells of one ``layout_key`` and must still run every
cell, in row order, on its own trace.
"""
import csv
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _corpora import spec_configs
from snapdetect import experiment, simulate
from snapdetect.experiment import ExperimentSpec, config_for_point, load_spec, parse_spec, run_sweep
from snapdetect.simulate import (
    CONFIG_FIELDS,
    DetectorFamily,
    SimConfig,
    generate_layout,
    generate_trace,
    ground_truth,
    is_range,
    layout_key,
    run_trace,
    wire_trace,
    with_caches,
)

SPECS = Path(__file__).resolve().parents[1] / "specs"

#: The donor delay: seconds, longer than any spec point, so few messages land.
OTHER_DELAY_US = (9_000_000, 10_000_000)


def assert_same_columns(got, want, where) -> None:
    assert got._fields == want._fields
    for name, a, b in zip(got._fields, got, want):
        if a is None:
            continue
        assert a.dtype == b.dtype, (where, name)
        assert np.array_equal(a, b), (where, name)


def assert_same_trace(got, want) -> None:
    """``got`` and ``want`` equal in records, columns, drops, truth and every family's run."""
    where = want.config
    assert got == want, where  # events, messages, config and dropped_messages
    assert got.dropped_messages == want.dropped_messages, where
    assert got.ids == want.ids, where
    assert got.makespan_us == want.makespan_us, where
    assert_same_columns(got.event_columns, want.event_columns, where)
    assert_same_columns(got.message_columns, want.message_columns, where)
    assert_same_columns(got.reading_codes._replace(readings=None), want.reading_codes._replace(readings=None), where)
    assert list(got.reading_codes.readings) == list(want.reading_codes.readings), where
    assert_same_columns(got.timeline, want.timeline, where)
    assert np.array_equal(got.id_order, want.id_order), where
    a, b = ground_truth(got), ground_truth(want)
    assert np.array_equal(a.concurrent_pairs.keys, b.concurrent_pairs.keys), where
    assert (a.violations, a.pair_checks) == (b.violations, b.pair_checks), where
    for family in DetectorFamily:
        a, b = run_trace(got, family), run_trace(want, family)
        assert np.array_equal(a.detected_pairs.keys, b.detected_pairs.keys), (where, family)
        assert a.violations == b.violations, (where, family)
        assert a.counters == b.counters, (where, family)
        assert a.dropped == b.dropped, (where, family)


def run_as_a_cell(trace) -> None:
    """Build the caches a sweep cell builds: ground truth and each family's run."""
    ground_truth(trace)
    for family in DetectorFamily:
        run_trace(trace, family)


def wired_in_turn(config: SimConfig, delays):
    """Each delay's trace of ``config``, wired from one layout as a sweep wires its cells.

    The layout is laid out for the first delay; each trace is handed the
    caches of the trace before it.
    """
    configs = [dataclasses.replace(config, message_delay_us=d) for d in delays]
    layout = generate_layout(configs[0])
    for each in configs:
        trace = wire_trace(layout, each)
        yield trace
        run_as_a_cell(trace)
        layout = with_caches(layout, trace)


def test_spec_configs_wired_from_another_delay_match_generated():
    traces = messages = 0
    for config in spec_configs():
        assert config.message_delay_us != OTHER_DELAY_US
        donor, trace = wired_in_turn(config, (OTHER_DELAY_US, config.message_delay_us))
        assert trace.truth is donor.truth and trace.id_order is donor.id_order
        assert_same_trace(trace, generate_trace(config))
        traces += 1
        messages += len(trace.messages)
    assert traces == 390 and messages > 0


def _range(lo: int, hi: int):
    return st.tuples(st.integers(lo, hi), st.integers(lo, hi)).map(sorted).map(tuple)


#: Delay ranges: zero-width, within 1-5 ms, within 16-64 ms and seconds-scale.
DELAY_RANGES = st.one_of(
    st.integers(0, 10_000_000).map(lambda d: (d, d)),
    _range(1_000, 5_000),
    _range(16_000, 64_000),
    _range(250_000, 8_000_000),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    nodes=st.integers(2, 5),
    instances=st.integers(1, 2),
    events=st.integers(1, 6),
    fanout=st.sampled_from([None, 1, 2]),
    tight=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    delays=st.lists(DELAY_RANGES, min_size=2, max_size=4),
)
def test_configs_varying_only_the_delay_share_a_layout(nodes, instances, events, fanout, tight, seed, delays):
    spans = dict(event_lifespan_us=(1, 40), inter_event_gap_us=(0, 30), start_jitter_us=20) if tight else {}
    config = SimConfig(
        nodes=nodes, instances_per_node=instances, events_per_process=events, peer_fanout=fanout, seed=seed, **spans
    )
    for trace in wired_in_turn(config, delays):
        assert_same_trace(trace, generate_trace(trace.config))


def test_shared_columns_and_keys_are_read_only():
    config = SimConfig(nodes=4, events_per_process=8, message_delay_us=(1_000, 5_000), seed=3)
    layout = generate_layout(config)
    first = wire_trace(layout, config)
    run_as_a_cell(first)
    layout = with_caches(layout, first)
    trace = wire_trace(layout, dataclasses.replace(config, message_delay_us=(16_000, 64_000)))
    for name in simulate.EVENT_CACHES:
        assert vars(trace)[name] is vars(first)[name], name
    codes = trace.reading_codes
    shared = [
        layout.starts,
        layout.ends,
        layout.send,
        layout.receiver,
        *trace.event_columns,
        codes.user,
        codes.place,
        trace.id_order,
        trace.truth.concurrent_pairs.keys,
    ]
    for array in shared:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = 0


def _changed(field, value):
    """Another value of ``field``, of the type the field takes."""
    if is_range(field):
        return (value[0], value[1] + 1)
    if value is None:
        return 1
    if isinstance(value, float):
        return value + 0.25
    return value + 1


def test_every_field_but_the_delay_is_in_the_key():
    base = SimConfig(nodes=3, users=2, peer_fanout=None)
    names = []
    for field in CONFIG_FIELDS:
        other = dataclasses.replace(base, **{field.name: _changed(field, getattr(base, field.name))})
        other.validate()
        shares = layout_key(other) == layout_key(base)
        assert shares == (field.name == "message_delay_us"), field.name
        names.append(field.name)
    assert len(names) == len(CONFIG_FIELDS) > 10


def test_a_layout_wires_only_configs_of_its_key():
    config = SimConfig(nodes=3, events_per_process=4, seed=5)
    layout = generate_layout(config)
    with pytest.raises(ValueError, match="layout_key"):
        wire_trace(layout, dataclasses.replace(config, seed=6))
    with pytest.raises(ValueError, match="layout_key"):
        wire_trace(layout, dataclasses.replace(config, error_rate=0.2))


def test_wiring_draws_only_the_delays_stream(monkeypatch):
    drawn = []
    stream = simulate._stream

    def recorded(seed, name):
        drawn.append(name)
        return stream(seed, name)

    monkeypatch.setattr(simulate, "_stream", recorded)
    config = SimConfig(nodes=3, events_per_process=4, message_delay_us=(1_000, 5_000), seed=5)
    layout = generate_layout(config)
    assert sorted(drawn) == ["errors", "layout", "messages", "users"]
    drawn.clear()
    wire_trace(layout, dataclasses.replace(config, message_delay_us=(16_000, 64_000)))
    assert drawn == ["delays"]


# --- run_sweep -------------------------------------------------------------

DELAY_SPEC = {
    "base": {"nodes": 3, "instances_per_node": 2, "events_per_process": 5},
    "sweep": {"axis": "delay_ms", "points": [1, [2, 6], 64]},
    "seeds": [1, 2, 3],
    "detectors": ["snapshot", "vector", "physical"],
}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cells(spec):
    return [(point, seed) for point in spec.points for seed in spec.seeds]


def _unshared_rows(spec, cells):
    """Each cell's rows from a trace generated whole, as ``results.csv`` writes them."""
    det_values = tuple(d.value for d in spec.detectors)
    rows = []
    for point, seed in cells:
        for row in experiment._job((config_for_point(spec.base, spec.axis, point, seed), point, det_values)):
            rows.append({k: str(v) for k, v in row.items()})
    return rows


@pytest.fixture
def spy(monkeypatch):
    """Counts of ``generate_layout`` calls per seed, and the calls ``run_sweep`` makes per trace."""
    calls, layouts = [], []
    truth, run, lay = experiment.ground_truth, experiment.run_trace, experiment.generate_layout

    def traced_truth(trace):
        got = truth(trace)
        fresh = simulate.ground_truth(simulate.generate_trace(trace.config))
        assert np.array_equal(got.concurrent_pairs.keys, fresh.concurrent_pairs.keys), trace.config
        assert got.violations == fresh.violations, trace.config
        calls.append((trace, None))
        return got

    def traced_run(trace, family):
        calls.append((trace, family))
        return run(trace, family)

    def traced_layout(config):
        layouts.append(config.seed)
        return lay(config)

    monkeypatch.setattr(experiment, "ground_truth", traced_truth)
    monkeypatch.setattr(experiment, "run_trace", traced_run)
    monkeypatch.setattr(experiment, "generate_layout", traced_layout)
    return calls, layouts


def test_sweep_runs_each_cell_in_row_order_on_its_own_trace(tmp_path, spy):
    calls, layouts = spy
    spec = parse_spec(DELAY_SPEC)
    outcome = run_sweep(spec, tmp_path)
    assert outcome.errors == [] and outcome.completed_jobs == 9
    assert sorted(layouts) == [1, 2, 3]  # one layout per seed, not per cell

    families = list(spec.detectors)
    per_cell = len(families) + 1
    assert len(calls) == 9 * per_cell
    traces = []
    for k, (point, seed) in enumerate(_cells(spec)):
        cell = calls[k * per_cell : (k + 1) * per_cell]
        trace = cell[0][0]
        assert [c[1] for c in cell] == [None, *families]
        assert all(c[0] is trace for c in cell)
        assert trace.config == config_for_point(spec.base, spec.axis, point, seed)
        traces.append(trace)
    assert len({id(t) for t in traces}) == 9

    rows = _rows(outcome.results_csv)
    assert [(r["axis_value"], int(r["seed"])) for r in rows[:: len(families)]] == [
        (experiment._axis_repr(point), seed) for point, seed in _cells(spec)
    ]
    assert rows == _unshared_rows(spec, _cells(spec))


def test_a_cell_whose_wiring_raises_reports_alone(tmp_path, spy, monkeypatch):
    _, layouts = spy
    spec = parse_spec(DELAY_SPEC)
    wire = experiment.wire_trace
    bad = config_for_point(spec.base, spec.axis, [2, 6], 2)

    def failing(layout, config):
        if config == bad:
            raise RuntimeError("wiring failed")
        return wire(layout, config)

    monkeypatch.setattr(experiment, "wire_trace", failing)
    outcome = run_sweep(spec, tmp_path)
    assert outcome.errors == ["point=[2, 6] seed=2: wiring failed"]
    assert (outcome.completed_jobs, outcome.failed_jobs) == (8, 1)
    assert sorted(layouts) == [1, 2, 3]  # the failed cell's layout went on to its seed's last point
    cells = [cell for cell in _cells(spec) if cell != ([2, 6], 2)]
    assert _rows(outcome.results_csv) == _unshared_rows(spec, cells)


def test_a_layout_stage_that_raises_is_not_kept(tmp_path, spy, monkeypatch):
    _, layouts = spy
    spec = parse_spec(DELAY_SPEC)
    lay = experiment.generate_layout
    failed = []

    def failing_once(config):
        if config.seed == 2 and not failed:
            failed.append(config)
            raise RuntimeError("layout failed")
        return lay(config)

    monkeypatch.setattr(experiment, "generate_layout", failing_once)
    outcome = run_sweep(spec, tmp_path)
    assert outcome.errors == ["point=1 seed=2: layout failed"]
    assert sorted(layouts) == [1, 2, 3]  # seed 2's second point laid out again
    cells = [cell for cell in _cells(spec) if cell != (1, 2)]
    assert _rows(outcome.results_csv) == _unshared_rows(spec, cells)


def test_a_serial_sweep_builds_each_cell_config_once(tmp_path, monkeypatch):
    spec = load_spec(SPECS / "delay_sweep.json")
    calls = []

    def counted(*args):
        calls.append(args)
        return config_for_point(*args)

    monkeypatch.setattr(experiment, "config_for_point", counted)
    outcome = run_sweep(spec, tmp_path)
    assert outcome.completed_jobs == len(spec.points) * len(spec.seeds) == 240
    assert len(calls) == 240


def test_a_point_that_cannot_convert_raises_before_any_file(tmp_path):
    base = parse_spec(DELAY_SPEC).base
    spec = ExperimentSpec(base, "delay_ms", (1, "x"), (1,), (DetectorFamily.SNAPSHOT,))
    out = tmp_path / "out"
    with pytest.raises(TypeError, match="expected milliseconds, got 'x'"):
        run_sweep(spec, out)
    assert not out.exists()
