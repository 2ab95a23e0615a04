"""A generated trace's handed columns against those its records give.

``generate_trace`` hands the trace the columns it built the records from:
``event_columns``, ``message_columns``, ``reading_codes`` and ``ids``.
The same trace rebuilt from its records, ``Trace(events, messages,
config, dropped)``, derives them afresh.  On every spec config, the
benchmark's configs and the seeded and wide fan-out generator corpora,
the columns must be equal with equal dtypes, the reading codes must code
the same values, and every family must replay both traces to the same
pairs, violations, counters and drops.
"""
import itertools

import numpy as np
import pytest

from _corpora import benchmark_configs, seeded_configs, spec_configs, wide_fanout_configs
from snapdetect.simulate import DetectorFamily, Trace, generate_trace, run_trace

CORPORA = {
    "spec": spec_configs,
    "benchmark": benchmark_configs,
    "seeded": seeded_configs,
    "wide_fanout": wide_fanout_configs,
}


def assert_same_columns(got, want, where) -> None:
    assert got._fields == want._fields
    for name, a, b in zip(got._fields, got, want):
        assert a.dtype == b.dtype, (where, name)
        assert np.array_equal(a, b), (where, name)


def assert_same_codes(got: np.ndarray, want: np.ndarray, where) -> None:
    """Two int32 codings of one list of values: equal exactly where the other is equal."""
    assert got.dtype == want.dtype == np.int32, where
    pairs = set(zip(got.tolist(), want.tolist()))
    assert len(pairs) == len(set(got.tolist())) == len(set(want.tolist())), where


@pytest.mark.parametrize("corpus", CORPORA)
def test_handed_columns_are_the_records_columns(corpus):
    traces = messages = 0
    for config in CORPORA[corpus]():
        trace = generate_trace(config)
        rebuilt = Trace(trace.events, trace.messages, trace.config, trace.dropped_messages)
        assert trace == rebuilt
        assert trace.ids == rebuilt.ids
        assert_same_columns(trace.event_columns, rebuilt.event_columns, config)
        assert_same_columns(trace.message_columns, rebuilt.message_columns, config)
        got, want = trace.reading_codes, rebuilt.reading_codes
        assert list(got.readings) == list(want.readings), config
        assert_same_codes(got.user, want.user, config)
        assert_same_codes(got.place, want.place, config)
        assert_same_columns(trace.timeline, rebuilt.timeline, config)
        for family in DetectorFamily:
            a, b = run_trace(trace, family), run_trace(rebuilt, family)
            assert np.array_equal(a.detected_pairs.keys, b.detected_pairs.keys), (config, family)
            assert a.violations == b.violations, (config, family)
            assert a.counters == b.counters, (config, family)
            assert a.dropped == b.dropped, (config, family)
        traces += 1
        messages += len(trace.messages)
    assert traces > 0 and messages > 0


def test_reading_codes_separate_every_value():
    """Codes of one spec trace: every user and every room has its own, as the readings name them."""
    config = next(itertools.islice(spec_configs(), 200, None))
    trace = generate_trace(config)
    codes = trace.reading_codes
    users = {r.user: u for r, u in zip(codes.readings, codes.user.tolist())}
    rooms = {r.location: p for r, p in zip(codes.readings, codes.place.tolist())}
    assert len(set(users.values())) == len(users) > 1
    assert len(set(rooms.values())) == len(rooms) > 1
    assert min(codes.user.min(), codes.place.min()) >= 0  # -1 marks an event with no reading
