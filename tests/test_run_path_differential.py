"""Every family's key-column run path against the set-based path it replaced.

``_oracles.set_run_trace`` is ``run_trace`` as it was when each family kept
a ``frozenset`` of ``EventId`` pairs and filtered its violations pair by
pair.  ``run_trace`` must give the same pairs, violations, counters and
drops, and ``score`` the same report against the truth as the old path
against a frozenset of the physical pairs.  The traces: the checked-in
specs, generated traces whose events are listed shuffled (out of id
order, so the vector scan's rows must be mapped back to the listing) and
traces round-tripped through a trace file.  Every family's pairs must be
a ``PairKeys`` over the truth's own ``ids`` object, so ``score`` compares
two key columns.
"""
import random

from hypothesis import example, given, settings, strategies as st

from _corpora import spec_corpus
from _oracles import set_run_trace
from snapdetect.detectors import ContextReading, PairKeys
from snapdetect.metrics import score
from snapdetect.simulate import DetectorFamily, SimConfig, Trace, generate_trace, ground_truth, run_trace
from snapdetect.tracefile import load_trace, save_trace


def assert_same_as_set_path(trace: Trace) -> dict:
    """Check every family on ``trace``; return each family's pair and violation counts."""
    truth = ground_truth(trace)
    old_truth = set_run_trace(trace, DetectorFamily.PHYSICAL).detected_pairs
    found = {}
    for family in DetectorFamily:
        got = run_trace(trace, family)
        want = set_run_trace(trace, family)
        where = (family, trace.config)
        assert isinstance(got.detected_pairs, PairKeys), where
        assert got.detected_pairs.ids is truth.concurrent_pairs.ids, where
        assert got.detected_pairs == want.detected_pairs, where
        assert got.violations == want.violations, where
        assert got.counters == want.counters, where
        assert got.dropped == want.dropped, where
        assert score(got.detected_pairs, truth) == score(want.detected_pairs, old_truth), where
        found[family] = (len(want.detected_pairs), len(want.violations))
    return found


def shuffled(trace: Trace, rnd: random.Random) -> Trace:
    events = list(trace.events)
    rnd.shuffle(events)
    return Trace(tuple(events), trace.messages, trace.config, trace.dropped_messages)


def test_spec_traces_match_the_set_path():
    traces = 0
    pairs = dict.fromkeys(DetectorFamily, 0)
    violations = dict.fromkeys(DetectorFamily, 0)
    for trace in spec_corpus():
        for family, (p, v) in assert_same_as_set_path(trace).items():
            pairs[family] += p
            violations[family] += v
        traces += 1
    assert traces == 390
    assert all(pairs.values()) and all(violations.values()), (pairs, violations)


#: Readings of 2 users in 2 rooms, drawn afresh for every event so that
#: a shuffled trace still holds violations among few events.
REDRAWN_READINGS = tuple(
    ContextReading(user=user, location=location, true_location=location, erroneous=False)
    for user in ("u0", "u1")
    for location in ("R101", "R102")
)

delivering = st.builds(
    lambda nodes, instances, events, fanout, seed: generate_trace(
        SimConfig(
            nodes=nodes,
            instances_per_node=instances,
            events_per_process=events,
            message_delay_us=(1_000, 5_000),
            peer_fanout=fanout,
            users=2,
            error_rate=0.3,
            seed=seed,
        )
    ),
    st.integers(2, 4),
    st.integers(1, 2),
    st.integers(1, 6),
    st.sampled_from([None, 1, 2]),
    st.integers(0, 2**16),
)


@settings(max_examples=120, deadline=None)
@given(delivering, st.randoms(use_true_random=False), st.booleans())
@example(
    generate_trace(SimConfig(nodes=3, events_per_process=6, message_delay_us=(1_000, 5_000), seed=3)),
    random.Random(0),
    False,
)
def test_shuffled_traces_match_the_set_path(trace, rnd, redraw):
    if redraw:
        events = [e._replace(reading=rnd.choice(REDRAWN_READINGS)) for e in trace.events]
        trace = Trace(tuple(events), trace.messages, trace.config, trace.dropped_messages)
    assert_same_as_set_path(shuffled(trace, rnd))


def test_a_reversed_listing_detects_pairs_in_every_family():
    """The example above, listed backwards: out of id order and with pairs to map back."""
    trace = generate_trace(SimConfig(nodes=3, events_per_process=6, message_delay_us=(1_000, 5_000), seed=3))
    backwards = Trace(trace.events[::-1], trace.messages, trace.config, trace.dropped_messages)
    assert backwards.ids != sorted(backwards.ids)
    found = assert_same_as_set_path(backwards)
    assert all(p > 0 for p, _ in found.values()), found
    for family in DetectorFamily:
        assert run_trace(backwards, family).detected_pairs == run_trace(trace, family).detected_pairs


@settings(max_examples=30, deadline=None)
@given(delivering, st.randoms(use_true_random=False))
def test_loaded_traces_match_the_set_path(tmp_path_factory, trace, rnd):
    path = tmp_path_factory.mktemp("traces") / "trace.jsonl"
    listed = shuffled(trace, rnd)
    save_trace(listed, path)
    loaded = load_trace(path)
    assert loaded == listed
    assert_same_as_set_path(loaded)
