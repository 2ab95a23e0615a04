"""The snapshot family at broadcast delay 0 against its closed form.

Under the instant broadcast every snapshot result is fixed by the trace
alone: ``_oracles.closed_form_snapshot`` gives the pairs, the drops and
all four counters from the replay order and the counts of processes,
events and messages, with no clock.  ``run_trace`` must match it on the
snapshot corpus and on generated traces, wide fan-out ones among them,
whose timelines read the message columns the generator handed over.
"""
from hypothesis import given, settings, strategies as st

from _corpora import snapshot_corpus
from _oracles import closed_form_snapshot
from snapdetect.simulate import DetectorFamily, SimConfig, Trace, generate_trace, run_trace


def assert_closed_form(trace: Trace) -> None:
    got = run_trace(trace, DetectorFamily.SNAPSHOT)
    pairs, dropped, counters = closed_form_snapshot(trace)
    assert got.detected_pairs == pairs, trace.config
    assert got.dropped == dropped, trace.config
    assert got.counters == counters, trace.config


def test_snapshot_corpus_matches_closed_form():
    traces = messages = dropped = 0
    for trace in snapshot_corpus():
        assert_closed_form(trace)
        traces += 1
        messages += len(trace.messages)
        dropped += closed_form_snapshot(trace)[1]
    assert traces == 664
    assert messages > dropped > 0


@settings(max_examples=80, deadline=None)
@given(
    nodes=st.integers(2, 20),
    instances=st.integers(1, 2),
    events=st.integers(1, 5),
    delay=st.sampled_from([(0, 0), (100, 2_000), (1_000, 5_000), (100, 40_000)]),
    fanout=st.sampled_from([None, 1, 3, 64]),
    seed=st.integers(0, 2**32),
)
def test_generated_traces_match_closed_form(nodes, instances, events, delay, fanout, seed):
    config = SimConfig(
        nodes=nodes,
        instances_per_node=instances,
        events_per_process=events,
        message_delay_us=delay,
        peer_fanout=fanout,
        seed=seed,
    )
    assert_closed_form(generate_trace(config))
