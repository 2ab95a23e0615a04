"""Ground truth's pairs as a sorted int64 key column, against a frozenset copy.

``Trace.truth`` keeps the overlap pairs as a ``detectors.PairKeys``, and
``metrics.score`` counts hits on it by key.  Scoring any detected set
against the view must give the report it gives against
``frozenset(view)``, and the view must behave as that frozenset under the
``Set`` protocol.  ``&``, ``|``, ``-`` and ``^`` between two views over
one ids list must return a view that holds the frozensets' result.
"""
import dataclasses
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _corpora import scale_dense_corpus
from _oracles import brute_force_overlap
import snapdetect
from snapdetect.detectors import EventId, PairKeys, pair_key
from snapdetect.metrics import score
from snapdetect.simulate import DetectorFamily, SimConfig, Trace, TraceEvent, generate_trace, ground_truth, run_trace

FOREIGN = (EventId(9, 0), EventId(9, 1), EventId(0, 99))


def hand_made_trace(spans, listing) -> Trace:
    """Events from ``(process, start, length)`` spans, listed in ``listing`` order.

    Each process's seqs follow its starts, as ``event_columns`` requires.
    """
    by_process: dict[int, list] = {}
    for process, start, length in sorted(spans):
        seq = len(by_process.setdefault(process, []))
        by_process[process].append(TraceEvent(EventId(process, seq), process, start, start + length))
    events = [e for process in sorted(by_process) for e in by_process[process]]
    events = tuple(events[k] for k in listing(len(events)))
    return Trace(events, (), SimConfig(nodes=3, instances_per_node=1, seed=0))


hand_made = st.builds(
    hand_made_trace,
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8), st.integers(1, 4)), max_size=10),
    st.sampled_from([lambda m: range(m), lambda m: range(m - 1, -1, -1), lambda m: [*range(1, m, 2), *range(0, m, 2)]]),
)
generated = st.builds(
    lambda nodes, events, seed: generate_trace(
        SimConfig(nodes=nodes, instances_per_node=1, events_per_process=events, message_delay_us=(1_000, 5_000), seed=seed)
    ),
    st.integers(2, 4),
    st.integers(1, 5),
    st.integers(0, 2**16),
)


def detected_sets(rnd: random.Random, trace: Trace, view: PairKeys) -> list:
    """One of each kind of detected set the scoring must agree on."""
    truth = sorted(view)
    ids = [e.id for e in trace.events]
    inside = rnd.sample(truth, rnd.randint(0, len(truth)))
    extra = [pair_key(rnd.choice(ids), rnd.choice(ids)) for _ in range(rnd.randint(0, 6))] if ids else []
    alien = [pair_key(rnd.choice(FOREIGN), rnd.choice(ids + list(FOREIGN))) for _ in range(rnd.randint(1, 4))]
    reversed_pairs = [(b, a) for a, b in inside]
    plain = [(tuple(a), tuple(b)) for a, b in inside]  # equal to the EventId pairs
    mixed = inside + extra + alien + reversed_pairs
    return [
        set(inside),
        frozenset(inside + extra),
        set(reversed_pairs),
        set(alien + inside),
        set(plain),
        set(mixed),
        mixed + mixed[::2],  # a list with repeats
        set(),
        [],
        view,
    ]


@settings(max_examples=150, deadline=None)
@given(st.one_of(hand_made, generated), st.randoms(use_true_random=False))
@example(hand_made_trace([], range), random.Random(0))  # no events
@example(hand_made_trace([(0, 0, 2), (1, 2, 2), (2, 4, 1)], range), random.Random(1))  # touching spans: empty truth
def test_score_by_key_equals_score_on_a_frozenset(trace, rnd):
    truth = ground_truth(trace)
    view = truth.concurrent_pairs
    assert isinstance(view, PairKeys)
    copy = frozenset(view)
    assert copy == brute_force_overlap(trace)
    for detected in detected_sets(rnd, trace, view):
        want = score(detected, copy)
        assert score(detected, view) == want, detected
        assert score(detected, truth) == want, detected
    assert score(view, copy) == score(copy, copy) == score(view, view)


def test_score_counts_every_hit_on_the_spec_style_trace():
    trace = generate_trace(SimConfig(nodes=4, events_per_process=8, message_delay_us=(1_000, 5_000), seed=3))
    truth = ground_truth(trace)
    copy = frozenset(truth.concurrent_pairs)
    for family in DetectorFamily:
        detected = run_trace(trace, family).detected_pairs
        assert score(detected, truth) == score(detected, copy)
        assert score(detected, truth).recall > 0


@settings(max_examples=60, deadline=None)
@given(st.one_of(hand_made, generated))
def test_view_is_the_frozenset_of_its_pairs(trace):
    truth = ground_truth(trace)
    view = truth.concurrent_pairs
    want = brute_force_overlap(trace)
    copy = frozenset(want)
    pairs = list(view)
    assert sorted(pairs) == sorted(want) and len(view) == len(want)
    assert all(pair == pair_key(*pair) for pair in pairs)
    ids = [e.id for e in trace.events]
    if ids == sorted(ids):
        assert pairs == sorted(want)
    assert view == copy and copy == view
    assert view <= copy and copy <= view and view >= copy and copy >= view
    assert not view < copy and not copy < view
    for a in ids:
        for b in ids:
            assert ((a, b) in view) == ((a, b) in copy)
    extra = (FOREIGN[0], FOREIGN[1])
    assert extra not in view and "ab" not in view and 3 not in view and (FOREIGN[0],) not in view
    assert view | {extra} == copy | {extra} == {extra} | view
    assert isinstance(view | {extra}, frozenset)
    assert view - {extra} == copy and copy - view == frozenset()
    assert view & copy == copy and view ^ copy == frozenset()
    if want:
        one = min(want)
        smaller = copy - {one}
        assert smaller < view and view > smaller and not view <= smaller
        assert view != smaller and smaller != view
        assert view - smaller == {one} and smaller - view == frozenset()
        assert one in view and tuple(reversed(one)) not in view
    # Hashable as the equal frozenset, so GroundTruth stays hashable.
    assert hash(view) == hash(copy)
    assert hash(truth) == hash(dataclasses.replace(truth, concurrent_pairs=copy))
    assert {truth, dataclasses.replace(truth)} == {truth}


def test_physical_family_returns_the_view_itself():
    trace = generate_trace(SimConfig(nodes=3, events_per_process=4, message_delay_us=(1_000, 5_000), seed=5))
    truth = ground_truth(trace)
    physical = run_trace(trace, DetectorFamily.PHYSICAL)
    assert physical.detected_pairs is truth.concurrent_pairs
    report = score(physical.detected_pairs, truth)
    assert report.recall == report.precision == 1.0
    assert report.true_pairs == report.detected_pairs == len(truth.concurrent_pairs) > 0


def comparison_partners(rnd: random.Random, trace: Trace, view: PairKeys) -> list:
    """Sets a view is compared with: views over the same ids and over a backwards listing, and plain sets."""
    backwards = Trace(trace.events[::-1], trace.messages, trace.config, trace.dropped_messages)
    pairs = sorted(view)
    some = rnd.sample(pairs, rnd.randint(0, len(pairs)))
    ids = [e.id for e in trace.events]
    extra = {pair_key(rnd.choice(ids), rnd.choice(FOREIGN))} if ids else {(FOREIGN[0], FOREIGN[1])}
    return [
        *(run_trace(trace, family).detected_pairs for family in DetectorFamily),
        ground_truth(backwards).concurrent_pairs,
        run_trace(backwards, DetectorFamily.VECTOR).detected_pairs,
        frozenset(pairs),
        set(some),
        set(pairs) | extra,
        {(tuple(a), tuple(b)) for a, b in pairs},  # plain tuples, equal to the EventId pairs
        {(b, a) for a, b in pairs},
        set(pairs) | {"ab", 3, (FOREIGN[0],)},  # elements that are no pair
        set(),
        frozenset(),
    ]


@settings(max_examples=60, deadline=None)
@given(st.one_of(hand_made, generated), st.randoms(use_true_random=False))
@example(hand_made_trace([], range), random.Random(0))  # empty views
@example(hand_made_trace([(0, 0, 4), (1, 1, 4), (2, 2, 4)], lambda m: range(m - 1, -1, -1)), random.Random(2))
def test_comparisons_are_those_of_the_frozensets(trace, rnd):
    """``==``, ``!=``, ``<=``, ``>=``, ``<`` and ``>`` give what they give on frozenset copies, either side first."""
    view = ground_truth(trace).concurrent_pairs
    partners = comparison_partners(rnd, trace, view)
    for x in (view, *(p for p in partners if isinstance(p, PairKeys))):
        fx = frozenset(x)
        for y in partners:
            fy = frozenset(y)
            assert (x == y, x != y, x <= y, x >= y, x < y, x > y) == (
                fx == fy, fx != fy, fx <= fy, fx >= fy, fx < fy, fx > fy
            ), (sorted(fx), y)
            assert (y == x, y != x, y <= x, y >= x, y < x, y > x) == (
                fy == fx, fy != fx, fy <= fx, fy >= fx, fy < fx, fy > fx
            ), (sorted(fx), y)
        # A tuple or a list is no set: never equal, and not ordered against one.
        for plain in (tuple(x), list(x)):
            assert x != plain and not x == plain
            with pytest.raises(TypeError):
                x <= plain
            with pytest.raises(TypeError):
                x >= plain


def test_views_of_the_same_ids_compare_keys(monkeypatch):
    """Two views over one ``ids`` compare their key columns: no pair is looked up."""
    trace = generate_trace(SimConfig(nodes=4, events_per_process=8, message_delay_us=(1_000, 5_000), seed=3))
    truth = ground_truth(trace).concurrent_pairs
    vector = run_trace(trace, DetectorFamily.VECTOR).detected_pairs
    again = PairKeys(trace.ids, trace.id_index, *divmod(np.array(truth.keys), len(trace.ids)))
    lookups = []
    original = PairKeys.count_common

    def counted(self, pairs):
        lookups.append(isinstance(pairs, PairKeys) and pairs.ids is self.ids)
        return original(self, pairs)

    monkeypatch.setattr(PairKeys, "count_common", counted)
    assert truth == again and not truth != again
    assert lookups == []  # equality of one ids' views is one comparison of keys
    assert 0 < len(vector) < len(truth)
    assert vector <= truth and truth >= vector and vector < truth
    assert vector <= frozenset(truth) and not frozenset(truth) <= vector
    # One count each; ``<`` reuses ``<=``, and a longer side is never a subset.
    assert lookups == [True, True, True, False]


SET_OPERATORS = (operator.and_, operator.or_, operator.sub, operator.xor)


def assert_operators_match_frozensets(x: PairKeys, y: PairKeys) -> None:
    """Each operator of two views over one ids list is a view holding the frozensets' result."""
    fx, fy = frozenset(x), frozenset(y)
    for op in SET_OPERATORS:
        got = op(x, y)
        assert isinstance(got, PairKeys) and got.ids is x.ids and got.index is x.index, op
        assert frozenset(got) == op(fx, fy), op
        assert len(got) == len(op(fx, fy)) and got == op(fx, fy), op
        assert not got.keys.flags.writeable and np.all(np.diff(got.keys) > 0), op


@settings(max_examples=60, deadline=None)
@given(st.one_of(hand_made, generated), st.randoms(use_true_random=False))
@example(hand_made_trace([], range), random.Random(0))  # empty views
def test_set_operators_of_one_ids_views_are_those_of_the_frozensets(trace, rnd):
    truth = ground_truth(trace).concurrent_pairs
    m = len(trace.ids)
    some = np.array(sorted(rnd.sample(truth.keys.tolist(), rnd.randint(0, len(truth)))), dtype=np.int64)
    views = [
        truth,
        *(run_trace(trace, family).detected_pairs for family in DetectorFamily),
        PairKeys(trace.ids, trace.id_index, *divmod(some, m)),
    ]
    for x in views:
        for y in views:
            assert_operators_match_frozensets(x, y)
    # A view over another ids list, and a plain set, still give frozensets.
    backwards = Trace(trace.events[::-1], trace.messages, trace.config, trace.dropped_messages)
    for other in (ground_truth(backwards).concurrent_pairs, set(truth)):
        for op in SET_OPERATORS:
            got = op(truth, other)
            assert isinstance(got, frozenset) and got == op(frozenset(truth), frozenset(other)), op


def test_set_operators_of_snapshot_and_vector_views_on_dense_traces():
    for trace in scale_dense_corpus():
        snapshot = run_trace(trace, DetectorFamily.SNAPSHOT).detected_pairs
        vector = run_trace(trace, DetectorFamily.VECTOR).detected_pairs
        assert len(snapshot & vector) > 0 and len(snapshot - vector) > 0 and len(vector - snapshot) > 0
        assert_operators_match_frozensets(snapshot, vector)
        assert_operators_match_frozensets(vector, snapshot)


def test_union_of_two_views_does_not_import_numpy_ma():
    """``np.union1d`` imports ``numpy.ma``, about 1 MB of resident memory in a fresh process."""
    code = (
        "import sys\n"
        "from snapdetect.simulate import DetectorFamily, SimConfig, generate_trace, run_trace\n"
        "trace = generate_trace(SimConfig(nodes=3, events_per_process=6, message_delay_us=(1_000, 5_000), seed=3))\n"
        "a = run_trace(trace, DetectorFamily.SNAPSHOT).detected_pairs\n"
        "b = run_trace(trace, DetectorFamily.VECTOR).detected_pairs\n"
        "before = 'numpy.ma' in sys.modules\n"
        "union = a | b\n"
        "print(before, 'numpy.ma' in sys.modules, type(union).__name__,"
        " union == frozenset(a) | frozenset(b), len(a - b) > 0, len(b - a) > 0)\n"
    )
    src = str(Path(snapdetect.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False", "PairKeys", "True", "True", "True"]
