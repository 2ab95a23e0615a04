"""Trace generation as columns against its one-``randint``-per-draw form.

``_oracles.randint_generate_trace`` is the per-attempt loop that
``simulate.generate_trace`` replaced.  Events, messages and the drop count
must be identical on every spec config, on the benchmark's dense and long
configs, on a seeded corpus that covers fan-out None/1/3, zero start
jitter, delay spans from width 0 up to 2**32 and lifespans of 2**32 us and
more (send draws of two words, which a ``peer_fanout`` trace interleaves
with its peer samples on the messages stream), and on a wide fan-out corpus
whose events message 16 to 39 peers each, so that ``simulate._draws`` reads
their sends through numpy word windows, mixed with two-word draws.  Each
corpus must reach every delivery outcome, or it shows nothing: a window
inside one receiver event (certain first-try delivery), a window that
meets no receiver event (certain drop, hopeless attempts among them), and
windows whose outcome the delays decide, landing on the first, second and
third try or missing all three.
"""
import itertools
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest

from _corpora import benchmark_configs, seeded_configs, spec_configs, wide_fanout_configs
from _oracles import randint_generate_trace
from snapdetect import simulate
from snapdetect.simulate import ConfigError, SimConfig, generate_trace


def assert_same_traces(configs) -> Counter:
    """Compare each config's trace with the reference; tally every attempt's outcome.

    The reference counts ``hopeless``, ``hit_try_1`` to ``hit_try_3`` and
    ``dropped`` attempts; ``certain_hit`` and ``certain_miss`` count the
    windows the generator settles without trying a delay.
    ``window_events`` counts the narrow spans of ``_draws`` calls of
    several spans: the events whose sends it reads through its word
    windows.  ``wide_events`` and ``fanout_wide_events`` count the events
    whose span needs more than 32 bits, in traces where every event
    messages every peer and in ``peer_fanout`` traces.
    """
    tally = Counter()
    outcomes = simulate._window_outcomes
    draws = simulate._draws

    def counted(*args):
        seq, inside, missed = outcomes(*args)
        tally["certain_hit"] += int(inside.sum())
        tally["certain_miss"] += int(missed.sum())
        return seq, inside, missed

    def windowed(rng, spans, count):
        if len(spans) > 1:
            tally["window_events"] += sum(n.bit_length() <= 32 for n in spans)
        return draws(rng, spans, count)

    for config in configs:
        with mock.patch.object(simulate, "_window_outcomes", counted), mock.patch.object(simulate, "_draws", windowed):
            got = generate_trace(config)
        want = randint_generate_trace(config, tally)
        peers = config.n_processes - 1
        wide = sum((e.end_us - e.start_us).bit_length() > 32 for e in got.events)
        tally["wide_events" if (config.peer_fanout or peers) >= peers else "fanout_wide_events"] += wide
        assert got.events == want.events, config
        assert got.messages == want.messages, config
        assert got.dropped_messages == want.dropped_messages, config
        for m in got.messages:
            assert type(m.send_us) is int and type(m.deliver_us) is int, config
        tally["configs"] += 1
        tally["delivered"] += len(got.messages)
        tally["attempts"] += len(got.messages) + got.dropped_messages
    return tally


def assert_every_path(tally: Counter) -> None:
    assert tally["certain_hit"] > 0
    assert tally["certain_miss"] >= tally["hopeless"] > 0
    assert tally["hit_try_1"] > tally["certain_hit"]  # some first tries the delay decided
    assert tally["hit_try_2"] > 0
    assert tally["hit_try_3"] > 0
    assert tally["dropped"] > tally["certain_miss"]  # some attempts missed three delays
    assert tally["certain_hit"] + tally["certain_miss"] < tally["attempts"]


def test_spec_configs_match_reference():
    tally = assert_same_traces(spec_configs())
    assert tally["configs"] == 390
    assert_every_path(tally)
    # Every all-peers event of every spec config.
    assert tally["window_events"] == 34_080


def test_benchmark_configs_match_reference():
    tally = assert_same_traces(benchmark_configs())
    assert_every_path(tally)
    assert tally["window_events"] == 2 * 20 * (5 + 10 + 20)  # the 9-, 19- and 39-peer dense traces


def test_wide_fanout_configs_match_reference():
    """Sends read through word windows, around and between two-word draws."""
    configs = list(wide_fanout_configs())
    assert len(configs) == 72
    assert {c.n_processes - 1 for c in configs} == {16, 17, 39}
    tally = assert_same_traces(configs)
    events = sum(c.n_processes * c.events_per_process for c in configs)
    assert tally["window_events"] + tally["wide_events"] == events
    assert 0 < tally["wide_events"] < events
    assert_every_path(tally)


def test_seeded_corpus_matches_reference():
    configs = list(seeded_configs())
    widths = {c.message_delay_us[1] - c.message_delay_us[0] for c in configs}
    assert widths == {0, 1, 4_000, 7_750_000, 2**31, 2**32}
    assert max(w + 1 for w in widths).bit_length() == 33
    assert {c.event_lifespan_us[0] for c in configs} == {2_000, 2**32}
    tally = assert_same_traces(configs)
    assert tally["configs"] >= 600
    assert tally["fanout_wide_events"] > 0  # peer samples and two-word sends share the messages stream
    assert_every_path(tally)


#: The widest delay ranges ``SimConfig.validate`` accepts for this config:
#: each ends where the worst-case horizon plus the delay reaches 2**63 - 1.
WIDE_DELAY_BASE = SimConfig(nodes=3, events_per_process=4)
WIDE_DELAY_HI = 2**63 - 1 - (
    WIDE_DELAY_BASE.start_jitter_us
    + WIDE_DELAY_BASE.events_per_process
    * (WIDE_DELAY_BASE.inter_event_gap_us[1] + WIDE_DELAY_BASE.event_lifespan_us[1])
)


@pytest.mark.parametrize("delay_lo", [0, 2**62], ids=["from-0", "from-2**62"])
def test_delays_to_int64_max_match_reference(delay_lo):
    """Windows that end near int64's limit are clipped at the horizon, and their delays stay exact."""
    configs = [
        replace(WIDE_DELAY_BASE, message_delay_us=(delay_lo, WIDE_DELAY_HI), peer_fanout=fanout, seed=seed)
        for fanout in (None, 1)
        for seed in (1, 2)
    ]
    tally = assert_same_traces(configs)
    assert tally["attempts"] > 0
    assert tally["certain_hit"] == 0


@pytest.mark.parametrize("delay", [(0, 2**63 - 1), (2**62, 2**64), (0, WIDE_DELAY_HI + 1)])
def test_delays_past_int64_are_rejected(delay):
    """Validated only: a horizon past int64 is what the rule keeps from generation."""
    with pytest.raises(ConfigError) as exc:
        replace(WIDE_DELAY_BASE, message_delay_us=delay).validate()
    assert exc.value.field == "message_delay_us"


@pytest.mark.parametrize("chunk_words", [1, 5])
def test_small_delay_chunks_match_reference(chunk_words):
    """One-word chunks, and five-word chunks that leave a ragged tail.

    ``_draws`` sizes its chunks from ``CHUNK_WORDS``: a lone narrow span's
    (the users and most delays) and the wide draws', whose unread words
    the next word window starts from.
    """
    configs = list(itertools.islice(seeded_configs(), 0, None, 3))
    configs += itertools.islice(wide_fanout_configs(), 0, None, 4)
    assert any(c.event_lifespan_us[0] >= 2**32 for c in configs)
    with mock.patch.object(simulate, "CHUNK_WORDS", chunk_words):
        tally = assert_same_traces(configs)
    assert_every_path(tally)
    assert tally["window_events"] > 0 and tally["wide_events"] > 0


@pytest.mark.parametrize("rooms", [2, 3, 8, 2**16])
def test_wrong_rooms_match_the_list_rule(rooms):
    """Half the readings erroneous: each wrong room is the draw ``_oracles.list_wrong_room`` makes.

    Wrong rooms must fall on both sides of the true room, so the skip past
    it is taken and not taken.
    """
    configs = [
        SimConfig(nodes=3, instances_per_node=2, events_per_process=6, rooms=rooms, error_rate=0.5, seed=seed)
        for seed in (1, 2, 3)
    ]
    assert_same_traces(configs)
    sides = Counter()
    for config in configs:
        for ev in generate_trace(config).events:
            r = ev.reading
            if r.erroneous:
                sides[int(r.location[1:]) > int(r.true_location[1:])] += 1
    assert sides[True] > 0 and sides[False] > 0
