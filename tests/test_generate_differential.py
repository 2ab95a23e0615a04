"""Trace generation as columns against its one-``randint``-per-draw form.

``_oracles.randint_generate_trace`` is the per-attempt loop that
``simulate.generate_trace`` replaced.  Events, messages and the drop count
must be identical on every spec config, on the benchmark's dense and long
configs, and on a seeded corpus that covers fan-out None/1/3, zero start
jitter, delay spans from width 0 up to 2**32 and lifespans of 2**32 us and
more (send draws of two words).  Each corpus must reach every delivery
outcome, or it shows nothing: a window inside one receiver event (certain
first-try delivery), a window that meets no receiver event (certain drop,
hopeless attempts among them), and windows whose outcome the delays decide,
landing on the first, second and third try or missing all three.
"""
import itertools
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from _oracles import randint_generate_trace
from snapdetect import simulate
from snapdetect.experiment import config_for_point, load_spec
from snapdetect.simulate import SimConfig, generate_trace

SPECS = sorted((Path(__file__).resolve().parents[1] / "specs").glob("*.json"))

#: (lo, hi) delay spans of width 0, 1, 4,000, 7.75M, 2**31 and 2**32.
DELAY_SPANS = (
    (3_000, 3_000),
    (2_000, 2_001),
    (1_000, 5_000),
    SimConfig(nodes=2).message_delay_us,
    (10_000, 10_000 + 2**31),
    (5_000, 5_000 + 2**32),
)
FANOUTS = (None, 1, 3)
JITTERS = (0, SimConfig(nodes=2).start_jitter_us)
#: Short lifespans, and lifespans of 2**32 us or more, whose send draws
#: take two words each.
LIFESPANS = ((2_000, 12_000), (2**32, 2**32 + 50_000))
SEEDS_PER_POINT = 9


def spec_configs():
    for path in SPECS:
        spec = load_spec(path)
        for point in spec.points:
            for seed in spec.seeds:
                yield config_for_point(spec.base, spec.axis, point, seed)


def benchmark_configs():
    """The dense (5, 10, 20 nodes, seed 3) and long (seeds 1-4) benchmark traces."""
    for nodes in (5, 10, 20):
        yield SimConfig(
            nodes=nodes,
            instances_per_node=2,
            events_per_process=20,
            message_delay_us=(1_000, 5_000),
            seed=3,
        )
    for seed in range(1, 5):
        yield SimConfig(
            nodes=4,
            instances_per_node=2,
            events_per_process=150,
            message_delay_us=(1_000, 5_000),
            peer_fanout=1,
            seed=seed,
        )


def seeded_configs():
    """648 small configs over every lifespan, delay span, fan-out and jitter."""
    grid = itertools.product(LIFESPANS, DELAY_SPANS, FANOUTS, JITTERS)
    for i, (lifespan, delay, fanout, jitter) in enumerate(grid):
        for k in range(SEEDS_PER_POINT):
            yield SimConfig(
                nodes=2 + k % 4,
                instances_per_node=1 + k % 2,
                events_per_process=3 + k % 5,
                event_lifespan_us=lifespan,
                inter_event_gap_us=(0, 4_000),
                message_delay_us=delay,
                start_jitter_us=jitter,
                peer_fanout=fanout,
                seed=7 + i * SEEDS_PER_POINT + k,
            )


def assert_same_traces(configs) -> Counter:
    """Compare each config's trace with the reference; tally every attempt's outcome.

    The reference counts ``hopeless``, ``hit_try_1`` to ``hit_try_3`` and
    ``dropped`` attempts; ``certain_hit`` and ``certain_miss`` count the
    windows the generator settles without trying a delay.
    """
    tally = Counter()
    outcomes = simulate._window_outcomes

    def counted(*args):
        seq, inside, missed = outcomes(*args)
        tally["certain_hit"] += int(inside.sum())
        tally["certain_miss"] += int(missed.sum())
        return seq, inside, missed

    for config in configs:
        with mock.patch.object(simulate, "_window_outcomes", counted):
            got = generate_trace(config)
        want = randint_generate_trace(config, tally)
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


def test_benchmark_configs_match_reference():
    tally = assert_same_traces(benchmark_configs())
    assert_every_path(tally)


def test_seeded_corpus_matches_reference():
    configs = list(seeded_configs())
    widths = {c.message_delay_us[1] - c.message_delay_us[0] for c in configs}
    assert widths == {0, 1, 4_000, 7_750_000, 2**31, 2**32}
    assert max(w + 1 for w in widths).bit_length() == 33
    assert {c.event_lifespan_us[0] for c in configs} == {2_000, 2**32}
    tally = assert_same_traces(configs)
    assert tally["configs"] >= 600
    assert_every_path(tally)


@pytest.mark.parametrize("delay", [(0, 2**63 - 1), (2**62, 2**64)])
def test_delays_past_int64_match_reference(delay):
    """Windows that end past int64 are clipped at the horizon, and their delays stay exact."""
    configs = [
        SimConfig(nodes=3, events_per_process=4, message_delay_us=delay, peer_fanout=fanout, seed=seed)
        for fanout in (None, 1)
        for seed in (1, 2)
    ]
    tally = assert_same_traces(configs)
    assert tally["attempts"] > 0
    assert tally["certain_hit"] == 0


@pytest.mark.parametrize("chunk_words", [1, 5])
def test_small_delay_chunks_match_reference(chunk_words):
    """One-word chunks, and five-word chunks that leave a ragged tail.

    Both the message stream's word buffer and the bulk delay draw read
    their streams in chunks of ``CHUNK_WORDS`` words.
    """
    configs = list(itertools.islice(seeded_configs(), 0, None, 3))
    assert any(c.event_lifespan_us[0] >= 2**32 for c in configs)
    with mock.patch.object(simulate, "CHUNK_WORDS", chunk_words):
        tally = assert_same_traces(configs)
    assert_every_path(tally)
