"""The generator's random draws against ``random.Random``.

``simulate._randint`` and the bulk draw ``simulate._draws`` must give
exactly the successive ``randint`` values of a fresh ``random.Random``
with the same seed.  ``_draws`` is checked on lone spans, narrow and
wide, with one-word chunks, with chunks that leave a ragged tail and with
the default; on runs of narrow spans broken by wide ones, none of them
drawn one at a time, and one-span narrow runs between wide spans among
them, whose words must come from the same local array as the wide draws
around them; at the edges of the keep threshold
``n << (32 - n.bit_length())``; when a window holds too few kept words
and widens; and on no span at all.  If CPython changes how
``randint`` or ``getrandbits`` consume its stream, these fail first.  A
guard also keeps ``numpy.random`` (and its memory) out of trace
generation.
"""
import contextlib
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import snapdetect
from snapdetect import simulate
from snapdetect.simulate import CHUNK_WORDS, _draws, _randint

#: n = hi - lo + 1 of 1, 2**32 - 1, 2**32 and 2**32 + 1, and a spread between.
SPAN_SIZES = st.sampled_from([1, 2, 3, 4_001, 2**31, 2**32 - 1, 2**32, 2**32 + 1])
SPAN_SIZES |= st.integers(1, 2**40)
SEEDS = st.integers(0, 2**64 - 1)
CHUNKS = st.sampled_from([1, 5, 7, CHUNK_WORDS])


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, lo=st.integers(-(2**40), 2**40), n=SPAN_SIZES, count=st.integers(1, 40))
@example(seed=0, lo=0, n=1, count=3)
@example(seed=1, lo=5, n=2**32 - 1, count=20)
@example(seed=2, lo=-7, n=2**32, count=20)
@example(seed=3, lo=9, n=2**32 + 1, count=20)
def test_randint_matches_random_randint(seed, lo, n, count):
    rng, ref = random.Random(seed), random.Random(seed)
    got = [_randint(rng.getrandbits, lo, lo + n - 1) for _ in range(count)]
    assert got == [ref.randint(lo, lo + n - 1) for _ in range(count)]
    assert rng.getstate() == ref.getstate()


def draws(seed: int, spans: list[int], count: int, chunk_words: int = CHUNK_WORDS) -> list[int]:
    """``_draws`` on a fresh stream of ``seed``, checked for its dtype and length, as a list."""
    with mock.patch.object(simulate, "CHUNK_WORDS", chunk_words):
        got = _draws(random.Random(seed), spans, count)
    assert got.dtype == "int64" and len(got) == len(spans) * count
    return got.tolist()


def randints(seed: int, spans: list[int], count: int) -> list[int]:
    """The reference: ``count`` calls of ``randint(0, n - 1)`` per span in turn, on a fresh stream."""
    ref = random.Random(seed)
    return [ref.randint(0, n - 1) for n in spans for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, n=SPAN_SIZES | st.integers(1, 2**63), count=st.integers(1, 300), chunk_words=CHUNKS)
@example(seed=0, n=1, count=10, chunk_words=1)
@example(seed=1, n=2**32 - 1, count=23, chunk_words=5)
@example(seed=2, n=2**32, count=23, chunk_words=5)
@example(seed=3, n=2**32 + 1, count=23, chunk_words=7)
@example(seed=4, n=2**31 + 1, count=200, chunk_words=CHUNK_WORDS)
@example(seed=5, n=2**63, count=3, chunk_words=1)
@example(seed=6, n=4_001, count=1, chunk_words=7)
@example(seed=7, n=2**40, count=1, chunk_words=1)
def test_delay_chunks_match_random_randint(seed, n, count, chunk_words):
    """One span, as the delays and users draw: narrow (the chunks) or wide (one draw at a time), up to 2**63."""
    assert draws(seed, [n], count, chunk_words) == randints(seed, [n], count)


@contextlib.contextmanager
def one_at_a_time():
    """The span of every draw ``_draws`` makes one at a time, through ``simulate._randint``, inside the block."""
    spans = []
    randint = simulate._randint

    def counted(bits, lo, hi):
        spans.append(hi - lo + 1)
        return randint(bits, lo, hi)

    with mock.patch.object(simulate, "_randint", counted):
        yield spans


#: Event spans as the generator draws sends over them: narrow ones of every
#: width, the edges of 32 bits, and wide ones that take two words, up to
#: the int64 times a span lies between.
EVENT_SPANS = st.sampled_from([1, 2, 3, 20_000, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 3])
EVENT_SPANS |= st.integers(1, 2**34)


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    spans=st.lists(EVENT_SPANS, min_size=2, max_size=30),
    count=st.integers(1, 64),
    chunk_words=CHUNKS,
)
@example(seed=0, spans=[2**31] * 40, count=16, chunk_words=1)
@example(seed=1, spans=[2**32 + 5, 40_000, 2**33, 3], count=39, chunk_words=5)
@example(seed=2, spans=[2**33, 7, 2**33], count=1, chunk_words=1)
@example(seed=3, spans=[2**32, 20_000, 2**62 + 3, 2**31, 2**32 + 1], count=5, chunk_words=7)
def test_window_draw_equals_below_per_event(seed, spans, count, chunk_words):
    """Several spans: each narrow run goes through the word window, each wide span one draw at a time.

    Every narrow span, however short its run, reads its words from where
    the draw before it stopped, so the draws after it read on in order.
    """
    with one_at_a_time() as single:
        got = draws(seed, spans, count, chunk_words)
    assert got == randints(seed, spans, count)
    assert set(single) == {n for n in spans if n.bit_length() > 32}  # no narrow span went one draw at a time


#: Wide spans with narrow runs of one span between them, at and around 32 bits.
BETWEEN_WIDE = [[2**33, 5, 2**33], [2**32, 2**31, 2**32 + 1], [5, 2**40, 9, 2**40, 2**20], [2**62 + 3, 1, 2**32]]


@pytest.mark.parametrize("chunk_words", [1, 5, 7, CHUNK_WORDS])
def test_wide_below_straddles_refills(chunk_words):
    """Wide draws refill the local words across chunks; a one-span narrow run between them takes the window.

    A lone span's chunks drop the words they draw past their last value,
    so the wide span after such a run would read other words.
    """
    for spans in BETWEEN_WIDE:
        for seed in range(6):
            for count in (1, 3, 2 * chunk_words + 1):
                assert draws(seed, spans, count, chunk_words) == randints(seed, spans, count)


#: n = 2**k - 1, 2**k and 2**k + 1 for k in 1, 31 and 32: the largest n of
#: a width, its smallest and the one after (2**32 and 2**32 + 1 take two words).
THRESHOLD_EDGES = sorted({2**k + d for k in (1, 31, 32) for d in (-1, 0, 1)})


@pytest.mark.parametrize("n", THRESHOLD_EDGES)
def test_below_at_threshold_edges(n):
    """``word < n << (32 - k)`` keeps the words randint keeps, at each edge of a width, alone and in a run."""
    for seed in range(4):
        for spans in ([n], [n, n], [n, 3, n]):
            assert draws(seed, spans, 200) == randints(seed, spans, 200)


def test_window_widens_when_it_holds_too_few(monkeypatch):
    """Spans that keep each word with probability 1/2 outrun some windows and the words drawn for them.

    The stream is then read again, past the expected words, and the
    draws still match.
    """
    reads = []
    chunk = simulate._chunk

    def counted(rng, n):
        reads.append(n)
        return chunk(rng, n)

    monkeypatch.setattr(simulate, "_chunk", counted)
    widened = 0
    spans = [2**31, 2**20, 1] * 20
    for seed in range(40):
        del reads[:]
        assert draws(seed, spans, 16) == randints(seed, spans, 16)
        widened += len(reads) > 1
    assert widened > 0


@pytest.mark.parametrize("count", [1, 7])
def test_no_span_draws_nothing(count):
    rng = random.Random(3)
    state = rng.getstate()
    got = _draws(rng, [], count)
    assert got.dtype == "int64" and got.tolist() == []
    assert rng.getstate() == state  # no word drawn


def test_generation_does_not_import_numpy_random(tmp_path):
    """A sweep's whole path, in a fresh interpreter, imports neither ``numpy.random`` nor ``numpy.ma``.

    ``numpy.random`` adds several MB of resident memory to every run, and
    ``numpy.ma`` about 1 MB.  The sweep generates each trace and runs
    ground truth, all three families and ``score``; its rows are then
    read back and summarized, as ``sweep_specs`` does.
    """
    code = (
        "import sys\n"
        "from snapdetect import experiment\n"
        "spec = experiment.parse_spec({\n"
        "    'base': {'nodes': 2, 'events_per_process': 5, 'message_delay_ms': [1, 5]},\n"
        "    'sweep': {'axis': 'nodes', 'points': [2, 3, 4]},\n"
        "    'seeds': [1],\n"
        "    'detectors': ['snapshot', 'vector', 'physical'],\n"
        "})\n"
        "outcome = experiment.run_sweep(spec, sys.argv[1], jobs=1)\n"
        "experiment.summarize(experiment.read_results(outcome.results_csv))\n"
        "print(sorted({'numpy.random', 'numpy.ma'} & set(sys.modules)))\n"
    )
    src = str(Path(snapdetect.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
