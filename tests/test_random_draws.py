"""The generator's random draws against ``random.Random``.

``simulate._randint`` and the bulk delay draw ``simulate._randints`` must
give exactly the successive ``randint(lo, hi)`` values of a fresh
``random.Random`` with the same seed: for spans around 2**32 words, with
one-word chunks and with chunks that leave a ragged tail.  The message
stream's word buffer ``simulate._Words`` must give what the stream itself
gives for any mix of ``below``, ``sample`` and ``getrandbits`` calls, also
when a draw of several words or a run of ``below`` draws straddles a
refill, and at the edges of ``below``'s keep threshold
``n << (32 - n.bit_length())``.  ``_Words.below_each``, which reads the
words of all-peers events as numpy windows, must give what ``below``
gives event by event, and leave the stream where ``below`` would.  If
CPython changes how ``randint``, ``sample`` or ``getrandbits`` consume its
stream, these fail first.  A guard also keeps ``numpy.random`` (and its memory) out of trace
generation.
"""
import array
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
from snapdetect.simulate import CHUNK_WORDS, _randint, _randints, _Words

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


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, lo=st.integers(0, 2**40), n=SPAN_SIZES, wanted=st.integers(0, 300), chunk_words=CHUNKS)
@example(seed=0, lo=0, n=1, wanted=10, chunk_words=1)
@example(seed=1, lo=250_000, n=2**32 - 1, wanted=23, chunk_words=5)
@example(seed=2, lo=0, n=2**32, wanted=23, chunk_words=5)
@example(seed=3, lo=1, n=2**32 + 1, wanted=23, chunk_words=7)
@example(seed=4, lo=1_000, n=2**31 + 1, wanted=200, chunk_words=CHUNK_WORDS)
def test_delay_chunks_match_random_randint(seed, lo, n, wanted, chunk_words):
    """Every value the chunks return, in order, is the next ``randint``."""
    ref = random.Random(seed)
    with mock.patch.object(simulate, "CHUNK_WORDS", chunk_words):
        got = _randints(random.Random(seed), n, wanted)
    assert len(got) == wanted
    assert got.dtype == (object if n.bit_length() > 32 else "uint32")
    assert all(type(v) is int for v in got.tolist())
    assert [lo + v for v in got.tolist()] == [ref.randint(lo, lo + n - 1) for _ in range(wanted)]


#: One call on the word buffer: ``below(n, count)``, ``sample(range(m), k)``
#: with ``k <= m``, or ``getrandbits(k)`` for widths of 0 to 3 words.
CALLS = st.one_of(
    st.tuples(st.just("below"), SPAN_SIZES, st.integers(0, 40)),
    st.tuples(st.just("sample"), st.integers(1, 60), st.integers(0, 60)),
    st.tuples(st.just("getrandbits"), st.sampled_from([0, 1, 31, 32, 33, 64, 65, 96]), st.just(0)),
)


def below(words: _Words, n: int, count: int) -> list[int]:
    """``words.below(n, count)`` as values: each appended entry shifted right by the returned shift."""
    out = array.array("q", [-1])  # below appends after what is there
    shift = words.below(n, count, out)
    assert out[0] == -1 and len(out) == 1 + count
    return [v >> shift for v in out[1:]]


def check_calls(seed, calls, chunk_words):
    """Each call on a word buffer gives what the same call gives on its stream."""
    words, ref = _Words(random.Random(seed)), random.Random(seed)
    with mock.patch.object(simulate, "CHUNK_WORDS", chunk_words):
        for name, a, b in calls:
            if name == "below":
                assert below(words, a, b) == [ref.randint(0, a - 1) for _ in range(b)], (a, b)
            elif name == "sample":
                k = min(a, b)
                assert words.sample(range(a), k) == ref.sample(range(a), k)
            else:
                assert words.getrandbits(a) == ref.getrandbits(a)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, calls=st.lists(CALLS, min_size=1, max_size=12), chunk_words=CHUNKS)
@example(seed=5, calls=[("getrandbits", 65, 0), ("below", 2**32 + 1, 3), ("sample", 7, 3)], chunk_words=1)
@example(seed=6, calls=[("below", 30_001, 39), ("sample", 39, 4), ("below", 2**33, 2)], chunk_words=5)
def test_word_buffer_matches_its_stream(seed, calls, chunk_words):
    """Sends and peer samples read the message stream's words as the stream's own draws do."""
    check_calls(seed, calls, chunk_words)


#: n = 2**k - 1, 2**k and 2**k + 1 for k in 1, 31 and 32: the largest n of
#: a width, its smallest and the one after (2**32 and 2**32 + 1 take two words).
THRESHOLD_EDGES = sorted({2**k + d for k in (1, 31, 32) for d in (-1, 0, 1)})


@pytest.mark.parametrize("n", THRESHOLD_EDGES)
def test_below_at_threshold_edges(n):
    """``word < n << (32 - k)`` keeps the words randint keeps, at each edge of a width."""
    for seed in range(4):
        check_calls(seed, [("below", n, 200), ("getrandbits", 32, 0), ("below", n, 7)], CHUNK_WORDS)


@pytest.mark.parametrize("chunk_words", [1, 5, 7])
def test_below_straddles_refills_between_samples(chunk_words):
    """A run of draws longer than a chunk refills mid-run; samples read on from where it stopped."""
    calls = [("sample", 39, 5), ("below", 3_001, 3 * chunk_words + 2), ("sample", 12, 12)]
    calls += [("below", 2**31 + 1, 2 * chunk_words + 1), ("sample", 7, 1), ("below", 1, 4)]
    for seed in range(6):
        check_calls(seed, calls, chunk_words)


@pytest.mark.parametrize("chunk_words", [1, 5, 7])
def test_wide_below_straddles_refills(chunk_words):
    """Draws of two words each, across refills, with one-word draws between."""
    calls = [("below", 1_000, 2), ("below", 2**32 + 50_001, 2 * chunk_words + 1), ("below", 7, 3)]
    calls += [("below", 2**62 + 3, chunk_words + 1), ("sample", 9, 2)]
    for seed in range(6):
        check_calls(seed, calls, chunk_words)


@contextlib.contextmanager
def window_runs():
    """The spans of every ``_Words._window`` call inside the block."""
    runs = []
    window = _Words._window

    def counted(self, spans, count):
        runs.append(list(spans))
        return window(self, spans, count)

    with mock.patch.object(_Words, "_window", counted):
        yield runs


#: Event spans as the generator draws sends over them: narrow ones of every
#: width, the edges of 32 bits, and wide ones that take two words, up to
#: the int64 times a span lies between.
EVENT_SPANS = st.sampled_from([1, 2, 3, 20_000, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**62 + 3])
EVENT_SPANS |= st.integers(1, 2**34)


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    before=st.lists(CALLS, max_size=3),
    spans=st.lists(EVENT_SPANS, max_size=30),
    count=st.integers(1, 64),
    after=st.tuples(st.sampled_from([1, 32, 33, 64]), SPAN_SIZES, st.integers(1, 40)),
    chunk_words=st.sampled_from([1, 5, CHUNK_WORDS]),
)
@example(seed=0, before=[], spans=[2**31] * 40, count=16, after=(32, 7, 3), chunk_words=1)
@example(
    seed=1, before=[("below", 9, 2)], spans=[2**32 + 5, 40_000, 2**33, 3], count=39, after=(33, 2**32 + 1, 2), chunk_words=5
)
def test_window_draw_equals_below_per_event(seed, before, spans, count, after, chunk_words):
    """``below_each`` gives each span's ``count`` draws; a later ``getrandbits`` and ``below`` read on.

    The calls before it leave a part-read chunk in the buffer.
    """
    words, ref = _Words(random.Random(seed)), random.Random(seed)
    with mock.patch.object(simulate, "CHUNK_WORDS", chunk_words), window_runs() as runs:
        for name, a, b in before:
            if name == "below":
                assert below(words, a, b) == [ref.randint(0, a - 1) for _ in range(b)]
            elif name == "sample":
                assert words.sample(range(a), min(a, b)) == ref.sample(range(a), min(a, b))
            else:
                assert words.getrandbits(a) == ref.getrandbits(a)
        assert words.below_each([], count).tolist() == []  # and it reads no word: the draws below match
        got = words.below_each(spans, count)
        assert got.dtype == "int64" and len(got) == len(spans) * count
        assert got.tolist() == [ref.randint(0, n - 1) for n in spans for _ in range(count)]
        bits, n, k = after
        assert words.getrandbits(bits) == ref.getrandbits(bits)
        assert below(words, n, k) == [ref.randint(0, n - 1) for _ in range(k)]
    narrow = [n for n in spans if n.bit_length() <= 32]
    assert [n for run in runs for n in run] == narrow  # every narrow span, and no wide one, went through a window


def test_window_widens_when_it_holds_too_few(monkeypatch):
    """Spans that keep each word with probability 1/2 outrun some windows and the words drawn for them.

    The source is then read again, past the expected words, and the
    draws still match.
    """
    draws = []
    chunk = simulate._chunk

    def counted(rng, n):
        draws.append(n)
        return chunk(rng, n)

    monkeypatch.setattr(simulate, "_chunk", counted)
    widened = 0
    for seed in range(40):
        del draws[:]
        words, ref = _Words(random.Random(seed)), random.Random(seed)
        spans = [2**31, 2**20, 1] * 20
        got = words.below_each(spans, 16)
        assert got.tolist() == [ref.randint(0, n - 1) for n in spans for _ in range(16)]
        widened += len(draws) > 1
        assert words.getrandbits(32) == ref.getrandbits(32)
    assert widened > 0


def test_word_buffer_rejects_negative_width():
    with pytest.raises(ValueError, match="non-negative"):
        _Words(random.Random(0)).getrandbits(-1)


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
