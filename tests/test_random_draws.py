"""The generator's random draws against ``random.Random``.

``simulate._randint`` and the bulk delay draw ``simulate._randints`` must
give exactly the successive ``randint(lo, hi)`` values of a fresh
``random.Random`` with the same seed: for spans around 2**32 words, with
one-word chunks and with chunks that leave a ragged tail.  The message
stream's word buffer ``simulate._Words`` must give what the stream itself
gives for any mix of ``below``, ``sample`` and ``getrandbits`` calls, also
when a draw of several words straddles a refill.  If CPython changes how
``randint``, ``sample`` or ``getrandbits`` consume its stream, these fail
first.  A guard also keeps ``numpy.random`` (and its memory) out of trace
generation.
"""
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


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, calls=st.lists(CALLS, min_size=1, max_size=12), chunk_words=CHUNKS)
@example(seed=5, calls=[("getrandbits", 65, 0), ("below", 2**32 + 1, 3), ("sample", 7, 3)], chunk_words=1)
@example(seed=6, calls=[("below", 30_001, 39), ("sample", 39, 4), ("below", 2**33, 2)], chunk_words=5)
def test_word_buffer_matches_its_stream(seed, calls, chunk_words):
    """Sends and peer samples read the message stream's words as the stream's own draws do."""
    words, ref = _Words(random.Random(seed)), random.Random(seed)
    with mock.patch.object(simulate, "CHUNK_WORDS", chunk_words):
        for name, a, b in calls:
            if name == "below":
                got = words.below(a, b)
                assert all(type(v) is int for v in got)
                assert got == [ref.randint(0, a - 1) for _ in range(b)]
            elif name == "sample":
                k = min(a, b)
                assert words.sample(range(a), k) == ref.sample(range(a), k)
            else:
                assert words.getrandbits(a) == ref.getrandbits(a)


def test_word_buffer_rejects_negative_width():
    with pytest.raises(ValueError, match="non-negative"):
        _Words(random.Random(0)).getrandbits(-1)


def test_generation_does_not_import_numpy_random():
    """``numpy.random`` adds several MB of resident memory to every run."""
    code = (
        "import sys\n"
        "from snapdetect import simulate\n"
        "simulate.generate_trace(simulate.SimConfig(nodes=3, message_delay_us=(1_000, 5_000)))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(snapdetect.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
