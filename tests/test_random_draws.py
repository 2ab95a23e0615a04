"""The generator's random draws against ``random.Random.randint``.

``simulate._randint`` and the bulk delay draw ``simulate._delay_offsets``
must give exactly the successive ``randint(lo, hi)`` values of a fresh
``random.Random`` with the same seed: for spans around 2**32 words, with
one-word chunks and with chunks that leave a ragged tail.  If CPython
changes how ``randint`` consumes its stream, these fail first.  A guard
also keeps ``numpy.random`` (and its memory) out of trace generation.
"""
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import snapdetect
from snapdetect import simulate
from snapdetect.simulate import DELAY_CHUNK_WORDS, _delay_offsets, _randint

#: n = hi - lo + 1 of 1, 2**32 - 1, 2**32 and 2**32 + 1, and a spread between.
SPAN_SIZES = st.sampled_from([1, 2, 3, 4_001, 2**31, 2**32 - 1, 2**32, 2**32 + 1])
SPAN_SIZES |= st.integers(1, 2**40)
SEEDS = st.integers(0, 2**64 - 1)


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
@given(
    seed=SEEDS,
    lo=st.integers(0, 2**40),
    n=SPAN_SIZES,
    wanted=st.integers(1, 300),
    chunk_words=st.sampled_from([1, 5, 7, DELAY_CHUNK_WORDS]),
)
@example(seed=0, lo=0, n=1, wanted=10, chunk_words=1)
@example(seed=1, lo=250_000, n=2**32 - 1, wanted=23, chunk_words=5)
@example(seed=2, lo=0, n=2**32, wanted=23, chunk_words=5)
@example(seed=3, lo=1, n=2**32 + 1, wanted=23, chunk_words=7)
@example(seed=4, lo=1_000, n=2**31 + 1, wanted=200, chunk_words=DELAY_CHUNK_WORDS)
def test_delay_chunks_match_random_randint(seed, lo, n, wanted, chunk_words):
    """Every value the chunks return, in order, is the next ``randint``."""
    rng, ref = random.Random(seed), random.Random(seed)
    got = []
    with mock.patch.object(simulate, "DELAY_CHUNK_WORDS", chunk_words):
        while len(got) < wanted:
            chunk = _delay_offsets(rng, n, wanted - len(got))
            assert all(type(v) is int for v in chunk)
            got += chunk
    assert [lo + v for v in got] == [ref.randint(lo, lo + n - 1) for _ in got]


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
