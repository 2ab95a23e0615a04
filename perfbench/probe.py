"""Host-speed probe: times a fixed reference kernel while a part runs.

On a shared host the same Python code can run 1.7x slower from one
minute to the next, so raw seconds differ between runs by far more than
any bound worth having.  The probe times a small fixed kernel, with no
snapdetect code in it, just before a part and then every ``INTERVAL_S``
seconds while the part runs (from a ``SIGALRM`` handler, so no thread or
process is started).  A part's time divided by the median kernel time
seen during it is the part's length in reference units; a host slowdown
moves both alike and cancels.  ``at_nominal_speed`` turns that back into
seconds on a host where the kernel takes ``NOMINAL_REFERENCE_S``.  Time
spent sampling inside the part is summed in ``spent_s`` so the caller
leaves it out of its timings.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

INTERVAL_S = 0.1
SAMPLES_BEFORE = 3
# Median kernel time on the 2-vCPU Xeon VM where the bounds were set
# (1.6-2.1 ms there, from one run to the next).  A fixed constant: it only
# scales the reported seconds and never changes between commits.
NOMINAL_REFERENCE_S = 0.0018


def reference_kernel() -> int:
    """Fixed pure-Python work: small-tuple, dict and set churn like the detectors'."""
    counts: dict = {}
    seen = set()
    for i in range(3_000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        if key < (48, 44):
            seen.add((key, i & 7))
    return len(seen) + len(counts)


@dataclass
class SpeedProbe:
    samples: list = field(default_factory=list)  # kernel seconds
    spent_s: float = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self.spent_s += elapsed

    @property
    def reference_s(self) -> float:
        return statistics.median(self.samples)


def at_nominal_speed(seconds: float, probe: SpeedProbe) -> float:
    """``seconds`` measured under ``probe``, rescaled to the nominal host speed."""
    return seconds * NOMINAL_REFERENCE_S / probe.reference_s


@contextlib.contextmanager
def sampling():
    """Probe the host before and during the ``with`` block."""
    probe = SpeedProbe()
    for _ in range(SAMPLES_BEFORE):
        probe.sample()
    probe.spent_s = 0.0
    previous = signal.signal(signal.SIGALRM, lambda *_: probe.sample())
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield probe
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
