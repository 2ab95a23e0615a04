"""Accuracy scoring, trend statistics and empirical complexity counters."""
from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Classification bands for growth-exponent estimates.  Chosen wide enough
# to tolerate additive constants at desk-scale sizes.
CONSTANT_MAX = 0.3
LINEAR_BAND = (0.7, 1.3)
QUADRATIC_BAND = (1.7, 2.3)


@dataclass
class OpCounters:
    """Work counters accumulated while a detector runs.

    ``stamp_words_sent`` sums payload sizes in machine words over every
    emitted message or broadcast, counted once per emission, not once per
    recipient.  So a snapshot announcement to n - 1 peers costs one word:
    its O(1) is per message on a broadcast medium, and over point-to-point
    links the snapshot family moves at least as many words as the vector
    family.  ``events_processed`` counts notifications that triggered
    detector work: local occurrences, sends and deliveries.
    """

    clock_updates: int = 0
    stamp_words_sent: int = 0
    pair_checks: int = 0
    events_processed: int = 0


@dataclass(frozen=True)
class AccuracyReport:
    recall: float
    precision: float
    true_pairs: int
    detected_pairs: int
    false_negatives: int


def score(detected, truth) -> AccuracyReport:
    """Score a detector's output against ground truth.

    ``truth`` is either a ``GroundTruth`` (its ``concurrent_pairs`` are
    used) or a plain collection of canonical event-id pairs.  A set,
    frozenset or other ``Set`` is read as given; any other iterable is
    made a set once.  When either side is a ``detectors.PairKeys``, as
    ``GroundTruth`` and every ``RunResult`` hold their pairs, the hits are
    counted by key: against another view over the same ids (a run's pairs
    against its trace's truth), one ``searchsorted`` of one key column in
    the other; against any other collection, each pair's events go
    through the view's id-to-index map first.  When the two sides are one
    view (the physical family), every pair is a hit.  Otherwise the hits
    are ``len(detected & truth)``.  Either way each detected element is a
    pair of event ids.  Recall over an empty truth set, and precision over
    an empty detection set, are defined as 1.
    """
    from .detectors import PairKeys  # detectors imports this module

    detected = _as_set(detected)
    true_pairs = _as_set(getattr(truth, "concurrent_pairs", truth))
    if isinstance(true_pairs, PairKeys):
        hits = true_pairs.count_common(detected)
    elif isinstance(detected, PairKeys):
        hits = detected.count_common(true_pairs)
    else:
        hits = len(detected & true_pairs)
    recall = hits / len(true_pairs) if true_pairs else 1.0
    precision = hits / len(detected) if detected else 1.0
    return AccuracyReport(
        recall=recall,
        precision=precision,
        true_pairs=len(true_pairs),
        detected_pairs=len(detected),
        false_negatives=len(true_pairs) - hits,
    )


def _as_set(pairs):
    return pairs if isinstance(pairs, Set) else set(pairs)


def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """Each value's rank from 0; tied values share the average of their rank positions."""
    arr = np.asarray(values, dtype=float)
    s = np.sort(arr)
    return (s.searchsorted(arr, "left") + s.searchsorted(arr, "right") - 1) / 2


def trend(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation of (xs, ys), with average ranks for ties.

    Returns 0.0 when either side is constant (no ordering information),
    so a flat accuracy curve counts as a non-positive trend.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 3:
        raise ValueError(f"need at least 3 points, got {len(xs)}")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    sx = rx.std()
    sy = ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(((rx - rx.mean()) * (ry - ry.mean())).mean() / (sx * sy))


@dataclass(frozen=True)
class ComplexityFit:
    exponent: float
    label: str  # constant | linear | quadratic | indeterminate


def complexity_fit(sizes: Sequence[float], counts: Sequence[float]) -> ComplexityFit:
    """Least-squares slope of log(count) against log(size).

    Classifies the slope as constant (< 0.3), linear (0.7..1.3) or
    quadratic (1.7..2.3); anything else is indeterminate.
    """
    if len(sizes) != len(counts):
        raise ValueError(f"length mismatch: {len(sizes)} vs {len(counts)}")
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 sizes, got {len(sizes)}")
    if any(c <= 0 for c in counts):
        raise ValueError("counts must be positive for a log-log fit")
    if any(s <= 0 for s in sizes):
        raise ValueError("sizes must be positive for a log-log fit")
    slope = float(np.polyfit(np.log(np.asarray(sizes, float)),
                             np.log(np.asarray(counts, float)), 1)[0])
    if abs(slope) < CONSTANT_MAX:
        label = "constant"
    elif LINEAR_BAND[0] <= slope <= LINEAR_BAND[1]:
        label = "linear"
    elif QUADRATIC_BAND[0] <= slope <= QUADRATIC_BAND[1]:
        label = "quadratic"
    else:
        label = "indeterminate"
    return ComplexityFit(exponent=slope, label=label)
