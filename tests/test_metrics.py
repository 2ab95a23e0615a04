import math
import random

import pytest
from hypothesis import assume, example, given, strategies as st

from snapdetect import metrics
from snapdetect.detectors import EventId, pair_key
from snapdetect.metrics import AccuracyReport, complexity_fit, score, trend


def pairs(*specs):
    return {pair_key(EventId(a, b), EventId(c, d)) for a, b, c, d in specs}


class TestScore:
    def test_perfect_detection(self):
        truth = pairs((0, 0, 1, 0), (0, 1, 1, 1))
        report = score(truth, truth)
        assert report.recall == 1.0 and report.precision == 1.0
        assert report.false_negatives == 0

    def test_empty_detection_has_vacuous_precision(self):
        truth = pairs((0, 0, 1, 0))
        report = score(set(), truth)
        assert report.recall == 0.0 and report.precision == 1.0
        assert report.false_negatives == 1

    def test_empty_truth_has_vacuous_recall(self):
        assert score(set(), set()).recall == 1.0

    def test_other_iterables_score_as_their_sets(self):
        truth = pairs((0, 0, 1, 0), (0, 1, 1, 1), (0, 2, 1, 2))
        detected = pairs((0, 0, 1, 0), (0, 3, 1, 3))
        want = score(detected, truth)
        assert score(list(detected) * 2, sorted(truth)) == want
        assert score(iter(detected), frozenset(truth)) == want
        assert want == AccuracyReport(
            recall=1 / 3, precision=0.5, true_pairs=3, detected_pairs=2, false_negatives=2
        )

    def test_sets_are_read_as_given(self, monkeypatch):
        copies = []

        def counting_set(items=()):
            copies.append(items)
            return set(items)

        monkeypatch.setattr(metrics, "set", counting_set, raising=False)
        truth = frozenset(pairs((0, 0, 1, 0), (0, 1, 1, 1)))
        report = score(pairs((0, 0, 1, 0)), truth)
        assert (report.recall, report.false_negatives) == (0.5, 1)
        assert copies == []
        score([], truth)
        assert copies == [[]]

    def test_recall_matches_hand_count_on_random_sets(self):
        rng = random.Random(5)
        universe = [pair_key(EventId(0, i), EventId(1, j)) for i in range(4) for j in range(2)]
        for _ in range(30):
            truth = set(rng.sample(universe, rng.randint(1, len(universe))))
            detected = set(rng.sample(universe, rng.randint(0, len(universe))))
            report = score(detected, truth)
            hand = sum(1 for p in detected if p in truth) / len(truth)
            assert math.isclose(report.recall, hand)

    @given(st.sets(st.integers(0, 20), max_size=10), st.sets(st.integers(0, 20), max_size=10))
    def test_recall_monotone_in_detection(self, detected_idx, extra_idx):
        truth = pairs(*[(0, i, 1, i) for i in range(21)])
        as_pairs = lambda idx: {pair_key(EventId(0, i), EventId(1, i)) for i in idx}
        base = score(as_pairs(detected_idx), truth)
        grown = score(as_pairs(detected_idx | extra_idx), truth)
        assert grown.recall >= base.recall

    @given(st.integers(0, 1000))
    def test_invariant_under_relabeling(self, shift):
        truth = pairs((0, 0, 1, 0), (0, 1, 1, 1))
        detected = pairs((0, 0, 1, 0))
        relabel = lambda ps: {
            pair_key(EventId(a.process, a.seq + shift), EventId(b.process, b.seq + shift))
            for a, b in ps
        }
        assert score(detected, truth).recall == score(relabel(detected), relabel(truth)).recall


def rank_correlation_reference(xs, ys):
    """Direct Spearman via average ranks, written independently."""

    def ranks(vals):
        pos = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(vals):
            j = i
            while j + 1 < len(vals) and vals[pos[j + 1]] == vals[pos[i]]:
                j += 1
            for k in range(i, j + 1):
                out[pos[k]] = (i + j) / 2
            i = j + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)


#: Two equal-length lists over five values, -0.0 and 0.0 among them, so most values tie.
TIE_HEAVY_SERIES = st.integers(3, 12).flatmap(
    lambda n: st.tuples(*[st.lists(st.sampled_from([-0.0, 0.0, 0.1, 0.7, 0.9]), min_size=n, max_size=n)] * 2)
)


class TestTrend:
    def test_perfectly_decreasing(self):
        assert trend([1, 2, 3], [0.9, 0.8, 0.7]) == pytest.approx(-1.0)

    def test_perfectly_increasing(self):
        assert trend([1, 2, 3], [0.7, 0.8, 0.9]) == pytest.approx(1.0)

    def test_constant_series_is_flat(self):
        assert trend([1, 2, 3], [0.5, 0.5, 0.5]) == 0.0

    @given(TIE_HEAVY_SERIES)
    @example(([1, 2, 3, 4, 5, 6], [0.9, 0.7, 0.7, 0.4, 0.1, 0.1]))
    def test_ties_match_reference_ranks(self, series):
        xs, ys = series
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)  # the reference divides by each side's spread
        assert trend(xs, ys) == pytest.approx(rank_correlation_reference(xs, ys))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            trend([1, 2], [0.1, 0.2])
        with pytest.raises(ValueError):
            trend([1, 2, 3], [0.1, 0.2])

    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=4, max_size=10, unique=True))
    def test_invariant_under_monotone_x_transform(self, ys):
        xs = list(range(len(ys)))
        stretched = [math.exp(x / 3) for x in xs]
        assert trend(xs, ys) == pytest.approx(trend(stretched, ys))


class TestComplexityFit:
    def test_quadratic_synthetic(self):
        sizes = [4, 8, 16]
        fit = complexity_fit(sizes, [n * n for n in sizes])
        assert fit.exponent == pytest.approx(2.0, abs=0.05)
        assert fit.label == "quadratic"

    def test_constant_synthetic(self):
        fit = complexity_fit([4, 8, 16], [7, 7, 7])
        assert fit.exponent == pytest.approx(0.0, abs=1e-9)
        assert fit.label == "constant"

    def test_linear_synthetic(self):
        fit = complexity_fit([4, 8, 16], [12, 24, 48])
        assert fit.label == "linear"

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            complexity_fit([4, 8, 16], [1, 0, 4])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            complexity_fit([4, 8], [1, 2])
