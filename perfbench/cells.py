"""Per-cell output checks, exact counters and digests.

A cell is one trace replayed through every detector family its workload
runs.  Each cell is checked against invariants that hold for every input:

* physical recall and precision are both 1.0 (it reproduces ground truth);
* snapshot and vector precision are 1.0 (detected pairs are a subset of
  the wall-time truth);
* vector ``pair_checks`` is m(m-1)/2 for m events;
* snapshot ``pair_checks`` is the number of delivered messages;
* physical ``pair_checks`` is the number of true pairs.

A cell fails when it raised or broke any of these.  Checked cells are
reduced to small records (counters and a pair-set hash), so a run holds
no detector output beyond the cell being checked.
"""
from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

COUNTERS = ("clock_updates", "stamp_words_sent", "pair_checks", "events_processed")
FAMILIES = ("snapshot", "vector", "physical")


def pairs_hash(pairs) -> str:
    """sha256 of a pair set in canonical sorted order."""
    text = ";".join(
        f"{a.process}.{a.seq}-{b.process}.{b.seq}" for a, b in sorted(pairs)
    )
    return hashlib.sha256(text.encode()).hexdigest()


def _ratio(num: int, den: int) -> float:
    return num / den if den else 1.0


@dataclass
class CellRecord:
    """What a checked cell leaves behind."""

    events: int
    delivered: int
    dropped: int
    true_pairs: int
    # family -> {counter: value, "detected_pairs": n, "hits": n, "pairs_sha256": hex}
    families: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def recall(self, family: str) -> float:
        return _ratio(self.families[family]["hits"], self.true_pairs)

    def identity(self) -> tuple:
        """Everything about the cell that must repeat exactly."""
        return (
            self.events,
            self.delivered,
            self.dropped,
            self.true_pairs,
            tuple(sorted((f, tuple(sorted(v.items()))) for f, v in self.families.items())),
        )


def check_cell(events: int, delivered: int, dropped: int, truth, results: dict) -> CellRecord:
    """Check one cell.  ``results`` maps a family name to ``(detected, counters)``."""
    truth = frozenset(truth)
    record = CellRecord(events, delivered, dropped, len(truth))
    expected_checks = {
        "snapshot": delivered,
        "vector": events * (events - 1) // 2,
        "physical": len(truth),
    }
    for family, (detected, counters) in results.items():
        detected = frozenset(detected)
        hits = len(detected & truth)
        stats = {name: getattr(counters, name) for name in COUNTERS}
        stats.update(detected_pairs=len(detected), hits=hits, pairs_sha256=pairs_hash(detected))
        record.families[family] = stats
        if hits != len(detected):
            record.failures.append(f"{family}: {len(detected) - hits} detected pairs not in truth")
        if family == "physical" and hits != len(truth):
            record.failures.append(f"physical: recall {hits}/{len(truth)}")
        if stats["pair_checks"] != expected_checks[family]:
            record.failures.append(
                f"{family}: pair_checks {stats['pair_checks']} != {expected_checks[family]}"
            )
    return record


class CellObserver:
    """Collects cells as a workload runs them and checks each one.

    ``begin`` opens a cell with its trace and truth, ``result`` adds one
    family's output and ``flush`` checks the open cell.  The time spent
    checking is summed in ``excluded_s`` so the caller can leave it out of
    its timings.
    """

    def __init__(self):
        self.records: list[CellRecord] = []
        self.excluded_s = 0.0
        self._open = None

    def begin(self, trace, truth) -> None:
        self.flush()
        self._open = (trace, truth.concurrent_pairs, {})

    def result(self, trace, family: str, run_result) -> None:
        if self._open is None or self._open[0] is not trace:
            raise RuntimeError("detector result for a trace with no open cell")
        self._open[2][family] = (run_result.detected_pairs, run_result.counters)

    def flush(self) -> None:
        if self._open is None:
            return
        t0 = time.perf_counter()
        trace, truth, results = self._open
        self._open = None
        self.records.append(
            check_cell(len(trace.events), len(trace.messages), trace.dropped_messages, truth, results)
        )
        self.excluded_s += time.perf_counter() - t0

    def discard(self) -> None:
        """Drop the open cell unchecked, after the code running it raised."""
        self._open = None


def digest(records: list[CellRecord]) -> dict:
    """Workload-level exact counters and digests of one pass."""
    totals = {
        "simulate.events": 0,
        "simulate.messages_delivered": 0,
        "simulate.messages_dropped": 0,
        "simulate.true_pairs": 0,
        "simulate.degenerate_cells": 0,
    }
    for f in FAMILIES:
        for name in COUNTERS + ("detected_pairs",):
            totals[f"detectors.{f}.{name}"] = 0
    pair_lines, counter_lines = [], []
    for i, r in enumerate(records):
        totals["simulate.events"] += r.events
        totals["simulate.messages_delivered"] += r.delivered
        totals["simulate.messages_dropped"] += r.dropped
        totals["simulate.true_pairs"] += r.true_pairs
        totals["simulate.degenerate_cells"] += int(r.true_pairs > 0 and r.delivered == 0)
        for f, stats in sorted(r.families.items()):
            for name in COUNTERS + ("detected_pairs",):
                totals[f"detectors.{f}.{name}"] += stats[name]
            pair_lines.append(f"{i}|{f}|{stats['pairs_sha256']}")
            counter_lines.append(f"{i}|{f}|" + ",".join(str(stats[n]) for n in COUNTERS))
        counter_lines.append(f"{i}|trace|{r.events},{r.delivered},{r.dropped},{r.true_pairs}")
    return {
        "counters": totals,
        "pairs_sha256": hashlib.sha256("\n".join(pair_lines).encode()).hexdigest(),
        "counters_sha256": hashlib.sha256("\n".join(counter_lines).encode()).hexdigest(),
    }
