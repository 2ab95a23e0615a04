"""Canned two-process traces where the vector-clock baseline goes blind.

Three fixtures, each with exactly one truly concurrent pair:

* ``a`` -- the earlier event messages the later one mid-overlap.  Only
  one direction of the endpoint happened-before test holds, so the
  vector baseline misses; the snapshot detector catches it.
* ``b`` -- the mirror image: the message flows from the later-starting
  process.  Same outcome.
* ``c`` -- the overlap carries no usable message (the only message lands
  on a later event after a long delay), so both detectors miss.  This is
  the delay-induced concurrency neither scheme claims to catch.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import AbstractSet, Optional

from .detectors import EventId, PairKey, pair_key
from .simulate import DetectorFamily, SimConfig, Trace, TraceEvent, TraceMessage, run_trace
from . import tracefile

FIXTURE_NAMES = ("a", "b", "c")

_MS = 1000


def _fixture_config(events_per_process: int) -> SimConfig:
    # Metadata only; fixture traces are hand-wired, not generated.
    return SimConfig(
        nodes=2,
        instances_per_node=1,
        events_per_process=events_per_process,
        message_delay_us=(20_000, 170_000),
        seed=0,
    )


def build_scenario_a() -> Trace:
    b = TraceEvent(EventId(0, 0), 0, 0, 100 * _MS)
    c = TraceEvent(EventId(1, 0), 1, 50 * _MS, 150 * _MS)
    msg = TraceMessage(b.id, c.id, 60 * _MS, 80 * _MS)
    return Trace((b, c), (msg,), _fixture_config(1))


def build_scenario_b() -> Trace:
    b = TraceEvent(EventId(0, 0), 0, 50 * _MS, 150 * _MS)
    c = TraceEvent(EventId(1, 0), 1, 0, 100 * _MS)
    msg = TraceMessage(c.id, b.id, 60 * _MS, 80 * _MS)
    return Trace((b, c), (msg,), _fixture_config(1))


def build_scenario_c() -> Trace:
    b = TraceEvent(EventId(0, 0), 0, 0, 100 * _MS)
    c = TraceEvent(EventId(1, 0), 1, 50 * _MS, 150 * _MS)
    later = TraceEvent(EventId(1, 1), 1, 200 * _MS, 300 * _MS)
    # The only message leaves the overlap window and lands on the later
    # event; by then the receiver's clock has moved past the send stamp.
    msg = TraceMessage(b.id, later.id, 80 * _MS, 250 * _MS)
    return Trace((b, c, later), (msg,), _fixture_config(2))


_BUILDERS = {"a": build_scenario_a, "b": build_scenario_b, "c": build_scenario_c}

#: The one truly concurrent pair in every scenario.
TRUTH_PAIR: PairKey = pair_key(EventId(0, 0), EventId(1, 0))

#: Whether the snapshot detector is expected to report that pair.
SNAPSHOT_DETECTS = {"a": True, "b": True, "c": False}


def build_scenario(name: str) -> Trace:
    return _BUILDERS[name]()


def default_fixture_dir() -> Path:
    return Path(resources.files("snapdetect") / "fixtures")


def fixture_path(name: str, fixture_dir: Optional[Path] = None) -> Path:
    base = Path(fixture_dir) if fixture_dir is not None else default_fixture_dir()
    return base / f"scenario_{name}.jsonl"


def write_fixtures(fixture_dir: Path) -> None:
    fixture_dir.mkdir(parents=True, exist_ok=True)
    for name in FIXTURE_NAMES:
        tracefile.save_trace(build_scenario(name), fixture_path(name, fixture_dir))


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    snapshot_pairs: AbstractSet[PairKey]
    vector_pairs: AbstractSet[PairKey]

    @property
    def ok(self) -> bool:
        """Vector misses ``TRUTH_PAIR``; snapshot reports it as ``SNAPSHOT_DETECTS`` says."""
        expected = {TRUTH_PAIR} if SNAPSHOT_DETECTS[self.name] else set()
        return self.snapshot_pairs == expected and not self.vector_pairs


def run_scenario(name: str, fixture_dir: Optional[Path] = None) -> ScenarioResult:
    trace = tracefile.load_trace(fixture_path(name, fixture_dir))
    snap = run_trace(trace, DetectorFamily.SNAPSHOT)
    vec = run_trace(trace, DetectorFamily.VECTOR)
    return ScenarioResult(name, snap.detected_pairs, vec.detected_pairs)


def run_all_scenarios(fixture_dir: Optional[Path] = None) -> list[ScenarioResult]:
    return [run_scenario(name, fixture_dir) for name in FIXTURE_NAMES]
