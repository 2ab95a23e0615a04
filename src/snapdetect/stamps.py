"""Logical timestamp types and their update rules.

Two kinds of stamps are supported:

* ``SnapshotStamp`` -- a scalar logical tick.  An event's lifetime is the
  half-open interval ``[lo, hi)`` of ticks, where ``hi`` is the first tick
  after the event.
* ``VectorStamp`` -- an n-slot logical timestamp whose slot-wise partial
  order characterises causality exactly.

The rules are fixed: a tick adds 1 and a scalar receive is a plain max.
Under the replay's instant broadcast no other increment or merge can
change a pair, counter or byte (README, "Verdict under instant
broadcast").  Physical time needs no stamp type: it is the simulated
microseconds since trace start.  All operations are pure functions on
frozen value types.
"""
from __future__ import annotations

from dataclasses import dataclass

#: Stamps are 64-bit non-negative integers.  Overflow is a hard fault,
#: never wraparound; desk-scale traces cannot approach this bound.
MAX_TICK = 2**63 - 1


class StampOverflowError(OverflowError):
    """A logical tick left the 64-bit non-negative domain."""


@dataclass(frozen=True)
class SnapshotStamp:
    tick: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.tick <= MAX_TICK:
            raise StampOverflowError(f"tick out of range: {self.tick}")


@dataclass(frozen=True)
class VectorStamp:
    slots: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(s < 0 or s > MAX_TICK for s in self.slots):
            raise StampOverflowError(f"slot out of range: {self.slots}")

    @classmethod
    def zero(cls, n: int) -> "VectorStamp":
        return cls((0,) * n)

    def __len__(self) -> int:
        return len(self.slots)


def snapshot_tick(clock: SnapshotStamp) -> SnapshotStamp:
    """Advance a scalar clock by 1 for a local occurrence or a send."""
    return SnapshotStamp(clock.tick + 1)


def snapshot_merge(local: SnapshotStamp, incoming: SnapshotStamp) -> SnapshotStamp:
    """Fold an incoming scalar stamp into the local clock: a plain max."""
    return SnapshotStamp(max(local.tick, incoming.tick))


def vector_tick(clock: VectorStamp, owner: int) -> VectorStamp:
    """Increment the owner's slot by 1; other slots are unchanged."""
    if not 0 <= owner < len(clock.slots):
        raise IndexError(f"owner {owner} out of range for {len(clock.slots)} slots")
    slots = list(clock.slots)
    slots[owner] += 1
    return VectorStamp(tuple(slots))


def vector_merge(local: VectorStamp, incoming: VectorStamp, owner: int) -> VectorStamp:
    """Slot-wise max of both stamps, then tick the owner's slot."""
    if len(local.slots) != len(incoming.slots):
        raise ValueError(
            f"vector length mismatch: {len(local.slots)} vs {len(incoming.slots)}"
        )
    merged = tuple(max(a, b) for a, b in zip(local.slots, incoming.slots))
    return vector_tick(VectorStamp(merged), owner)


def vector_leq(a: VectorStamp, b: VectorStamp) -> bool:
    """Slot-wise partial order: a <= b in every slot."""
    if len(a.slots) != len(b.slots):
        raise ValueError(
            f"vector length mismatch: {len(a.slots)} vs {len(b.slots)}"
        )
    return all(x <= y for x, y in zip(a.slots, b.slots))


def vector_lt(a: VectorStamp, b: VectorStamp) -> bool:
    """Strict slot-wise order: a <= b everywhere and a != b.

    For point events stamped by the vector rules this holds exactly when
    the first causally precedes the second.
    """
    return vector_leq(a, b) and a.slots != b.slots


@dataclass(frozen=True)
class Interval:
    """An event's ``[lo, hi)`` timestamp interval.

    ``lo`` and ``hi`` must be the same stamp kind.  Scalar intervals are
    non-empty (``lo < hi``); vector intervals satisfy ``lo <= hi``
    slot-wise.
    """

    lo: object
    hi: object

    def __post_init__(self) -> None:
        if type(self.lo) is not type(self.hi):
            raise TypeError(
                f"mixed stamp kinds: {type(self.lo).__name__} vs {type(self.hi).__name__}"
            )
        if isinstance(self.lo, SnapshotStamp):
            if not self.lo.tick < self.hi.tick:
                raise ValueError(f"empty scalar interval [{self.lo.tick}, {self.hi.tick})")
        elif isinstance(self.lo, VectorStamp):
            if not vector_leq(self.lo, self.hi):
                raise ValueError("vector interval endpoints not slot-wise ordered")
        else:
            raise TypeError(f"unsupported stamp type {type(self.lo).__name__}")
