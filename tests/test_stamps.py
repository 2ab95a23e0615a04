import pytest
from hypothesis import given, strategies as st

from _oracles import (
    Interval,
    SnapshotStamp,
    VectorStamp,
    snapshot_merge,
    snapshot_tick,
    vector_leq,
    vector_lt,
    vector_merge,
    vector_tick,
)
from snapdetect.detectors import MAX_TICK, StampOverflowError


class TestSnapshotRules:
    def test_tick_default(self):
        assert snapshot_tick(SnapshotStamp(5)).tick == 6

    def test_tick_base_case(self):
        assert snapshot_tick(SnapshotStamp(0)).tick == 1

    def test_merge_takes_max(self):
        assert snapshot_merge(SnapshotStamp(7), SnapshotStamp(10)).tick == 10
        assert snapshot_merge(SnapshotStamp(10), SnapshotStamp(7)).tick == 10

    def test_merge_equal_operands(self):
        assert snapshot_merge(SnapshotStamp(4), SnapshotStamp(4)).tick == 4

    def test_overflow_is_a_hard_fault(self):
        with pytest.raises(StampOverflowError):
            snapshot_tick(SnapshotStamp(MAX_TICK))


class TestVectorRules:
    def test_tick_single_slot(self):
        assert vector_tick(VectorStamp((0, 0, 0)), 1).slots == (0, 1, 0)
        assert vector_tick(VectorStamp((2, 5, 1)), 0).slots == (3, 5, 1)

    def test_tick_owner_out_of_range(self):
        with pytest.raises(IndexError):
            vector_tick(VectorStamp((0, 0)), 2)

    def test_merge_max_then_tick(self):
        assert vector_merge(VectorStamp((1, 0)), VectorStamp((0, 2)), 0).slots == (2, 2)
        assert vector_merge(VectorStamp((3, 3)), VectorStamp((3, 3)), 1).slots == (3, 4)
        assert vector_merge(VectorStamp((0, 0, 5)), VectorStamp((4, 0, 0)), 2).slots == (4, 0, 6)

    def test_merge_length_mismatch(self):
        with pytest.raises(ValueError):
            vector_merge(VectorStamp((1, 0)), VectorStamp((0, 2, 3)), 0)

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)),
            min_size=1,
            max_size=6,
        ),
        st.permutations(range(6)),
    )
    def test_merge_max_part_commutes(self, stamps, perm):
        # Folding the same multiset of incoming stamps in any order gives
        # the same slot-wise max (owner ticks held aside).
        stamps = [VectorStamp(s) for s in stamps]
        orderings = [stamps, [stamps[i % len(stamps)] for i in perm][: len(stamps)]]

        def fold(seq):
            acc = VectorStamp.zero(3)
            for s in seq:
                acc = VectorStamp(tuple(max(a, b) for a, b in zip(acc.slots, s.slots)))
            return acc

        assert fold(sorted(stamps, key=lambda v: v.slots)) == fold(
            sorted(stamps, key=lambda v: v.slots, reverse=True)
        )


class TestInterval:
    def test_unordered_vector_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(VectorStamp((2, 0)), VectorStamp((1, 1)))


class TestMonotonicity:
    @given(st.lists(st.sampled_from(["tick", "merge-low", "merge-high"]), max_size=30))
    def test_ticks_never_decrease(self, ops):
        clock = SnapshotStamp(0)
        seen = [0]
        for op in ops:
            if op == "tick":
                clock = snapshot_tick(clock)
            elif op == "merge-low":
                clock = snapshot_merge(clock, SnapshotStamp(0))
            else:
                clock = snapshot_merge(clock, SnapshotStamp(clock.tick + 5))
            seen.append(clock.tick)
        assert seen == sorted(seen)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=20))
    def test_vector_slots_never_decrease(self, owners):
        clock = VectorStamp.zero(3)
        prev = clock
        for owner in owners:
            clock = vector_tick(clock, owner)
            assert vector_leq(prev, clock) and vector_lt(prev, clock)
            prev = clock
