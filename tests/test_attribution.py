"""Unit tests for BeBoP byte-index tag attribution (paper §II-B1, Fig 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bebop.attribution import (
    FREE_TAG,
    TagMemo,
    attribute_predictions,
    update_tag_assignment,
)


class TestAttribute:
    def test_paper_fig2_false_sharing(self):
        """Fig 2: entry learned through I1 (byte 0) and I2 (byte 3); a fetch
        entering at I2 must get P2, not P1."""
        tags = [0, 3]
        assert attribute_predictions(tags, [3]) == [1]

    def test_full_block_entry(self):
        tags = [0, 3]
        assert attribute_predictions(tags, [0, 3]) == [0, 1]

    def test_unknown_boundary(self):
        assert attribute_predictions([0, 3], [5]) == [None]

    def test_multiple_results_same_instruction(self):
        # Two result µ-ops of the instruction at byte 4: two slots tagged 4.
        tags = [4, 4, 9]
        assert attribute_predictions(tags, [4, 4, 9]) == [0, 1, 2]

    def test_slots_consumed_in_order(self):
        tags = [2, 5, 5]
        assert attribute_predictions(tags, [5, 5]) == [1, 2]

    def test_no_backward_matching(self):
        """A consumed slot position is never revisited."""
        tags = [3, 0]
        # Boundary 0 appears after 3 was matched at slot 0 -> slot 1.
        assert attribute_predictions(tags, [3, 0]) == [0, 1]

    def test_free_tags_never_match(self):
        tags = [FREE_TAG] * 4
        assert attribute_predictions(tags, [0, 1]) == [None, None]

    def test_empty(self):
        assert attribute_predictions([], []) == []
        assert attribute_predictions([0, 1], []) == []


class TestUpdateAssignment:
    def test_fresh_allocation_takes_boundaries(self):
        assignment, tags = update_tag_assignment(
            [FREE_TAG] * 4, [2, 5, 9], fresh_allocation=True
        )
        assert assignment == [0, 1, 2]
        assert tags == [2, 5, 9, FREE_TAG]

    def test_fresh_allocation_overflow(self):
        assignment, tags = update_tag_assignment(
            [FREE_TAG] * 2, [1, 2, 3], fresh_allocation=True
        )
        assert assignment == [0, 1, None]
        assert tags == [1, 2]

    def test_exact_match_stable(self):
        assignment, tags = update_tag_assignment([2, 5], [2, 5], False)
        assert assignment == [0, 1]
        assert tags == [2, 5]

    def test_lesser_tag_replaces_greater(self):
        """An earlier entry point teaches the entry about earlier
        instructions: tag 3 may become 0."""
        assignment, tags = update_tag_assignment([3, 7], [0, 3], False)
        assert assignment == [0, 1]
        assert tags == [0, 3]

    def test_greater_never_replaces_lesser(self):
        """Fig 2's constraint: once slot 0 is tagged 0 (I1), entering via I2
        (byte 3) must not retag it."""
        assignment, tags = update_tag_assignment([0, 3], [3], False)
        assert assignment == [1]
        assert tags == [0, 3]

    def test_free_slot_claimed(self):
        assignment, tags = update_tag_assignment([2, FREE_TAG], [2, 8], False)
        assert assignment == [0, 1]
        assert tags == [2, 8]

    def test_unmatchable_dropped(self):
        # All slots tagged lower than the boundary: nothing to claim.
        assignment, tags = update_tag_assignment([0, 1], [5], False)
        assert assignment == [None]
        assert tags == [0, 1]

    def test_convergence_to_earliest_layout(self):
        """Alternating entry points converge on the earliest layout and then
        remain stable (P1/I1 pairing preserved, §II-B1)."""
        tags = [FREE_TAG] * 4
        _, tags = update_tag_assignment(tags, [3, 7], fresh_allocation=True)
        assert tags[:2] == [3, 7]
        _, tags = update_tag_assignment(tags, [0, 3, 7], False)
        assert tags[:3] == [0, 3, 7]
        # Re-entering via byte 3 changes nothing.
        assignment, tags2 = update_tag_assignment(tags, [3, 7], False)
        assert tags2 == tags
        assert assignment == [1, 2]


TAGS = st.lists(st.sampled_from([FREE_TAG, 0, 3, 7]), min_size=4, max_size=4)
BOUNDARIES = st.lists(st.sampled_from([0, 3, 7, 9]), max_size=5)


class TestTagMemo:
    @settings(deadline=None, max_examples=100)
    @given(calls=st.lists(
        st.tuples(st.integers(0, 2), TAGS, BOUNDARIES), max_size=30
    ))
    def test_memo_equals_plain_functions(self, calls):
        """Whatever the call order, a memo answers like the function."""
        for monotonic in (True, False):
            fetch, update = TagMemo(), TagMemo(monotonic)
            for key, tags, boundaries in calls:
                assert fetch.attribute(key, tags, boundaries) == (
                    attribute_predictions(tags, boundaries)
                )
                assert update.reassign(key, tags, boundaries) == (
                    update_tag_assignment(tags, boundaries, False, monotonic)
                )
            assert len(fetch) == len(update) == len({k for k, _, _ in calls})

    def test_reuses_last_result_per_key(self):
        memo = TagMemo()
        first = memo.attribute("g", [0, 3], [3])
        assert memo.attribute("g", [0, 3], [3]) is first
        assert memo.attribute("g", [3, 0], [3]) == [0]
        assert memo.attribute("h", [0, 3], [3]) is not first
