"""Prediction attribution by byte-index tags (paper §II-B1, Fig 2).

A BeBoP entry holds ``Npred`` prediction slots, each tagged with the
low-order byte index (the *boundary*) of the instruction the slot was
attributed to the last time the block retired.  At fetch, predictions flow
out of the predictor and are matched, in order, against the boundaries of
the decoded µ-ops: a µ-op at boundary ``b`` takes the first remaining slot
whose tag equals ``b``.  This prevents *false sharing* when a block is
entered at different instructions (taken-branch targets): slots tagged with
bytes before the entry point simply never match.

At update, the tags learn the block's layout under the monotonic rule of
§II-B1 — a slot's tag may be lowered (an earlier entry point teaches the
entry about earlier instructions) but never raised, except when the whole
entry is freshly allocated.
"""

from __future__ import annotations

from collections.abc import Sequence

#: Tag value of a never-assigned prediction slot (matches nothing).
FREE_TAG = -1


def attribute_predictions(
    slot_tags: Sequence[int],
    boundaries: Sequence[int],
) -> list[int | None]:
    """Match µ-op boundaries against prediction-slot tags.

    ``slot_tags`` are the entry's per-slot byte tags; ``boundaries`` the
    byte index of the parent instruction of each result-producing µ-op, in
    fetch order.  Returns, per µ-op, the slot index it consumes or None.

    Slots are consumed left to right: a µ-op takes the first unconsumed slot
    whose tag equals its boundary, searching from just past the previously
    consumed slot (predictions flow out in order, as in Fig 2).

    >>> attribute_predictions([0, 3], [3])      # block entered at byte 3
    [1]
    >>> attribute_predictions([0, 3], [0, 3])   # entered at byte 0
    [0, 1]
    >>> attribute_predictions([0, 3], [5])      # unknown instruction
    [None]
    """
    result: list[int | None] = []
    cursor = 0
    n = len(slot_tags)
    for boundary in boundaries:
        assigned = None
        for slot in range(cursor, n):
            if slot_tags[slot] == boundary:
                assigned = slot
                cursor = slot + 1
                break
        result.append(assigned)
    return result


def update_tag_assignment(
    slot_tags: Sequence[int],
    boundaries: Sequence[int],
    fresh_allocation: bool,
    monotonic: bool = True,
) -> tuple[list[int | None], list[int]]:
    """Assign retired results to slots and evolve the tags.

    Returns ``(assignment, new_tags)`` where ``assignment[i]`` is the slot
    trained by the i-th retired result µ-op (or None if the entry has no
    room for it) and ``new_tags`` the updated per-slot tags.

    * On a **fresh allocation** the tags are simply the boundaries of the
      retired results, in order.
    * Otherwise results first match existing tags exactly (like at fetch);
      an unmatched result may claim the first remaining slot whose tag is
      *greater* than its boundary or still free, re-tagging it downward —
      a greater tag never replaces a lesser one, so the entry converges on
      the earliest entry point's layout (Fig 2's P1/I1 pairing survives
      entries through I2).

    With ``monotonic=False`` (the ablation of the §II-B1 rule) an unmatched
    result simply overwrites the next slot's tag, whatever its value — the
    entry then thrashes between entry points instead of converging.
    """
    n = len(slot_tags)
    if fresh_allocation:
        tags = [FREE_TAG] * n
        assignment: list[int | None] = []
        for i, boundary in enumerate(boundaries):
            if i < n:
                tags[i] = boundary
                assignment.append(i)
            else:
                assignment.append(None)
        return assignment, tags

    tags = list(slot_tags)
    assignment = []
    cursor = 0
    for boundary in boundaries:
        assigned = None
        # Exact match first, in slot order.
        for slot in range(cursor, n):
            if tags[slot] == boundary:
                assigned = slot
                cursor = slot + 1
                break
        if assigned is None:
            if monotonic:
                # Claim the first slot whose tag is greater (or free): the
                # tag is lowered to this boundary, never raised.
                for slot in range(cursor, n):
                    if tags[slot] == FREE_TAG or tags[slot] > boundary:
                        tags[slot] = boundary
                        assigned = slot
                        cursor = slot + 1
                        break
            elif cursor < n:
                # Ablation: overwrite unconditionally.
                tags[cursor] = boundary
                assigned = cursor
                cursor += 1
        assignment.append(assigned)
    return assignment, tags


class TagMemo:
    """The last byte-tag computation per key, reused while its inputs hold.

    :func:`attribute_predictions` and :func:`update_tag_assignment` are pure
    functions of an entry's byte tags and the boundaries matched against
    them, and per key — a static fetch group at fetch, an LVT entry at
    update — both rarely change from one call to the next.  The memo keeps,
    per key, the last inputs and their result and recomputes only when
    either input differs.  One memo serves one of the two functions; it
    holds one record per key, so it grows with the program, not the trace.
    """

    __slots__ = ("monotonic", "_last")

    def __init__(self, monotonic: bool = True) -> None:
        self.monotonic = monotonic
        self._last: dict[object, tuple] = {}

    def __len__(self) -> int:
        return len(self._last)

    def attribute(
        self, key: object, slot_tags: Sequence[int], boundaries: Sequence[int]
    ) -> list[int | None]:
        """:func:`attribute_predictions`, memoised under ``key``."""
        last = self._last.get(key)
        if last is not None and last[0] == slot_tags and last[1] == boundaries:
            return last[2]
        slots = attribute_predictions(slot_tags, boundaries)
        self._last[key] = (slot_tags, boundaries, slots)
        return slots

    def reassign(
        self, key: object, slot_tags: Sequence[int], boundaries: Sequence[int]
    ) -> tuple[list[int | None], list[int]]:
        """:func:`update_tag_assignment` of an entry that is not freshly
        allocated, memoised under ``key``."""
        last = self._last.get(key)
        if last is not None and last[0] == slot_tags and last[1] == boundaries:
            return last[2]
        result = update_tag_assignment(
            slot_tags, boundaries, fresh_allocation=False,
            monotonic=self.monotonic,
        )
        self._last[key] = (slot_tags, boundaries, result)
        return result
