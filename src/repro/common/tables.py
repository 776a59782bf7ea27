"""Struct-of-arrays predictor table storage.

Every SRAM-like structure in the simulator — VTAGE/D-VTAGE components,
the LVT, TAGE banks, the BTB, BeBoP's block tables — is a *bank*: a
fixed number of entries, each made of a few narrow typed fields (tag,
value, stride, confidence, useful, useful_gen).  Modelling an entry as
a Python object means every probe pays attribute lookups and every
bank is a spray of heap objects; a bank is really a handful of
parallel columns.

:class:`TableBank` is that columnar store.  A bank is declared as a
tuple of :class:`Field` specs and holds one plain Python list per
field; ``col(name)`` returns that list.  Its identity is stable for
the bank's lifetime, so hot paths cache these references once in
``__init__`` and index them directly.  Vector fields (``width > 1``)
are stored flat; callers address ``entry * width + lane``.

Value conventions:

* signed fields (the default) hold values in ``[-2**63, 2**63)`` —
  tags use ``-1`` as the empty sentinel;
* ``unsigned`` fields hold values in ``[0, 2**64)`` — 64-bit data
  values and strides are stored pre-masked (``to_unsigned``).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
_U64_MAX = (1 << 64) - 1


class Field(NamedTuple):
    """One typed column of a bank.

    ``width > 1`` declares a vector field: each entry holds ``width``
    lanes, stored flat (``entry * width + lane``).  ``unsigned`` fields
    store 64-bit data values in ``[0, 2**64)``; signed fields (tags,
    counters) store values in ``[-2**63, 2**63)``.
    """

    name: str
    default: int = 0
    width: int = 1
    unsigned: bool = False


def _validate_layout(entries: int, fields: Sequence[Field]) -> tuple[Field, ...]:
    if entries <= 0:
        raise ValueError(f"bank needs a positive entry count, got {entries}")
    fields = tuple(fields)
    if not fields:
        raise ValueError("bank needs at least one field")
    seen: set[str] = set()
    for field in fields:
        if field.name in seen:
            raise ValueError(f"duplicate field name {field.name!r}")
        seen.add(field.name)
        if field.width < 1:
            raise ValueError(
                f"field {field.name!r} width must be >= 1, got {field.width}"
            )
        lo, hi = (0, _U64_MAX) if field.unsigned else (_I64_MIN, _I64_MAX)
        if not lo <= field.default <= hi:
            raise ValueError(
                f"field {field.name!r} default {field.default} out of range"
            )
    return fields


class TableBank:
    """``entries`` entries of ``fields``, one plain list per field."""

    def __init__(self, entries: int, fields: Sequence[Field]) -> None:
        self.entries = entries
        self.fields = _validate_layout(entries, fields)
        self._cols = {
            field.name: [field.default] * (entries * field.width)
            for field in self.fields
        }

    def col(self, name: str) -> list[int]:
        """The flat column for ``name``: mutable, stable identity.

        Mutations through the returned list are the bank's state; the
        bank never rebinds a column, so cached references stay valid.
        """
        try:
            return self._cols[name]
        except KeyError:
            raise ValueError(
                f"bank has no field {name!r}; fields: " + ", ".join(self._cols)
            ) from None

    def dump(self) -> dict[str, list[int]]:
        """Full state as one list copy per field (tests / state comparison)."""
        return {name: list(col) for name, col in self._cols.items()}
