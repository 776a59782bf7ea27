"""Tests for the struct-of-arrays table storage (repro.common.tables).

Covers field/bank validation, defaults, flat ``entry * width + lane``
addressing through ``col()``, column identity (hot paths cache ``col()``
references), 64-bit extremes, and ``dump()`` returning builtin ints.

(The sibling ``tests/test_storage.py`` covers the Table III *bit-budget*
accounting; this file is about how table state is held.)
"""

import json

import pytest

from repro.common.tables import Field, TableBank

FIELDS = (
    Field("tag", default=-1),
    Field("value", unsigned=True),
    Field("conf"),
    Field("vec", width=3, unsigned=True),
)


# ---------------------------------------------------------------------------
# Field / bank validation.
# ---------------------------------------------------------------------------

class TestValidation:
    def test_positive_entries_required(self):
        with pytest.raises(ValueError, match="positive entry count"):
            TableBank(0, FIELDS)

    def test_at_least_one_field(self):
        with pytest.raises(ValueError, match="at least one field"):
            TableBank(4, ())

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate field"):
            TableBank(4, (Field("a"), Field("a")))

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            TableBank(4, (Field("a", width=0),))

    def test_default_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            TableBank(4, (Field("a", default=-1, unsigned=True),))
        with pytest.raises(ValueError, match="out of range"):
            TableBank(4, (Field("a", default=1 << 63),))

    def test_unknown_field_name(self):
        bank = TableBank(4, FIELDS)
        with pytest.raises(ValueError, match="no field"):
            bank.col("nope")


# ---------------------------------------------------------------------------
# Bank semantics.
# ---------------------------------------------------------------------------

class TestBankOps:
    def test_defaults_and_scalar_rw(self):
        bank = TableBank(4, FIELDS)
        assert bank.entries == 4 and bank.fields == FIELDS
        assert bank.col("tag") == [-1] * 4
        assert bank.col("value") == [0] * 4
        bank.col("tag")[2] = 77
        bank.col("value")[2] = (1 << 64) - 1
        assert bank.col("tag")[2] == 77
        assert bank.dump()["value"] == [0, 0, (1 << 64) - 1, 0]

    def test_vector_rw_flat_addressing(self):
        bank = TableBank(4, FIELDS)
        col = bank.col("vec")
        assert len(col) == 4 * 3
        col[2 * 3:2 * 3 + 3] = [10, 20, 30]      # entry * width + lane
        assert bank.dump()["vec"][6:9] == [10, 20, 30]
        col[2 * 3 + 1] = 99
        assert bank.col("vec")[6:9] == [10, 99, 30]

    def test_column_identity_is_stable(self):
        """Hot paths cache col() refs in __init__; the bank never rebinds
        a column, and dump() copies rather than exposing the columns."""
        bank = TableBank(4, FIELDS)
        tag_col = bank.col("tag")
        tag_col[0] = 9
        state = bank.dump()
        assert bank.col("tag") is tag_col
        assert state["tag"] is not tag_col
        state["tag"][1] = 5
        assert tag_col == [9, -1, -1, -1]

    def test_dump_shape(self):
        bank = TableBank(2, FIELDS)
        state = bank.dump()
        assert sorted(state) == ["conf", "tag", "value", "vec"]
        assert len(state["vec"]) == 2 * 3
        assert state["tag"] == [-1, -1]


# ---------------------------------------------------------------------------
# Boundary conditions: last entry, vector lanes, 64-bit extremes.
# ---------------------------------------------------------------------------

class TestBoundaryOps:
    def test_last_entry_scalar(self):
        bank = TableBank(4, FIELDS)
        last = bank.entries - 1
        bank.col("tag")[last] = 31
        assert bank.dump()["tag"] == [-1, -1, -1, 31]

    def test_last_entry_vector_lanes(self):
        """The final lane of the final entry is the last flat slot —
        an off-by-one in ``entry * width + lane`` addressing lands out of
        bounds or in a neighbour."""
        bank = TableBank(4, FIELDS)
        last = bank.entries - 1
        col = bank.col("vec")
        col[last * 3:last * 3 + 3] = [7, 8, 9]
        assert col[-1] == col[last * 3 + 2] == 9
        # The neighbouring entry is untouched.
        assert col[(last - 1) * 3:last * 3] == [0, 0, 0]
        assert len(bank.dump()["vec"]) == bank.entries * 3

    def test_unsigned_64bit_extremes_round_trip(self):
        bank = TableBank(2, FIELDS)
        top = (1 << 64) - 1
        high = 1 << 63
        bank.col("value")[1] = top
        bank.col("vec")[3:6] = [top, high, 0]
        state = bank.dump()
        assert state["value"][1] == top
        assert state["vec"][3:6] == [top, high, 0]

    def test_signed_extremes_round_trip(self):
        bank = TableBank(2, FIELDS)
        lo, hi = -(1 << 63), (1 << 63) - 1
        conf = bank.col("conf")
        conf[0], conf[1] = lo, hi
        assert bank.dump()["conf"] == [lo, hi]


def test_dump_returns_builtin_ints_in_every_width_config():
    """Dumps feed JSON export (telemetry, state comparison): every value
    is a builtin int and the whole dump serialises."""
    fields = (
        Field("tag", default=-1),
        Field("u1", unsigned=True),
        Field("w4", width=4),
        Field("uw3", width=3, unsigned=True),
    )
    bank = TableBank(3, fields)
    bank.col("u1")[2] = (1 << 64) - 1
    bank.col("uw3")[6:9] = [1 << 63, 5, 0]
    bank.col("w4")[0:4] = [-1, -(1 << 63), (1 << 63) - 1, 0]
    dumped = bank.dump()
    for name, col in dumped.items():
        assert all(type(v) is int for v in col), name
    assert json.loads(json.dumps(dumped)) == dumped
