"""Runtime value helpers: path projection, signed helpers, defaults."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import LogicVec, parse_type_text
from repro.ir.values import TimeValue
from repro.sim.values import (
    SimulationError, default_value, extract_path, format_value, from_signed,
    insert_path, to_signed,
)


@given(st.integers(0, 2**16 - 1))
def test_signed_roundtrip(value):
    assert from_signed(to_signed(value, 16), 16) == value


@given(st.integers(-2**15, 2**15 - 1))
def test_signed_range(value):
    assert to_signed(from_signed(value, 16), 16) == value


def test_default_values():
    assert default_value(parse_type_text("i8")) == 0
    assert default_value(parse_type_text("n4")) == 0
    assert default_value(parse_type_text("[3 x i2]")) == (0, 0, 0)
    assert default_value(parse_type_text("{i1, [2 x i2]}")) == (0, (0, 0))
    lv = default_value(parse_type_text("l4"))
    assert lv == LogicVec("UUUU")
    assert default_value(parse_type_text("time")) == TimeValue(0)
    assert default_value(parse_type_text("i4$")) == 0
    nested = default_value(parse_type_text("{l2, [2 x l3]}"))
    assert nested == (LogicVec("UU"), (LogicVec("UUU"), LogicVec("UUU")))
    assert type(nested[1]) is tuple
    with pytest.raises(SimulationError):
        default_value(parse_type_text("i8*"))


@given(st.lists(st.integers(0, 255), min_size=4, max_size=4),
       st.integers(0, 3), st.integers(0, 255))
def test_field_insert_extract(values, index, new):
    agg = tuple(values)
    path = (("field", index),)
    updated = insert_path(agg, path, new)
    assert extract_path(updated, path) == new
    for i in range(4):
        if i != index:
            assert updated[i] == agg[i]


@given(st.integers(0, 2**32 - 1), st.integers(0, 24),
       st.integers(1, 8), st.integers(0, 255))
def test_int_slice_insert_extract(value, offset, length, new):
    new &= (1 << length) - 1
    path = (("slice", offset, length, "int"),)
    updated = insert_path(value, path, new)
    assert extract_path(updated, path) == new
    # Bits outside the slice are untouched.
    mask = ((1 << length) - 1) << offset
    assert (updated & ~mask) == (value & ~mask)


@given(st.text(alphabet="01XZ", min_size=8, max_size=8),
       st.integers(0, 4), st.integers(1, 4))
def test_logic_slice_extract_width(bits, offset, length):
    vec = LogicVec(bits)
    path = (("slice", offset, length, "logic"),)
    assert extract_path(vec, path).width == length


def test_logic_slice_bit_order():
    # MSB-first storage: bit 0 is the rightmost character.
    vec = LogicVec("0110")
    low = extract_path(vec, (("slice", 0, 2, "logic"),))
    high = extract_path(vec, (("slice", 2, 2, "logic"),))
    assert low.bits == "10"
    assert high.bits == "01"


def test_nested_paths():
    agg = ((1, 2), (3, 4))
    path = (("field", 1), ("field", 0))
    assert extract_path(agg, path) == 3
    updated = insert_path(agg, path, 9)
    assert updated == ((1, 2), (9, 4))


def test_array_slice():
    agg = (10, 20, 30, 40, 50)
    path = (("slice", 1, 3, "array"),)
    assert extract_path(agg, path) == (20, 30, 40)
    updated = insert_path(agg, path, (7, 8, 9))
    assert updated == (10, 7, 8, 9, 50)


def test_out_of_range_field_raises():
    with pytest.raises(SimulationError):
        extract_path((1, 2), (("field", 5),))
    with pytest.raises(SimulationError):
        insert_path((1, 2), (("field", 2),), 0)


@pytest.mark.parametrize("nested", (False, True))
def test_packed_array_slice_paths(nested):
    """Slice paths over an ``[N x lM]`` array, alone or as a struct field."""
    elems = (LogicVec("01X"), LogicVec("ZZ1"), LogicVec("HLW"),
             LogicVec("U-0"))
    path = (("slice", 1, 2, "array"),)
    value = elems
    if nested:
        path = (("field", 1),) + path
        value = (LogicVec("10"), elems)
    assert extract_path(value, path) == elems[1:3]
    new = (LogicVec("111"), LogicVec("000"))
    updated = insert_path(value, path, new)
    if nested:
        assert updated[0] == value[0]
        updated = updated[1]
    assert type(updated) is tuple
    assert updated == (elems[0],) + new + (elems[3],)
    assert format_value(updated) == "[01X, 111, 000, U-0]"
