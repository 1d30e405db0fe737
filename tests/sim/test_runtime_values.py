"""Runtime value helpers: path projection, signed helpers, defaults,
and the tuple protocol of plane-packed ``lN`` arrays."""

import pytest
from hypothesis import given, strategies as st

from repro.ir import LogicVec, parse_type_text
from repro.ir.values import TimeValue
from repro.sim.values import (
    PackedLogicArray, SimulationError, default_value, extract_path,
    format_value, from_signed, insert_path, pack_array, to_signed,
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
    packed = default_value(parse_type_text("{l2, [2 x l3]}"))
    assert packed == (LogicVec("UU"), (LogicVec("UUU"), LogicVec("UUU")))
    assert type(packed[1]) is PackedLogicArray
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


_ELEMS = (LogicVec("01X"), LogicVec("ZZ1"), LogicVec("HLW"), LogicVec("U-0"))


def test_packed_array_reads_like_a_tuple():
    arr = pack_array(_ELEMS)
    assert type(arr) is PackedLogicArray
    assert arr.elem_width == 3 and arr.data.width == 12
    assert len(arr) == 4 and list(arr) == list(_ELEMS)
    assert arr[-1] == _ELEMS[-1]
    with pytest.raises(IndexError):
        arr[4]
    assert arr[1:3] == _ELEMS[1:3] and type(arr[1:3]) is PackedLogicArray
    assert arr[::2] == _ELEMS[::2]
    assert arr[2:2] == ()
    assert arr == _ELEMS and hash(arr) == hash(_ELEMS)
    assert arr != _ELEMS[:3] and arr.__eq__(7) is NotImplemented
    assert format_value(arr) == "[01X, ZZ1, HLW, U-0]"
    assert repr(arr).startswith("PackedLogicArray(")
    assert PackedLogicArray.from_elements(()) == ()


def test_packed_array_concatenation():
    arr = pack_array(_ELEMS)
    assert arr[:1] + arr[1:] == _ELEMS
    assert arr[:0] + arr is arr
    assert arr[:2] + _ELEMS[2:] == _ELEMS
    assert type(arr[:2] + _ELEMS[2:]) is PackedLogicArray
    assert _ELEMS[:2] + arr[2:] == _ELEMS
    assert type(_ELEMS[:2] + arr[2:]) is PackedLogicArray
    assert arr + () is arr and () + arr is arr
    # Elements that do not pack fall back to a plain tuple.
    assert arr + (1,) == _ELEMS + (1,)
    assert (1,) + arr == (1,) + _ELEMS


@pytest.mark.parametrize("pack_new", (False, True))
def test_packed_array_slice_paths(pack_new):
    arr = pack_array(_ELEMS)
    path = (("slice", 1, 2, "array"),)
    assert extract_path(arr, path) == _ELEMS[1:3]
    new = (LogicVec("111"), LogicVec("000"))
    updated = insert_path(arr, path, pack_array(new) if pack_new else new)
    assert type(updated) is PackedLogicArray
    assert updated == (_ELEMS[0],) + new + (_ELEMS[3],)
