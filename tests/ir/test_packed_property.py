"""Property tests: packed wide vectors vs the bitwise-zipped oracle.

Random widths 1–256 and random nine-valued contents; the packed whole-
vector operations must agree with applying the IEEE 1164 oracle tables
bit by bit, and every integer/string round-trip and slicing path must be
indistinguishable from the seed's per-character implementation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.ninevalued import LogicVec, TO_X01, VALUES, resolve_many
from repro.sim.values import extract_path, insert_path

from .oracle1164 import (
    oracle_and, oracle_not, oracle_or, oracle_resolve, oracle_xor,
    zip_oracle,
)

bit = st.sampled_from(VALUES)
wide_text = st.text(alphabet=VALUES, min_size=1, max_size=256)


@st.composite
def same_width_pair(draw):
    a = draw(wide_text)
    b = draw(st.text(alphabet=VALUES, min_size=len(a), max_size=len(a)))
    return a, b


@given(same_width_pair())
@settings(max_examples=200, deadline=None)
def test_binary_ops_match_zipped_oracle(pair):
    a, b = pair
    va, vb = LogicVec(a), LogicVec(b)
    assert va.and_(vb).bits == zip_oracle(oracle_and, a, b)
    assert va.or_(vb).bits == zip_oracle(oracle_or, a, b)
    assert va.xor(vb).bits == zip_oracle(oracle_xor, a, b)
    assert va.resolve(vb).bits == zip_oracle(oracle_resolve, a, b)


@given(wide_text)
@settings(max_examples=200, deadline=None)
def test_unary_ops_match_oracle(text):
    v = LogicVec(text)
    assert v.not_().bits == "".join(oracle_not(c) for c in text)
    assert v.to_x01().bits == "".join(TO_X01[c] for c in text)
    assert str(v) == text and v.width == len(text)


@given(wide_text)
@settings(max_examples=200, deadline=None)
def test_two_valued_and_int_roundtrip(text):
    v = LogicVec(text)
    two_valued = all(TO_X01[c] in "01" for c in text)
    assert v.is_two_valued == two_valued
    if two_valued:
        value = int("".join(TO_X01[c] for c in text), 2)
        assert v.to_int() == value
        assert LogicVec.from_int(value, v.width) == v.to_x01()
    else:
        with pytest.raises(ValueError):
            v.to_int()


@given(st.integers(0, 2**256 - 1), st.integers(1, 256))
@settings(max_examples=200, deadline=None)
def test_from_int_matches_binary_format(value, width):
    v = LogicVec.from_int(value, width)
    assert v.bits == format(value & ((1 << width) - 1), f"0{width}b")
    assert v.to_int() == value & ((1 << width) - 1)


@given(wide_text, st.data())
@settings(max_examples=200, deadline=None)
def test_width_changes_match_string_semantics(text, data):
    v = LogicVec(text)
    w = len(text)
    wider = data.draw(st.integers(w, w + 32))
    narrower = data.draw(st.integers(1, w))
    assert v.zext(wider).bits == "0" * (wider - w) + text
    assert v.sext(wider).bits == text[0] * (wider - w) + text
    assert v.trunc(narrower).bits == text[w - narrower:]


@given(wide_text, st.data())
@settings(max_examples=200, deadline=None)
def test_slice_and_splice_match_string_semantics(text, data):
    v = LogicVec(text)
    w = len(text)
    offset = data.draw(st.integers(0, w - 1))
    length = data.draw(st.integers(1, w - offset))
    # slice_ counts from the LSB, i.e. the end of the MSB-first string.
    assert v.slice_(offset, length).bits == text[w - offset - length:w - offset]
    repl = data.draw(st.text(alphabet=VALUES, min_size=length,
                             max_size=length))
    spliced = v.splice(offset, LogicVec(repl))
    assert spliced.bits == \
        text[:w - offset - length] + repl + text[w - offset:]


@given(wide_text, st.data())
@settings(max_examples=200, deadline=None)
def test_values_projection_paths_unchanged(text, data):
    """extract_path/insert_path over lN behave like string slicing."""
    v = LogicVec(text)
    w = len(text)
    offset = data.draw(st.integers(0, w - 1))
    length = data.draw(st.integers(1, w - offset))
    step = ("slice", offset, length, "logic")
    assert extract_path(v, (step,)).bits == \
        text[w - offset - length:w - offset]
    repl = data.draw(st.text(alphabet=VALUES, min_size=length,
                             max_size=length))
    written = insert_path(v, (step,), LogicVec(repl))
    assert written.bits == \
        text[:w - offset - length] + repl + text[w - offset:]
    # A nested aggregate path writes through unchanged around the vector.
    agg = (0, (v, 1))
    out = insert_path(agg, (("field", 1), ("field", 0), step),
                      LogicVec(repl))
    assert out[0] == 0 and out[1][1] == 1
    assert out[1][0].bits == written.bits


@given(st.lists(wide_text.filter(lambda t: len(t) <= 16), min_size=1,
                max_size=5))
@settings(max_examples=100, deadline=None)
def test_resolve_many_folds_pairwise(texts):
    width = len(texts[0])
    vecs = [LogicVec(t[:width].ljust(width, "Z")) for t in texts]
    expected = vecs[0].bits
    for v in vecs[1:]:
        expected = zip_oracle(oracle_resolve, expected, v.bits)
    assert resolve_many(vecs).bits == expected


@given(same_width_pair())
@settings(max_examples=100, deadline=None)
def test_equality_and_hash_follow_string_form(pair):
    a, b = pair
    va, vb = LogicVec(a), LogicVec(b)
    assert (va == vb) == (a == b)
    if a == b:
        assert hash(va) == hash(vb)


def test_splice_rejects_out_of_range_offsets():
    v = LogicVec("0000")
    with pytest.raises(ValueError):
        v.splice(3, LogicVec("11"))
    with pytest.raises(ValueError):
        v.splice(-1, LogicVec("1"))
    assert v.splice(2, LogicVec("11")).bits == "1100"


def test_zero_width_constructors_rejected():
    with pytest.raises(ValueError):
        LogicVec.from_int(0, 0)
    with pytest.raises(ValueError):
        LogicVec.filled("X", 0)
