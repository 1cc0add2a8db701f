"""Round-trip, placement, and wire-layout behavior of the serializer.

``deep_equal`` below is the independent comparison oracle for round-trip
properties: it distinguishes bool from int, treats NaN as equal to NaN,
and compares arrays by dtype, shape, and contents.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hprm.bench.scenarios import measure_throughput
from hprm.serde import (
    DEFAULT_OOB_FLOOR,
    SEGMENT_ALIGNMENT,
    PayloadFormatError,
    SerializedPayload,
    UnsupportedTypeError,
    build_layout,
    decode_payload,
    deserialize,
    encode_payload,
    payload_from_spans,
    serialize,
)


def deep_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)):
            return False
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind == "f":
            return bool(np.array_equal(a, b, equal_nan=True))
        return bool(np.array_equal(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    if isinstance(a, (bytes, bytearray, memoryview)):
        return isinstance(b, (bytes, bytearray, memoryview)) and bytes(a) == bytes(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(deep_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(deep_equal(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(),
    st.text(max_size=40),
    st.binary(max_size=5000),
)
arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.int32, np.uint8, np.float32]),
    shape=hnp.array_shapes(max_dims=2, max_side=40),
)
value_trees = st.recursive(
    st.one_of(scalars, arrays),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=8,
)


# -- placement ------------------------------------------------------------


def test_small_leaves_produce_no_segments():
    payload = serialize({"a": 1, "b": [True, None, 2.5], "c": b"xy"})
    assert payload.segments == ()
    assert serialize(b"x" * (DEFAULT_OOB_FLOOR - 1)).segments == ()


def test_large_leaves_become_segments_without_copying():
    arr = np.arange(10_000, dtype=np.float64)
    payload = serialize({"meta": "m", "data": arr})
    assert len(payload.segments) == 1
    assert np.shares_memory(
        np.frombuffer(payload.segments[0], dtype=np.float64), arr
    )
    assert len(serialize([b"x" * DEFAULT_OOB_FLOOR]).segments) == 1  # at the floor


# -- round trips -----------------------------------------------------------


def test_scalar_round_trips():
    for value in [None, True, False, 0, -1, 2**100, -(2**100), 3.14, "héllo", b"raw"]:
        assert deep_equal(deserialize(serialize(value)), value)


def test_tuple_normalizes_to_list():
    assert deserialize(serialize((1, 2, 3))) == [1, 2, 3]


def test_nested_structure_round_trip():
    value = {
        "seq": 7,
        "tags": ["a", "b"],
        "data": np.arange(2048, dtype=np.float64),
        "blob": b"\x00" * 8000,
        "inner": {"ok": True, "r": 0.5},
    }
    rebuilt = deserialize(serialize(value))
    assert deep_equal(rebuilt, value)


def test_map_key_order_does_not_change_bytes():
    a = serialize({"x": 1, "y": 2, "z": [3]})
    b = serialize({"z": [3], "y": 2, "x": 1})
    assert bytes(a.inband) == bytes(b.inband)


def test_serialization_is_deterministic():
    value = {"k": [1, 2.0, "s", b"b", None, True], "a": np.arange(10)}
    first = serialize(value)
    second = serialize(value)
    assert bytes(first.inband) == bytes(second.inband)
    assert [bytes(s) for s in first.segments] == [bytes(s) for s in second.segments]


@given(value_trees)
@settings(max_examples=200, deadline=None)
def test_round_trip_property(value):
    assert deep_equal(deserialize(serialize(value)), value)


@given(value_trees)
@settings(max_examples=100, deadline=None)
def test_wire_round_trip_property(value):
    blob = encode_payload(serialize(value))
    assert deep_equal(deserialize(decode_payload(blob)), value)


def test_forced_in_band_round_trip():
    value = {"data": np.arange(100_000, dtype=np.float64)}
    payload = serialize(value, oob_floor=None)
    assert payload.segments == ()
    assert deep_equal(deserialize(payload), value)


# -- copy discipline --------------------------------------------------------


def test_zero_copy_deserialize_views_segment():
    arr = np.arange(50_000, dtype=np.float64)
    rebuilt = deserialize(serialize({"d": arr}), zero_copy=True)["d"]
    assert np.shares_memory(rebuilt, arr)
    assert not rebuilt.flags.writeable
    with pytest.raises(ValueError):
        rebuilt[0] = 1.0


def test_default_deserialize_copies():
    arr = np.arange(50_000, dtype=np.float64)
    rebuilt = deserialize(serialize({"d": arr}))["d"]
    assert not np.shares_memory(rebuilt, arr)
    rebuilt[0] = -1.0  # independent and writable
    assert arr[0] == 0.0


# -- malformed payloads ------------------------------------------------------


def test_missing_segment_rejected():
    payload = serialize({"d": np.arange(10_000)})
    stripped = SerializedPayload(payload.version, payload.inband, ())
    with pytest.raises(PayloadFormatError):
        deserialize(stripped)


def test_extra_segment_rejected():
    payload = serialize({"x": 1})
    padded = SerializedPayload(payload.version, payload.inband, (b"junk",))
    with pytest.raises(PayloadFormatError):
        deserialize(padded)


def test_segment_length_must_match_array_header():
    payload = serialize({"d": np.arange(10_000, dtype=np.float64)})
    wrong = SerializedPayload(payload.version, payload.inband, (b"\x00" * 16,))
    with pytest.raises(PayloadFormatError):
        deserialize(wrong)


def test_unknown_tag_rejected():
    with pytest.raises(PayloadFormatError):
        deserialize(SerializedPayload(1, b"\xff", ()))


def test_truncated_stream_rejected():
    good = bytes(serialize("hello world").inband)
    with pytest.raises(PayloadFormatError):
        deserialize(SerializedPayload(1, good[:-3], ()))


def test_unsupported_types_rejected():
    with pytest.raises(UnsupportedTypeError):
        serialize({1, 2, 3})
    with pytest.raises(UnsupportedTypeError):
        serialize({5: "non-string key"})
    with pytest.raises(UnsupportedTypeError):
        serialize(np.array([{"a": 1}], dtype=object))


def test_bad_version_rejected():
    with pytest.raises(PayloadFormatError):
        deserialize(SerializedPayload(99, b"\x01", ()))
    blob = bytearray(encode_payload(serialize(1)))
    blob[0] = 99
    with pytest.raises(PayloadFormatError):
        decode_payload(bytes(blob))


# -- flat object layout -------------------------------------------------------


def test_layout_aligns_and_separates_segments():
    payload = serialize(
        {"a": np.arange(5000, dtype=np.float64), "b": b"z" * 6000, "m": 3}
    )
    layout = build_layout(payload)
    assert len(layout.segment_spans) == 2
    spans = sorted(layout.segment_spans)
    assert spans[0][0] >= len(layout.header)
    for off, _length in layout.segment_spans:
        assert off % SEGMENT_ALIGNMENT == 0
    for (o1, l1), (o2, _l2) in zip(spans, spans[1:]):
        assert o1 + l1 <= o2
    assert layout.total_bytes >= spans[-1][0] + spans[-1][1]


def test_layout_round_trip_through_flat_buffer():
    value = {"a": np.arange(5000, dtype=np.float64), "b": b"z" * 6000, "m": 3}
    payload = serialize(value)
    layout = build_layout(payload)
    buf = bytearray(layout.total_bytes)
    buf[: len(layout.header)] = layout.header
    for (off, length), seg in zip(layout.segment_spans, payload.segments):
        buf[off:off + length] = bytes(seg)
    rebuilt_payload = payload_from_spans(
        buf, (layout.inband_offset, layout.inband_length), layout.segment_spans
    )
    assert deep_equal(deserialize(rebuilt_payload, zero_copy=True), value)


def test_span_out_of_range_rejected():
    with pytest.raises(PayloadFormatError):
        payload_from_spans(b"\x01abc", (1, 100), [])


# -- throughput harness --------------------------------------------------------


def test_measure_throughput_modes_differ():
    size = 2 * 2**20
    inband = measure_throughput(size, "in-band", iterations=5, warmup=1)
    oob = measure_throughput(size, "out-of-band", iterations=5, warmup=1)
    assert inband.size_bytes == oob.size_bytes == size
    assert inband.serialize_mbps > 0 and inband.deserialize_mbps > 0
    # Avoiding the two big copies must not be slower than making them.
    assert oob.serialize_mbps > inband.serialize_mbps
    assert oob.deserialize_mbps > inband.deserialize_mbps


def test_measure_throughput_rejects_unknown_mode():
    with pytest.raises(ValueError):
        measure_throughput(1024, "sideband")
