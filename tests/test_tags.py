"""Total order and delay arithmetic for superdense tags."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hprm.tags import (
    FOREVER,
    MICROSTEP_MAX,
    NEVER,
    NO_DELAY,
    TIME_MAX,
    TIME_MIN,
    Delay,
    Tag,
    bound_tag,
    delay_tag,
)

MS = 1_000_000

finite_times = st.integers(min_value=TIME_MIN + 1, max_value=TIME_MAX - 1)
microsteps = st.integers(min_value=0, max_value=MICROSTEP_MAX)
finite_tags = st.builds(Tag, finite_times, microsteps)
any_tags = st.one_of(finite_tags, st.just(NEVER), st.just(FOREVER))
delays = st.one_of(
    st.just(NO_DELAY),
    st.builds(Delay, st.integers(min_value=0, max_value=10**15)),
)


def test_lexicographic_order():
    assert Tag(5 * MS, 0) < Tag(5 * MS, 1)
    assert Tag(7 * MS, 3) == Tag(7 * MS, 3)
    assert Tag(5 * MS, 9) < Tag(6 * MS, 0)


def test_sentinels_are_extremes():
    assert NEVER < Tag(-9_999, 0)
    assert Tag(-9_999, 0) > NEVER
    assert FOREVER > Tag(TIME_MAX - 1, MICROSTEP_MAX)
    assert NEVER < FOREVER
    assert not NEVER.is_finite()
    assert not FOREVER.is_finite()
    assert Tag(0, 0).is_finite()


def test_reserved_encodings_rejected():
    with pytest.raises(ValueError):
        Tag(TIME_MIN, 1)
    with pytest.raises(ValueError):
        Tag(TIME_MAX, 0)
    with pytest.raises(ValueError):
        Tag(TIME_MAX + 1, 0)
    with pytest.raises(ValueError):
        Tag(0, MICROSTEP_MAX + 1)
    with pytest.raises(ValueError):
        Tag(0, -1)


def test_delay_positive_resets_microstep():
    assert delay_tag(Tag(5 * MS, 0), Delay(200 * MS)) == Tag(205 * MS, 0)
    assert delay_tag(Tag(5 * MS, 7), Delay(1)) == Tag(5 * MS + 1, 0)


def test_delay_zero_bumps_microstep():
    assert delay_tag(Tag(5 * MS, 2), NO_DELAY) == Tag(5 * MS, 3)
    assert delay_tag(Tag(5 * MS, 2), Delay(0)) == Tag(5 * MS, 3)


def test_delay_saturates_to_forever():
    assert delay_tag(Tag(TIME_MAX - 1, 0), Delay(1)) == FOREVER
    assert delay_tag(Tag(TIME_MAX - 1, 0), Delay(10)) == FOREVER
    assert delay_tag(Tag(TIME_MAX - 1, MICROSTEP_MAX), NO_DELAY) == FOREVER


def test_delay_zero_carries_at_microstep_limit():
    """A zero delay at MICROSTEP_MAX yields the next tag in the total order,
    so delay arithmetic stays monotone in both the tag and the delay."""
    assert delay_tag(Tag(5, MICROSTEP_MAX), NO_DELAY) == Tag(6, 0)
    assert delay_tag(Tag(5, MICROSTEP_MAX), NO_DELAY) <= delay_tag(
        Tag(5, MICROSTEP_MAX), Delay(1)
    )
    assert delay_tag(Tag(5, MICROSTEP_MAX), NO_DELAY) <= delay_tag(Tag(6, 0), NO_DELAY)


def test_delay_requires_finite_tag():
    with pytest.raises(ValueError):
        delay_tag(NEVER, NO_DELAY)
    with pytest.raises(ValueError):
        delay_tag(FOREVER, Delay(5))


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_bound_tag_passes_sentinels_through():
    assert bound_tag(NEVER, Delay(100)) == NEVER
    assert bound_tag(FOREVER, Delay(100)) == FOREVER
    assert bound_tag(Tag(5), Delay(100)) == Tag(105, 0)


@given(any_tags, any_tags)
def test_order_is_total_and_antisymmetric(a, b):
    assert (a < b) + (a == b) + (a > b) == 1
    assert (a <= b) == (a < b or a == b)


@given(any_tags, any_tags, any_tags)
def test_order_is_transitive(a, b, c):
    if a <= b and b <= c:
        assert a <= c


@given(finite_tags, delays)
def test_delay_is_strictly_advancing(tag, delay):
    assert delay_tag(tag, delay) > tag


@given(finite_tags, finite_tags, delays)
def test_delay_is_monotone(a, b, delay):
    if a <= b:
        assert delay_tag(a, delay) <= delay_tag(b, delay)


@given(finite_tags, delays, delays)
def test_larger_delay_never_earlier(tag, d1, d2):
    if d1.nanos <= d2.nanos:
        assert delay_tag(tag, d1) <= delay_tag(tag, d2)
