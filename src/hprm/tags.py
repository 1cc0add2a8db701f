"""Superdense logical time.

A tag is a pair ``(time, microstep)``: a signed 64-bit timestamp in
nanoseconds plus an unsigned 32-bit index that orders rounds of causally
dependent events sharing the same timestamp.  Tags are totally ordered
lexicographically.  The two extreme encodings are reserved as sentinels:
``NEVER`` sorts below every finite tag and ``FOREVER`` above.

Logical delays are applied with :func:`delay_tag`: a strictly positive
delay shifts the timestamp and resets the microstep, while a zero delay
keeps the timestamp and bumps the microstep so that a zero-delay hop is
still strictly later than its cause.  At ``MICROSTEP_MAX`` a zero delay
carries to ``(time + 1, 0)``, the next tag in the total order, so delay
arithmetic stays monotone in both the tag and the delay; it saturates to
``FOREVER`` only at the end of the time range.
"""

from __future__ import annotations

from dataclasses import dataclass

TIME_MIN = -(2**63)
TIME_MAX = 2**63 - 1
MICROSTEP_MAX = 2**32 - 1


@dataclass(frozen=True, order=True, slots=True)
class Tag:
    """A point in superdense logical time.

    Ordering is lexicographic on ``(time, microstep)``, which the generated
    dataclass comparisons provide directly.  The extreme timestamps are
    reserved for the sentinels, so a ``Tag`` with ``time == TIME_MIN`` or
    ``time == TIME_MAX`` may only be the canonical ``NEVER`` / ``FOREVER``
    encoding.

    Attributes:
        time: Timestamp in nanoseconds; must fit in a signed 64-bit word.
        microstep: Event round within the timestamp; unsigned 32-bit.
    """

    time: int
    microstep: int = 0

    def __post_init__(self) -> None:
        if not TIME_MIN <= self.time <= TIME_MAX:
            raise ValueError(f"tag time {self.time} outside signed 64-bit range")
        if not 0 <= self.microstep <= MICROSTEP_MAX:
            raise ValueError(
                f"tag microstep {self.microstep} outside unsigned 32-bit range"
            )
        if self.time == TIME_MIN and self.microstep != 0:
            raise ValueError("time TIME_MIN is reserved for the NEVER sentinel")
        if self.time == TIME_MAX and self.microstep != MICROSTEP_MAX:
            raise ValueError("time TIME_MAX is reserved for the FOREVER sentinel")

    def is_finite(self) -> bool:
        """True if this tag is neither ``NEVER`` nor ``FOREVER``."""
        return TIME_MIN < self.time < TIME_MAX

    def __repr__(self) -> str:
        if self.time == TIME_MIN:
            return "NEVER"
        if self.time == TIME_MAX:
            return "FOREVER"
        return f"Tag({self.time}, {self.microstep})"


#: Sorts strictly below every finite tag; "no event" / "not yet".
NEVER = Tag(TIME_MIN, 0)

#: Sorts strictly above every finite tag; "no upper bound" / "never again".
FOREVER = Tag(TIME_MAX, MICROSTEP_MAX)


@dataclass(frozen=True, order=True, slots=True)
class Delay:
    """A non-negative logical delay in nanoseconds.

    ``Delay(0)`` (aliased ``NO_DELAY``) is meaningful: it advances the
    microstep rather than the timestamp.
    """

    nanos: int = 0

    def __post_init__(self) -> None:
        if self.nanos < 0:
            raise ValueError(f"delay must be non-negative, got {self.nanos}")
        if self.nanos > TIME_MAX:
            raise ValueError(f"delay {self.nanos} exceeds the representable range")


#: Zero logical delay: one microstep.
NO_DELAY = Delay(0)


def delay_tag(tag: Tag, delay: Delay) -> Tag:
    """Apply a logical delay to a finite tag.

    A positive delay yields ``(time + delay, 0)``; a zero delay yields
    ``(time, microstep + 1)``, or ``(time + 1, 0)`` when the microstep is
    already ``MICROSTEP_MAX``.  Arithmetic that would leave the finite
    time range saturates to ``FOREVER``.

    Raises:
        ValueError: if ``tag`` is a sentinel; use :func:`bound_tag` where
            sentinels must pass through unchanged.
    """
    if not tag.is_finite():
        raise ValueError(f"delay_tag requires a finite tag, got {tag!r}")
    if delay.nanos > 0:
        shifted = tag.time + delay.nanos
        if shifted >= TIME_MAX:
            return FOREVER
        return Tag(shifted, 0)
    if tag.microstep < MICROSTEP_MAX:
        return Tag(tag.time, tag.microstep + 1)
    # Carry out of the microstep: the next tag after (time, MICROSTEP_MAX).
    if tag.time + 1 >= TIME_MAX:
        return FOREVER
    return Tag(tag.time + 1, 0)


def bound_tag(tag: Tag, delay: Delay) -> Tag:
    """:func:`delay_tag` extended to sentinels.

    Used when deriving "earliest possible effect" bounds from reported
    tags: a ``NEVER`` report bounds nothing yet and a ``FOREVER`` report
    bounds nothing ever, so both pass through unchanged.
    """
    if not tag.is_finite():
        return tag
    return delay_tag(tag, delay)
