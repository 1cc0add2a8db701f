"""Object lifecycle bookkeeping, free of any I/O.

Every rule of the store lives here; the daemon layers sockets and memory
segments on top.  Keeping them here makes them unit-testable and lets
property tests drive thousands of lifecycle interleavings without
touching real memory.

Each request comes from a *session*, any hashable key: the daemon
passes its connection, tests pass plain strings.  The store records
which session created each object and how many pins each session holds
on it, so a session may seal only the objects it created and release
only its own pins: a seal of another session's object is
``BAD_REQUEST``, and a release by a session that holds no pin on the
object is ``NO_REFS``.

Lifecycle: an object is *created* (capacity reserved, writable),
*sealed* by its creator (immutable, readable), then *pinned* by readers
via get/release.  A get never waits: an absent object is ``UNKNOWN_ID``
and an unsealed one ``NOT_SEALED``, because a publisher seals before it
sends the reference: a get that finds no sealed object finds one that
is gone.  A seal may declare how many gets its publisher will cause.
Such an object is *retired after its last expected read*: it is removed
as soon as those gets are used up, no pin is left, and every release
reported no view of it left.  A release that left a view open, or a seal
that declared no reads, leaves the object cached until eviction.  When a
session ends, its pins are released as releases that left a view open,
and the objects it created but never sealed are dropped.

Only sealed objects with no pins may be evicted.  Eviction is
least-recently-used and frees only what a create needs.  Every object
that dies (evicted by a create, retired by its last expected read, or
dropped when its session ends) is queued for :meth:`StoreState.take_dead`,
through which the caller reclaims its storage.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import asdict, dataclass, field
from enum import IntEnum


class Status(IntEnum):
    OK = 0
    DUPLICATE_ID = 2
    UNKNOWN_ID = 3
    TOO_LARGE = 4
    STORE_FULL = 5
    ALREADY_SEALED = 7
    NOT_SEALED = 8
    NO_REFS = 9
    BAD_REQUEST = 10


@dataclass
class StoreCounters:
    creates: int = 0
    seals: int = 0
    gets: int = 0
    releases: int = 0
    evictions: int = 0
    bytes_evicted: int = 0
    recycled: int = 0


@dataclass
class _Entry:
    oid: bytes
    size: int
    # The session that may seal it; None once sealed, so an object keeps
    # no session that has ended.
    creator: Hashable | None
    sealed: bool = False
    # Pins held, per session; a session that holds none has no key.
    pins: dict[Hashable, int] = field(default_factory=dict)
    # Gets still expected before the object retires; None while unknown,
    # which leaves it cached until evicted.
    reads_left: int | None = None


class StoreState:
    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.counters = StoreCounters()
        # Least recently used first: create inserts at the end, and seal
        # and get move an entry there.
        self._entries: OrderedDict[bytes, _Entry] = OrderedDict()
        self._occupancy = 0
        self._dead: list[bytes] = []

    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._occupancy

    def __contains__(self, oid: bytes) -> bool:
        return oid in self._entries

    def describe(self, oid: bytes) -> tuple[int, bool, int] | None:
        """(size, sealed, pins) snapshot, or None if absent.

        The runtime never calls it; the lifecycle model checks its
        reference state against this."""
        entry = self._entries.get(oid)
        if entry is None:
            return None
        return entry.size, entry.sealed, sum(entry.pins.values())

    def take_dead(self) -> list[bytes]:
        """The ids of the objects that died since the last call, in the
        order they died; the caller owns reclaiming their storage."""
        dead, self._dead = self._dead, []
        return dead

    def _remove(self, entry: _Entry) -> None:
        del self._entries[entry.oid]
        self._occupancy -= entry.size
        self._dead.append(entry.oid)

    def create(self, session: Hashable, oid: bytes, size: int) -> Status:
        if size <= 0:
            return Status.BAD_REQUEST
        if oid in self._entries:
            return Status.DUPLICATE_ID
        if size > self.capacity_bytes:
            return Status.TOO_LARGE
        if self.free_bytes < size:
            self.evict(size - self.free_bytes)
            if self.free_bytes < size:
                return Status.STORE_FULL
        self._entries[oid] = _Entry(oid, size, session)
        self._occupancy += size
        self.counters.creates += 1
        return Status.OK

    def drop(self, oid: bytes) -> None:
        """Undo the create of ``oid``, which got no storage to reclaim."""
        self._occupancy -= self._entries.pop(oid).size

    def seal(self, session: Hashable, oid: bytes, reads: int = 0) -> Status:
        """Make an object readable.  ``reads`` is the number of gets it
        will see; 0 means unknown, and the object stays until evicted."""
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID
        if entry.sealed:
            return Status.ALREADY_SEALED
        if entry.creator != session:
            return Status.BAD_REQUEST
        entry.sealed, entry.creator = True, None
        entry.reads_left = reads or None
        self._entries.move_to_end(oid)
        self.counters.seals += 1
        return Status.OK

    def get(self, session: Hashable, oid: bytes) -> tuple[Status, int]:
        """Pin a sealed object for ``session`` and return its size."""
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID, 0
        if not entry.sealed:
            return Status.NOT_SEALED, 0
        entry.pins[session] = entry.pins.get(session, 0) + 1
        if entry.reads_left:
            entry.reads_left -= 1
        self._entries.move_to_end(oid)
        self.counters.gets += 1
        return Status.OK, entry.size

    def release(self, session: Hashable, oid: bytes, unmapped: bool = False) -> Status:
        """Drop one of ``session``'s pins.  ``unmapped`` says no view of
        the reader's mapping survives; a release that left one keeps the
        object until evicted.  The release of the last expected read
        retires the object."""
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID
        held = entry.pins.get(session, 0)
        if not held:
            return Status.NO_REFS
        if held > 1:
            entry.pins[session] = held - 1
        else:
            del entry.pins[session]
        self.counters.releases += 1
        if not unmapped:
            entry.reads_left = None
        elif entry.reads_left == 0 and not entry.pins:
            self._remove(entry)
            self.counters.recycled += 1
        return Status.OK

    def end(self, session: Hashable) -> None:
        """``session`` is over: release each pin it still holds as a
        release that left a view open, and drop every object it created
        but never sealed."""
        for entry in list(self._entries.values()):
            held = entry.pins.pop(session, 0)
            if held:
                self.counters.releases += held
                entry.reads_left = None
            if entry.creator == session:
                self._remove(entry)

    def evict(self, bytes_needed: int) -> int:
        """Evict least-recently-used idle objects until at least
        ``bytes_needed`` is freed, or everything evictable if that is
        less.  Returns the bytes freed."""
        freed = 0
        evicted: list[_Entry] = []
        for entry in self._entries.values():
            if freed >= bytes_needed:
                break
            if entry.sealed and not entry.pins:
                freed += entry.size
                evicted.append(entry)
        for entry in evicted:
            self._remove(entry)
        self.counters.evictions += len(evicted)
        self.counters.bytes_evicted += freed
        return freed

    def stats(self) -> dict:
        return {
            "capacity_bytes": self.capacity_bytes,
            "occupancy_bytes": self._occupancy,
            "objects": len(self._entries),
            **asdict(self.counters),
        }
