"""Object lifecycle bookkeeping, free of any I/O.

The daemon layers sockets and memory segments on top of this; keeping
the rules here makes them unit-testable and lets property tests drive
thousands of lifecycle interleavings without touching real memory.

Lifecycle: an object is *created* (capacity reserved, writable),
*sealed* (immutable, readable), then *pinned* by readers via get/release
refcounts.  A get never waits: an absent object is ``UNKNOWN_ID`` and an
unsealed one ``NOT_SEALED``, because a publisher seals before it sends
the reference: a get that finds no sealed object finds one that is gone.
A seal may declare how many gets its publisher will cause.  Such an
object is *retired after its last expected read*: it is removed
as soon as those gets are used up, no pin is left, and every release
reported no view of it left.  A release that left a view open, or a seal
that declared no reads, leaves the object cached until eviction.

Only sealed objects with zero references may be evicted.  Eviction is
least-recently-used and frees only what a create needs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import asdict, dataclass
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
    sealed: bool = False
    refcount: int = 0
    # Gets still expected before the object retires; None while unknown,
    # which leaves it cached until evicted.
    reads_left: int | None = None


@dataclass(frozen=True)
class CreateResult:
    status: Status
    evicted: tuple[bytes, ...] = ()


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

    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._occupancy

    def __contains__(self, oid: bytes) -> bool:
        return oid in self._entries

    def describe(self, oid: bytes) -> tuple[int, bool, int] | None:
        """(size, sealed, refcount) snapshot, or None if absent.

        The runtime never calls it; the lifecycle model checks its
        reference state against this."""
        entry = self._entries.get(oid)
        if entry is None:
            return None
        return entry.size, entry.sealed, entry.refcount

    def create(self, oid: bytes, size: int) -> CreateResult:
        if size <= 0:
            return CreateResult(Status.BAD_REQUEST)
        if oid in self._entries:
            return CreateResult(Status.DUPLICATE_ID)
        if size > self.capacity_bytes:
            return CreateResult(Status.TOO_LARGE)
        evicted: tuple[bytes, ...] = ()
        if self.free_bytes < size:
            _, evicted = self.evict(size - self.free_bytes)
            if self.free_bytes < size:
                return CreateResult(Status.STORE_FULL, evicted)
        self._entries[oid] = _Entry(oid, size)
        self._occupancy += size
        self.counters.creates += 1
        return CreateResult(Status.OK, evicted)

    def seal(self, oid: bytes, reads: int = 0) -> Status:
        """Make an object readable.  ``reads`` is the number of gets it
        will see; 0 means unknown, and the object stays until evicted."""
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID
        if entry.sealed:
            return Status.ALREADY_SEALED
        entry.sealed = True
        entry.reads_left = reads or None
        self._entries.move_to_end(oid)
        self.counters.seals += 1
        return Status.OK

    def get(self, oid: bytes) -> tuple[Status, int]:
        """Pin a sealed object and return its size."""
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID, 0
        if not entry.sealed:
            return Status.NOT_SEALED, 0
        entry.refcount += 1
        if entry.reads_left:
            entry.reads_left -= 1
        self._entries.move_to_end(oid)
        self.counters.gets += 1
        return Status.OK, entry.size

    def release(self, oid: bytes, unmapped: bool = False) -> Status:
        """Drop one pin.  ``unmapped`` says no view of the reader's
        mapping survives; a release that left one keeps the object until
        evicted.  The
        release of the last expected read removes the object, and the
        caller owns reclaiming its backing storage."""
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID
        if entry.refcount <= 0:
            return Status.NO_REFS
        entry.refcount -= 1
        self.counters.releases += 1
        if not unmapped:
            entry.reads_left = None
        elif entry.reads_left == 0 and entry.refcount == 0:
            del self._entries[oid]
            self._occupancy -= entry.size
            self.counters.recycled += 1
        return Status.OK

    def drop(self, oid: bytes) -> Status:
        """Remove an unsealed entry (creator vanished before sealing)."""
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID
        if entry.sealed:
            return Status.ALREADY_SEALED
        del self._entries[oid]
        self._occupancy -= entry.size
        return Status.OK

    def evict(self, bytes_needed: int) -> tuple[int, tuple[bytes, ...]]:
        """Evict least-recently-used idle objects until at least
        ``bytes_needed`` is freed, or everything evictable if that is less.
        Returns (bytes freed, evicted ids); the caller owns reclaiming
        the ids' backing storage.
        """
        freed = 0
        evicted: list[bytes] = []
        for entry in self._entries.values():
            if freed >= bytes_needed:
                break
            if entry.sealed and entry.refcount == 0:
                freed += entry.size
                evicted.append(entry.oid)
        for oid in evicted:
            del self._entries[oid]
        self._occupancy -= freed
        self.counters.evictions += len(evicted)
        self.counters.bytes_evicted += freed
        return freed, tuple(evicted)

    def stats(self) -> dict:
        return {
            "capacity_bytes": self.capacity_bytes,
            "occupancy_bytes": self._occupancy,
            "objects": len(self._entries),
            **asdict(self.counters),
        }
