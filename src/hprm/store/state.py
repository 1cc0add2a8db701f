"""Object lifecycle bookkeeping, free of any I/O.

The daemon layers sockets and memory segments on top of this; keeping
the rules here makes them unit-testable and lets property tests drive
thousands of lifecycle interleavings without touching real memory.

Lifecycle: an object is *created* (capacity reserved, writable),
*sealed* (immutable, readable), then *pinned* by readers via get/release
refcounts.  Only sealed objects with zero references may be evicted.
Eviction is bulk and least-recently-used: one pass frees at least
``max(bytes_needed, eviction_fraction * capacity)`` when that much is
reclaimable, so a burst of large creates doesn't pay the eviction dance
per object.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import IntEnum


class Status(IntEnum):
    OK = 0
    PENDING = 1        # not ready yet; the caller may wait
    DUPLICATE_ID = 2
    UNKNOWN_ID = 3
    TOO_LARGE = 4
    STORE_FULL = 5
    TIMEOUT = 6
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


@dataclass
class _Entry:
    oid: bytes
    size: int
    sealed: bool = False
    refcount: int = 0
    last_access: int = 0


@dataclass(frozen=True)
class CreateResult:
    status: Status
    evicted: tuple[bytes, ...] = ()


class StoreState:
    def __init__(self, capacity_bytes: int, *, eviction_fraction: float = 0.2):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= eviction_fraction <= 1.0:
            raise ValueError("eviction fraction must be within [0, 1]")
        self.capacity_bytes = capacity_bytes
        self.eviction_fraction = eviction_fraction
        self.counters = StoreCounters()
        self._entries: dict[bytes, _Entry] = {}
        self._occupancy = 0
        self._tick = 0

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

    def _touch(self, entry: _Entry) -> None:
        self._tick += 1
        entry.last_access = self._tick

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
        entry = _Entry(oid, size)
        self._touch(entry)
        self._entries[oid] = entry
        self._occupancy += size
        self.counters.creates += 1
        return CreateResult(Status.OK, evicted)

    def seal(self, oid: bytes) -> Status:
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID
        if entry.sealed:
            return Status.ALREADY_SEALED
        entry.sealed = True
        self._touch(entry)
        self.counters.seals += 1
        return Status.OK

    def get(self, oid: bytes) -> tuple[Status, int]:
        """Pin a sealed object; PENDING means "not sealed (or not created) yet"."""
        entry = self._entries.get(oid)
        if entry is None or not entry.sealed:
            return Status.PENDING, 0
        entry.refcount += 1
        self._touch(entry)
        self.counters.gets += 1
        return Status.OK, entry.size

    def release(self, oid: bytes) -> Status:
        entry = self._entries.get(oid)
        if entry is None:
            return Status.UNKNOWN_ID
        if entry.refcount <= 0:
            return Status.NO_REFS
        entry.refcount -= 1
        self.counters.releases += 1
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
        """Bulk-evict least-recently-used idle objects.

        Frees at least ``max(bytes_needed, eviction_fraction * capacity)``
        if that much is evictable, otherwise everything evictable.
        Returns (bytes freed, evicted ids); the caller owns reclaiming
        the ids' backing storage.
        """
        goal = max(bytes_needed, int(self.capacity_bytes * self.eviction_fraction))
        candidates = sorted(
            (
                e
                for e in self._entries.values()
                if e.sealed and e.refcount == 0
            ),
            key=lambda e: e.last_access,
        )
        freed = 0
        evicted: list[bytes] = []
        for entry in candidates:
            if freed >= goal:
                break
            del self._entries[entry.oid]
            self._occupancy -= entry.size
            freed += entry.size
            evicted.append(entry.oid)
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
