"""Shared-memory object store.

A small daemon owns one anonymous memfd segment per object and
arbitrates their lifecycle (create, seal, get, release, then retirement
after the last expected read or LRU eviction); clients map the segments
it hands them as descriptors, so object bytes cross process boundaries
without ever being copied through a socket.  A seal may declare how many
gets the object will see; once those readers have released it with
their mappings closed, its segment is recycled at once.  A view kept
past its release keeps the object cached until evicted.  Dead segments
are pooled within the store's free bytes, and no file is ever named, so
a crashed daemon leaves nothing behind but its socket.
"""

from hprm.store.client import (
    ID_BYTES,
    ObjectRef,
    SealedObject,
    StoreClient,
    StoreError,
    StoreTimeout,
    WritableObject,
    random_object_id,
)
from hprm.store.daemon import StoreDaemon
from hprm.store.state import Status, StoreCounters, StoreState

__all__ = [
    "ID_BYTES",
    "ObjectRef",
    "SealedObject",
    "StoreClient",
    "StoreDaemon",
    "StoreError",
    "StoreTimeout",
    "Status",
    "StoreCounters",
    "StoreState",
    "WritableObject",
    "random_object_id",
]
