"""Shared-memory object store.

A small daemon owns one anonymous memfd segment per object and
arbitrates their lifecycle (create, seal, get, release, evict); clients
map the segments it hands them as descriptors, so object bytes cross
process boundaries without ever being copied through a socket.  Dead
segments are pooled within the store's free bytes, and no file is ever
named, so a crashed daemon leaves nothing behind but its socket.
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
