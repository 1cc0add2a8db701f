"""Shared-memory object store.

A small daemon (:mod:`hprm.store.daemon`, started as ``hprm-store`` or
``python -m hprm.store.daemon``) owns one anonymous memfd segment per
object; clients map the segments it hands them as descriptors, so object
bytes cross process boundaries without ever being copied through a
socket.  Every lifecycle rule (create, seal, get, release, then
retirement after the last expected read, LRU eviction, or the end of
the creator's session before it sealed) lives in
:class:`~hprm.store.state.StoreState`, keyed by session: a session may
release only its own pins and seal only the objects it created, and
the daemon only moves requests, segments and descriptors.  A seal may
declare how many gets the object will see; once those readers have
released it with no view of it left, its segment is recycled at once,
the most recently retired first.  A session maps each recycled segment
once and keeps up to ``MAPPINGS_CACHED`` idle mappings, which hold up to
that many of the largest segments alive outside the store's capacity.
A view kept past its release keeps the object cached until evicted, and
its mapping is never reused.

The daemon answers every request at once: a get of an object that is
gone or not yet sealed fails rather than waits, and a client waits at
most ``REPLY_TIMEOUT_S`` for any reply.  A federate holds one session
for its publishes, gets and releases.  An object holds a payload's flat
encoding (:mod:`hprm.serde`), which describes itself, so a reference to
it is the 20-byte object id alone.  Dead segments are pooled within
the store's free bytes, and no file is ever named, so a crashed daemon
leaves nothing behind but its socket.
"""

from hprm.store.client import (
    ID_BYTES,
    SealedObject,
    StoreClient,
    StoreError,
    WritableObject,
    random_object_id,
)
from hprm.store.state import Status, StoreCounters, StoreState

__all__ = [
    "ID_BYTES",
    "SealedObject",
    "StoreClient",
    "StoreError",
    "Status",
    "StoreCounters",
    "StoreState",
    "WritableObject",
    "random_object_id",
]
