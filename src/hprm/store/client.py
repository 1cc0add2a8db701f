"""Client-side access to the object store.

The client sends lifecycle requests over the control socket and maps the
segment descriptor that a CREATE or GET reply carries, closing it once
mapped, so reads and writes of object bytes happen directly against
shared memory.  A session maps each segment once: when an object is
done with, its mapping goes back to a small table of idle mappings, keyed
by the segment's identity and protection, and a later create or get of
the same recycled segment reuses it with no ``mmap``, no page faults and
no ``munmap``.  Idle mappings keep at most ``MAPPINGS_CACHED`` times the
largest segment per session alive outside the store's capacity, until
the session closes.

A seal may declare how many gets the object will see, and a release
tells the daemon whether any view of the object is left: the daemon
recycles an object after its last expected read only when none is, so a
view kept past its release stays valid until the object is evicted.  Its
mapping is then never handed to a later object.  The daemon answers
every request at once, so a request that has no reply within
``REPLY_TIMEOUT_S`` means the daemon is stuck or gone: the request fails
and closes the session, so that no later request can read its reply.  A
get of an object that is not there fails at once.

The client moves bytes and knows nothing of what they mean: a publisher
writes a payload's flat encoding (:mod:`hprm.serde`) into the object, and
a reader parses it straight from the mapping, so the object's id is all
a reader needs to be told.
"""

from __future__ import annotations

import json
import mmap
import os
import socket
import struct
import threading
from collections import OrderedDict
from pathlib import Path
from pickle import PickleBuffer

from hprm.store import wire
from hprm.store.state import Status
from hprm.store.wire import ID_BYTES

REPLY_TIMEOUT_S = 5.0  # the longest wait for any reply

# Idle mappings a session keeps.  With the daemon handing out the newest
# pooled segment first, a whole paced bench federation circulated 1-2
# segments per process on the 8 MiB fan-out and 3 on the 1 MiB fan-in,
# where two publishers share the pool; 4 holds either with one to spare.
MAPPINGS_CACHED = 4


def random_object_id() -> bytes:
    return os.urandom(ID_BYTES)


class StoreError(Exception):
    def __init__(self, status: Status, detail: str = ""):
        self.status = status
        super().__init__(f"store error {status.name}" + (f": {detail}" if detail else ""))


class _Mapped:
    """An object's segment, mapped through its session's idle mappings;
    its descriptor is closed at once."""

    _PROT = mmap.PROT_READ
    _FLAGS = mmap.MAP_SHARED  # MAP_POPULATE measured slower for readers

    def __init__(self, client: "StoreClient", oid: bytes, size: int, fd: int):
        self.client = client
        self.oid = oid
        self.size = size
        self._key, self._mm = client._map(fd, size, self._PROT, self._FLAGS)
        # The object's bytes, which may be fewer than the mapping's.
        self._root = memoryview(self._mm)[:size]

    @property
    def view(self) -> memoryview:
        # A view of a PickleBuffer takes its buffer from ``_root`` itself,
        # so ``_root.release()`` fails exactly while a view handed out, or
        # anything made from one, survives.
        return memoryview(PickleBuffer(self._root))

    def _done(self) -> bool:
        """End this object's use of the mapping: hand it back to the
        session, or, while views of the object survive, drop it (GC
        unmaps it once they go).  Returns whether no view survived."""
        mm, self._mm = self._mm, None
        if mm is None:
            return True
        try:
            self._root.release()
        except BufferError:
            return False
        self.client._keep(self._key, mm)
        return True


class WritableObject(_Mapped):
    """A created-but-not-yet-sealed object mapped for writing."""

    _PROT = mmap.PROT_READ | mmap.PROT_WRITE
    _FLAGS = mmap.MAP_SHARED | mmap.MAP_POPULATE  # a writer fills every page

    def write(self, offset: int, data) -> int:
        """Copy ``data`` into the object; the one write pass per byte.
        Writing past the object's size raises ``ValueError``."""
        view = memoryview(data).cast("B") if not isinstance(data, bytes) else data
        n = len(view)
        self._root[offset : offset + n] = view
        return n

    def seal(self, reads: int = 0) -> None:
        """Make the object readable.  ``reads`` > 0 declares the gets it
        will see, after which the daemon may recycle it: close this
        object first."""
        self.client.seal(self.oid, reads)

    def close(self) -> None:
        self._done()

    def __enter__(self) -> "WritableObject":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SealedObject(_Mapped):
    """A pinned, immutable object mapped read-only."""

    _released = False

    def release(self) -> None:
        """Drop the pin, reporting whether any view of the object
        survives.  If one does, the object stays cached until evicted."""
        if self._released:
            return
        self._released = True
        self.client.release(self.oid, self._done())

    def __enter__(self) -> "SealedObject":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class StoreClient:
    """One control-socket session.

    Requests on a client are serialized, and each waits at most
    ``REPLY_TIMEOUT_S`` for its reply; threads may share one client.
    """

    def __init__(self, socket_path: str | Path):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        # The kernel enforces the bound and the socket stays blocking:
        # Python's timeout mode polls before every send and receive, which
        # cost about 8% more CPU per message on the 8 MiB fan-out (2 vCPUs).
        sec = int(REPLY_TIMEOUT_S)
        bound = struct.pack("ll", sec, int((REPLY_TIMEOUT_S - sec) * 1e6))
        for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
            self._sock.setsockopt(socket.SOL_SOCKET, option, bound)
        self._sock.connect(str(socket_path))
        self._lock = threading.Lock()
        # Idle mappings, least recently used first; None once closed.  Its
        # own lock, since ``_request`` closes the session under ``_lock``.
        self._idle: OrderedDict[tuple, mmap.mmap] | None = OrderedDict()
        self._idle_lock = threading.Lock()

    def _map(self, fd: int, size: int, prot: int, flags: int) -> tuple[tuple, mmap.mmap]:
        """Map ``size`` bytes of the segment ``fd`` and close ``fd``,
        reusing an idle mapping of the same segment and protection when it
        is long enough.  A segment keeps its page count for life (see
        :mod:`hprm.store.daemon`), so a longer mapping never covers a page
        past its end.  Returns (key, mapping)."""
        try:
            st = os.fstat(fd)
            key = (st.st_dev, st.st_ino, prot)
            with self._idle_lock:
                mm = self._idle.pop(key, None) if self._idle is not None else None
            if mm is not None and len(mm) >= size:
                return key, mm
            if mm is not None:
                mm.close()
            return key, mmap.mmap(fd, size, flags=flags, prot=prot)
        finally:
            os.close(fd)

    def _keep(self, key: tuple, mm: mmap.mmap) -> None:
        """Take back a mapping no view uses, as the most recently used;
        close whatever that displaces."""
        with self._idle_lock:
            if self._idle is None:
                gone = [mm]
            else:
                gone = [self._idle.pop(key)] if key in self._idle else []
                self._idle[key] = mm
                while len(self._idle) > MAPPINGS_CACHED:
                    gone.append(self._idle.popitem(last=False)[1])
        for old in gone:
            old.close()

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        got = 0
        while got < n:
            chunk = self._sock.recv(n - got)
            if not chunk:
                raise ConnectionError("store daemon closed the connection")
            chunks.append(chunk)
            got += len(chunk)
        return b"".join(chunks)

    def _request(
        self, op: int, oid: bytes, arg: int = 0, *, maps: bool = False
    ) -> tuple[int, bytes, int]:
        """Send one request and read its reply: (value, blob, fd).

        A reply that is not OK raises.  With ``maps``, the reply's segment
        descriptor is returned for the caller to map and close; any other
        descriptor is closed here, and ``fd`` is -1.  A request that
        fails to get its reply (timeout included) closes the session."""
        fds: list[int] = []
        try:
            with self._lock:
                try:
                    self._sock.sendall(wire.encode_request(op, oid, arg))
                    head, fds, _, _ = socket.recv_fds(
                        self._sock, wire.RESPONSE_PREFIX_BYTES, 1
                    )
                    head += self._recv_exact(wire.RESPONSE_PREFIX_BYTES - len(head))
                    status, value, blob_len = wire.decode_response_prefix(head)
                    blob = self._recv_exact(blob_len) if blob_len else b""
                except BlockingIOError as exc:  # the bound passed
                    self.close()
                    raise TimeoutError(
                        f"no store reply within {REPLY_TIMEOUT_S} s"
                    ) from exc
                except OSError:
                    self.close()
                    raise
            if status != Status.OK:
                detail = f"{wire.Op(op).name} {oid.hex()[:12]}, argument {arg}"
                raise StoreError(Status(status), detail)
            if maps and not fds:
                raise ConnectionError("store reply carried no descriptor")
            return value, blob, fds.pop() if maps else -1
        finally:
            for stray in fds:
                os.close(stray)

    def create(self, size: int) -> WritableObject:
        oid = random_object_id()
        value, _, fd = self._request(wire.Op.CREATE, oid, size, maps=True)
        return WritableObject(self, oid, value, fd)

    def put(self, size: int, pieces, reads: int = 0) -> bytes:
        """Create a ``size``-byte object, write each ``(offset, data)`` of
        ``pieces`` into it, close it, then seal it for ``reads``
        gets.  Returns the object's id."""
        obj = self.create(size)
        with obj:
            for offset, data in pieces:
                obj.write(offset, data)
        self.seal(obj.oid, reads)
        return obj.oid

    def get(self, oid: bytes) -> SealedObject:
        value, _, fd = self._request(wire.Op.GET, oid, maps=True)
        return SealedObject(self, oid, value, fd)

    def seal(self, oid: bytes, reads: int = 0) -> None:
        self._request(wire.Op.SEAL, oid, reads)

    def release(self, oid: bytes, unmapped: bool = False) -> None:
        self._request(wire.Op.RELEASE, oid, int(unmapped))

    def stats(self) -> dict:
        _, blob, _ = self._request(wire.Op.STATS, bytes(ID_BYTES))
        return json.loads(blob.decode())

    def close(self) -> None:
        """End the session and unmap its idle mappings; a request blocked
        on it in another thread wakes with an error, and the daemon
        releases the session's pins."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed, or never connected
        self._sock.close()
        with self._idle_lock:
            idle, self._idle = self._idle, None
        for mm in (idle or {}).values():
            mm.close()

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
