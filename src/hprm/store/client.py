"""Client-side access to the object store.

The client sends lifecycle requests over the control socket and maps the
segment descriptor that a CREATE or GET reply carries, closing it once
mapped, so reads and writes of object bytes happen directly against
shared memory.  A seal may declare how many gets the object will see,
and a release first tries to close its mapping and tells the daemon
whether that worked: the daemon recycles an object after its last
expected read only when no view of it is left open, so a view kept past
its release stays valid until the object is evicted.  The daemon
answers every request at once, so a request that has no reply within
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
from pathlib import Path

from hprm.store import wire
from hprm.store.state import Status
from hprm.store.wire import ID_BYTES

REPLY_TIMEOUT_S = 5.0  # the longest wait for any reply


def random_object_id() -> bytes:
    return os.urandom(ID_BYTES)


class StoreError(Exception):
    def __init__(self, status: Status, detail: str = ""):
        self.status = status
        super().__init__(f"store error {status.name}" + (f": {detail}" if detail else ""))


class _Mapped:
    """An object's segment, mapped; its descriptor is closed at once."""

    _PROT = mmap.PROT_READ
    _FLAGS = mmap.MAP_SHARED  # MAP_POPULATE measured slower for readers

    def __init__(self, client: "StoreClient", oid: bytes, size: int, fd: int):
        self.client = client
        self.oid = oid
        self.size = size
        try:
            self._mm = mmap.mmap(fd, size, flags=self._FLAGS, prot=self._PROT)
        finally:
            os.close(fd)

    @property
    def view(self) -> memoryview:
        return memoryview(self._mm)

    def _unmap(self) -> bool:
        """Close the mapping; False while views keep it alive (GC then
        reclaims it once they go)."""
        try:
            self._mm.close()
        except BufferError:
            return False
        return True


class WritableObject(_Mapped):
    """A created-but-not-yet-sealed object mapped for writing."""

    _PROT = mmap.PROT_READ | mmap.PROT_WRITE
    _FLAGS = mmap.MAP_SHARED | mmap.MAP_POPULATE  # a writer fills every page

    def write(self, offset: int, data) -> int:
        """Copy ``data`` into the mapping; the one write pass per byte."""
        view = memoryview(data).cast("B") if not isinstance(data, bytes) else data
        n = len(view)
        self._mm[offset : offset + n] = view
        return n

    def seal(self, reads: int = 0) -> None:
        """Make the object readable.  ``reads`` > 0 declares the gets it
        will see, after which the daemon may recycle it: close this
        mapping first."""
        self.client.seal(self.oid, reads)

    def close(self) -> None:
        self._unmap()

    def __enter__(self) -> "WritableObject":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SealedObject(_Mapped):
    """A pinned, immutable object mapped read-only."""

    _released = False

    def release(self) -> None:
        """Close the mapping, then drop the pin, reporting whether the
        close worked.  A mapping with live views survives, and its
        object then stays cached until evicted."""
        if self._released:
            return
        self._released = True
        self.client.release(self.oid, self._unmap())

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

    def create(self, size: int, oid: bytes | None = None) -> WritableObject:
        oid = oid if oid is not None else random_object_id()
        value, _, fd = self._request(wire.Op.CREATE, oid, size, maps=True)
        return WritableObject(self, oid, value, fd)

    def put(self, size: int, pieces, reads: int = 0) -> bytes:
        """Create a ``size``-byte object, write each ``(offset, data)`` of
        ``pieces`` into it, close the mapping, then seal it for ``reads``
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
        """End the session; a request blocked on it in another thread
        wakes with an error, and the daemon releases the session's pins."""
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already closed, or never connected
        self._sock.close()

    def __enter__(self) -> "StoreClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
