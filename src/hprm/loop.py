"""One ``select`` loop over framed connections, on the thread that serves it.

A watched connection is a :class:`Link` with a handler.  Reading a ready
socket queues every frame it brought in one FIFO inbox, then the end of
the stream (None) or the transport error; handlers run when the inbox is
dispatched, never while a socket is read.  So a handler may send, and a
send that finds a peer's socket buffer full can keep reading every
connection (:meth:`FrameLoop.read_until_writable`) without running
another handler underneath it.  The loop waits in ``select()`` on the
watched descriptors: it keeps a timed wait to the microsecond, where
epoll and poll round it up to a millisecond, and on a handful of
descriptors one call costs less than a ``selectors`` selector's.

Frames are dispatched in the order read: a watermark (NET) or the end
of a connection never passes a data frame read before it.  But a caller
may hold frames back.  With ``hold=h``, a tag, every frame through the
last data frame for ``h`` or an earlier tag is dispatched, and after it
each connection's frames stay queued from its first data frame tagged
after ``h`` on.  A federate holds while its event at ``h`` waits for the
clock, and when it reads just before the event runs (``serve(0, h)``),
so a reader slower than its publisher does not fetch, and pin, a store
object for every reference it has read ahead of the events it runs.  It
does not hold while it waits on input: a held frame may be what it
waits for, since tags need not rise along a connection (two edges
between the same federates may have different delays).  Nor while a
stop round keeps its head back: it waits for the stop tag, on the
coordinator's connection, which carries no data.
"""

from __future__ import annotations

import select
from collections import deque
from typing import Callable

from hprm.tags import Tag
from hprm.transport import Frame, FrameType, TransportError

_DATA = (FrameType.TAGGED_MSG, FrameType.OBJ_REF)


def _is_data(item) -> bool:
    return isinstance(item, Frame) and item.type in _DATA


class Link:
    """A watched connection, the peer at its other end (None until known)
    and its handler, called as ``handle(link, frame_or_end)``.  Once
    ``done``, frames still queued from it are dropped."""

    __slots__ = ("conn", "handle", "peer", "done")

    def __init__(self, conn, handle: Callable, peer=None):
        self.conn = conn
        self.handle = handle
        self.peer = peer
        self.done = False


class FrameLoop:
    def __init__(self) -> None:
        # Descriptor -> its Link, or a listener's (listener, on_accept).
        self._watched: dict[int, Link | tuple] = {}
        self._inbox: deque[tuple[Link, Frame | BaseException | None]] = deque()

    def watch(self, conn, handle: Callable, peer=None) -> Link:
        """Read ``conn`` from now on, first taking what it has buffered."""
        link = Link(conn, handle, peer)
        self._watched[conn.fileno()] = link
        while (frame := conn.buffered_frame()) is not None:
            self._inbox.append((link, frame))
        return link

    def accept_from(self, listener, on_accept: Callable) -> None:
        """Hand each connection ``listener`` takes to ``on_accept``, which
        returns the new connection's link."""
        self._watched[listener.fileno()] = (listener, on_accept)

    def unwatch(self, fileobj) -> None:
        """Stop reading ``fileobj``, if it is watched (it may be closed)."""
        for fd, data in self._watched.items():
            if (data.conn if isinstance(data, Link) else data[0]) is fileobj:
                del self._watched[fd]
                return

    def close(self) -> None:
        self._watched.clear()

    def _select(self, timeout: float | None) -> None:
        for fd in select.select(self._watched, (), (), timeout)[0]:
            data = self._watched.get(fd)
            if data is not None:  # else unwatched by an earlier read
                self._ready(data)

    def _ready(self, data) -> None:
        if isinstance(data, tuple):
            listener, on_accept = data
            data = on_accept(listener.accept())
            if not select.select([data.conn], [], [], 0)[0]:
                return  # else take what the peer has sent already
        try:
            if data.conn.read():
                while (frame := data.conn.buffered_frame()) is not None:
                    self._inbox.append((data, frame))
                return
            end = None
        except (TransportError, OSError) as exc:
            end = exc
        self.unwatch(data.conn)
        self._inbox.append((data, end))

    def serve(self, timeout: float | None, hold: Tag | None = None) -> None:
        """Dispatch the queued frames, then read what becomes ready within
        ``timeout`` seconds (None: no limit; no wait at all if a frame was
        dispatched) and dispatch it, holding back what ``hold`` keeps."""
        dispatched = self._dispatch(hold)
        self._select(0 if dispatched else timeout)
        self._dispatch(hold)

    def _dispatch(self, hold: Tag | None = None) -> bool:
        """Hand the queued frames to their handlers in the order read;
        True if any was handed out.  Given ``hold``, a tag, the frames
        after the last data frame for ``hold`` or an earlier tag stay
        queued, each connection's from its first data frame for a later
        tag on."""
        if not self._inbox:
            return False
        due = len(self._inbox)
        if hold is not None:
            due = 0
            for i, (_, item) in enumerate(self._inbox, 1):
                if _is_data(item) and item.tag <= hold:
                    due = i
        held: set[Link] = set()
        kept: deque = deque()
        dispatched = False
        while self._inbox:
            link, item = self._inbox.popleft()
            due -= 1
            if link.done:
                continue
            if due < 0 and hold is not None and (
                link in held or (_is_data(item) and item.tag > hold)
            ):
                held.add(link)
                kept.append((link, item))
            else:
                link.handle(link, item)
                dispatched = True
        self._inbox = kept
        return dispatched

    def read_until_writable(self, conn) -> None:
        """A send to ``conn`` found its socket buffer full: keep reading
        every connection, queueing what arrives, until it takes more."""
        fd = conn.fileno()
        while True:
            readable, writable, _ = select.select(self._watched, [fd], [])
            for ready in readable:
                data = self._watched.get(ready)
                if data is not None:
                    self._ready(data)
            if writable:
                return
