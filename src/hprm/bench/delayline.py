"""A per-connection delay line: the benchmark's model of receive latency.

:class:`DelayListener` wraps a :class:`~hprm.transport.FrameListener`.
Each connection it accepts is served by one thread of its own, which
stamps each frame as it arrives and holds it until

    due = max(previous due, min(arrival, tag.time) + U[0, jitter_ns])

The anchor is the sender's logical time when that is in the past (a
clock-gated publisher sends at its tag's time), else the arrival clock,
so a stall on the receiving host delays the stamping without inflating
the modeled wire latency.  The first frame is the sender's hello; it
passes at once and names the sender, whose fid seeds the draws as
``(seed << 32) ^ crc32(fid)``, so a run is reproducible per connection.

The thread waits in ``select()`` on the wrapped connection until the
head frame is due (a ``select`` timeout keeps to the microsecond), so it
stamps the frames each read brings as they come, and writes each due
frame, in arrival order, into one end of a socket pair; only once the
wrapped stream has ended does it sleep to the next due time.  The
accepted :class:`DelayedConnection` receives from the other end as a
plain :class:`~hprm.transport.FrameConnection`, so an event loop reads
it like any other connection.  Frames are never dropped: end of stream,
or a transport error, reaches the reader only after the last held frame
(an error as a frame of type 0, which no peer sends).  Sends and
``close`` go straight to the wrapped connection.  Pass a listener to
``Federate(..., listener=DelayListener(...))``.
"""

from __future__ import annotations

import json
import os
import random
import select
import socket
import threading
import time
import zlib
from collections import deque

from hprm.transport import (
    HEADER,
    Frame,
    FrameConnection,
    FrameListener,
    TransportError,
)

_ERROR = HEADER.pack(0, 0, 0, 0, 0, 0)  # no such frame type: fails the read


def _elevate_io_thread() -> None:
    """Rank the delay-line thread above the federate under a real-time policy.

    On Linux these scheduler calls act on the calling thread.  When the
    process was given a real-time class (the ``hprm.bench`` workers run
    under ``SCHED_FIFO``), one priority step more lets arrivals be
    stamped and handed on as they come, rather than after the federate's
    loop has run.  A no-op everywhere else."""
    try:
        policy = os.sched_getscheduler(0)
        if policy in (os.SCHED_FIFO, os.SCHED_RR):
            prio = os.sched_getparam(0).sched_priority
            os.sched_setscheduler(0, policy, os.sched_param(prio + 1))
    except (AttributeError, OSError):
        pass


class DelayedConnection(FrameConnection):
    """One inbound connection whose frames arrive late, FIFO."""

    def __init__(self, conn: FrameConnection, jitter_ns: int, seed: int):
        ours, theirs = socket.socketpair()
        super().__init__(theirs, conn.options)
        self._conn = conn
        self._ours = ours
        self._out = FrameConnection(ours, conn.options)
        self._jitter_ns = jitter_ns
        self._seed = seed
        self._rng: random.Random | None = None  # seeded by the hello
        self._due = 0
        threading.Thread(target=self._run, name="delay-line", daemon=True).start()

    def _run(self) -> None:
        """Stamp the frames each read brings; hand each on once due, in
        arrival order; then the end of stream, or the error frame."""
        _elevate_io_thread()
        held: deque[tuple[int, Frame]] = deque()  # (due_ns, frame)
        reading, failed = True, False
        try:
            while reading or held:
                timeout = None
                if held:
                    timeout = max(0, held[0][0] - time.monotonic_ns()) / 1e9
                if not reading:
                    time.sleep(timeout)  # nothing more can arrive
                else:
                    try:
                        if select.select([self._conn], [], [], timeout)[0]:
                            reading = self._conn.read()
                            arrival = time.monotonic_ns()
                            while (frame := self._conn.buffered_frame()) is not None:
                                held.append((self._stamp(arrival, frame), frame))
                    except (TransportError, OSError, ValueError):
                        reading, failed = False, True  # ValueError: closed under us
                now = time.monotonic_ns()
                while held and held[0][0] <= now:
                    self._out.send_frame(held.popleft()[1])
            if failed:
                self._ours.sendall(_ERROR)
        except OSError:
            pass  # the reader closed its end
        finally:
            self._out.close()

    def _stamp(self, arrival: int, frame: Frame) -> int:
        """The due time of a frame that arrived at ``arrival``.  The first
        is the sender's hello: due at once, it seeds the draws."""
        if self._rng is None:
            try:
                src = json.loads(frame.body)["fid"]
            except (ValueError, KeyError, TypeError):
                src = ""
            self._rng = random.Random((self._seed << 32) ^ zlib.crc32(src.encode()))
            return arrival
        draw = int(self._rng.uniform(0, self._jitter_ns))
        self._due = max(self._due, min(arrival, frame.tag.time) + draw)
        return self._due

    def send_frame(self, frame: Frame) -> None:
        self._conn.send_frame(frame)

    def close(self) -> None:
        self._conn.close()
        super().close()


class DelayListener:
    """A listener whose accepted connections are delay lines."""

    def __init__(self, listener: FrameListener, jitter_ns: int, seed: int = 0):
        if jitter_ns < 0:
            raise ValueError("jitter must be non-negative")
        self._listener = listener
        self._jitter_ns = jitter_ns
        self._seed = seed

    @property
    def address(self):
        return self._listener.address

    def fileno(self) -> int:
        return self._listener.fileno()

    def accept(self) -> DelayedConnection:
        return DelayedConnection(self._listener.accept(), self._jitter_ns, self._seed)

    def close(self) -> None:
        self._listener.close()
