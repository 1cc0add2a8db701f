"""A per-connection delay line: the benchmark's model of receive latency.

:class:`DelayListener` wraps a :class:`~hprm.transport.FrameListener`.
Each connection it accepts reads its socket on a thread of its own and
holds each frame until

    due = max(previous due, min(arrival, tag.time) + U[0, jitter_ns])

The anchor is the sender's logical time when that is in the past (a
clock-gated publisher sends at its tag's time), else the arrival clock,
so a stall on the receiving host delays the stamping without inflating
the modeled wire latency.  The first frame is the sender's hello; it
passes at once and names the sender, whose fid seeds the draws as
``(seed << 32) ^ crc32(fid)``, so a run is reproducible per connection.

A second thread writes each frame, once due and in arrival order, into
one end of a socket pair.  The accepted :class:`DelayedConnection`
receives from the other end as a plain
:class:`~hprm.transport.FrameConnection`, so an event loop reads it like
any other connection.  Frames are never dropped: end of stream, or a
transport error, reaches the reader only after the last held frame (an
error as a frame of type 0, which no peer sends).  Sends and ``close``
go straight to the wrapped connection.  Pass a listener to
``Federate(..., listener=DelayListener(...))``.
"""

from __future__ import annotations

import json
import os
import random
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
    """Rank a delay-line thread above the federate under a real-time policy.

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
        self._cond = threading.Condition()
        self._held: deque[tuple[int, Frame]] = deque()  # (due_ns, frame)
        self._ended = False
        self._error: BaseException | None = None
        threading.Thread(target=self._read, name="delay-line", daemon=True).start()
        threading.Thread(target=self._pump, name="delay-pump", daemon=True).start()

    def _read(self) -> None:
        _elevate_io_thread()
        try:
            hello = self._conn.recv_frame()
            if hello is None:
                return
            self._hold(time.monotonic_ns(), hello)
            try:
                src = json.loads(hello.body)["fid"]
            except (ValueError, KeyError, TypeError):
                src = ""
            rng = random.Random((self._seed << 32) ^ zlib.crc32(src.encode()))
            due = 0
            while (frame := self._conn.recv_frame()) is not None:
                arrival = time.monotonic_ns()
                draw = int(rng.uniform(0, self._jitter_ns))
                due = max(due, min(arrival, frame.tag.time) + draw)
                self._hold(due, frame)
        except (TransportError, OSError) as exc:
            self._error = exc
        finally:
            with self._cond:
                self._ended = True
                self._cond.notify()

    def _hold(self, due_ns: int, frame: Frame) -> None:
        with self._cond:
            self._held.append((due_ns, frame))
            self._cond.notify()

    def _pump(self) -> None:
        """Hand each held frame on once it is due; then the end."""
        _elevate_io_thread()
        try:
            while (frame := self._next_due()) is not None:
                self._out.send_frame(frame)
            if self._error is not None:
                self._ours.sendall(_ERROR)
        except OSError:
            pass  # the reader closed its end
        finally:
            self._out.close()

    def _next_due(self) -> Frame | None:
        """The next held frame once it is due; None once every held
        frame has been handed on and the wrapped connection has ended."""
        with self._cond:
            while True:
                if self._held:
                    due, frame = self._held[0]
                    wait_ns = due - time.monotonic_ns()
                    if wait_ns <= 0:
                        self._held.popleft()
                        return frame
                    self._cond.wait(wait_ns / 1e9)
                elif self._ended:
                    return None
                else:
                    self._cond.wait()

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
