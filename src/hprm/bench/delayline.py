"""A per-connection delay line: the benchmark's model of receive latency.

:class:`DelayListener` wraps a :class:`~hprm.transport.FrameListener`.
Each connection it accepts reads its socket on a thread of its own and
hands frames to ``recv_frame`` in arrival order, each no earlier than

    due = max(previous due, min(arrival, tag.time) + U[0, jitter_ns])

The anchor is the sender's logical time when that is in the past (a
clock-gated publisher sends at its tag's time), else the arrival clock,
so a stall on the receiving host delays the stamping without inflating
the modeled wire latency.  The first frame is the sender's hello; it
passes at once and names the sender, whose fid seeds the draws as
``(seed << 32) ^ crc32(fid)``, so a run is reproducible per connection.

Frames are never dropped: end of stream, or a transport error, reaches
the caller only after the last held frame.  Sends and ``close`` go
straight to the wrapped connection.  Pass a listener to
``Federate(..., listener=DelayListener(...))``.
"""

from __future__ import annotations

import json
import random
import threading
import time
import zlib
from collections import deque

from hprm.federate import _elevate_io_thread
from hprm.transport import Frame, FrameConnection, FrameListener, TransportError


class DelayedConnection:
    """One inbound connection whose frames arrive late, FIFO."""

    def __init__(self, conn: FrameConnection, jitter_ns: int, seed: int):
        self._conn = conn
        self._jitter_ns = jitter_ns
        self._seed = seed
        self._cond = threading.Condition()
        self._held: deque[tuple[int, Frame]] = deque()  # (due_ns, frame)
        self._ended = False
        self._error: BaseException | None = None
        threading.Thread(target=self._read, name="delay-line", daemon=True).start()

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

    def recv_frame(self) -> Frame | None:
        """The next frame once it is due; None or the wrapped connection's
        error once every held frame has been handed out."""
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
                    if self._error is not None:
                        raise self._error
                    return None
                else:
                    self._cond.wait()

    def send_frame(self, frame: Frame) -> None:
        self._conn.send_frame(frame)

    def close(self) -> None:
        self._conn.close()


class DelayListener:
    """A listener whose accepted connections are delay lines."""

    def __init__(self, listener: FrameListener, jitter_ns: int, seed: int = 0):
        if jitter_ns < 0:
            raise ValueError("jitter must be non-negative")
        self._listener = listener
        self._jitter_ns = jitter_ns
        self._seed = seed

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.address

    def accept(self) -> DelayedConnection:
        return DelayedConnection(self._listener.accept(), self._jitter_ns, self._seed)

    def close(self) -> None:
        self._listener.close()
