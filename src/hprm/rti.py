"""Run-time coordination: registration, progress reports, and shutdown.

One daemon process tracks, per federate, two monotone tags and the
federate's reply to the stop round:

* *announced* -- the earliest tag at which the federate might still
  produce an event (its NET report).  ``FOREVER`` means "nothing, ever,
  unless something arrives first"; ``NEVER`` means "not reported yet".
* *completed* -- the largest tag the federate has reported finished.  It
  rides in the body of each NET report rather than in a frame of its own.

The daemon orders no events: each federate's arrival floor does (see
:mod:`hprm.federate`), so the daemon reads only the roster of its
topology.  A federate reports to the daemon only while idle (empty
queue, no reaction running, no pending violation): once on going idle,
and again whenever its promise moves while idle, besides a forced
report at start, on a lost message and at resignation.  A finite
announcement above the federate's previous one is acknowledged with a
TAG_GRANT of exactly that tag, to that federate alone; ``FOREVER`` and
resigning get none.  No federate waits on a grant: it is kept for the
benchmark's round-trip probe.

Shutdown is a two-phase stop (Lohstroh et al., "Toward a Lingua Franca
for Deterministic Concurrent Systems", ACM TECS 2021), the same for an
explicit request and for autostop.  A STOP at ``FOREVER`` asks for a
stop: from a federate (:meth:`hprm.federate.Federate.request_stop`) it
makes the daemon open the stop round, and the daemon sends it to every
live federate.  Each replies with a STOP carrying the largest tag it has
started, and from then on starts nothing past it.  Once every live
federate has replied (a session that has ended counts as having
replied), the daemon broadcasts a STOP at the stop tag, one microstep
past the largest reply and every completed tag.  So no federate starts a
tag past the stop tag, and each runs what is queued up to it.  A session
that ends without RESIGN (a federate killed, or cut off for breaking the
protocol) opens the round too: that federate's last counts never came,
so autostop might never fire.

Autostop: every report doubles as a quiescence report carrying a
queue-empty flag, cumulative sent/received message counts and the last
completed tag.  The federation has drained when every live federate's
last report says it was idle, the global sent and received totals agree
(the daemon keeps both as running sums), and every announcement is past
every completed tag.  Reports are read at different times, and a
federate that went busy again reports nothing until it is idle again,
so a record can be stale.  Its federate left idleness on input at or
past the announcement it reported, and all it sent since is tagged past
that announcement.  So a message counted received but not sent (sent
after its sender's report) was run by a receiver that reports only while
idle, whose completed tag is then past the sender's announcement: the
last clause rules that out.  The totals then balance only if every
message counted sent was counted received, and so no message is in
flight and no federate busy.  The earliest departure from idleness after
a report would have been on a message counted sent but not received,
and a message in flight was either counted sent or sent after such a
departure.  (Announcements alone cannot detect quiescence: around a
cycle with positive delay, empty-queue federates keep ratcheting their
announcements upward by the cycle delay forever, never reaching
``FOREVER``.)  This is counting-based termination detection (Mattern,
"Algorithms for Distributed Termination Detection", Distributed
Computing 2(3), 1987); on quiescence the daemon runs the stop round.

Every rule lives in :class:`RtiState`, whose entry points (a join, a
frame, the end of a session, and :meth:`RtiState.advance` after each)
return the frames they call for.  :class:`RtiServer` only moves frames:
it serves the listener and every federate connection from one
:class:`~hprm.loop.FrameLoop` on one thread, over TCP, and each send is
the transport's one blocking ``sendmsg``.  The listener stays open until
the roster is complete; then it closes, and so does every session that
never joined.
"""

from __future__ import annotations

import argparse
import json
import logging
import socket
import threading
from dataclasses import dataclass
from enum import Enum

from hprm.loop import FrameLoop, Link
from hprm.tags import FOREVER, NEVER, NO_DELAY, Tag, delay_tag
from hprm.topology import Topology
from hprm.transport import (
    Frame,
    FrameConnection,
    FrameListener,
    FrameType,
    TransportError,
    decode_progress,
    encode_progress,  # re-exported for whoever sends this daemon NETs
)

log = logging.getLogger(__name__)

DEFAULT_STARTUP_OFFSET_NS = 100_000_000


class RtiProtocolError(Exception):
    """A federate broke the coordination protocol's rules."""


class Phase(Enum):
    REGISTERING = "registering"
    RUNNING = "running"
    STOPPING = "stopping"


@dataclass
class FederateRecord:
    fid: str
    joined: bool = False
    resigned: bool = False
    address: tuple[str, int] | str | None = None
    clock_at_join_ns: int = 0
    announced: Tag = NEVER
    completed: Tag = NEVER
    stop_reply: Tag | None = None  # the largest tag started, once asked
    reported_empty: bool = False
    sent_count: int = 0
    received_count: int = 0


class RtiState:
    """Every coordination rule, free of sockets (see RtiServer for those).

    ``register``, ``handle_frame`` and ``end`` take what a session brings,
    and ``advance`` follows each; every one returns the frames it calls
    for, each with the federate it goes to."""

    def __init__(self, topology: Topology, *, startup_offset_ns: int = DEFAULT_STARTUP_OFFSET_NS):
        self.topology = topology
        self.startup_offset_ns = startup_offset_ns
        self.phase = Phase.REGISTERING
        self.records = {fid: FederateRecord(fid) for fid in topology.federates}
        self._sent_total = 0  # sums of the records' counters, for autostop
        self._received_total = 0
        self.start_tag: Tag | None = None
        self._stop_tag: Tag | None = None
        self._stop_pending = False  # requested while still registering

    def _record(self, fid: str) -> FederateRecord:
        record = self.records.get(fid)
        if record is None:
            raise RtiProtocolError(f"unknown federate {fid!r}")
        return record

    # -- registration ------------------------------------------------------

    def register(
        self, fid: str, clock_ns: int, address: tuple[str, int] | str
    ) -> list[tuple[str, Frame]]:
        """Record a join.  Once the roster is complete, every live
        federate's START, carrying the start tag and every address, then
        the stop round if a stop was requested meanwhile."""
        record = self._record(fid)
        if record.joined:
            raise RtiProtocolError(f"federate {fid!r} joined twice")
        if self.phase is not Phase.REGISTERING:
            raise RtiProtocolError(f"federate {fid!r} joined after start")
        record.joined = True
        record.clock_at_join_ns = clock_ns
        record.address = address if isinstance(address, str) else tuple(address)
        if not all(r.joined for r in self.records.values()):
            return []
        latest = max(r.clock_at_join_ns for r in self.records.values())
        self.start_tag = Tag(latest + self.startup_offset_ns, 0)
        self.phase = Phase.RUNNING
        log.info("all %d federates joined; start tag %r", len(self.records), self.start_tag)
        addresses = {fid: r.address for fid, r in self.records.items()}
        start = Frame(
            FrameType.START, self.start_tag, body=json.dumps({"addresses": addresses}).encode()
        )
        live = [(fid, start) for fid, r in self.records.items() if not r.resigned]
        return live + (self.request_stop() if self._stop_pending else [])

    # -- announcements ---------------------------------------------------------

    def handle_net(
        self,
        fid: str,
        tag: Tag,
        *,
        queue_empty: bool = False,
        sent: int = 0,
        received: int = 0,
        completed: Tag = NEVER,
    ) -> list[Tag]:
        """An announcement, with the quiescence report and the last
        completed tag (``NEVER``: none yet) riding along.  Returns the
        grant it earns, ``[tag]`` for a finite announcement above the
        previous one, or ``[]``.  A federate runs ahead of its grants, so
        its completed tag may pass them."""
        record = self._record(fid)
        if record.resigned:
            raise RtiProtocolError(f"{fid!r} announced after resigning")
        if tag == NEVER:
            raise RtiProtocolError(f"{fid!r} announced NEVER")
        if tag < record.announced:
            raise RtiProtocolError(
                f"{fid!r} announcement went backwards: {record.announced!r} -> {tag!r}"
            )
        if sent < record.sent_count or received < record.received_count:
            raise RtiProtocolError(f"{fid!r} message counters went backwards")
        if completed < record.completed:
            raise RtiProtocolError(
                f"{fid!r} completion went backwards: "
                f"{record.completed!r} -> {completed!r}"
            )
        previous, record.announced = record.announced, tag
        record.reported_empty = queue_empty
        self._sent_total += sent - record.sent_count
        self._received_total += received - record.received_count
        record.sent_count = sent
        record.received_count = received
        record.completed = completed
        return [tag] if tag.is_finite() and tag > previous else []

    def handle_frame(self, fid: str, frame: Frame) -> list[tuple[str, Frame]]:
        """A NET, STOP or RESIGN from ``fid`` after its JOIN: a grant, the
        stop round's requests, or nothing."""
        if frame.type == FrameType.NET:
            empty, sent, received, completed = decode_progress(frame.body)
            grants = self.handle_net(
                fid,
                frame.tag,
                queue_empty=empty,
                sent=sent,
                received=received,
                completed=completed,
            )
            return [(fid, Frame(FrameType.TAG_GRANT, tag)) for tag in grants]
        record = self._record(fid)
        if frame.type == FrameType.RESIGN:
            # It counts as a reply to the stop round, and holds up no autostop.
            record.resigned = True
            record.announced = FOREVER
            return []
        if frame.type == FrameType.STOP:
            if frame.tag == FOREVER:
                return self.request_stop()
            if self.phase is not Phase.STOPPING or record.stop_reply is not None:
                raise RtiProtocolError(f"{fid!r} replied to no stop request")
            record.stop_reply = frame.tag
            return []
        raise RtiProtocolError(f"{fid!r} sent unexpected {FrameType(frame.type).name}")

    def end(self, fid: str) -> list[tuple[str, Frame]]:
        """``fid``'s session ended.  Without a RESIGN first (a federate
        killed, or cut off for breaking the protocol), it resigns now and
        the stop round opens: its last counts never came, so autostop
        might never fire."""
        if self._record(fid).resigned:
            return []
        self.handle_frame(fid, Frame(FrameType.RESIGN, NEVER))
        return self.request_stop()

    # -- shutdown -----------------------------------------------------------------

    def autostop_ready(self) -> bool:
        """True when the federation is provably quiescent (see the module
        docstring).  ``FOREVER`` announcements, resigning included, imply
        an empty queue."""
        if self.phase is not Phase.RUNNING:
            return False
        if self._sent_total != self._received_total:
            return False
        latest = max(r.completed for r in self.records.values())
        return all(
            (r.reported_empty or r.announced == FOREVER) and r.announced > latest
            for r in self.records.values()
        )

    def request_stop(self) -> list[tuple[str, Frame]]:
        """Open the stop round: returns a STOP at ``FOREVER`` for every
        live federate, which asks it for the largest tag it has started.
        Deferred until start while registering; nothing once open."""
        if self.phase is Phase.REGISTERING:
            self._stop_pending = True
            return []
        if self.phase is not Phase.RUNNING:
            return []
        self.phase = Phase.STOPPING
        ask = Frame(FrameType.STOP, FOREVER)
        return [(fid, ask) for fid, r in self.records.items() if not r.resigned]

    def advance(self) -> list[tuple[str, Frame]]:
        """What the last join, report, reply or session end calls for:
        opening the stop round on quiescence, or, once every live
        federate has replied, broadcasting the stop tag."""
        if self.autostop_ready():
            return self.request_stop()
        if self.phase is not Phase.STOPPING or self._stop_tag is not None:
            return []
        if any(r.stop_reply is None and not r.resigned for r in self.records.values()):
            return []
        stop = Frame(FrameType.STOP, self.initiate_stop())
        return [(fid, stop) for fid, r in self.records.items() if not r.resigned]

    def initiate_stop(self) -> Tag:
        """Pick the stop tag: one microstep past the start tag, every reply
        and every completed tag."""
        if self._stop_tag is None:
            latest = self.start_tag if self.start_tag is not None else Tag(0, 0)
            for record in self.records.values():
                for tag in (record.stop_reply, record.completed):
                    if tag is not None and tag.is_finite():
                        latest = max(latest, tag)
            self._stop_tag = delay_tag(latest, NO_DELAY)
            self.phase = Phase.STOPPING
            log.info("stop tag %r", self._stop_tag)
        return self._stop_tag


class RtiServer:
    """Socket front end: one :class:`~hprm.loop.FrameLoop` serves the
    listener and every federate connection on one thread, handing what
    each session brings to a shared RtiState and sending what it returns.

    ``start`` runs the loop on a thread of its own, ``serve_forever`` on
    the caller's.  The loop ends once the roster is complete and every
    connection has closed, or when ``close`` wakes it."""

    def __init__(
        self,
        topology: Topology,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        startup_offset_ns: int = DEFAULT_STARTUP_OFFSET_NS,
    ):
        self.state = RtiState(topology, startup_offset_ns=startup_offset_ns)
        self._listener: FrameListener | None = FrameListener(host, port)
        self._address = self._listener.address
        self._loop = FrameLoop()
        self._loop.accept_from(self._listener, self._accept)
        # close() ends the other end of this pair, which wakes the loop.
        wake, self._waker = socket.socketpair()
        self._wake = self._loop.watch(FrameConnection(wake), self._woken)
        self._sessions: set[Link] = set()
        self._conns: dict[str, FrameConnection] = {}
        self._thread: threading.Thread | None = None
        self._served = False
        self._closing = False

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    # -- sessions ------------------------------------------------------------------

    def _send_all(self, frames: list[tuple[str, Frame]]) -> None:
        for fid, frame in frames:
            conn = self._conns.get(fid)
            if conn is None:
                continue  # its session has ended
            try:
                conn.send_frame(frame)
            except (TransportError, OSError):
                log.warning("lost connection to %s while sending", fid)

    def _from_federate(self, link: Link, item) -> None:
        """One frame of a session, or its end; the session ends at RESIGN,
        end of stream or a protocol error."""
        if isinstance(item, Frame):
            try:
                if link.peer is None:
                    out = self._join(link, item)
                else:
                    out = self.state.handle_frame(link.peer, item)
                self._send_all(out + self.state.advance())
                if item.type != FrameType.RESIGN:
                    return
            except (RtiProtocolError, ValueError, KeyError, TypeError) as exc:
                log.error("federate %s violated the protocol: %s", link.peer, exc)
        elif item is not None:
            log.error("federate %s violated the protocol: %s", link.peer, item)
        self._end(link)

    def _join(self, link: Link, frame: Frame) -> list[tuple[str, Frame]]:
        """A session's first frame, which must be its JOIN.  Once the
        roster is complete, no one else may join."""
        if frame.type != FrameType.JOIN:
            raise RtiProtocolError(f"{FrameType(frame.type).name} before JOIN")
        body = json.loads(frame.body.decode())
        out = self.state.register(body["fid"], body["clock_ns"], body["address"])
        link.peer = body["fid"]
        self._conns[link.peer] = link.conn
        if self.state.start_tag is not None:
            self._close_listener()
            for other in [s for s in self._sessions if s.peer is None]:
                self._end(other)
        return out

    def _end(self, link: Link) -> None:
        link.done = True
        self._loop.unwatch(link.conn)
        self._sessions.discard(link)
        link.conn.close()
        if link.peer is not None:
            self._conns.pop(link.peer, None)
            self._send_all(self.state.end(link.peer) + self.state.advance())

    def _accept(self, conn: FrameConnection) -> Link:
        link = self._loop.watch(conn, self._from_federate)
        self._sessions.add(link)
        return link

    def _close_listener(self) -> None:
        if self._listener is not None:
            self._loop.unwatch(self._listener)
            self._listener.close()
            self._listener = None

    def _woken(self, link: Link, item) -> None:
        self._closing = True

    # -- lifecycle ------------------------------------------------------------------

    def serve_forever(self) -> None:
        """Run the loop on this thread until the federation is done."""
        self._served = True
        try:
            while not self._closing and (self._listener is not None or self._sessions):
                self._loop.serve(None)
        finally:
            self._cleanup()

    def start(self) -> "RtiServer":
        self._served = True
        self._thread = threading.Thread(
            target=self.serve_forever, name="rti", daemon=True
        )
        self._thread.start()
        return self

    def join(self, timeout: float | None = None) -> None:
        if self._thread is not None:
            self._thread.join(timeout)

    def close(self) -> None:
        """End the loop, closing the listener and every connection."""
        self._closing = True
        try:
            self._waker.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the loop has ended and closed it
        if not self._served:
            self._cleanup()
        elif self._thread is not None and self._thread is not threading.current_thread():
            self._thread.join(5)

    def _cleanup(self) -> None:
        if self._wake.done:
            return
        self._wake.done = True
        self._close_listener()
        for link in list(self._sessions):
            link.conn.close()
        self._sessions.clear()
        self._conns.clear()
        self._loop.close()
        self._wake.conn.close()
        self._waker.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hprm-rti", description="federation coordination daemon"
    )
    parser.add_argument("--listen", default="127.0.0.1:0", help="host:port to bind")
    parser.add_argument("--topology", required=True, help="topology JSON file")
    parser.add_argument("--startup-offset-ms", type=float, default=DEFAULT_STARTUP_OFFSET_NS / 1e6)
    parser.add_argument("--log-level", default="INFO")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=args.log_level.upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    topology = Topology.load(args.topology)
    host, _, port = args.listen.rpartition(":")
    server = RtiServer(
        topology,
        host=host or "127.0.0.1",
        port=int(port),
        startup_offset_ns=int(args.startup_offset_ms * 1e6),
    )
    # The bench harness scrapes this line to learn the bound port.
    print(f"rti listening on {server.address[0]}:{server.address[1]}", flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
