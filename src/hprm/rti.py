"""Run-time coordination: registration, tag grants, and shutdown.

One daemon process tracks, per federate, three monotone tags:

* *announced* -- the earliest tag at which the federate might still
  produce an event (its NET report).  ``FOREVER`` means "nothing, ever,
  unless something arrives first"; ``NEVER`` means "not reported yet".
* *granted* -- the largest tag the daemon has authorized the federate to
  advance to (TAG_GRANT frames).
* *completed* -- the largest tag the federate has finished.  It rides
  in the body of each NET report rather than in a frame of its own: no
  grant depends on it, only the stop tag does.

A federate may be granted tag G when no upstream federate can still emit
an event with tag <= G.  Each upstream announcement bounds that
federate's future output from below by the connection delay, so::

    grant(f) = min( delay(announced(u), d) for each in-edge (u -> f, d) )
    capped at announced(f)      -- never grant past what was asked for

Grants are emitted only when they move the federate strictly forward.
Federates with no inputs are granted exactly what they announce.
Resigned federates are fail-stopped: they are treated as if they had
announced ``FOREVER``, so their downstream peers are not wedged.

Shutdown: every announcement doubles as a quiescence report carrying a
queue-empty flag, cumulative sent/received message counts and the last
completed tag.  The federation has drained exactly when every live
federate reports an empty queue and the global sent and received totals
agree (the daemon keeps both totals as running sums) -- a message still
in flight always leaves the totals unequal, and a federate that went
busy again after reporting empty must first have received such a
message.  (Announcements alone cannot detect this: around a cycle with
positive delay, empty-queue federates keep ratcheting their
announcements upward by the cycle delay forever, never reaching
``FOREVER``.)  On quiescence, or on an explicit stop request, the daemon
broadcasts a stop tag one microstep past the latest reported activity.

:class:`RtiServer` serves the listener and every federate connection
from one :class:`~hprm.loop.FrameLoop` on one thread.  It listens on
TCP, and its sends are the transport's two ``sendall`` calls.
"""

from __future__ import annotations

import argparse
import json
import logging
import socket
import struct
import threading
from dataclasses import dataclass
from enum import Enum

from hprm.loop import FrameLoop, Link
from hprm.tags import FOREVER, NEVER, NO_DELAY, Tag, bound_tag, delay_tag
from hprm.topology import Topology
from hprm.transport import (
    ConnectionOptions,
    Frame,
    FrameConnection,
    FrameListener,
    FrameType,
    TransportError,
)

log = logging.getLogger(__name__)

DEFAULT_STARTUP_OFFSET_NS = 100_000_000


class RtiProtocolError(Exception):
    """A federate broke the coordination protocol's rules."""


_PROGRESS = struct.Struct("<BQQqI")


def encode_progress(
    queue_empty: bool, sent: int, received: int, completed: Tag = NEVER
) -> bytes:
    """NET frame body: the quiescence report and the last completed tag,
    riding along with the announcement."""
    return _PROGRESS.pack(
        1 if queue_empty else 0, sent, received, completed.time, completed.microstep
    )


def decode_progress(body: bytes) -> tuple[bool, int, int, Tag]:
    if not body:
        return False, 0, 0, NEVER
    try:
        empty, sent, received, time, microstep = _PROGRESS.unpack_from(body)
        return bool(empty), sent, received, Tag(time, microstep)
    except (struct.error, ValueError) as exc:
        raise RtiProtocolError(f"malformed progress report: {exc}") from None


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
    granted: Tag = NEVER
    completed: Tag = NEVER
    reported_empty: bool = False
    sent_count: int = 0
    received_count: int = 0


@dataclass(frozen=True)
class Grant:
    fid: str
    tag: Tag


@dataclass(frozen=True)
class StartInfo:
    start_tag: Tag
    addresses: dict[str, tuple[str, int] | str]


@dataclass(frozen=True)
class StopInfo:
    stop_tag: Tag


class RtiState:
    """The coordination rules, free of sockets (see RtiServer for those)."""

    def __init__(self, topology: Topology, *, startup_offset_ns: int = DEFAULT_STARTUP_OFFSET_NS):
        self.topology = topology
        self.startup_offset_ns = startup_offset_ns
        self.phase = Phase.REGISTERING
        self.records = {fid: FederateRecord(fid) for fid in topology.federates}
        # Fixed by the topology, so worked out once: each federate's input
        # edges, and whom a change in its announcement may unblock.
        self._inputs = {fid: topology.inputs_of(fid) for fid in topology.federates}
        self._downstream = {
            fid: topology.downstream_ids(fid) for fid in topology.federates
        }
        self._net_targets = {
            fid: tuple(dict.fromkeys((fid, *self._downstream[fid])))
            for fid in topology.federates
        }
        self._sent_total = 0  # sums of the records' counters, for autostop
        self._received_total = 0
        self.start_tag: Tag | None = None
        self._stop_info: StopInfo | None = None
        self._stop_pending = False

    def _record(self, fid: str) -> FederateRecord:
        record = self.records.get(fid)
        if record is None:
            raise RtiProtocolError(f"unknown federate {fid!r}")
        return record

    # -- registration ------------------------------------------------------

    def register(
        self, fid: str, clock_ns: int, address: tuple[str, int] | str
    ) -> StartInfo | None:
        """Record a join; returns start info once the roster is complete."""
        record = self._record(fid)
        if record.joined:
            raise RtiProtocolError(f"federate {fid!r} joined twice")
        if self.phase is not Phase.REGISTERING:
            raise RtiProtocolError(f"federate {fid!r} joined after start")
        record.joined = True
        record.clock_at_join_ns = clock_ns
        record.address = address if isinstance(address, str) else tuple(address)
        if not all(r.joined for r in self.records.values()):
            return None
        latest = max(r.clock_at_join_ns for r in self.records.values())
        self.start_tag = Tag(latest + self.startup_offset_ns, 0)
        self.phase = Phase.RUNNING
        log.info("all %d federates joined; start tag %r", len(self.records), self.start_tag)
        return StartInfo(
            self.start_tag,
            {fid: r.address for fid, r in self.records.items()},
        )

    # -- grants ---------------------------------------------------------------

    def grant_bound(self, fid: str) -> Tag:
        """Earliest tag an upstream federate might still deliver to fid."""
        bound = FOREVER
        for edge in self._inputs[fid]:
            upstream = self.records[edge.src]
            if upstream.resigned:
                continue  # fail-stopped: sends nothing further
            bound = min(bound, bound_tag(upstream.announced, edge.delay))
        return bound

    def _emit_grants(self, fids) -> list[Grant]:
        grants = []
        for fid in fids:
            record = self.records[fid]
            if record.resigned or not record.announced.is_finite():
                continue  # nothing requested, or nobody to tell
            grant = min(self.grant_bound(fid), record.announced)
            if grant > record.granted:
                record.granted = grant
                grants.append(Grant(fid, grant))
        return grants

    def handle_net(
        self,
        fid: str,
        tag: Tag,
        *,
        queue_empty: bool = False,
        sent: int = 0,
        received: int = 0,
        completed: Tag = NEVER,
    ) -> list[Grant]:
        """An announcement, with the quiescence report and the last
        completed tag (``NEVER``: none yet) riding along."""
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
        if completed > record.granted:
            raise RtiProtocolError(
                f"{fid!r} completed {completed!r} beyond its grant {record.granted!r}"
            )
        if completed < record.completed:
            raise RtiProtocolError(
                f"{fid!r} completion went backwards: "
                f"{record.completed!r} -> {completed!r}"
            )
        record.announced = tag
        record.reported_empty = queue_empty
        self._sent_total += sent - record.sent_count
        self._received_total += received - record.received_count
        record.sent_count = sent
        record.received_count = received
        record.completed = completed
        return self._emit_grants(self._net_targets[fid])

    def handle_resign(self, fid: str) -> list[Grant]:
        record = self._record(fid)
        if record.resigned:
            return []
        record.resigned = True
        record.announced = FOREVER
        return self._emit_grants(self._downstream[fid])

    # -- shutdown -----------------------------------------------------------------

    def autostop_ready(self) -> bool:
        """True when the federation is provably quiescent.

        Every live federate must have reported an empty queue, and the
        cumulative sent/received totals must agree so that nothing is in
        flight.  ``FOREVER`` announcements imply an empty queue too.
        """
        if self.phase is not Phase.RUNNING:
            return False
        if self._sent_total != self._received_total:
            return False
        return all(
            r.resigned or r.reported_empty or r.announced == FOREVER
            for r in self.records.values()
        )

    def request_stop(self, at: Tag | None = None) -> StopInfo | None:
        """Explicit stop; deferred until start if still registering."""
        if self.phase is Phase.REGISTERING:
            self._stop_pending = True
            return None
        return self.initiate_stop(at)

    def pending_stop(self) -> bool:
        return self._stop_pending

    def initiate_stop(self, at: Tag | None = None) -> StopInfo:
        """Pick the stop tag: one microstep past the latest known activity."""
        if self._stop_info is not None:
            return self._stop_info
        candidates = [self.start_tag if self.start_tag is not None else Tag(0, 0)]
        for record in self.records.values():
            for tag in (record.announced, record.completed):
                if tag.is_finite():
                    candidates.append(tag)
        if at is not None and at.is_finite():
            candidates.append(at)
        self._stop_info = StopInfo(delay_tag(max(candidates), NO_DELAY))
        self.phase = Phase.STOPPING
        log.info("stop tag %r", self._stop_info.stop_tag)
        return self._stop_info


class RtiServer:
    """Socket front end: one :class:`~hprm.loop.FrameLoop` serves the
    listener and every federate connection on one thread, over a shared
    RtiState.

    ``start`` runs the loop on a thread of its own, ``serve_forever`` on
    the caller's.  The loop ends once every expected federate has joined
    and every connection has closed, or when ``close`` wakes it."""

    def __init__(
        self,
        topology: Topology,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        startup_offset_ns: int = DEFAULT_STARTUP_OFFSET_NS,
        options: ConnectionOptions | None = None,
    ):
        self.state = RtiState(topology, startup_offset_ns=startup_offset_ns)
        self.options = options or ConnectionOptions()
        self._listener: FrameListener | None = FrameListener(host, port, self.options)
        self._address = self._listener.address
        self._loop = FrameLoop()
        self._loop.accept_from(self._listener, self._accept)
        # close() ends the other end of this pair, which wakes the loop.
        wake, self._waker = socket.socketpair()
        self._wake = self._loop.watch(FrameConnection(wake), self._woken)
        self._to_accept = len(self.state.records)
        self._sessions: set[Link] = set()
        self._conns: dict[str, FrameConnection] = {}
        self._thread: threading.Thread | None = None
        self._served = False
        self._closing = False
        self._stop_broadcast = False

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    # -- frame helpers -------------------------------------------------------

    def _send(self, fid: str, frame: Frame) -> None:
        conn = self._conns.get(fid)
        if conn is None:
            return
        try:
            conn.send_frame(frame)
        except (TransportError, OSError):
            log.warning("lost connection to %s while sending", fid)

    def _send_grants(self, grants) -> None:
        for grant in grants:
            self._send(grant.fid, Frame(FrameType.TAG_GRANT, grant.tag))

    def _broadcast_stop(self, info: StopInfo) -> None:
        if self._stop_broadcast:
            return
        self._stop_broadcast = True
        for fid in list(self._conns):
            self._send(fid, Frame(FrameType.STOP, info.stop_tag))

    def _maybe_autostop(self) -> None:
        if not self._stop_broadcast and self.state.autostop_ready():
            self._broadcast_stop(self.state.initiate_stop())

    # -- per-federate frames ----------------------------------------------------

    def _register(self, conn: FrameConnection, frame: Frame) -> str | None:
        if frame.type != FrameType.JOIN:
            log.warning("connection sent %s before JOIN; dropping", frame.type)
            return None
        body = json.loads(frame.body.decode())
        fid = body["fid"]
        start = self.state.register(fid, body["clock_ns"], body["address"])
        self._conns[fid] = conn
        if start is not None:
            payload = json.dumps({"addresses": start.addresses}).encode()
            for joined_fid in list(self._conns):
                self._send(
                    joined_fid,
                    Frame(FrameType.START, start.start_tag, body=payload),
                )
            if self.state.pending_stop():
                self._broadcast_stop(self.state.initiate_stop())
        return fid

    def _handle(self, fid: str, frame: Frame) -> None:
        if frame.type == FrameType.NET:
            empty, sent, received, completed = decode_progress(frame.body)
            self._send_grants(
                self.state.handle_net(
                    fid,
                    frame.tag,
                    queue_empty=empty,
                    sent=sent,
                    received=received,
                    completed=completed,
                )
            )
            self._maybe_autostop()
        elif frame.type == FrameType.STOP:
            info = self.state.request_stop(frame.tag if frame.tag.is_finite() else None)
            if info is not None:
                self._broadcast_stop(info)
        else:
            raise RtiProtocolError(
                f"{fid!r} sent unexpected {FrameType(frame.type).name}"
            )

    def _from_federate(self, link: Link, item) -> None:
        """One frame of a session, or its end; the session ends at RESIGN,
        end of stream or a protocol error."""
        try:
            if isinstance(item, Frame) and link.peer is None:
                link.peer = self._register(link.conn, item)
                if link.peer is not None:
                    return
            elif isinstance(item, Frame) and item.type != FrameType.RESIGN:
                self._handle(link.peer, item)
                return
        except (RtiProtocolError, ValueError, KeyError) as exc:
            log.error("federate %s violated the protocol: %s", link.peer, exc)
        if isinstance(item, (TransportError, OSError)):
            log.error("federate %s violated the protocol: %s", link.peer, item)
        link.done = True
        self._loop.unwatch(link.conn)
        self._sessions.discard(link)
        if link.peer is not None:
            self._send_grants(self.state.handle_resign(link.peer))
            self._maybe_autostop()
            self._conns.pop(link.peer, None)
        link.conn.close()

    def _accept(self, conn: FrameConnection) -> Link:
        link = self._loop.watch(conn, self._from_federate)
        self._sessions.add(link)
        self._to_accept -= 1
        if self._to_accept == 0:
            self._close_listener()
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
    parser.add_argument(
        "--federates", type=int, default=None, help="expected federate count (sanity check)"
    )
    parser.add_argument("--startup-offset-ms", type=float, default=100.0)
    parser.add_argument("--log-level", default="INFO")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=args.log_level.upper(),
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    topology = Topology.load(args.topology)
    if args.federates is not None and args.federates != len(topology.federates):
        parser.error(
            f"--federates {args.federates} does not match topology "
            f"({len(topology.federates)} federates)"
        )
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
