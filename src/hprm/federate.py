"""The federate runtime: tag-ordered event processing.

A federate owns a priority queue of tagged events and runs reactions
over them strictly in tag order.  The *gate* decides when the earliest
queued event may be processed, by one rule in both coordination modes:
an event at tag ``h`` runs once the physical clock has reached ``h``'s
timestamp, provided the *arrival floor* is strictly past ``h``.  The
modes differ only when it is not.

The floor is the earliest tag that could still arrive, computed from
per-upstream watermarks: every centralized federate forwards its
announcements down its data connections, and as the stream is FIFO, a
watermark guarantees that all earlier-tagged data on that connection has
been seen.  Centralized mode waits for the floor to pass ``h``, so the
floor alone orders events.  The strictness matters: data may still
arrive at the floor itself, an upstream's announcement plus the
connection delay.  So processing an event out of order is structurally
impossible, not merely unlikely (a Chandy-Misra null-message bound).

Decentralized federates send no promises, so their floor is the start
tag delayed by the shortest connection from an upstream still open, and
``FOREVER`` once none is.  An event at tag ``h`` at or above it runs once
``now >= h.time + stp_offset``, the safe-to-process margin.  If that
underestimates worst-case delivery (clock error plus network latency), a
message can arrive for a tag already processed.  Such arrivals are
*detected* -- counted and handed to the violation handler or dropped --
never silently processed out of order.

Announcements double as promises: a federate announces the minimum of
its queue head and its arrival floor (and, while mid-tag, the tag being
executed, whose reactions may still publish), so every announcement is
monotone even though arrivals can land ahead of the queue head.  Peers
get each one; the coordinator gets only those made while idle, and
nothing waits on the TAG_GRANT it answers with (see :mod:`hprm.rti`).
The stop takes two phases: asked for the largest tag it has started, a
federate replies and starts nothing past it until the stop tag arrives.

One event loop on the thread that calls :meth:`Federate.run` serves the
listener, the coordinator and every peer; the gate's wait is its
``select`` timeout.  Before it runs a head whose gate is open it serves
the loop once without waiting, dispatching what is queued and then what
is ready, so input for an earlier tag runs first.  Frames are queued as
read and dispatched in that order, between reactions or while a publish
waits for acknowledgements.  While the head waits for the clock, and as
the loop serves just before it runs, data for later tags stays queued
unless input for the head's tag or an earlier one was read after it
(see :mod:`hprm.loop`), so a slow reader does not pin store objects far
ahead of the events it runs.  A send that fills a peer's socket buffer
keeps reading until the rest fits, so peers that send each other large
frames never wait on each other.  Peers on one host use Unix sockets,
other peers and the coordinator TCP.  An inbound connection counts as an
upstream's once its first frame is the hello of an upstream not yet
connected, and the listener closes once every upstream has said hello.
Every send but a publish's is best-effort: a lost connection shows on
the read side.  Only ``request_stop`` may be called from another thread.

Physical time is ``time.monotonic_ns``, system-wide on one host, unless
the constructor is given another ``clock`` function; inbound connections
come from the ``listener`` given, else one on ``listen_host``.  Tests
drive the gates with a clock of their own, and the benchmark models
network latency with a listener whose connections hold frames back
(:mod:`hprm.bench.delayline`), so the runtime carries no test
instrumentation.
"""

from __future__ import annotations

import heapq
import json
import logging
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from hprm.loop import FrameLoop, Link
from hprm.serde import (
    SerializedPayload,
    build_layout,
    decode_payload,
    deserialize,
    encode_payload,
    serialize,
)
from hprm.store import ID_BYTES, SealedObject, Status, StoreClient, StoreError
from hprm.tags import FOREVER, NEVER, Tag, bound_tag, delay_tag
from hprm.topology import Topology
from hprm.transport import (
    HEADER_BYTES,
    ConnectionOptions,
    Frame,
    FrameConnection,
    FrameListener,
    FrameType,
    TransportError,
    connect,
    encode_progress,
    listen,
)

log = logging.getLogger(__name__)

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"

# OBJ_REF frames a reader may leave unacknowledged: the store may evict an
# object no one has pinned yet, so a publisher must not run further ahead.
OBJ_WINDOW = 4

# How long start() retries refused connects while peers' listeners come up.
CONNECT_RETRY_S = 10.0

# How long a failed send to a peer waits for the coordinator's connection
# to end, which would explain it, before blaming the peer.
COORDINATOR_LOSS_WAIT_S = 1.0


class FederateError(Exception):
    pass


class OrderingFault(FederateError):
    """An event arrived at or below a tag already processed in
    centralized mode.  The gates make this unreachable; reaching it is a
    protocol bug, so the runtime fails loudly rather than continuing."""


class DeliveryError(FederateError):
    """A published value could not be handed to a peer."""


def _send(conn: FrameConnection, frame: Frame) -> None:
    """Send with no error: a lost connection shows on the read side."""
    try:
        conn.send_frame(frame)
    except (TransportError, OSError):
        pass


@dataclass
class Reaction:
    ports: tuple[str, ...]
    handler: Callable
    deadline_ns: int | None = None
    on_deadline_miss: Callable | None = None
    on_stp_violation: Callable | None = None


@dataclass
class FederateConfig:
    fid: str
    mode: str = CENTRALIZED
    rti_address: tuple[str, int] | None = None
    store_path: str | None = None
    listen_host: str = "127.0.0.1"
    stp_offset_ns: int = 0
    connection: ConnectionOptions = field(default_factory=ConnectionOptions)

    def __post_init__(self) -> None:
        if self.mode not in (CENTRALIZED, DECENTRALIZED):
            raise ValueError(f"unknown coordination mode {self.mode!r}")
        if self.stp_offset_ns < 0:
            raise ValueError(f"negative safe-to-process margin {self.stp_offset_ns}")


class ReactionContext:
    """What a handler sees: the event's tag, port and decoded value, how
    late it runs, and the federate's publish/schedule surface."""

    __slots__ = ("federate", "tag", "port", "value", "lateness_ns")

    def __init__(self, federate, tag: Tag, port: str, value, lateness_ns: int):
        self.federate = federate
        self.tag = tag
        self.port = port
        self.value = value
        self.lateness_ns = lateness_ns

    def publish(self, port: str, value) -> int:
        return self.federate.publish(port, value)

    def schedule(self, tag: Tag, port: str, value=None) -> None:
        self.federate.schedule(tag, port, value)


@dataclass
class _Queued:
    tag: Tag
    seq: int
    port: str
    value: Any = None
    payload: SerializedPayload | None = None
    sealed: SealedObject | None = None

    def __lt__(self, other: "_Queued") -> bool:
        return (self.tag, self.seq) < (other.tag, other.seq)


@dataclass(frozen=True)
class RunSummary:
    fid: str
    status: str
    executed: int
    stop_tag: Tag | None
    stp_violations: int
    deadline_misses: int
    messages_sent: int
    messages_received: int


class Federate:
    def __init__(
        self,
        config: FederateConfig,
        topology: Topology,
        *,
        clock: Callable[[], int] = time.monotonic_ns,
        listener: FrameListener | None = None,
    ):
        if config.fid not in topology.federates:
            raise ValueError(f"{config.fid!r} is not in the topology")
        self.config = config
        self.topology = topology
        self._now = clock  # physical time in ns
        self._listener = listener  # None: start() listens on listen_host
        self.fid = config.fid
        self._in_edges = [
            c for c in topology.inputs_of(self.fid) if c.src != self.fid
        ]
        self._out_edges = topology.outputs_of(self.fid)
        self._upstream = sorted({c.src for c in self._in_edges})
        self._downstream = sorted(
            {c.dst for c in self._out_edges if c.dst != self.fid}
        )

        self._queue: list[_Queued] = []
        self._seq = 0
        self._watermarks: dict[str, Tag] = {}
        self._floor_of: tuple[tuple, Tag] = ((), FOREVER)  # see _floor
        self._current = NEVER
        self._completed = NEVER
        self._executing = False
        self._stop_reply: Tag | None = None  # sent: start nothing past it
        self._stop_tag: Tag | None = None
        self._drain_deadline_ns: int | None = None
        self._announced: Tag | None = None  # to peers
        self._reported: Tag | None = None  # to the coordinator
        self._fatal: BaseException | None = None
        self._violations: deque[tuple[_Queued, int]] = deque()
        self._started = False
        self._finished = False

        self.start_tag: Tag | None = None
        self.executed = 0  # tags run
        self.stp_violations = 0
        self.deadline_misses = 0
        self.messages_sent = 0
        self.messages_received = 0

        self._reactions: dict[str, list[Reaction]] = {}
        self._rti: FrameConnection | None = None
        self._peers_out: dict[str, FrameConnection] = {}
        self._peers_in: list[FrameConnection] = []  # every one accepted
        self._greeted: set[str] = set()  # upstreams that have said hello
        self._loop = FrameLoop()
        self._store: StoreClient | None = None  # publishes, gets and releases
        self._pin_budget = 0  # bytes queued events may pin; see _dispatch_peer_frame
        self._pinned_bytes = 0  # bytes pinned by the events in _queue
        self._unacked: dict[str, int] = {}  # OBJ_REF frames per reader

    # -- wiring ------------------------------------------------------------

    def on(
        self,
        ports: str | tuple[str, ...],
        handler: Callable,
        *,
        deadline_ns: int | None = None,
        on_deadline_miss: Callable | None = None,
        on_stp_violation: Callable | None = None,
    ) -> Reaction:
        """Register a reaction for one or more ports."""
        if isinstance(ports, str):
            ports = (ports,)
        reaction = Reaction(
            tuple(ports), handler, deadline_ns, on_deadline_miss, on_stp_violation
        )
        for port in ports:
            self._reactions.setdefault(port, []).append(reaction)
        return reaction

    # -- scheduling --------------------------------------------------------

    def schedule(self, tag: Tag, port: str, value=None) -> None:
        """Queue a local event, before :meth:`run` or from a reaction."""
        if not tag.is_finite():
            raise ValueError(f"cannot schedule at {tag!r}")
        if self.start_tag is not None and tag < self.start_tag:
            raise ValueError(
                f"tag {tag!r} is before the federation start {self.start_tag!r}"
            )
        if tag <= self._current:
            raise ValueError(
                f"tag {tag!r} is not after the current tag {self._current!r}"
            )
        if self._announced is not None and tag < self._announced:
            # Progress already promised past this tag; accepting it
            # would make the next announcement go backwards.
            raise ValueError(
                f"tag {tag!r} is below the announced promise {self._announced!r}"
            )
        heapq.heappush(self._queue, _Queued(tag, self._next_seq(), port, value=value))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- publishing ----------------------------------------------------------

    def publish(self, port: str, value) -> int:
        """Send a value from the executing tag down every matching connection.

        A payload travels inline when its frame fits one eager buffer, else
        as one store object for the whole fan-out, created once each reader
        has fewer than ``OBJ_WINDOW`` references unacknowledged.  Self-loop
        edges take ``value`` itself.  Returns the number of deliveries."""
        if not self._executing:
            raise FederateError("publish is only legal inside a reaction")
        current = self._current
        edges = [c for c in self._out_edges if c.src_port == port]
        remote = sum(e.dst != self.fid for e in edges)
        frame_type = body = None
        if remote:
            layout = build_layout(serialize(value))
            size = layout.total_bytes
            if HEADER_BYTES + size <= self.config.connection.eager_buffer_bytes:
                frame_type, body = FrameType.TAGGED_MSG, encode_payload(layout)
            elif self._store is None:
                raise DeliveryError(
                    f"{size}-byte payload does not fit one frame "
                    "and no object store is configured"
                )
            else:
                # Each reader's window first: a new object could evict one
                # that a reader has not pinned yet.
                for edge in edges:
                    if edge.dst != self.fid:
                        self._await_ack(edge.dst)
                frame_type = FrameType.OBJ_REF
                try:
                    # Sealed for one get per OBJ_REF, so the store recycles
                    # it once they are done; its id is all an OBJ_REF carries.
                    body = self._store.put(size, layout.pieces, remote)
                except (StoreError, OSError) as exc:
                    raise DeliveryError(
                        f"{self.fid}: storing a {size}-byte payload: {exc}"
                    ) from exc
        delivered = 0
        for edge in edges:
            out_tag = delay_tag(current, edge.delay)
            if edge.dst == self.fid:
                self.schedule(out_tag, edge.dst_port, value)
                delivered += 1
                continue
            port_id = self.topology.port_number(edge.dst, edge.dst_port)
            frame = Frame(frame_type, out_tag, port_id, body)
            conn = self._peers_out.get(edge.dst)
            if conn is None:
                raise DeliveryError(f"no connection to {edge.dst!r}")
            try:
                conn.send_frame(frame)
            except (TransportError, OSError) as exc:
                # Peers shut down when the coordinator goes: blame it if it has.
                deadline = time.monotonic() + COORDINATOR_LOSS_WAIT_S
                while self._fatal is None and (left := deadline - time.monotonic()) > 0:
                    self._loop.serve(left, current)
                if self._fatal is not None:
                    raise self._fatal from exc
                raise DeliveryError(f"sending to {edge.dst!r}: {exc}") from exc
            self.messages_sent += 1
            delivered += 1
        return delivered

    def _await_ack(self, dst: str) -> None:
        """Count one more OBJ_REF to ``dst``, first serving the loop until
        fewer than ``OBJ_WINDOW`` are unacknowledged."""
        while self._unacked.get(dst, 0) >= OBJ_WINDOW:
            if self._fatal is not None:
                raise self._fatal
            self._loop.serve(None)
        self._unacked[dst] = self._unacked.get(dst, 0) + 1

    # -- startup -----------------------------------------------------------------

    def start(self) -> Tag:
        """Join the federation; returns the agreed start tag.

        After this returns, events may be scheduled relative to the start
        tag; call :meth:`run` to begin processing."""
        if self._started:
            raise FederateError("already started")
        if self.config.rti_address is None:
            raise FederateError("no coordination daemon address configured")
        opts = self.config.connection
        try:
            self._listener = self._listener or listen(self.config.listen_host, opts)
            if self.config.store_path:
                self._store = StoreClient(self.config.store_path)
                self._pin_budget = self._store.stats()["capacity_bytes"] // 2
            rti = connect(self.config.rti_address, opts, retry_for=CONNECT_RETRY_S)
            join_body = json.dumps(
                {
                    "fid": self.fid,
                    "clock_ns": self._now(),
                    "address": self._listener.address,
                }
            ).encode()
            rti.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=join_body))
            self._rti = rti  # from now on request_stop may send
            frame = rti.recv_frame()
            if frame is None or frame.type != FrameType.START:
                raise FederateError(f"expected START from the coordinator, got {frame}")
            self.start_tag = frame.tag
            addresses = json.loads(frame.body.decode())["addresses"]
            for src in self._upstream:
                self._watermarks[src] = self.start_tag
            self._loop.watch(self._rti, self._from_rti)
            hello = json.dumps({"fid": self.fid}).encode()
            for dst in self._downstream:
                conn = connect(addresses[dst], opts, retry_for=CONNECT_RETRY_S)
                self._peers_out[dst] = conn  # _shutdown closes it from here on
                conn.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=hello))
                conn.wait_writable = lambda c=conn: self._loop.read_until_writable(c)
                self._loop.watch(conn, self._from_downstream, dst)
            if self._upstream:
                self._loop.accept_from(self._listener, self._accept)
            else:
                self._listener.close()
        except BaseException:
            self._shutdown("faulted")  # close what was opened
            raise
        self._started = True
        return self.start_tag

    # -- inbound handling -------------------------------------------------------------

    def _accept(self, conn: FrameConnection) -> Link:
        self._peers_in.append(conn)
        return self._loop.watch(conn, self._from_upstream)

    def _from_rti(self, link: Link, item: Frame | BaseException | None) -> None:
        if not isinstance(item, Frame):
            if self._stop_tag is None and not self._finished:
                # The coordinator vanished mid-run; stop where we are.
                self._fatal = FederateError("lost the coordination daemon")
        elif item.type == FrameType.STOP and item.tag != FOREVER:
            self._stop_tag = item.tag
        elif item.type == FrameType.STOP and self._stop_reply is None:
            # The stop round asks for the largest tag started; past it,
            # nothing starts until the stop tag arrives (see _head).
            self._stop_reply = self._current
            # The coordinator counts a closed session as a reply.
            _send(self._rti, Frame(FrameType.STOP, self._current))

    def _from_downstream(self, link: Link, item: Frame | BaseException | None) -> None:
        if not isinstance(item, Frame):
            self._unacked[link.peer] = 0  # gone: the next send to it fails
        elif item.type == FrameType.OBJ_ACK:
            self._unacked[link.peer] = self._unacked.get(link.peer, 0) - 1

    def _from_upstream(self, link: Link, item: Frame | BaseException | None) -> None:
        if link.peer is None:
            try:
                fid = json.loads(item.body.decode())["fid"]
            except (ValueError, AttributeError, KeyError, TypeError):
                fid = None
            if fid not in self._upstream or fid in self._greeted:
                link.done = True  # not the hello of an upstream still to come
                self._loop.unwatch(link.conn)
                link.conn.close()
                return
            link.peer = fid
            self._greeted.add(fid)
            if len(self._greeted) == len(self._upstream):
                self._loop.unwatch(self._listener)
                self._listener.close()
            return
        src = link.peer
        if isinstance(item, Frame):
            try:
                self._dispatch_peer_frame(link.conn, src, item)
                return
            except (ValueError, KeyError) as exc:
                # It does not decode, or names a port or federate not
                # ours: fail the run and read nothing more from this peer.
                item = exc
                self._loop.unwatch(link.conn)
                self._lose_message(f"a frame from {src!r} could not be delivered: {exc!r}")
        if item is not None:
            log.warning("%s: inbound connection from %s failed: %s", self.fid, src, item)
        link.done = True
        # Fail-stop: a vanished upstream sends nothing further.
        self._watermarks[src] = FOREVER
        self._report_progress()

    def _dispatch_peer_frame(self, conn, src: str, frame: Frame) -> None:
        if frame.type == FrameType.NET:
            if frame.tag > self._watermarks.get(src, NEVER):
                self._watermarks[src] = frame.tag
                self._report_progress()
        elif frame.type == FrameType.TAGGED_MSG:
            payload = decode_payload(frame.body)
            self._arrive(frame, src, payload, None)
        elif frame.type == FrameType.OBJ_REF:
            oid = frame.body
            if len(oid) != ID_BYTES:
                raise ValueError(
                    f"OBJ_REF body of {len(oid)} bytes is not a {ID_BYTES}-byte id"
                )
            try:
                if self._store is None:
                    raise StoreError(Status.BAD_REQUEST, "no object store is configured")
                sealed = self._store.get(oid)
            except (StoreError, OSError) as exc:
                self._lose_message(
                    f"object {oid.hex()[:12]} from {src!r} could not be read: {exc}"
                )
                return
            _send(conn, Frame(FrameType.OBJ_ACK, frame.tag))
            view = sealed.view
            if self._pinned_bytes + sealed.size > self._pin_budget:
                # Queued events already pin half the store: copy this
                # payload and unpin it, so that pins never crowd out the
                # objects publishers create next.
                view = memoryview(bytes(view))
                self._unpin(sealed)
                sealed = None
            payload = decode_payload(view)
            self._arrive(frame, src, payload, sealed)

    def _lose_message(self, detail: str) -> None:
        """Fail the run over a message that arrived but cannot be
        delivered, counting it so the coordinator need not wait for it."""
        if self._fatal is None:
            self._fatal = DeliveryError(f"{self.fid}: {detail}")
        self.messages_received += 1
        self._report_progress(force=True)

    def _arrive(self, frame: Frame, src: str, payload, sealed) -> None:
        fed, port = self.topology.port_name(frame.port)
        if fed != self.fid:
            raise ValueError(f"frame addressed to {fed!r} arrived at {self.fid!r}")
        self.messages_received += 1
        item = _Queued(frame.tag, self._next_seq(), port, payload=payload, sealed=sealed)
        if frame.tag <= self._current:
            lateness = self._current.time - frame.tag.time
            if self.config.mode == CENTRALIZED:
                self._fatal = OrderingFault(
                    f"{self.fid}: event at {frame.tag!r} arrived after "
                    f"processing {self._current!r}"
                )
            else:
                self.stp_violations += 1
                self._violations.append((item, lateness))
            return
        if sealed is not None:
            self._pinned_bytes += sealed.size
        heapq.heappush(self._queue, item)

    # -- progress reports ---------------------------------------------------------------

    def _floor(self) -> Tag:
        marks = tuple(self._watermarks.values())
        if marks != self._floor_of[0]:  # worked out again once a mark moves
            floor = FOREVER
            for edge in self._in_edges:
                floor = min(floor, bound_tag(self._watermarks[edge.src], edge.delay))
            self._floor_of = (marks, floor)
        return self._floor_of[1]

    def _promise(self) -> Tag:
        head = self._queue[0].tag if self._queue else FOREVER
        promise = min(head, self._floor())
        if self._executing:
            # A reaction may still publish at delay_tag(current, d): only a
            # promise of ``current`` keeps that above the peers' floor.
            promise = min(promise, self._current)
        return promise

    def _report_progress(self, force: bool = False) -> None:
        """Announce a moved promise to the peers, and report to the
        coordinator while idle if the promise moved since its last report,
        or if ``force``."""
        if self.config.mode != CENTRALIZED or not self._started or self._finished:
            return
        promise = self._promise()
        if promise != self._announced:
            if self._announced is not None and promise < self._announced:
                raise FederateError(
                    f"promise regressed {self._announced!r} -> {promise!r}"
                )
            self._announced = promise
            for conn in self._peers_out.values():
                _send(conn, Frame(FrameType.NET, promise))
        idle = not self._queue and not self._executing and not self._violations
        if force or (idle and promise != self._reported):
            self._reported = promise
            self._report(promise, idle)

    def _report(self, promise: Tag, idle: bool) -> None:
        body = encode_progress(
            idle, self.messages_sent, self.messages_received, self._completed
        )
        _send(self._rti, Frame(FrameType.NET, promise, body=body))

    # -- the executor ---------------------------------------------------------------------

    def _gate_wait_ns(self, head: _Queued, now_ns: int) -> int | None:
        """None when the head may run now, else a wait hint in ns.

        0 means "blocked until input arrives".  A head the arrival floor
        has passed waits only for its tag's time; below that, centralized
        mode waits for input, and decentralized mode waits the
        safe-to-process margin as well, for input that may still come."""
        due = head.tag.time
        if self._floor() <= head.tag:
            if self.config.mode == CENTRALIZED:
                return 0
            due += self.config.stp_offset_ns
        if now_ns < due:
            return due - now_ns
        return None

    def _head(self) -> _Queued | None:
        """The earliest queued event, unless the stop holds it back: past
        the stop reply until the stop tag arrives, and past the stop tag."""
        if not self._queue:
            return None
        head = self._queue[0]
        limit = self._stop_reply if self._stop_tag is None else self._stop_tag
        if limit is not None and head.tag > limit:
            return None
        return head

    def run(self) -> RunSummary:
        """Process events until the federation stops.

        Returns a summary; raises OrderingFault (centralized) or the
        first fatal error encountered."""
        if not self._started:
            self.start()
        status = "completed"
        try:
            self._report_progress(force=True)
            polled = False  # input was read since the last batch ran
            while True:
                if self._fatal is not None:
                    raise self._fatal
                if self._violations:
                    self._handle_violation(*self._violations.popleft())
                    continue
                head = self._head()
                timeout = hold = None
                if self._stop_tag is not None and head is None:
                    # Drained, but a peer's last message may be in flight:
                    # halt once the floor clears the stop tag.  A halting
                    # federate closes its connections (FOREVER after the
                    # last byte), so this cascades through any acyclic
                    # topology, and through centralized cycles by promises.
                    if self._floor() > self._stop_tag:
                        break
                    if self.config.mode == DECENTRALIZED:
                        # No promise crosses a decentralized cycle: bound
                        # the drain by the clock instead.
                        now = self._now()
                        if self._drain_deadline_ns is None:
                            self._drain_deadline_ns = now + max(
                                2 * self.config.stp_offset_ns, 2_000_000_000
                            )
                        if now >= self._drain_deadline_ns:
                            log.warning(
                                "%s: halting on the drain deadline with "
                                "the arrival floor below the stop tag",
                                self.fid,
                            )
                            break
                        timeout = min(0.25, (self._drain_deadline_ns - now) / 1e9)
                elif head is not None:
                    self._drain_deadline_ns = None
                    wait_ns = self._gate_wait_ns(head, self._now())
                    if wait_ns is None:
                        if polled:
                            polled = False
                            self._run_batch()
                        else:
                            # First take what has arrived: input for this
                            # tag or an earlier one runs first.
                            self._loop.serve(0, head.tag)
                            polled = True
                        continue
                    if wait_ns:
                        # It waits for the clock, which no held frame
                        # brings: data for later tags waits too.
                        timeout = wait_ns / 1e9
                        hold = head.tag
                else:
                    self._drain_deadline_ns = None
                self._loop.serve(timeout, hold)
                polled = True
        except BaseException:
            status = "faulted"
            raise
        finally:
            self._shutdown(status)
        return RunSummary(
            fid=self.fid,
            status=status,
            executed=self.executed,
            stop_tag=self._stop_tag,
            stp_violations=self.stp_violations,
            deadline_misses=self.deadline_misses,
            messages_sent=self.messages_sent,
            messages_received=self.messages_received,
        )

    def _run_batch(self) -> None:
        """Pop every event at the head's tag and run its reactions."""
        tag = self._queue[0].tag
        batch = []
        while self._queue and self._queue[0].tag == tag:
            item = heapq.heappop(self._queue)
            if item.sealed is not None:
                self._pinned_bytes -= item.sealed.size
            batch.append(item)
        self._current = tag
        self._executing = True
        try:
            for item in batch:
                self._react(item)
        finally:
            for item in batch:
                self._release(item)
            self._executing = False
            self._completed = tag
            self.executed += 1
            self._report_progress()

    def _react(self, item: _Queued, late_by: int | None = None) -> bool:
        """Run the reactions to one event, or only their safe-to-process
        violation handlers if it arrived ``late_by`` ns after its tag ran.
        Returns whether a handler ran.  The value lives in this frame
        only, so it is gone once this returns."""
        if item.payload is not None:
            value = deserialize(item.payload, zero_copy=True)
        else:
            value = item.value
        lateness = self._now() - item.tag.time if late_by is None else late_by
        ran = False
        for reaction in self._reactions.get(item.port, ()):
            if late_by is not None:
                handler = reaction.on_stp_violation
            elif reaction.deadline_ns is not None and lateness > reaction.deadline_ns:
                self.deadline_misses += 1
                handler = reaction.on_deadline_miss
                if handler is None:
                    log.warning(
                        "%s: deadline missed at %r by %d ns",
                        self.fid,
                        item.tag,
                        lateness - reaction.deadline_ns,
                    )
            else:
                handler = reaction.handler
            if handler is not None:
                handler(ReactionContext(self, item.tag, item.port, value, lateness))
                ran = True
        return ran

    def _release(self, item: _Queued) -> None:
        """Unpin a store payload, dropping its views first so the release
        finds none left; a view a reaction kept leaves the object cached."""
        if item.sealed is not None:
            item.payload = None
            self._unpin(item.sealed)

    def _unpin(self, sealed: SealedObject) -> None:
        """Release a pin.  A failed release fails the run once the caller's
        bookkeeping is done, so the coordinator still counts the message."""
        try:
            sealed.release()
        except (StoreError, OSError) as exc:
            if self._fatal is None:
                self._fatal = DeliveryError(
                    f"{self.fid}: releasing object {sealed.oid.hex()[:12]}: {exc}"
                )

    def _handle_violation(self, item: _Queued, lateness_ns: int) -> None:
        if not self._react(item, lateness_ns):
            log.warning(
                "%s: dropped event at %r (late by %d ns)",
                self.fid,
                item.tag,
                lateness_ns,
            )
        self._release(item)

    # -- shutdown ----------------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the coordinator to wind the federation down: it opens the
        stop round, which this federate answers like every other.  Any
        thread may call this, once :meth:`start` has sent the JOIN."""
        rti = self._rti
        if rti is None:
            raise FederateError("no stop can be requested before joining")
        _send(rti, Frame(FrameType.STOP, FOREVER))

    def _shutdown(self, status: str) -> None:
        self._finished = True
        # Queued pins belong to the store session, which closes below:
        # the daemon releases a dropped session's pins, so shutdown sends
        # no release of its own.
        self._queue.clear()
        self._pinned_bytes = 0
        self._loop.close()
        if self._rti is not None:
            if self.config.mode == CENTRALIZED and self._started:
                # The last counts: what arrived and never ran is received.
                self._report(FOREVER, True)
            _send(self._rti, Frame(FrameType.RESIGN, Tag(0, 0)))
            self._rti.close()
        for conn in self._peers_out.values():
            conn.close()
        if self._listener is not None:
            self._listener.close()
        for conn in self._peers_in:
            conn.close()
        if self._store is not None:
            self._store.close()
        log.debug("%s shut down (%s)", self.fid, status)
