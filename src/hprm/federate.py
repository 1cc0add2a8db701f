"""The federate runtime: tag-ordered event processing.

A federate owns a priority queue of tagged events and runs reactions
over them strictly in tag order.  The two coordination modes differ in
the *gate*: when the earliest queued event may be processed.

Centralized mode gates each event at tag ``h`` on three conditions:

* a grant from the coordination daemon covering ``h``,
* the physical clock having reached ``h``'s timestamp, and
* the *arrival floor* being strictly past ``h``.

The floor is the earliest tag that could still arrive, computed from
per-upstream watermarks: every federate forwards its announcements down
its data connections, and as the stream is FIFO, a watermark guarantees
that all earlier-tagged data on that connection has been seen.  The
strictness matters: a grant can equal an upstream bound, and data at
that bound may still be in flight.  So processing an event out of order
is structurally impossible, not merely unlikely.

Decentralized mode gates only on the physical clock: an event at tag
``h`` runs once ``now >= h.time + stp_offset``, the safe-to-process
margin.  If it underestimates worst-case delivery (clock error plus
network latency), a message can arrive for a tag already processed.
Such arrivals are *detected* -- counted and handed to the violation
handler or dropped -- never silently processed out of order.

Announcements double as promises: a federate reports the minimum of its
queue head and its arrival floor (and, while mid-tag, the tag being
executed, whose reactions may still publish), so every report is
monotone even though arrivals can land ahead of the queue head.  Each
report to the coordinator also carries the last completed tag.

One event loop on the thread that calls :meth:`Federate.run` serves the
listener, the coordinator and every peer; the gate's wait is its
``select`` timeout.  Before it runs a head whose gate is open it reads
what is ready, so input for an earlier tag runs first.  Frames are
queued as read and dispatched in that order, between reactions or while
a publish waits for acknowledgements.  While the head waits for the
clock or a grant, and as the loop reads just before it runs, data for
later tags stays queued unless input for the head's tag or an earlier
one was read after it (see :mod:`hprm.loop`), so a slow reader does not
pin store objects far ahead of the events it runs.  A send that fills a peer's socket buffer
keeps reading until the rest fits, so peers that send each other large
frames never wait on each other.  Peers on one host use Unix sockets,
other peers and the coordinator TCP.  Only ``request_stop`` may be
called from another thread.

Physical time comes only from the ``clock`` and inbound connections only
from the ``listener``, both constructor seams: tests drive the gates
with a manual clock, and the benchmark models network latency with a
listener whose connections hold frames back (:mod:`hprm.bench.delayline`),
so the runtime carries no test instrumentation.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from hprm.clock import Clock, MonotonicClock
from hprm.loop import FrameLoop, Link
from hprm.rti import encode_progress
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
    listen,
)

log = logging.getLogger(__name__)

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"

# OBJ_REF frames a reader may leave unacknowledged: the store may evict an
# object no one has pinned yet, so a publisher must not run further ahead.
OBJ_WINDOW = 4


class FederateError(Exception):
    pass


class OrderingFault(FederateError):
    """An event arrived at or below a tag already processed in
    centralized mode.  The gates make this unreachable; reaching it is a
    protocol bug, so the runtime fails loudly rather than continuing."""


class DeliveryError(FederateError):
    """A published value could not be handed to a peer."""


@dataclass(frozen=True)
class Event:
    """One tagged occurrence on a named port."""

    tag: Tag
    port: str
    value: Any = None


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
    connect_retry_s: float = 10.0

    def __post_init__(self) -> None:
        if self.mode not in (CENTRALIZED, DECENTRALIZED):
            raise ValueError(f"unknown coordination mode {self.mode!r}")

    @classmethod
    def from_env(cls, fid: str, environ=None, **overrides) -> "FederateConfig":
        """Build a config from HPRM_* environment variables."""
        env = os.environ if environ is None else environ
        if "rti_address" not in overrides and env.get("HPRM_RTI_ADDR"):
            host, _, port = env["HPRM_RTI_ADDR"].rpartition(":")
            overrides["rti_address"] = (host, int(port))
        for key, kind in (("store_path", str), ("mode", str), ("stp_offset_ns", int)):
            if key not in overrides and env.get(f"HPRM_{key.upper()}"):
                overrides[key] = kind(env[f"HPRM_{key.upper()}"])
        return cls(fid=fid, **overrides)


class ReactionContext:
    """What a handler sees: the event, its decoded value, and the
    federate's publish/schedule surface."""

    __slots__ = ("federate", "event", "value", "lateness_ns")

    def __init__(self, federate: "Federate", event, value, lateness_ns: int):
        self.federate = federate
        self.event = event
        self.value = value
        self.lateness_ns = lateness_ns

    @property
    def tag(self) -> Tag:
        return self.event.tag

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
        clock: Clock | None = None,
        listener: FrameListener | None = None,
    ):
        if config.fid not in topology.federates:
            raise ValueError(f"{config.fid!r} is not in the topology")
        self.config = config
        self.topology = topology
        self.clock = clock or MonotonicClock()
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
        self._granted = NEVER
        self._current = NEVER
        self._completed = NEVER
        self._executing = False
        self._stop_tag: Tag | None = None
        self._drain_deadline_ns: int | None = None
        self._announced: Tag | None = None
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
        self._peers_in: list[FrameConnection] = []
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
        if (
            self.config.mode == CENTRALIZED
            and self._announced is not None
            and tag < self._announced
        ):
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
            payload = serialize(value)
            size = payload.total_bytes()
            if HEADER_BYTES + size <= self.config.connection.eager_buffer_bytes:
                frame_type, body = FrameType.TAGGED_MSG, encode_payload(payload)
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
                body = self._store_payload(payload, remote)
        delivered = 0
        for edge in edges:
            out_tag = delay_tag(current, edge.delay)
            if edge.dst == self.fid:
                heapq.heappush(
                    self._queue,
                    _Queued(out_tag, self._next_seq(), edge.dst_port, value=value),
                )
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

    def _store_payload(self, payload: SerializedPayload, reads: int) -> bytes:
        """Write ``payload`` into a new store object sealed for ``reads``
        gets, one per OBJ_REF about to be sent, so the store recycles it
        once they are done.  Returns its id, all an OBJ_REF carries."""
        layout = build_layout(payload)
        pieces = [(0, layout.header), *zip(layout.segment_offsets, payload.segments)]
        try:
            return self._store.put(layout.total_bytes, pieces, reads)
        except (StoreError, OSError) as exc:
            raise DeliveryError(
                f"{self.fid}: storing a {layout.total_bytes}-byte payload: {exc}"
            ) from exc

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
        self._listener = self._listener or listen(self.config.listen_host, opts)
        if self.config.store_path:
            self._store = StoreClient(self.config.store_path)
            self._pin_budget = self._store.stats()["capacity_bytes"] // 2
        self._rti = connect(
            self.config.rti_address, opts, retry_for=self.config.connect_retry_s
        )
        join_body = json.dumps(
            {
                "fid": self.fid,
                "clock_ns": self.clock.now_ns(),
                "address": self._listener.address,
            }
        ).encode()
        self._rti.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=join_body))
        frame = self._rti.recv_frame()
        if frame is None or frame.type != FrameType.START:
            raise FederateError(f"expected START from the coordinator, got {frame}")
        self.start_tag = frame.tag
        addresses = json.loads(frame.body.decode())["addresses"]
        for src in self._upstream:
            self._watermarks[src] = self.start_tag
        self._loop.watch(self._rti, self._from_rti)
        hello = json.dumps({"fid": self.fid}).encode()
        for dst in self._downstream:
            conn = connect(addresses[dst], opts, retry_for=self.config.connect_retry_s)
            conn.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=hello))
            conn.wait_writable = lambda c=conn: self._loop.read_until_writable(c)
            self._peers_out[dst] = conn
            self._loop.watch(conn, self._from_downstream, dst)
        if self._upstream:
            self._loop.accept_from(self._listener, self._accept)
        else:
            self._listener.close()
        self._started = True
        return self.start_tag

    # -- inbound handling -------------------------------------------------------------

    def _accept(self, conn: FrameConnection) -> Link:
        self._peers_in.append(conn)
        if len(self._peers_in) == len(self._upstream):
            self._loop.unwatch(self._listener)
            self._listener.close()
        return self._loop.watch(conn, self._from_upstream)

    def _from_rti(self, link: Link, item: Frame | BaseException | None) -> None:
        if not isinstance(item, Frame):
            if self._stop_tag is None and not self._finished:
                # The coordinator vanished mid-run; stop where we are.
                self._fatal = FederateError("lost the coordination daemon")
        elif item.type == FrameType.TAG_GRANT:
            self._granted = max(self._granted, item.tag)
        elif item.type == FrameType.STOP:
            self._stop_tag = item.tag

    def _from_downstream(self, link: Link, item: Frame | BaseException | None) -> None:
        if not isinstance(item, Frame):
            self._unacked[link.peer] = 0  # gone: the next send to it fails
        elif item.type == FrameType.OBJ_ACK:
            self._unacked[link.peer] = self._unacked.get(link.peer, 0) - 1

    def _from_upstream(self, link: Link, item: Frame | BaseException | None) -> None:
        if link.peer is None:
            try:
                link.peer = json.loads(item.body.decode())["fid"]
            except (ValueError, AttributeError, KeyError, TypeError):
                link.done = True  # not a peer's hello
                self._loop.unwatch(link.conn)
                link.conn.close()
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
            try:
                conn.send_frame(Frame(FrameType.OBJ_ACK, frame.tag))
            except (TransportError, OSError):
                pass  # the publisher has gone and needs no more credit
            view = sealed.view
            if self._pinned_bytes + sealed.size > self._pin_budget:
                # Queued events already pin half the store: copy this
                # payload and unpin it, so that pins never crowd out the
                # objects publishers create next.
                view = memoryview(bytes(view))
                sealed.release()
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
        if self.config.mode != CENTRALIZED or not self._started or self._finished:
            return
        promise = self._promise()
        if not force and promise == self._announced:
            return
        if self._announced is not None and promise < self._announced:
            raise FederateError(
                f"promise regressed {self._announced!r} -> {promise!r}"
            )
        self._announced = promise
        empty = not self._queue and not self._executing and not self._violations
        body = encode_progress(
            empty, self.messages_sent, self.messages_received, self._completed
        )
        frame = Frame(FrameType.NET, promise, body=body)
        try:
            self._rti.send_frame(frame)
        except (TransportError, OSError):
            pass
        for conn in self._peers_out.values():
            try:
                conn.send_frame(Frame(FrameType.NET, promise))
            except (TransportError, OSError):
                pass

    # -- the executor ---------------------------------------------------------------------

    def _gate_wait_ns(self, head: _Queued, now_ns: int) -> int | None:
        """None when the head may run now, else a wait hint in ns.

        0 means "blocked until input arrives"."""
        if self.config.mode == CENTRALIZED:
            if self._granted < head.tag:
                return 0
            if self._floor() <= head.tag:
                return 0
            due = head.tag.time
        else:
            # The safe-to-process margin buys time for network input to
            # arrive; a federate with no upstream connections has nothing
            # to wait for and fires at the tag's own time.
            margin = self.config.stp_offset_ns if self._in_edges else 0
            due = head.tag.time + margin
        if now_ns < due:
            return due - now_ns
        return None

    def _pop_batch(self) -> list[_Queued]:
        tag = self._queue[0].tag
        batch = []
        while self._queue and self._queue[0].tag == tag:
            item = heapq.heappop(self._queue)
            if item.sealed is not None:
                self._pinned_bytes -= item.sealed.size
            batch.append(item)
        self._current = tag
        self._executing = True
        return batch

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
                head = self._queue[0] if self._queue else None
                timeout = hold = None
                if self._stop_tag is not None and (
                    head is None or head.tag > self._stop_tag
                ):
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
                        now = self.clock.now_ns()
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
                    wait_ns = self._gate_wait_ns(head, self.clock.now_ns())
                    if wait_ns is None:
                        if polled:
                            polled = False
                            self._execute_batch(self._pop_batch())
                        else:
                            # First take what has arrived: input for this
                            # tag or an earlier one runs first.
                            self._loop.poll(head.tag)
                            polled = True
                        continue
                    if wait_ns:
                        timeout = wait_ns / 1e9
                    if self.config.mode == DECENTRALIZED or self._floor() > head.tag:
                        # It waits for the clock or a grant, which no held
                        # frame brings: data for later tags waits too.
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

    def _materialize(self, item: _Queued):
        if item.payload is not None:
            return deserialize(item.payload, zero_copy=True)
        return item.value

    def _execute_batch(self, batch: list[_Queued]) -> None:
        try:
            for item in batch:
                self._react(item)
        finally:
            for item in batch:
                self._release(item)
            self._executing = False
            self._completed = self._current
            self.executed += 1
            self._report_progress()

    def _react(self, item: _Queued) -> None:
        """Run the reactions to one event; its value lives in this frame
        only, so it is gone once this returns."""
        value = self._materialize(item)
        event = Event(item.tag, item.port, value)
        lateness = self.clock.now_ns() - item.tag.time
        for reaction in self._reactions.get(item.port, ()):
            ctx = ReactionContext(self, event, value, lateness)
            if reaction.deadline_ns is not None and lateness > reaction.deadline_ns:
                self.deadline_misses += 1
                if reaction.on_deadline_miss is not None:
                    reaction.on_deadline_miss(ctx)
                else:
                    log.warning(
                        "%s: deadline missed at %r by %d ns",
                        self.fid,
                        item.tag,
                        lateness - reaction.deadline_ns,
                    )
            else:
                reaction.handler(ctx)

    @staticmethod
    def _release(item: _Queued) -> None:
        """Unpin a store payload, dropping its views first so the mapping
        can close; a view a reaction kept leaves the object cached."""
        if item.sealed is not None:
            item.payload = None
            item.sealed.release()

    def _handle_violation(self, item: _Queued, lateness_ns: int) -> None:
        value = self._materialize(item)
        event = Event(item.tag, item.port, value)
        handled = False
        for reaction in self._reactions.get(item.port, ()):
            if reaction.on_stp_violation is not None:
                reaction.on_stp_violation(
                    ReactionContext(self, event, value, lateness_ns)
                )
                handled = True
        del value, event  # so that the store mapping can close
        if not handled:
            log.warning(
                "%s: dropped event at %r (late by %d ns)",
                self.fid,
                item.tag,
                lateness_ns,
            )
        self._release(item)

    # -- shutdown ----------------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the coordinator to wind the federation down.  Any thread
        may call this."""
        at = self._current if self._current.is_finite() else self.start_tag
        try:
            self._rti.send_frame(Frame(FrameType.STOP, at or Tag(0, 0)))
        except (TransportError, OSError):
            pass

    def _shutdown(self, status: str) -> None:
        self._finished = True
        # Queued pins belong to the store session, which closes below:
        # the daemon releases a dropped session's pins, so shutdown sends
        # no release of its own.
        self._queue.clear()
        self._pinned_bytes = 0
        self._loop.close()
        if self._rti is not None:
            try:
                self._rti.send_frame(Frame(FrameType.RESIGN, self._completed if self._completed.is_finite() else Tag(0, 0)))
            except (TransportError, OSError):
                pass
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
