"""The federate runtime: tag-ordered event processing.

A federate owns a priority queue of tagged events and runs reactions
over them strictly in tag order.  What varies between the two
coordination modes is the *gate*: the condition under which the earliest
queued event may be processed.

Centralized mode gates each event at tag ``h`` on three conditions:

* a grant from the coordination daemon covering ``h``,
* the physical clock having reached ``h``'s timestamp, and
* the *arrival floor* being strictly past ``h``.

The floor is the earliest tag that could still arrive, computed from
per-upstream watermarks: every federate forwards its announcements down
its data connections, and because the stream is FIFO, a watermark
guarantees all earlier-tagged data on that connection has already been
seen.  The strictness matters -- a grant can equal an upstream bound, in
which case the data at that bound may still be in flight.  With the
floor gate, processing an event out of order is structurally impossible
rather than merely unlikely.

Decentralized mode gates only on the physical clock: an event at tag
``h`` runs once ``now >= h.time + stp_offset``.  The offset is the
safe-to-process margin; if it underestimates worst-case delivery (clock
error plus network latency), a message can arrive for a tag that was
already processed.  Such arrivals are *detected* -- counted and handed
to the violation handler or dropped -- never silently processed out of
order.

Announcements double as promises: a federate reports the minimum of its
queue head and its arrival floor (and, while mid-tag, the earliest tag a
reaction could still schedule), which keeps every report monotone even
though arrivals can land ahead of the queue head.

The runtime reads physical time only from its ``clock`` and takes
inbound connections only from its ``listener``; both are constructor
seams.  Tests drive the gates with a manual clock, and the benchmark
models network latency with a listener whose connections hold frames
back (:mod:`hprm.bench.delayline`), so the runtime itself carries no
test instrumentation.
"""

from __future__ import annotations

import heapq
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from hprm.clock import Clock, MonotonicClock
from hprm.rti import encode_progress
from hprm.serde import (
    SerializedPayload,
    build_layout,
    decode_payload,
    deserialize,
    encode_payload,
    payload_from_spans,
    serialize,
)
from hprm.store import ObjectRef, SealedObject, StoreClient, StoreError
from hprm.tags import FOREVER, NEVER, NO_DELAY, Tag, bound_tag, delay_tag
from hprm.topology import Topology
from hprm.transport import (
    ConnectionOptions,
    Frame,
    FrameConnection,
    FrameListener,
    FrameType,
    TransportError,
    connect,
)

log = logging.getLogger(__name__)

CENTRALIZED = "centralized"
DECENTRALIZED = "decentralized"

DEFAULT_INLINE_THRESHOLD = 65536 - 22  # a frame must fit the eager buffer
# OBJ_REF frames a reader may leave unacknowledged: the store may evict an
# object no one has pinned yet, so a publisher must not run further ahead.
OBJ_WINDOW = 4


def _elevate_io_thread() -> None:
    """Rank inbound threads above the executor under a real-time policy.

    On Linux these scheduler calls act on the calling thread.  When the
    process was given a real-time class, delivery threads taking one
    priority step more means that after any scheduling stall the pending
    arrivals become visible before the executor evaluates a gate on
    their absence.  A no-op everywhere else; kept because the
    ``hprm.bench`` workers run under ``SCHED_FIFO``."""
    try:
        policy = os.sched_getscheduler(0)
        if policy in (os.SCHED_FIFO, os.SCHED_RR):
            prio = os.sched_getparam(0).sched_priority
            os.sched_setscheduler(0, policy, os.sched_param(prio + 1))
    except (AttributeError, OSError):
        pass


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
    inline_threshold: int = DEFAULT_INLINE_THRESHOLD
    connection: ConnectionOptions = field(default_factory=ConnectionOptions)
    connect_retry_s: float = 10.0
    store_get_timeout_ns: int = 10_000_000_000

    def __post_init__(self) -> None:
        if self.mode not in (CENTRALIZED, DECENTRALIZED):
            raise ValueError(f"unknown coordination mode {self.mode!r}")
        if self.inline_threshold + 22 > self.connection.eager_buffer_bytes:
            raise ValueError("inline threshold exceeds the eager buffer contract")

    @classmethod
    def from_env(cls, fid: str, environ=None, **overrides) -> "FederateConfig":
        """Build a config from HPRM_* environment variables."""
        env = os.environ if environ is None else environ
        if "rti_address" not in overrides and env.get("HPRM_RTI_ADDR"):
            host, _, port = env["HPRM_RTI_ADDR"].rpartition(":")
            overrides["rti_address"] = (host, int(port))
        if "store_path" not in overrides and env.get("HPRM_STORE_PATH"):
            overrides["store_path"] = env["HPRM_STORE_PATH"]
        if "mode" not in overrides and env.get("HPRM_MODE"):
            overrides["mode"] = env["HPRM_MODE"]
        if "stp_offset_ns" not in overrides and env.get("HPRM_STP_OFFSET_NS"):
            overrides["stp_offset_ns"] = int(env["HPRM_STP_OFFSET_NS"])
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

    def sort_key(self):
        return (self.tag, self.seq)

    def __lt__(self, other: "_Queued") -> bool:
        return self.sort_key() < other.sort_key()


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
        self._listener = listener  # None: start() binds a FrameListener
        self.fid = config.fid
        self._in_edges = [
            c for c in topology.inputs_of(self.fid) if c.src != self.fid
        ]
        self._out_edges = topology.outputs_of(self.fid)
        self._upstream = sorted({c.src for c in self._in_edges})
        self._downstream = sorted(
            {c.dst for c in self._out_edges if c.dst != self.fid}
        )

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queue: list[_Queued] = []
        self._seq = 0
        self._watermarks: dict[str, Tag] = {}
        self._granted = NEVER
        self._current = NEVER
        self._completed = NEVER
        self._executing = False
        self._stop_tag: Tag | None = None
        self._drain_deadline_ns: int | None = None
        self._announced: Tag | None = None
        self._fatal: BaseException | None = None
        self._violations: list[tuple[_Queued, int]] = []
        self._started = False
        self._finished = False

        self.start_tag: Tag | None = None
        self.executed_tags: list[Tag] = []
        self.stp_violations = 0
        self.deadline_misses = 0
        self.messages_sent = 0
        self.messages_received = 0

        self._reactions: dict[str, list[Reaction]] = {}
        self._rti: FrameConnection | None = None
        self._peers_out: dict[str, FrameConnection] = {}
        self._peers_in: list[FrameConnection] = []
        self._threads: list[threading.Thread] = []
        self._store: StoreClient | None = None
        # Per-reader store clients; pins release through them after the
        # reader exits, so they close at shutdown (see _peer_reader).
        self._reader_stores: list[StoreClient] = []
        self._pin_budget = 0  # bytes queued events may pin; see _dispatch_peer_frame
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
        """Queue a local event."""
        if not tag.is_finite():
            raise ValueError(f"cannot schedule at {tag!r}")
        with self._lock:
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
            self._push(_Queued(tag, self._next_seq(), port, value=value))

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _push(self, item: _Queued) -> None:
        heapq.heappush(self._queue, item)
        self._cond.notify_all()

    # -- publishing ----------------------------------------------------------

    def publish(self, port: str, value) -> int:
        """Send a value from the executing tag down every matching connection.

        Large payloads go through the object store (one shared object for
        the whole fan-out); small ones travel inline.  A store reference
        waits until its reader has acknowledged all but ``OBJ_WINDOW - 1``
        earlier ones.  Returns the number of deliveries."""
        with self._lock:
            if not self._executing:
                raise FederateError("publish is only legal inside a reaction")
            current = self._current
        edges = [c for c in self._out_edges if c.src_port == port]
        if not edges:
            return 0
        payload = serialize(value)
        inline_size = payload.total_bytes()
        ref: ObjectRef | None = None
        body: bytes | None = None
        if self._store is not None and inline_size > self.config.inline_threshold:
            ref = self._store_payload(payload)
        if ref is None:
            if inline_size > self.config.inline_threshold:
                raise DeliveryError(
                    f"{inline_size}-byte payload exceeds the inline threshold "
                    "and no object store is configured"
                )
            body = encode_payload(payload)
        delivered = 0
        for edge in edges:
            out_tag = delay_tag(current, edge.delay)
            if edge.dst == self.fid:
                with self._lock:
                    self._push(
                        _Queued(out_tag, self._next_seq(), edge.dst_port, value=value)
                    )
                delivered += 1
                continue
            port_id = self.topology.port_number(edge.dst, edge.dst_port)
            if ref is not None:
                frame = Frame(FrameType.OBJ_REF, out_tag, port_id, ref.encode())
            else:
                frame = Frame(FrameType.TAGGED_MSG, out_tag, port_id, body)
            conn = self._peers_out.get(edge.dst)
            if conn is None:
                raise DeliveryError(f"no connection to {edge.dst!r}")
            try:
                if ref is not None:
                    self._await_ack(edge.dst, conn)
                conn.send_frame(frame)
            except (TransportError, OSError) as exc:
                raise DeliveryError(f"sending to {edge.dst!r}: {exc}") from exc
            with self._lock:
                self.messages_sent += 1
            delivered += 1
        return delivered

    def _await_ack(self, dst: str, conn: FrameConnection) -> None:
        """Count one more OBJ_REF to ``dst``, first reading its OBJ_ACKs
        until fewer than ``OBJ_WINDOW`` are unacknowledged."""
        unacked = self._unacked.get(dst, 0)
        while unacked >= OBJ_WINDOW:
            frame = conn.recv_frame()
            if frame is None:
                raise TransportError("connection closed")
            if frame.type == FrameType.OBJ_ACK:
                unacked -= 1
        self._unacked[dst] = unacked + 1

    def _store_payload(self, payload: SerializedPayload) -> ObjectRef | None:
        layout = build_layout(payload)
        try:
            obj = self._store.create(layout.total_bytes)
            obj.write(0, layout.header)
            for span, seg in zip(layout.segment_spans, payload.segments):
                obj.write(span[0], seg)
            obj.seal()
            obj.close()
        except Exception as exc:
            log.warning("object store rejected payload (%s); falling back", exc)
            return None
        return ObjectRef(
            obj.oid,
            layout.total_bytes,
            (layout.inband_offset, layout.inband_length),
            layout.segment_spans,
        )

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
        self._listener = self._listener or FrameListener(
            self.config.listen_host, 0, opts
        )
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
                "address": list(self._listener.address),
            }
        ).encode()
        self._rti.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=join_body))
        frame = self._rti.recv_frame()
        if frame is None or frame.type != FrameType.START:
            raise FederateError(f"expected START from the coordinator, got {frame}")
        self.start_tag = frame.tag
        addresses = json.loads(frame.body.decode())["addresses"]
        with self._lock:
            for src in self._upstream:
                self._watermarks[src] = self.start_tag
        hello = json.dumps({"fid": self.fid}).encode()
        for dst in self._downstream:
            conn = connect(
                tuple(addresses[dst]), opts, retry_for=self.config.connect_retry_s
            )
            conn.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=hello))
            self._peers_out[dst] = conn
        self._spawn(self._accept_loop, "accept")
        self._spawn(self._rti_reader, "rti-reader")
        self._started = True
        return self.start_tag

    def _spawn(self, target, name: str) -> None:
        thread = threading.Thread(
            target=target, name=f"{self.fid}-{name}", daemon=True
        )
        thread.start()
        self._threads.append(thread)

    def _accept_loop(self) -> None:
        for _ in range(len(self._upstream)):
            try:
                conn = self._listener.accept()
            except OSError:
                return
            try:
                hello = conn.recv_frame()
                src = json.loads(hello.body.decode())["fid"]
            except (TransportError, ValueError, AttributeError, KeyError):
                conn.close()
                continue
            self._peers_in.append(conn)
            self._spawn(lambda c=conn, s=src: self._peer_reader(c, s), f"from-{src}")
        self._listener.close()

    # -- inbound handling -------------------------------------------------------------

    def _rti_reader(self) -> None:
        try:
            while True:
                frame = self._rti.recv_frame()
                if frame is None:
                    break
                with self._lock:
                    if frame.type == FrameType.TAG_GRANT:
                        if frame.tag > self._granted:
                            self._granted = frame.tag
                    elif frame.type == FrameType.STOP:
                        self._stop_tag = frame.tag
                    self._cond.notify_all()
        except (TransportError, OSError):
            pass
        with self._lock:
            if self._stop_tag is None and not self._finished:
                # The coordinator vanished mid-run; stop where we are.
                self._fatal = FederateError("lost the coordination daemon")
            self._cond.notify_all()

    def _peer_reader(self, conn: FrameConnection, src: str) -> None:
        _elevate_io_thread()
        store = StoreClient(self.config.store_path) if self.config.store_path else None
        if store is not None:
            # The executor releases pins through this client long after
            # the connection EOFs, so it closes at shutdown, not here;
            # dropping it early would let the daemon recycle segments
            # that queued payloads still map.
            self._reader_stores.append(store)
        try:
            while (frame := conn.recv_frame()) is not None:
                self._dispatch_peer_frame(conn, src, store, frame)
        except (TransportError, OSError, ValueError) as exc:
            log.warning("%s: inbound connection from %s failed: %s", self.fid, src, exc)
        finally:
            with self._lock:
                # Fail-stop: a vanished upstream sends nothing further.
                self._watermarks[src] = FOREVER
                self._report_progress_locked()
                self._cond.notify_all()

    def _dispatch_peer_frame(
        self,
        conn: FrameConnection,
        src: str,
        store: StoreClient | None,
        frame: Frame,
    ) -> None:
        if frame.type == FrameType.NET:
            with self._lock:
                if frame.tag > self._watermarks.get(src, NEVER):
                    self._watermarks[src] = frame.tag
                    self._report_progress_locked()
                self._cond.notify_all()
        elif frame.type == FrameType.TAGGED_MSG:
            payload = decode_payload(frame.body)
            self._arrive(frame, src, payload, None)
        elif frame.type == FrameType.OBJ_REF:
            ref = ObjectRef.decode(frame.body)
            try:
                sealed = store.get(ref.oid, self.config.store_get_timeout_ns)
            except (StoreError, OSError) as exc:
                # The message is lost: fail the run rather than carry on
                # without it.  It did arrive, so count it and report, or
                # the coordinator would wait forever for it to land.
                with self._lock:
                    if self._fatal is None:
                        self._fatal = DeliveryError(
                            f"{self.fid}: object {ref.oid.hex()[:12]} from "
                            f"{src!r} could not be read: {exc}"
                        )
                    self.messages_received += 1
                    self._report_progress_locked(force=True)
                    self._cond.notify_all()
                return
            try:
                conn.send_frame(Frame(FrameType.OBJ_ACK, frame.tag))
            except (TransportError, OSError):
                pass  # the publisher has gone and needs no more credit
            with self._lock:
                pinned = sum(q.sealed.size for q in self._queue if q.sealed)
            view = sealed.view
            if pinned + sealed.size > self._pin_budget:
                # Queued events already pin half the store: copy this
                # payload and unpin it, so that pins never crowd out the
                # objects publishers create next.
                view = memoryview(bytes(view))
                sealed.release()
                sealed = None
            payload = payload_from_spans(view, ref.inband_span, ref.segment_spans)
            self._arrive(frame, src, payload, sealed)
        elif frame.type == FrameType.PING:
            conn.send_frame(frame)

    def _arrive(self, frame: Frame, src: str, payload, sealed) -> None:
        fed, port = self.topology.port_name(frame.port)
        if fed != self.fid:
            raise ValueError(f"frame addressed to {fed!r} arrived at {self.fid!r}")
        item = _Queued(
            frame.tag, 0, port, payload=payload, sealed=sealed
        )
        with self._lock:
            self.messages_received += 1
            item.seq = self._next_seq()
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
                self._cond.notify_all()
                return
            self._push(item)

    # -- progress reports ---------------------------------------------------------------

    def _floor_locked(self) -> Tag:
        floor = FOREVER
        for edge in self._in_edges:
            floor = min(floor, bound_tag(self._watermarks[edge.src], edge.delay))
        return floor

    def _promise_locked(self) -> Tag:
        head = self._queue[0].tag if self._queue else FOREVER
        promise = min(head, self._floor_locked())
        if self._executing:
            # A reaction may still schedule locally: nothing earlier than
            # one microstep past the tag being executed.
            promise = min(promise, delay_tag(self._current, NO_DELAY))
        return promise

    def _report_progress_locked(self, force: bool = False) -> None:
        if self.config.mode != CENTRALIZED or not self._started or self._finished:
            return
        promise = self._promise_locked()
        if not force and promise == self._announced:
            return
        if self._announced is not None and promise < self._announced:
            raise FederateError(
                f"promise regressed {self._announced!r} -> {promise!r}"
            )
        self._announced = promise
        empty = not self._queue and not self._executing and not self._violations
        body = encode_progress(empty, self.messages_sent, self.messages_received)
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

        0 means "blocked on something another thread will signal"."""
        if self.config.mode == CENTRALIZED:
            if self._granted < head.tag:
                return 0
            if self._floor_locked() <= head.tag:
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

    def _pop_batch_locked(self) -> list[_Queued]:
        tag = self._queue[0].tag
        batch = []
        while self._queue and self._queue[0].tag == tag:
            batch.append(heapq.heappop(self._queue))
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
            with self._lock:
                self._report_progress_locked(force=True)
            while True:
                work = None
                with self._lock:
                    while True:
                        if self._fatal is not None:
                            raise self._fatal
                        if self._violations:
                            work = ("violation", self._violations.pop(0))
                            break
                        head = self._queue[0] if self._queue else None
                        drained = self._stop_tag is not None and (
                            head is None or head.tag > self._stop_tag
                        )
                        if not drained:
                            self._drain_deadline_ns = None
                        if drained:
                            # Nothing of ours remains at or before the stop
                            # tag, but a peer's last message may still be in
                            # flight.  Halt only once the arrival floor has
                            # cleared the stop tag; halting federates close
                            # their connections, which raises downstream
                            # watermarks to FOREVER after the last buffered
                            # byte, so the floor cascade terminates on any
                            # acyclic topology in either mode (and on cycles
                            # in centralized mode via forwarded promises).
                            if self._floor_locked() > self._stop_tag:
                                work = ("stop", None)
                                break
                            if self.config.mode == DECENTRALIZED:
                                # A decentralized cycle has no promise
                                # cascade; fall back to a generous clock
                                # bound in the spirit of the mode.
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
                                    work = ("stop", None)
                                    break
                                self._cond.wait(
                                    min(0.25, (self._drain_deadline_ns - now) / 1e9)
                                )
                            else:
                                self._cond.wait()
                            continue
                        if head is None:
                            self._cond.wait()
                            continue
                        wait_ns = self._gate_wait_ns(head, self.clock.now_ns())
                        if wait_ns is None:
                            work = ("batch", self._pop_batch_locked())
                            break
                        self._cond.wait(wait_ns / 1e9 if wait_ns else None)
                kind, item = work
                if kind == "stop":
                    break
                if kind == "violation":
                    self._handle_violation(*item)
                    continue
                self._execute_batch(item)
        except BaseException:
            status = "faulted"
            raise
        finally:
            self._shutdown(status)
        return RunSummary(
            fid=self.fid,
            status=status,
            executed=len(self.executed_tags),
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
                value = self._materialize(item)
                event = Event(item.tag, item.port, value)
                now = self.clock.now_ns()
                lateness = now - item.tag.time
                for reaction in self._reactions.get(item.port, ()):
                    ctx = ReactionContext(self, event, value, lateness)
                    if (
                        reaction.deadline_ns is not None
                        and lateness > reaction.deadline_ns
                    ):
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
        finally:
            for item in batch:
                if item.sealed is not None:
                    item.sealed.release()
            with self._lock:
                self._executing = False
                self._completed = self._current
                self.executed_tags.append(self._current)
                if self.config.mode == CENTRALIZED:
                    try:
                        self._rti.send_frame(Frame(FrameType.LTC, self._current))
                    except (TransportError, OSError):
                        pass
                self._report_progress_locked()
                self._cond.notify_all()

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
        if not handled:
            log.warning(
                "%s: dropped event at %r (late by %d ns)",
                self.fid,
                item.tag,
                lateness_ns,
            )
        if item.sealed is not None:
            item.sealed.release()

    # -- shutdown ----------------------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the coordinator to wind the federation down."""
        with self._lock:
            at = self._current if self._current.is_finite() else self.start_tag
        try:
            self._rti.send_frame(Frame(FrameType.STOP, at or Tag(0, 0)))
        except (TransportError, OSError):
            pass

    def _shutdown(self, status: str) -> None:
        with self._lock:
            self._finished = True
            dangling = self._queue[:]
            self._queue.clear()
        for item in dangling:
            if item.sealed is not None:
                item.sealed.release()
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
        for store in self._reader_stores:
            store.close()
        log.debug("%s shut down (%s)", self.fid, status)
