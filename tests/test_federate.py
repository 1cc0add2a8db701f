"""Federate runtime tests: whole federations run in-process over loopback."""

import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import hprm.federate
import hprm.loop
from hprm.bench.delayline import DelayListener
from hprm.federate import (
    CENTRALIZED,
    DECENTRALIZED,
    DeliveryError,
    Federate,
    FederateConfig,
    FederateError,
    RunSummary,
)
from hprm.rti import RtiServer, RtiState
from hprm.store import StoreClient
from hprm.store.client import REPLY_TIMEOUT_S
from hprm.store.daemon import StoreDaemon
from hprm.tags import FOREVER, NEVER, NO_DELAY, Delay, Tag, bound_tag, delay_tag
from hprm.topology import Connection, Topology
from hprm.serde import decode_payload, deserialize, encode_payload, serialize
from hprm.store.wire import ID_BYTES
from hprm.transport import (
    HEADER_BYTES,
    ConnectionOptions,
    Frame,
    FrameConnection,
    FrameListener,
    FrameType,
    connect,
    listen,
)

MS = 1_000_000
SRC = Path(__file__).resolve().parent.parent / "src"


class ManualClock:
    """A clock that only moves when told to."""

    def __init__(self, start_ns: int = 0):
        self.now_ns = start_ns

    def __call__(self) -> int:
        return self.now_ns

    def set(self, now_ns: int) -> None:
        assert now_ns >= self.now_ns, "clocks do not run backwards"
        self.now_ns = now_ns


# -- harness ----------------------------------------------------------------


def pipeline(*fids, delay=0):
    """fid1 -> fid2 -> ... each via port 'out' -> 'in'."""
    conns = [
        Connection(a, "out", b, "in", Delay(delay))
        for a, b in zip(fids, fids[1:])
    ]
    return Topology.build(fids, conns)


def start_federates(topology, feds, setup=None, startup_ns=30 * MS):
    """Start an in-process coordinator plus one thread per federate.

    ``setup(fed, start_tag)`` runs after the start handshake, before the
    event loop.  Returns the coordinator, the threads, and two dicts the
    threads fill in as they end: {fid: RunSummary-or-exception} and {fid:
    ``time.monotonic()`` at the end}.  The threads are daemons, so a hung
    federate fails an assertion instead of keeping the test process alive.
    """
    rti = RtiServer(topology, host="127.0.0.1", port=0, startup_offset_ns=startup_ns)
    rti.start()
    for fed in feds:
        fed.config.rti_address = rti.address
    results, ended = {}, {}

    def runner(fed):
        try:
            start = fed.start()
            if setup is not None:
                setup(fed, start)
            results[fed.fid] = fed.run()
        except BaseException as exc:  # surfaced to the asserting test
            results[fed.fid] = exc
        ended[fed.fid] = time.monotonic()

    threads = [
        threading.Thread(target=runner, args=(f,), name=f"run-{f.fid}", daemon=True)
        for f in feds
    ]
    for t in threads:
        t.start()
    return rti, threads, results, ended


def run_federation(topology, feds, setup=None, timeout=60.0, startup_ns=30 * MS):
    """:func:`start_federates`, then wait for every federate to end.
    Returns {fid: RunSummary-or-exception}."""
    rti, threads, results, _ = start_federates(topology, feds, setup, startup_ns)
    for t in threads:
        t.join(timeout=timeout)
    hung = [t.name for t in threads if t.is_alive()]
    rti.close()
    assert not hung, f"federate threads hung: {hung}"
    return results


def schedule_ramp(fed, start, n, period_ns=MS, port="tick", offset_ns=0):
    for i in range(n):
        fed.schedule(Tag(start.time + offset_ns + i * period_ns, 0), port, i)


@pytest.fixture
def store():
    sock = tempfile.mktemp(prefix="hprm-fed-store-", suffix=".sock")
    daemon = StoreDaemon(sock, capacity_bytes=64 * 1024 * 1024)
    daemon.start()
    yield daemon
    daemon.stop()


# -- config -------------------------------------------------------------------


def test_config_rejects_unknown_mode():
    with pytest.raises(ValueError):
        FederateConfig(fid="f", mode="anarchic")


def test_config_from_env():
    env = {
        "HPRM_RTI_ADDR": "10.0.0.1:9999",
        "HPRM_STORE_PATH": "/tmp/s.sock",
        "HPRM_MODE": "decentralized",
        "HPRM_STP_OFFSET_NS": "250000",
    }
    cfg = FederateConfig.from_env("f7", environ=env)
    assert cfg.rti_address == ("10.0.0.1", 9999)
    assert cfg.store_path == "/tmp/s.sock"
    assert cfg.mode == DECENTRALIZED
    assert cfg.stp_offset_ns == 250_000
    # explicit overrides beat the environment
    cfg = FederateConfig.from_env("f7", environ=env, mode=CENTRALIZED)
    assert cfg.mode == CENTRALIZED


def test_federate_must_appear_in_topology():
    topo = pipeline("a", "b")
    with pytest.raises(ValueError):
        Federate(FederateConfig(fid="ghost"), topo)


def test_schedule_rejects_sentinels_and_regression():
    from hprm.tags import FOREVER

    topo = pipeline("a", "b")
    fed = Federate(FederateConfig(fid="a"), topo)
    with pytest.raises(ValueError):
        fed.schedule(FOREVER, "tick")
    fed._current = Tag(100, 0)
    with pytest.raises(ValueError):
        fed.schedule(Tag(100, 0), "tick")
    fed.schedule(Tag(101, 0), "tick")
    fed.schedule(Tag(100, 1), "tick")
    assert fed._queue[0].tag == Tag(100, 1)  # slots in ahead


def test_schedule_rejects_tags_below_announced_promise():
    topo = pipeline("a", "b")
    fed = Federate(FederateConfig(fid="a"), topo)
    fed._announced = Tag(500, 0)
    with pytest.raises(ValueError, match="promise"):
        fed.schedule(Tag(400, 0), "tick")
    fed.schedule(Tag(500, 0), "tick")


def test_publish_outside_reaction_is_rejected():
    topo = pipeline("a", "b")
    fed = Federate(FederateConfig(fid="a"), topo)
    with pytest.raises(FederateError):
        fed.publish("out", 1)


def test_gate_wait_follows_a_manual_clock():
    """Both gates, evaluated against a clock that only moves when told."""
    topo = pipeline("a", "b")
    head = hprm.federate._Queued(Tag(100 * MS, 0), 1, "in")
    clock = ManualClock(90 * MS)

    def gate(fed):
        return fed._gate_wait_ns(head, clock())

    central = Federate(FederateConfig(fid="b"), topo, clock=clock)
    central._watermarks["a"] = Tag(99 * MS, 0)
    assert gate(central) == 0  # the floor, (99 ms, 1), is below the head
    central._watermarks["a"] = head.tag
    assert gate(central) == 10 * MS  # floor (100 ms, 1) is past it: wait for time
    clock.set(100 * MS)
    assert gate(central) is None

    clock = ManualClock(90 * MS)
    downstream = Federate(
        FederateConfig(fid="b", mode=DECENTRALIZED, stp_offset_ns=5 * MS),
        topo, clock=clock,
    )
    downstream._watermarks["a"] = Tag(99 * MS, 0)  # floor (99 ms, 1): below the head
    source = Federate(
        FederateConfig(fid="a", mode=DECENTRALIZED, stp_offset_ns=5 * MS),
        topo, clock=clock,
    )
    assert gate(downstream) == 15 * MS  # h.time + margin - now
    assert gate(source) == 10 * MS  # no upstream: no margin
    clock.set(100 * MS)
    assert gate(downstream) == 5 * MS
    assert gate(source) is None
    clock.set(105 * MS)
    assert gate(downstream) is None


def test_a_decentralized_head_below_the_floor_waits_no_margin():
    """The safe-to-process margin waits for input that may still come.
    A decentralized head the arrival floor has passed waits only for its
    tag's time; a head at or above the floor waits the margin too."""
    topo = pipeline("a", "b")
    clock = ManualClock(90 * MS)
    fed = Federate(
        FederateConfig(fid="b", mode=DECENTRALIZED, stp_offset_ns=5 * MS),
        topo, clock=clock,
    )

    def gate(tag):
        return fed._gate_wait_ns(hprm.federate._Queued(tag, 1, "in"), clock())

    fed._watermarks["a"] = Tag(100 * MS, 0)
    assert fed._floor() == Tag(100 * MS, 1)
    assert gate(Tag(100 * MS, 0)) == 10 * MS  # h.time - now: no margin
    assert gate(Tag(100 * MS, 1)) == 15 * MS  # at the floor: h.time + margin - now
    assert gate(Tag(101 * MS, 0)) == 16 * MS  # above it
    clock.set(100 * MS)
    assert gate(Tag(100 * MS, 0)) is None
    assert gate(Tag(100 * MS, 1)) == 5 * MS
    fed._watermarks["a"] = FOREVER  # the upstream closed: nothing can arrive
    assert gate(Tag(100 * MS, 1)) is None
    assert gate(Tag(101 * MS, 0)) == MS


class _Feed:
    """Stands in for a connection: hands out given frames."""

    def __init__(self, *frames):
        self.frames = list(frames)

    def recv_frame(self):
        return self.frames.pop(0) if self.frames else None


def test_a_running_federation_starts_no_threads():
    """Each federate serves its listener, its coordinator connection and
    its peers from the thread that calls run(), and the coordinator
    serves every federate from one thread: while the federation runs,
    no thread starts beyond those."""
    topo = pipeline("pub", "mid", "sub")
    feds = [Federate(FederateConfig(fid=f), topo) for f in ("pub", "mid", "sub")]
    counts = []

    def relay(ctx):
        counts.append(threading.active_count())
        ctx.publish("out", ctx.value)

    feds[0].on("tick", relay)
    feds[1].on("in", relay)
    feds[2].on("in", lambda ctx: counts.append(threading.active_count()))
    before = threading.active_count()
    results = run_federation(
        topo, feds,
        lambda f, s: schedule_ramp(f, s, 10) if f.fid == "pub" else None,
    )
    assert all(isinstance(r, RunSummary) for r in results.values()), results
    assert len(counts) == 30
    # one thread per federate, plus the coordinator's
    assert max(counts) <= before + len(feds) + 1, (before, counts)


def test_readable_input_runs_before_an_overdue_later_head():
    """Decentralized, on a manual clock: while b runs its first tag, a's
    message for a tag before b's next head lands, and b's clock jumps
    past that head's margin.  b reads what is ready before it runs the
    overdue head, so the message runs first, in tag order, and is not
    late."""
    topo = pipeline("a", "b")
    clock = ManualClock(time.monotonic_ns())
    a = Federate(FederateConfig(fid="a", mode=DECENTRALIZED), topo)
    b = Federate(
        FederateConfig(fid="b", mode=DECENTRALIZED, stp_offset_ns=5 * MS),
        topo, clock=clock,
    )
    sent = threading.Event()
    tags, ran = {}, []

    def tick(ctx):
        ctx.publish("out", "early")
        sent.set()

    def first(ctx):
        ran.append(ctx.event.port)
        assert sent.wait(5)
        clock.set(tags["later"].time + 10 * MS)  # the next head is overdue

    def later(ctx):
        ran.append(ctx.event.port)
        ctx.federate.request_stop()

    a.on("tick", tick)
    b.on("first", first)
    b.on("in", lambda ctx: ran.append(ctx.event.port))
    b.on("later", later)

    def setup(fed, start):
        if fed.fid == "a":
            fed.schedule(Tag(start.time + 2 * MS, 0), "tick")
            return
        tags["later"] = Tag(start.time + 4 * MS, 0)
        fed.schedule(Tag(start.time + MS, 0), "first")
        fed.schedule(tags["later"], "later")
        clock.set(start.time + 6 * MS)  # first is due

    results = run_federation(topo, [a, b], setup, timeout=10)
    assert isinstance(results["b"], RunSummary), results["b"]
    assert ran == ["first", "in", "later"]
    assert results["b"].stp_violations == 0


def test_a_link_whose_tags_fall_delivers_around_a_local_head():
    """Two edges join pub to sub, at 21 ms and 20 ms.  Pub's first tick
    publishes on the slower edge first, so the later-tagged message leads
    on the connection; its second publishes on the slower edge only, so
    the watermark sub next waits for comes after a later-tagged message.
    A local event of sub lies between the arrival tags of each tick, and
    everything runs in tag order, with no violation."""
    topo = Topology.build(
        ["pub", "sub"],
        [
            Connection("pub", "late", "sub", "late", Delay(21 * MS)),
            Connection("pub", "early", "sub", "early", Delay(20 * MS)),
        ],
    )
    for mode in (CENTRALIZED, DECENTRALIZED):
        pub = Federate(FederateConfig(fid="pub", mode=mode), topo)
        sub = Federate(
            FederateConfig(fid="sub", mode=mode, stp_offset_ns=10 * MS), topo
        )
        ran = []

        def tick(ctx):
            ctx.publish("late", ctx.value)
            if ctx.value == 1:
                ctx.publish("early", ctx.value)

        def record(ctx):
            ran.append((ctx.event.port, ctx.value))
            if ctx.event.port == "late" and ctx.value == 2:
                ctx.federate.request_stop()

        pub.on("tick", tick)
        for port in ("early", "local", "late"):
            sub.on(port, record)

        def setup(fed, start):
            for n, at in ((1, MS), (2, 6 * MS)):
                if fed.fid == "pub":
                    fed.schedule(Tag(start.time + at, 0), "tick", n)
                else:
                    fed.schedule(Tag(start.time + at + 20 * MS + MS // 2, 0), "local", n)

        results = run_federation(topo, [pub, sub], setup, timeout=10)
        assert all(isinstance(r, RunSummary) for r in results.values()), (mode, results)
        assert ran == [
            ("early", 1), ("local", 1), ("late", 1), ("local", 2), ("late", 2)
        ], mode
        assert results["sub"].stp_violations == 0, mode


@pytest.mark.parametrize("family", ["unix", "tcp"])
def test_a_cycle_of_frames_larger_than_the_socket_buffer_completes(family):
    """Two federates each send the other 16 inline frames of 1 MiB in one
    reaction at the same tag: five times the Unix socket buffer per
    frame, and over TCP more than a loopback send buffer grows to before
    its reader reads.  Each send keeps reading the other's frames until
    its own fit, so neither waits on the other."""
    topo = Topology.build(
        ["left", "right"],
        [
            Connection("left", "out", "right", "in", Delay(MS)),
            Connection("right", "out", "left", "in", Delay(MS)),
        ],
    )
    opts = ConnectionOptions(eager_buffer_bytes=2 * 2**20)
    feds = [
        Federate(
            FederateConfig(fid=f, connection=opts),
            topo,
            listener=FrameListener("127.0.0.1", 0, opts) if family == "tcp" else None,
        )
        for f in ("left", "right")
    ]
    count = 16
    got = {"left": [], "right": []}

    def burst(ctx):
        for i in range(count):
            ctx.publish("out", np.full(2**17, float(i)))

    for fed in feds:
        fed.on("tick", burst)
        fed.on("in", lambda ctx: got[ctx.federate.fid].append(ctx.value[-1]))
    results = run_federation(
        topo, feds, lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick"), timeout=20
    )
    assert all(isinstance(r, RunSummary) for r in results.values()), results
    assert got == {fid: [float(i) for i in range(count)] for fid in got}


def test_store_references_both_ways_with_full_windows_complete(store):
    """Two federates each publish twice OBJ_WINDOW store objects to the
    other in one reaction.  Each waits for acknowledgements with its
    window full while the other does the same; the wait serves the
    other's references, so both windows drain."""
    topo = Topology.build(
        ["left", "right"],
        [
            Connection("left", "out", "right", "in", Delay(MS)),
            Connection("right", "out", "left", "in", Delay(MS)),
        ],
    )
    feds = [
        Federate(FederateConfig(fid=f, store_path=store.socket_path), topo)
        for f in ("left", "right")
    ]
    count = 2 * hprm.federate.OBJ_WINDOW
    got = {"left": [], "right": []}

    def burst(ctx):
        for i in range(count):
            ctx.publish("out", np.full(2**17, float(i)))

    for fed in feds:
        fed.on("tick", burst)
        fed.on("in", lambda ctx: got[ctx.federate.fid].append(ctx.value[0]))
    results = run_federation(
        topo, feds, lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick"), timeout=20
    )
    assert all(isinstance(r, RunSummary) for r in results.values()), results
    assert got == {fid: [float(i) for i in range(count)] for fid in got}
    stats = store.state.stats()
    assert stats["creates"] == stats["gets"] == stats["releases"] == 2 * count


# -- centralized federations ---------------------------------------------------


def test_pipeline_delivers_in_tag_order():
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub"), topo)
    sub = Federate(FederateConfig(fid="sub"), topo)
    got = []
    pub.on("tick", lambda ctx: ctx.publish("out", ctx.value))
    sub.on("in", lambda ctx: got.append((ctx.tag, ctx.value)))

    def setup(fed, start):
        if fed.fid == "pub":
            schedule_ramp(fed, start, 20)

    results = run_federation(topo, [pub, sub], setup)
    assert isinstance(results["sub"], RunSummary)
    assert [v for _, v in got] == list(range(20))
    tags = [t for t, _ in got]
    assert tags == sorted(tags)
    # a plain connection still advances the microstep
    assert all(t.microstep == 1 for t in tags)
    assert results["pub"].messages_sent == 20
    assert results["sub"].messages_received == 20
    assert results["sub"].stp_violations == 0


def test_connection_delay_shifts_delivery_tags():
    topo = pipeline("pub", "sub", delay=7 * MS)
    pub = Federate(FederateConfig(fid="pub"), topo)
    sub = Federate(FederateConfig(fid="sub"), topo)
    sent, got = [], []

    def tick(ctx):
        sent.append(ctx.tag)
        ctx.publish("out", None)

    pub.on("tick", tick)
    sub.on("in", lambda ctx: got.append(ctx.tag))
    run_federation(
        topo, [pub, sub],
        lambda fed, start: schedule_ramp(fed, start, 5) if fed.fid == "pub" else None,
    )
    assert [g for g in got] == [Tag(s.time + 7 * MS, 0) for s in sent]


def test_fan_in_merge_is_deterministic_across_runs():
    """Two publishers with interleaved tags; the subscriber must see one
    total order, identical on every run."""

    def one_run():
        topo = Topology.build(
            ["a", "b", "z"],
            [
                Connection("a", "o", "z", "in_a", Delay(0)),
                Connection("b", "o", "z", "in_b", Delay(0)),
            ],
        )
        feds = [Federate(FederateConfig(fid=f), topo) for f in ("a", "b", "z")]
        seen = []
        for fed in feds[:2]:
            fed.on("tick", lambda ctx: ctx.publish("o", ctx.value))
        feds[2].on(("in_a", "in_b"),
                   lambda ctx: seen.append((ctx.tag, ctx.event.port, ctx.value)))

        def setup(fed, start):
            if fed.fid == "a":
                schedule_ramp(fed, start, 10, period_ns=2 * MS)
            elif fed.fid == "b":
                schedule_ramp(fed, start, 10, period_ns=2 * MS, offset_ns=MS)

        results = run_federation(topo, feds, setup)
        assert results["z"].stp_violations == 0
        return [(t.microstep, port, v) for t, port, v in seen], [
            t for t, _, _ in seen
        ]

    first, tags = one_run()
    assert tags == sorted(tags), "merge violated tag order"
    assert len(first) == 20
    second, _ = one_run()
    assert first == second


def test_same_tag_events_execute_as_one_batch():
    topo = pipeline("solo")
    fed = Federate(FederateConfig(fid="solo"), topo)
    hits = []
    fed.on("x", lambda ctx: hits.append(("x", ctx.value)))
    fed.on("y", lambda ctx: hits.append(("y", ctx.value)))

    def setup(f, start):
        at = Tag(start.time + MS, 0)
        f.schedule(at, "x", 1)
        f.schedule(at, "y", 2)
        f.schedule(at, "x", 3)

    results = run_federation(topo, [fed], setup)
    assert results["solo"].executed == 1
    assert hits == [("x", 1), ("y", 2), ("x", 3)]  # arrival order within the tag


def test_delayed_self_loop():
    topo = Topology.build(
        ["lone"], [Connection("lone", "out", "lone", "in", Delay(2 * MS))]
    )
    fed = Federate(FederateConfig(fid="lone"), topo)
    tags = []

    def bounce(ctx):
        tags.append(ctx.tag)
        if ctx.value > 0:
            ctx.publish("out", ctx.value - 1)

    fed.on("in", bounce)
    run_federation(
        topo, [fed],
        lambda f, start: f.schedule(Tag(start.time + MS, 0), "in", 4),
    )
    assert len(tags) == 5
    for earlier, later in zip(tags, tags[1:]):
        assert later.time - earlier.time == 2 * MS


def test_delayed_ring_drains_and_stops():
    """A cycle with delay: progress promises alone never reach a fixpoint,
    so shutdown has to come from the message-count quiescence check."""
    topo = Topology.build(
        ["left", "right"],
        [
            Connection("left", "out", "right", "in", Delay(3 * MS)),
            Connection("right", "out", "left", "in", Delay(3 * MS)),
        ],
    )
    feds = [Federate(FederateConfig(fid=f), topo) for f in ("left", "right")]
    hops = []

    def relay(ctx):
        hops.append((ctx.federate.fid, ctx.tag))
        if ctx.value > 0:
            ctx.publish("out", ctx.value - 1)

    for fed in feds:
        fed.on("in", relay)
    results = run_federation(
        topo, feds,
        lambda f, start: f.schedule(Tag(start.time + MS, 0), "in", 8)
        if f.fid == "left"
        else None,
    )
    assert [fid for fid, _ in hops] == ["left", "right"] * 4 + ["left"]
    assert all(isinstance(r, RunSummary) and r.status == "completed"
               for r in results.values())


def test_decentralized_ring_halts_on_the_drain_deadline():
    """A decentralized cycle forwards no promises, so the arrival floor
    never clears the stop tag: each federate halts on the drain deadline
    instead, in bounded time."""
    topo = Topology.build(
        ["left", "right"],
        [
            Connection("left", "out", "right", "in", Delay(3 * MS)),
            Connection("right", "out", "left", "in", Delay(3 * MS)),
        ],
    )
    feds = [
        Federate(FederateConfig(fid=f, mode=DECENTRALIZED), topo)
        for f in ("left", "right")
    ]
    hops = []

    def relay(ctx):
        hops.append(ctx.value)
        if ctx.value > 0:
            ctx.publish("out", ctx.value - 1)
        else:
            ctx.federate.request_stop()

    for fed in feds:
        fed.on("in", relay)
    results = run_federation(
        topo, feds,
        lambda f, start: f.schedule(Tag(start.time + MS, 0), "in", 4)
        if f.fid == "left"
        else None,
        timeout=10,
    )
    assert hops == [4, 3, 2, 1, 0]
    assert all(isinstance(r, RunSummary) for r in results.values()), results


def test_reaction_chain_through_intermediate_federate():
    topo = pipeline("src", "mid", "dst")
    feds = [Federate(FederateConfig(fid=f), topo) for f in ("src", "mid", "dst")]
    out = []
    feds[0].on("tick", lambda ctx: ctx.publish("out", ctx.value))
    feds[1].on("in", lambda ctx: ctx.publish("out", ctx.value * 2))
    feds[2].on("in", lambda ctx: out.append(ctx.value))
    run_federation(
        topo, feds,
        lambda f, s: schedule_ramp(f, s, 6) if f.fid == "src" else None,
    )
    assert out == [0, 2, 4, 6, 8, 10]


def test_centralized_run_sends_one_report_per_executed_tag(monkeypatch):
    """Two publishers take turns feeding one subscriber, and federates
    report to the coordinator only while idle.  A publisher's queue always
    holds its next tick, so it sends a constant number of NETs: at start,
    on going idle after its last tick, and at resignation.  The subscriber
    goes idle after each message and sends at most one NET per executed
    tag, plus those constants.  Each completion rides on a NET; the
    coordinator hears nothing but JOIN, NET, the stop round's STOP and
    RESIGN."""
    nets: dict[str, int] = {}
    types: set[int] = set()
    handle_net = RtiState.handle_net
    buffered_frame = FrameConnection.buffered_frame

    def counting_net(self, fid, tag, **kwargs):
        nets[fid] = nets.get(fid, 0) + 1
        return handle_net(self, fid, tag, **kwargs)

    def recording_recv(self):
        frame = buffered_frame(self)
        if frame is not None and threading.current_thread().name == "rti":
            types.add(frame.type)
        return frame

    monkeypatch.setattr(RtiState, "handle_net", counting_net)
    monkeypatch.setattr(FrameConnection, "buffered_frame", recording_recv)
    topo = _gather_topology()
    feds = [Federate(FederateConfig(fid=f), topo) for f in ("a", "b", "z")]
    seen = []
    for fed in feds[:2]:
        fed.on("tick", lambda ctx: ctx.publish("o", ctx.value))
    feds[2].on(("in_a", "in_b"), lambda ctx: seen.append(ctx.tag))
    n = 30

    def setup(fed, start):
        if fed.fid == "a":
            schedule_ramp(fed, start, n, period_ns=2 * MS)
        elif fed.fid == "b":
            schedule_ramp(fed, start, n, period_ns=2 * MS, offset_ns=MS)

    results = run_federation(topo, feds, setup)
    assert len(seen) == 2 * n and seen == sorted(seen)
    assert types <= {FrameType.JOIN, FrameType.NET, FrameType.STOP, FrameType.RESIGN}, types
    for fid, summary in results.items():
        assert isinstance(summary, RunSummary), summary
        if fid == "z":
            assert nets[fid] <= summary.executed + 3, nets
        else:
            assert summary.executed == n and nets[fid] <= 3, nets
        # Every federate ends announcing FOREVER, so only the completed
        # tags that rode on the NETs can place the stop tag.
        assert summary.stop_tag == delay_tag(seen[-1], NO_DELAY)


class _Recorder:
    """Stands in for a connection; keeps what is sent on it."""

    def __init__(self):
        self.frames = []

    def send_frame(self, frame):
        self.frames.append(frame)

    def close(self):
        pass


def test_upstream_net_mid_reaction_keeps_the_floor_below_its_publish():
    """An upstream NET lands while a reaction runs and makes the federate
    report progress.  The promise it forwards must not lift the
    downstream floor above the tag that reaction then publishes at."""
    topo = pipeline("src", "mid", "dst")
    mid = Federate(FederateConfig(fid="mid"), topo)
    mid._rti, dst = _Recorder(), _Recorder()
    mid._peers_out["dst"] = dst
    start = Tag(1_000 * MS, 0)
    mid.start_tag = start
    mid._watermarks["src"] = start
    mid._started = True

    def relay(ctx):
        net = Frame(FrameType.NET, Tag(start.time + MS, 0))
        mid._dispatch_peer_frame(None, "src", net)
        ctx.publish("out", ctx.value)

    mid.on("in", relay)
    at = delay_tag(start, NO_DELAY)  # src's publish at the start tag
    mid._announced = at  # what mid announced before `at` arrived
    mid.schedule(at, "in", 7)
    mid._run_batch()

    floor, published = NEVER, 0
    for frame in dst.frames:
        if frame.type == FrameType.NET:
            floor = max(floor, bound_tag(frame.tag, NO_DELAY))
        else:
            assert frame.tag >= floor, f"published {frame.tag!r} below floor {floor!r}"
            published += 1
    assert published == 1
    assert [f.tag for f in mid._rti.frames] == [Tag(start.time + MS, 1)]


def test_handler_panic_resigns_but_federation_still_stops():
    topo = pipeline("pub", "worker")
    pub = Federate(FederateConfig(fid="pub"), topo)
    worker = Federate(FederateConfig(fid="worker"), topo)
    pub.on("tick", lambda ctx: ctx.publish("out", ctx.value))

    def explode(ctx):
        if ctx.value == 2:
            raise RuntimeError("boom at the last message")

    worker.on("in", explode)
    results = run_federation(
        topo, [pub, worker],
        lambda f, s: schedule_ramp(f, s, 3) if f.fid == "pub" else None,
    )
    assert isinstance(results["worker"], RuntimeError)
    assert isinstance(results["pub"], RunSummary)
    assert results["pub"].executed == 3


# -- stop semantics ------------------------------------------------------------


def test_explicit_stop_truncates_remaining_events():
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub"), topo)
    sub = Federate(FederateConfig(fid="sub"), topo)
    got = []

    def tick(ctx):
        ctx.publish("out", ctx.value)
        if ctx.value == 4:
            ctx.federate.request_stop()

    pub.on("tick", tick)
    sub.on("in", lambda ctx: got.append(ctx.value))
    results = run_federation(
        topo, [pub, sub],
        lambda f, s: schedule_ramp(f, s, 50, period_ns=2 * MS)
        if f.fid == "pub"
        else None,
    )
    stop = results["pub"].stop_tag
    assert stop is not None and results["sub"].stop_tag == stop
    # everything at or before the stop tag ran; everything later vanished
    assert results["pub"].executed < 50
    assert got == list(range(results["pub"].executed))
    assert 5 <= len(got) <= 8, got  # stop lands a hair after the request


def test_grants_keep_a_running_ahead_publisher_within_the_stop_tag(monkeypatch):
    """The two-phase stop's acceptance test.  The subscriber asks for the
    stop while a 20 us publisher runs far ahead of it, and the coordinator
    lags behind both.  Asked for the largest tag it has started, the
    publisher replies and holds there, and the stop tag is picked past
    every reply: the publisher runs no tag past it, and all it sent is
    received.  (Grants no longer gate anything; the name is kept.)"""
    handle_net = RtiState.handle_net

    def lagging(self, *args, **kwargs):
        time.sleep(0.0005)  # a loaded coordinator reads announcements late
        return handle_net(self, *args, **kwargs)

    monkeypatch.setattr(RtiState, "handle_net", lagging)
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub"), topo)
    sub = Federate(FederateConfig(fid="sub"), topo)
    ticks = []

    def tick(ctx):
        ticks.append(ctx.tag)
        ctx.publish("out", ctx.value)

    def slow(ctx):
        if ctx.value < 20:
            time.sleep(0.002)  # the publisher runs ahead meanwhile
        elif ctx.value == 20:
            ctx.federate.request_stop()

    pub.on("tick", tick)
    sub.on("in", slow)
    n = 20_000
    results = run_federation(
        topo, [pub, sub],
        lambda f, s: schedule_ramp(f, s, n, period_ns=20_000)
        if f.fid == "pub"
        else None,
    )
    assert isinstance(results["pub"], RunSummary), results["pub"]
    assert isinstance(results["sub"], RunSummary), results["sub"]
    stop = results["pub"].stop_tag
    assert stop is not None and results["sub"].stop_tag == stop
    assert 20 < len(ticks) < n
    assert max(ticks) <= stop, (max(ticks), stop)
    assert pub.messages_sent == sub.messages_received


def test_a_stop_cannot_be_requested_before_joining():
    fed = Federate(FederateConfig(fid="solo"), Topology.build(["solo"], []))
    with pytest.raises(FederateError):
        fed.request_stop()


def test_a_stop_requested_between_join_and_start_is_deferred():
    """``a`` asks for a stop from another thread once its JOIN is out,
    while it waits for START: ``b`` joins about 200 ms later.  The
    coordinator holds the request until start, so both stop one
    microstep past the start tag, before the event each holds 10 s on."""
    topo = Topology.build(["a", "b"], [])
    rti = RtiServer(topo, startup_offset_ns=30 * MS).start()
    feds = [Federate(FederateConfig(fid=f, rti_address=rti.address), topo) for f in "ab"]
    results = {}

    def runner(fed):
        try:
            start = fed.start()
            fed.on("tick", lambda ctx: None)
            fed.schedule(Tag(start.time + 10_000 * MS, 0), "tick")
            results[fed.fid] = fed.run()
        except BaseException as exc:  # surfaced to the asserting test
            results[fed.fid] = exc

    threads = [threading.Thread(target=runner, args=(f,), daemon=True) for f in feds]
    try:
        threads[0].start()
        deadline = time.monotonic() + 10
        while feds[0]._rti is None and time.monotonic() < deadline:
            time.sleep(0.001)
        feds[0].request_stop()
        assert feds[0].start_tag is None  # b has not joined yet
        time.sleep(0.2)
        threads[1].start()
        hung = _join_by(threads, time.monotonic() + 10)
    finally:
        rti.close()
    assert not hung, results
    stop = delay_tag(feds[0].start_tag, NO_DELAY)
    for fed in feds:
        summary = results[fed.fid]
        assert isinstance(summary, RunSummary), summary
        assert (summary.stop_tag, summary.executed) == (stop, 0)


# -- decentralized federations ----------------------------------------------


def _gather_topology():
    return Topology.build(
        ["a", "b", "z"],
        [
            Connection("a", "o", "z", "in_a", Delay(0)),
            Connection("b", "o", "z", "in_b", Delay(0)),
        ],
    )


def _run_gather_decentralized(stp_ns, jitter_ns, n=15, seed=11):
    topo = _gather_topology()
    pubs = [
        Federate(FederateConfig(fid=f, mode=DECENTRALIZED), topo)
        for f in ("a", "b")
    ]
    for fed in pubs:
        fed.on("tick", lambda ctx: ctx.publish("o", ctx.value))
    z = Federate(
        FederateConfig(fid="z", mode=DECENTRALIZED, stp_offset_ns=stp_ns),
        topo,
        listener=DelayListener(FrameListener(), jitter_ns, seed),
    )
    seen, late = [], []
    total = 2 * n

    def maybe_stop(fed):
        if len(seen) + len(late) >= total:
            fed.request_stop()

    def on_in(ctx):
        seen.append(ctx.tag)
        maybe_stop(ctx.federate)

    def on_late(ctx):
        late.append((ctx.tag, ctx.lateness_ns))
        maybe_stop(ctx.federate)

    z.on(("in_a", "in_b"), on_in, on_stp_violation=on_late)

    def setup(fed, start):
        if fed.fid == "a":
            schedule_ramp(fed, start, n, period_ns=2 * MS)
        elif fed.fid == "b":
            schedule_ramp(fed, start, n, period_ns=2 * MS, offset_ns=MS)

    results = run_federation(topo, [*pubs, z], setup)
    assert isinstance(results["z"], RunSummary)
    assert len(seen) + len(late) == total, "an arrival was dropped or duplicated"
    return results["z"], seen, late


def test_decentralized_sufficient_offset_has_no_violations():
    summary, seen, late = _run_gather_decentralized(
        stp_ns=8 * MS, jitter_ns=2 * MS
    )
    assert summary.stp_violations == 0 and not late
    assert [t for t in seen] == sorted(seen)


def test_decentralized_undersized_offset_detects_every_inversion():
    summary, seen, late = _run_gather_decentralized(stp_ns=0, jitter_ns=5 * MS)
    assert summary.stp_violations == len(late) > 0
    # a late event lands in exactly one place: the violation handler
    assert {t for t, _ in late}.isdisjoint(seen)
    assert all(lateness >= 0 for _, lateness in late)


def test_decentralized_never_sends_progress_reports():
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", mode=DECENTRALIZED), topo)
    sub = Federate(FederateConfig(fid="sub", mode=DECENTRALIZED), topo)
    got = []
    pub.on("tick", lambda ctx: ctx.publish("out", ctx.value))

    def on_in(ctx):
        got.append(ctx.value)
        if len(got) == 5:
            ctx.federate.request_stop()

    sub.on("in", on_in)
    results = run_federation(
        topo, [pub, sub],
        lambda f, s: schedule_ramp(f, s, 5) if f.fid == "pub" else None,
    )
    assert got == list(range(5))
    assert results["pub"].status == "completed"


# -- deadlines ------------------------------------------------------------------


def test_deadline_miss_invokes_fault_handler():
    import time as _time

    topo = pipeline("solo")
    fed = Federate(FederateConfig(fid="solo"), topo)
    ran, missed = [], []

    def slow(ctx):
        ran.append(ctx.value)
        _time.sleep(0.05)  # overrun into the next event's deadline

    fed.on("slow", slow)
    fed.on(
        "tick",
        lambda ctx: ran.append(ctx.value),
        deadline_ns=5 * MS,
        on_deadline_miss=lambda ctx: missed.append(ctx.lateness_ns),
    )

    def setup(f, start):
        f.schedule(Tag(start.time + MS, 0), "slow", "hog")
        f.schedule(Tag(start.time + 2 * MS, 0), "tick", "late")

    results = run_federation(topo, [fed], setup)
    assert ran == ["hog"], "the missed reaction must not run its handler"
    assert results["solo"].deadline_misses == 1
    assert len(missed) == 1 and missed[0] > 5 * MS


# -- the object store path -------------------------------------------------------


def test_large_payloads_ride_the_store(store):
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=store.socket_path), topo)
    sub = Federate(FederateConfig(fid="sub", store_path=store.socket_path), topo)
    got = []
    pub.on(
        "tick",
        lambda ctx: ctx.publish(
            "out", {"seq": ctx.value, "data": np.full(200_000, ctx.value, np.float64)}
        ),
    )
    sub.on("in", lambda ctx: got.append(ctx.value))
    run_federation(
        topo, [pub, sub],
        lambda f, s: schedule_ramp(f, s, 4) if f.fid == "pub" else None,
    )
    assert [g["seq"] for g in got] == [0, 1, 2, 3]
    for i, g in enumerate(got):
        arr = g["data"]
        assert arr.shape == (200_000,) and arr[1234] == float(i)
        assert not arr.flags.writeable  # view into the sealed mapping
    stats = store.state.stats()
    assert stats["creates"] == 4 and stats["seals"] == 4 and stats["gets"] == 4
    assert stats["releases"] == stats["gets"], "a pin leaked"


def test_store_fan_out_shares_one_object(store):
    topo = Topology.build(
        ["pub", "s1", "s2"],
        [
            Connection("pub", "out", "s1", "in", Delay(0)),
            Connection("pub", "out", "s2", "in", Delay(0)),
        ],
    )
    pub = Federate(FederateConfig(fid="pub", store_path=store.socket_path), topo)
    subs = [
        Federate(FederateConfig(fid=f, store_path=store.socket_path), topo)
        for f in ("s1", "s2")
    ]
    sums = {}
    pub.on("tick", lambda ctx: ctx.publish("out", np.ones(100_000)))
    for sub in subs:
        sub.on("in", lambda ctx, fid=sub.fid: sums.setdefault(fid, ctx.value.sum()))
    run_federation(
        topo, [pub, *subs],
        lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick", 0)
        if f.fid == "pub"
        else None,
    )
    assert sums == {"s1": 100_000.0, "s2": 100_000.0}
    stats = store.state.stats()
    assert stats["creates"] == 1, "fan-out should share a single object"
    assert stats["gets"] == 2


def test_fan_out_recycles_every_object_once_read(tmp_path):
    """Forty 1 MiB payloads to two readers through a store that holds
    fifteen: each object is recycled once both readers are done with it,
    so the store never evicts."""
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=16 * 2**20).start()
    topo = Topology.build(
        ["pub", "s1", "s2"],
        [
            Connection("pub", "out", "s1", "in", Delay(0)),
            Connection("pub", "out", "s2", "in", Delay(0)),
        ],
    )
    pub = Federate(FederateConfig(fid="pub", store_path=daemon.socket_path), topo)
    subs = [
        Federate(FederateConfig(fid=f, store_path=daemon.socket_path), topo)
        for f in ("s1", "s2")
    ]
    got = {"s1": [], "s2": []}
    pub.on("tick", lambda ctx: ctx.publish("out", np.full(2**17, ctx.value)))
    for sub in subs:
        sub.on("in", lambda ctx, fid=sub.fid: got[fid].append(ctx.value[0]))
    try:
        results = run_federation(
            topo, [pub, *subs],
            lambda f, s: schedule_ramp(f, s, 40) if f.fid == "pub" else None,
        )
        stats = daemon.state.stats()
    finally:
        daemon.stop()
    assert all(isinstance(r, RunSummary) for r in results.values()), results
    assert got == {fid: [float(i) for i in range(40)] for fid in got}
    assert stats["creates"] == 40 and stats["gets"] == stats["releases"] == 80
    assert stats["evictions"] == 0 and stats["recycled"] == 40


def test_small_payloads_skip_the_store(store):
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=store.socket_path), topo)
    sub = Federate(FederateConfig(fid="sub", store_path=store.socket_path), topo)
    got = []
    pub.on("tick", lambda ctx: ctx.publish("out", [1, 2, 3]))
    sub.on("in", lambda ctx: got.append(ctx.value))
    run_federation(
        topo, [pub, sub],
        lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick", 0)
        if f.fid == "pub"
        else None,
    )
    assert got == [[1, 2, 3]]
    assert store.state.stats()["creates"] == 0


def _publish_once(pub, value):
    """Publish ``value`` from a reaction at the start tag, with its one
    peer connection replaced by a recorder; returns the frames sent."""
    sub = _Recorder()
    pub._peers_out["sub"] = sub
    pub._current = Tag(1_000 * MS, 0)
    pub._executing = True
    try:
        pub.publish("out", value)
    finally:
        pub._executing = False
    return [f for f in sub.frames if f.type != FrameType.NET]


def test_obj_ref_body_is_the_object_id(store):
    """The store object describes itself: the reference is its id alone,
    and the object decodes to the published value."""
    pub = Federate(FederateConfig(fid="pub"), pipeline("pub", "sub"))
    value = {"seq": 7, "data": np.arange(100_000, dtype=np.float64)}
    with StoreClient(store.socket_path) as pub._store:
        (frame,) = _publish_once(pub, value)
        assert frame.type == FrameType.OBJ_REF
        assert len(frame.body) == ID_BYTES
        with pub._store.get(frame.body) as sealed:
            got = deserialize(decode_payload(sealed.view))
    assert got["seq"] == 7 and np.array_equal(got["data"], value["data"])


def test_payload_goes_inline_exactly_when_its_frame_fits(store):
    """At the default eager buffer, a payload whose frame fills the buffer
    rides inline, and one a byte larger goes to the store."""
    eager = ConnectionOptions().eager_buffer_bytes
    overhead = serialize(bytes(4096)).total_bytes() - 4096
    fits = eager - HEADER_BYTES - overhead  # a byte string this long fills a frame
    pub = Federate(FederateConfig(fid="pub"), pipeline("pub", "sub"))
    with StoreClient(store.socket_path) as pub._store:
        (inline,) = _publish_once(pub, bytes(fits))
        (ref,) = _publish_once(pub, bytes(fits + 1))
    assert inline.type == FrameType.TAGGED_MSG
    assert HEADER_BYTES + len(inline.body) == eager
    assert ref.type == FrameType.OBJ_REF
    assert store.state.stats()["creates"] == 1


def test_large_eager_buffer_carries_a_large_payload_inline():
    """With a 2 MiB eager buffer and no store, a 1 MiB array is delivered
    inline: the cutoff is the buffer, not a separate threshold."""
    topo = pipeline("pub", "sub")
    opts = ConnectionOptions(eager_buffer_bytes=2 * 2**20)
    pub = Federate(FederateConfig(fid="pub", connection=opts), topo)
    sub = Federate(FederateConfig(fid="sub", connection=opts), topo)
    got = []
    pub.on("tick", lambda ctx: ctx.publish("out", np.full(2**17, 3.0)))
    sub.on("in", lambda ctx: got.append(ctx.value))
    results = run_federation(
        topo, [pub, sub],
        lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick") if f.fid == "pub" else None,
    )
    assert all(isinstance(r, RunSummary) for r in results.values()), results
    assert len(got) == 1 and got[0].shape == (2**17,) and (got[0] == 3.0).all()


def test_a_stray_connection_takes_no_upstreams_place():
    """A connection to b's listener that sends nothing, open before the
    run starts, leaves the listener open for a: a's message is delivered
    and the federation stops in bounded time."""
    topo = pipeline("a", "b")
    listener = listen("127.0.0.1")
    stray = connect(listener.address)
    a = Federate(FederateConfig(fid="a"), topo)
    b = Federate(FederateConfig(fid="b"), topo, listener=listener)
    got = []
    a.on("tick", lambda ctx: ctx.publish("out", ctx.value))
    b.on("in", lambda ctx: got.append(ctx.value))
    t0 = time.monotonic()
    try:
        results = run_federation(
            topo, [a, b],
            lambda f, s: schedule_ramp(f, s, 1) if f.fid == "a" else None,
            timeout=10,
        )
    finally:
        stray.close()
    assert all(isinstance(r, RunSummary) for r in results.values()), results
    assert got == [0]
    assert time.monotonic() - t0 < 5


def test_only_the_first_hello_of_each_upstream_is_taken():
    """An inbound connection whose first frame is not the hello of an
    upstream still to connect is ended, and the listener closes once
    every upstream has said hello."""
    topo = Topology.build(
        ["a", "b", "sub"],
        [Connection("a", "out", "sub", "in"), Connection("b", "out", "sub", "in")],
    )
    sub = Federate(FederateConfig(fid="sub"), topo, listener=listen("127.0.0.1"))

    def hello(fid):
        return Frame(FrameType.JOIN, Tag(0, 0), body=f'{{"fid": "{fid}"}}'.encode())

    links, open_after = [], []
    not_a_hello = Frame(FrameType.NET, Tag(0, 0))
    for first in (hello("sub"), not_a_hello, hello("a"), hello("a"), hello("b")):
        ours, theirs = socket.socketpair()
        theirs.close()
        link = hprm.loop.Link(FrameConnection(ours), sub._from_upstream)
        link.handle(link, first)
        links.append(link)
        open_after.append(sub._listener.fileno() != -1)
    assert [link.peer for link in links] == [None, None, "a", None, "b"]
    assert [link.done for link in links] == [True, True, False, True, False]
    assert open_after == [True, True, True, True, False]
    for link in links:
        link.conn.close()


def test_malformed_obj_ref_ends_the_inbound_connection(caplog):
    """A 21-byte OBJ_REF body is not an object id: the reader logs the
    fault, fails the run over the lost message, stops reading that
    connection and takes its upstream as gone."""
    topo = pipeline("pub", "sub")
    sub = Federate(FederateConfig(fid="sub"), topo)
    port = topo.port_number("sub", "in")
    feed = _Feed(
        Frame(FrameType.OBJ_REF, Tag(1_000 * MS, 0), port, bytes(ID_BYTES + 1)),
        Frame(FrameType.NET, Tag(2_000 * MS, 0)),
    )
    link = hprm.loop.Link(feed, sub._from_upstream, "pub")
    while not link.done:
        link.handle(link, feed.recv_frame())
    assert sub._watermarks["pub"] == FOREVER
    assert len(feed.frames) == 1  # nothing read past the bad frame
    assert sub.messages_received == 1  # it arrived, and is counted as lost
    assert "inbound connection from pub failed" in caplog.text
    assert isinstance(sub._fatal, DeliveryError), sub._fatal
    assert "'pub'" in str(sub._fatal)


@pytest.mark.parametrize(
    "body, port",
    [(b"\x01garbage", None), (encode_payload(serialize(7)), 99)],
    ids=["undecodable-body", "unknown-port"],
)
def test_undeliverable_frame_is_a_delivery_error(body, port):
    """A data frame whose body does not decode, or whose port id the
    topology does not have, cannot be delivered: run() raises a
    DeliveryError that names the source, rather than going on without it."""
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub"), topo)
    sub = Federate(FederateConfig(fid="sub"), topo)
    got = []
    sub.on("in", lambda ctx: got.append(ctx.value))

    def tick(ctx):
        number = topo.port_number("sub", "in") if port is None else port
        frame = Frame(FrameType.TAGGED_MSG, ctx.tag, number, body)
        ctx.federate._peers_out["sub"].send_frame(frame)
        ctx.federate.request_stop()

    pub.on("tick", tick)
    results = run_federation(
        topo, [pub, sub],
        lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick") if f.fid == "pub" else None,
        timeout=10,
    )
    assert isinstance(results["sub"], DeliveryError), results["sub"]
    assert "'pub'" in str(results["sub"])
    assert got == []


def test_publisher_waits_for_a_slow_reader(tmp_path, monkeypatch):
    """The reader pins each object 30 ms after its reference arrives; the
    publisher creates one per millisecond into a store that holds 23.  It
    keeps at most OBJ_WINDOW references unacknowledged, so no object is
    evicted before its reader pins it.  The reader keeps every array, so
    no object is recycled on release and the store has to evict."""

    class SlowGets(StoreClient):
        def get(self, oid):
            time.sleep(0.03)
            return super().get(oid)

    monkeypatch.setattr(hprm.federate, "StoreClient", SlowGets)
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=24 * 2**20).start()
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=daemon.socket_path), topo)
    sub = Federate(FederateConfig(fid="sub", store_path=daemon.socket_path), topo)
    got, kept = [], []
    pub.on("tick", lambda ctx: ctx.publish("out", np.full(2**17, ctx.value)))

    def keep(ctx):
        got.append(ctx.value[0])
        kept.append(ctx.value)

    sub.on("in", keep)
    try:
        results = run_federation(
            topo, [pub, sub],
            lambda f, s: schedule_ramp(f, s, 40) if f.fid == "pub" else None,
        )
        stats = daemon.state.stats()
    finally:
        daemon.stop()
    assert isinstance(results["sub"], RunSummary), results["sub"]
    assert got == [float(i) for i in range(40)]
    assert stats["evictions"] >= 40 - 23 and stats["gets"] == 40


def test_slow_subscriber_never_pins_more_than_half_the_store(tmp_path):
    """Twelve 1 MiB payloads into a store that holds seven, published
    faster than the subscriber runs: past half the store, queued payloads
    are copied and unpinned, so the publisher's creates keep finding
    room."""
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=8 * 2**20).start()
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=daemon.socket_path), topo)
    sub = Federate(FederateConfig(fid="sub", store_path=daemon.socket_path), topo)
    got, pins, counted = [], [], []
    pub.on("tick", lambda ctx: ctx.publish("out", np.full(2**17, ctx.value)))

    def slow(ctx):
        got.append(ctx.value[0])
        pins.append(sum(1 for q in sub._queue if q.sealed))
        counted.append(
            (sub._pinned_bytes, sum(q.sealed.size for q in sub._queue if q.sealed))
        )
        time.sleep(0.1)

    sub.on("in", slow)
    try:
        results = run_federation(
            topo, [pub, sub],
            lambda f, s: schedule_ramp(f, s, 12, period_ns=20 * MS)
            if f.fid == "pub"
            else None,
        )
        stats = daemon.state.stats()
    finally:
        daemon.stop()
    assert isinstance(results["pub"], RunSummary), results["pub"]
    assert got == [float(i) for i in range(12)]
    assert 1 <= max(pins) <= 3  # 3 MiB of queued pins, then copies
    assert stats["creates"] == 12 and stats["releases"] == stats["gets"] == 12
    assert all(running == summed for running, summed in counted), counted
    assert sub._pinned_bytes == 0


def test_a_late_store_payload_leaves_no_pin_counted(store):
    """Decentralized: a store payload lands below a tag already run, so it
    takes the violation path, which unpins it, never counts it, and lets
    the store recycle it."""
    topo = pipeline("pub", "sub")
    pub = Federate(
        FederateConfig(fid="pub", mode=DECENTRALIZED, store_path=store.socket_path),
        topo,
    )
    sub = Federate(
        FederateConfig(
            fid="sub", mode=DECENTRALIZED, stp_offset_ns=MS,
            store_path=store.socket_path,
        ),
        topo,
    )
    late = []

    def tick(ctx):
        deadline = time.monotonic() + 5
        while not sub.executed and time.monotonic() < deadline:
            time.sleep(0.002)  # publish only once sub ran a later tag
        ctx.publish("out", np.ones(100_000))

    def on_late(ctx):
        late.append(ctx.tag)
        ctx.federate.request_stop()

    pub.on("tick", tick)
    sub.on("local", lambda ctx: None)
    sub.on("in", lambda ctx: None, on_stp_violation=on_late)

    def setup(fed, start):
        port, offset = ("tick", MS) if fed.fid == "pub" else ("local", 2 * MS)
        fed.schedule(Tag(start.time + offset, 0), port)

    results = run_federation(topo, [pub, sub], setup)
    assert isinstance(results["sub"], RunSummary), results["sub"]
    assert results["sub"].stp_violations == 1 and len(late) == 1
    assert sub._pinned_bytes == 0
    stats = store.state.stats()
    assert stats["releases"] == stats["gets"] == stats["recycled"] == 1


def test_shutdown_with_a_queued_pin_returns_at_once(store):
    """The subscriber's run ends while a queued event pins a store
    object.  run() returns at once, and the daemon releases the pin when
    the federate's store session closes.  One reaction of the publisher
    sends a store payload and then an inline message for an earlier tag,
    so both are queued, the payload pinned, before the message's
    reaction raises."""
    topo = Topology.build(
        ["pub", "sub"],
        [
            Connection("pub", "big", "sub", "big", Delay(21 * MS)),
            Connection("pub", "small", "sub", "small", Delay(20 * MS)),
        ],
    )
    pub = Federate(FederateConfig(fid="pub", store_path=store.socket_path), topo)
    sub = Federate(FederateConfig(fid="sub", store_path=store.socket_path), topo)
    raised, pinned = [], []

    def tick(ctx):
        ctx.publish("big", np.ones(100_000))
        ctx.publish("small", "halt")

    def halt(ctx):
        pinned.append(sub._pinned_bytes)
        raised.append(time.monotonic())
        raise RuntimeError("halt with a payload queued")

    pub.on("tick", tick)
    sub.on("big", lambda ctx: None)
    sub.on("small", halt)

    def setup(fed, start):
        if fed.fid == "pub":
            fed.schedule(Tag(start.time + MS, 0), "tick")

    results = run_federation(topo, [pub, sub], setup)
    assert isinstance(results["sub"], RuntimeError), results["sub"]
    assert pinned[0] > 0
    assert time.monotonic() - raised[0] < 2.0
    assert isinstance(results["pub"], RunSummary), results["pub"]
    assert sub._pinned_bytes == 0
    deadline = time.monotonic() + 2
    while store.state.stats()["releases"] < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    assert store.state.stats()["releases"] == 1


@pytest.mark.parametrize("fault", ["timeout", "stopped", "absent"])
def test_failed_store_get_is_a_delivery_error(store, fault):
    """The subscriber cannot read a published object: its store never saw
    it, died, or is not configured.  run() reports the lost message in
    bounded time."""
    sock = tempfile.mktemp(prefix="hprm-fed-store-", suffix=".sock")
    other = StoreDaemon(sock, capacity_bytes=64 * 1024 * 1024).start()
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=store.socket_path), topo)
    sub_store = None if fault == "absent" else sock
    sub = Federate(FederateConfig(fid="sub", store_path=sub_store), topo)
    pub.on("tick", lambda ctx: ctx.publish("out", np.ones(100_000)))
    sub.on("in", lambda ctx: None)

    def setup(fed, start):
        if fed.fid != "pub":
            return
        if fault == "stopped":
            # pub has connected; stop the store once sub's reader runs
            deadline = time.monotonic() + 5
            while not sub._peers_in and time.monotonic() < deadline:
                time.sleep(0.005)
            other.stop()
        fed.schedule(Tag(start.time + MS, 0), "tick", 0)

    t0 = time.monotonic()
    try:
        results = run_federation(topo, [pub, sub], setup)
    finally:
        other.stop()
    assert time.monotonic() - t0 < 0.2 + 5
    assert isinstance(results["sub"], DeliveryError), results["sub"]
    assert "'pub'" in str(results["sub"])
    assert store.state.stats()["creates"] == 1


def test_oversize_payload_without_store_is_a_delivery_error():
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub"), topo)
    sub = Federate(FederateConfig(fid="sub"), topo)
    sub.on("in", lambda ctx: None)
    pub.on("tick", lambda ctx: ctx.publish("out", bytes(10_000_000)))
    results = run_federation(
        topo, [pub, sub],
        lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick", 0)
        if f.fid == "pub"
        else None,
    )
    from hprm.federate import DeliveryError

    assert isinstance(results["pub"], DeliveryError)


def test_failed_store_create_is_a_delivery_error(tmp_path):
    """A payload larger than the whole store: publish raises at once,
    naming the store's status, instead of falling back to nothing."""
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=2**20).start()
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=daemon.socket_path), topo)
    sub = Federate(FederateConfig(fid="sub", store_path=daemon.socket_path), topo)
    pub.on("tick", lambda ctx: ctx.publish("out", np.ones(300_000)))
    sub.on("in", lambda ctx: None)
    try:
        results = run_federation(
            topo, [pub, sub],
            lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick", 0)
            if f.fid == "pub"
            else None,
        )
        stats = daemon.state.stats()
    finally:
        daemon.stop()
    assert isinstance(results["pub"], DeliveryError), results["pub"]
    assert "TOO_LARGE" in str(results["pub"])
    assert stats["creates"] == 0


@pytest.mark.parametrize("with_store", [True, False])
def test_self_loop_publish_skips_the_store(store, with_store):
    """A large value published only to a self-loop is handed over as is:
    no store object is made, and none is needed."""
    topo = Topology.build(
        ["lone"], [Connection("lone", "out", "lone", "in", Delay(MS))]
    )
    path = store.socket_path if with_store else None
    fed = Federate(FederateConfig(fid="lone", store_path=path), topo)
    sent = np.ones(200_000)
    got = []
    fed.on("tick", lambda ctx: ctx.publish("out", sent))
    fed.on("in", lambda ctx: got.append(ctx.value))
    results = run_federation(
        topo, [fed], lambda f, s: f.schedule(Tag(s.time + MS, 0), "tick")
    )
    assert isinstance(results["lone"], RunSummary), results["lone"]
    assert len(got) == 1 and got[0] is sent
    assert store.state.stats()["creates"] == 0


def test_fan_in_opens_one_store_session_per_federate(store, monkeypatch):
    """Two publishers into one collector: three federates, three store
    sessions; the collector's readers share its one session."""
    sessions = []

    class Counted(StoreClient):
        def __init__(self, path):
            super().__init__(path)
            sessions.append(self)

    monkeypatch.setattr(hprm.federate, "StoreClient", Counted)
    topo = Topology.build(
        ["a", "b", "z"],
        [
            Connection("a", "o", "z", "in_a", Delay(0)),
            Connection("b", "o", "z", "in_b", Delay(0)),
        ],
    )
    feds = [
        Federate(FederateConfig(fid=f, store_path=store.socket_path), topo)
        for f in ("a", "b", "z")
    ]
    got = []
    for fed in feds[:2]:
        fed.on("tick", lambda ctx: ctx.publish("o", np.full(100_000, ctx.value)))
    feds[2].on(("in_a", "in_b"), lambda ctx: got.append(ctx.value[0]))
    results = run_federation(
        topo, feds,
        lambda f, s: schedule_ramp(f, s, 5) if f.fid != "z" else None,
    )
    assert all(isinstance(r, RunSummary) for r in results.values()), results
    assert sorted(got) == sorted([float(i) for i in range(5)] * 2)
    assert len(sessions) == 3
    stats = store.state.stats()
    assert stats["creates"] == 10 and stats["gets"] == stats["releases"] == 10


# -- losing a daemon mid-run ---------------------------------------------------


def _join_by(threads, deadline):
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    return [t.name for t in threads if t.is_alive()]


class _Gone:
    """Stands in for a connection whose peer has closed."""

    def send_frame(self, frame):
        raise BrokenPipeError(32, "Broken pipe")

    def close(self):
        pass


@pytest.mark.parametrize("coordinator", ["alive", "gone"])
def test_a_failed_peer_send_is_blamed_on_a_lost_coordinator(coordinator):
    """Peers shut down when the coordinator goes, so a send may fail on a
    peer that read the coordinator's close first.  If the coordinator's
    close is readable, the publish reports that; a peer that vanished on
    its own is a DeliveryError."""
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub"), topo)
    ours, theirs = socket.socketpair()
    pub._rti = FrameConnection(ours)
    pub._loop.watch(pub._rti, pub._from_rti)
    pub._peers_out["sub"] = _Gone()
    if coordinator == "gone":
        theirs.close()
    errors = []

    def tick(ctx):
        try:
            ctx.publish("out", 1)
        except FederateError as exc:
            errors.append(exc)

    pub.on("tick", tick)
    pub.schedule(Tag(MS, 0), "tick")
    try:
        pub._run_batch()
    finally:
        pub._rti.close()
        theirs.close()
    [error] = errors
    if coordinator == "alive":
        assert isinstance(error, DeliveryError), error
        assert "sending to 'sub'" in str(error)
    else:
        assert not isinstance(error, DeliveryError), error
        assert "lost the coordination daemon" in str(error)


def test_losing_the_coordinator_ends_every_run_with_an_error():
    """The coordinator closes while a pub -> mid -> sub pipeline runs: no
    federate hangs waiting for a grant or a stop, each run() raises."""
    topo = pipeline("pub", "mid", "sub")
    feds = [Federate(FederateConfig(fid=f), topo) for f in ("pub", "mid", "sub")]
    pub, mid, sub = feds
    handled = []
    few = threading.Event()
    pub.on("tick", lambda ctx: ctx.publish("out", ctx.value))
    mid.on("in", lambda ctx: ctx.publish("out", ctx.value))

    def collect(ctx):
        handled.append(ctx.value)
        if len(handled) == 5:
            few.set()

    sub.on("in", collect)
    rti, threads, results, ended = start_federates(
        topo, feds,
        lambda f, s: schedule_ramp(f, s, 5000, period_ns=2 * MS)
        if f.fid == "pub"
        else None,
    )
    try:
        assert few.wait(30), results
        closed = time.monotonic()
        rti.close()
        hung = _join_by(threads, closed + 10)
    finally:
        rti.close()
    assert not hung, f"federate threads hung: {hung}"
    for fed in feds:
        result = results[fed.fid]
        assert isinstance(result, FederateError), (fed.fid, result)
        assert "lost the coordination daemon" in str(result), (fed.fid, result)
        assert ended[fed.fid] - closed < 10
    assert len(handled) < 5000


_PUBLISHER = """
import sys
from hprm.federate import Federate, FederateConfig
from hprm.tags import Delay, Tag
from hprm.topology import Connection, Topology

topo = Topology.build(["pub", "sub"], [Connection("pub", "out", "sub", "in", Delay(0))])
pub = Federate(FederateConfig(fid="pub", rti_address=(sys.argv[1], int(sys.argv[2]))), topo)
pub.on("tick", lambda ctx: ctx.publish("out", ctx.value))
start = pub.start()
for i in range(5000):
    pub.schedule(Tag(start.time + i * 2_000_000, 0), "tick", i)
pub.run()
"""


@pytest.mark.parametrize("request_stop", [True, False], ids=["requested", "unasked"])
def test_killing_a_federate_lets_the_survivor_stop_in_bounded_time(request_stop):
    """SIGKILL the publisher's process of a pub -> sub federation mid-run,
    then, or not, have the subscriber request a stop from another thread.
    The dead session counts as a reply to the stop round, so the round
    does not wait on it; and as it ended without RESIGN, the coordinator
    opens the round itself, since the dead federate's last counts never
    came.  Either way the subscriber's run returns within 10 s of the
    kill, and the coordinator ends once every session has."""
    topo = pipeline("pub", "sub")
    rti = RtiServer(topo, startup_offset_ns=30 * MS).start()
    sub = Federate(FederateConfig(fid="sub", rti_address=rti.address), topo)
    handled = []
    few = threading.Event()

    def collect(ctx):
        handled.append(ctx.value)
        if len(handled) == 5:
            few.set()

    sub.on("in", collect)
    results = {}

    def runner():
        try:
            results["sub"] = sub.run()
        except BaseException as exc:  # surfaced to the asserting test
            results["sub"] = exc

    thread = threading.Thread(target=runner, name="run-sub", daemon=True)
    thread.start()
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _PUBLISHER, *map(str, rti.address)],
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    try:
        assert few.wait(30), results
        killed = time.monotonic()
        proc.kill()
        proc.wait(timeout=10)
        if request_stop:
            sub.request_stop()
        hung = _join_by([thread], killed + 10)
        rti.join(timeout=max(0.0, killed + 10 - time.monotonic()))
        rti_alive = rti._thread.is_alive()
    finally:
        rti.close()
        proc.kill()
        proc.wait(timeout=10)
    assert not hung, f"the surviving federate hung: {results}"
    summary = results["sub"]
    assert isinstance(summary, RunSummary), summary
    assert summary.stop_tag is not None
    assert len(handled) < 5000
    assert not rti_alive, "the coordinator outlived every session"


def test_killing_the_store_daemon_ends_the_run_in_bounded_time(tmp_path):
    """SIGKILL the store daemon under a fan-out of 1 MiB payloads to two
    subscribers: the publisher's next store write fails its run with a
    DeliveryError, and every federate returns or raises within the
    store's reply bound plus 10 s."""
    sock = tmp_path / "store.sock"
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hprm.store.daemon", "--socket", str(sock),
         "--capacity-bytes", str(64 * 2**20), "--log-level", "WARNING"],
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    rti = None
    try:
        deadline = time.monotonic() + 15
        while True:
            try:
                with socket.socket(socket.AF_UNIX) as probe:
                    probe.connect(str(sock))
                break
            except OSError:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.02)
        topo = Topology.build(
            ["pub", "s1", "s2"],
            [Connection("pub", "out", s, "in", Delay(0)) for s in ("s1", "s2")],
        )
        feds = [
            Federate(FederateConfig(fid=f, store_path=str(sock)), topo)
            for f in ("pub", "s1", "s2")
        ]
        pub, s1, s2 = feds
        payload = np.ones(2**17)  # 1 MiB
        handled = []
        few = threading.Event()
        pub.on("tick", lambda ctx: ctx.publish("out", payload))

        def collect(ctx):
            handled.append(ctx.tag)
            if len(handled) == 5:
                few.set()

        s1.on("in", collect)
        s2.on("in", lambda ctx: None)
        rti, threads, results, ended = start_federates(
            topo, feds,
            lambda f, s: schedule_ramp(f, s, 2000, period_ns=5 * MS)
            if f.fid == "pub"
            else None,
        )
        assert few.wait(30), results
        killed = time.monotonic()
        proc.kill()
        proc.wait(timeout=10)
        hung = _join_by(threads, killed + REPLY_TIMEOUT_S + 10)
    finally:
        if rti is not None:
            rti.close()
        proc.kill()
        proc.wait(timeout=10)
    assert not hung, f"federate threads hung: {hung}"
    assert isinstance(results["pub"], DeliveryError), results["pub"]
    for fed in feds:
        assert ended[fed.fid] - killed < REPLY_TIMEOUT_S + 10, (fed.fid, results)
        # A subscriber either fails a get or release, or drains and stops.
        assert isinstance(results[fed.fid], (DeliveryError, RunSummary)), results
