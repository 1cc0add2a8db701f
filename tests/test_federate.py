"""Federate runtime tests: whole federations run in-process over loopback."""

import tempfile
import threading
import time

import numpy as np
import pytest

import hprm.federate
from hprm.bench.delayline import DelayListener
from hprm.clock import ManualClock
from hprm.federate import (
    CENTRALIZED,
    DECENTRALIZED,
    DeliveryError,
    Federate,
    FederateConfig,
    FederateError,
    RunSummary,
)
from hprm.rti import RtiServer
from hprm.store import StoreClient
from hprm.store.daemon import StoreDaemon
from hprm.tags import Delay, Tag
from hprm.topology import Connection, Topology
from hprm.transport import FrameListener

MS = 1_000_000


# -- harness ----------------------------------------------------------------


def pipeline(*fids, delay=0):
    """fid1 -> fid2 -> ... each via port 'out' -> 'in'."""
    conns = [
        Connection(a, "out", b, "in", Delay(delay))
        for a, b in zip(fids, fids[1:])
    ]
    return Topology.build(fids, conns)


def run_federation(topology, feds, setup=None, timeout=60.0, startup_ns=30 * MS):
    """Start an in-process coordinator plus one thread per federate.

    ``setup(fed, start_tag)`` runs after the start handshake, before the
    event loop.  Returns {fid: RunSummary-or-exception}.
    """
    rti = RtiServer(topology, host="127.0.0.1", port=0, startup_offset_ns=startup_ns)
    rti.start()
    for fed in feds:
        fed.config.rti_address = rti.address
    results = {}

    def runner(fed):
        try:
            start = fed.start()
            if setup is not None:
                setup(fed, start)
            results[fed.fid] = fed.run()
        except BaseException as exc:  # surfaced to the asserting test
            results[fed.fid] = exc

    threads = [
        threading.Thread(target=runner, args=(f,), name=f"run-{f.fid}")
        for f in feds
    ]
    for t in threads:
        t.start()
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


def test_config_inline_threshold_must_fit_eager_buffer():
    with pytest.raises(ValueError):
        FederateConfig(fid="f", inline_threshold=2**20)


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
        return fed._gate_wait_ns(head, clock.now_ns())

    central = Federate(FederateConfig(fid="b"), topo, clock=clock)
    central._watermarks["a"] = Tag(100 * MS, 0)
    assert gate(central) == 0  # no grant yet
    central._granted = head.tag
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


def test_publisher_waits_for_a_slow_reader(tmp_path, monkeypatch):
    """The reader pins each object 30 ms after its reference arrives; the
    publisher creates one per millisecond into a store that holds 23.  It
    keeps at most OBJ_WINDOW references unacknowledged, so no object is
    evicted before its reader pins it."""

    class SlowGets(StoreClient):
        def get(self, oid, timeout_ns=None):
            time.sleep(0.03)
            return super().get(oid, timeout_ns)

    monkeypatch.setattr(hprm.federate, "StoreClient", SlowGets)
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=24 * 2**20).start()
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=daemon.socket_path), topo)
    sub = Federate(
        FederateConfig(
            fid="sub", store_path=daemon.socket_path, store_get_timeout_ns=500 * MS
        ),
        topo,
    )
    got = []
    pub.on("tick", lambda ctx: ctx.publish("out", np.full(2**17, ctx.value)))
    sub.on("in", lambda ctx: got.append(ctx.value[0]))
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
    got, pins = [], []
    pub.on("tick", lambda ctx: ctx.publish("out", np.full(2**17, ctx.value)))

    def slow(ctx):
        got.append(ctx.value[0])
        pins.append(sum(1 for q in sub._queue if q.sealed))
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


@pytest.mark.parametrize("fault", ["timeout", "stopped"])
def test_failed_store_get_is_a_delivery_error(store, fault):
    """The subscriber cannot read a published object: its store never saw
    it, or died.  run() reports the lost message in bounded time."""
    sock = tempfile.mktemp(prefix="hprm-fed-store-", suffix=".sock")
    other = StoreDaemon(sock, capacity_bytes=64 * 1024 * 1024).start()
    timeout_ns = 200 * MS
    topo = pipeline("pub", "sub")
    pub = Federate(FederateConfig(fid="pub", store_path=store.socket_path), topo)
    sub = Federate(
        FederateConfig(
            fid="sub", store_path=sock, store_get_timeout_ns=timeout_ns
        ),
        topo,
    )
    pub.on("tick", lambda ctx: ctx.publish("out", np.ones(100_000)))
    sub.on("in", lambda ctx: None)

    def setup(fed, start):
        if fed.fid != "pub":
            return
        if fault == "stopped":
            # pub has connected, so sub's reader and its store client exist
            deadline = time.monotonic() + 5
            while not sub._reader_stores and time.monotonic() < deadline:
                time.sleep(0.005)
            other.stop()
        fed.schedule(Tag(start.time + MS, 0), "tick", 0)

    t0 = time.monotonic()
    try:
        results = run_federation(topo, [pub, sub], setup)
    finally:
        other.stop()
    assert time.monotonic() - t0 < timeout_ns / 1e9 + 5
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
