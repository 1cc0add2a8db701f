"""Coordination rules: registration, grant emission, the stop round.

The coordinator acknowledges each federate's finite announcement with a
grant of it, to it alone; ordering is left to each federate's arrival
floor, and the stop takes two phases.  The two randomized simulations at
the bottom are the safety net.  Both run whole federations (random DAGs
and delayed cycles, random event sets) against RtiState, and assert
after every step that no federate ever receives an event at or below a
tag it already processed (ordering safety) and that the federation
always drains (deadlock freedom).  The first delivers every announcement
atomically and checks each grant against the federate's own
announcement.  The second runs real federates over FIFO links that carry
data and announcements with random delays, so the arrival floor alone
must hold each tag back until its input is in; the federates report to
the coordinator only while idle, and the coordinator runs the stop round
on a request at a random step, on autostop, or when a federate killed at
a random step leaves without resigning.
"""

import heapq
import json
import random
import select
import threading
import time
from collections import deque

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hprm.clock import ManualClock
from hprm.federate import Federate, FederateConfig
from hprm.loop import Link
from hprm.rti import Phase, RtiProtocolError, RtiServer, RtiState, encode_progress
from hprm.tags import FOREVER, NEVER, NO_DELAY, Delay, Tag, bound_tag, delay_tag
from hprm.topology import Connection, Topology, TopologyError
from hprm.transport import Frame, FrameListener, FrameType, connect, decode_progress

MS = 1_000_000
S = 1_000_000_000


def make_state(connections, federates, offset_ns=0):
    return RtiState(
        Topology.build(federates, connections), startup_offset_ns=offset_ns
    )


def join_all(state):
    for fid in state.topology.federates:
        state.register(fid, 0, ("127.0.0.1", 1))


# -- registration -------------------------------------------------------------


def test_start_tag_is_latest_clock_plus_offset():
    """The last join answers every federate with a START at the start
    tag, carrying every federate's address."""
    state = make_state([], ["a", "b", "c"], offset_ns=100 * MS)
    assert state.register("a", 50, ("h", 1)) == []
    assert state.register("b", 900, ("h", 2)) == []
    out = state.register("c", 100, ("h", 3))
    tag = Tag(900 + 100 * MS, 0)
    assert [(fid, f.type, f.tag) for fid, f in out] == [
        (fid, FrameType.START, tag) for fid in ("a", "b", "c")
    ]
    assert json.loads(out[0][1].body) == {
        "addresses": {"a": ["h", 1], "b": ["h", 2], "c": ["h", 3]}
    }
    assert state.start_tag == tag
    assert state.phase is Phase.RUNNING


def test_duplicate_or_unknown_join_rejected():
    state = make_state([], ["a", "b"])
    state.register("a", 0, ("h", 1))
    with pytest.raises(RtiProtocolError):
        state.register("a", 0, ("h", 1))
    with pytest.raises(RtiProtocolError):
        state.register("ghost", 0, ("h", 1))


# -- grant emission --------------------------------------------------------------


def test_delayed_upstream_bounds_downstream_grant():
    """A delayed upstream no longer bounds p's grant: p's arrival floor
    does that.  Each federate is granted its own announcement."""
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(200 * MS))], ["p", "s"]
    )
    join_all(state)
    assert state.handle_net("p", Tag(1 * S, 0)) == [Tag(1 * S, 0)]  # upstream silent
    assert state.handle_net("s", Tag(100 * MS, 0)) == [Tag(100 * MS, 0)]  # to s alone


def test_grant_capped_at_announcement():
    """A grant is exactly the announcement, whatever the upstream says."""
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(200 * MS))], ["p", "s"]
    )
    join_all(state)
    assert state.handle_net("p", Tag(150 * MS, 0)) == [Tag(150 * MS, 0)]
    assert state.handle_net("s", Tag(500 * MS, 0)) == [Tag(500 * MS, 0)]


def test_forever_announcement_emits_no_grant_but_unblocks_downstream():
    """``FOREVER`` asks for nothing and is granted nothing.  Downstream it
    unblocks the arrival floor, and here it counts towards the autostop."""
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(200 * MS))], ["p", "s"]
    )
    join_all(state)
    assert state.handle_net("s", Tag(10, 0)) == [Tag(10, 0)]
    assert state.handle_net("p", Tag(1 * S, 0)) == [Tag(1 * S, 0)]
    assert state.handle_net("s", FOREVER) == []
    assert not state.autostop_ready()
    assert state.handle_net("p", FOREVER) == []
    assert state.autostop_ready()


def test_grants_are_monotone_per_federate():
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(10))], ["p", "s"]
    )
    join_all(state)
    assert state.handle_net("p", Tag(1000, 0)) == [Tag(1000, 0)]
    assert state.handle_net("s", Tag(100, 0)) == [Tag(100, 0)]
    assert state.handle_net("s", Tag(100, 0)) == []  # same announcement: no new grant
    assert state.handle_net("s", Tag(100, 1)) == [Tag(100, 1)]
    assert state.handle_net("p", Tag(1000, 0)) == []  # s moved: nothing for p


def test_net_regression_rejected():
    state = make_state([], ["a"])
    join_all(state)
    state.handle_net("a", Tag(100, 0))
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", Tag(50, 0))
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", NEVER)


def test_completion_may_pass_the_grant():
    """Federates run ahead of their grants, and report only while idle:
    a completed tag past the last grant is accepted."""
    state = make_state([], ["a"])
    join_all(state)
    state.handle_net("a", Tag(100, 0))  # grants (100, 0)
    assert state.handle_net("a", Tag(300, 0), completed=Tag(200, 0)) == [Tag(300, 0)]
    assert state.records["a"].completed == Tag(200, 0)


def test_completion_is_monotone_and_idempotent():
    state = make_state([], ["a"])
    join_all(state)
    state.handle_net("a", Tag(100, 0))
    assert state.handle_net("a", Tag(100, 0), completed=Tag(100, 0)) == []
    assert state.handle_net("a", Tag(100, 0), completed=Tag(100, 0)) == []  # repeat
    state.handle_net("a", Tag(300, 0), completed=Tag(100, 0))
    state.handle_net("a", Tag(300, 0), completed=Tag(300, 0))
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", Tag(300, 0), completed=Tag(100, 0))  # regression
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", Tag(300, 0))  # NEVER: "none yet" is a regression too
    assert state.records["a"].completed == Tag(300, 0)


def test_progress_body_round_trip():
    body = encode_progress(True, 7, 5, Tag(123, 4))
    assert decode_progress(body) == (True, 7, 5, Tag(123, 4))
    assert decode_progress(encode_progress(False, 0, 0)) == (False, 0, 0, NEVER)
    with pytest.raises(ValueError):
        decode_progress(body[:-1])


def test_resign_unblocks_downstream():
    """Resigning grants nothing.  The resigned federate counts as having
    announced ``FOREVER``, so it holds up no autostop (its closed data
    connections unblock the downstream floor)."""
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(10))], ["p", "s"]
    )
    join_all(state)
    state.handle_net("s", Tag(5, 0))
    assert state.handle_net("p", Tag(777, 0), queue_empty=True) == [Tag(777, 0)]
    assert not state.autostop_ready()
    assert state.handle_frame("s", Frame(FrameType.RESIGN, Tag(0, 0))) == []
    assert state.end("s") == []  # it resigned: its session's end asks for nothing
    assert state.records["s"].announced == FOREVER
    assert state.autostop_ready()
    with pytest.raises(RtiProtocolError):
        state.handle_net("s", Tag(10, 0))


# -- shutdown ----------------------------------------------------------------------


def test_autostop_when_everyone_announces_forever():
    state = make_state(
        [Connection("a", "out", "b", "in", NO_DELAY)], ["a", "b"]
    )
    join_all(state)
    state.handle_net("a", Tag(1 * S, 0))
    state.handle_net("b", Tag(1 * S, 1))
    assert not state.autostop_ready()
    state.handle_net("a", FOREVER, completed=Tag(1 * S, 0))
    assert not state.autostop_ready()
    state.handle_net("b", FOREVER, completed=Tag(1 * S, 1))
    assert state.autostop_ready()
    stop = state.initiate_stop()
    assert stop == Tag(1 * S, 2)  # one microstep past the last completion
    assert state.initiate_stop() is stop  # idempotent


def test_stop_tag_example_all_completed_at_one_second():
    state = make_state([], ["a", "b"])
    join_all(state)
    for fid in ("a", "b"):
        state.handle_net(fid, Tag(1 * S, 0))
        state.handle_net(fid, FOREVER, completed=Tag(1 * S, 0))
    assert state.initiate_stop() == Tag(1 * S, 1)


def test_autostop_by_quiescence_counting_on_delayed_cycle():
    # Around a delayed cycle, announcements never reach FOREVER; the
    # sent/received totals are what prove the federation has drained.
    state = make_state(
        [
            Connection("a", "out", "b", "in", Delay(5)),
            Connection("b", "out", "a", "in", Delay(5)),
        ],
        ["a", "b"],
    )
    join_all(state)
    state.handle_net("a", Tag(10, 0), queue_empty=True, sent=1, received=0)
    state.handle_net("b", Tag(15, 0), queue_empty=True, sent=0, received=0)
    assert not state.autostop_ready()  # a message is still in flight
    state.handle_net("b", Tag(15, 0), queue_empty=False, sent=0, received=1)
    assert not state.autostop_ready()  # b went busy with it
    state.handle_net("b", Tag(20, 0), queue_empty=True, sent=0, received=1)
    assert state.autostop_ready()


def test_autostop_waits_out_a_report_made_stale_by_later_input():
    """Reports are read at different times.  x reported idle, then ran
    w's message and sent one to v and one to y.  v ran its message and
    reported; y's is still in flight.  w's send and v's receipt balance
    the totals, but v completed a tag past x's announcement, which shows
    x's report is stale."""
    state = make_state([], ["v", "w", "x", "y"])
    join_all(state)
    state.handle_net("y", Tag(10, 1), queue_empty=True)
    state.handle_net("x", Tag(10, 0), queue_empty=True)
    state.handle_net("w", Tag(5, 0))
    state.handle_net("w", FOREVER, sent=1, completed=Tag(5, 0))
    state.handle_net("v", Tag(10, 1), received=1)
    state.handle_net("v", Tag(10, 2), queue_empty=True, received=1, completed=Tag(10, 1))
    assert not state.autostop_ready()  # y's message is in flight
    state.handle_net(
        "x", Tag(15, 0), queue_empty=True, sent=2, received=1, completed=Tag(10, 0)
    )
    assert not state.autostop_ready()  # now the totals show it
    state.handle_net("y", Tag(15, 0), queue_empty=True, received=1, completed=Tag(10, 1))
    assert state.autostop_ready()


def test_counter_regression_rejected():
    state = make_state([], ["a"])
    join_all(state)
    state.handle_net("a", Tag(10, 0), queue_empty=False, sent=5, received=2)
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", Tag(20, 0), queue_empty=False, sent=4, received=2)


ASK = Frame(FrameType.STOP, FOREVER)


def test_stop_requested_before_start_is_deferred():
    """A request made while registering opens the stop round right after
    the STARTs, which the last join returns."""
    state = make_state([], ["a", "b"])
    state.register("a", 0, ("h", 1))
    assert state.handle_frame("a", ASK) == []
    out = state.register("b", 0, ("h", 2))
    assert [(fid, f.type) for fid, f in out[:2]] == [
        ("a", FrameType.START), ("b", FrameType.START)
    ]
    assert out[2:] == [("a", ASK), ("b", ASK)]
    assert state.advance() == []  # no one has replied
    assert state.handle_frame("a", Frame(FrameType.STOP, NEVER)) == []
    assert state.advance() == []  # b has not replied
    assert state.handle_frame("b", Frame(FrameType.STOP, NEVER)) == []
    stop = Frame(FrameType.STOP, delay_tag(state.start_tag, NO_DELAY))
    assert state.advance() == [("a", stop), ("b", stop)]
    assert state.advance() == []


def test_stop_round_waits_for_every_live_reply():
    """A STOP at FOREVER opens the round, which asks every live federate;
    the stop tag goes out once each has replied or resigned, one
    microstep past every reply and every completed tag."""
    state = make_state([], ["a", "b", "c"])
    join_all(state)
    state.handle_net("c", Tag(900, 0))
    state.handle_net("c", FOREVER, completed=Tag(700, 0))
    assert state.handle_frame("a", ASK) == [("a", ASK), ("b", ASK), ("c", ASK)]
    assert state.handle_frame("b", ASK) == []  # the round is open already
    assert state.handle_frame("a", Frame(FrameType.STOP, Tag(500, 3))) == []
    with pytest.raises(RtiProtocolError):
        state.handle_frame("a", Frame(FrameType.STOP, Tag(500, 3)))  # replied twice
    assert state.handle_frame("c", Frame(FrameType.STOP, Tag(600, 0))) == []
    assert state.advance() == []
    assert state.end("b") == []  # its session ended; the round is open already
    stop = Frame(FrameType.STOP, Tag(700, 1))
    assert state.advance() == [("a", stop), ("c", stop)]
    assert state.initiate_stop() == Tag(700, 1)


def test_a_reply_without_a_stop_round_is_rejected():
    state = make_state([], ["a"])
    join_all(state)
    with pytest.raises(RtiProtocolError):
        state.handle_frame("a", Frame(FrameType.STOP, Tag(5, 0)))
    with pytest.raises(RtiProtocolError):
        state.handle_frame("a", Frame(FrameType.JOIN, Tag(0, 0)))
    assert state.handle_frame("a", Frame(FrameType.RESIGN, Tag(0, 0))) == []
    assert state.records["a"].resigned


def test_a_session_ending_without_resign_opens_the_stop_round():
    """A killed federate's last counts never come, so autostop might never
    fire: the end of its session opens the round, which it counts as
    having answered."""
    state = make_state([], ["a", "b"])
    join_all(state)
    assert state.end("a") == [("b", ASK)]
    assert state.end("a") == []
    assert state.records["a"].announced == FOREVER
    assert state.handle_frame("b", Frame(FrameType.STOP, NEVER)) == []
    stop = Frame(FrameType.STOP, delay_tag(state.start_tag, NO_DELAY))
    assert state.advance() == [("b", stop)]


def test_autostop_opens_the_stop_round():
    state = make_state([], ["a", "b"])
    join_all(state)
    state.handle_net("a", Tag(10, 0))
    body = encode_progress(True, 0, 0, Tag(10, 0))
    assert state.handle_frame("a", Frame(FrameType.NET, FOREVER, body=body)) == []
    assert state.advance() == []
    grant = ("b", Frame(FrameType.TAG_GRANT, Tag(20, 0)))
    assert state.handle_frame("b", Frame(FrameType.NET, Tag(20, 0), body=body)) == [grant]
    assert state.advance() == [("a", ASK), ("b", ASK)]
    assert state.phase is Phase.STOPPING
    assert state.advance() == []


# -- the socket front end -----------------------------------------------------------


def test_server_grants_a_three_argument_progress_report():
    """A lone federate with no inputs is granted what it announces, also
    when its report carries no completed tag (the benchmark's grant probe
    sends exactly this)."""
    server = RtiServer(Topology.build(["solo"], []), startup_offset_ns=0).start()
    try:
        with FrameListener() as listener, connect(server.address, retry_for=5.0) as conn:
            join = {"fid": "solo", "clock_ns": 0, "address": list(listener.address)}
            conn.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=json.dumps(join).encode()))
            start = conn.recv_frame()
            assert start.type == FrameType.START
            progress = encode_progress(False, 0, 0)
            for i in range(1, 4):
                tag = Tag(start.tag.time + i, 0)
                conn.send_frame(Frame(FrameType.NET, tag, body=progress))
                grant = conn.recv_frame()
                assert (grant.type, grant.tag) == (FrameType.TAG_GRANT, tag)
            conn.send_frame(Frame(FrameType.RESIGN, tag))
        server.join(timeout=5)
        assert server.state.records["solo"].resigned
    finally:
        server.close()


def test_stray_connections_take_no_place_on_the_roster():
    """Before the only federate joins, one connection closes at once and
    one stays open and silent.  Neither holds the federate's place: it
    starts at once.  The silent one is closed once the roster is
    complete, so the server ends after the federate resigns."""
    topology = Topology.build(["solo"], [])
    server = RtiServer(topology, startup_offset_ns=0).start()
    fed = Federate(FederateConfig(fid="solo", rti_address=server.address), topology)
    try:
        with connect(server.address, retry_for=5.0) as silent:
            connect(server.address, retry_for=5.0).close()
            time.sleep(0.2)  # the server takes both before the federate connects
            began = time.monotonic()
            fed.start()
            assert time.monotonic() - began < 2.0
            summaries = []  # it has nothing to run, so it autostops at once
            runner = threading.Thread(target=lambda: summaries.append(fed.run()), daemon=True)
            runner.start()
            runner.join(timeout=10)
            assert [s.status for s in summaries] == ["completed"]
            server.join(timeout=5)
            assert not server._thread.is_alive(), "the server outlived every session"
            assert select.select([silent], [], [], 5)[0]
            assert silent.recv_frame() is None
    finally:
        server.close()


def test_a_join_whose_body_is_not_an_object_ends_only_its_session():
    """A protocol error, like any other: the server closes that session
    and goes on serving."""
    topology = Topology.build(["solo"], [])
    server = RtiServer(topology, startup_offset_ns=0).start()
    try:
        with connect(server.address, retry_for=5.0) as stray:
            stray.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=b"[]"))
            assert stray.recv_frame() is None
        server.join(timeout=0.5)
        assert server._thread.is_alive(), "the server ended with the stray session"
        fed = Federate(FederateConfig(fid="solo", rti_address=server.address), topology)
        assert fed.start() == server.state.start_tag
        fed.request_stop()
        assert fed.run().status == "completed"
    finally:
        server.close()


# -- randomized federation simulation ------------------------------------------------


class _SimFederate:
    def __init__(self, fid):
        self.fid = fid
        self.queue = []
        self.granted = NEVER
        self.current = NEVER
        self.processed = []
        self.completed = NEVER
        self.sent = 0
        self.received = 0


def _floor(fed, state, start_tag):
    """Earliest tag that can still arrive at fed over any input.

    Uses per-edge watermarks that start at the federation start tag
    (nothing may be sent earlier) and rise with upstream announcements.
    An upstream may still deliver *at* the floor, so processing a tag
    requires the floor to be strictly past it.
    """
    floor = FOREVER
    for edge in state.topology.inputs_of(fed.fid):
        upstream = state.records[edge.src]
        watermark = upstream.announced if upstream.announced != NEVER else start_tag
        floor = min(floor, bound_tag(watermark, edge.delay))
    return floor


def _promise(fed, state, start_tag):
    """What the federate announces: queue head, floored by what can arrive."""
    head = fed.queue[0] if fed.queue else FOREVER
    return min(head, _floor(fed, state, start_tag))


def _oracle_bound(state, fid):
    """The largest grant fid may get: its own announcement."""
    return state.records[fid].announced


#: Processing stops emitting downstream events past this time, modeling
#: programs whose reactions eventually stop publishing.  Without it a
#: delayed cycle regenerates events forever and the run never drains.
_SIM_HORIZON = 150


def run_federation_simulation(topology, initial_events, seed):
    rng = random.Random(seed)
    state = RtiState(topology, startup_offset_ns=0)
    join_all(state)
    start_tag = state.start_tag
    feds = {fid: _SimFederate(fid) for fid in topology.federates}
    for fid, tags in initial_events.items():
        for tag in tags:
            heapq.heappush(feds[fid].queue, tag)

    def apply_grants(fid, grants):
        for grant in grants:
            assert grant <= _oracle_bound(state, fid), (
                f"unsafe grant {grant!r} vs bound {_oracle_bound(state, fid)!r}"
            )
            assert grant > feds[fid].granted, "grant not monotone"
            feds[fid].granted = grant

    def announce(fed):
        promise = _promise(fed, state, start_tag)
        announced = state.records[fed.fid].announced
        assert promise >= announced or announced == NEVER, (
            "promise regressed: arrival raced past an announcement"
        )
        apply_grants(
            fed.fid,
            state.handle_net(
                fed.fid,
                promise,
                queue_empty=not fed.queue,
                sent=fed.sent,
                received=fed.received,
                completed=fed.completed,
            )
        )
        return promise != announced

    def ready_federates():
        return [
            f
            for f in feds.values()
            if f.queue and _floor(f, state, start_tag) > f.queue[0]
        ]

    def flush_until_ready():
        # Around a delayed cycle with empty queues, announcements ratchet
        # upward indefinitely, so the fixpoint must stop as soon as some
        # federate can run; quiescence is handled before flushing.
        for _ in range(100_000):
            ready = ready_federates()
            if ready:
                return ready
            changed = [announce(fed) for fed in feds.values()]
            if not any(changed):
                return ready_federates()
        raise AssertionError("announcement fixpoint failed to converge")

    total_processed = 0
    while True:
        if all(not f.queue for f in feds.values()):
            break  # quiescent; the counting check below must notice
        ready = flush_until_ready()
        assert ready, "deadlock: events remain but nothing is processable"
        fed = rng.choice(ready)
        tag = fed.queue[0]
        assert tag > fed.current, "processing went backwards"
        while fed.queue and fed.queue[0] == tag:
            heapq.heappop(fed.queue)
        fed.current = tag
        fed.processed.append(tag)
        total_processed += 1
        if tag.time <= _SIM_HORIZON:
            for edge in topology.outputs_of(fed.fid):
                arrival = delay_tag(tag, edge.delay)
                target = feds[edge.dst]
                assert arrival > target.current, (
                    f"late arrival: {arrival!r} after {edge.dst} processed "
                    f"{target.current!r}"
                )
                heapq.heappush(target.queue, arrival)
                fed.sent += 1
                target.received += 1
        # The completion rides on the report that processing always
        # triggers: the promise was the tag itself, and is now past it.
        fed.completed = tag
        assert announce(fed), "a completed tag went unreported"

    for _ in range(10_000):  # final quiescence reports
        # Around a delayed cycle the promises must first ratchet past
        # the last completed tag.
        for fed in feds.values():
            announce(fed)
        if state.autostop_ready():
            break
    assert state.autostop_ready(), "drained federation should be stoppable"
    stop = state.initiate_stop()
    for fed in feds.values():
        assert all(t < stop for t in fed.processed)
        assert fed.processed == sorted(fed.processed)
    return total_processed


@st.composite
def federation_cases(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    federates = [f"f{i}" for i in range(n)]
    edge_count = draw(st.integers(min_value=1, max_value=14))
    connections = []
    for k in range(edge_count):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1))
        delay = draw(st.sampled_from([0, 0, 0, 5, 40]))
        edge = Connection(federates[src], f"o{k}", federates[dst], f"i{k}", Delay(delay))
        # Repaired rather than filtered out, which would discard most
        # draws: an edge closing a zero-delay cycle gets a delay.
        try:
            Topology.build(federates, (*connections, edge))
        except TopologyError:
            edge = Connection(edge.src, edge.src_port, edge.dst, edge.dst_port, Delay(5))
        connections.append(edge)
    topology = Topology.build(federates, connections)
    busy = draw(st.integers(0, n - 1))  # holds at least one event
    initial = {}
    for i, fid in enumerate(federates):
        tags = draw(
            st.lists(
                st.tuples(st.integers(0, 60), st.integers(0, 2)).map(
                    lambda p: Tag(p[0], p[1])
                ),
                min_size=1 if i == busy else 0,
                max_size=5,
            )
        )
        initial[fid] = tags
    seed = draw(st.integers(0, 2**32 - 1))
    return topology, initial, seed


@given(federation_cases())
@settings(max_examples=120, deadline=None)
def test_random_federations_run_safely_to_completion(case):
    topology, initial, seed = case
    processed = run_federation_simulation(topology, initial, seed)
    assert processed > 0


# -- the arrival floor alone, over FIFO links -----------------------------------------


class _Fifo(deque):
    """One direction of a connection: frames in the order sent, then None
    once it is closed."""

    send_frame = deque.append

    def close(self):
        self.append(None)


#: A run that takes more steps than this to halt has stalled.
_FIFO_STEP_BOUND = 50_000


class _Stalled(AssertionError):
    """A run took more than ``_FIFO_STEP_BOUND`` steps to halt."""


def run_fifo_federation(topology, initial_events, seed, *, stop_at=None, kill_at=None):
    """Run real centralized federates, wired by in-memory FIFO links,
    until every one has halted, delivering the head of a randomly chosen
    link at each step.

    Each pair of peers shares one link for data and announcements, and
    each federate has one link to the coordinator (an RtiState) and one
    back.  A random federate requests a stop at step ``stop_at``; with
    None the federation runs until the coordinator's autostop.  A random
    federate dies at step ``kill_at``: the links it writes close without
    RESIGN, and it does nothing more.  Returns the number of events
    run."""
    rng = random.Random(seed)
    state = RtiState(topology, startup_offset_ns=0)
    join_all(state)
    clock = ManualClock(FOREVER.time)  # the clock never gates
    feds, links, ends, to_rti, from_rti = {}, {}, {}, {}, {}
    counts = {"created": 0, "ran": 0}
    executed = {fid: [] for fid in topology.federates}
    killed = set()

    for fid in topology.federates:
        fed = Federate(FederateConfig(fid=fid), topology, clock=clock)
        fed.start_tag = state.start_tag
        fed._rti = to_rti[fid] = _Fifo()
        from_rti[fid] = _Fifo()
        for src in fed._upstream:
            fed._watermarks[src] = state.start_tag
        for dst in fed._downstream:
            fed._peers_out[dst] = links[fid, dst] = _Fifo()
            ends[fid, dst] = Link(None, None, peer=fid)  # as dst reads it
        outs = sorted({c.src_port for c in fed._out_edges})
        published = [NEVER]

        def react(ctx, outs=outs, published=published):
            # Like the atomic simulation: one output per tag, however
            # many events the tag holds.
            counts["ran"] += 1
            if ctx.tag.time <= _SIM_HORIZON and ctx.tag > published[0]:
                published[0] = ctx.tag
                for port in outs:
                    counts["created"] += ctx.publish(port, None)

        for port in {"init", *(c.dst_port for c in topology.inputs_of(fid))}:
            fed.on(port, react)
        for tag in initial_events[fid]:
            fed.schedule(tag, "init")
            counts["created"] += 1
        fed._started = True
        feds[fid] = fed
    for fed in feds.values():
        fed._report_progress(force=True)

    def stop_tag():
        return state._stop_tag

    def live():
        return [f for f in feds.values() if not f._finished and f.fid not in killed]

    def kill(fed):
        killed.add(fed.fid)
        to_rti[fed.fid].close()
        for dst in fed._downstream:
            links[fed.fid, dst].close()

    def runnable(fed):
        head = fed._head()
        return head is not None and fed._gate_wait_ns(head, clock.now_ns()) is None

    def halting(fed):
        # What Federate.run checks before it halts.
        stop = fed._stop_tag
        return stop is not None and fed._head() is None and fed._floor() > stop

    def run(fed):
        fed._execute_batch(fed._pop_batch())
        if executed[fed.fid]:
            assert fed._current > executed[fed.fid][-1], "processing went backwards"
        executed[fed.fid].append(fed._current)

    def halt(fed):
        fed._shutdown("completed")  # RESIGN, then every link closes

    def in_flight():
        """Data on its way to a federate that has not died."""
        return [
            f for (_, dst), link in links.items() if dst not in killed for f in link
            if f is not None and f.type == FrameType.TAGGED_MSG
        ]

    def at_coordinator(fid, frame):
        out = state.end(fid) if frame is None else state.handle_frame(fid, frame)
        running = state.phase is Phase.RUNNING
        out += state.advance()
        if running and state.phase is not Phase.RUNNING:
            flying = in_flight()
            assert not flying, f"autostop with {len(flying)} messages in flight"
            busy = [f.fid for f in feds.values() if f._queue]
            assert not busy, f"autostop while {busy} still hold events"
        for dst, reply in out:
            from_rti[dst].send_frame(reply)

    def at_federate(fid, frame):
        if not feds[fid]._finished:
            feds[fid]._from_rti(None, frame)

    def at_peer(src, dst, frame):
        fed = feds[dst]
        if fed._finished:
            assert frame is None or frame.type != FrameType.TAGGED_MSG or (
                frame.tag > stop_tag()
            ), f"{dst} halted before its message at {frame.tag!r}"
            return
        if frame is not None and frame.type == FrameType.TAGGED_MSG:
            assert frame.tag > fed._current, (
                f"{dst} got data at {frame.tag!r} after running {fed._current!r}"
            )
        fed._from_upstream(ends[src, dst], frame)

    steps = 0
    while live():
        if steps == stop_at:
            rng.choice(live()).request_stop()
        if steps == kill_at:
            kill(rng.choice(live()))
        actions = [
            (at_peer, key, link) for key, link in links.items()
            if link and key[1] not in killed
        ] + [
            (at_coordinator, (fid,), link) for fid, link in to_rti.items() if link
        ] + [
            (at_federate, (fid,), link) for fid, link in from_rti.items()
            if link and fid not in killed
        ] + [
            (run, (fed,), None) for fed in live() if runnable(fed)
        ] + [
            (halt, (fed,), None) for fed in live() if halting(fed)
        ]
        assert actions, "deadlock: events remain but nothing can move"
        steps += 1
        if steps > _FIFO_STEP_BOUND:
            raise _Stalled(f"no halt within {steps} steps")
        handle, args, link = rng.choice(actions)
        if link is None:
            handle(*args)
        else:
            handle(*args, link.popleft())
        for fed in feds.values():
            if fed._fatal is not None:
                raise fed._fatal

    stop = stop_tag()
    survivors = [fed for fed in feds.values() if fed.fid not in killed]
    assert all(fed._stop_tag == stop for fed in survivors)
    for fed in survivors:
        tags = executed[fed.fid]
        assert all(t <= stop for t in tags), (fed.fid, tags, stop)
    late = [f.tag for f in in_flight() if f.tag <= stop]
    assert not late, f"messages at {late} never received"
    if stop_at is None and not killed:
        assert counts["ran"] == counts["created"], "an event never ran"
    return counts["ran"]


@pytest.fixture
def stalled():
    """The example of one test that stalled, and its error, shared by all
    its examples.  A stalled run fails only after ``_FIFO_STEP_BOUND``
    steps, and shrinking would replay a stall at every step it keeps,
    for many minutes.  So once one has stalled, every other example is
    rejected, and a replay of it fails again at once (a run is
    deterministic): it is reported as drawn."""
    return []


@pytest.mark.parametrize("stop", ["requested", "autostop", "killed"])
@given(case=federation_cases(), step=st.integers(0, 300))
@settings(
    max_examples=400,
    deadline=None,
    # ``stalled`` is meant to outlive each example.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_arrival_floor_alone_orders_events_over_fifo_links(stop, case, step, stalled):
    """``killed``: a federate dies at a random step, and the survivors
    still stop together, at one stop tag, having received everything up
    to it."""
    if stalled:
        example, error = stalled
        assume(example == (case, step))
        raise _Stalled(*error.args).with_traceback(error.__traceback__)
    topology, initial, seed = case
    stop_at = step if stop == "requested" else None
    kill_at = step if stop == "killed" else None
    try:
        ran = run_fifo_federation(
            topology, initial, seed, stop_at=stop_at, kill_at=kill_at
        )
    except _Stalled as exc:
        stalled[:] = (case, step), exc
        raise
    assert ran > 0 or stop != "autostop"
