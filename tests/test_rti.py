"""Coordination rules: registration, grant emission, shutdown.

The randomized simulation at the bottom is the main safety net: it runs
whole federations (random DAGs and delayed cycles, random event sets)
against RtiState with atomic delivery, and asserts after every step that
no federate ever receives an event at or below a tag it already
processed (grant safety) and that the federation always drains (deadlock
freedom).  Grant values are independently re-derived from announcements
at every emission.
"""

import heapq
import json
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hprm.rti import (
    Phase,
    RtiProtocolError,
    RtiServer,
    RtiState,
    decode_progress,
    encode_progress,
)
from hprm.tags import FOREVER, NEVER, NO_DELAY, Delay, Tag, bound_tag, delay_tag
from hprm.topology import Connection, Topology, validate_topology
from hprm.transport import Frame, FrameListener, FrameType, connect

MS = 1_000_000
S = 1_000_000_000


def make_state(connections, federates, offset_ns=0):
    return RtiState(
        Topology.build(federates, connections), startup_offset_ns=offset_ns
    )


def join_all(state, clocks=None):
    clocks = clocks or {}
    start = None
    for fid in state.topology.federates:
        start = state.register(fid, clocks.get(fid, 0), ("127.0.0.1", 1))
    return start


# -- registration -------------------------------------------------------------


def test_start_tag_is_latest_clock_plus_offset():
    state = make_state([], ["a", "b", "c"], offset_ns=100 * MS)
    assert state.register("a", 50, ("h", 1)) is None
    assert state.register("b", 900, ("h", 2)) is None
    start = state.register("c", 100, ("h", 3))
    assert start is not None
    assert start.start_tag == Tag(900 + 100 * MS, 0)
    assert start.addresses == {"a": ("h", 1), "b": ("h", 2), "c": ("h", 3)}
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
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(200 * MS))], ["p", "s"]
    )
    join_all(state)
    assert state.handle_net("p", Tag(1 * S, 0)) == []  # upstream silent: no grant
    grants = state.handle_net("s", Tag(100 * MS, 0))
    by_fid = {g.fid: g.tag for g in grants}
    assert by_fid["s"] == Tag(100 * MS, 0)  # no inputs: granted what it asked
    assert by_fid["p"] == Tag(300 * MS, 0)  # bounded by s's announcement + delay


def test_grant_capped_at_announcement():
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(200 * MS))], ["p", "s"]
    )
    join_all(state)
    state.handle_net("p", Tag(150 * MS, 0))
    grants = state.handle_net("s", Tag(500 * MS, 0))
    assert {g.fid: g.tag for g in grants}["p"] == Tag(150 * MS, 0)


def test_forever_announcement_emits_no_grant_but_unblocks_downstream():
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(200 * MS))], ["p", "s"]
    )
    join_all(state)
    state.handle_net("p", Tag(1 * S, 0))
    grants = state.handle_net("s", FOREVER)
    assert grants == [type(grants[0])("p", Tag(1 * S, 0))] if grants else False
    assert all(g.fid != "s" for g in grants)


def test_grants_are_monotone_per_federate():
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(10))], ["p", "s"]
    )
    join_all(state)
    state.handle_net("p", Tag(1000, 0))
    first = state.handle_net("s", Tag(100, 0))
    again = state.handle_net("s", Tag(100, 0))  # same announcement: no new grant
    assert {g.fid for g in first} == {"s", "p"}
    assert again == []


def test_net_regression_rejected():
    state = make_state([], ["a"])
    join_all(state)
    state.handle_net("a", Tag(100, 0))
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", Tag(50, 0))
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", NEVER)


def test_completion_beyond_grant_rejected():
    state = make_state([], ["a"])
    join_all(state)
    state.handle_net("a", Tag(100, 0))  # grants (100, 0)
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", Tag(300, 0), completed=Tag(200, 0))
    assert state.records["a"].announced == Tag(100, 0)  # rejected whole


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
    with pytest.raises(RtiProtocolError):
        decode_progress(body[:-1])


def test_resign_unblocks_downstream():
    state = make_state(
        [Connection("s", "out", "p", "in", Delay(10))], ["p", "s"]
    )
    join_all(state)
    state.handle_net("p", Tag(777, 0))
    grants = state.handle_resign("s")
    assert {g.fid: g.tag for g in grants} == {"p": Tag(777, 0)}
    assert state.handle_resign("s") == []  # idempotent


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


def test_counter_regression_rejected():
    state = make_state([], ["a"])
    join_all(state)
    state.handle_net("a", Tag(10, 0), queue_empty=False, sent=5, received=2)
    with pytest.raises(RtiProtocolError):
        state.handle_net("a", Tag(20, 0), queue_empty=False, sent=4, received=2)


def test_stop_requested_before_start_is_deferred():
    state = make_state([], ["a", "b"])
    state.register("a", 0, ("h", 1))
    assert state.request_stop() is None
    assert state.pending_stop()
    state.register("b", 0, ("h", 2))
    stop = state.request_stop()
    assert stop is not None
    assert stop > state.start_tag


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
    A grant alone does not prove the data below it has arrived -- an
    upstream may deliver *at* the granted bound -- so processing a tag
    additionally requires the floor to be strictly past it.
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
    """Independent recomputation of the largest safe grant for fid."""
    bound = FOREVER
    for edge in state.topology.inputs_of(fid):
        upstream = state.records[edge.src]
        announced = FOREVER if upstream.resigned else upstream.announced
        bound = min(bound, bound_tag(announced, edge.delay))
    return min(bound, state.records[fid].announced)


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

    def apply_grants(grants):
        for grant in grants:
            assert grant.tag <= _oracle_bound(state, grant.fid), (
                f"unsafe grant {grant} vs bound {_oracle_bound(state, grant.fid)!r}"
            )
            assert grant.tag > feds[grant.fid].granted, "grant not monotone"
            feds[grant.fid].granted = grant.tag

    def announce(fed):
        promise = _promise(fed, state, start_tag)
        announced = state.records[fed.fid].announced
        assert promise >= announced or announced == NEVER, (
            "promise regressed: arrival raced past an announcement"
        )
        apply_grants(
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
            if f.queue
            and f.granted >= f.queue[0]
            and _floor(f, state, start_tag) > f.queue[0]
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

    for fed in feds.values():
        announce(fed)  # final quiescence reports
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
        connections.append(
            Connection(federates[src], f"o{k}", federates[dst], f"i{k}", Delay(delay))
        )
    assume(validate_topology(Topology(tuple(federates), tuple(connections))).ok)
    topology = Topology.build(federates, connections)
    initial = {}
    for fid in federates:
        tags = draw(
            st.lists(
                st.tuples(st.integers(0, 60), st.integers(0, 2)).map(
                    lambda p: Tag(p[0], p[1])
                ),
                max_size=5,
            )
        )
        initial[fid] = tags
    assume(any(initial.values()))
    seed = draw(st.integers(0, 2**32 - 1))
    return topology, initial, seed


@given(federation_cases())
@settings(max_examples=120, deadline=None)
def test_random_federations_run_safely_to_completion(case):
    topology, initial, seed = case
    processed = run_federation_simulation(topology, initial, seed)
    assert processed > 0
