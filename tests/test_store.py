"""Object store: lifecycle rules, wire codec, and daemon/client behavior.

The lifecycle state machine is checked two ways: direct example tests for
every documented transition, and a hypothesis rule-based machine that
replays random operation sequences from a few sessions against an
independently written model (plain dict scans, no shared code) and
demands identical statuses, occupancy, dead objects, pin counts, and
surviving objects.
"""

import contextlib
import gc
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from hprm.serde import (
    PayloadFormatError,
    build_layout,
    decode_payload,
    deserialize,
    encode_payload,
    serialize,
)
from hprm.store import (
    StoreClient,
    StoreError,
    WritableObject,
    random_object_id,
)
from hprm.store import client as store_client
from hprm.store.daemon import StoreDaemon, _Conn
from hprm.store.state import Status, StoreState
from hprm.store import wire


SRC = Path(__file__).resolve().parent.parent / "src"


def oid_of(byte: int) -> bytes:
    return bytes([byte]) * wire.ID_BYTES


# -- lifecycle rules (pure state) -------------------------------------------


def test_create_seal_get_release_happy_path():
    s = StoreState(1000)
    a = oid_of(1)
    assert s.create("w", a, 100) is Status.OK
    assert s.occupancy == 100
    assert s.seal("w", a) is Status.OK
    status, size = s.get("r", a)
    assert (status, size) == (Status.OK, 100)
    assert s.release("r", a) is Status.OK
    assert s.counters.creates == 1
    assert s.counters.gets == 1


def test_duplicate_create_rejected():
    s = StoreState(1000)
    s.create("w", oid_of(1), 10)
    assert s.create("w", oid_of(1), 10) is Status.DUPLICATE_ID


def test_double_seal_rejected():
    s = StoreState(1000)
    s.create("w", oid_of(1), 10)
    assert s.seal("w", oid_of(1)) is Status.OK
    assert s.seal("w", oid_of(1)) is Status.ALREADY_SEALED


def test_get_before_seal_is_not_sealed():
    s = StoreState(1000)
    s.create("w", oid_of(1), 10)
    assert s.get("r", oid_of(1)) == (Status.NOT_SEALED, 0)
    assert s.get("r", oid_of(9)) == (Status.UNKNOWN_ID, 0)  # never created
    assert s.counters.gets == 0


def test_release_without_reference_rejected():
    s = StoreState(1000)
    s.create("w", oid_of(1), 10)
    s.seal("w", oid_of(1))
    assert s.release("r", oid_of(1)) is Status.NO_REFS
    assert s.release("r", oid_of(9)) is Status.UNKNOWN_ID


def test_reject_nonpositive_and_oversized():
    s = StoreState(1000)
    assert s.create("w", oid_of(1), 0) is Status.BAD_REQUEST
    assert s.create("w", oid_of(1), -5) is Status.BAD_REQUEST
    assert s.create("w", oid_of(1), 1001) is Status.TOO_LARGE


def test_lru_eviction_takes_oldest_idle_objects():
    s = StoreState(1000)
    a, b, c = oid_of(1), oid_of(2), oid_of(3)
    s.create("w", a, 400)
    s.seal("w", a)
    s.create("w", b, 400)
    s.seal("w", b)
    assert s.create("w", c, 900) is Status.OK
    assert s.take_dead() == [a, b]  # oldest first, both needed
    assert s.occupancy == 900
    assert a not in s and b not in s and c in s


def test_pinned_and_unsealed_objects_are_not_evictable():
    s = StoreState(1000)
    a, b, c = oid_of(1), oid_of(2), oid_of(3)
    s.create("w", a, 400)
    s.seal("w", a)
    s.get("r", a)  # pinned
    s.create("w", b, 400)  # unsealed
    assert s.create("w", c, 900) is Status.STORE_FULL
    assert a in s and b in s
    s.release("r", a)
    assert s.create("w", c, 500) is Status.OK  # now a is fair game
    assert a not in s


def test_object_retires_after_its_last_expected_read():
    s = StoreState(1000)
    a = oid_of(1)
    s.create("w", a, 100)
    assert s.seal("w", a, reads=2) is Status.OK
    s.get("r", a)
    s.get("r", a)
    assert s.release("r", a, unmapped=True) is Status.OK
    assert a in s  # the other reader still pins it
    assert s.release("r", a, unmapped=True) is Status.OK
    assert a not in s and s.occupancy == 0 and s.take_dead() == [a]
    assert s.counters.recycled == 1 and s.counters.evictions == 0


def test_a_kept_view_leaves_the_object_cached():
    s = StoreState(1000)
    a, b = oid_of(1), oid_of(2)
    s.create("w", a, 400)
    s.seal("w", a, reads=2)
    s.get("r", a)
    s.release("r", a, unmapped=False)  # this reader still holds a view
    s.get("r", a)
    s.release("r", a, unmapped=True)
    assert a in s and s.counters.recycled == 0
    assert s.create("w", b, 700) is Status.OK
    assert s.take_dead() == [a]  # left to LRU eviction


def test_a_reader_that_never_gets_leaves_the_object_to_eviction():
    s = StoreState(1000)
    a, b = oid_of(1), oid_of(2)
    s.create("w", a, 400)
    s.seal("w", a, reads=2)
    s.get("r", a)
    s.release("r", a, unmapped=True)
    assert a in s and s.counters.recycled == 0
    assert s.create("w", b, 700) is Status.OK
    assert s.take_dead() == [a]


def test_unknown_reads_cache_the_object_as_before():
    s = StoreState(1000)
    a = oid_of(1)
    s.create("w", a, 100)
    s.seal("w", a)  # reads=0: unknown
    for _ in range(3):
        s.get("r", a)
        s.release("r", a, unmapped=True)
    assert a in s and s.counters.recycled == 0
    assert s.evict(100) == 100 and s.take_dead() == [a]


# -- model-based lifecycle ----------------------------------------------------


class _Model:
    """Independent reference implementation: flat dicts, brute-force scans."""

    def __init__(self, capacity):
        self.capacity = capacity
        # oid -> [size, sealed, stamp, declared reads, gets, view kept, creator]
        self.objects = {}
        # (oid, session) -> pins that session holds; never 0
        self.pins = {}
        self.clock = 0
        self.recycled = 0
        self.releases = 0
        self.dead = []

    def _stamp(self, oid):
        self.clock += 1
        self.objects[oid][2] = self.clock

    def _kill(self, oid):
        del self.objects[oid]
        self.dead.append(oid)

    def refs(self, oid):
        return sum(n for (o, _), n in self.pins.items() if o == oid)

    def reads_left(self, oid):
        """StoreState's count of gets still expected before ``oid``
        retires: None once a release or a session end left a view open,
        or if its seal declared no reads."""
        declared, gets, kept = self.objects[oid][3:6]
        return None if kept or not declared else max(declared - gets, 0)

    def holders(self, oid):
        return sorted(s for (o, s) in self.pins if o == oid)

    def occupancy(self):
        return sum(o[0] for o in self.objects.values())

    def take_dead(self):
        dead, self.dead = self.dead, []
        return dead

    def evict(self, needed):
        idle = sorted(
            (o for o in self.objects.items() if o[1][1] and self.refs(o[0]) == 0),
            key=lambda kv: kv[1][2],
        )
        freed = 0
        for oid, (size, *_rest) in idle:
            if freed >= needed:
                break
            self._kill(oid)
            freed += size

    def create(self, session, oid, size):
        if size <= 0:
            return Status.BAD_REQUEST
        if oid in self.objects:
            return Status.DUPLICATE_ID
        if size > self.capacity:
            return Status.TOO_LARGE
        if self.capacity - self.occupancy() < size:
            self.evict(size - (self.capacity - self.occupancy()))
            if self.capacity - self.occupancy() < size:
                return Status.STORE_FULL
        self.objects[oid] = [size, False, 0, 0, 0, False, session]
        self._stamp(oid)
        return Status.OK

    def seal(self, session, oid, reads):
        if oid not in self.objects:
            return Status.UNKNOWN_ID
        if self.objects[oid][1]:
            return Status.ALREADY_SEALED
        if self.objects[oid][6] != session:
            return Status.BAD_REQUEST
        self.objects[oid][1] = True
        self.objects[oid][3] = reads
        self._stamp(oid)
        return Status.OK

    def get(self, session, oid):
        if oid not in self.objects:
            return Status.UNKNOWN_ID
        if not self.objects[oid][1]:
            return Status.NOT_SEALED
        self.pins[oid, session] = self.pins.get((oid, session), 0) + 1
        self.objects[oid][4] += 1
        self._stamp(oid)
        return Status.OK

    def release(self, session, oid, unmapped):
        if oid not in self.objects:
            return Status.UNKNOWN_ID
        if (oid, session) not in self.pins:
            return Status.NO_REFS
        self.pins[oid, session] -= 1
        if self.pins[oid, session] == 0:
            del self.pins[oid, session]
        self.releases += 1
        obj = self.objects[oid]
        obj[5] = obj[5] or not unmapped
        declared, gets, kept = obj[3], obj[4], obj[5]
        if declared > 0 and gets >= declared and self.refs(oid) == 0 and not kept:
            self._kill(oid)
            self.recycled += 1
        return Status.OK

    def end(self, session):
        for (oid, holder), held in sorted(self.pins.items()):
            if holder == session:
                del self.pins[oid, holder]
                self.releases += held
                self.objects[oid][5] = True  # released as with a view left
        unsealed = [o for o, v in self.objects.items() if not v[1] and v[6] == session]
        for oid in sorted(unsealed, key=lambda o: self.objects[o][2]):
            self._kill(oid)


class StoreLifecycleMachine(RuleBasedStateMachine):
    CAPACITY = 1000

    def __init__(self):
        super().__init__()
        self.real = StoreState(self.CAPACITY)
        self.model = _Model(self.CAPACITY)

    ids = st.sampled_from([oid_of(i) for i in range(1, 7)])
    sessions = st.sampled_from(["a", "b", "c"])
    # Half the sizes let several objects live at once; the rest cover bad,
    # oversized and evicting creates.
    sizes = st.integers(min_value=1, max_value=400) | st.integers(
        min_value=-10, max_value=1200
    )

    # One rule picks the operation: with a rule per operation, hypothesis
    # enables only some of them in each run, and runs without creates, or
    # without releases, never reach pins, retirement or kept views.  A
    # session ends at one step in nine, so pins live long enough to retire
    # objects.
    @rule(
        data=st.data(),
        op=st.sampled_from(["create", "seal", "get", "release"] * 2 + ["end"]),
    )
    def step(self, data, op):
        objects = self.model.objects
        if op == "create":
            session, oid = data.draw(self.sessions), data.draw(self.ids)
            size = data.draw(self.sizes)
            status = self.model.create(session, oid, size)
            assert self.real.create(session, oid, size) is status
        elif op == "seal":
            oid = self._target(data, [o for o, v in objects.items() if not v[1]])
            session = self._session(data, [objects[oid][6]] if oid in objects else [])
            reads = data.draw(st.integers(0, 3))
            assert self.real.seal(session, oid, reads) is self.model.seal(session, oid, reads)
        elif op == "get":
            oid = self._target(data, [o for o, v in objects.items() if v[1]])
            session = data.draw(self.sessions)
            real_status, _ = self.real.get(session, oid)
            assert real_status is self.model.get(session, oid)
        elif op == "release":
            oid = self._target(data, [o for o in objects if self.model.refs(o)])
            session = self._session(data, self.model.holders(oid))
            unmapped = data.draw(st.booleans())
            status = self.model.release(session, oid, unmapped)
            assert self.real.release(session, oid, unmapped) is status
        else:
            session = data.draw(self.sessions)
            self.real.end(session)
            self.model.end(session)
        assert self.real.take_dead() == self.model.take_dead()

    def _target(self, data, fit):
        """Mostly an id from ``fit``: unsealed for a seal, sealed for a
        get, pinned for a release; sometimes any id."""
        return data.draw(st.sampled_from(sorted(fit)) | self.ids if fit else self.ids)

    def _session(self, data, fit):
        """Mostly a session from ``fit``: the creator for a seal, a holder
        for a release; sometimes any session."""
        return data.draw(st.sampled_from(fit) | self.sessions if fit else self.sessions)

    @invariant()
    def same_objects_and_occupancy(self):
        assert self.real.occupancy == self.model.occupancy()
        assert self.real.occupancy <= self.CAPACITY
        for oid, (size, sealed, *_rest) in self.model.objects.items():
            assert self.real.describe(oid) == (size, sealed, self.model.refs(oid))
            assert self.real._entries[oid].reads_left == self.model.reads_left(oid)
        assert len(self.model.objects) == self.real.stats()["objects"]
        assert self.real.counters.recycled == self.model.recycled
        assert self.real.counters.releases == self.model.releases


TestStoreLifecycleMachine = StoreLifecycleMachine.TestCase
TestStoreLifecycleMachine.settings = settings(
    max_examples=60,
    stateful_step_count=40,
    deadline=None,
    # No shrinking: a failing example is reported as found, at most 40
    # steps, in about a second rather than after minutes of shrinking.
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)


# -- wire codec ----------------------------------------------------------------


def test_request_codec_golden():
    oid = bytes(range(20))
    raw = wire.encode_request(wire.Op.CREATE, oid, 64)
    assert len(raw) == wire.REQUEST_BYTES == 29
    assert raw == b"\x01" + oid + (64).to_bytes(8, "little")
    assert wire.decode_request(raw) == (wire.Op.CREATE, oid, 64)


def test_request_codec_rejects_unknown_op():
    raw = b"\x63" + bytes(20) + bytes(8)
    with pytest.raises(wire.WireFormatError):
        wire.decode_request(raw)


def test_response_codec_round_trip():
    raw = wire.encode_response(Status.OK, 4096, b"/dev/shm/x.obj")
    status, value, blob_len = wire.decode_response_prefix(raw)
    assert (status, value) == (Status.OK, 4096)
    assert raw[wire.RESPONSE_PREFIX_BYTES:] == b"/dev/shm/x.obj"
    assert blob_len == len(b"/dev/shm/x.obj")


# -- daemon + client integration -------------------------------------------------


@pytest.fixture
def store(tmp_path):
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=4 * 2**20)
    daemon.start()
    yield daemon
    daemon.stop()


def test_write_seal_get_round_trip(store):
    with StoreClient(store.socket_path) as writer, StoreClient(
        store.socket_path
    ) as reader:
        data = bytes(range(256)) * 64
        obj = writer.create(len(data))
        obj.write(0, data)
        obj.seal()
        obj.close()
        with reader.get(obj.oid) as sealed:
            assert bytes(sealed.view) == data
        stats = reader.stats()
        assert stats["creates"] == 1
        assert stats["seals"] == 1
        assert stats["gets"] == 1
        assert stats["releases"] == 1


def test_get_of_an_unknown_or_unsealed_id_fails_at_once(store):
    """A get never waits: a publisher seals before it sends a reference,
    so an object that is not there is gone, and the reply says so."""
    with StoreClient(store.socket_path) as client:
        unsealed = client.create(64)
        for oid, status in (
            (unsealed.oid, Status.NOT_SEALED),
            (random_object_id(), Status.UNKNOWN_ID),
        ):
            t0 = time.monotonic()
            with pytest.raises(StoreError) as err:
                client.get(oid)
            assert time.monotonic() - t0 < 0.1
            assert err.value.status is status
        unsealed.close()
        assert client.stats()["gets"] == 0  # the session still answers


def test_a_reply_that_never_comes_fails_and_closes_the_session(tmp_path, monkeypatch):
    """A daemon that accepts and never answers: the request fails once
    the reply bound passes, and the session is closed, so no later
    request could read the late reply as its own."""
    monkeypatch.setattr(store_client, "REPLY_TIMEOUT_S", 0.2)
    with socket.socket(socket.AF_UNIX) as mute:
        mute.bind(str(tmp_path / "mute.sock"))
        mute.listen(1)
        client = StoreClient(tmp_path / "mute.sock")
        peer, _ = mute.accept()
        try:
            t0 = time.monotonic()
            with pytest.raises(TimeoutError):
                client.stats()
            assert 0.2 <= time.monotonic() - t0 < 2.0
            peer.settimeout(2.0)
            assert len(peer.recv(64)) == wire.REQUEST_BYTES
            assert peer.recv(64) == b""  # the client hung up
            t0 = time.monotonic()
            with pytest.raises(OSError):
                client.get(random_object_id())
            assert time.monotonic() - t0 < 0.1
        finally:
            client.close()
            peer.close()


def test_duplicate_create_raises(store, monkeypatch):
    with StoreClient(store.socket_path) as client:
        obj = client.create(64)
        monkeypatch.setattr(store_client, "random_object_id", lambda: obj.oid)
        with pytest.raises(StoreError) as err:
            client.create(64)
        assert err.value.status is Status.DUPLICATE_ID
        obj.close()


def test_evicted_object_mapping_survives(tmp_path):
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=1000)
    daemon.start()
    try:
        with StoreClient(daemon.socket_path) as client:
            a = client.create(400)
            a.write(0, b"A" * 400)
            a.seal()
            a.close()
            sealed = client.get(a.oid)
            view = sealed.view
            sealed.release()  # pin dropped, mapping (and view) kept alive
            big = client.create(900)  # forces eviction of a
            big.close()
            assert bytes(view[:4]) == b"AAAA"  # evicted, still mapped
            with pytest.raises(StoreError, match="UNKNOWN_ID"):
                client.get(a.oid)
    finally:
        daemon.stop()


def test_pinned_object_blocks_create_until_released(tmp_path):
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=1000)
    daemon.start()
    try:
        with StoreClient(daemon.socket_path) as client:
            a = client.create(800)
            a.seal()
            a.close()
            pinned = client.get(a.oid)
            with pytest.raises(StoreError) as err:
                client.create(900)
            assert err.value.status is Status.STORE_FULL
            pinned.release()
            c = client.create(900)
            c.close()
    finally:
        daemon.stop()


def test_disconnect_releases_pins_and_unsealed_creations(store):
    holder = StoreClient(store.socket_path)
    a = holder.create(1024)
    a.write(0, b"x" * 1024)
    a.seal()
    pinned = holder.get(a.oid)
    assert bytes(pinned.view[:1]) == b"x"
    unsealed = holder.create(2048)
    a.close()
    holder.close()  # no release, no seal: the daemon must clean both up
    time.sleep(0.1)
    with StoreClient(store.socket_path) as client:
        stats = client.stats()
        assert stats["objects"] == 1  # the unsealed one is gone
        assert store.state.evict(1024) == 1024  # the pin was dropped, so a is evictable
    unsealed.close()


def test_no_buffered_request_is_served_after_its_session_ends(tmp_path):
    """Two CREATEs reach the daemon in one read from a client that has
    gone.  The first reply fails and ends the session; the second must
    not run for it, or it leaves an unsealed object that nothing can
    seal, evict or drop."""
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=4 * 2**20)
    ours, theirs = socket.socketpair()
    conn = daemon._conns[ours] = _Conn(ours)
    theirs.sendall(
        wire.encode_request(wire.Op.CREATE, oid_of(1), 8192)
        + wire.encode_request(wire.Op.CREATE, oid_of(2), 8192)
    )
    theirs.close()
    try:
        daemon._service(conn)  # on this thread: no daemon thread to race
        stats = daemon.state.stats()
        assert (stats["objects"], stats["occupancy_bytes"]) == (0, 0)
    finally:
        daemon._cleanup()


def test_payload_layout_written_with_one_pass_per_byte(store, monkeypatch):
    arr = np.arange(100_000, dtype=np.float64)
    value = {"seq": 3, "data": arr}
    payload = serialize(value)
    layout = build_layout(payload)
    passes = []
    write = WritableObject.write

    def counted(self, offset, data):
        n = write(self, offset, data)
        passes.append(n)
        return n

    monkeypatch.setattr(WritableObject, "write", counted)

    with StoreClient(store.socket_path) as writer:
        obj = writer.create(layout.total_bytes)
        obj.write(0, layout.header)
        for offset, seg in zip(layout.segment_offsets, payload.segments):
            obj.write(offset, seg)
        obj.seal()
        obj.close()
        assert len(passes) == 1 + len(payload.segments)
        assert sum(passes) == len(layout.header) + arr.nbytes

        with StoreClient(store.socket_path) as reader:
            with reader.get(obj.oid) as sealed:
                assert bytes(sealed.view) == encode_payload(payload)
                rebuilt = deserialize(decode_payload(sealed.view), zero_copy=True)
                assert rebuilt["seq"] == 3
                assert np.array_equal(rebuilt["data"], arr)
                base = np.frombuffer(sealed.view, dtype=np.uint8)
                assert np.shares_memory(rebuilt["data"], base)


def test_truncated_store_object_is_a_format_error(store):
    """An object one byte short of what its header declares is refused,
    not read past its end."""
    payload = serialize({"data": np.arange(10_000, dtype=np.float64)})
    blob = encode_payload(payload)[:-1]
    with StoreClient(store.socket_path) as client:
        obj = client.create(len(blob))
        obj.write(0, blob)
        obj.seal()
        obj.close()
        with client.get(obj.oid) as sealed:
            with pytest.raises(PayloadFormatError, match="truncated"):
                decode_payload(sealed.view)


# -- each session owns its pins and its creations ----------------------------------


def test_a_session_cannot_release_a_pin_it_does_not_hold(store):
    with StoreClient(store.socket_path) as a, StoreClient(store.socket_path) as b:
        oid = a.put(4096, [(0, b"A" * 4096)], reads=1)
        with a.get(oid):
            with pytest.raises(StoreError) as err:
                b.release(oid, unmapped=True)
            assert err.value.status is Status.NO_REFS
            assert store.state.describe(oid) == (4096, True, 1)
        assert a.stats()["recycled"] == 1  # its own release retired it


def test_a_pinned_view_keeps_its_bytes_after_another_session_creates(store):
    """Another session's release of the holder's pin would retire the
    object, and a third session's create of the same size would take its
    segment and overwrite the holder's view."""
    with StoreClient(store.socket_path) as a, StoreClient(
        store.socket_path
    ) as b, StoreClient(store.socket_path) as c:
        oid = a.put(4096, [(0, b"A" * 4096)], reads=1)
        held = a.get(oid)
        with contextlib.suppress(StoreError):
            b.release(oid, unmapped=True)
        other = c.create(4096)
        other.write(0, b"C" * 4096)
        other.close()
        assert held.view[:4].tobytes() == b"AAAA"
        held.release()


def test_a_session_cannot_seal_an_object_another_created(store):
    with StoreClient(store.socket_path) as a, StoreClient(store.socket_path) as b:
        obj = a.create(4096)
        with pytest.raises(StoreError) as err:
            b.seal(obj.oid)
        assert err.value.status is Status.BAD_REQUEST
        obj.write(0, b"A" * 4096)  # still writable by its creator
        obj.close()
        obj.seal()
        with b.get(obj.oid) as sealed:
            assert sealed.view.tobytes() == b"A" * 4096


def test_a_session_that_ends_gives_up_only_what_it_held(store):
    """B's end releases B's pins on an object A also pins, as releases
    that left a view open, and drops B's unsealed creation only."""
    with StoreClient(store.socket_path) as a:
        b = StoreClient(store.socket_path)
        shared = a.put(4096, [(0, b"S" * 4096)], reads=3)
        inode = os.fstat(store._segments[shared][1]).st_ino
        held = a.get(shared)
        for _ in range(2):
            b.get(shared)  # pins B never releases
        kept = b.put(4096, [(0, b"B" * 4096)])  # sealed: outlives B
        b_open = b.create(8192)
        a_open = a.create(8192)
        before = a.stats()
        b.close()
        deadline = time.monotonic() + 5
        while a.stats()["objects"] == before["objects"] and time.monotonic() < deadline:
            time.sleep(0.01)
        after = a.stats()
        assert after["objects"] == before["objects"] - 1
        assert after["releases"] == before["releases"] + 2
        assert store.state.describe(shared) == (4096, True, 1)  # A's pin
        assert kept in store.state and a_open.oid in store.state
        assert b_open.oid not in store.state
        assert [size for size, _ in store._pool] == [8192]
        assert held.view.tobytes() == b"S" * 4096
        held.release()
        # B's pins left views open, so the object stays cached.
        assert os.fstat(store._segments[shared][1]).st_ino == inode
        stats = a.stats()
        assert stats["recycled"] == 0
        assert stats["gets"] == stats["releases"] == 3
        a_open.close()
        b_open.close()


# -- segments handed out by descriptor -----------------------------------------


@pytest.fixture
def store_process(tmp_path):
    """A daemon in its own process, so this process's descriptors are the
    client's alone.  Yields (process, socket path)."""
    sock = tmp_path / "store.sock"
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hprm.store.daemon", "--socket", str(sock),
         "--capacity-bytes", str(2**20), "--log-level", "WARNING"],
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
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
        yield proc, sock
    finally:
        proc.kill()
        proc.wait(timeout=10)


def test_descriptors_are_closed_after_each_cycle(store_process, monkeypatch):
    """Each idle mapping a session keeps holds one descriptor (``mmap``
    dups it): never more than the cache size per session, and none once
    the sessions are closed."""
    _, sock = store_process
    # A mapping that an earlier test left in a reference cycle holds a
    # descriptor until a collection frees it: free them before counting.
    gc.collect()
    start = len(os.listdir("/proc/self/fd"))
    with StoreClient(sock) as writer, StoreClient(sock) as reader:
        opened = len(os.listdir("/proc/self/fd"))  # the two sessions' sockets
        for i in range(200):
            obj = writer.create(4096 + 64 * i)  # mixed sizes, evicting late on
            obj.write(0, bytes([i]) * 16)
            obj.seal()
            obj.close()
            with reader.get(obj.oid) as sealed:
                assert sealed.view[:16].tobytes() == bytes([i]) * 16
            held = len(os.listdir("/proc/self/fd"))
            assert held <= opened + 2 * store_client.MAPPINGS_CACHED
        monkeypatch.setattr(store_client, "random_object_id", lambda: obj.oid)
        with pytest.raises(StoreError):
            writer.create(64)  # a duplicate id
        with pytest.raises(StoreError, match="UNKNOWN_ID"):
            reader.get(random_object_id())
    assert len(os.listdir("/proc/self/fd")) == start


def test_daemon_module_starts_without_a_runtime_warning():
    """``python -m hprm.store.daemon`` (how the bench starts its stores)
    must not find the module already imported by its package."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "hprm.store.daemon", "--help"],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_killed_daemon_leaves_only_its_socket(tmp_path, store_process):
    proc, sock = store_process
    with StoreClient(sock) as client:
        obj = client.create(65536)
        obj.write(0, b"x" * 65536)
        obj.seal()
        obj.close()
        pinned = client.get(obj.oid)
        proc.kill()
        proc.wait(timeout=10)
        assert pinned.view[:1].tobytes() == b"x"  # the mapping outlives the daemon
        del pinned
    assert [p.name for p in tmp_path.iterdir()] == ["store.sock"]
    assert list(Path("/dev/shm").glob(f"*{proc.pid}*")) == []


def test_pooled_and_live_bytes_stay_within_capacity(tmp_path):
    capacity = 64 * 1024
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=capacity)
    daemon.start()
    rng = random.Random(7)
    pins = []
    try:
        with StoreClient(daemon.socket_path) as client:
            for _ in range(300):
                obj = client.create(rng.randint(1, 12_000))
                obj.seal()
                obj.close()
                if rng.random() < 0.2:
                    pins.append(client.get(obj.oid))
                if len(pins) > 2:
                    pins.pop(0).release()
                pooled = sum(size for size, _ in daemon._pool)
                assert pooled + daemon.state.occupancy <= capacity
        assert daemon.state.counters.evictions > 100
    finally:
        daemon.stop()


def test_create_after_eviction_reuses_the_pooled_segment(tmp_path):
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=1000)
    daemon.start()
    try:
        with StoreClient(daemon.socket_path) as client:
            full = []
            for _ in range(5):
                obj = client.create(200)
                obj.seal()
                obj.close()
                full.append(obj.oid)
            oldest = os.fstat(daemon._segments[full[0]][1]).st_ino
            obj = client.create(200)  # evicts the oldest, a fifth of capacity
            obj.close()
            assert full[0] not in daemon.state
            assert os.fstat(daemon._segments[obj.oid][1]).st_ino == oldest
            assert daemon._pool == []
    finally:
        daemon.stop()


def test_last_unmapped_release_recycles_the_segment(tmp_path):
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=2**20).start()
    try:
        with StoreClient(daemon.socket_path) as writer, StoreClient(
            daemon.socket_path
        ) as reader:
            obj = writer.create(64 * 1024)
            obj.write(0, b"x" * 16)
            obj.close()
            obj.seal(reads=2)
            inode = os.fstat(daemon._segments[obj.oid][1]).st_ino
            first = reader.get(obj.oid)
            with reader.get(obj.oid) as second:
                assert second.view[:16].tobytes() == b"x" * 16
            assert obj.oid in daemon.state  # still pinned by the first get
            first.release()
            assert obj.oid not in daemon.state
            again = writer.create(64 * 1024)
            again.close()
            assert os.fstat(daemon._segments[again.oid][1]).st_ino == inode
            assert daemon._pool == []
            stats = writer.stats()
            assert stats["recycled"] == 1 and stats["evictions"] == 0
    finally:
        daemon.stop()


def test_view_kept_past_release_keeps_the_object_cached(tmp_path):
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=2**20).start()
    try:
        with StoreClient(daemon.socket_path) as client:
            obj = client.create(4096)
            obj.write(0, b"kept")
            obj.close()
            obj.seal(reads=1)
            sealed = client.get(obj.oid)
            view = sealed.view
            sealed.release()  # the mapping cannot close under the view
            assert obj.oid in daemon.state
            other = client.create(4096)  # same size: a recycled segment would do
            other.write(0, b"new!")
            other.close()
            assert view[:4].tobytes() == b"kept"
            assert client.stats()["recycled"] == 0
    finally:
        daemon.stop()


_KEPT_VIEW_SCRIPT = """
import sys
from hprm.store import StoreClient
from hprm.store.daemon import StoreDaemon

KIB = 1024
daemon = StoreDaemon(sys.argv[1], capacity_bytes=12 * KIB).start()
with StoreClient(daemon.socket_path) as client:
    old = client.create(8 * KIB)
    old.write(0, b"A" * (8 * KIB))
    old.seal()
    old.close()
    sealed = client.get(old.oid)
    view = sealed.view
    sealed.release()  # the view is kept past the release
    filler = client.create(4 * KIB)  # unsealed: the store is now full
    filler.close()
    new = client.create(4 * KIB)  # evicts the old object into the pool
    new.close()
    view[-1]  # the old object's last page
daemon.stop()
"""


def test_view_kept_past_release_survives_a_smaller_create(tmp_path):
    """A recycled segment is never shrunk under a mapping kept past its
    release.  The child reads the old view's last page after a 4 KiB
    create took the store's free pool; a shrunk segment kills it with
    SIGBUS."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _KEPT_VIEW_SCRIPT, str(tmp_path / "store.sock")],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr.decode())


# -- each segment mapped once per session ---------------------------------------


def _count_mmaps(monkeypatch) -> list[tuple[int, int]]:
    """Record (segment inode, protection) for every mapping the client makes."""
    calls = []
    real = store_client.mmap.mmap

    def counted(fd, length, *args, **kwargs):
        calls.append((os.fstat(fd).st_ino, kwargs["prot"]))
        return real(fd, length, *args, **kwargs)

    monkeypatch.setattr(store_client.mmap, "mmap", counted)
    return calls


def _cycle(writer, reader, size: int, fill: bytes) -> None:
    """Write, seal for one read, read back and release: the segment is
    recycled at the release."""
    obj = writer.create(size)
    obj.write(0, fill * size)
    obj.close()
    obj.seal(reads=1)
    with reader.get(obj.oid) as sealed:
        assert sealed.view.tobytes() == fill * size


def test_a_recycled_segment_is_mapped_once_per_session(tmp_path, monkeypatch):
    calls = _count_mmaps(monkeypatch)
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=2**20).start()
    try:
        with StoreClient(daemon.socket_path) as writer, StoreClient(
            daemon.socket_path
        ) as reader:
            for i in range(50):
                _cycle(writer, reader, 64 * 1024, bytes([i]))
            assert writer.stats()["recycled"] == 50
    finally:
        daemon.stop()
    # one segment, mapped once for writing and once for reading
    assert len(calls) == len(set(calls)) == 2


def test_a_view_kept_past_release_keeps_its_mapping_out_of_reuse(tmp_path, monkeypatch):
    reported = []
    release = StoreClient.release

    def recorded(self, oid, unmapped=False):
        reported.append(unmapped)
        release(self, oid, unmapped)

    monkeypatch.setattr(StoreClient, "release", recorded)
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=2**20).start()
    try:
        with StoreClient(daemon.socket_path) as writer, StoreClient(
            daemon.socket_path
        ) as reader:
            _cycle(writer, reader, 4096, b"w")  # the reader now caches a mapping
            obj = writer.create(4096)
            obj.write(0, b"k" * 4096)
            obj.close()
            obj.seal(reads=1)
            sealed = reader.get(obj.oid)
            kept_map = sealed._mm
            kept = np.frombuffer(sealed.view, dtype=np.uint8)
            sealed.release()
            assert reported[-1] is False
            assert obj.oid in daemon.state
            for i in range(20):
                later = writer.create(4096)
                later.write(0, bytes([i]) * 4096)
                later.close()
                later.seal(reads=1)
                with reader.get(later.oid) as again:
                    assert again._mm is not kept_map
                assert reported[-1] is True
            assert kept.tobytes() == b"k" * 4096
    finally:
        daemon.stop()


def test_a_smaller_object_sees_only_its_own_bytes_of_a_longer_mapping(
    tmp_path, monkeypatch
):
    calls = _count_mmaps(monkeypatch)
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=2**20).start()
    try:
        with StoreClient(daemon.socket_path) as client:
            _cycle(client, client, 8000, b"L")  # two pages
            small = client.create(5000)  # two pages: the same segment
            assert len(calls) == 2  # the 8000-byte mapping was reused
            assert small.view.nbytes == 5000
            assert small.write(0, b"s" * 5000) == 5000
            with pytest.raises(ValueError):
                small.write(4990, b"s" * 20)
            small.close()
            small.seal(reads=1)
            with client.get(small.oid) as sealed:
                assert sealed.view.tobytes() == b"s" * 5000
            assert len(calls) == 2
    finally:
        daemon.stop()


def test_a_create_takes_the_most_recently_retired_segment(tmp_path):
    daemon = StoreDaemon(tmp_path / "store.sock", capacity_bytes=2**20).start()
    try:
        with StoreClient(daemon.socket_path) as client:
            first, second = client.create(4096), client.create(4096)
            for obj in (first, second):
                obj.close()
                obj.seal(reads=1)
            newest = os.fstat(daemon._segments[second.oid][1]).st_ino
            for obj in (first, second):  # retired in this order
                client.get(obj.oid).release()
            assert len(daemon._pool) == 2
            again = client.create(4096)
            again.close()
            assert os.fstat(daemon._segments[again.oid][1]).st_ino == newest
    finally:
        daemon.stop()


def test_threads_sharing_sessions_keep_every_mapping_accounted(store_process):
    """Threads sharing one writer and one reader session: every object
    reads back its own bytes, and closing the sessions leaves no
    descriptor behind, so no idle mapping was lost or handed out twice."""
    _, sock = store_process
    gc.collect()
    start = len(os.listdir("/proc/self/fd"))
    failures = []

    def work(writer, reader, fill):
        try:
            for _ in range(40):
                _cycle(writer, reader, 4096, fill)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with StoreClient(sock) as writer, StoreClient(sock) as reader:
            threads = [
                threading.Thread(target=work, args=(writer, reader, bytes([i])))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert failures == []
            assert len(reader._idle) <= store_client.MAPPINGS_CACHED
    finally:
        sys.setswitchinterval(interval)
    assert len(os.listdir("/proc/self/fd")) == start
