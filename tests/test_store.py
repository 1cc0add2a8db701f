"""Object store: lifecycle rules, wire codec, and daemon/client behavior.

The lifecycle state machine is checked two ways: direct example tests for
every documented transition, and a hypothesis rule-based machine that
replays random operation sequences against an independently written
model (plain dict scans, no shared code) and demands identical statuses,
occupancy, eviction choices, and surviving objects.
"""

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
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from hprm.serde import build_layout, deserialize, payload_from_spans, serialize
from hprm.store import (
    ObjectRef,
    StoreClient,
    StoreDaemon,
    StoreError,
    StoreTimeout,
    random_object_id,
)
from hprm.store.state import Status, StoreState
from hprm.store import wire


SRC = Path(__file__).resolve().parent.parent / "src"


def oid_of(byte: int) -> bytes:
    return bytes([byte]) * wire.ID_BYTES


# -- lifecycle rules (pure state) -------------------------------------------


def test_create_seal_get_release_happy_path():
    s = StoreState(1000)
    a = oid_of(1)
    assert s.create(a, 100).status is Status.OK
    assert s.occupancy == 100
    assert s.seal(a) is Status.OK
    status, size = s.get(a)
    assert (status, size) == (Status.OK, 100)
    assert s.release(a) is Status.OK
    assert s.counters.creates == 1
    assert s.counters.gets == 1


def test_duplicate_create_rejected():
    s = StoreState(1000)
    s.create(oid_of(1), 10)
    assert s.create(oid_of(1), 10).status is Status.DUPLICATE_ID


def test_double_seal_rejected():
    s = StoreState(1000)
    s.create(oid_of(1), 10)
    assert s.seal(oid_of(1)) is Status.OK
    assert s.seal(oid_of(1)) is Status.ALREADY_SEALED


def test_get_before_seal_is_pending():
    s = StoreState(1000)
    s.create(oid_of(1), 10)
    assert s.get(oid_of(1)) == (Status.PENDING, 0)
    assert s.get(oid_of(9)) == (Status.PENDING, 0)  # never created


def test_release_without_reference_rejected():
    s = StoreState(1000)
    s.create(oid_of(1), 10)
    s.seal(oid_of(1))
    assert s.release(oid_of(1)) is Status.NO_REFS
    assert s.release(oid_of(9)) is Status.UNKNOWN_ID


def test_reject_nonpositive_and_oversized():
    s = StoreState(1000)
    assert s.create(oid_of(1), 0).status is Status.BAD_REQUEST
    assert s.create(oid_of(1), -5).status is Status.BAD_REQUEST
    assert s.create(oid_of(1), 1001).status is Status.TOO_LARGE


def test_lru_eviction_takes_oldest_idle_objects():
    s = StoreState(1000)
    a, b, c = oid_of(1), oid_of(2), oid_of(3)
    s.create(a, 400)
    s.seal(a)
    s.create(b, 400)
    s.seal(b)
    result = s.create(c, 900)
    assert result.status is Status.OK
    assert result.evicted == (a, b)  # oldest first, both needed
    assert s.occupancy == 900
    assert a not in s and b not in s and c in s


def test_eviction_frees_at_least_the_configured_fraction():
    s = StoreState(1000, eviction_fraction=0.5)
    for i in range(10):
        s.create(oid_of(i + 1), 100)
        s.seal(oid_of(i + 1))
    freed, evicted = s.evict(100)
    assert freed >= 500  # fraction beats the immediate need
    assert len(evicted) == 5


def test_pinned_and_unsealed_objects_are_not_evictable():
    s = StoreState(1000)
    a, b, c = oid_of(1), oid_of(2), oid_of(3)
    s.create(a, 400)
    s.seal(a)
    s.get(a)  # pinned
    s.create(b, 400)  # unsealed
    assert s.create(c, 900).status is Status.STORE_FULL
    assert a in s and b in s
    s.release(a)
    assert s.create(c, 500).status is Status.OK  # now a is fair game
    assert a not in s


# -- model-based lifecycle ----------------------------------------------------


class _Model:
    """Independent reference implementation: flat dicts, brute-force scans."""

    def __init__(self, capacity, fraction):
        self.capacity = capacity
        self.fraction = fraction
        self.objects = {}  # oid -> [size, sealed, refs, stamp]
        self.clock = 0

    def _stamp(self, oid):
        self.clock += 1
        self.objects[oid][3] = self.clock

    def occupancy(self):
        return sum(o[0] for o in self.objects.values())

    def evict(self, needed):
        goal = max(needed, int(self.capacity * self.fraction))
        idle = sorted(
            (o for o in self.objects.items() if o[1][1] and o[1][2] == 0),
            key=lambda kv: kv[1][3],
        )
        out = []
        freed = 0
        for oid, (size, *_rest) in idle:
            if freed >= goal:
                break
            del self.objects[oid]
            freed += size
            out.append(oid)
        return out

    def create(self, oid, size):
        if size <= 0:
            return Status.BAD_REQUEST, []
        if oid in self.objects:
            return Status.DUPLICATE_ID, []
        if size > self.capacity:
            return Status.TOO_LARGE, []
        evicted = []
        if self.capacity - self.occupancy() < size:
            evicted = self.evict(size - (self.capacity - self.occupancy()))
            if self.capacity - self.occupancy() < size:
                return Status.STORE_FULL, evicted
        self.objects[oid] = [size, False, 0, 0]
        self._stamp(oid)
        return Status.OK, evicted

    def seal(self, oid):
        if oid not in self.objects:
            return Status.UNKNOWN_ID
        if self.objects[oid][1]:
            return Status.ALREADY_SEALED
        self.objects[oid][1] = True
        self._stamp(oid)
        return Status.OK

    def get(self, oid):
        if oid not in self.objects or not self.objects[oid][1]:
            return Status.PENDING
        self.objects[oid][2] += 1
        self._stamp(oid)
        return Status.OK

    def release(self, oid):
        if oid not in self.objects:
            return Status.UNKNOWN_ID
        if self.objects[oid][2] == 0:
            return Status.NO_REFS
        self.objects[oid][2] -= 1
        return Status.OK


class StoreLifecycleMachine(RuleBasedStateMachine):
    CAPACITY = 1000

    def __init__(self):
        super().__init__()
        self.real = StoreState(self.CAPACITY)
        self.model = _Model(self.CAPACITY, 0.2)

    ids = st.sampled_from([oid_of(i) for i in range(1, 7)])

    @rule(oid=ids, size=st.integers(min_value=-10, max_value=1200))
    def create(self, oid, size):
        result = self.real.create(oid, size)
        status, evicted = self.model.create(oid, size)
        assert result.status is status
        assert list(result.evicted) == evicted

    @rule(oid=ids)
    def seal(self, oid):
        assert self.real.seal(oid) is self.model.seal(oid)

    @rule(oid=ids)
    def get(self, oid):
        real_status, _ = self.real.get(oid)
        assert real_status is self.model.get(oid)

    @rule(oid=ids)
    def release(self, oid):
        assert self.real.release(oid) is self.model.release(oid)

    @invariant()
    def same_objects_and_occupancy(self):
        assert self.real.occupancy == self.model.occupancy()
        assert self.real.occupancy <= self.CAPACITY
        for oid, (size, sealed, refs, _stamp) in self.model.objects.items():
            assert self.real.describe(oid) == (size, sealed, refs)
        assert len(self.model.objects) == self.real.stats()["objects"]


TestStoreLifecycleMachine = StoreLifecycleMachine.TestCase
TestStoreLifecycleMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
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


def test_object_ref_codec_round_trip():
    ref = ObjectRef(
        random_object_id(), 9000, (5, 120), ((128, 4000), (4160, 4840))
    )
    assert ObjectRef.decode(ref.encode()) == ref
    with pytest.raises(ValueError):
        ObjectRef.decode(ref.encode() + b"junk")


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


def test_get_parks_until_seal(store):
    oid = random_object_id()
    results = {}

    def blocked_get():
        with StoreClient(store.socket_path) as client:
            t0 = time.monotonic()
            with client.get(oid, timeout_ns=2_000_000_000) as sealed:
                results["data"] = bytes(sealed.view)
            results["waited"] = time.monotonic() - t0

    getter = threading.Thread(target=blocked_get)
    getter.start()
    time.sleep(0.05)
    with StoreClient(store.socket_path) as writer:
        obj = writer.create(5, oid=oid)
        obj.write(0, b"hello")
        obj.seal()
        obj.close()
    getter.join(timeout=5)
    assert results["data"] == b"hello"
    assert 0.04 <= results["waited"] < 2.0


def test_get_times_out_on_never_created_id(store):
    with StoreClient(store.socket_path) as client:
        t0 = time.monotonic()
        with pytest.raises(StoreTimeout):
            client.get(random_object_id(), timeout_ns=10_000_000)
        assert time.monotonic() - t0 >= 0.01


def test_concurrent_parked_getters_all_wake(store):
    oid = random_object_id()
    seen = []

    def getter():
        with StoreClient(store.socket_path) as client:
            with client.get(oid, timeout_ns=2_000_000_000) as sealed:
                seen.append(bytes(sealed.view))

    threads = [threading.Thread(target=getter) for _ in range(3)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    with StoreClient(store.socket_path) as writer:
        obj = writer.create(3, oid=oid)
        obj.write(0, b"abc")
        obj.seal()
        obj.close()
    for t in threads:
        t.join(timeout=5)
    assert seen == [b"abc", b"abc", b"abc"]


def test_duplicate_create_raises(store):
    with StoreClient(store.socket_path) as client:
        obj = client.create(64)
        with pytest.raises(StoreError) as err:
            client.create(64, oid=obj.oid)
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
            with pytest.raises(StoreTimeout):
                client.get(a.oid, timeout_ns=10_000_000)
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
        freed, _ = store.state.evict(1024)
        assert freed == 1024  # the pin was dropped, so a is evictable
    unsealed.close()


def test_payload_layout_written_with_one_pass_per_byte(store):
    arr = np.arange(100_000, dtype=np.float64)
    value = {"seq": 3, "data": arr}
    payload = serialize(value)
    layout = build_layout(payload)

    with StoreClient(store.socket_path) as writer:
        obj = writer.create(layout.total_bytes)
        obj.write(0, layout.header)
        for span, seg in zip(layout.segment_spans, payload.segments):
            obj.write(span[0], seg)
        obj.seal()
        obj.close()
        assert writer.write_passes == 1 + len(payload.segments)
        assert writer.bytes_written == len(layout.header) + arr.nbytes

        with StoreClient(store.socket_path) as reader:
            with reader.get(obj.oid) as sealed:
                rebuilt_payload = payload_from_spans(
                    sealed.view,
                    (layout.inband_offset, layout.inband_length),
                    layout.segment_spans,
                )
                rebuilt = deserialize(rebuilt_payload, zero_copy=True)
                assert rebuilt["seq"] == 3
                assert np.array_equal(rebuilt["data"], arr)
                base = np.frombuffer(sealed.view, dtype=np.uint8)
                assert np.shares_memory(rebuilt["data"], base)


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


def test_descriptors_are_closed_after_each_cycle(store_process):
    _, sock = store_process
    with StoreClient(sock) as writer, StoreClient(sock) as reader:
        start = len(os.listdir("/proc/self/fd"))
        for i in range(200):
            obj = writer.create(4096 + 64 * i)  # mixed sizes, evicting late on
            obj.write(0, bytes([i]) * 16)
            obj.seal()
            obj.close()
            with reader.get(obj.oid) as sealed:
                assert sealed.view[:16].tobytes() == bytes([i]) * 16
        with pytest.raises(StoreError):
            writer.create(64, oid=obj.oid)
        with pytest.raises(StoreTimeout):
            reader.get(random_object_id(), timeout_ns=1_000_000)
        assert len(os.listdir("/proc/self/fd")) == start


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


_KEPT_VIEW_SCRIPT = """
import sys
from hprm.store import StoreClient, StoreDaemon

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
