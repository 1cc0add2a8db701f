"""The benchmark's receive-latency model: a per-connection delay line."""

import json
import random
import time
import zlib

import pytest

from hprm.bench.delayline import DelayListener
from hprm.tags import Tag
from hprm.transport import (
    HEADER,
    Frame,
    FrameListener,
    FrameProtocolError,
    FrameType,
    connect,
)

MS = 1_000_000
HELLO = Frame(FrameType.JOIN, Tag(0, 0), body=json.dumps({"fid": "pub"}).encode())


@pytest.fixture
def line(request):
    """(sender, delayed receiver) over loopback, seed 3, with the jitter
    the test is parametrized with, else 20 ms."""
    jitter_ns = getattr(request, "param", 20 * MS)
    listener = DelayListener(FrameListener(), jitter_ns, seed=3)
    sender = connect(listener.address)
    sender._sock.settimeout(10)  # a reply that never comes fails, not hangs
    sender.send_frame(HELLO)
    receiver = listener.accept()
    listener.close()
    yield sender, receiver
    sender.close()
    receiver.close()


def draws(n, jitter_ns=20 * MS, seed=3):
    rng = random.Random((seed << 32) ^ zlib.crc32(b"pub"))
    return [int(rng.uniform(0, jitter_ns)) for _ in range(n)]


def msg(k, time_ns):
    return Frame(FrameType.TAGGED_MSG, Tag(time_ns, 0), 1, bytes([k]))


def test_frames_come_out_fifo_and_never_before_due(line):
    sender, receiver = line
    assert receiver.recv_frame() == HELLO
    future = time.monotonic_ns() + 10**9  # anchors every draw at the arrival
    sent_at = []
    for k in range(8):
        sent_at.append(time.monotonic_ns())
        sender.send_frame(msg(k, future - k * MS))  # later frames, earlier tags
    got = []
    for k, draw in enumerate(draws(8)):
        frame = receiver.recv_frame()
        got.append(frame.body[0])
        assert time.monotonic_ns() >= sent_at[k] + draw
    assert got == list(range(8))


@pytest.mark.parametrize("line", [1000 * MS], indirect=True)
def test_a_past_tag_anchors_the_due_time(line):
    sender, receiver = line
    assert receiver.recv_frame() == HELLO
    now = time.monotonic_ns()
    sender.send_frame(msg(0, now - 2000 * MS))  # due a second ago at the latest
    assert receiver.recv_frame().body == b"\x00"
    # anchored at the arrival instead, it would wait out the first draw
    assert draws(1, 1000 * MS)[0] > 900 * MS
    assert time.monotonic_ns() - now < 500 * MS


def test_eof_comes_only_after_the_last_held_frame(line):
    sender, receiver = line
    assert receiver.recv_frame() == HELLO
    future = time.monotonic_ns() + 10**9
    for k in range(5):
        sender.send_frame(msg(k, future))
    sender.close()
    assert [receiver.recv_frame().body[0] for _ in range(5)] == list(range(5))
    assert receiver.recv_frame() is None


def test_a_transport_error_comes_after_the_held_frames(line):
    sender, receiver = line
    assert receiver.recv_frame() == HELLO
    sender.send_frame(msg(0, time.monotonic_ns() + 10**9))
    sender._sock.sendall(HEADER.pack(99, 0, 0, 0, 0, 0))  # no such frame type
    assert receiver.recv_frame().body == b"\x00"
    with pytest.raises(FrameProtocolError):
        receiver.recv_frame()


def test_sends_and_close_pass_through(line):
    sender, receiver = line
    ping = Frame(FrameType.PING, Tag(0, 0), body=b"12345678")
    receiver.send_frame(ping)
    assert sender.recv_frame() == ping
    receiver.close()
    assert sender.recv_frame() is None
