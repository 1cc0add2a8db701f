"""Frame codec and eager connection behavior over loopback."""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hprm.tags import FOREVER, NEVER, TIME_MAX, TIME_MIN, Tag
from hprm.transport import (
    HEADER_BYTES,
    ConnectionOptions,
    Frame,
    FrameConnection,
    FrameListener,
    FrameProtocolError,
    FrameType,
    OversizeFrameError,
    connect,
    decode_header,
    encode_header,
    listen,
    ping_rtt,
    serve_echo,
)


def loopback_pair(options=None):
    listener = FrameListener(options=options)
    client_holder = {}

    def _connect():
        client_holder["conn"] = connect(listener.address, options)

    t = threading.Thread(target=_connect)
    t.start()
    server = listener.accept()
    t.join()
    listener.close()
    return client_holder["conn"], server


def test_header_is_exactly_22_bytes():
    assert HEADER_BYTES == 22
    frame = Frame(FrameType.TAGGED_MSG, Tag(5, 2), port=9, body=b"abc")
    assert len(encode_header(frame)) == 22


def test_header_golden_layout():
    # type=8, flags=0, time=0x0102030405060708, microstep=7, port=3, len=2
    frame = Frame(
        FrameType.TAGGED_MSG, Tag(0x0102030405060708, 7), port=3, body=b"hi"
    )
    expected = (
        b"\x08"
        + b"\x00"
        + b"\x08\x07\x06\x05\x04\x03\x02\x01"
        + b"\x07\x00\x00\x00"
        + b"\x03\x00\x00\x00"
        + b"\x02\x00\x00\x00"
    )
    assert encode_header(frame) == expected


def test_header_codec_round_trip_sentinels():
    for tag in (NEVER, FOREVER, Tag(-5, 0), Tag(0, 0)):
        header = encode_header(Frame(FrameType.NET, tag))
        ftype, flags, decoded, port, body_len = decode_header(header)
        assert decoded == tag
        assert (ftype, flags, port, body_len) == (FrameType.NET, 0, 0, 0)


finite_tags = st.builds(
    Tag,
    st.integers(min_value=TIME_MIN + 1, max_value=TIME_MAX - 1),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@given(
    st.sampled_from(list(FrameType)),
    st.one_of(finite_tags, st.just(NEVER), st.just(FOREVER)),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.binary(max_size=200),
)
@settings(max_examples=200)
def test_header_codec_identity(ftype, tag, port, body):
    frame = Frame(ftype, tag, port, body)
    decoded_type, _flags, decoded_tag, decoded_port, body_len = decode_header(
        encode_header(frame)
    )
    assert decoded_type == ftype
    assert decoded_tag == tag
    assert decoded_port == port
    assert body_len == len(body)


def test_decode_rejects_unknown_type():
    raw = struct.pack("<BBqIII", 77, 0, 0, 0, 0, 0)
    with pytest.raises(FrameProtocolError):
        decode_header(raw)


def test_decode_rejects_reserved_tag_encoding():
    raw = struct.pack("<BBqIII", FrameType.NET, 0, TIME_MAX, 0, 0, 0)
    with pytest.raises(FrameProtocolError):
        decode_header(raw)


def test_decode_rejects_absurd_length():
    raw = struct.pack("<BBqIII", FrameType.PING, 0, 0, 0, 0, 2**31 + 1)
    with pytest.raises(FrameProtocolError):
        decode_header(raw)


def test_round_trip_over_loopback():
    client, server = loopback_pair()
    try:
        frame = Frame(FrameType.TAGGED_MSG, Tag(123, 4), port=7, body=b"payload")
        client.send_frame(frame)
        received = server.recv_frame()
        assert received == frame
    finally:
        client.close()
        server.close()


def test_many_frames_in_order_single_buffer_allocation():
    client, server = loopback_pair()
    watched = watch(server)
    count = 10_000

    def _send():
        for seq in range(count):
            client.send_frame(
                Frame(FrameType.TAGGED_MSG, Tag(seq, 0), body=seq.to_bytes(4, "little"))
            )
        client.close()

    sender = threading.Thread(target=_send)
    sender.start()
    try:
        expected = 0  # independent sequence oracle
        while True:
            frame = server.recv_frame()
            if frame is None:
                break
            assert frame.tag.time == expected
            assert int.from_bytes(frame.body, "little") == expected
            expected += 1
        assert expected == count
        assert len(watched.buffers) == 1
    finally:
        sender.join()
        server.close()


def test_oversize_send_rejected_before_touching_the_socket():
    client, server = loopback_pair()
    try:
        with pytest.raises(OversizeFrameError):
            client.send_frame(
                Frame(FrameType.TAGGED_MSG, Tag(0, 0), body=b"x" * 70_000)
            )
        client.close()
        assert server.recv_frame() is None  # the peer received nothing
    finally:
        client.close()
        server.close()


def test_oversize_declared_body_rejected_on_receive():
    client, server = loopback_pair()
    watched = watch(server)
    try:
        raw = struct.pack("<BBqIII", FrameType.TAGGED_MSG, 0, 0, 0, 0, 66_000)
        client._sock.sendall(raw)
        with pytest.raises(OversizeFrameError):
            server.recv_frame()
        assert len(watched.buffers) == 1
    finally:
        client.close()
        server.close()


def test_eof_mid_frame_is_an_error_and_clean_eof_is_none():
    client, server = loopback_pair()
    watched = watch(server)
    client._sock.sendall(b"\x08\x00\x00")  # 3 bytes of a 22-byte header
    client.close()
    with pytest.raises(FrameProtocolError):
        server.recv_frame()
    assert len(watched.buffers) == 1
    server.close()

    client, server = loopback_pair()
    watched = watch(server)
    client.send_frame(Frame(FrameType.PING, Tag(0, 0)))
    client.close()
    assert server.recv_frame() is not None
    assert server.recv_frame() is None  # boundary EOF
    assert len(watched.buffers) == 1
    server.close()


def test_enlarged_buffer_carries_large_frames():
    options = ConnectionOptions(eager_buffer_bytes=2 * 2**20)
    client, server = loopback_pair(options)
    watched = watch(server)
    try:
        body = bytes(range(256)) * 4096  # 1 MiB
        client.send_frame(Frame(FrameType.TAGGED_MSG, Tag(1, 0), body=body))
        received = server.recv_frame()
        assert received.body == body
        assert len(watched.buffers) == 1
    finally:
        client.close()
        server.close()


def test_nodelay_follows_coalescing_option():
    on = loopback_pair(ConnectionOptions(disable_coalescing=True))
    off = loopback_pair(ConnectionOptions(disable_coalescing=False))
    try:
        for conn in on:
            assert conn._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        for conn in off:
            assert conn._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 0
    finally:
        for conn in (*on, *off):
            conn.close()


def test_ping_echo_round_trip():
    client, server = loopback_pair()
    echo_thread = threading.Thread(target=serve_echo, args=(server,))
    echo_thread.start()
    try:
        samples = ping_rtt(client, 50, warmup=5)
        assert len(samples) == 50
        assert all(s > 0 for s in samples)
    finally:
        client.close()
        echo_thread.join()
        server.close()


# -- buffered receive -----------------------------------------------------------


class _CountingSocket:
    """A socket whose ``recv_into`` calls are counted, optionally capped
    at ``limit`` bytes each, and whose target buffers are recorded; each
    ``sendmsg`` call records how many buffers it was given and how many
    bytes it wrote."""

    def __init__(self, sock, limit=None):
        self._sock = sock
        self.limit = limit
        self.recv_calls = 0
        # Each buffer recv_into filled, by id; kept alive, so ids stay unique.
        self.buffers = {}
        self.sendmsgs = []  # (buffer count, bytes written or None)

    def recv_into(self, view):
        self.recv_calls += 1
        self.buffers[id(view.obj)] = view.obj
        if self.limit is not None:
            view = view[: self.limit]
        return self._sock.recv_into(view)

    def sendmsg(self, buffers, *args):
        try:
            sent = self._sock.sendmsg(buffers, *args)
        except BlockingIOError:
            self.sendmsgs.append((len(buffers), None))
            raise
        self.sendmsgs.append((len(buffers), sent))
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


def watch(conn):
    """Count ``conn``'s reads; returns its :class:`_CountingSocket`."""
    conn._sock = _CountingSocket(conn._sock)
    return conn._sock


def counted_pair(buffer_bytes=1024, limit=None):
    """(raw sending socket, receiving FrameConnection, its counting socket)."""
    raw, theirs = socket.socketpair()
    counting = _CountingSocket(theirs, limit)
    conn = FrameConnection(counting, ConnectionOptions(eager_buffer_bytes=buffer_bytes))
    return raw, conn, counting


def wire_bytes(*frames):
    return b"".join(encode_header(f) + f.body for f in frames)


def test_one_recv_into_yields_every_frame_it_brings():
    raw, conn, counting = counted_pair()
    frames = [
        Frame(FrameType.NET, Tag(i, 0), body=b"x" * i) for i in range(5)
    ]
    try:
        raw.sendall(wire_bytes(*frames))
        raw.close()
        assert [conn.recv_frame() for _ in frames] == frames
        assert counting.recv_calls == 1
        assert conn.recv_frame() is None
        assert counting.recv_calls == 2
        assert len(counting.buffers) == 1
    finally:
        conn.close()


def test_a_sender_writing_one_byte_at_a_time():
    raw, conn, counting = counted_pair(limit=1)
    frames = [
        Frame(FrameType.TAGGED_MSG, Tag(i, 1), port=i, body=bytes([i]) * (7 * i))
        for i in range(6)
    ]
    data = wire_bytes(*frames)

    def trickle():
        for i in range(len(data)):
            raw.sendall(data[i : i + 1])
        raw.close()

    sender = threading.Thread(target=trickle)
    sender.start()
    try:
        got = [conn.recv_frame() for _ in frames]
        assert conn.recv_frame() is None
    finally:
        sender.join(timeout=10)
        conn.close()
    assert not sender.is_alive()
    assert got == frames
    assert counting.recv_calls == len(data) + 1  # every byte, then EOF
    assert len(counting.buffers) == 1


def test_a_frame_crossing_the_buffer_end_moves_to_the_start():
    raw, conn, counting = counted_pair(buffer_bytes=1024)
    first = Frame(FrameType.TAGGED_MSG, Tag(1, 0), body=b"a" * 600)
    second = Frame(FrameType.TAGGED_MSG, Tag(2, 0), body=bytes(range(200)) * 3)
    try:
        raw.sendall(wire_bytes(first, second))
        buf = conn._buf
        assert conn.recv_frame() == first  # the read also took 402 bytes of second
        assert counting.recv_calls == 1
        assert conn.recv_frame() == second
        assert counting.recv_calls == 2
        assert conn._buf is buf
        assert set(counting.buffers) == {id(buf)}
    finally:
        raw.close()
        conn.close()


def test_frames_of_exactly_the_buffer_size():
    raw, conn, counting = counted_pair(buffer_bytes=1024)
    full = 1024 - HEADER_BYTES
    frames = [
        Frame(FrameType.TAGGED_MSG, Tag(1, 0), body=b"a" * full),
        Frame(FrameType.TAGGED_MSG, Tag(2, 0), body=b"b" * full),
        Frame(FrameType.PING, Tag(3, 0)),
        Frame(FrameType.TAGGED_MSG, Tag(4, 0), body=b"c" * full),  # after a partial
    ]
    try:
        raw.sendall(wire_bytes(*frames))
        raw.close()
        assert [conn.recv_frame() for _ in frames] == frames
        assert conn.recv_frame() is None
        assert len(counting.buffers) == 1
    finally:
        conn.close()


@pytest.mark.parametrize(
    "tail",
    [
        b"\x08\x00\x00",  # 3 bytes of a 22-byte header
        struct.pack("<BBqIII", FrameType.TAGGED_MSG, 0, 0, 0, 0, 10) + b"abcd",
    ],
    ids=["mid-header", "mid-body"],
)
def test_eof_mid_frame_after_a_whole_frame(tail):
    raw, conn, counting = counted_pair()
    whole = Frame(FrameType.PING, Tag(5, 0), body=b"ok")
    try:
        raw.sendall(wire_bytes(whole) + tail)
        raw.close()
        assert conn.recv_frame() == whole
        with pytest.raises(FrameProtocolError):
            conn.recv_frame()
        assert len(counting.buffers) == 1
    finally:
        conn.close()


def test_oversize_declared_body_after_a_whole_frame():
    raw, conn, counting = counted_pair(buffer_bytes=1024)
    whole = Frame(FrameType.PING, Tag(5, 0))
    oversize = struct.pack("<BBqIII", FrameType.TAGGED_MSG, 0, 0, 0, 0, 1024 - 21)
    try:
        raw.sendall(wire_bytes(whole) + oversize)
        assert conn.recv_frame() == whole
        with pytest.raises(OversizeFrameError):
            conn.recv_frame()
        assert len(counting.buffers) == 1
    finally:
        raw.close()
        conn.close()


def test_buffered_frame_waits_for_the_whole_frame_without_reading():
    """A partial header or body parses as nothing, and parsing never
    reads the socket: each read brings what has arrived, and the frame
    comes out once its last byte has."""
    raw, conn, counting = counted_pair()
    counting._sock.settimeout(1)  # a read that should not happen fails, not hangs
    frame = Frame(FrameType.TAGGED_MSG, Tag(3, 0), port=1, body=b"x" * 100)
    data = wire_bytes(frame)
    try:
        for reads, (lo, hi) in enumerate(
            [(0, 10), (10, HEADER_BYTES + 50), (HEADER_BYTES + 50, len(data))], 1
        ):
            raw.sendall(data[lo:hi])
            assert conn.read()
            assert counting.recv_calls == reads
            parsed = conn.buffered_frame()
            if hi < len(data):
                assert parsed is None
                assert conn.buffered_frame() is None
        assert parsed == frame
        assert conn.buffered_frame() is None
        assert counting.recv_calls == 3
    finally:
        raw.close()
        conn.close()


def test_unix_frames_are_one_sendmsg_and_a_full_buffer_calls_wait_writable():
    """Over a Unix socket pair each frame is one ``sendmsg`` of its header
    and its body.  A 1 MiB body does not fit the socket buffer: the send
    writes what fits, calls ``wait_writable`` (here it reads the other
    end, on the sending thread) and resends the rest until it is all
    gone.  The receiver reads every frame into its one buffer."""
    options = ConnectionOptions(eager_buffer_bytes=2 * 2**20)
    ours, theirs = socket.socketpair()
    sending = _CountingSocket(ours)
    sender = FrameConnection(sending, options)
    receiver = FrameConnection(theirs, options)
    watched = watch(receiver)
    got, waits = [], []

    def drain():
        waits.append(len(sending.sendmsgs))
        receiver.read()
        while (frame := receiver.buffered_frame()) is not None:
            got.append(frame)

    sender.wait_writable = drain
    small = Frame(FrameType.NET, Tag(1, 0), body=b"progress")
    big = Frame(FrameType.TAGGED_MSG, Tag(2, 0), port=5, body=bytes(range(256)) * 4096)
    try:
        sender.send_frame(small)
        assert sending.sendmsgs == [(2, HEADER_BYTES + len(small.body))]
        sender.send_frame(big)
        while len(got) < 2:
            drain()
        assert got == [small, big]
        tries = sending.sendmsgs[1:]
        assert tries[0][0] == 2  # header and body together
        assert 0 < tries[0][1] < HEADER_BYTES + len(big.body)  # a partial write
        assert sum(sent or 0 for _, sent in tries) == HEADER_BYTES + len(big.body)
        assert waits  # it waited while the rest could not go
        assert len(watched.buffers) == 1
    finally:
        sender.close()
        receiver.close()


def test_tcp_frames_with_wait_writable_are_two_nonblocking_writes():
    """Over TCP with ``wait_writable`` set, a frame is still two writes,
    its header and then its body, each made without blocking.  A 12 MiB
    body is more than a loopback send buffer grows to: the body's write
    is partial, the send calls ``wait_writable`` (here it reads the other
    end) and resends the rest."""
    options = ConnectionOptions(eager_buffer_bytes=16 * 2**20)
    with socket.create_server(("127.0.0.1", 0)) as server:
        ours = socket.create_connection(server.getsockname()[:2])
        theirs, _ = server.accept()
    sending = _CountingSocket(ours)
    sender = FrameConnection(sending, options)
    receiver = FrameConnection(theirs, options)
    got, waits = [], []

    def drain():
        waits.append(len(sending.sendmsgs))
        receiver.read()
        while (frame := receiver.buffered_frame()) is not None:
            got.append(frame)

    sender.wait_writable = drain
    small = Frame(FrameType.NET, Tag(1, 0), body=b"progress")
    big = Frame(FrameType.TAGGED_MSG, Tag(2, 0), port=5, body=bytes(range(256)) * 49152)
    try:
        sender.send_frame(small)
        assert sending.sendmsgs == [(1, HEADER_BYTES), (1, len(small.body))]
        sender.send_frame(big)
        while len(got) < 2:
            drain()
        assert got == [small, big]
        tries = sending.sendmsgs[2:]
        assert tries[0] == (1, HEADER_BYTES)
        assert all(count == 1 for count, _ in tries)
        assert 0 < (tries[1][1] or 0) < len(big.body)  # a partial write
        assert sum(sent or 0 for _, sent in tries) == HEADER_BYTES + len(big.body)
        assert waits
    finally:
        sender.close()
        receiver.close()


def test_connect_takes_a_unix_name_or_a_host_and_port():
    """A loopback listener is an abstract Unix socket named by a string;
    a TCP listener gives (host, port).  Either survives the JSON a JOIN
    carries, and connect picks the family from its shape."""
    unix = listen("127.0.0.1")
    tcp = FrameListener("127.0.0.1", 0)
    assert isinstance(unix.address, str) and unix.address.startswith("\0")
    assert isinstance(tcp.address, tuple)
    try:
        for listener, family in ((unix, socket.AF_UNIX), (tcp, socket.AF_INET)):
            address = json.loads(json.dumps(listener.address))
            with connect(address) as client, listener.accept() as server:
                assert client._sock.family == server._sock.family == family
                frame = Frame(FrameType.TAGGED_MSG, Tag(7, 1), port=2, body=b"hi")
                client.send_frame(frame)
                assert server.recv_frame() == frame
    finally:
        unix.close()
        tcp.close()
