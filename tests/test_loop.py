"""FrameLoop's dispatch order and its hold, driven over socket pairs.

Each test queues frames from two links in a chosen read order, then
dispatches them with or without a hold and checks which handlers ran,
and in what order.
"""

import socket

import pytest

from hprm.loop import FrameLoop
from hprm.tags import Tag
from hprm.transport import Frame, FrameConnection, FrameType


def data(time):
    return Frame(FrameType.TAGGED_MSG, Tag(time, 0), body=b"x")


def net(time):
    return Frame(FrameType.NET, Tag(time, 0))


class Loop:
    """A FrameLoop whose handlers record ``(peer, frame type, tag time)``."""

    def __init__(self):
        self.loop = FrameLoop()
        self.got = []
        self._senders = {}
        self.links = {}
        self._sockets = []
        # Always writable, so read_until_writable reads once and returns.
        self._spare, other = socket.socketpair()
        self._sockets += [self._spare, other]

    def link(self, peer):
        ours, theirs = socket.socketpair()
        self._sockets += [ours, theirs]
        self._senders[peer] = FrameConnection(theirs)
        self.links[peer] = self.loop.watch(FrameConnection(ours), self.record, peer)

    def record(self, link, item):
        self.got.append((link.peer, FrameType(item.type).name, item.tag.time))

    def read(self, *frames):
        """Queue ``(peer, frame)`` pairs in this read order, dispatching
        nothing."""
        for peer, frame in frames:
            self._senders[peer].send_frame(frame)
            self.loop.read_until_writable(self._spare)

    def close(self):
        self.loop.close()
        for sock in self._sockets:
            sock.close()


@pytest.fixture
def loop():
    harness = Loop()
    harness.link("a")
    harness.link("b")
    yield harness
    harness.close()


def test_no_hold_dispatches_everything_in_read_order(loop):
    loop.read(("a", data(5)), ("b", net(1)), ("a", data(9)), ("b", data(2)))
    loop.loop.serve(0)
    assert loop.got == [
        ("a", "TAGGED_MSG", 5),
        ("b", "NET", 1),
        ("a", "TAGGED_MSG", 9),
        ("b", "TAGGED_MSG", 2),
    ]


def test_hold_dispatches_through_the_last_data_frame_at_or_below_it(loop):
    """Frames read before that data frame go out, later-tagged ones too."""
    loop.read(("a", data(7)), ("b", net(3)), ("a", data(5)), ("b", data(9)))
    loop.loop.serve(0, Tag(5, 0))
    assert loop.got == [
        ("a", "TAGGED_MSG", 7),
        ("b", "NET", 3),
        ("a", "TAGGED_MSG", 5),
    ]
    loop.loop.serve(0)  # no hold: the held frame follows
    assert loop.got[3:] == [("b", "TAGGED_MSG", 9)]


def test_hold_keeps_a_link_from_its_first_later_data_frame(loop):
    """After the last due data frame, each link is held from its first
    data frame tagged above the hold; control frames of links not yet
    held still go out, and the held frames keep their read order."""
    loop.read(
        ("a", data(2)),
        ("a", data(8)),
        ("b", net(4)),
        ("a", net(8)),
        ("b", net(6)),
        ("b", data(7)),
        ("b", net(9)),
    )
    loop.loop.serve(0, Tag(5, 0))
    assert loop.got == [
        ("a", "TAGGED_MSG", 2),
        ("b", "NET", 4),
        ("b", "NET", 6),
    ]
    loop.loop.serve(0)
    assert loop.got[3:] == [
        ("a", "TAGGED_MSG", 8),
        ("a", "NET", 8),
        ("b", "TAGGED_MSG", 7),
        ("b", "NET", 9),
    ]


def test_hold_with_no_data_at_or_below_it_still_passes_control_frames(loop):
    loop.read(("a", net(1)), ("a", data(6)), ("b", net(2)), ("a", net(3)))
    loop.loop.serve(0, Tag(5, 0))
    assert loop.got == [("a", "NET", 1), ("b", "NET", 2)]


def test_frames_queued_from_a_done_link_are_dropped(loop):
    def end_a(link, item):  # b's handler ends a mid-dispatch
        loop.record(link, item)
        loop.links["a"].done = True

    loop.links["b"].handle = end_a
    loop.read(("a", data(1)), ("b", data(2)), ("a", data(3)), ("b", net(4)))
    loop.loop.serve(0)
    assert loop.got == [
        ("a", "TAGGED_MSG", 1),
        ("b", "TAGGED_MSG", 2),
        ("b", "NET", 4),
    ]


def test_held_frames_of_a_link_that_ends_are_dropped(loop):
    loop.read(("b", data(1)), ("a", data(9)), ("a", net(9)), ("b", net(2)))
    loop.loop.serve(0, Tag(5, 0))
    assert loop.got == [("b", "TAGGED_MSG", 1), ("b", "NET", 2)]
    loop.links["a"].done = True
    loop.loop.serve(0)
    assert len(loop.got) == 2
