"""Single-layer probes for the traced run: no federation, fixed work.

* ``ping_rtt_us`` -- median round trip of a 64-byte frame, with
  coalescing disabled, from ``ping_rtt`` against ``serve_echo`` in
  another process;
* ``grant_rtt_us`` -- median time from a NET announcement to its
  TAG_GRANT, for a one-federate federation whose federate is faked here;
* ``schedule_q1000_us`` -- median ``Federate.schedule`` call with 1000
  events already queued, in this process, without a network.

Each returns None when a name it calls no longer exists.
"""

from __future__ import annotations

import json
import statistics
import time

PINGS = 1000
GRANTS = 500
SCHEDULES = 200


def ping_rtt_us(children) -> float | None:
    try:
        from hprm.transport import ConnectionOptions, connect, ping_rtt
    except ImportError:
        return None
    children.workdir.mkdir(parents=True)
    try:
        children.spawn("echo", "daemon.py", "echo")
        address = tuple(children.expect("ready", ["echo"], 30)["echo"]["address"])
        with connect(address, ConnectionOptions(disable_coalescing=True), retry_for=5.0) as conn:
            rtts = ping_rtt(conn, PINGS, payload_bytes=64, warmup=PINGS // 10)
    finally:
        children.close()
    return statistics.median(rtts) / 1e3


def grant_rtt_us(children) -> float | None:
    try:
        from hprm.rti import encode_progress
        from hprm.tags import Tag
        from hprm.transport import Frame, FrameListener, FrameType, connect
    except ImportError:
        return None
    children.workdir.mkdir(parents=True)
    topo = children.workdir / "topology.json"
    topo.write_text(json.dumps({"federates": ["solo"], "connections": []}))
    samples = []
    try:
        children.spawn("rti", "daemon.py", "rti", str(topo))
        address = tuple(children.expect("ready", ["rti"], 30)["rti"]["address"])
        with FrameListener("127.0.0.1", 0) as listener, connect(address, retry_for=5.0) as conn:
            join = {"fid": "solo", "clock_ns": time.monotonic_ns(), "address": list(listener.address)}
            conn.send_frame(Frame(FrameType.JOIN, Tag(0, 0), body=json.dumps(join).encode()))
            start = conn.recv_frame().tag
            progress = encode_progress(False, 0, 0)
            for i in range(1, GRANTS + 1):
                tag = Tag(start.time + i, 0)
                t0 = time.perf_counter_ns()
                conn.send_frame(Frame(FrameType.NET, tag, body=progress))
                grant = conn.recv_frame()
                samples.append(time.perf_counter_ns() - t0)
                if grant is None or grant.type != FrameType.TAG_GRANT or grant.tag != tag:
                    raise RuntimeError(f"expected a grant of {tag!r}, got {grant}")
            conn.send_frame(Frame(FrameType.RESIGN, tag))
    finally:
        children.close()
    return statistics.median(samples) / 1e3


def schedule_q1000_us() -> float | None:
    try:
        from hprm.federate import Federate, FederateConfig
        from hprm.tags import Tag
        from hprm.topology import Topology
    except ImportError:
        return None
    fed = Federate(FederateConfig(fid="solo"), Topology.build(["solo"], []))
    for i in range(1000):
        fed.schedule(Tag(1_000_000 + 2 * i, 0), "tick")
    samples = []
    for i in range(SCHEDULES):
        tag = Tag(1_000_001 + 2 * i, 0)  # lands mid-queue
        t0 = time.perf_counter_ns()
        fed.schedule(tag, "tick")
        samples.append(time.perf_counter_ns() - t0)
    return statistics.median(samples) / 1e3
