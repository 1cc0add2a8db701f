"""Benchmark worker process.

Each federate in a benchmark run is one of these processes, launched as
``python -m hprm.bench.worker --config <json file>``.  The config names
a role; the role decides which reactions get registered.  Results land
in a JSON file the orchestrator collects after the process exits.

Roles:

* ``broadcast_pub`` / ``broadcast_sub`` -- one-to-many payload latency.
* ``gather_pub`` / ``gather_sub`` -- many-to-one payload latency.
* ``ordering_pub`` / ``ordering_sub`` -- sequence-numbered ordering stress.
* ``echo`` -- a bare frame echo server for ping/coalescing runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from hprm.bench.delayline import DelayListener
from hprm.clock import MonotonicClock
from hprm.federate import Federate, FederateConfig, RunSummary
from hprm.tags import Tag
from hprm.topology import Topology
from hprm.transport import ConnectionOptions, FrameListener, serve_echo


def _build_federate(cfg: dict) -> Federate:
    topo = Topology.from_dict(cfg["topology"])
    options = ConnectionOptions(
        eager_buffer_bytes=cfg.get("eager_buffer_bytes", 65536),
        disable_coalescing=cfg.get("disable_coalescing", True),
    )
    fed_cfg = FederateConfig(
        fid=cfg["fid"],
        mode=cfg["mode"],
        rti_address=(cfg["rti_host"], cfg["rti_port"]),
        store_path=cfg.get("store_path"),
        stp_offset_ns=cfg.get("stp_offset_ns", 0),
        connection=options,
    )
    listener = None
    if cfg.get("inject_recv_jitter_ns"):
        listener = DelayListener(
            FrameListener(fed_cfg.listen_host, 0, options),
            cfg["inject_recv_jitter_ns"],
            cfg.get("jitter_seed", 0),
        )
    return Federate(fed_cfg, topo, listener=listener)


def _payload_array(size_bytes: int) -> np.ndarray:
    return np.arange(max(1, size_bytes // 8), dtype=np.float64)


def run_broadcast_pub(cfg: dict) -> dict:
    fed = _build_federate(cfg)
    clock = MonotonicClock()
    total = cfg["iters_total"]
    period = cfg["period_ns"]
    arr = _payload_array(cfg["size_bytes"])
    starts: dict[int, int] = {}

    def tick(ctx):
        k = int(ctx.value)
        t0 = clock.now_ns()
        ctx.publish("out", [k, arr])
        starts[k] = t0
        if k + 1 < total:
            ctx.schedule(Tag(ctx.tag.time + period, 0), "tick", k + 1)

    fed.on("tick", tick)
    start = fed.start()
    fed.schedule(Tag(start.time + period, 0), "tick", 0)
    summary = fed.run()
    return {"starts": starts, "summary": dataclasses.asdict(summary)}


def run_broadcast_sub(cfg: dict) -> dict:
    fed = _build_federate(cfg)
    clock = MonotonicClock()
    total = cfg["iters_total"]
    dones: dict[int, int] = {}

    def on_msg(ctx):
        k = int(ctx.value[0])
        data = ctx.value[1]
        _ = data[-1]  # the payload must actually be present
        dones[k] = clock.now_ns()
        if len(dones) >= total:
            ctx.federate.request_stop()

    fed.on("in", on_msg)
    summary = fed.run()
    return {"dones": dones, "summary": dataclasses.asdict(summary)}


def run_gather_pub(cfg: dict) -> dict:
    # Publishing side of gather is a broadcast publisher with one edge.
    return run_broadcast_pub(cfg)


def run_gather_sub(cfg: dict) -> dict:
    fed = _build_federate(cfg)
    clock = MonotonicClock()
    total = cfg["iters_total"]
    expect = cfg["n_publishers"]
    counts: dict[int, int] = {}
    dones: dict[int, int] = {}

    def on_msg(ctx):
        k = int(ctx.value[0])
        _ = ctx.value[1][-1]
        counts[k] = counts.get(k, 0) + 1
        if counts[k] == expect:
            dones[k] = clock.now_ns()
            if len(dones) >= total:
                ctx.federate.request_stop()

    fed.on("in", on_msg)
    summary = fed.run()
    return {"dones": dones, "summary": dataclasses.asdict(summary)}


def run_ordering_pub(cfg: dict) -> dict:
    fed = _build_federate(cfg)
    index = cfg["pub_index"]
    n_pubs = cfg["n_publishers"]
    count = cfg["message_count"]
    period = cfg["period_ns"]  # inter-message period across all publishers

    def tick(ctx):
        seq = int(ctx.value)
        ctx.publish("out", [index, seq])
        if seq + 1 < count:
            ctx.schedule(Tag(ctx.tag.time + n_pubs * period, 0), "tick", seq + 1)

    fed.on("tick", tick)
    start = fed.start()
    # Publisher i owns tag slots start + (k*n_pubs + i) * period.
    fed.schedule(Tag(start.time + (index + 1) * period, 0), "tick", 0)
    summary = fed.run()
    return {"summary": dataclasses.asdict(summary)}


def run_ordering_sub(cfg: dict) -> dict:
    fed = _build_federate(cfg)
    clock = MonotonicClock()
    total = cfg["message_count_total"]
    last_tag: list = [None]
    next_seq: dict[int, int] = {}
    tag_order_errors = 0
    seq_inversions = 0
    detected = []
    delays: list[int] = []
    handled = [0]

    def maybe_stop(fed_):
        if handled[0] >= total:
            fed_.request_stop()

    def on_msg(ctx):
        nonlocal tag_order_errors, seq_inversions
        handled[0] += 1
        if last_tag[0] is not None and not (last_tag[0] < ctx.tag):
            tag_order_errors += 1
        last_tag[0] = ctx.tag
        pub, seq = int(ctx.value[0]), int(ctx.value[1])
        if seq < next_seq.get(pub, 0):
            seq_inversions += 1
        next_seq[pub] = max(next_seq.get(pub, 0), seq + 1)
        delays.append(max(1, clock.now_ns() - ctx.tag.time))
        maybe_stop(ctx.federate)

    def on_late(ctx):
        handled[0] += 1
        detected.append({"time": ctx.tag.time, "microstep": ctx.tag.microstep,
                         "lateness_ns": ctx.lateness_ns})
        maybe_stop(ctx.federate)

    fed.on("in", on_msg, on_stp_violation=on_late)
    summary = fed.run()
    return {
        "summary": dataclasses.asdict(summary),
        "tag_order_errors": tag_order_errors,
        "seq_inversions": seq_inversions,
        "detected_violations": len(detected),
        "processed": handled[0] - len(detected),
        "delays_ns": delays,
    }


def run_echo(cfg: dict) -> dict:
    options = ConnectionOptions(
        eager_buffer_bytes=cfg.get("eager_buffer_bytes", 65536),
        disable_coalescing=cfg.get("disable_coalescing", True),
    )
    listener = FrameListener("127.0.0.1", 0, options)
    host, port = listener.address
    print(f"echo listening on {host}:{port}", flush=True)
    conn = listener.accept()
    serve_echo(conn)
    return {"summary": {"status": "completed"}}


ROLES = {
    "broadcast_pub": run_broadcast_pub,
    "broadcast_sub": run_broadcast_sub,
    "gather_pub": run_gather_pub,
    "gather_sub": run_gather_sub,
    "ordering_pub": run_ordering_pub,
    "ordering_sub": run_ordering_sub,
    "echo": run_echo,
}


def _boost_scheduling() -> None:
    """Best-effort latency hygiene for measurement processes.

    Without spare cores, fair-share wakeup granularity adds multi-ms
    scheduling noise to a pipeline whose own work is microseconds;
    run-to-block FIFO scheduling removes that artifact.  Every worker
    thread blocks between events, so nothing can starve, and threads
    spawned later inherit the policy."""
    try:
        os.sched_setscheduler(0, os.SCHED_FIFO, os.sched_param(10))
    except (AttributeError, OSError):
        try:
            os.nice(-10)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark federate worker")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    args = parser.parse_args(argv)
    cfg = json.loads(Path(args.config).read_text())
    role = cfg["role"]
    _boost_scheduling()
    try:
        result = ROLES[role](cfg)
        result["role"] = role
        result["fid"] = cfg.get("fid", "")
        status = 0
    except Exception as exc:  # reported to the orchestrator, not swallowed
        result = {"role": role, "fid": cfg.get("fid", ""), "error": repr(exc)}
        status = 1
    if cfg.get("result_path"):
        Path(cfg["result_path"]).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
