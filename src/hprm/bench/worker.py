"""Benchmark worker process.

Each federate in a benchmark run is one of these processes, launched as
``python -m hprm.bench.worker --config <json file>``.  The config names
a role; the role decides which reactions get registered.  Results land
in a JSON file the orchestrator collects after the process exits.  A
role that fails ends the process with a non-zero exit and its traceback
on stderr, which the orchestrator quotes in the error it raises.

Roles:

* ``pub`` -- publishes ``[pub_index, seq]``, plus an array of
  ``size_bytes`` when that is positive, at one tag slot per message.
  Broadcast and gather publishers share every slot; the ordering
  publishers take turns.
* ``sub`` -- checks tag order and each publisher's sequence, stamps
  when every publisher's copy of a sequence number has been handled,
  and counts late arrivals.
* ``echo`` -- for the coalescing runs: returns each NET, and nothing
  for the message frame before it, as a subscriber runs a message only
  once the announcement behind it is in.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from hprm.bench.delayline import DelayListener
from hprm.federate import Federate, FederateConfig
from hprm.tags import Tag
from hprm.topology import Topology
from hprm.transport import ConnectionOptions, FrameListener, FrameType, listen


def _options(cfg: dict) -> ConnectionOptions:
    """The config's transport settings; ``ConnectionOptions`` holds the
    defaults for those it leaves out."""
    fields = ("eager_buffer_bytes", "disable_coalescing")
    return ConnectionOptions(**{k: cfg[k] for k in fields if k in cfg})


def _build_federate(cfg: dict) -> Federate:
    topo = Topology.from_dict(cfg["topology"])
    options = _options(cfg)
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
            listen(fed_cfg.listen_host, options),
            cfg["inject_recv_jitter_ns"],
            cfg.get("jitter_seed", 0),
        )
    return Federate(fed_cfg, topo, listener=listener)


def run_pub(cfg: dict) -> dict:
    """Publisher ``pub_index``, in ``slot`` of ``slots``: message ``seq``
    goes out at tag ``start + (seq*slots + slot + 1) * period_ns``."""
    fed = _build_federate(cfg)
    index = cfg["pub_index"]
    count = cfg["message_count"]
    stride = cfg["slots"] * cfg["period_ns"]
    size = cfg.get("size_bytes", 0)
    array = [np.arange(max(1, size // 8), dtype=np.float64)] if size > 0 else []
    starts: dict[int, int] = {}

    def tick(ctx):
        seq = int(ctx.value)
        starts[seq] = time.monotonic_ns()
        ctx.publish("out", [index, seq, *array])
        if seq + 1 < count:
            ctx.schedule(Tag(ctx.tag.time + stride, 0), "tick", seq + 1)

    fed.on("tick", tick)
    start = fed.start()
    first = start.time + (cfg["slot"] + 1) * cfg["period_ns"]
    fed.schedule(Tag(first, 0), "tick", 0)
    summary = fed.run()
    return {"starts": starts, "summary": dataclasses.asdict(summary)}


def run_sub(cfg: dict) -> dict:
    """Check every message's tag order and publisher sequence, stamp
    ``dones[seq]`` once all ``n_publishers`` copies of ``seq`` are handled,
    and stop after ``message_count_total`` messages.  A late arrival is
    counted as detected, and as handled."""
    fed = _build_federate(cfg)
    total = cfg["message_count_total"]
    expect = cfg["n_publishers"]
    copies: dict[int, int] = {}
    dones: dict[int, int] = {}
    next_seq: dict[int, int] = {}
    delays: list[int] = []
    last_tag = None
    handled = detected = tag_order_errors = seq_inversions = 0

    def handle(ctx) -> None:
        nonlocal handled
        seq = int(ctx.value[1])
        copies[seq] = copies.get(seq, 0) + 1
        if copies[seq] == expect:
            dones[seq] = time.monotonic_ns()
        handled += 1
        if handled >= total:
            ctx.federate.request_stop()

    def on_msg(ctx):
        nonlocal last_tag, tag_order_errors, seq_inversions
        if last_tag is not None and not (last_tag < ctx.tag):
            tag_order_errors += 1
        last_tag = ctx.tag
        pub, seq = int(ctx.value[0]), int(ctx.value[1])
        if seq < next_seq.get(pub, 0):
            seq_inversions += 1
        next_seq[pub] = max(next_seq.get(pub, 0), seq + 1)
        if len(ctx.value) > 2:
            _ = ctx.value[2][-1]  # the payload must actually be present
        delays.append(max(1, time.monotonic_ns() - ctx.tag.time))
        handle(ctx)

    def on_late(ctx):
        nonlocal detected
        detected += 1
        handle(ctx)

    fed.on("in", on_msg, on_stp_violation=on_late)
    summary = fed.run()
    return {
        "summary": dataclasses.asdict(summary),
        "dones": dones,
        "tag_order_errors": tag_order_errors,
        "seq_inversions": seq_inversions,
        "detected_violations": detected,
        "processed": handled - detected,
        "delays_ns": delays,
    }


def run_echo(cfg: dict) -> dict:
    listener = FrameListener("127.0.0.1", 0, _options(cfg))
    host, port = listener.address
    print(f"echo listening on {host}:{port}", flush=True)
    conn = listener.accept()
    while (frame := conn.recv_frame()) is not None:
        if frame.type == FrameType.NET:
            conn.send_frame(frame)
    conn.close()
    return {}


ROLES = {"pub": run_pub, "sub": run_sub, "echo": run_echo}


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
    _boost_scheduling()
    result = ROLES[cfg["role"]](cfg)
    Path(cfg["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
