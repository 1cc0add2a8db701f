"""One federate of a benchmark federation.

Run as ``python worker.py --config FILE`` with ``src`` on the import
path.  The role is ``pub`` or ``sub``:

* a publisher offers ``count`` messages on a schedule fixed in advance
  from the agreed start tag ``t0``: message ``k`` of the publisher in
  slot ``s`` has tag ``t0 + (k * slots + s) * period``.  Each reaction
  publishes its message and schedules the next tag, whatever the time, so
  a slow federation does not slow the offered schedule;
* a subscriber checks every message and records when its reaction
  started.  It asks the federation to stop once every message has been
  handled, or at the deadline.

Payloads come from :func:`payload_pool`, seeded by the run's seed, so
both sides derive the same inputs.  Every message is ``[pub, seq]`` or
``[pub, seq, array]``; the subscriber checks each publisher's sequence,
each tag against the schedule, each array's CRC-32, and that normally
processed tags never go backwards.  Arrivals past the safe-to-process
margin go to the violation handler, which checks them the same way.

Events go to stdout as JSON lines (see ``child.py``): ``started`` once
``start()`` has returned, then ``final`` with the results and resource
usage once ``run()`` has returned.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
import traceback
import zlib
from pathlib import Path

import numpy as np

import child
import spans
from hprm.federate import Federate, FederateConfig
from hprm.tags import Tag
from hprm.topology import Topology

POOL = 5  # distinct arrays per publisher; message k carries array k % POOL
HARD_EXIT_AFTER_S = 10.0  # past the deadline, give up on a clean stop


def payload_pool(seed: int, pub: int, size_bytes: int) -> tuple[int, list]:
    """The sequence base and arrays publisher ``pub`` sends under ``seed``."""
    rng = np.random.default_rng([seed, pub])
    base = int(rng.integers(0, 1 << 40))
    n = size_bytes // 8
    return base, [rng.random(n) for _ in range(POOL if n else 0)]


def tag_time(cfg: dict, slot: int, k: int) -> int:
    return cfg["t0"] + (k * cfg["slots"] + slot) * cfg["period_ns"]


def build(cfg: dict) -> Federate:
    fed_cfg = FederateConfig(
        fid=cfg["fid"],
        mode=cfg["mode"],
        rti_address=tuple(cfg["rti_address"]),
        store_path=cfg["store_path"],
        stp_offset_ns=cfg["stp_offset_ns"],
    )
    return Federate(fed_cfg, Topology.from_dict(cfg["topology"]))


def run_pub(cfg: dict, fed: Federate, tracer, results: dict) -> None:
    index, slot = cfg["pub"], cfg["slot"]
    base, arrays = payload_pool(cfg["seed"], index, cfg["size_bytes"])
    count = cfg["count"]
    lateness = results.setdefault("lateness_ns", [])

    def tick(ctx):
        k = ctx.value
        lateness.append(ctx.lateness_ns)
        value = [index, base + k, arrays[k % POOL]] if arrays else [index, base + k]
        ctx.publish("out", value)
        if k + 1 < count:
            ctx.schedule(Tag(tag_time(cfg, slot, k + 1), 0), "tick", k + 1)

    fed.on("tick", reaction(tracer, tick, "tick"))
    started(cfg, fed)
    fed.schedule(Tag(tag_time(cfg, slot, 0), 0), "tick", 0)


def run_sub(cfg: dict, fed: Federate, tracer, results: dict) -> None:
    pubs = {p["pub"]: p for p in cfg["pubs"]}
    expect = {}
    for p in pubs.values():
        base, arrays = payload_pool(cfg["seed"], p["pub"], cfg["size_bytes"])
        expect[p["pub"]] = (base, [zlib.crc32(a) for a in arrays])
    total = sum(p["count"] for p in pubs.values())
    next_k = dict.fromkeys(pubs, 0)
    rows = results.setdefault("rows", [])  # [pub, k, reaction start, late]
    errors = results.setdefault("errors", [])
    late_by = results.setdefault("late_by_ns", [])
    last_tag = [None]

    def check(ctx) -> tuple[int, int]:
        value = ctx.value
        pub, seq = int(value[0]), int(value[1])
        if pub not in pubs:
            errors.append(f"message from unknown publisher {pub}")
            return pub, -1
        base, crcs = expect[pub]
        k = seq - base
        if k != next_k[pub]:
            errors.append(f"pub {pub}: got message {k}, expected {next_k[pub]}")
        next_k[pub] = max(next_k[pub], k + 1)
        if ctx.tag.time != tag_time(cfg, pubs[pub]["slot"], k):
            errors.append(f"pub {pub} message {k} arrived at {ctx.tag!r}")
        if crcs and zlib.crc32(value[2]) != crcs[k % POOL]:
            errors.append(f"pub {pub} message {k}: checksum mismatch")
        return pub, k

    def handled(ctx, key: tuple[int, int], t_react: int, late: bool) -> None:
        rows.append([*key, t_react, 1 if late else 0])
        if len(rows) == total:
            ctx.federate.request_stop()

    def on_msg(ctx):
        t_react = time.monotonic_ns()
        if last_tag[0] is not None and ctx.tag < last_tag[0]:
            errors.append(f"tag order: {ctx.tag!r} after {last_tag[0]!r}")
        last_tag[0] = ctx.tag
        handled(ctx, check(ctx), t_react, False)

    def on_late(ctx):
        t_react = time.monotonic_ns()
        late_by.append(ctx.lateness_ns)
        handled(ctx, check(ctx), t_react, True)

    fed.on("in", reaction(tracer, on_msg, "in"), on_stp_violation=on_late)
    started(cfg, fed)


def reaction(tracer, handler, port: str):
    """``handler``, recorded as an ``app.reaction`` span when traced; the
    runtime's calls inside it take their message id from it."""
    if tracer is None:
        return handler
    return tracer.traced(
        handler, "app.reaction", msg=lambda a: [a[0].tag.time, a[0].tag.microstep, port]
    )


def started(cfg: dict, fed: Federate) -> None:
    start = fed.start()
    cfg["t0"] = start.time + cfg["lead_ns"]
    child.emit("started", t_ns=time.monotonic_ns(), t0=cfg["t0"])


def watchdog(cfg: dict, fed: Federate, results: dict) -> None:
    """Bound the run: ask for a stop at the deadline, and if the federation
    still has not stopped soon after, report what there is and exit."""
    while "t0" not in cfg:
        time.sleep(0.05)
    deadline = cfg["t0"] + cfg["deadline_ns"]
    time.sleep(max(0.0, (deadline - time.monotonic_ns()) / 1e9))
    fed.request_stop()
    time.sleep(HARD_EXIT_AFTER_S)
    child.emit("final", ru=child.rusage(), results=dict(results), hung=True)
    os._exit(3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark federate")
    parser.add_argument("--config", required=True)
    cfg = json.loads(Path(parser.parse_args(argv).config).read_text())
    tracer = None
    if cfg.get("spans_path"):
        tracer = spans.Tracer()
        spans.wrap_federate(tracer)
    child.serve_commands()
    fed = build(cfg)
    results: dict = {"policy": child.policy()}
    role = run_pub if cfg["role"] == "pub" else run_sub
    threading.Thread(
        target=watchdog, args=(cfg, fed, results), name="bench-watchdog", daemon=True
    ).start()
    error = None
    try:
        role(cfg, fed, tracer, results)
        fed.run()
    except Exception as exc:  # reported to the benchmark, which fails the run
        traceback.print_exc()
        error = repr(exc)
    ru = child.rusage()
    if tracer is not None:
        tracer.dump(cfg["spans_path"])
    child.emit("final", ru=ru, results=results, error=error)
    return 0 if error is None else 1


if __name__ == "__main__":
    raise SystemExit(main())
