"""Benchmark scenario orchestration.

Each federation scenario is a topology, a config shared by its workers
and a list of workers: ``pub`` and ``sub`` roles of
:mod:`hprm.bench.worker`.  One launcher, ``_run_federation``, starts the
daemons and one worker process per federate, subscribers first, waits
for the run to finish and collects the workers' result files; the
scenario folds them into latency records plus named invariant checks.
The orchestrator itself stays single-threaded; every measured code path
runs in a spawned process.

Every child is started inside ``_children``, which stops them all when
the block ends.  A daemon or echo worker is ready once it has printed
its listening banner.  A child that fails exits non-zero with its
traceback on stderr, and the ``BenchError`` raised for it quotes that.

Modes:

* ``centralized`` -- arrival-floor ordering, a two-phase stop,
  store-backed payloads.
* ``decentralized`` -- clock-gated coordination, store-backed payloads.
* ``copy-baseline`` -- clock-gated coordination with the object store
  disabled and the eager buffer raised, so every payload is copied
  through per-subscriber sockets.  This stands in for conventional
  middleware transfer when comparing against the zero-copy path.
"""

from __future__ import annotations

import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hprm.bench.report import LatencyRecord
from hprm.serde import (
    DEFAULT_OOB_FLOOR,
    SerializationError,
    build_layout,
    deserialize,
    encode_payload,
    serialize,
)
from hprm.store import StoreClient
from hprm.store.daemon import DEFAULT_CAPACITY
from hprm.tags import Delay, Tag
from hprm.topology import Connection, Topology
from hprm.transport import (
    EAGER_BUFFER_BYTES,
    ConnectionOptions,
    Frame,
    FrameConnection,
    FrameType,
    connect,
)

MB = 1 << 20
MODES = ("centralized", "decentralized", "copy-baseline")


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class BenchConfig:
    scenario: str
    nodes: int = 4
    sizes_mb: tuple[float, ...] = (1.0,)
    mode: str = "centralized"
    iterations: int = 100
    warmup: int = 10
    stp_offset_ns: int = 0
    period_ns: int | None = None
    runs: int = 10_000
    inject_latency_ns: int = 0
    seed: int = 1
    pings: int = 1000

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("a federation needs at least two nodes")
        if any(s <= 0 for s in self.sizes_mb):
            raise ValueError("payload sizes must be positive")
        if self.iterations <= self.warmup:
            raise ValueError("iterations must exceed the warmup count")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    def size_bytes(self, mb: float) -> int:
        return int(mb * MB)

    def auto_period_ns(self, size_bytes: int) -> int:
        if self.period_ns is not None:
            return self.period_ns
        # Room for one full transfer per slot even on a slow host.
        return max(20_000_000, size_bytes * 4)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def __str__(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class ScenarioResult:
    records: list[LatencyRecord] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


# -- process plumbing ---------------------------------------------------------


class _Procs:
    """Tracks spawned processes so teardown can't be forgotten."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.procs: list[tuple[str, subprocess.Popen]] = []

    def spawn(self, name: str, argv: list[str], **popen_kw) -> subprocess.Popen:
        with open(self.workdir / f"{name}.stderr", "w") as err:
            proc = subprocess.Popen(
                argv,
                stdout=popen_kw.pop("stdout", subprocess.DEVNULL),
                stderr=err,
                **popen_kw,
            )
        self.procs.append((name, proc))
        return proc

    def stderr_tail(self, name: str, lines: int = 20) -> str:
        path = self.workdir / f"{name}.stderr"
        if not path.exists():
            return ""
        return "\n".join(path.read_text().splitlines()[-lines:])

    def wait_all(self, names: list[str], timeout_s: float) -> None:
        """Wait until every named child has exited 0.  The first one seen
        to fail raises at once, with its stderr, even while the others
        still wait on it; so does the deadline, for a child still running."""
        deadline = time.monotonic() + timeout_s
        waiting = [(name, proc) for name, proc in self.procs if name in names]
        while True:
            for name, proc in waiting:
                if proc.poll():
                    raise BenchError(
                        f"worker {name} exited {proc.returncode};"
                        f" stderr:\n{self.stderr_tail(name)}"
                    )
            waiting = [(name, proc) for name, proc in waiting if proc.returncode is None]
            if not waiting:
                return
            if time.monotonic() > deadline:
                name = waiting[0][0]
                raise BenchError(
                    f"worker {name} did not finish within {timeout_s:.0f}s;"
                    f" stderr:\n{self.stderr_tail(name)}"
                )
            time.sleep(0.05)

    def kill_all(self) -> None:
        for _, proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for _, proc in self.procs:
            try:
                proc.wait(5)
            except subprocess.TimeoutExpired:
                proc.kill()
            if proc.stdout is not None:
                proc.stdout.close()  # the banner pipe


@contextmanager
def _children(prefix: str):
    """A fresh work directory and the ``_Procs`` that starts children in
    it; every child is stopped when the block ends, however it ends."""
    with tempfile.TemporaryDirectory(prefix=f"hprm-{prefix}-") as tmp:
        procs = _Procs(Path(tmp))
        try:
            yield procs
        finally:
            procs.kill_all()


ADDRESS_DEADLINE_S = 15.0  # for a daemon's or worker's address banner


def _read_address(procs: _Procs, name: str, proc, banner: str) -> str:
    """The address that ``proc`` prints after ``banner`` on stdout,
    within ``ADDRESS_DEADLINE_S``, however little the process writes."""
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + ADDRESS_DEADLINE_S
    pending = b""
    while (left := deadline - time.monotonic()) > 0:
        if not select.select([fd], [], [], left)[0]:
            break
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        *lines, pending = (pending + chunk).split(b"\n")
        for text in map(bytes.decode, lines):
            if text.startswith(banner):
                return text[len(banner):]
    procs.kill_all()
    raise BenchError(f"{name} failed to start: {procs.stderr_tail(name)}")


def _host_port(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


def _spawn_rti(procs: _Procs, topology: Topology, startup_ms: int = 150):
    topo_path = procs.workdir / "topology.json"
    topology.save(topo_path)
    proc = procs.spawn(
        "rti",
        [sys.executable, "-m", "hprm.rti", "--listen", "127.0.0.1:0",
         "--topology", str(topo_path), "--startup-offset-ms", str(startup_ms)],
        stdout=subprocess.PIPE,
    )
    return _host_port(_read_address(procs, "rti", proc, "rti listening on "))


def _spawn_store(procs: _Procs, capacity: int) -> str:
    proc = procs.spawn(
        "store",
        [sys.executable, "-m", "hprm.store.daemon",
         "--socket", str(procs.workdir / "store.sock"),
         "--capacity-bytes", str(capacity)],
        stdout=subprocess.PIPE,
    )
    return _read_address(procs, "store", proc, "store listening on ")


def _spawn_worker(procs: _Procs, cfg: dict, **popen_kw) -> tuple[subprocess.Popen, Path]:
    """Start one ``hprm.bench.worker``; returns it and its result path."""
    result_path = procs.workdir / f"{cfg['fid']}.result.json"
    cfg = dict(cfg, result_path=str(result_path))
    cfg_path = procs.workdir / f"{cfg['fid']}.config.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = procs.spawn(
        cfg["fid"],
        [sys.executable, "-m", "hprm.bench.worker", "--config", str(cfg_path)],
        **popen_kw,
    )
    return proc, result_path


def _run_federation(
    prefix: str,
    topology: Topology,
    shared: dict,
    workers: list[dict],
    budget_s: float,
    capacity: int | None = None,
) -> tuple[dict[str, dict], dict | None]:
    """Run one federation to its end: a store daemon when given a
    capacity, the coordinator, then one worker per entry of ``workers``
    (each merged over ``shared``), in that order.  Returns the workers'
    results by federate id and the store's final stats (None without a
    store)."""
    with _children(prefix) as procs:
        store_path = None if capacity is None else _spawn_store(procs, capacity)
        host, port = _spawn_rti(procs, topology)
        shared = shared | {
            "topology": topology.to_dict(),
            "rti_host": host,
            "rti_port": port,
            "store_path": store_path,
        }
        paths = {w["fid"]: _spawn_worker(procs, shared | w)[1] for w in workers}
        procs.wait_all(list(paths), budget_s)
        results = {fid: json.loads(path.read_text()) for fid, path in paths.items()}
        stats = None
        if store_path is not None:
            with StoreClient(store_path) as client:
                stats = client.stats()
    return results, stats


# -- broadcast / gather -------------------------------------------------------


def _run_payload_scenario(cfg: BenchConfig, size_bytes: int, gather: bool):
    """One federation run at one payload size; returns (latencies, extra).

    copy-baseline runs decentralized with no store and an eager buffer
    big enough for the whole payload's frame."""
    scen = "gather" if gather else "broadcast"
    n_pubs = cfg.nodes - 1 if gather else 1
    n_subs = 1 if gather else cfg.nodes - 1
    pubs = [f"pub{i}" for i in range(n_pubs)]
    subs = [f"sub{i}" for i in range(n_subs)]
    conns = [
        Connection(p, "out", s, "in", Delay(0)) for p in pubs for s in subs
    ]
    topo = Topology.build(pubs + subs, conns)
    period = cfg.auto_period_ns(size_bytes)
    copy = cfg.mode == "copy-baseline"
    shared = {
        "mode": "decentralized" if copy else cfg.mode,
        "eager_buffer_bytes": size_bytes + (128 << 10) if copy else EAGER_BUFFER_BYTES,
        "stp_offset_ns": cfg.stp_offset_ns,
        "size_bytes": size_bytes,
        "period_ns": period,
        "slot": 0,
        "slots": 1,
        "message_count": cfg.iterations,
        "n_publishers": n_pubs,
        "message_count_total": n_pubs * cfg.iterations,
    }
    workers = [
        *({"fid": fid, "role": "sub"} for fid in subs),
        *({"fid": fid, "role": "pub", "pub_index": i} for i, fid in enumerate(pubs)),
    ]
    results, stats = _run_federation(
        scen,
        topo,
        shared,
        workers,
        60 + cfg.iterations * period / 1e9 * 4,
        None if copy else DEFAULT_CAPACITY,
    )

    starts = {
        fid: {int(k): v for k, v in results[fid]["starts"].items()} for fid in pubs
    }
    dones = {
        fid: {int(k): v for k, v in results[fid]["dones"].items()} for fid in subs
    }
    latencies = []
    for k in range(cfg.warmup, cfg.iterations):
        begin = min(starts[p][k] for p in pubs)
        end = max(dones[s][k] for s in subs)
        latencies.append(max(1, end - begin))
    extra = {"store_stats": stats, "summaries": {f: r["summary"] for f, r in results.items()}}
    return latencies, extra


def run_broadcast(cfg: BenchConfig, gather: bool = False) -> ScenarioResult:
    out = ScenarioResult()
    scen = "gather" if gather else "broadcast"
    for mb in cfg.sizes_mb:
        size = cfg.size_bytes(mb)
        latencies, extra = _run_payload_scenario(cfg, size, gather)
        out.records.append(LatencyRecord(scen, cfg.mode, size, tuple(latencies)))
        out.extra[size] = extra
        n_producers = cfg.nodes - 1 if gather else 1
        expected_creates = n_producers * cfg.iterations
        # broadcast: n-1 subscribers get 1 object; gather: 1 collector gets n-1
        expected_gets = (cfg.nodes - 1) * cfg.iterations
        stats = extra["store_stats"]
        if stats is not None and size > 64 << 10:
            ok = (
                stats["creates"] == expected_creates
                and stats["gets"] == expected_gets
                and stats["releases"] == stats["gets"]
                and stats["seals"] == stats["creates"]
            )
            out.checks.append(
                CheckResult(
                    f"{scen}-zero-copy-accounting-{size}",
                    ok,
                    f"creates={stats['creates']}/{expected_creates} "
                    f"gets={stats['gets']}/{expected_gets} "
                    f"releases={stats['releases']}",
                )
            )
        violations = sum(
            r["stp_violations"] for r in extra["summaries"].values()
        )
        out.checks.append(
            CheckResult(
                f"{scen}-no-violations-{size}",
                violations == 0,
                f"stp_violations={violations}",
            )
        )
    sizes = [cfg.size_bytes(mb) for mb in cfg.sizes_mb]
    if len(sizes) > 1:
        means = [rec.mean_ns for rec in out.records]
        monotone = all(a <= b * 1.25 for a, b in zip(means, means[1:]))
        out.checks.append(
            CheckResult(
                f"{scen}-latency-monotone",
                monotone,
                ",".join(f"{m/1e6:.2f}ms" for m in means),
            )
        )
    return out


def run_gather(cfg: BenchConfig) -> ScenarioResult:
    return run_broadcast(cfg, gather=True)


# -- ordering stress ----------------------------------------------------------


def run_ordering(cfg: BenchConfig) -> ScenarioResult:
    n_pubs = 2
    pubs = [f"pub{i}" for i in range(n_pubs)]
    conns = [Connection(p, "out", "sub", "in", Delay(0)) for p in pubs]
    topo = Topology.build(pubs + ["sub"], conns)
    period = cfg.period_ns if cfg.period_ns is not None else 1_000_000
    counts = [cfg.runs // n_pubs + (1 if i < cfg.runs % n_pubs else 0)
              for i in range(n_pubs)]
    shared = {
        "mode": "decentralized" if cfg.mode != "centralized" else "centralized",
        "stp_offset_ns": cfg.stp_offset_ns,
        "period_ns": period,
        "slots": n_pubs,
        "n_publishers": n_pubs,
        "message_count_total": cfg.runs,
    }
    workers = [
        {"fid": "sub", "role": "sub", "inject_recv_jitter_ns": cfg.inject_latency_ns,
         "jitter_seed": cfg.seed},
        *({"fid": fid, "role": "pub", "pub_index": i, "slot": i,
           "message_count": counts[i]} for i, fid in enumerate(pubs)),
    ]
    results, _ = _run_federation(
        "ordering", topo, shared, workers, 120 + cfg.runs * period / 1e9 * 3
    )

    sub = results["sub"]
    silent = sub["tag_order_errors"] + sub["seq_inversions"]
    detected = sub["detected_violations"]
    out = ScenarioResult(extra={"sub": sub})
    out.checks.append(
        CheckResult(
            "ordering-conservation",
            sub["processed"] + detected == cfg.runs,
            f"processed={sub['processed']} detected={detected} runs={cfg.runs}",
        )
    )
    if cfg.mode == "centralized":
        out.checks.append(
            CheckResult(
                "ordering-zero-errors",
                silent == 0 and detected == 0,
                f"out_of_order={silent} detected={detected}",
            )
        )
    else:
        out.checks.append(
            CheckResult(
                "ordering-no-silent-misordering",
                silent == 0,
                f"silent={silent} detected={detected}",
            )
        )
    if sub["delays_ns"]:
        out.records.append(
            LatencyRecord("ordering", cfg.mode, 0, tuple(sub["delays_ns"]))
        )
    out.extra["detected_violations"] = detected
    out.extra["silent_errors"] = silent
    return out


# -- serde throughput ---------------------------------------------------------


@dataclass(frozen=True)
class ThroughputSample:
    mode: str
    size_bytes: int
    serialize_ns: tuple[int, ...]
    deserialize_ns: tuple[int, ...]

    @property
    def serialize_mbps(self) -> float:
        return self.size_bytes / MB / (statistics.median(self.serialize_ns) / 1e9)

    @property
    def deserialize_mbps(self) -> float:
        return self.size_bytes / MB / (statistics.median(self.deserialize_ns) / 1e9)


def measure_throughput(
    size_bytes: int, mode: str, iterations: int = 20, warmup: int = 3
) -> ThroughputSample:
    """Time serialize/deserialize of an array-carrying value.

    ``mode`` selects the pipeline being modeled: ``"in-band"`` forces the
    array through the in-band stream and copies it back out, which is what
    a socket transfer of a self-contained byte string costs.
    ``"out-of-band"`` keeps the array as a borrowed segment and rebuilds a
    view, which is what the shared-memory path costs.
    """
    if mode not in ("in-band", "out-of-band"):
        raise ValueError(f"unknown throughput mode {mode!r}")
    floor = None if mode == "in-band" else DEFAULT_OOB_FLOOR
    zero_copy = mode == "out-of-band"
    elements = max(1, size_bytes // 8)
    value = {"seq": 0, "data": np.arange(elements, dtype=np.float64)}
    ser_ns: list[int] = []
    deser_ns: list[int] = []
    for i in range(warmup + iterations):
        t0 = time.perf_counter_ns()
        payload = serialize(value, oob_floor=floor)
        t1 = time.perf_counter_ns()
        rebuilt = deserialize(payload, zero_copy=zero_copy)
        t2 = time.perf_counter_ns()
        if rebuilt["seq"] != 0:
            raise SerializationError("throughput round-trip corrupted the value")
        if i >= warmup:
            ser_ns.append(t1 - t0)
            deser_ns.append(t2 - t1)
    return ThroughputSample(mode, elements * 8, tuple(ser_ns), tuple(deser_ns))


def run_serde(cfg: BenchConfig) -> ScenarioResult:
    out = ScenarioResult()
    iters = cfg.iterations - cfg.warmup
    for mb in cfg.sizes_mb:
        size = cfg.size_bytes(mb)
        inband = measure_throughput(size, "in-band", iters, cfg.warmup)
        oob = measure_throughput(size, "out-of-band", iters, cfg.warmup)
        for sample, tag in ((inband, "inband"), (oob, "oob")):
            out.records.append(
                LatencyRecord("serde", f"{tag}-serialize", size, sample.serialize_ns)
            )
            out.records.append(
                LatencyRecord("serde", f"{tag}-deserialize", size, sample.deserialize_ns)
            )
        ser_ratio = statistics.median(inband.serialize_ns) / statistics.median(
            oob.serialize_ns
        )
        deser_ratio = statistics.median(inband.deserialize_ns) / statistics.median(
            oob.deserialize_ns
        )
        out.extra[size] = {"ser_ratio": ser_ratio, "deser_ratio": deser_ratio}
        if size >= MB:
            out.checks.append(
                CheckResult(
                    f"serde-serialize-speedup-{size}",
                    ser_ratio >= 5.0,
                    f"out-of-band {ser_ratio:.1f}x faster",
                )
            )
            out.checks.append(
                CheckResult(
                    f"serde-deserialize-speedup-{size}",
                    deser_ratio >= 2.0,
                    f"out-of-band {deser_ratio:.1f}x faster",
                )
            )
    return out


# -- ping / coalescing A-B ------------------------------------------------------


def _ping_once(procs: _Procs, name: str, disable_coalescing: bool, count: int):
    cfg = {
        "role": "echo",
        "fid": name,
        "disable_coalescing": disable_coalescing,
    }
    proc, _ = _spawn_worker(procs, cfg, stdout=subprocess.PIPE)
    address = _read_address(procs, name, proc, "echo listening on ")
    options = ConnectionOptions(disable_coalescing=disable_coalescing)
    conn = connect(_host_port(address), options, retry_for=5.0)
    try:
        rtts = _message_rtt(conn, count, warmup=min(50, count // 10 + 1))
    finally:
        conn.close()
    return rtts


def _message_rtt(conn: FrameConnection, count: int, warmup: int) -> list[int]:
    """Round trips, in ns, of what a publisher sends per message: a
    64-byte message and then the NET that lets its receiver run it, timed
    until the echo worker returns the NET.  Each is one write, so with
    coalescing on the NET waits in the kernel for the message's ACK, which
    the receiver delays as it has nothing to send yet."""
    samples = []
    body = bytes(64)
    for seq in range(warmup + count):
        net = Frame(FrameType.NET, Tag(seq, 1))
        start = time.perf_counter_ns()
        conn.send_frame(Frame(FrameType.TAGGED_MSG, Tag(seq, 0), 1, body))
        conn.send_frame(net)
        reply = conn.recv_frame()
        elapsed = time.perf_counter_ns() - start
        if reply != net:
            raise BenchError(f"expected {net} back, got {reply}")
        if seq >= warmup:
            samples.append(elapsed)
    return samples


def run_ping(cfg: BenchConfig) -> ScenarioResult:
    out = ScenarioResult()
    with _children("ping") as procs:
        fast = _ping_once(procs, "echo-nodelay", True, cfg.pings)
        slow = _ping_once(procs, "echo-coalesced", False, cfg.pings)
    out.records.append(LatencyRecord("ping", "nodelay", 64, tuple(fast)))
    out.records.append(LatencyRecord("ping", "coalesced", 64, tuple(slow)))
    m_fast = statistics.median(fast)
    m_slow = statistics.median(slow)
    out.checks.append(
        CheckResult(
            "ping-coalescing-hurts",
            m_fast < m_slow,
            f"median nodelay={m_fast/1e3:.1f}us coalesced={m_slow/1e3:.1f}us",
        )
    )
    out.extra["median_nodelay_ns"] = m_fast
    out.extra["median_coalesced_ns"] = m_slow
    return out


# -- store write-delay comparison ----------------------------------------------


def measure_write_delay(size_bytes: int, iterations: int = 15, warmup: int = 3):
    """Write-side cost of publishing one payload: store path vs full copy.

    The store path serializes with borrowed segments and writes each byte
    exactly once into the shared mapping, through ``StoreClient.put`` as
    a publishing federate does.  The baseline is the
    conventional pipeline a socket middleware runs: serialize fully
    in-band, assemble the contiguous wire blob, and copy it into the
    transfer buffer.  Returns (store_ns, baseline_ns) sample tuples.

    The store is sized to hold three payloads so creates recycle evicted
    segments, as they do under sustained publishing; both pipelines
    are then measured against warm buffers rather than charging the
    store side a one-time page-fault cost the baseline never pays.
    """
    value = {"seq": 0, "data": np.arange(max(1, size_bytes // 8), dtype=np.float64)}
    store_ns: list[int] = []
    base_ns: list[int] = []
    with _children("writedelay") as procs:
        sock = _spawn_store(procs, 3 * size_bytes + (1 << 20))
        with StoreClient(sock) as client:
            sink = bytearray(size_bytes + (1 << 20))
            for i in range(warmup + iterations):
                t0 = time.perf_counter_ns()
                layout = build_layout(serialize(value))
                client.put(layout.total_bytes, layout.pieces)
                t1 = time.perf_counter_ns()
                if i >= warmup:
                    store_ns.append(t1 - t0)

            for i in range(warmup + iterations):
                t0 = time.perf_counter_ns()
                payload = serialize(value, oob_floor=None)
                blob = encode_payload(build_layout(payload))
                sink[: len(blob)] = blob
                t1 = time.perf_counter_ns()
                if i >= warmup:
                    base_ns.append(t1 - t0)
    return tuple(store_ns), tuple(base_ns)


SCENARIOS = {
    "broadcast": run_broadcast,
    "gather": run_gather,
    "ordering": run_ordering,
    "serde": run_serde,
    "ping": run_ping,
}
