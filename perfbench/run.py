"""The hprm benchmark: open-loop federations, measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; nothing needs installing.  Each
run launches fresh federations -- a store daemon, a coordinator and one
process per federate, all started with this interpreter and ``src`` on
the import path -- and checks every message they deliver.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics
traced).  The lines above it give the same numbers with their sample
counts, the per-layer numbers that need no tracing, host steal and each
process's scheduling policy.  The exit status is 0 only when every
output check passed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import queue
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_run"

MIB = 1 << 20
SETUP_EPISODES = 3  # setup_s is the median over this many fresh federations
PACED_SHARE = 0.8  # of --seconds, offered by the paced federation
TRACED_PACED_SHARE = 0.4  # each of the traced run's two paced federations
BURST_SHARE = 0.15  # the burst is sized to last this share at today's rate
MIN_BEYOND = 10  # a tail percentile needs this many samples beyond it
RUN_BUDGET_S = 170.0  # every run ends well inside 180 s, failures included


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class Workload:
    """One federation shape and its offered load.

    ``period_ns`` spaces consecutive tag slots; with ``slots`` > 1 the
    publishers take turns, otherwise they all publish at each slot's tag.
    ``burst_hz`` is the rate the burst is sized for: about today's
    saturated delivery rate, so the burst lasts ``BURST_SHARE`` of the run."""

    name: str
    why: str
    mode: str
    pubs: int
    subs: int
    slots: int
    size_bytes: int
    period_ns: int
    burst_hz: float
    stp_offset_ns: int = 0
    store_bytes: int = 1 << 30


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fanout-8m",
            "store read-heavy: 1 create and 2 gets per 8 MiB object at 20 Hz",
            "centralized", 1, 2, 1, 8 * MIB, 50_000_000, 40.0,
        ),
        Workload(
            "fanin-1m",
            "store write-heavy: 2 concurrent 1 MiB creates per tag at 50 Hz",
            "centralized", 2, 1, 1, 1 * MIB, 20_000_000, 220.0,
            # Full within 3 s, so the run is spent in eviction steady state,
            # and small enough that the kernel does not start writing the
            # backing files out to the checkout's disk.
            store_bytes=256 * MIB,
        ),
        Workload(
            "ordering-central",
            "inline 16 B messages with coordinator grants at 200 Hz",
            "centralized", 2, 1, 2, 0, 5_000_000, 400.0,
        ),
        Workload(
            "ordering-decentral",
            "inline 16 B messages gated by a 5 ms safe-to-process margin at 1 kHz",
            "decentralized", 2, 1, 2, 0, 1_000_000, 2000.0, stp_offset_ns=5_000_000,
        ),
    )
}

BURST_PERIOD_NS = 10_000
LEAD_NS = 200_000_000  # first tag this long after the start tag


# -- child processes -----------------------------------------------------------


class Children:
    """The processes of one federation and the events they print."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.procs: dict[str, subprocess.Popen] = {}
        self.got: dict[str, dict[str, dict]] = {}
        self._events: queue.Queue = queue.Queue()
        self._readers: list[threading.Thread] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, name: str, script: str, *args: str) -> None:
        with open(self.workdir / f"{name}.stderr", "w") as err:
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / script), *args],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=err,
                text=True,
            )
        self.procs[name] = proc
        self.got[name] = {}
        reader = threading.Thread(target=self._read, args=(name, proc), daemon=True)
        reader.start()
        self._readers.append(reader)

    def _read(self, name: str, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                continue
            self._events.put((name, event))
        self._events.put((name, {"ev": "eof"}))

    def expect(self, ev: str, names, timeout_s: float) -> dict[str, dict]:
        """Wait until each named process has printed event ``ev``."""
        names = list(names)
        end = min(time.monotonic() + timeout_s, self.deadline)
        while not all(ev in self.got[n] for n in names):
            try:
                name, event = self._events.get(timeout=max(0.0, end - time.monotonic()))
            except queue.Empty:
                waiting = [n for n in names if ev not in self.got[n]]
                raise BenchError(f"timed out waiting for {ev!r} from {waiting}")
            self.got[name].setdefault(event["ev"], event)
            if event["ev"] == "eof" and ev not in self.got[name] and name in names:
                raise BenchError(
                    f"{name} exited before {ev!r}:\n{self.stderr_tail(name)}"
                )
        return {n: self.got[n][ev] for n in names}

    def send(self, name: str, command: str) -> None:
        try:
            self.procs[name].stdin.write(command + "\n")
            self.procs[name].stdin.flush()
        except (BrokenPipeError, OSError):
            pass

    def stderr_tail(self, name: str, lines: int = 15) -> str:
        path = self.workdir / f"{name}.stderr"
        return "\n".join(path.read_text().splitlines()[-lines:]) if path.exists() else ""

    def close(self) -> None:
        """Stop every process and wait for it, whatever state it is in."""
        for proc in self.procs.values():
            try:
                proc.wait(timeout=max(0.1, min(5.0, self.deadline + 5 - time.monotonic())))
            except subprocess.TimeoutExpired:
                proc.kill()
        for proc in self.procs.values():
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                try:
                    stream.close()
                except OSError:
                    pass
        for reader in self._readers:
            reader.join(timeout=5)


def read_steal() -> tuple[int, int]:
    """(steal ticks, all ticks) from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


# -- one federation --------------------------------------------------------------


@dataclass
class Episode:
    workload: Workload
    rounds: int
    period_ns: int
    setup_s: float = 0.0
    t0: int = 0
    snaps: dict = field(default_factory=dict)
    finals: dict = field(default_factory=dict)
    steal_share: float = 0.0
    policies: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.rounds * self.workload.pubs

    def tag_time(self, pub: int, k: int) -> int:
        w = self.workload
        slot = pub if w.slots > 1 else 0
        return self.t0 + (k * w.slots + slot) * self.period_ns

    def cpu_s(self, names) -> float:
        return sum(
            self.finals[n]["ru"]["cpu_s"] - self.snaps[n]["ru"]["cpu_s"] for n in names
        )

    def ru_delta(self, key: str, names) -> int:
        return sum(self.finals[n]["ru"][key] - self.snaps[n]["ru"][key] for n in names)

    @property
    def pubs(self) -> list[str]:
        return [f"pub{i}" for i in range(self.workload.pubs)]

    @property
    def subs(self) -> list[str]:
        return [f"sub{i}" for i in range(self.workload.subs)]

    @property
    def everyone(self) -> list[str]:
        return ["store", "rti", *self.pubs, *self.subs]


def topology_dict(w: Workload) -> dict:
    pubs = [f"pub{i}" for i in range(w.pubs)]
    subs = [f"sub{i}" for i in range(w.subs)]
    return {
        "federates": pubs + subs,
        "connections": [
            {"src": p, "src_port": "out", "dst": s, "dst_port": "in", "delay_ns": 0}
            for p in pubs
            for s in subs
        ],
    }


def run_episode(
    w: Workload, seed: int, rounds: int, period_ns: int, workdir: Path,
    traced: bool, run_deadline: float,
) -> Episode:
    ep = Episode(w, rounds, period_ns)
    workdir.mkdir(parents=True)
    # The schedule's span, or for a burst the time it takes at today's rate.
    expected_s = max(rounds * w.slots * period_ns / 1e9, rounds * w.pubs / w.burst_hz)
    # A stalled federation is stopped by its own subscribers at this point.
    deadline_ns = int((expected_s * 2 + 10) * 1e9)
    children = Children(workdir, run_deadline)
    topology = topology_dict(w)
    topo_path = workdir / "topology.json"
    topo_path.write_text(json.dumps(topology))
    sock = os.path.relpath(workdir / "store.sock", ROOT)
    spans_of = {n: workdir / f"{n}.spans.json" for n in ep.everyone} if traced else {}
    try:
        t_launch = time.monotonic_ns()
        children.spawn("store", "daemon.py", "store", sock, str(w.store_bytes))
        rti_args = [str(topo_path)] + ([str(spans_of["rti"])] if traced else [])
        children.spawn("rti", "daemon.py", "rti", *rti_args)
        ready = children.expect("ready", ["store", "rti"], 60)
        shared = {
            "mode": w.mode,
            "topology": topology,
            "rti_address": ready["rti"]["address"],
            "store_path": sock,
            "stp_offset_ns": w.stp_offset_ns,
            "seed": seed,
            "size_bytes": w.size_bytes,
            "slots": w.slots,
            "period_ns": period_ns,
            "lead_ns": LEAD_NS,
            "deadline_ns": deadline_ns,
        }
        pub_cfgs = [
            {"pub": i, "slot": i if w.slots > 1 else 0, "count": rounds}
            for i in range(w.pubs)
        ]
        for i, name in enumerate(ep.pubs):
            cfg = shared | pub_cfgs[i] | {"fid": name, "role": "pub"}
            spawn_worker(children, name, cfg, spans_of.get(name))
        for name in ep.subs:
            cfg = shared | {"fid": name, "role": "sub", "pubs": pub_cfgs}
            spawn_worker(children, name, cfg, spans_of.get(name))
        feds = ep.pubs + ep.subs
        started = children.expect("started", feds, 60)
        ep.setup_s = (max(e["t_ns"] for e in started.values()) - t_launch) / 1e9
        ep.t0 = started[feds[0]]["t0"]
        steal0 = read_steal()
        for name in ep.everyone:
            children.send(name, "snap")
        ep.snaps = children.expect("snap", ep.everyone, 30)
        ep.finals = children.expect("final", feds, deadline_ns / 1e9 + 20)
        children.send("store", "stop")
        ep.finals |= children.expect("final", ["store", "rti"], 30)
        steal1 = read_steal()
        ep.policies = {n: ready[n]["policy"] for n in ready} | {
            n: ep.finals[n]["results"]["policy"] for n in feds
        }
        ep.steal_share = (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    finally:
        children.close()
    for name, final in ep.finals.items():
        if final.get("error"):
            raise BenchError(f"{name} failed: {final['error']}\n{children.stderr_tail(name)}")
    for path in spans_of.values():
        if path.exists():
            ep.spans.append(json.loads(path.read_text()))
    return ep


def spawn_worker(children: Children, name: str, cfg: dict, spans_path) -> None:
    if spans_path is not None:
        cfg = cfg | {"spans_path": str(spans_path)}
    path = children.workdir / f"{name}.config.json"
    path.write_text(json.dumps(cfg))
    children.spawn(name, "worker.py", "--config", str(path))


# -- checks and metrics ------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


@dataclass
class Outcome:
    """What one episode delivered, after every check."""

    attempted: int
    delivered: int
    errors: list
    late: int
    latencies_ns: list
    last_delivery_ns: int
    late_by_ns: list
    generator_lateness_ns: list

    @property
    def failed(self) -> int:
        return min(self.attempted, self.attempted - self.delivered + len(self.errors))


def check(ep: Episode) -> Outcome:
    reached: dict[tuple[int, int], int] = {}
    react: dict[tuple[int, int], int] = {}
    errors, late_by = [], []
    late = 0
    for name in ep.subs:
        res = ep.finals[name]["results"]
        errors += [f"{name}: {e}" for e in res["errors"]]
        if ep.finals[name].get("hung"):
            errors.append(f"{name}: did not stop after its deadline")
        late_by += res["late_by_ns"]
        for pub, k, t_react, is_late in res["rows"]:
            key = (pub, k)
            reached[key] = reached.get(key, 0) + 1
            react[key] = max(react.get(key, 0), t_react)
            late += is_late
    delivered = [
        key for key, n in reached.items()
        if n == len(ep.subs) and 0 <= key[1] < ep.rounds and 0 <= key[0] < ep.workload.pubs
    ]
    per_tag: dict[int, int] = {}
    for pub, k in delivered:
        t = ep.tag_time(pub, k)
        per_tag[t] = max(per_tag.get(t, 0), react[(pub, k)])
    generator = []
    for name in ep.pubs:
        generator += ep.finals[name]["results"].get("lateness_ns", [])
        if ep.finals[name].get("hung"):
            errors.append(f"{name}: did not stop after its deadline")
    return Outcome(
        attempted=ep.attempted,
        delivered=len(delivered),
        errors=errors,
        late=late,
        latencies_ns=[done - t for t, done in per_tag.items()],
        last_delivery_ns=max(per_tag.values(), default=ep.t0),
        late_by_ns=late_by,
        generator_lateness_ns=generator,
    )


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def process_metrics(ep: Episode, out: Outcome) -> dict:
    """Per-layer numbers that need no tracing: rusage deltas and counters."""
    n = out.delivered
    stats = ep.finals["store"]["stats"]
    rpcs = sum(stats[k] for k in ("creates", "seals", "gets", "releases"))
    feds = ep.pubs + ep.subs
    return {
        "store.minflt_per_obj": ratio(ep.ru_delta("minflt", ep.everyone), stats["creates"]),
        "store.rpcs_per_msg": ratio(rpcs, n),
        "store.evictions_per_msg": ratio(stats["evictions"], n),
        "store.daemon_cpu_ms_per_msg": ratio(ep.cpu_s(["store"]) * 1e3, n),
        "rti.cpu_ms_per_msg": ratio(ep.cpu_s(["rti"]) * 1e3, n),
        "federate.pub_cpu_ms_per_msg": ratio(ep.cpu_s(ep.pubs) * 1e3, n),
        "federate.sub_cpu_ms_per_msg": ratio(ep.cpu_s(ep.subs) * 1e3, n),
        "federate.ctx_switches_per_msg": ratio(
            ep.ru_delta("nvcsw", feds) + ep.ru_delta("nivcsw", feds), n
        ),
        "federate.late_by_ms": statistics.median(out.late_by_ns) / 1e6 if out.late_by_ns else 0.0,
        "failed_share": ratio(out.failed, out.attempted),
        "stp_late_share": ratio(out.late, out.attempted),
        "host.steal_share": ep.steal_share,
    }


def cost_metrics(ep: Episode, out: Outcome) -> dict:
    if out.delivered < 1:
        raise BenchError("no message was delivered")
    return {
        "cpu_ms_per_msg": ratio(ep.cpu_s(ep.everyone) * 1e3, out.delivered),
        "peak_rss_mib": sum(ep.finals[n]["ru"]["maxrss_kib"] for n in ep.everyone) / 1024,
    }


def beyond(values, q: float) -> int:
    """How many samples lie beyond the nearest-rank ``q``-th percentile."""
    return len(values) - math.ceil(q / 100 * len(values))


def latency_metrics(out: Outcome) -> dict:
    """Median and tails in ms; a tail with too few samples beyond it is
    None, shown as "not measured"."""
    lat = out.latencies_ns
    metrics = {"latency_p50_ms": statistics.median(lat) / 1e6}
    for q in (95, 99):
        metrics[f"latency_p{q}_ms"] = (
            percentile(lat, q) / 1e6 if beyond(lat, q) >= MIN_BEYOND else None
        )
    return metrics


# -- the traced run's extra numbers -----------------------------------------------


def span_metrics(ep: Episode, out: Outcome) -> dict:
    from spans import summarize

    s = summarize(ep.spans)
    n = out.delivered
    dur = s["durations"]

    def p50_us(*names):
        values = [v for name in names for v in dur.get(name, [])]
        if any(name in s["missing"] for name in names):
            return None
        return statistics.median(values) / 1e3 if values else 0.0

    writes = s["writes"]
    no_writes = "store.write" in s["missing"]
    frames = len(dur.get("transport.send", []))
    data_frames = s["extra_sum"].get("transport.send", 0)
    handles = len(dur.get("rti.handle", []))
    metrics = {
        "serde.serialize_us": p50_us("serde.serialize"),
        "serde.deserialize_us": p50_us("serde.deserialize"),
        "serde.layout_us": p50_us("serde.layout"),
        "serde.inline_codec_us": p50_us("serde.inline_codec"),
        "store.create_us": p50_us("store.create"),
        "store.write_ms": None if no_writes else (
            statistics.median(t for t, _ in writes) / 1e6 if writes else 0.0
        ),
        "store.write_gib_s": None if no_writes else ratio(
            sum(b for _, b in writes) / (1 << 30), sum(t for t, _ in writes) / 1e9
        ),
        "store.seal_us": p50_us("store.seal"),
        "store.get_us": p50_us("store.get"),
        "store.release_us": p50_us("store.release"),
        "transport.send_us": p50_us("transport.send"),
        "transport.data_frames_per_msg": ratio(data_frames, n),
        "transport.control_frames_per_msg": ratio(frames - data_frames, n),
        "rti.handle_us": p50_us("rti.handle"),
        "rti.calls_per_msg": ratio(handles, n),
        "rti.grants_per_msg": ratio(s["extra_sum"].get("rti.handle", 0), n),
        "federate.publish_us": p50_us("federate.publish"),
    }
    for layer in ("serde", "store", "transport", "rti", "federate"):
        metrics[f"{layer}.self_ms_per_msg"] = ratio(s["self_ns"].get(layer, 0) / 1e6, n)
    return metrics


def probe_metrics(workdir: Path, run_deadline: float) -> dict:
    import probes

    return {
        "transport.ping_rtt_us": probes.ping_rtt_us(Children(workdir / "echo", run_deadline)),
        "rti.grant_rtt_us": probes.grant_rtt_us(Children(workdir / "grant", run_deadline)),
        "federate.schedule_q1000_us": probes.schedule_q1000_us(),
    }


# -- the run -----------------------------------------------------------------------


def describe(ep: Episode, label: str, out: Outcome) -> None:
    gen = out.generator_lateness_ns
    print(
        f"  {label}: {out.delivered}/{out.attempted} delivered, {len(out.errors)} errors, "
        f"{out.late} past the margin, setup {ep.setup_s:.3f} s, steal {ep.steal_share:.1%}"
        + (
            f", generator lateness p50 {statistics.median(gen)/1e6:.3f} ms"
            f" p99 {percentile(gen, 99)/1e6:.3f} ms" if gen else ""
        )
    )
    for e in out.errors[:5]:
        print(f"    error: {e}")


def show(name: str, value, unit: str) -> None:
    shown = "not measured" if value is None else f"{value:.6g} {unit}"
    print(f"    {name:34s} {shown}")


def policies(ep: Episode) -> str:
    """Each scheduling policy seen, with the processes that run under it."""
    names: dict[str, list[str]] = {}
    for name, policy in ep.policies.items():
        names.setdefault(policy, []).append(name)
    return "; ".join(f"{p}: {', '.join(n)}" for p, n in names.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hprm" / "federate.py").is_file():
        print(f"no hprm sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    run_deadline = time.monotonic() + RUN_BUDGET_S
    workdir = RUNS / f"{w.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return measure(w, args, workdir, run_deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


def rounds_for(w: Workload, seconds: float) -> int:
    """Rounds of the paced schedule that span ``seconds``."""
    return max(1, int(seconds * 1e9 / (w.slots * w.period_ns)))


def metric_units(key: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in the order
    BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def measure(w: Workload, args, workdir: Path, run_deadline: float) -> int:
    seconds = args.seconds
    end_to_end, per_layer = metric_units("end_to_end"), metric_units("per_layer")
    print(f"workload {w.name}: {w.why}")
    print(f"  {w.pubs} publisher(s), {w.subs} subscriber(s), {w.mode}, seed {args.seed}")
    outcomes = []

    def episode(label, rounds, period_ns, traced=False):
        ep = run_episode(
            w, args.seed, rounds, period_ns, workdir / label, traced, run_deadline
        )
        out = check(ep)
        describe(ep, label, out)
        outcomes.append(out)
        return ep, out

    if args.trace:
        # The paced schedule twice, untraced then traced, so the tracing
        # overhead is measured at the same load in the same run; then a
        # burst for the saturated rate, and the single-layer probes.
        rounds = rounds_for(w, seconds * TRACED_PACED_SHARE)
        plain, plain_out = episode("paced-untraced", rounds, w.period_ns)
        traced, traced_out = episode("paced-traced", rounds, w.period_ns, traced=True)
        burst_rounds = max(1, int(w.burst_hz * seconds * BURST_SHARE / w.pubs))
        burst, burst_out = episode("burst", burst_rounds, BURST_PERIOD_NS)
        base = cost_metrics(plain, plain_out) | latency_metrics(plain_out)
        with_spans = cost_metrics(traced, traced_out) | latency_metrics(traced_out)
        metrics = latency_metrics(plain_out) | process_metrics(plain, plain_out)
        metrics["delivered_rate_hz"] = ratio(
            burst_out.delivered, (burst_out.last_delivery_ns - burst.t0) / 1e9
        )
        metrics |= span_metrics(traced, traced_out)
        metrics |= probe_metrics(workdir, run_deadline)
        for name in ("cpu_ms_per_msg", "latency_p50_ms"):
            metrics[f"trace.overhead_{name}"] = with_spans[name] - base[name]
        units = per_layer
        lat = plain_out.latencies_ns
        print(f"  policies: {policies(plain)}")
        print(f"  per layer ({plain_out.delivered} messages untraced, "
              f"{traced_out.delivered} traced, {burst_out.delivered} in the burst):")
    else:
        setups = []
        for i in range(SETUP_EPISODES - 1):
            ep, _ = episode(f"setup-{i + 1}", 1, w.period_ns)
            setups.append(ep.setup_s)
        rounds = rounds_for(w, seconds * PACED_SHARE)
        paced, paced_out = episode("paced", rounds, w.period_ns)
        setups.append(paced.setup_s)
        metrics = cost_metrics(paced, paced_out)
        metrics["setup_s"] = statistics.median(setups)
        units = end_to_end
        lat = paced_out.latencies_ns
        print(f"  policies: {policies(paced)}")
        print(f"  end to end ({paced_out.delivered} messages, {len(lat)} tags; "
              f"setup median of {', '.join(f'{s:.3f}' for s in setups)} s):")
    for name in units:
        show(name, metrics[name], units[name])
    if not args.trace:
        print("  unbounded, from the same federation:")
        extra = latency_metrics(paced_out) | process_metrics(paced, paced_out)
        for name, value in extra.items():
            show(name, value, per_layer[name])
    print(f"    latency samples: {len(lat)} tags, "
          f"{beyond(lat, 95)} beyond p95, {beyond(lat, 99)} beyond p99")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    # A name that could not be wrapped reads 0 here and
                    # "not measured" above.
                    name: {"value": metrics[name] or 0.0, "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
