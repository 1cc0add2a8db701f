"""Go/no-go acceptance gates for the shipped artifact.

One test per criterion, so a ``pytest -v`` run yields one pass/fail
line each.  These are end-to-end: real daemons, real worker processes,
real sockets and shared memory, with thresholds checked against
independently computed statistics (``statistics.median``/``fmean`` on
the raw samples, never a summary a component produced about itself).

Rough wall-clock budget on a development box: four to six minutes,
dominated by the 10k-run ordering stress, the property-suite re-run,
and the 1000-ping coalescing A/B.
"""

import functools
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hprm.bench.scenarios import (
    BenchConfig,
    measure_write_delay,
    run_broadcast,
    run_ordering,
    run_ping,
)
from hprm.bench.scenarios import measure_throughput

MB = 1 << 20
REPO = Path(__file__).resolve().parent.parent


# -- 1: centralized ordering determinism --------------------------------------


def test_c1_centralized_ordering_zero_errors_over_10k_runs():
    """Two publishers interleave 10,000 tagged messages at a 1 ms period;
    the subscriber must process every one of them in tag order."""
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hprm.bench.cli",
            "ordering",
            "--mode",
            "centralized",
            "--runs",
            "10000",
            "--period-ns",
            "1000000",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "[PASS] ordering-zero-errors: out_of_order=0 detected=0" in proc.stdout
    assert "[PASS] ordering-conservation" in proc.stdout
    print(proc.stdout.strip().splitlines()[-2:])


# -- 2: undersized safe-to-process margin => violations, every one detected ---


def test_c2_undersized_stp_violations_all_detected():
    result = run_ordering(
        BenchConfig(
            scenario="ordering",
            mode="decentralized",
            runs=1000,
            period_ns=1_000_000,
            inject_latency_ns=4_000_000,
            stp_offset_ns=0,
            seed=7,
        )
    )
    assert result.ok, [str(c) for c in result.checks]
    detected = result.extra["detected_violations"]
    silent = result.extra["silent_errors"]
    assert detected > 0, "expected late arrivals with a zero margin under 4 ms jitter"
    assert silent == 0, f"{silent} misordered messages slipped through undetected"
    assert result.extra["sub"]["processed"] + detected == 1000
    print(f"detected={detected} silent={silent}")


# -- 3: sufficient safe-to-process margin => zero violations ------------------


def test_c3_sufficient_stp_yields_zero_violations():
    result = run_ordering(
        BenchConfig(
            scenario="ordering",
            mode="decentralized",
            runs=1000,
            period_ns=1_000_000,
            inject_latency_ns=2_000_000,
            stp_offset_ns=5_000_000,
            seed=7,
        )
    )
    assert result.ok, [str(c) for c in result.checks]
    assert result.extra["detected_violations"] == 0
    assert result.extra["silent_errors"] == 0
    assert result.extra["sub"]["processed"] == 1000


# -- 4: one create, three gets per 10 MB broadcast iteration ------------------


def test_c4_broadcast_store_accounting_one_create_three_gets():
    t0 = time.monotonic()
    result = run_broadcast(
        BenchConfig(
            scenario="broadcast",
            nodes=4,
            sizes_mb=(10.0,),
            mode="centralized",
            iterations=100,
            warmup=10,
        )
    )
    elapsed = time.monotonic() - t0
    assert result.ok, [str(c) for c in result.checks]
    stats = result.extra[10 * MB]["store_stats"]
    assert stats["creates"] == 100, stats
    assert stats["gets"] == 300, stats
    assert stats["releases"] == 300, stats
    assert elapsed < 120, f"accounting run took {elapsed:.0f}s"
    print(f"creates={stats['creates']} gets={stats['gets']} in {elapsed:.0f}s")


# -- 5: zero-copy beats full copies and scales gently with size ---------------


@functools.lru_cache(maxsize=None)
def _broadcast_means(mode: str) -> dict[int, float]:
    result = run_broadcast(
        BenchConfig(
            scenario="broadcast",
            nodes=4,
            sizes_mb=(10.0, 50.0),
            mode=mode,
            iterations=30,
            warmup=5,
        )
    )
    assert result.ok, [str(c) for c in result.checks]
    return {
        rec.size_bytes: statistics.fmean(rec.latencies_ns)
        for rec in result.records
    }


def test_c5_zero_copy_beats_copy_baseline_and_scales_sublinearly():
    shared = _broadcast_means("decentralized")
    copied = _broadcast_means("copy-baseline")
    detail = (
        f"shared 10MB={shared[10 * MB] / 1e6:.1f}ms 50MB={shared[50 * MB] / 1e6:.1f}ms, "
        f"copied 10MB={copied[10 * MB] / 1e6:.1f}ms 50MB={copied[50 * MB] / 1e6:.1f}ms"
    )
    assert shared[10 * MB] < copied[10 * MB], detail
    assert shared[50 * MB] < copied[50 * MB], detail
    assert shared[50 * MB] < 5 * shared[10 * MB], detail
    print(detail)


# -- 6: segment-borrowing serde throughput ratios ------------------------------


def test_c6_out_of_band_serde_throughput_ratios():
    oob = measure_throughput(5 * MB, "out-of-band", iterations=50, warmup=5)
    inb = measure_throughput(5 * MB, "in-band", iterations=50, warmup=5)
    ser_ratio = statistics.median(inb.serialize_ns) / statistics.median(
        oob.serialize_ns
    )
    deser_ratio = statistics.median(inb.deserialize_ns) / statistics.median(
        oob.deserialize_ns
    )
    assert ser_ratio >= 5.0, f"serialize speedup {ser_ratio:.1f}x < 5x"
    assert deser_ratio >= 2.0, f"deserialize speedup {deser_ratio:.1f}x < 2x"
    print(f"serialize {ser_ratio:.1f}x, deserialize {deser_ratio:.1f}x")


# -- 7: store write path at most half the serialize-and-copy baseline ---------


def test_c7_store_write_delay_at_most_half_baseline():
    store_ns, base_ns = measure_write_delay(50 * MB)
    m_store = statistics.median(store_ns)
    m_base = statistics.median(base_ns)
    detail = (
        f"store median={m_store / 1e6:.1f}ms mean={statistics.fmean(store_ns) / 1e6:.1f}ms, "
        f"baseline median={m_base / 1e6:.1f}ms mean={statistics.fmean(base_ns) / 1e6:.1f}ms"
    )
    assert m_store <= 0.5 * m_base, detail
    print(detail)


# -- 8: the property suites stay green -----------------------------------------


def test_c8_property_suites_all_green():
    """Total-order laws for tags, delay arithmetic monotonicity, ordering
    safety of the arrival floor under randomized federation schedules
    and FIFO delays, serde round-trip identity, frame codec identity, and
    the store lifecycle model."""
    files = [
        "tests/test_tags.py",
        "tests/test_rti.py",
        "tests/test_serde.py",
        "tests/test_transport.py",
        "tests/test_store.py",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *files],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout[-4000:]
    assert elapsed < 600, f"property suites took {elapsed:.0f}s"
    print(proc.stdout.strip().splitlines()[-1], f"in {elapsed:.0f}s")


# -- 9: message coalescing hurts small-message RTT ------------------------------


def test_c9_nodelay_ping_beats_coalesced():
    result = run_ping(BenchConfig(scenario="ping", pings=1000))
    assert result.ok, [str(c) for c in result.checks]
    fast = result.extra["median_nodelay_ns"]
    slow = result.extra["median_coalesced_ns"]
    assert fast < slow, f"nodelay median {fast}ns vs coalesced {slow}ns"
    print(f"median nodelay={fast / 1e3:.1f}us coalesced={slow / 1e3:.1f}us")
