"""Benchmark plumbing: the report format, config validation, and one
tiny end-to-end scenario per coordination style.

The report tests pin the CSV layout byte-for-byte (downstream scripts
diff these files), the statistics against hand-computed values, and the
emit/load round trip with a hypothesis property.  The scenario smokes
run the real orchestrator -- daemons plus worker subprocesses -- at the
smallest sizes that still exercise the store path.
"""

import ast
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

import hprm.bench.scenarios
from hypothesis import strategies as st

from hprm.bench.report import (
    CSV_HEADER,
    LatencyRecord,
    ReportError,
    emit_report,
    load_report,
    render_report,
)
from hprm.bench.scenarios import (
    BenchConfig,
    BenchError,
    _Procs,
    _read_address,
    measure_write_delay,
    run_broadcast,
    run_ordering,
)


# -- latency records ---------------------------------------------------------


def test_record_statistics_match_hand_computed_values():
    rec = LatencyRecord("s", "m", 0, (40, 10, 20, 30))
    assert rec.mean_ns == 25.0
    assert rec.median_ns == 25.0  # even count: midpoint of 20 and 30
    assert LatencyRecord("s", "m", 0, (5, 1, 9)).median_ns == 5.0


def test_p99_uses_nearest_rank():
    hundred = tuple(range(1, 101))
    assert LatencyRecord("s", "m", 0, hundred).p99_ns == 99
    # Small samples round up to the max rather than interpolating.
    assert LatencyRecord("s", "m", 0, (7, 3, 11)).p99_ns == 11
    assert LatencyRecord("s", "m", 0, (42,)).p99_ns == 42


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(latencies_ns=()),
        dict(latencies_ns=(5, 0)),
        dict(latencies_ns=(5, -1)),
        dict(latencies_ns=(5,), size_bytes=-1),
    ],
)
def test_record_rejects_bad_samples(kwargs):
    base = dict(scenario="s", mode="m", size_bytes=0)
    with pytest.raises(ReportError):
        LatencyRecord(**(base | kwargs))


# -- report rendering --------------------------------------------------------


def test_render_golden_bytes():
    records = [
        LatencyRecord("ping", "coalesced", 64, (200, 100)),
        LatencyRecord("broadcast", "centralized", 1024, (10, 30, 20)),
    ]
    assert render_report(records) == (
        "scenario,mode,size_bytes,iter,latency_ns\n"
        "broadcast,centralized,1024,0,10\n"
        "broadcast,centralized,1024,1,30\n"
        "broadcast,centralized,1024,2,20\n"
        "ping,coalesced,64,0,200\n"
        "ping,coalesced,64,1,100\n"
        "#summary,broadcast,centralized,1024,mean_ns=20.0,median_ns=20.0,p99_ns=30\n"
        "#summary,ping,coalesced,64,mean_ns=150.0,median_ns=150.0,p99_ns=200\n"
    )


def test_render_is_order_independent():
    a = LatencyRecord("x", "m", 1, (5,))
    b = LatencyRecord("y", "m", 2, (6,))
    assert render_report([a, b]) == render_report([b, a])


def test_render_rejects_empty_and_duplicate_groups():
    with pytest.raises(ReportError):
        render_report([])
    dup = LatencyRecord("s", "m", 8, (1,))
    with pytest.raises(ReportError, match="duplicate"):
        render_report([dup, LatencyRecord("s", "m", 8, (2,))])


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-report.csv"
    path.write_text("time,value\n1,2\n")
    with pytest.raises(ReportError, match="does not start with"):
        load_report(path)


ident = st.from_regex(r"[a-z][a-z0-9-]{0,11}", fullmatch=True)
samples = st.lists(st.integers(1, 10**12), min_size=1, max_size=20).map(tuple)


@given(
    st.dictionaries(
        st.tuples(ident, ident, st.integers(0, 2**40)),
        samples,
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=50)
def test_emit_load_round_trip(tmp_path_factory, groups):
    records = [
        LatencyRecord(sc, mode, size, vals)
        for (sc, mode, size), vals in groups.items()
    ]
    path = tmp_path_factory.mktemp("report") / "out.csv"
    emit_report(records, path)
    loaded = load_report(path)
    assert sorted(loaded, key=LatencyRecord.group_key) == sorted(
        records, key=LatencyRecord.group_key
    )
    # Loading and re-emitting is a fixed point.
    assert render_report(loaded) == path.read_text()


# -- configuration -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        (dict(nodes=1), "two nodes"),
        (dict(sizes_mb=(1.0, 0.0)), "positive"),
        (dict(iterations=5, warmup=5), "exceed the warmup"),
        (dict(mode="peer-to-peer"), "unknown mode"),
    ],
)
def test_config_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        BenchConfig(scenario="broadcast", **kwargs)


def test_period_floors_at_twenty_ms_and_scales_with_size():
    cfg = BenchConfig(scenario="broadcast")
    assert cfg.auto_period_ns(1024) == 20_000_000
    assert cfg.auto_period_ns(50 << 20) == (50 << 20) * 4
    fixed = BenchConfig(scenario="broadcast", period_ns=7)
    assert fixed.auto_period_ns(50 << 20) == 7


# -- end-to-end smokes -------------------------------------------------------
#
# Deliberately tiny: enough iterations to survive warmup trimming, the
# smallest payload that still crosses the inline threshold, and short
# ordering runs.  The acceptance suite runs the full-size versions.


def test_broadcast_scenario_end_to_end():
    cfg = BenchConfig(
        scenario="broadcast",
        nodes=3,
        sizes_mb=(0.25,),
        mode="centralized",
        iterations=8,
        warmup=2,
    )
    result = run_broadcast(cfg)
    assert result.ok, [str(c) for c in result.checks]
    (rec,) = result.records
    assert rec.group_key() == ("broadcast", "centralized", 262144)
    assert len(rec.latencies_ns) == 6
    # The accounting check must have actually run (store stats present).
    assert any("zero-copy-accounting" in c.name for c in result.checks)


def test_ordering_scenario_conserves_messages():
    cfg = BenchConfig(
        scenario="ordering",
        nodes=3,
        mode="centralized",
        runs=80,
        period_ns=1_000_000,
    )
    result = run_ordering(cfg)
    assert result.ok, [str(c) for c in result.checks]
    assert result.extra["detected_violations"] == 0
    assert result.extra["silent_errors"] == 0
    assert result.extra["sub"]["processed"] == 80


def test_cli_writes_report_and_exits_zero(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "hprm.bench.cli",
            "ordering",
            "--mode",
            "decentralized",
            "--runs",
            "60",
            "--period-ns",
            "1000000",
            "--inject-latency-ns",
            "2000000",
            "--stp-ns",
            "8000000",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    records = load_report(out)
    assert records and records[0].scenario == "ordering"
    assert "[PASS]" in proc.stdout


def test_cli_rejects_bad_arguments():
    proc = subprocess.run(
        [sys.executable, "-m", "hprm.bench.cli", "broadcast", "--nodes", "1"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert "two nodes" in proc.stderr


def test_write_delay_returns_positive_samples():
    store_ns, baseline_ns = measure_write_delay(1 << 20, iterations=5, warmup=1)
    assert len(store_ns) == len(baseline_ns) == 5
    assert all(v > 0 for v in store_ns + baseline_ns)


# -- layering -------------------------------------------------------------------


def test_runtime_never_imports_the_bench():
    """Instrumentation stays out of the runtime: only ``hprm.bench`` itself
    may import ``hprm.bench``."""
    src = Path(__file__).resolve().parent.parent / "src" / "hprm"
    offenders = []
    for path in sorted(src.rglob("*.py")):
        if (src / "bench") in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "hprm":
                    names += [f"hprm.{alias.name}" for alias in node.names]
            else:
                continue
            if any(n == "hprm.bench" or n.startswith("hprm.bench.") for n in names):
                offenders.append(f"{path.relative_to(src)}:{node.lineno}")
    assert offenders == []


def test_address_read_gives_up_on_a_silent_child_at_its_deadline(tmp_path, monkeypatch):
    """A child that prints nothing for 20 s: reading its banner fails
    with a BenchError once the deadline passes, not when the child ends."""
    monkeypatch.setattr(hprm.bench.scenarios, "ADDRESS_DEADLINE_S", 2.0)
    procs = _Procs(tmp_path)
    proc = procs.spawn(
        "quiet",
        [sys.executable, "-c", "import time; time.sleep(20)"],
        stdout=subprocess.PIPE,
    )
    t0 = time.monotonic()
    with pytest.raises(BenchError, match="quiet failed to start"):
        _read_address(procs, "quiet", proc, "quiet listening on ")
    assert time.monotonic() - t0 < 2.0 + 1.0
    assert proc.poll() is not None  # and it was stopped
