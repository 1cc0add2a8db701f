"""Benchmark plumbing: the report format, config validation, and one
tiny end-to-end scenario per coordination style.

The report tests pin the CSV layout byte-for-byte (downstream scripts
diff these files), the statistics against hand-computed values, and the
emit/load round trip with a hypothesis property.  The scenario smokes
run the real orchestrator -- daemons plus worker subprocesses -- at the
smallest sizes that still exercise the store path.
"""

import ast
import gc
import json
import os
import subprocess
import sys
import time
import warnings
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

ROOT = Path(__file__).resolve().parent.parent


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


def test_a_failed_worker_reports_its_error():
    """A worker whose role raises ends with its traceback on stderr, and
    the BenchError the run raises quotes the exception."""
    cfg = BenchConfig(
        scenario="ordering",
        mode="decentralized",
        runs=20,
        period_ns=1_000_000,
        stp_offset_ns=-1,
    )
    with pytest.raises(BenchError, match="negative safe-to-process margin"):
        run_ordering(cfg)


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
    src = ROOT / "src" / "hprm"
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


def test_a_failed_child_is_reported_while_another_still_runs(tmp_path):
    """A child listed after one that never ends fails: waiting raises its
    error at once, not the first child's timeout at the deadline."""
    procs = _Procs(tmp_path)
    try:
        procs.spawn("slow", [sys.executable, "-c", "import time; time.sleep(20)"])
        procs.spawn("bad", [sys.executable, "-c", "raise SystemExit('boom')"])
        t0 = time.monotonic()
        with pytest.raises(BenchError, match="(?s)worker bad exited 1;.*boom"):
            procs.wait_all(["slow", "bad"], 15)
        assert time.monotonic() - t0 < 5
    finally:
        procs.kill_all()


def test_spawning_a_child_leaves_no_file_open(tmp_path):
    """The file a child writes its stderr to is closed in this process
    once the child has it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        _Procs(tmp_path).spawn("quick", [sys.executable, "-c", "pass"]).wait(30)
        gc.collect()
    leaks = [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning) and ".stderr" in str(w.message)
    ]
    assert leaks == []


# -- the runtime's contract with perfbench ------------------------------------


@pytest.mark.parametrize("workload", ["ordering-decentral", "ordering-central"])
def test_traced_perfbench_run_reaches_every_probe(workload):
    """A traced perfbench run calls the runtime through its probes: a
    NET answered by a TAG_GRANT, ``ping_rtt`` against ``serve_echo``, and
    ``Federate.schedule``.  Each must still answer, and the run pass.  The
    centralized run also feeds live announcements to the wrapped
    ``RtiState.handle_net``, whose result the tracer measures with
    ``len()``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=200,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    names = ["rti.grant_rtt_us", "transport.ping_rtt_us", "federate.schedule_q1000_us"]
    if workload == "ordering-central":
        names += ["rti.grants_per_msg", "transport.control_frames_per_msg"]
    for name in names:
        assert result["metrics"][name]["value"] > 0, name


def test_perfbench_finds_every_runtime_name_it_wraps():
    """perfbench's spans wrap runtime names from outside; a name it cannot
    find reads as "not measured".  Only two are missing, each once:
    ``payload_from_spans`` (``serde.layout``) and ``RtiState.handle_ltc``
    (``rti.handle``), both long gone from the runtime."""
    code = (
        "import json, spans; t = spans.Tracer(); "
        "spans.wrap_federate(t); spans.wrap_rti(t); print(json.dumps(t.missing))"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    missing = json.loads(proc.stdout)
    assert set(missing) <= {"serde.layout", "rti.handle"}, missing
    assert len(missing) == len(set(missing)), missing
