"""Benchmark result records and the CSV report format.

One :class:`LatencyRecord` covers one (scenario, mode, size) group and
holds every per-iteration latency.  The report file is plain CSV with a
fixed header followed by one ``#summary`` comment line per group, so it
loads cleanly into pandas/gnuplot while staying human-readable.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

CSV_HEADER = "scenario,mode,size_bytes,iter,latency_ns"


class ReportError(ValueError):
    pass


def _nearest_rank(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile on pre-sorted data (deterministic)."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class LatencyRecord:
    scenario: str
    mode: str
    size_bytes: int
    latencies_ns: tuple[int, ...]

    def __post_init__(self):
        if not self.latencies_ns:
            raise ReportError("a latency record needs at least one sample")
        if any(v <= 0 for v in self.latencies_ns):
            raise ReportError("latency samples must be positive")
        if self.size_bytes < 0:
            raise ReportError("size must be non-negative")

    @property
    def mean_ns(self) -> float:
        return statistics.fmean(self.latencies_ns)

    @property
    def median_ns(self) -> float:
        return statistics.median(self.latencies_ns)

    @property
    def p99_ns(self) -> int:
        return _nearest_rank(sorted(self.latencies_ns), 0.99)

    def group_key(self) -> tuple[str, str, int]:
        return (self.scenario, self.mode, self.size_bytes)


def render_report(records: Iterable[LatencyRecord]) -> str:
    records = sorted(records, key=LatencyRecord.group_key)
    if not records:
        raise ReportError("nothing to report")
    seen = set()
    for rec in records:
        if rec.group_key() in seen:
            raise ReportError(f"duplicate record group {rec.group_key()}")
        seen.add(rec.group_key())
    lines = [CSV_HEADER]
    for rec in records:
        for i, ns in enumerate(rec.latencies_ns):
            lines.append(
                f"{rec.scenario},{rec.mode},{rec.size_bytes},{i},{ns}"
            )
    for rec in records:
        lines.append(
            f"#summary,{rec.scenario},{rec.mode},{rec.size_bytes},"
            f"mean_ns={rec.mean_ns:.1f},median_ns={rec.median_ns:.1f},"
            f"p99_ns={rec.p99_ns}"
        )
    return "\n".join(lines) + "\n"


def emit_report(records: Iterable[LatencyRecord], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(render_report(records))
    return path


def load_report(path: str | Path) -> list[LatencyRecord]:
    """Parse a report back into records (summary lines are recomputed)."""
    groups: dict[tuple[str, str, int], list[int]] = {}
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ReportError(f"{path} does not start with {CSV_HEADER!r}")
    for line in lines[1:]:
        if not line or line.startswith("#"):
            continue
        scenario, mode, size, _i, ns = line.split(",")
        groups.setdefault((scenario, mode, int(size)), []).append(int(ns))
    return [
        LatencyRecord(scenario, mode, size, tuple(vals))
        for (scenario, mode, size), vals in sorted(groups.items())
    ]
