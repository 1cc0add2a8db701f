"""``hprm-bench``: run one benchmark scenario and emit a CSV report.

Examples::

    hprm-bench broadcast --nodes 4 --sizes-mb 1,10,50 --mode centralized \\
        --iters 100 --warmup 10 --out results.csv
    hprm-bench ordering --mode centralized --runs 10000 --period-ns 1000000
    hprm-bench ordering --mode decentralized --runs 1000 \\
        --stp-ns 0 --inject-latency-ns 4000000
    hprm-bench serde --sizes-mb 5 --iters 60 --warmup 10
    hprm-bench ping --pings 1000

Exit code 0 iff every invariant check printed at the end passed.
"""

from __future__ import annotations

import argparse
import sys

from hprm.bench.report import emit_report
from hprm.bench.scenarios import MODES, SCENARIOS, BenchConfig, BenchError


def _sizes(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hprm-bench",
        description="publish/subscribe middleware benchmarks",
    )
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--nodes", type=int, default=4,
                        help="broadcast and gather: federates incl. the single"
                        " pub or collector (ordering always runs 2 publishers"
                        " and 1 subscriber)")
    parser.add_argument("--sizes-mb", type=_sizes, default=(1.0,),
                        help="comma-separated payload sizes in MiB")
    parser.add_argument("--mode", choices=MODES, default="centralized")
    parser.add_argument("--iters", dest="iterations", type=int, default=100)
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--stp-ns", dest="stp_offset_ns", type=int, default=0,
                        help="decentralized safe-to-process offset")
    parser.add_argument("--out", default=None, help="CSV report path")
    parser.add_argument("--period-ns", type=int, default=None,
                        help="publish period override (auto-sized otherwise)")
    parser.add_argument("--runs", type=int, default=10_000,
                        help="ordering: total messages")
    parser.add_argument("--inject-latency-ns", type=int, default=0,
                        help="ordering: uniform inbound delay bound")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pings", type=int, default=1000)
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    out = args.pop("out")
    try:
        cfg = BenchConfig(**args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = SCENARIOS[cfg.scenario](cfg)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in result.records:
        print(
            f"{record.scenario} {record.mode} size={record.size_bytes}: "
            f"n={len(record.latencies_ns)} mean={record.mean_ns/1e6:.3f}ms "
            f"median={record.median_ns/1e6:.3f}ms p99={record.p99_ns/1e6:.3f}ms"
        )
    for key, value in sorted(result.extra.items(), key=lambda kv: str(kv[0])):
        if isinstance(value, (int, float, str)):
            print(f"{key}: {value}")
    if out and result.records:
        path = emit_report(result.records, out)
        print(f"wrote {path}")
    for check in result.checks:
        print(check)
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
