"""Benchmark regression gate: compare emitted BENCH_*.json to a baseline.

Usage (what CI runs)::

    python -m repro.tools.bench_check               # compare, exit 1 on regression
    python -m repro.tools.bench_check --tolerance 0.25
    python -m repro.tools.bench_check --update      # bless current results
    python -m repro.tools.bench_check --history     # also append history.jsonl
    python -m repro.tools.bench_check --trend 10    # report from history.jsonl

``--history [PATH]`` appends one JSON line per gate run — timestamp,
commit sha (``GITHUB_SHA`` when set), tolerance, and every metric's
current/baseline/change/status — to ``benchmarks/history.jsonl`` (or
PATH).  ``--trend [N]`` is a standalone report over the last N history
records (default 10): per metric, the value trajectory, the net change
across the window, and a ``REGRESSING`` flag when the most recent runs
form a consecutive streak of ``regressed`` statuses — the early-warning
view for drifts that stay inside any single run's tolerance.

Only metrics whose ``direction`` is ``lower`` or ``higher`` are gated;
``info`` metrics (raw wall-clock timings) are reported but never fail the
build.  A baseline metric that the current run no longer emits counts as
a failure — a benchmark silently dropping a measurement is itself a
regression of the observability contract.

Exit codes are **distinct per failure class** so CI logs can tell a
broken setup from a real regression at a glance:

* ``0`` (:data:`EXIT_OK`) — all gated metrics within tolerance;
* ``1`` (:data:`EXIT_REGRESSION`) — at least one metric regressed (or a
  baseline metric went missing from the fresh results);
* ``2`` (:data:`EXIT_USAGE`) — bad invocation or unreadable/ill-formed
  BENCH files (e.g. a ``--only`` name matching nothing);
* ``3`` (:data:`EXIT_NO_BASELINE`) — no committed baseline to compare
  against; run with ``--update`` to create one.  This is a setup
  problem, **not** a regression, and is reported as such.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import shutil
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.bench import Comparison, compare_dirs, discover_bench_files, failures

REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
DEFAULT_RESULTS = REPO_ROOT / "benchmarks" / "results"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline"
DEFAULT_HISTORY = REPO_ROOT / "benchmarks" / "history.jsonl"

#: Consecutive ``regressed`` statuses (latest runs) before --trend flags
#: a metric as REGRESSING.
TREND_STREAK = 2

EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_USAGE = 2
EXIT_NO_BASELINE = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_check",
        description="Gate benchmark results against the checked-in baseline.",
    )
    parser.add_argument(
        "--results", type=pathlib.Path, default=DEFAULT_RESULTS,
        help="directory holding freshly emitted BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional regression before failing (default 0.25)",
    )
    parser.add_argument(
        "--only", action="append", default=[], metavar="NAME",
        help="gate only benches with this name (repeatable) — lets CI hold "
             "different benches to different tolerances",
    )
    parser.add_argument(
        "--skip", action="append", default=[], metavar="NAME",
        help="exclude benches with this name from this gate (repeatable)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="copy the current results over the baseline instead of comparing",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print failures only",
    )
    parser.add_argument(
        "--history", type=pathlib.Path, nargs="?", const=DEFAULT_HISTORY,
        default=None, metavar="PATH",
        help="append this gate run (every metric's value/change/status) as "
             "one JSON line to PATH (default benchmarks/history.jsonl)",
    )
    parser.add_argument(
        "--trend", type=int, nargs="?", const=10, default=None, metavar="N",
        help="standalone report: per-metric trajectory over the last N "
             "history records (default 10); flags consecutive-regression "
             "streaks; no comparison is run",
    )
    return parser


# -- history / trend ---------------------------------------------------------

def append_history(
    path: pathlib.Path,
    comparisons: Sequence[Comparison],
    tolerance: float,
    failed: int,
) -> None:
    """Append one gate run as a JSON line (created if missing)."""
    record = {
        "ts": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "sha": os.environ.get("GITHUB_SHA", ""),
        "tolerance": tolerance,
        "failures": failed,
        "results": [
            {
                "bench": c.bench,
                "metric": c.metric,
                "value": c.current,
                "baseline": c.baseline,
                "change": c.change,
                "status": c.status,
                "direction": c.direction,
            }
            for c in comparisons
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_history(path: pathlib.Path) -> List[Dict[str, Any]]:
    """Parse a history JSONL file, skipping torn lines."""
    records: List[Dict[str, Any]] = []
    with path.open() as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn line from an interrupted gate run
            if isinstance(record, dict) and isinstance(
                record.get("results"), list
            ):
                records.append(record)
    return records


def print_trend(path: pathlib.Path, last_n: int) -> int:
    """Per-metric trajectory report over the last ``last_n`` records."""
    if not path.is_file():
        print(
            f"bench_check: no history at {path} — run the gate with "
            "--history first",
            file=sys.stderr,
        )
        return EXIT_USAGE
    records = load_history(path)[-max(1, last_n):]
    if not records:
        print(f"bench_check: {path} holds no parseable records", file=sys.stderr)
        return EXIT_USAGE
    series: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for record in records:
        for row in record["results"]:
            key = (str(row.get("bench", "?")), str(row.get("metric", "?")))
            series.setdefault(key, []).append(row)
    print(
        f"bench_check trend: {len(records)} run(s) from {path} "
        f"({records[0].get('ts', '?')} .. {records[-1].get('ts', '?')})"
    )
    streaks = 0
    for (bench, metric), rows in sorted(series.items()):
        values = [
            row["value"] for row in rows
            if isinstance(row.get("value"), (int, float))
        ]
        statuses = [str(row.get("status", "?")) for row in rows]
        direction = rows[-1].get("direction", "info")
        if values:
            first, last = values[0], values[-1]
            net = (last - first) / abs(first) if first else 0.0
            trajectory = " -> ".join(f"{value:g}" for value in values[-5:])
            line = (
                f"  {bench}/{metric} [{direction}]: {trajectory} "
                f"(net {net:+.1%} over {len(values)} run(s))"
            )
        else:
            line = f"  {bench}/{metric} [{direction}]: no numeric values"
        streak = 0
        for status in reversed(statuses):
            if status == "regressed":
                streak += 1
            else:
                break
        if streak >= TREND_STREAK:
            line += f"  REGRESSING ({streak} consecutive regressed runs)"
            streaks += 1
        print(line)
    if streaks:
        print(
            f"bench_check trend: {streaks} metric(s) on a regression streak "
            f"(>= {TREND_STREAK} consecutive regressed runs)"
        )
    return EXIT_OK


def update_baseline(results: pathlib.Path, baseline: pathlib.Path) -> int:
    files = discover_bench_files(results)
    if not files:
        print(f"bench_check: no BENCH_*.json under {results}", file=sys.stderr)
        return EXIT_USAGE
    baseline.mkdir(parents=True, exist_ok=True)
    for path in files:
        shutil.copy(path, baseline / path.name)
        print(f"bench_check: blessed {path.name}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trend is not None:
        return print_trend(args.history or DEFAULT_HISTORY, args.trend)
    if args.update:
        return update_baseline(args.results, args.baseline)
    if not args.baseline.is_dir() or not discover_bench_files(args.baseline):
        print(
            f"bench_check: BASELINE MISSING — no BENCH_*.json under "
            f"{args.baseline}.  This is a setup problem, not a metric "
            "regression; run with --update to bless the current results.",
            file=sys.stderr,
        )
        return EXIT_NO_BASELINE
    try:
        comparisons = compare_dirs(
            args.baseline, args.results, tolerance=args.tolerance
        )
    except ValueError as exc:  # unreadable/ill-formed BENCH file
        print(f"bench_check: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.only:
        comparisons = [c for c in comparisons if c.bench in args.only]
        if not comparisons:
            print(
                f"bench_check: --only {args.only} matched no baseline bench",
                file=sys.stderr,
            )
            return EXIT_USAGE
    if args.skip:
        comparisons = [c for c in comparisons if c.bench not in args.skip]
    bad = failures(comparisons)
    for comparison in comparisons:
        if args.quiet and comparison not in bad:
            continue
        print(comparison.describe())
    gated = [c for c in comparisons if c.direction != "info" and c.status != "new"]
    fresh = [c for c in comparisons if c.status == "new"]
    print(
        f"bench_check: {len(gated)} gated metric(s), {len(bad)} failure(s), "
        f"tolerance {args.tolerance:.0%}"
    )
    if fresh:
        print(
            f"bench_check: {len(fresh)} metric(s) have no baseline yet and "
            "were not gated; run with --update to bless them"
        )
    if args.history is not None:
        append_history(args.history, comparisons, args.tolerance, len(bad))
        print(f"bench_check: history appended to {args.history}")
    if bad:
        print(
            f"bench_check: REGRESSION — {len(bad)} metric(s) moved past the "
            f"{args.tolerance:.0%} tolerance (or went missing); see the "
            "'regressed'/'missing' lines above",
            file=sys.stderr,
        )
        return EXIT_REGRESSION
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
