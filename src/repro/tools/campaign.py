"""Campaign runner: a declarative experiment matrix, fanned out over processes.

The paper's evaluation (§6) is a *matrix* of runs — protocols × seeds ×
topologies × fault plans — and so is any honest MANET comparison.  This
module turns such a matrix into jobs and executes them on
shared-nothing worker processes::

    python -m repro.tools.campaign --spec examples/campaign_smoke.toml --workers 8
    python -m repro.tools.campaign --protocol olsr --protocol dymo \
        --seed 1 --seed 2 --seed 3 --topology chain:6 --duration 5 \
        --set warmup=5 --output /tmp/sweep

Design contract (enforced by ``tests/tools/test_campaign.py`` and the
``benchmarks/test_campaign.py`` gate):

* **declarative** — a TOML/JSON spec (or repeatable CLI flags) declares a
  ``[base]`` option table plus ``[matrix]`` axes; the cartesian product,
  in sorted-axis order, is the campaign.  Every job is validated against
  the scenario parser at expansion time, so a typo fails before anything
  spawns.
* **shared-nothing** — each run executes
  :func:`repro.tools.scenario.run_scenario` in its own process (``fork``
  start method where available); nothing is shared but the result pipe,
  so a crashing worker cannot corrupt its siblings.
* **crash-tolerant** — a worker that dies or exceeds ``--timeout`` is
  retried up to ``--retries`` times, then recorded as *failed* without
  sinking the campaign.  (A worker that returns a clean Python error is
  recorded as failed immediately: scenario errors are deterministic, so
  retrying cannot help.)
* **resumable** — every job is keyed by a content hash of its fully
  resolved option dict; completed run ids found in the output's
  ``runs.jsonl`` are skipped on re-invocation (``--fresh`` starts over).
* **deterministic per run** — seeds come from the spec, never wall-clock;
  two executions of a run id produce identical result dicts, which is
  what makes the resume cache and the cross-machine benchmark gate sound.
* **observable** — a live progress line, ``campaign.*`` metrics, a
  ``runs.jsonl`` (one record per run) plus a merged ``summary.json`` with
  percentiles via :func:`repro.obs.summary.summarize_runs`, and
  ``--emit-bench BENCH_campaign.json`` compatible with
  ``repro.tools.bench_check``.

See ``docs/campaigns.md`` for the spec format and worked examples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.obs.bench import BenchMetric, write_bench
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import sanitize, summarize_profiles, summarize_runs
from repro.tools.scenario import resolve_options
from repro.tools.workers import CRASH_HOOK_EXIT, Job, JobOutcome, ProcessPool
from repro.tools.workers import default_context as _default_mp_context

PathLike = Any

__all__ = [
    "CRASH_HOOK_EXIT", "CampaignResult", "CampaignRunner", "RunRecord",
    "RunSpec", "content_hash", "emit_bench", "expand_matrix", "load_spec",
]

_MATRIX_AXES_CLI = ("protocol", "seed", "topology", "nodes", "duration", "phy")


# -- spec loading ------------------------------------------------------------

def _parse_toml_value(text: str):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        # Split on top-level commas (strings in campaign specs never
        # contain commas or brackets, so no full tokenizer is needed).
        return [_parse_toml_value(part) for part in _split_toplevel(inner)]
    if (text.startswith('"') and text.endswith('"')) or (
        text.startswith("'") and text.endswith("'")
    ):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"unsupported TOML value {text!r}") from None


def _strip_comment(line: str) -> str:
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "#":
            return line[:i]
    return line


def _split_toplevel(text: str) -> List[str]:
    parts, depth, start, quote = [], 0, 0, None
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    tail = text[start:].strip()
    if tail:
        parts.append(tail)
    return parts


def parse_toml_minimal(text: str) -> Dict[str, Any]:
    """Parse the TOML subset campaign specs use (tables, scalars, arrays).

    Used only when the stdlib ``tomllib`` (3.11+) is unavailable, so
    Python 3.9/3.10 run the same spec files without any third-party
    dependency.  Supports ``[table]`` headers, ``key = value`` pairs with
    strings/ints/floats/booleans and (nested) arrays, and ``#`` comments.
    Multi-line arrays are folded before parsing.
    """
    data: Dict[str, Any] = {}
    table = data
    # Fold multi-line arrays: accumulate until brackets balance.
    logical: List[str] = []
    buffer = ""
    for raw in text.splitlines():
        line = _strip_comment(raw).strip()
        if not line:
            continue
        buffer = f"{buffer} {line}".strip() if buffer else line
        if buffer.count("[") - buffer.count("]") > 0 and "=" in buffer:
            continue
        logical.append(buffer)
        buffer = ""
    if buffer:
        logical.append(buffer)
    for line in logical:
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            table = data.setdefault(name, {})
            continue
        if "=" not in line:
            raise ValueError(f"bad TOML line {line!r}")
        key, _, value = line.partition("=")
        table[key.strip()] = _parse_toml_value(value)
    return data


def _load_toml(path: pathlib.Path) -> Dict[str, Any]:
    try:
        import tomllib  # Python 3.11+
    except ImportError:  # pragma: no cover - exercised on 3.9/3.10 CI
        return parse_toml_minimal(path.read_text())
    with path.open("rb") as handle:
        return tomllib.load(handle)


def load_spec(path: PathLike) -> Dict[str, Any]:
    """Load a campaign spec file (``.toml`` or ``.json``)."""
    path = pathlib.Path(path)
    if path.suffix == ".json":
        spec = json.loads(path.read_text())
    elif path.suffix == ".toml":
        spec = _load_toml(path)
    else:
        raise ValueError(f"campaign spec must be .toml or .json, got {path.name}")
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: campaign spec must be a table/object")
    spec.setdefault("campaign", {})
    spec["campaign"].setdefault("name", path.stem)
    return spec


# -- matrix expansion --------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One cell of the campaign matrix."""

    index: int
    run_id: str
    options: Tuple[Tuple[str, Any], ...]  # canonical, hashable

    @property
    def option_dict(self) -> Dict[str, Any]:
        return dict(self.options)


def content_hash(options: Dict[str, Any]) -> str:
    """Stable 12-hex-digit id of a fully resolved option dict."""
    blob = json.dumps(options, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def expand_matrix(
    base: Optional[Dict[str, Any]] = None,
    matrix: Optional[Dict[str, Sequence[Any]]] = None,
) -> List[RunSpec]:
    """Cartesian-product ``matrix`` over ``base``; validate every cell.

    Axes iterate in sorted-name order (innermost last), so the expansion
    order — and therefore each run's ``index`` — is deterministic for a
    given spec.  Every cell is resolved against the scenario parser's
    defaults, which rejects unknown option names up front.
    """
    base = dict(base or {})
    matrix = {k: list(v) for k, v in (matrix or {}).items()}
    for axis, values in matrix.items():
        if not values:
            raise ValueError(f"matrix axis {axis!r} has no values")
    axes = sorted(matrix)
    specs: List[RunSpec] = []

    def emit(cell: Dict[str, Any]) -> None:
        resolved = resolve_options({**base, **cell})
        specs.append(
            RunSpec(
                index=len(specs),
                run_id=content_hash(resolved),
                options=tuple(sorted(resolved.items())),
            )
        )

    def walk(depth: int, cell: Dict[str, Any]) -> None:
        if depth == len(axes):
            emit(cell)
            return
        axis = axes[depth]
        for value in matrix[axis]:
            cell[axis] = value
            walk(depth + 1, cell)
        del cell[axis]

    walk(0, {})
    seen: Set[str] = set()
    for spec in specs:
        if spec.run_id in seen:
            raise ValueError(
                "matrix expansion produced duplicate runs (two cells "
                "resolve to the same options) — remove the redundant axis"
            )
        seen.add(spec.run_id)
    return specs


# -- worker process ----------------------------------------------------------

def _worker_main(conn, options, crash_marker):
    """Executed in the child: run one scenario, ship the result, exit.

    ``crash_marker`` is the runner's own fault-injection hook (used by the
    campaign's tests and benchmark): when set and the marker file does not
    exist yet, the worker creates it and dies hard — exactly once per run
    — so the parent's retry path is exercised deterministically.
    """
    if crash_marker is not None:
        marker = pathlib.Path(crash_marker)
        if not marker.exists():
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.write_text("armed\n")
            os._exit(CRASH_HOOK_EXIT)
    try:
        from repro.tools.scenario import run_scenario

        result = run_scenario(dict(options))
        conn.send({"ok": True, "result": result})
    except BaseException as error:  # noqa: BLE001 - report, parent decides
        try:
            conn.send({"ok": False, "error": f"{type(error).__name__}: {error}"})
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# -- the campaign runner -----------------------------------------------------

@dataclass
class RunRecord:
    """One line of ``runs.jsonl``."""

    run_id: str
    index: int
    status: str              # ok | failed | skipped
    attempts: int
    wall_s: float
    spec: Dict[str, Any]
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return sanitize({
            "run_id": self.run_id,
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "wall_s": round(self.wall_s, 6),
            "spec": self.spec,
            "error": self.error,
            "result": self.result,
        })


@dataclass
class CampaignResult:
    """What :meth:`CampaignRunner.run` returns."""

    name: str
    records: List[RunRecord]
    skipped: int
    wall_s: float
    registry: MetricsRegistry
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> List[RunRecord]:
        return [r for r in self.records if r.status == "ok"]

    @property
    def failed(self) -> List[RunRecord]:
        return [r for r in self.records if r.status == "failed"]

    @property
    def results(self) -> List[Dict[str, Any]]:
        return [r.result for r in self.records if r.result is not None]


class CampaignRunner:
    """Fan a list of :class:`RunSpec` out over worker processes.

    Parameters mirror the CLI: ``workers`` (process count), ``retries``
    (re-launches after a crash/timeout before recording a failure),
    ``timeout`` (per-attempt wall-clock budget in seconds, ``None`` = no
    limit), ``output`` (campaign directory holding ``runs.jsonl`` +
    ``summary.json``), ``resume`` (skip run ids already completed there),
    ``crash_once`` (test hook: run ids whose *first* attempt is killed).
    """

    def __init__(
        self,
        output: PathLike,
        workers: int = 1,
        retries: int = 1,
        timeout: Optional[float] = None,
        resume: bool = True,
        name: str = "campaign",
        group_by: Optional[str] = "protocol",
        progress: Optional[bool] = None,
        crash_once: Optional[Iterable[str]] = None,
    ) -> None:
        self.output = pathlib.Path(output)
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.resume = resume
        self.name = name
        self.group_by = group_by
        self.progress = progress
        self.crash_once = set(crash_once or ())
        self.registry = MetricsRegistry()
        self._ctx = _default_mp_context()

    # -- persistence ---------------------------------------------------------

    @property
    def runs_path(self) -> pathlib.Path:
        return self.output / "runs.jsonl"

    @property
    def summary_path(self) -> pathlib.Path:
        return self.output / "summary.json"

    def load_completed(self) -> Dict[str, Dict[str, Any]]:
        """run_id -> latest ``ok`` record from a previous invocation."""
        completed: Dict[str, Dict[str, Any]] = {}
        if not self.runs_path.exists():
            return completed
        with self.runs_path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a torn line from a crashed invocation
                if record.get("status") == "ok":
                    completed[record["run_id"]] = record
        return completed

    # -- execution -----------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> CampaignResult:
        started = time.perf_counter()
        self.output.mkdir(parents=True, exist_ok=True)
        completed = self.load_completed() if self.resume else {}

        records: List[RunRecord] = []
        pending: List[RunSpec] = []
        for spec in specs:
            previous = completed.get(spec.run_id)
            if previous is not None:
                records.append(RunRecord(
                    run_id=spec.run_id, index=spec.index, status="skipped",
                    attempts=0, wall_s=0.0, spec=spec.option_dict,
                    result=previous.get("result"),
                ))
            else:
                pending.append(spec)

        counters = {
            name: self.registry.counter(f"campaign.{name}")
            for name in (
                "runs_ok", "runs_failed", "runs_skipped",
                "retries", "worker_crashes", "timeouts",
            )
        }
        counters["runs_skipped"].inc(len(records))
        self.registry.gauge("campaign.workers").set(self.workers)
        self.registry.gauge("campaign.runs_total").set(len(specs))

        show_progress = (
            self.progress if self.progress is not None
            else sys.stderr.isatty()
        )
        total = len(specs)

        def progress_line(active_count: int, queued: int) -> None:
            done = len(records)
            line = (
                f"[campaign {self.name}] {done}/{total} done "
                f"({counters['runs_ok'].value} ok, "
                f"{counters['runs_failed'].value} failed, "
                f"{counters['runs_skipped'].value} skipped) "
                f"{active_count} running, {queued} queued, "
                f"{time.perf_counter() - started:6.1f}s"
            )
            if show_progress:
                print(f"\r{line}\033[K", end="", file=sys.stderr, flush=True)

        jobs: List[Job] = []
        for spec in pending:
            crash_marker = None
            if spec.run_id in self.crash_once:
                crash_marker = str(self.output / ".crash_markers" / spec.run_id)
            jobs.append(Job(
                key=spec.run_id, args=(spec.options, crash_marker), tag=spec,
            ))

        with self.runs_path.open("a") as log:

            def finish(record: RunRecord) -> None:
                records.append(record)
                log.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
                log.flush()
                counters[f"runs_{'ok' if record.status == 'ok' else 'failed'}"].inc()
                if not show_progress:
                    print(
                        f"[campaign {self.name}] run {record.run_id} "
                        f"{record.status} ({len(records)}/{total}, "
                        f"{record.wall_s:.2f}s, attempt {record.attempts})",
                        file=sys.stderr,
                    )

            def on_outcome(outcome: JobOutcome) -> None:
                spec = outcome.job.tag
                finish(RunRecord(
                    run_id=spec.run_id, index=spec.index,
                    status="ok" if outcome.status == "ok" else "failed",
                    attempts=outcome.attempts, wall_s=outcome.wall_s,
                    spec=spec.option_dict, result=outcome.result,
                    error=outcome.error,
                ))

            def on_event(kind: str, job: Job, attempt: int) -> None:
                if kind == "crash":
                    counters["worker_crashes"].inc()
                elif kind == "timeout":
                    counters["timeouts"].inc()
                elif kind == "retry":
                    counters["retries"].inc()

            pool = ProcessPool(
                _worker_main, workers=self.workers, retries=self.retries,
                timeout=self.timeout, on_outcome=on_outcome,
                on_event=on_event, on_tick=progress_line, context=self._ctx,
            )
            pool.run(jobs)
            if show_progress:
                print(file=sys.stderr)

        wall_s = time.perf_counter() - started
        self.registry.gauge("campaign.wall_s").set(wall_s)
        result = CampaignResult(
            name=self.name,
            records=sorted(records, key=lambda r: r.index),
            skipped=counters["runs_skipped"].value,
            wall_s=wall_s,
            registry=self.registry,
        )
        result.summary = self.write_summary(result)
        return result

    # -- reporting -----------------------------------------------------------

    def write_summary(self, result: CampaignResult) -> Dict[str, Any]:
        """Merge per-run results and persist ``summary.json``."""
        summary = {
            "campaign": {
                "name": self.name,
                "runs_total": len(result.records),
                "runs_ok": len(result.ok),
                # Records holding a result — fresh this pass or resumed from
                # a previous one.  The number campaign consumers care about.
                "runs_completed": len(result.results),
                "runs_failed": len(result.failed),
                "runs_skipped": result.skipped,
                "workers": self.workers,
                "wall_s": round(result.wall_s, 3),
                "failed_run_ids": [r.run_id for r in result.failed],
                "metrics": self.registry.snapshot(),
            },
            "summary": summarize_runs(result.results, group_by=self.group_by),
        }
        profiles = summarize_profiles(result.results)
        if profiles is not None:
            summary["profiles"] = profiles
        self.summary_path.write_text(
            json.dumps(sanitize(summary), indent=2, sort_keys=True) + "\n"
        )
        return summary


def emit_bench(result: CampaignResult, path: PathLike) -> pathlib.Path:
    """Write a ``BENCH_<name>.json`` for ``repro.tools.bench_check``.

    Gated metrics are the cross-machine-deterministic sweep aggregates
    (run counts, summed control overhead, mean delivery); wall-clock
    throughput is emitted ``info``-grade.
    """
    path = pathlib.Path(path)
    match = re.fullmatch(r"BENCH_(.+)\.json", path.name)
    if not match:
        raise ValueError(
            f"--emit-bench path must be named BENCH_<name>.json, got {path.name}"
        )
    results = result.results
    frames = sum(r["control_frames"] for r in results)
    bytes_total = sum(r["control_bytes"] for r in results)
    ratios = [r["delivery_ratio"] for r in results if r["delivery_ratio"] is not None]
    metrics = {
        # Completed = executed ok this invocation OR skipped-with-result on
        # resume; either way the campaign holds a full result for the run.
        "campaign.runs_ok": BenchMetric(
            value=len(results), unit="runs", direction="higher"
        ),
        "campaign.runs_failed": BenchMetric(
            value=len(result.failed), unit="runs", direction="lower"
        ),
        "campaign.control_frames_total": BenchMetric(
            value=frames, unit="frames", direction="lower"
        ),
        "campaign.control_bytes_total": BenchMetric(
            value=bytes_total, unit="B", direction="lower"
        ),
        "campaign.delivery_ratio_mean": BenchMetric(
            value=sum(ratios) / len(ratios) if ratios else 0.0,
            unit="", direction="higher",
        ),
        "campaign.wall_s": BenchMetric(
            value=result.wall_s, unit="s", direction="info"
        ),
        "campaign.throughput_runs_per_s": BenchMetric(
            value=len(result.ok) / result.wall_s if result.wall_s else 0.0,
            unit="runs/s", direction="info",
        ),
    }
    return write_bench(
        match.group(1), metrics, path.parent,
        meta={"campaign": result.name, "runs": len(result.records)},
    )


# -- CLI ---------------------------------------------------------------------

def _parse_set(text: str) -> Tuple[str, Any]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"--set needs key=value, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.campaign",
        description="Expand an experiment matrix and run it on worker processes.",
    )
    parser.add_argument(
        "--spec", metavar="PATH", default=None,
        help="campaign spec file (.toml or .json) with [campaign]/[base]/[matrix]",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: spec value, else os.cpu_count())",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="relaunches after a worker crash/timeout before recording a "
             "failure (default: spec value, else 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-attempt wall-clock budget in seconds (default: none)",
    )
    parser.add_argument(
        "--output", metavar="DIR", default=None,
        help="campaign directory for runs.jsonl + summary.json "
             "(default: campaign_out/<name>)",
    )
    parser.add_argument(
        "--name", default=None,
        help="campaign name (default: spec file stem, else 'campaign')",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore previously completed runs instead of resuming",
    )
    parser.add_argument(
        "--group-by", default="protocol", metavar="AXIS",
        help="spec key to group the merged summary by (default: protocol)",
    )
    parser.add_argument(
        "--emit-bench", metavar="BENCH_name.json", default=None,
        help="also write a bench_check-compatible BENCH file here",
    )
    parser.add_argument(
        "--progress", dest="progress", action="store_true", default=None,
        help="force the live progress line even when stderr is not a tty",
    )
    parser.add_argument(
        "--no-progress", dest="progress", action="store_false",
        help="one log line per completed run instead of the live line",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="enable the cost-attribution profiler in every run; per-run "
             "deterministic count roll-ups land in runs.jsonl and are "
             "pooled into summary.json's 'profiles' section",
    )
    parser.add_argument(
        "--set", action="append", default=[], type=_parse_set,
        metavar="KEY=VALUE",
        help="override a [base] scenario option (repeatable); values parse "
             "as JSON, falling back to strings",
    )
    for axis in _MATRIX_AXES_CLI:
        coerce = {"seed": int, "nodes": int, "duration": float}.get(axis, str)
        parser.add_argument(
            f"--{axis}", action="append", default=[], type=coerce,
            metavar="VALUE",
            help=f"add a value to the {axis!r} matrix axis (repeatable; "
                 "overrides the spec's axis)",
        )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = load_spec(args.spec) if args.spec else {"campaign": {}}
        campaign_cfg = spec.get("campaign", {})
        base = dict(spec.get("base", {}))
        matrix = {k: list(v) for k, v in spec.get("matrix", {}).items()}
        for key, value in args.set:
            base[key] = value
        if args.profile:
            base["profile"] = True
        for axis in _MATRIX_AXES_CLI:
            values = getattr(args, axis)
            if values:
                matrix[axis] = values
        if not matrix:
            raise ValueError(
                "empty matrix: give a --spec with a [matrix] table or at "
                "least one --protocol/--seed/--topology/--nodes/--duration"
            )
        specs = expand_matrix(base, matrix)
        name = args.name or campaign_cfg.get("name") or "campaign"
        workers = args.workers or campaign_cfg.get("workers") or os.cpu_count() or 1
        retries = args.retries if args.retries is not None else int(
            campaign_cfg.get("retries", 1)
        )
        timeout = args.timeout if args.timeout is not None else (
            campaign_cfg.get("timeout")
        )
        output = pathlib.Path(
            args.output or campaign_cfg.get("output")
            or pathlib.Path("campaign_out") / name
        )
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    runner = CampaignRunner(
        output=output, workers=int(workers), retries=retries,
        timeout=timeout, resume=not args.fresh, name=name,
        group_by=args.group_by, progress=args.progress,
    )
    result = runner.run(specs)
    print(
        f"campaign {name}: {len(result.records)} runs — "
        f"{len(result.ok)} ok, {len(result.failed)} failed, "
        f"{result.skipped} skipped (resume) — "
        f"{result.wall_s:.1f}s with {runner.workers} worker(s)"
    )
    print(f"runs:    {runner.runs_path}")
    print(f"summary: {runner.summary_path}")
    if args.emit_bench:
        try:
            bench_path = emit_bench(result, args.emit_bench)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        print(f"bench:   {bench_path}")
    if result.failed:
        for record in result.failed:
            print(
                f"failed: {record.run_id} ({record.error})", file=sys.stderr
            )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
