"""The ``BENCH_<name>.json`` emitter and the regression comparator.

Every benchmark run is reduced to a flat map of named metrics::

    {
      "schema": 1,
      "name": "smoke",
      "metrics": {
        "dymo.route_establishment.sim_ms": {
          "value": 27.3, "unit": "ms", "direction": "lower",
          "summary": {"count": 5, "median": 27.3, "p95": 29.0, "p99": 29.4}
        },
        "dymo.control_bytes": {"value": 4120, "unit": "B", "direction": "lower"},
        "table1.mkit_olsr.msg_wall_ms": {"value": 0.11, "unit": "ms",
                                          "direction": "info"}
      }
    }

``direction`` drives the CI gate (``repro.tools.bench_check``):

* ``lower`` / ``higher`` — gated: a >tolerance move in the bad direction
  vs the checked-in baseline fails the build.  Use these for quantities
  that are deterministic across machines (simulated-time delays, frame
  and byte counts, event counts).
* ``info`` — recorded and uploaded but never gated.  Use for raw
  wall-clock timings, which are machine-dependent; gate their *ratios*
  instead if a relative claim matters.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.metrics import Histogram

PathLike = Union[str, pathlib.Path]

SCHEMA_VERSION = 1

DIRECTIONS = ("lower", "higher", "info")


@dataclass
class BenchMetric:
    """One scalar result plus an optional distribution summary."""

    value: float
    unit: str = ""
    direction: str = "lower"
    summary: Optional[Dict[str, float]] = None

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")


def metric_from_samples(
    samples: Sequence[float], unit: str = "", direction: str = "lower"
) -> BenchMetric:
    """Summarise raw samples; the gated ``value`` is the median."""
    hist = Histogram()
    for sample in samples:
        hist.observe(float(sample))
    summary = hist.summary()
    return BenchMetric(
        value=summary["median"], unit=unit, direction=direction, summary=summary
    )


def _metric_to_dict(metric: Union[BenchMetric, float, int]) -> Dict[str, object]:
    if not isinstance(metric, BenchMetric):
        metric = BenchMetric(value=float(metric))
    out: Dict[str, object] = {
        "value": _finite(metric.value),
        "unit": metric.unit,
        "direction": metric.direction,
    }
    if metric.summary is not None:
        out["summary"] = {k: _finite(v) for k, v in sorted(metric.summary.items())}
    return out


def _finite(value: float) -> Optional[float]:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return None
    return value


def write_bench(
    name: str,
    metrics: Dict[str, Union[BenchMetric, float, int]],
    out_dir: PathLike,
    meta: Optional[Dict[str, object]] = None,
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``out_dir``; returns the path."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SCHEMA_VERSION,
        "name": name,
        "meta": meta or {},
        "metrics": {
            key: _metric_to_dict(metric) for key, metric in sorted(metrics.items())
        },
    }
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_bench(path: PathLike) -> Dict[str, object]:
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported bench schema {data.get('schema')!r}")
    if not isinstance(data.get("metrics"), dict):
        raise ValueError(f"{path}: missing metrics map")
    return data


def discover_bench_files(directory: PathLike) -> List[pathlib.Path]:
    return sorted(pathlib.Path(directory).glob("BENCH_*.json"))


# -- comparison (the CI gate) -------------------------------------------------

@dataclass
class Comparison:
    """Outcome of comparing one metric against the baseline."""

    bench: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    direction: str
    change: float = 0.0      # signed fraction; positive = worse
    status: str = "ok"       # ok | regressed | improved | info | missing | new

    def describe(self) -> str:
        def fmt(value: Optional[float]) -> str:
            return "-" if value is None else f"{value:.6g}"

        pct = f"{self.change * 100:+.1f}%" if self.status not in ("missing", "new") else ""
        return (
            f"{self.status:9} {self.bench}:{self.metric} "
            f"base={fmt(self.baseline)} now={fmt(self.current)} {pct}".rstrip()
        )


def compare_metric(
    bench: str,
    name: str,
    baseline: Dict[str, object],
    current: Optional[Dict[str, object]],
    tolerance: float,
) -> Comparison:
    direction = str(baseline.get("direction", "lower"))
    base_value = baseline.get("value")
    if current is None:
        return Comparison(bench, name, base_value, None, direction, status="missing")
    cur_value = current.get("value")
    comparison = Comparison(bench, name, base_value, cur_value, direction)
    if direction == "info" or base_value is None or cur_value is None:
        comparison.status = "info"
        return comparison
    if base_value == 0:
        # Degenerate baseline: any nonzero move in the bad direction regresses.
        worse = cur_value > 0 if direction == "lower" else cur_value < 0
        comparison.change = 0.0 if cur_value == base_value else math.inf
        comparison.status = "regressed" if worse else "ok"
        return comparison
    signed = (cur_value - base_value) / abs(base_value)
    if direction == "higher":
        signed = -signed
    comparison.change = signed
    if signed > tolerance:
        comparison.status = "regressed"
    elif signed < -tolerance:
        comparison.status = "improved"
    return comparison


def compare_dirs(
    baseline_dir: PathLike,
    results_dir: PathLike,
    tolerance: float = 0.25,
) -> List[Comparison]:
    """Compare every baseline BENCH file against the freshly emitted ones.

    Metrics present only in the current results are reported as ``new``
    (never failing); baseline metrics with no current counterpart are
    ``missing`` (failing — the benchmark silently stopped reporting).
    Whole BENCH files present only in the results — a benchmark that has
    not been baselined yet — also surface as ``new``, so a fresh rung
    is visible in the report instead of silently ignored.
    """
    comparisons: List[Comparison] = []
    results_dir = pathlib.Path(results_dir)
    baseline_names = set()
    for base_path in discover_bench_files(baseline_dir):
        baseline_names.add(base_path.name)
        base = load_bench(base_path)
        bench_name = str(base["name"])
        current_path = results_dir / base_path.name
        current_metrics: Dict[str, Dict[str, object]] = {}
        if current_path.exists():
            current_metrics = load_bench(current_path)["metrics"]  # type: ignore[assignment]
        for metric_name, base_metric in sorted(base["metrics"].items()):  # type: ignore[union-attr]
            comparisons.append(
                compare_metric(
                    bench_name,
                    metric_name,
                    base_metric,
                    current_metrics.get(metric_name),
                    tolerance,
                )
            )
        for metric_name, cur_metric in sorted(current_metrics.items()):
            if metric_name not in base["metrics"]:  # type: ignore[operator]
                comparisons.append(
                    Comparison(
                        bench_name,
                        metric_name,
                        None,
                        cur_metric.get("value"),  # type: ignore[union-attr]
                        str(cur_metric.get("direction", "lower")),
                        status="new",
                    )
                )
    for result_path in discover_bench_files(results_dir):
        if result_path.name in baseline_names:
            continue
        current = load_bench(result_path)
        bench_name = str(current["name"])
        for metric_name, cur_metric in sorted(current["metrics"].items()):  # type: ignore[union-attr]
            comparisons.append(
                Comparison(
                    bench_name,
                    metric_name,
                    None,
                    cur_metric.get("value"),
                    str(cur_metric.get("direction", "lower")),
                    status="new",
                )
            )
    return comparisons


def failures(comparisons: Iterable[Comparison]) -> List[Comparison]:
    return [c for c in comparisons if c.status in ("regressed", "missing")]


__all__ = [
    "SCHEMA_VERSION",
    "BenchMetric",
    "metric_from_samples",
    "write_bench",
    "load_bench",
    "discover_bench_files",
    "Comparison",
    "compare_metric",
    "compare_dirs",
    "failures",
]
