"""Deterministic cost-attribution profiler (``repro.obs.profile``).

The trace recorder (:mod:`repro.obs.trace`) answers *what happened*;
this module answers *where the wall-clock time went*.  A
:class:`Profiler` keeps an explicit frame stack that the instrumented
seams push/pop around the event hot path:

* ``sched.dispatch:<callback>`` — every scheduler dispatch
  (:meth:`repro.utils.scheduler.Scheduler.step`);
* ``unit.process:<unit>/<event-kind>`` — CF unit event processing
  (:meth:`repro.core.unit.CFSUnit.process_event`);
* ``medium.broadcast:<kind>`` / ``medium.unicast:<kind>`` /
  ``medium.deliver:<kind>`` — the wireless medium, ideal and
  PHY-model paths alike;
* ``node.rx:<receiver>`` — deferred ``processing_delay`` hops (the
  ``_run_with_cause`` mechanism), so work attributes to the receiver
  that asked for the delay, not to the scheduler trampoline;
* ``fm.route:<event-kind>`` — Framework Manager dispatch-index hops
  (event counts, attached as a route observer);
* ``route_calc.install`` + ``route_calc.<mode>`` — route recomputation
  and which install mode (full/incremental/fallback/noop) ran;
* ``fault.apply:<kind>`` and ``reconfig.<op>`` — fault injector steps
  and reconfiguration enactments.

Aggregation is *online*: per ``(phase, stack-path)`` the profiler keeps
an event count and the **self** wall time (time in the tip frame minus
time in its children), so memory is bounded by the number of distinct
stacks, not the number of events.  Counts are deterministic per seed
(one increment per frame entry, in event order); wall times are
machine-dependent and are zeroed by ``snapshot(deterministic=True)``.

Disabled cost is the contract of :mod:`repro.obs`: every seam reaches
this module through :attr:`repro.obs.Observability.probe`, so a run
without profiling pays one attribute load and a ``None`` check per seam
and never enters this module (enforced by the zero-allocation guard in
``benchmarks/test_smoke_obs.py``).

Offline consumers (:mod:`repro.tools.profview`) render a snapshot as a
collapsed-stack flamegraph (``flamegraph.pl`` / speedscope compatible),
a top-N hot-spot table, or a Chrome trace-event view; sharded runs
merge per-shard snapshots with :func:`merge_profiles` (re-exported via
:mod:`repro.obs.merge`).
"""

from __future__ import annotations

import json
import pathlib
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

PROFILE_SCHEMA = 1

#: Pseudo-frame name for wall time inside a phase window that no pushed
#: frame accounts for (scheduler bookkeeping, queue scans, the driving
#: loop itself).  Reported explicitly so attribution is honest.
UNATTRIBUTED = "(unattributed)"

#: Phase label used in exports for frames recorded outside any
#: ``begin_phase``/``end_phase`` window.
DEFAULT_PHASE = "(all)"


def frame_name(label: str) -> str:
    """``"unit.process:olsr/TC"`` → ``"unit.process"``."""
    return label.split(":", 1)[0]


def frame_subsystem(label: str) -> str:
    """``"unit.process:olsr/TC"`` → ``"unit"``."""
    return label.split(":", 1)[0].split(".", 1)[0]


class _FrameContext:
    """Context-manager wrapper over push2/pop."""

    __slots__ = ("profiler", "name", "detail")

    def __init__(self, profiler: "Profiler", name: str, detail: str) -> None:
        self.profiler = profiler
        self.name = name
        self.detail = detail

    def __enter__(self) -> "_FrameContext":
        self.profiler.push2(self.name, self.detail)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.profiler.pop()
        return False


class Profiler:
    """Hierarchical cost-attribution profiler with online aggregation.

    Instrumented sites enter frames through the probe seam
    (:meth:`frame`, a context manager over the paired
    :meth:`push2`/:meth:`pop`).  :meth:`count` attributes an event
    count with zero wall time under the current stack (used for
    per-mode attribution where the mode is only known after the work,
    e.g. ``route_calc.incremental``).
    """

    __slots__ = ("wall", "phase", "stats", "phase_wall", "_stack", "_phase_t0", "_labels")

    def __init__(self, wall: Optional[Callable[[], float]] = None) -> None:
        #: Wall-clock source; injectable for deterministic tests.
        self.wall: Callable[[], float] = wall if wall is not None else time.perf_counter
        #: Current phase label ("" until :meth:`begin_phase`).
        self.phase: str = ""
        #: ``(phase, stack-path) -> [count, self_wall_seconds]``.
        self.stats: Dict[Tuple[str, Tuple[str, ...]], List] = {}
        #: ``phase -> accumulated window wall seconds`` (the attribution
        #: denominator).
        self.phase_wall: Dict[str, float] = {}
        # Live frame stack: ``[label, t0, child_wall]`` per entry.
        self._stack: List[List] = []
        self._phase_t0: Optional[float] = None
        # Interned ``(name, detail) -> "name:detail"`` labels so hot
        # paths don't rebuild the composed string per event.
        self._labels: Dict[Tuple[str, str], str] = {}

    # -- phases ------------------------------------------------------------

    def begin_phase(self, name: str) -> None:
        """Open a measurement window; closes any window still open."""
        if self._phase_t0 is not None:
            self.end_phase()
        self.phase = name
        self._phase_t0 = self.wall()

    def end_phase(self) -> None:
        """Close the current window, accumulating its wall time."""
        t0 = self._phase_t0
        if t0 is None:
            return
        self._phase_t0 = None
        self.phase_wall[self.phase] = (
            self.phase_wall.get(self.phase, 0.0) + self.wall() - t0
        )

    # -- frame stack (hot path) -------------------------------------------

    def push(self, label: str) -> None:
        """Enter a frame with a pre-composed label."""
        self._stack.append([label, self.wall(), 0.0])

    def push2(self, name: str, detail: str) -> None:
        """Enter a frame labelled ``name:detail`` (label interned)."""
        key = (name, detail)
        label = self._labels.get(key)
        if label is None:
            label = name + ":" + detail if detail else name
            self._labels[key] = label
        self._stack.append([label, self.wall(), 0.0])

    def pop(self) -> None:
        """Leave the innermost frame, attributing its self time."""
        stack = self._stack
        entry = stack.pop()
        total = self.wall() - entry[1]
        if stack:
            stack[-1][2] += total
        key = (self.phase, tuple([frame[0] for frame in stack] + [entry[0]]))
        stat = self.stats.get(key)
        if stat is None:
            self.stats[key] = [1, total - entry[2]]
        else:
            stat[0] += 1
            stat[1] += total - entry[2]

    def count(self, name: str, detail: str = "", n: int = 1) -> None:
        """Attribute ``n`` events (zero wall) under the current stack."""
        key2 = (name, detail)
        label = self._labels.get(key2)
        if label is None:
            label = name + ":" + detail if detail else name
            self._labels[key2] = label
        key = (self.phase, tuple([frame[0] for frame in self._stack] + [label]))
        stat = self.stats.get(key)
        if stat is None:
            self.stats[key] = [n, 0.0]
        else:
            stat[0] += n

    def frame(self, name: str, detail: str = "") -> _FrameContext:
        """Context manager form of :meth:`push2`/:meth:`pop`."""
        return _FrameContext(self, name, detail)

    def route_observer(self, source_name: str, event: object, targets: Sequence[str]) -> None:
        """Framework-Manager route observer: counts dispatch-index hops.

        Attach with ``kit.manager.add_route_observer(profiler.route_observer)``;
        the observer list is empty when profiling is off, so the disabled
        path stays allocation-free.
        """
        etype = getattr(event, "etype", None)
        self.count("fm.route", getattr(etype, "name", str(etype)), len(targets) or 1)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self, deterministic: bool = False) -> dict:
        """Serializable aggregate profile.

        ``deterministic=True`` zeroes every wall figure, leaving only
        the per-seed-stable event counts — the form embedded in
        scenario results and committed goldens.
        """
        stacks = []
        for (phase, path), stat in sorted(self.stats.items()):
            stacks.append(
                {
                    "phase": phase,
                    "stack": list(path),
                    "count": stat[0],
                    "wall_s": 0.0 if deterministic else stat[1],
                }
            )
        phases = {
            name: {"wall_s": 0.0 if deterministic else wall}
            for name, wall in sorted(self.phase_wall.items())
        }
        return {"schema": PROFILE_SCHEMA, "phases": phases, "stacks": stacks}

    def clear(self) -> None:
        """Drop all aggregates (open frames and phase survive)."""
        self.stats.clear()
        self.phase_wall.clear()


# -- offline views over snapshot dicts ----------------------------------------


def deterministic_profile(profile: dict) -> dict:
    """Copy of a snapshot with every wall figure zeroed.

    The post-hoc analogue of ``Profiler.snapshot(deterministic=True)``
    for snapshots that already left the profiler (e.g. per-shard
    reports), so library-path file outputs stay byte-reproducible.
    """
    return {
        "schema": profile.get("schema", PROFILE_SCHEMA),
        "phases": {
            name: {"wall_s": 0.0} for name in sorted(profile.get("phases", {}))
        },
        "stacks": [
            {
                "phase": entry.get("phase", ""),
                "stack": list(entry["stack"]),
                "count": int(entry["count"]),
                "wall_s": 0.0,
            }
            for entry in profile["stacks"]
        ],
    }


def write_profile(
    profile: dict,
    path: Union[str, pathlib.Path],
    deterministic: bool = False,
) -> pathlib.Path:
    """Write a snapshot as stable-ordered JSON; returns the path.

    ``deterministic=True`` zeroes wall figures first (see
    :func:`deterministic_profile`).
    """
    if deterministic:
        profile = deterministic_profile(profile)
    out = pathlib.Path(path)
    if out.parent != pathlib.Path("."):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(profile, indent=2, sort_keys=True) + "\n")
    return out


def load_profile(path: Union[str, pathlib.Path]) -> dict:
    """Read and validate a snapshot written by :func:`write_profile`."""
    try:
        data = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    return validate_profile(data)


def validate_profile(profile: dict) -> dict:
    """Raise ``ValueError`` unless ``profile`` is a schema-1 snapshot."""
    if not isinstance(profile, dict) or profile.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            f"not a profile snapshot (schema {profile.get('schema') if isinstance(profile, dict) else profile!r})"
        )
    if not isinstance(profile.get("stacks"), list):
        raise ValueError("profile snapshot missing 'stacks' list")
    return profile


def merge_profiles(profiles: Sequence[dict]) -> dict:
    """Merge per-shard (or per-run) snapshots into one.

    Counts and self-wall sum per ``(phase, stack)``; phase windows sum
    per phase.  The result is a normal snapshot, so every exporter and
    ``profview`` work unchanged on merged profiles.
    """
    phase_wall: Dict[str, float] = {}
    stats: Dict[Tuple[str, Tuple[str, ...]], List] = {}
    for profile in profiles:
        validate_profile(profile)
        for name, info in profile.get("phases", {}).items():
            phase_wall[name] = phase_wall.get(name, 0.0) + float(info.get("wall_s", 0.0))
        for entry in profile["stacks"]:
            key = (entry.get("phase", ""), tuple(entry["stack"]))
            stat = stats.get(key)
            if stat is None:
                stats[key] = [int(entry["count"]), float(entry.get("wall_s", 0.0))]
            else:
                stat[0] += int(entry["count"])
                stat[1] += float(entry.get("wall_s", 0.0))
    stacks = [
        {"phase": phase, "stack": list(path), "count": stat[0], "wall_s": stat[1]}
        for (phase, path), stat in sorted(stats.items())
    ]
    phases = {
        name: {"wall_s": wall} for name, wall in sorted(phase_wall.items())
    }
    return {"schema": PROFILE_SCHEMA, "phases": phases, "stacks": stacks}


def attribution(profile: dict) -> dict:
    """How much of the measured wall time the frames account for.

    ``total_wall_s`` is the sum of phase windows (falls back to the
    attributed sum when no windows were recorded, e.g. direct
    :class:`~repro.sim.network.Simulation` use without phases); the
    ``(unattributed)`` remainder is reported explicitly, never hidden.
    """
    attributed = sum(entry["wall_s"] for entry in profile["stacks"])
    windows = sum(info.get("wall_s", 0.0) for info in profile.get("phases", {}).values())
    total = windows if windows > 0.0 else attributed
    unattributed = max(0.0, total - attributed)
    return {
        "total_wall_s": total,
        "attributed_wall_s": attributed,
        "unattributed_wall_s": unattributed,
        "attributed_fraction": (attributed / total) if total > 0.0 else 1.0,
    }


def summary_counts(profile: dict) -> dict:
    """Deterministic roll-up embedded in scenario results.

    Only event counts (never wall figures), so same-spec runs produce
    identical results and campaign content-hash resume stays sound.
    """
    by_subsystem: Dict[str, int] = {}
    events = 0
    for entry in profile["stacks"]:
        count = int(entry["count"])
        sub = frame_subsystem(entry["stack"][-1])
        by_subsystem[sub] = by_subsystem.get(sub, 0) + count
        events += count
    return {
        "stacks": len(profile["stacks"]),
        "events": events,
        "by_subsystem": {k: by_subsystem[k] for k in sorted(by_subsystem)},
    }


def _weight_of(entry: dict, weight: str) -> float:
    if weight == "count":
        return float(entry["count"])
    return float(entry.get("wall_s", 0.0))


def pick_weight(profile: dict, weight: str = "auto") -> str:
    """Resolve ``auto`` to ``wall``, or ``count`` when walls are zeroed."""
    if weight != "auto":
        return weight
    attributed = sum(entry.get("wall_s", 0.0) for entry in profile["stacks"])
    return "wall" if attributed > 0.0 else "count"


def collapsed_stacks(profile: dict, weight: str = "wall") -> List[str]:
    """``flamegraph.pl`` / speedscope collapsed-stack lines.

    One line per distinct stack: ``phase;frame;frame VALUE`` with the
    value in integer microseconds (``weight="wall"``) or raw event
    counts (``weight="count"``).  With wall weighting, per-phase
    ``(unattributed)`` remainder lines keep the flamegraph honest about
    time outside any frame.
    """
    lines: List[str] = []
    attributed_per_phase: Dict[str, float] = {}
    for entry in profile["stacks"]:
        phase = entry.get("phase", "") or DEFAULT_PHASE
        value = _weight_of(entry, weight)
        attributed_per_phase[phase] = (
            attributed_per_phase.get(phase, 0.0) + entry.get("wall_s", 0.0)
        )
        if weight == "wall":
            rendered = int(round(value * 1e6))
        else:
            rendered = int(value)
        if rendered <= 0:
            continue
        lines.append(";".join([phase] + list(entry["stack"])) + f" {rendered}")
    if weight == "wall":
        for phase, info in sorted(profile.get("phases", {}).items()):
            remainder = info.get("wall_s", 0.0) - attributed_per_phase.get(
                phase or DEFAULT_PHASE, 0.0
            )
            remainder_us = int(round(remainder * 1e6))
            if remainder_us > 0:
                lines.append(f"{phase or DEFAULT_PHASE};{UNATTRIBUTED} {remainder_us}")
    return sorted(lines)


def top_frames(profile: dict, n: int = 15, weight: str = "wall") -> List[dict]:
    """Hot-spot table rows: per frame label, self/total weight + count.

    ``total`` counts each stack containing the frame once (recursion
    would double-count; the instrumented seams never recurse through
    the same label).  Rows sort by self weight descending.
    """
    self_w: Dict[str, float] = {}
    total_w: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    grand = 0.0
    for entry in profile["stacks"]:
        value = _weight_of(entry, weight)
        grand += value
        leaf = entry["stack"][-1]
        self_w[leaf] = self_w.get(leaf, 0.0) + value
        counts[leaf] = counts.get(leaf, 0) + int(entry["count"])
        for label in set(entry["stack"]):
            total_w[label] = total_w.get(label, 0.0) + value
    rows = []
    for label in total_w:
        self_value = self_w.get(label, 0.0)
        rows.append(
            {
                "frame": label,
                "self": self_value,
                "total": total_w[label],
                "count": counts.get(label, 0),
                "self_pct": (100.0 * self_value / grand) if grand > 0.0 else 0.0,
            }
        )
    rows.sort(key=lambda row: (-row["self"], -row["total"], row["frame"]))
    return rows[:n]


def render_top(profile: dict, n: int = 15, weight: str = "auto") -> str:
    """Human-readable top-N table plus the attribution line."""
    resolved = pick_weight(profile, weight)
    rows = top_frames(profile, n=n, weight=resolved)
    if resolved == "wall":
        header = f"{'self ms':>10}  {'total ms':>10}  {'self %':>6}  {'events':>10}  frame"
    else:
        header = f"{'self ev':>10}  {'total ev':>10}  {'self %':>6}  {'events':>10}  frame"
    lines = [header, "-" * len(header)]
    for row in rows:
        if resolved == "wall":
            self_col = f"{row['self'] * 1e3:10.3f}"
            total_col = f"{row['total'] * 1e3:10.3f}"
        else:
            self_col = f"{int(row['self']):10d}"
            total_col = f"{int(row['total']):10d}"
        lines.append(
            f"{self_col}  {total_col}  {row['self_pct']:6.2f}  {row['count']:10d}  {row['frame']}"
        )
    attrib = attribution(profile)
    lines.append(
        "attributed {:.1f}% of {:.3f}s measured wall ({}: {:.3f}s)".format(
            100.0 * attrib["attributed_fraction"],
            attrib["total_wall_s"],
            UNATTRIBUTED,
            attrib["unattributed_wall_s"],
        )
    )
    return "\n".join(lines)


def chrome_trace(profile: dict, weight: str = "wall") -> List[dict]:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

    This is an *aggregate* view, not a timeline: each phase becomes one
    synthetic thread whose frames are laid out left-heavy by total
    weight, so relative widths — not positions — carry the meaning.
    Durations are integer microseconds (wall) or event counts.
    """

    def to_us(value: float) -> int:
        return int(round(value * 1e6)) if weight == "wall" else int(value)

    # Rebuild the call tree per phase from the flat stacks.
    trees: Dict[str, dict] = {}
    for entry in profile["stacks"]:
        phase = entry.get("phase", "") or DEFAULT_PHASE
        node = trees.setdefault(phase, {"children": {}, "self": 0.0, "count": 0})
        for label in entry["stack"]:
            node = node["children"].setdefault(
                label, {"children": {}, "self": 0.0, "count": 0}
            )
        node["self"] += _weight_of(entry, weight)
        node["count"] += int(entry["count"])

    def total_of(node: dict) -> float:
        return node["self"] + sum(total_of(child) for child in node["children"].values())

    events: List[dict] = []
    for tid, (phase, root) in enumerate(sorted(trees.items())):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": f"phase:{phase}"},
            }
        )

        def emit(node: dict, label: str, start: float, depth: int, tid: int = tid) -> None:
            dur = total_of(node)
            events.append(
                {
                    "ph": "X",
                    "name": label,
                    "cat": "profile",
                    "pid": 0,
                    "tid": tid,
                    "ts": to_us(start),
                    "dur": max(1, to_us(dur)),
                    "args": {"count": node["count"], "self": node["self"]},
                }
            )
            cursor = start
            children = sorted(
                node["children"].items(), key=lambda item: (-total_of(item[1]), item[0])
            )
            for child_label, child in children:
                emit(child, child_label, cursor, depth + 1, tid)
                cursor += total_of(child)

        window = profile.get("phases", {}).get(phase, {}).get("wall_s", 0.0)
        span = max(total_of(root), window if weight == "wall" else 0.0)
        events.append(
            {
                "ph": "X",
                "name": f"phase:{phase}",
                "cat": "profile",
                "pid": 0,
                "tid": tid,
                "ts": 0,
                "dur": max(1, to_us(span)),
                "args": {},
            }
        )
        cursor = 0.0
        for child_label, child in sorted(
            root["children"].items(), key=lambda item: (-total_of(item[1]), item[0])
        ):
            emit(child, child_label, cursor, 1)
            cursor += total_of(child)
    return events


__all__ = [
    "PROFILE_SCHEMA",
    "UNATTRIBUTED",
    "DEFAULT_PHASE",
    "Profiler",
    "frame_name",
    "frame_subsystem",
    "deterministic_profile",
    "write_profile",
    "load_profile",
    "validate_profile",
    "merge_profiles",
    "attribution",
    "summary_counts",
    "pick_weight",
    "collapsed_stacks",
    "top_frames",
    "render_top",
    "chrome_trace",
]
