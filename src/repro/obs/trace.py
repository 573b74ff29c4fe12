"""Structured trace recorder: spans and events on two clocks.

Every record carries both the **simulated** timestamp (the discrete-event
clock that makes runs reproducible) and a **wall-clock** timestamp (the
CPU cost the paper's Table 1 measures).  Determinism contract: the
:meth:`TraceRecorder.signature` of a run excludes every wall-clock
quantity, so two identically seeded runs yield identical signatures even
though their wall timings differ.

The recorder is deliberately cheap: when ``enabled`` is ``False`` both
:meth:`event` and :meth:`span` return immediately, and instrumented code
in the scheduler/medium/data plane only reaches the recorder through a
live :class:`~repro.obs.probe.Probe`.

Causal provenance
-----------------

Every packet put on the air while tracing is enabled is assigned a
**provenance id** (:meth:`TraceRecorder.new_provenance`), recorded as a
``prov`` attribute on its transmit/deliver records.  While a delivered
frame (or an originated data packet) is being processed, the recorder's
:attr:`TraceRecorder.cause` holds that provenance id, and every record
appended inside the context automatically gains a ``cause`` attribute —
so a forwarded TC, a rebroadcast RREQ, a kernel route install or a
buffered-packet re-injection all carry a link back to the exact
transmission that provoked them.  The full cross-node chain is then
reconstructible offline as a DAG (:mod:`repro.obs.causal`).  Provenance
ids come from a per-recorder counter driven solely by the deterministic
event order, so identically seeded runs mint identical ids; with tracing
disabled no id is ever minted and the hot paths never touch the counter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class TraceEvent:
    """One trace record.

    ``kind`` is ``"event"`` (instantaneous), ``"begin"`` or ``"end"``
    (span edges).  ``span`` identifies the span a ``begin``/``end`` pair
    belongs to; for plain events it is the id of the *enclosing* span (0 =
    top level).  ``dt_sim``/``dt_wall`` are set on ``end`` records only.
    """

    seq: int
    kind: str
    name: str
    t_sim: float
    t_wall: float
    span: int
    parent: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    dt_sim: float = 0.0
    dt_wall: float = 0.0


class _SpanContext:
    """Context manager returned by :meth:`TraceRecorder.span`."""

    __slots__ = ("recorder", "name", "attrs", "span_id", "t_sim", "t_wall")

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: Dict[str, Any]):
        self.recorder = recorder
        self.name = name
        self.attrs = attrs
        self.span_id = 0

    def __enter__(self) -> "_SpanContext":
        rec = self.recorder
        if not rec.enabled:
            return self
        self.span_id = rec._begin(self.name, self.attrs)
        self.t_sim = rec.clock()
        self.t_wall = rec.wall()
        return self

    def __exit__(self, *exc_info: object) -> None:
        rec = self.recorder
        if self.span_id:
            rec._end(
                self.name,
                self.span_id,
                rec.clock() - self.t_sim,
                rec.wall() - self.t_wall,
                self.attrs,
            )


class TraceRecorder:
    """Bounded in-memory recorder for spans and events."""

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: int = 200_000,
        wall: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.clock = clock
        self.wall = wall
        self.capacity = capacity
        self.enabled = True
        self.events: List[TraceEvent] = []
        self.dropped = 0
        self._next_seq = 0
        self._next_span = 0
        self._stack: List[int] = []
        #: Causal context: the provenance id of the transmission currently
        #: being processed (0 = none).  Instrumented delivery paths set and
        #: restore it; every record appended while it is non-zero gains a
        #: ``cause`` attribute.
        self.cause = 0
        self._next_prov = 0
        #: Offset applied to every minted span and provenance id.  A
        #: sharded run gives each shard a disjoint id band (shard 0 keeps
        #: base 0, so the single-process path mints the same ids as
        #: always) and merged traces keep ``prov``/``cause``/``span``
        #: links unambiguous across shards.
        self.id_base = 0

    def set_id_base(self, base: int) -> None:
        """Reserve a disjoint span/provenance id band for this recorder."""
        if self._next_span or self._next_prov:
            raise ValueError("id base must be set before any id is minted")
        self.id_base = int(base)

    # -- recording ----------------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instantaneous event under the current span."""
        if not self.enabled:
            return
        self._append("event", name, 0, attrs)

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a (possibly nested) span; use as a context manager."""
        return _SpanContext(self, name, attrs)

    def new_provenance(self) -> int:
        """Mint the next provenance id (deterministic: pure counter)."""
        self._next_prov += 1
        return self.id_base + self._next_prov

    @property
    def provenance_count(self) -> int:
        """How many provenance ids have been minted so far."""
        return self._next_prov

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0
        self._next_seq = 0
        self._next_span = 0
        self._stack.clear()
        self.cause = 0
        self._next_prov = 0

    # -- span internals -----------------------------------------------------

    def _begin(self, name: str, attrs: Dict[str, Any]) -> int:
        self._next_span += 1
        span_id = self.id_base + self._next_span
        self._append("begin", name, span_id, attrs)
        self._stack.append(span_id)
        return span_id

    def _end(
        self,
        name: str,
        span_id: int,
        dt_sim: float,
        dt_wall: float,
        attrs: Dict[str, Any],
    ) -> None:
        if self._stack and self._stack[-1] == span_id:
            self._stack.pop()
        event = self._append("end", name, span_id, attrs)
        if event is not None:
            event.dt_sim = dt_sim
            event.dt_wall = dt_wall

    def _append(
        self, kind: str, name: str, span_id: int, attrs: Dict[str, Any]
    ) -> Optional[TraceEvent]:
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return None
        if self.cause and "cause" not in attrs:
            attrs["cause"] = self.cause
        parent = self._stack[-1] if self._stack else 0
        event = TraceEvent(
            seq=self._next_seq,
            kind=kind,
            name=name,
            t_sim=self.clock(),
            t_wall=self.wall(),
            span=span_id if span_id else parent,
            parent=parent,
            attrs=attrs,
        )
        self._next_seq += 1
        self.events.append(event)
        return event

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def filter(self, name: Optional[str] = None, kind: Optional[str] = None) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if (name is None or event.name == name)
            and (kind is None or event.kind == kind)
        ]

    def counts_by_name(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.name] = counts.get(event.name, 0) + 1
        return counts

    def span_durations(self, name: str) -> List[float]:
        """Wall-clock durations of every completed span called ``name``."""
        return [e.dt_wall for e in self.events if e.kind == "end" and e.name == name]

    def signature(self) -> Tuple[Tuple[Any, ...], ...]:
        """Deterministic fingerprint of the run (wall-clock excluded).

        Two identically seeded simulations must produce identical
        signatures; attribute dicts are canonicalised by sorted key.
        """
        return tuple(
            (
                event.seq,
                event.kind,
                event.name,
                round(event.t_sim, 9),
                event.span,
                event.parent,
                tuple(sorted((k, repr(v)) for k, v in event.attrs.items())),
                round(event.dt_sim, 9),
            )
            for event in self.events
        )


def callback_name(callback: Callable[..., Any]) -> str:
    """Stable human-readable name for a scheduled callback."""
    wrapped = getattr(callback, "__wrapped__", None)
    if wrapped is not None:
        callback = wrapped
    for attr in ("__qualname__", "__name__"):
        name = getattr(callback, attr, None)
        if name:
            return name
    # Bound methods / partials / callables: fall back to the class name.
    return type(callback).__name__


__all__ = ["TraceEvent", "TraceRecorder", "callback_name"]
