"""The probe seam: the one handle every instrumented site asks.

:attr:`repro.obs.Observability.probe` is ``None`` while tracing and
profiling are both off, so a site's whole disabled path is::

    probe = None if self.obs is None else self.obs.probe
    if probe is None:
        ...  # uninstrumented work; nothing is built, nothing is called

When either is on it is a :class:`Probe` over whichever of the trace
recorder and the profiler is live; each operation is a no-op for the
half that is off, so a site never asks which one it is talking to.
``Observability`` rebuilds the handle on every ``enable_*``/``disable_*``
call — sites must re-read it per operation, never cache it.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.profile import Profiler
from repro.obs.trace import TraceRecorder


class _NullContext:
    """Shared do-nothing context manager (no allocation per use)."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: What a cold path enters when there is no probe at all.
NULL_SPAN = _NullContext()


class _FramedSpan:
    """A profiler frame around a trace span (frame outermost)."""

    __slots__ = ("profiler", "name", "detail", "span")

    def __init__(self, profiler: Profiler, name: str, detail: str, span: Any) -> None:
        self.profiler = profiler
        self.name = name
        self.detail = detail
        self.span = span

    def __enter__(self) -> "_FramedSpan":
        self.profiler.push2(self.name, self.detail)
        self.span.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            self.span.__exit__(*exc_info)
        finally:
            self.profiler.pop()


class _CauseContext:
    """Runs a block under one provenance id's causal context."""

    __slots__ = ("tracer", "prov", "saved")

    def __init__(self, tracer: TraceRecorder, prov: int) -> None:
        self.tracer = tracer
        self.prov = prov
        self.saved = 0

    def __enter__(self) -> "_CauseContext":
        self.saved = self.tracer.cause
        self.tracer.cause = self.prov
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.tracer.cause = self.saved


class Probe:
    """Trace + profile operations behind one handle.

    ``tracing`` tells a site whether trace-only preparation (minting a
    provenance id, labelling a message, snapshotting a table for a delta)
    is worth doing; everything else is safe to call unconditionally.
    """

    __slots__ = ("tracer", "profiler", "tracing")

    def __init__(
        self, tracer: Optional[TraceRecorder], profiler: Optional[Profiler]
    ) -> None:
        self.tracer = tracer
        self.profiler = profiler
        self.tracing = tracer is not None

    def event(self, name: str, /, **attrs: Any) -> None:
        """Record an instantaneous trace event."""
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    def count(self, name: str, detail: str = "") -> None:
        """Attribute one zero-wall profiler event under the current stack."""
        if self.profiler is not None:
            self.profiler.count(name, detail)

    def frame(self, name: str, detail: str = "") -> Any:
        """Context: a ``name:detail`` profiler frame (no trace record)."""
        if self.profiler is None:
            return NULL_SPAN
        return self.profiler.frame(name, detail)

    def span(self, name: str, detail: str = "", /, **attrs: Any) -> Any:
        """Context: a ``name:detail`` profiler frame around a ``name``
        trace span carrying ``attrs``."""
        if self.tracer is None:
            return self.frame(name, detail)
        span = self.tracer.span(name, **attrs)
        if self.profiler is None:
            return span
        return _FramedSpan(self.profiler, name, detail, span)

    def new_provenance(self) -> int:
        """Mint a provenance id; only meaningful while ``tracing``."""
        return self.tracer.new_provenance()

    @property
    def current_cause(self) -> int:
        """Provenance id being processed right now (0 = none)."""
        return self.tracer.cause if self.tracer is not None else 0

    def cause(self, prov: int) -> Any:
        """Context: records inside link back to ``prov``; a falsy
        ``prov`` leaves the ambient causal context untouched."""
        if self.tracer is None or not prov:
            return NULL_SPAN
        return _CauseContext(self.tracer, prov)


__all__ = ["NULL_SPAN", "Probe"]
