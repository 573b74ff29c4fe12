"""Outside-in tracing: timing shims around ``repro``'s public entry points.

Nothing under ``src/`` is edited.  :func:`install` replaces, at class or
module level, the public functions listed in :data:`TARGETS` with
wrappers that record a span — name, start, end, parent — on one shared
stack.  A span's *self* time is its duration minus the part its child
spans cover, so the per-name self times partition the traced wall.

Span names are ``"<layer>:<label>"`` where the layer is the module path
under ``src/repro/`` (``sim.medium``, ``protocols.olsr`` ...).  The root
span is one ``Scheduler.step`` — one executed event — and its ordinal is
the identifier every span of that event shares.  Callbacks handed to the
scheduler, the timer service, ``add_control_receiver`` and
``install_hooks`` are wrapped too and labelled by the module of the class
that owns them, so an event's time lands on the layer that ran, not on
the scheduler that popped it.

Per-name aggregates are kept for every span; full span trees are kept
for one event in every :data:`SAMPLE_EVERY`.  A missing target raises at
install time: a renamed function must not read as "0 ms for that layer".
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

SAMPLE_EVERY = 1000

#: (module, class or None, attribute, layer).  ``MediumModel`` and
#: ``EventSourceComponent`` are abstract: their concrete subclasses are
#: what runs, so those are named instead.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.utils.scheduler", "Scheduler", "next_event_time", "utils.scheduler"),
    ("repro.sim.medium", "WirelessMedium", "broadcast", "sim.medium"),
    ("repro.sim.medium", "WirelessMedium", "unicast", "sim.medium"),
    ("repro.sim.phy", "InterferenceModel", "broadcast", "sim.phy"),
    ("repro.sim.phy", "InterferenceModel", "unicast", "sim.phy"),
    ("repro.sim.node", "SimNode", "receive_frame", "sim.node"),
    ("repro.sim.node", "SimNode", "send_control", "sim.node"),
    ("repro.sim.node", "SimNode", "send_data", "sim.node"),
    ("repro.sim.node", "SimNode", "reinject", "sim.node"),
    ("repro.sim.kernel_table", "KernelRoutingTable", "add_route", "sim.kernel_table"),
    ("repro.sim.kernel_table", "KernelRoutingTable", "del_route", "sim.kernel_table"),
    ("repro.sim.kernel_table", "KernelRoutingTable", "refresh_route", "sim.kernel_table"),
    ("repro.sim.kernel_table", "KernelRoutingTable", "replace_all", "sim.kernel_table"),
    ("repro.sim.kernel_table", "KernelRoutingTable", "flush", "sim.kernel_table"),
    ("repro.sim.kernel_table", "KernelRoutingTable", "routes", "sim.kernel_table"),
    ("repro.packetbb.packet", "Packet", "parse", "packetbb"),
    ("repro.packetbb.packet", "Packet", "serialize", "packetbb"),
    # The names System CF bound at import time, not the packetbb originals.
    ("repro.core.system_cf", None, "decode_interned", "packetbb"),
    ("repro.core.system_cf", None, "encode", "packetbb"),
    ("repro.core.system_cf", "SysForward", "send_message", "core.system_cf"),
    ("repro.core.framework_manager", "FrameworkManager", "route", "core.framework_manager"),
    ("repro.core.framework_manager", "FrameworkManager", "rewire", "core.framework_manager"),
    ("repro.concurrency.models", "SingleThreaded", "dispatch", "concurrency"),
    ("repro.protocols.olsr.routes", "RouteCalculator", "install", "protocols.olsr"),
    # What install() spends its time in; without these it is one 25 % frame.
    ("repro.protocols.olsr.spt", "IncrementalSpt", "apply", "protocols.olsr"),
    ("repro.protocols.olsr.spt", "IncrementalSpt", "rebuild", "protocols.olsr"),
    ("repro.protocols.olsr.state", "OlsrState", "purge_topology", "protocols.olsr"),
    ("repro.protocols.olsr.state", "OlsrState", "topology_deltas_since", "protocols.olsr"),
    ("repro.protocols.olsr.state", "OlsrState", "record_topology", "protocols.olsr"),
    ("repro.protocols.mpr.state", "MprState", "symmetric_neighbours", "protocols.mpr"),
    ("repro.protocols.mpr.calculator", "MprCalculator", "select", "protocols.mpr"),
    ("repro.protocols.mpr.calculator", "MprCalculator", "compute", "protocols.mpr"),
    ("repro.protocols.mpr.forward", "MprForward", "flood", "protocols.mpr"),
    ("repro.sim.mobility", "RandomWaypoint", "step", "sim.mobility"),
    ("repro.core.reconfig", "ReconfigurationManager", "switch_protocol", "core.reconfig"),
    ("repro.core.manetkit", "ManetKit", "deploy", "core.manetkit"),
    ("repro.core.manetkit", "ManetKit", "undeploy", "core.manetkit"),
    ("repro.opencom.quiescence", "QuiescenceManager", "acquire", "core.reconfig"),
)

#: Layer of a callback, by the longest matching prefix of its owner's module.
LAYER_PREFIXES = (
    "utils.scheduler", "utils.timers", "sim.medium", "sim.phy", "sim.node",
    "sim.kernel_table", "sim.mobility", "sim.faults", "sim.network",
    "packetbb", "core.system_cf", "core.framework_manager", "core.reconfig",
    "core.manetkit", "concurrency", "protocols.mpr", "protocols.olsr",
    "protocols.dymo", "protocols.aodv",
)

#: CFS unit name -> layer, for ``CFSUnit.process_event`` spans.
UNIT_LAYERS = {"system": "core.system_cf"}


def layer_of_module(module: str) -> str:
    path = module[len("repro."):] if module.startswith("repro.") else "harness"
    for prefix in LAYER_PREFIXES:
        if path == prefix or path.startswith(prefix + "."):
            return prefix
    return path


class Tracer:
    """Span stack, per-phase aggregates and the sampled span trees."""

    def __init__(self) -> None:
        #: open spans, innermost last: ``[child seconds, sampled span index]``
        self.stack: List[List[Any]] = []
        #: phase -> span name -> ``[calls, self seconds, total seconds]``
        self.phases: Dict[str, Dict[str, List[float]]] = {}
        self.agg: Dict[str, List[float]] = {}
        #: root spans opened so far; the identifier spans of one event share
        self.events = 0
        self.sampling = False
        #: sampled spans: ``[name, start, end, parent index, event]``
        self.spans: List[List[Any]] = []
        #: counts only a wrapper can see (lookup hits, relays, link changes)
        self.counts: Counter = Counter()
        self._labels: Dict[Any, str] = {}
        #: ``run_scheduled(label, callback, *args)``: what the scheduler is
        #: handed in place of ``callback`` — one shared function, because a
        #: wrapper per scheduled event would cost a closure per event.
        self.run_scheduled = self.span(
            None, lambda _label, callback, *args: callback(*args),
            namer=lambda label, *_rest: label,
        )
        self.begin_phase("setup")

    def begin_phase(self, phase: str) -> None:
        self.agg = self.phases.setdefault(phase, {})

    # -- span recording ----------------------------------------------------

    def span(self, name: Optional[str], fn: Callable, namer: Optional[Callable] = None,
             on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        """Wrap ``fn`` so each call is one span.

        ``namer(*args)`` supplies the name when it depends on the call
        (the unit a ``process_event`` runs on, the owner of a callback).
        """
        tracer = self
        stack = self.stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            label = name if namer is None else namer(*args)
            frame = [0.0, -1]
            if tracer.sampling:
                frame[1] = len(tracer.spans)
                parent = stack[-1][1] if stack else -1
                tracer.spans.append([label, 0.0, 0.0, parent, tracer.events])
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                record = tracer.agg.get(label)
                if record is None:
                    record = tracer.agg[label] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed - frame[0]
                record[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] >= 0:
                    sampled = tracer.spans[frame[1]]
                    sampled[1] = started
                    sampled[2] = started + elapsed
            if on_result is not None:
                on_result(result)
            return result

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def label(self, callback: Callable) -> str:
        """``"<layer>:<Owner.method>"`` for a callback, by who owns it."""
        owner = getattr(callback, "__self__", None)
        func = getattr(callback, "__func__", callback)
        key = (type(owner), func)
        cached = self._labels.get(key)
        if cached is None:
            if owner is not None:
                module = type(owner).__module__
                what = f"{type(owner).__name__}.{getattr(func, '__name__', '?')}"
            else:
                module = getattr(func, "__module__", None) or "?"
                what = getattr(func, "__qualname__", type(func).__name__)
            cached = self._labels[key] = f"{layer_of_module(module)}:{what}"
        return cached

    def callback(self, callback: Callable) -> Callable:
        """A span-recording stand-in for ``callback`` (same signature)."""
        return self.span(self.label(callback), callback)

    # -- reporting ---------------------------------------------------------

    def layer_self_ms(self, phase: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, (_calls, self_s, _total) in self.phases.get(phase, {}).items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s * 1e3
        return out

    def record(self, phase: str, name: str) -> Tuple[int, float, float]:
        """``(calls, self ms, inclusive ms)`` of one span name in one phase."""
        calls, self_s, total_s = self.phases.get(phase, {}).get(name, (0, 0.0, 0.0))
        return int(calls), self_s * 1e3, total_s * 1e3

    def to_json(self) -> Dict[str, Any]:
        origin = self.spans[0][1] if self.spans else 0.0
        events: Dict[int, List[Dict[str, Any]]] = {}
        first_index: Dict[int, int] = {}
        for index, (name, start, end, parent, event) in enumerate(self.spans):
            first_index.setdefault(event, index)
            events.setdefault(event, []).append({
                "name": name,
                "start_us": round((start - origin) * 1e6, 3),
                "end_us": round((end - origin) * 1e6, 3),
                # index within this event's span list; -1 marks the root
                "parent": parent - first_index[event] if parent >= 0 else -1,
            })
        return {
            "sample_every": SAMPLE_EVERY,
            "phases": {
                phase: {
                    name: {
                        "calls": int(calls),
                        "self_ms": round(self_s * 1e3, 4),
                        "total_ms": round(total * 1e3, 4),
                    }
                    for name, (calls, self_s, total) in sorted(agg.items())
                }
                for phase, agg in self.phases.items()
            },
            "layers_self_ms": {
                phase: {k: round(v, 4) for k, v in sorted(self.layer_self_ms(phase).items())}
                for phase in self.phases
            },
            "sampled_events": [
                {"event": event, "spans": spans} for event, spans in sorted(events.items())
            ],
        }


def _resolve(module_name: str, class_name: Optional[str]):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def _replace(holder: Any, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    """Swap ``holder.attr`` for ``wrap(original)``; raise if it is gone."""
    where = getattr(holder, "__name__", repr(holder))
    if isinstance(holder, type):
        if attr not in vars(holder):
            raise AttributeError(f"shim target {where}.{attr} no longer exists")
        raw = vars(holder)[attr]
    else:
        if not hasattr(holder, attr):
            raise AttributeError(f"shim target {where}.{attr} no longer exists")
        raw = getattr(holder, attr)
    if isinstance(raw, classmethod):
        setattr(holder, attr, classmethod(wrap(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(holder, attr, staticmethod(wrap(raw.__func__)))
    else:
        setattr(holder, attr, wrap(raw))


def install(tracer: Tracer) -> None:
    """Install every shim.  Call before the simulation is built: nodes
    hand bound methods to the medium at construction time."""
    for module_name, class_name, attr, layer in TARGETS:
        holder = _resolve(module_name, class_name)
        owner = class_name or module_name.rsplit(".", 1)[-1]
        name = f"{layer}:{owner}.{attr}"
        _replace(holder, attr, lambda fn, name=name: tracer.span(name, fn))

    counts = tracer.counts

    # Root span: one executed event.
    from repro.utils.scheduler import Scheduler

    def wrap_step(step: Callable) -> Callable:
        timed = tracer.span("utils.scheduler:Scheduler.step", step)

        def shim(self):
            tracer.events += 1
            tracer.sampling = tracer.events % SAMPLE_EVERY == 0
            ran = timed(self)
            tracer.sampling = False
            return ran

        return shim

    def wrap_call_at(call_at: Callable) -> Callable:
        timed = tracer.span("utils.scheduler:Scheduler.call_at", call_at)

        def shim(self, when, callback, *args):
            return timed(
                self, when, tracer.run_scheduled, tracer.label(callback), callback, *args
            )

        return shim

    _replace(Scheduler, "step", wrap_step)
    _replace(Scheduler, "call_at", wrap_call_at)

    from repro.utils.timers import TimerService

    def wrap_one_shot(one_shot: Callable) -> Callable:
        return lambda self, delay, callback: one_shot(self, delay, tracer.callback(callback))

    def wrap_periodic(periodic: Callable) -> Callable:
        def shim(self, interval, callback, *args, **kwargs):
            return periodic(self, interval, tracer.callback(callback), *args, **kwargs)

        return shim

    _replace(TimerService, "one_shot", wrap_one_shot)
    _replace(TimerService, "periodic", wrap_periodic)

    from repro.sim.kernel_table import KernelRoutingTable, NetfilterHooks
    from repro.sim.node import SimNode

    def note_lookup(route) -> None:
        if route is not None:
            counts["kernel_table.lookup_hits"] += 1

    _replace(KernelRoutingTable, "lookup", lambda fn: tracer.span(
        "sim.kernel_table:KernelRoutingTable.lookup", fn, on_result=note_lookup))

    def wrap_add_receiver(add: Callable) -> Callable:
        def shim(self, receiver, *args, **kwargs):
            wrapped = tracer.callback(receiver)
            # remove_control_receiver() matches on __wrapped__.
            wrapped.__wrapped__ = receiver
            return add(self, wrapped, *args, **kwargs)

        return shim

    def wrap_install_hooks(install_hooks: Callable) -> Callable:
        def shim(self, hooks):
            if hooks is not None:
                hooks = NetfilterHooks(*(
                    None if hook is None else tracer.callback(hook)
                    for hook in (hooks.no_route, hooks.route_used, hooks.forward_error)
                ))
            return install_hooks(self, hooks)

        return shim

    _replace(SimNode, "add_control_receiver", wrap_add_receiver)
    _replace(SimNode, "install_hooks", wrap_install_hooks)

    from repro.core.unit import CFSUnit

    unit_names: Dict[str, str] = {}

    def unit_span_name(unit, _event) -> str:
        name = unit_names.get(unit.name)
        if name is None:
            layer = UNIT_LAYERS.get(unit.name, "protocols." + unit.name)
            name = unit_names[unit.name] = f"{layer}:CFSUnit.process_event"
        return name

    _replace(CFSUnit, "process_event", lambda fn: tracer.span(None, fn, namer=unit_span_name))

    from repro.protocols.mpr.forward import MprForward

    def note_relay(relayed) -> None:
        if relayed:
            counts["mpr.relayed"] += 1

    _replace(MprForward, "consider", lambda fn: tracer.span(
        "protocols.mpr:MprForward.consider", fn, on_result=note_relay))

    from repro.sim.mobility import MobilityModel

    def wrap_refresh(refresh: Callable) -> Callable:
        timed = tracer.span("sim.mobility:MobilityModel.refresh_connectivity", refresh)

        def shim(self):
            before = self.medium.edges()
            timed(self)
            # directed links that appeared or vanished, as undirected links
            counts["mobility.link_changes"] += len(before ^ self.medium.edges()) // 2

        return shim

    _replace(MobilityModel, "refresh_connectivity", wrap_refresh)
