"""Reconfiguration enactment (paper section 4.5).

Two complementary methods:

1. **Declarative** — updating the ``<required-events, provided-events>``
   tuples of ManetProtocol instances; the Framework Manager rewires the
   graph automatically (coarse granularity).
2. **Architectural** — manipulating component compositions through the
   architecture reflective meta-model: adding/removing/replacing components
   and bindings (fine granularity), made safe by the per-protocol critical
   section, with OpenCom's quiescence mechanism as the fallback for complex
   transactional changes across multiple ManetProtocol instances.

State management rides on the CFS pattern: replacing a protocol while
maintaining state "is often enough simply to carry over an S component from
the old ManetProtocol instance to the new one" — :meth:`switch_protocol`
implements exactly that.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, TYPE_CHECKING

from repro.core.manet_protocol import ManetProtocol
from repro.core.unit import CFSUnit
from repro.errors import ReconfigurationError
from repro.events.registry import EventTuple
from repro.obs.probe import NULL_SPAN
from repro.opencom.component import Component
from repro.opencom.quiescence import QuiescenceManager, TransactionStep

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manetkit import ManetKit


def _canonical_encode(value: Any) -> str:
    """Canonical text encoding of an S-element state payload.

    Deterministic across runs and interpreter hash seeds: dict items are
    ordered by their encoded key, sets by their encoded elements.  This is
    the sizing encoding for ``reconfig.state_transfer_bytes`` — a stable
    stand-in for the wire format a distributed state handover would use.
    """
    if isinstance(value, dict):
        parts = sorted(
            (_canonical_encode(k), _canonical_encode(v)) for k, v in value.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in parts) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical_encode(v) for v in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical_encode(v) for v in value) + "]"
    return repr(value)


def canonical_state_bytes(payload: Any) -> int:
    """Size in bytes of the canonical encoding of a carried state payload."""
    return len(_canonical_encode(payload).encode("utf-8"))


class ReconfigurationManager:
    """Enactment engine for one deployment."""

    def __init__(self, deployment: "ManetKit") -> None:
        self.deployment = deployment
        self.enactments = 0
        #: Canonical byte size of the state payload carried by the most
        #: recent :meth:`switch_protocol` (0 when nothing was carried).
        self.last_state_transfer_bytes = 0
        #: Running total across every switch this manager enacted.
        self.state_transfer_bytes = 0

    def _node_id(self) -> int:
        node = getattr(self.deployment, "node", None)
        return getattr(node, "node_id", -1)

    def _span(self, name: str, **attrs: Any):
        """A trace span + profiler frame for one enactment (no-op when
        both tracing and profiling are off)."""
        obs = getattr(self.deployment, "obs", None)
        probe = None if obs is None else obs.probe
        if probe is None:
            return NULL_SPAN
        attrs.setdefault("node", self._node_id())
        return probe.span(name, **attrs)

    # -- method 1: declarative tuple rewiring ---------------------------------

    def update_event_tuple(
        self,
        unit_name: str,
        required: Optional[Iterable[Any]] = None,
        provided: Optional[Iterable[str]] = None,
    ) -> EventTuple:
        """Rewrite (parts of) a unit's event tuple; the graph rewires itself."""
        unit = self._unit(unit_name)
        current = unit.event_tuple
        new_tuple = EventTuple(
            required if required is not None else current.required,
            provided if provided is not None else current.provided,
        )
        with self._span("reconfig.update_event_tuple", unit=unit_name):
            unit.set_event_tuple(new_tuple)
        self.enactments += 1
        return new_tuple

    # -- method 2: architectural surgery ------------------------------------------

    def replace_component(
        self,
        protocol_name: str,
        child_name: str,
        replacement: Component,
        transfer_state: bool = True,
    ) -> Component:
        """Hot-swap one plug-in inside a running protocol.

        The deployment is drained first so no event is mid-flight, then the
        protocol's critical section guarantees a stable state for the swap.
        """
        protocol = self._protocol(protocol_name)
        with self._span(
            "reconfig.replace_component", protocol=protocol_name, child=child_name
        ):
            self.deployment.drain()
            old = protocol.replace_component(child_name, replacement, transfer_state)
        self.enactments += 1
        return old

    def insert_component(
        self, protocol_name: str, component: Component, into_control: bool = True
    ) -> Component:
        protocol = self._protocol(protocol_name)
        self.deployment.drain()
        with protocol.lock:
            from repro.core.manet_protocol import (
                EventHandlerComponent,
                EventSourceComponent,
            )
            if isinstance(component, EventHandlerComponent):
                protocol.add_handler(component)
            elif isinstance(component, EventSourceComponent):
                protocol.add_source(component)
            elif into_control:
                protocol.control.insert(component)
            else:
                protocol.insert(component)
        self.enactments += 1
        return component

    def remove_component(self, protocol_name: str, child_name: str) -> Component:
        protocol = self._protocol(protocol_name)
        with self._span(
            "reconfig.remove_component", protocol=protocol_name, child=child_name
        ):
            self.deployment.drain()
            old = protocol.remove_component(child_name)
        self.enactments += 1
        return old

    # -- protocol-level switching ------------------------------------------------------

    def switch_protocol(
        self,
        old_name: str,
        new_protocol: ManetProtocol,
        carry_state: bool = True,
    ) -> ManetProtocol:
        """Replace a running protocol with another, carrying S state over.

        Both protocols' CFs are quiesced for the handover, so no event is
        processed while neither (or both) protocol is live.
        """
        old = self._protocol(old_name)
        self.last_state_transfer_bytes = 0
        with self._span(
            "reconfig.switch_protocol", old=old_name, new=new_protocol.name
        ):
            self.deployment.drain()
            with QuiescenceManager([old, new_protocol]):
                if carry_state and old.state is not None and new_protocol.state is not None:
                    payload = old.state.get_state()
                    self._note_state_transfer(old_name, new_protocol.name, payload)
                    new_protocol.state.set_state(payload)
                self.deployment.undeploy(old_name)
                self.deployment.deploy(new_protocol)
        self.enactments += 1
        return new_protocol

    def _note_state_transfer(
        self, old_name: str, new_name: str, payload: Any
    ) -> None:
        """Account the carried S-element payload (metrics + trace record)."""
        size = canonical_state_bytes(payload)
        self.last_state_transfer_bytes = size
        self.state_transfer_bytes += size
        obs = getattr(self.deployment, "obs", None)
        if obs is None:
            return
        obs.registry.counter(
            "reconfig.state_transfer_bytes", node=self._node_id()
        ).inc(size)
        probe = obs.probe
        if probe is not None:
            probe.event(
                "reconfig.state_transfer", node=self._node_id(),
                old=old_name, new=new_name, bytes=size,
            )

    # -- transactional multi-CF changes --------------------------------------------------

    def run_transaction(
        self,
        units: Sequence[CFSUnit],
        steps: Sequence[TransactionStep],
    ) -> None:
        """Apply a change set atomically across several quiesced units."""
        with self._span("reconfig.transaction", units=len(units)):
            self.deployment.drain()
            with QuiescenceManager(list(units)) as quiescence:
                quiescence.run_transaction(steps)
        self.enactments += 1

    # -- helpers ---------------------------------------------------------------------------

    def _unit(self, name: str) -> CFSUnit:
        unit = self.deployment.manager.unit(name)
        if unit is None:
            raise ReconfigurationError(f"no unit named {name!r} in the deployment")
        return unit

    def _protocol(self, name: str) -> ManetProtocol:
        unit = self._unit(name)
        if not isinstance(unit, ManetProtocol):
            raise ReconfigurationError(f"unit {name!r} is not a ManetProtocol")
        return unit
