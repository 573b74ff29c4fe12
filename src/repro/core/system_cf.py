"""The System CF (paper section 4.3, Fig 4).

The System CF is the base-layer CFS unit on top of which ManetProtocol
instances stack.  It acts as a surrogate for OS-specific functionality:

* its **C** element (``SysControl``) initialises the host's routing
  environment (IP forwarding, ICMP redirects), exposes the node's
  scheduler/timer service (``IScheduler``) and threadpool (``IThreadPool``),
  and registers poll-style context sources with the concentrator;
* its **S** element (``SysState``) manipulates the kernel routing table and
  lists network devices (``ISysState``);
* its **F** element (``SysForward``) provides send/receive primitives for
  protocol messages (``IForward``), grounded here in the simulated medium
  (standing in for sockets/libpcap/Netfilter);
* plug-ins tailor it per deployment: :class:`NetworkDriver` components map
  message types to event types (the OLSR case study loads a driver for
  HELLO/TC, section 5.1), :class:`PowerStatusComponent` generates
  ``POWER_STATUS`` context events, and :class:`NetlinkComponent`
  encapsulates the packet-filtering kernel module that reactive protocols
  need (section 5.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.context import ContextSensorComponent
from repro.core.unit import CFSUnit
from repro.errors import IntegrityError, ParseError
from repro.events.event import Event
from repro.events.registry import EventTuple, Requirement
from repro.events.types import EventOntology
from repro.opencom.component import Component
from repro.opencom.framework import ComponentFramework, Mutation
from repro.packetbb.message import Message, MsgType
from repro.packetbb.packet import Packet, decode_interned, encode
from repro.sim.kernel_table import DataPacket, NetfilterHooks
from repro.sim.medium import BROADCAST
from repro.sim.node import SimNode
from repro.utils.queues import EventQueue
from repro.utils.timers import TimerService


class SysControl(Component):
    """System C element: routing-environment initialisation + context."""

    def __init__(self, node: SimNode, timers: TimerService) -> None:
        super().__init__("sys-control")
        self.node = node
        self.timers = timers
        self.provide_interface("IControl", "IControl")
        self.provide_interface("IScheduler", "IScheduler", target=timers)
        self.provide_interface("IContext", "IContext")

    def init_routing_environment(self) -> None:
        """OS-independent routing setup (IP forwarding on, redirects off)."""
        self.node.ip_forward = True
        self.node.icmp_redirects = False

    def restore_routing_environment(self) -> None:
        self.node.ip_forward = False
        self.node.icmp_redirects = True

    # Poll-style context reads (hidden behind the concentrator facade).
    def battery_level(self) -> float:
        return self.node.battery_level()

    def cpu_load(self) -> float:
        return self.node.cpu_load()

    def memory_use(self) -> int:
        return self.node.memory_use()


class SysState(Component):
    """System S element: kernel route table manipulation + device listing."""

    def __init__(self, node: SimNode) -> None:
        super().__init__("sys-state")
        self.node = node
        self.provide_interface("ISysState", "ISysState")

    # -- kernel routing table -------------------------------------------------

    def add_route(
        self,
        destination: int,
        next_hop: int,
        metric: int = 1,
        lifetime: Optional[float] = None,
        proto: str = "",
    ) -> None:
        self.node.kernel_table.add_route(
            destination, next_hop, metric, lifetime, proto
        )

    def del_route(self, destination: int) -> bool:
        return self.node.kernel_table.del_route(destination)

    def refresh_route(self, destination: int, lifetime: float) -> bool:
        return self.node.kernel_table.refresh_route(destination, lifetime)

    def flush_routes(self) -> int:
        return self.node.kernel_table.flush()

    def replace_all(self, routes, proto: Optional[str] = None) -> None:
        self.node.kernel_table.replace_all(routes, proto)

    def kernel_version(self) -> int:
        """Monotonic kernel-table mutation counter.

        Lets route installers prove a rewrite redundant: if the version is
        unchanged since their own last write and their route set is too,
        the table still holds exactly what they would install.
        """
        return self.node.kernel_table.version

    def lookup(self, destination: int):
        return self.node.kernel_table.lookup(destination)

    def routes(self):
        return self.node.kernel_table.routes()

    # -- devices -------------------------------------------------------------------

    def devices(self) -> List[Tuple[str, int]]:
        return self.node.devices()

    def local_address(self) -> int:
        return self.node.node_id


class SysForward(Component):
    """System F element: send/receive primitives over the medium."""

    def __init__(self, system: "SystemCF") -> None:
        super().__init__("sys-forward")
        self.system = system
        self.node = system.node
        self.provide_interface("IForward", "IForward")
        self.messages_sent = 0
        self.messages_received = 0
        self.unknown_messages = 0
        self.malformed_packets = 0
        self._packet_seqnum = 0
        obs = getattr(self.node, "obs", None)
        if obs is not None:
            # Imported lazily: repro.protocols' package init registers the
            # protocols with the core registry, so a module-level import
            # here would be circular.
            from repro.protocols.common import MessageMetrics

            self._wire_metrics = MessageMetrics(obs.registry, node=self.node.node_id)
        else:
            self._wire_metrics = None

    def on_start(self) -> None:
        self.node.add_control_receiver(self._on_wire)

    def on_stop(self) -> None:
        self.node.remove_control_receiver(self._on_wire)

    # -- transmit ----------------------------------------------------------

    def send_message(
        self,
        message: Message,
        link_dst: int = BROADCAST,
        extra_messages: Optional[List[Message]] = None,
    ) -> bool:
        """Serialize and transmit one message (plus piggybacked extras)."""
        messages = [message] + list(extra_messages or [])
        self._packet_seqnum = (self._packet_seqnum + 1) & 0xFFFF
        packet = Packet(messages, seqnum=self._packet_seqnum)
        self.messages_sent += len(messages)
        msg_label = None
        obs = getattr(self.node, "obs", None)
        probe = None if obs is None else obs.probe
        if probe is not None and probe.tracing:
            # Human-readable message label for the transmit trace record
            # (trace-only work; the disabled path stops at the probe check).
            try:
                msg_label = MsgType(message.msg_type).name
            except ValueError:
                msg_label = str(message.msg_type)
            if len(messages) > 1:
                msg_label = f"{msg_label}+{len(messages) - 1}"
        return self.node.send_control(encode(packet), link_dst, msg=msg_label)

    # -- receive ---------------------------------------------------------------

    def _on_wire(self, payload: bytes, sender: int) -> None:
        try:
            # A broadcast hands the *same* payload bytes to every receiver;
            # the interned decode parses each distinct frame once instead of
            # once per neighbour (parsed messages are read-only downstream).
            packet = decode_interned(payload)
        except ParseError:
            # A real daemon drops malformed control packets at the wire
            # (corruption happens; the fault injector makes it routine).
            self.malformed_packets += 1
            obs = getattr(self.node, "obs", None)
            if obs is not None:
                obs.registry.counter(
                    "wire.malformed_packets", node=self.node.node_id
                ).inc()
                probe = obs.probe
                if probe is not None:
                    probe.event(
                        "wire.malformed", node=self.node.node_id, sender=sender,
                        size=len(payload),
                    )
            return
        wire_metrics = self._wire_metrics
        for message in packet.messages:
            self.messages_received += 1
            if wire_metrics is not None:
                wire_metrics.note(message.msg_type, len(payload))
            in_event = self.system.in_event_for(message.msg_type)
            if in_event is None:
                self.unknown_messages += 1
                continue
            self.system.emit(in_event, payload=message, source=sender)


class NetworkDriver(Component):
    """Maps message types to the event types they enter/leave the system as.

    "The System CF is instructed to load a 'NetworkDriver' component that
    requires and provides HELLO_OUT/TC_OUT and HELLO_IN/TC_IN respectively"
    (section 5.1) — one driver instance can carry several such entries.
    """

    def __init__(
        self, name: str, entries: List[Tuple[int, str, str]]
    ) -> None:
        """``entries``: (message type, in-event name, out-event name)."""
        super().__init__(name)
        self.entries = list(entries)
        self.provide_interface("IDriver", "IDriver")

    def requires_events(self) -> List[Requirement]:
        return [Requirement(out_event) for _mt, _in, out_event in self.entries]

    def provides_events(self) -> List[str]:
        return [in_event for _mt, in_event, _out in self.entries]


class PowerStatusComponent(ContextSensorComponent):
    """Generates POWER_STATUS context events from the node battery."""

    def __init__(self, unit: "SystemCF", interval: float = 5.0) -> None:
        super().__init__(
            "power-status",
            unit,
            "POWER_STATUS",
            sample=unit.node.battery_level,
            interval=interval,
            payload_key="battery",
        )

    def provides_events(self) -> List[str]:
        return ["POWER_STATUS"]

    def requires_events(self) -> List[Requirement]:
        return []


class NetlinkComponent(Component):
    """The packet-filtering plug-in reactive protocols depend on.

    "In implementation, this component encapsulates the loading of a kernel
    module that employs Linux Netfilter hooks to examine, hold, drop, etc.
    packets.  It provides NO_ROUTE, ROUTE_UPDATE and SEND_ROUTE_ERR events
    [...]  On successful route discovery, the DYMO ManetProtocol instance
    sends a ROUTE_FOUND event to the Netlink component to trigger the
    re-injection of buffered packets into the network" (section 5.2).
    """

    #: Max packets buffered per destination awaiting route discovery.
    BUFFER_LIMIT = 16
    #: Min interval between ROUTE_UPDATE events per destination (rate limit).
    UPDATE_INTERVAL = 0.5

    def __init__(self, unit: "SystemCF") -> None:
        super().__init__("netlink")
        self.unit = unit
        self.node = unit.node
        self._buffers: Dict[int, EventQueue] = {}
        self._last_update: Dict[int, float] = {}
        self.buffered_count = 0
        self.reinjected_count = 0
        self.provide_interface("INetlink", "INetlink")

    def provides_events(self) -> List[str]:
        return ["NO_ROUTE", "ROUTE_UPDATE", "SEND_ROUTE_ERR"]

    def requires_events(self) -> List[Requirement]:
        # Exclusive: buffered packets must be re-injected exactly once.
        return [Requirement("ROUTE_FOUND", exclusive=True)]

    def on_start(self) -> None:
        self.node.install_hooks(
            NetfilterHooks(
                no_route=self._on_no_route,
                route_used=self._on_route_used,
                forward_error=self._on_forward_error,
            )
        )
        self.unit.registry.register_handler(
            "ROUTE_FOUND", self._on_route_found, label="netlink"
        )

    def on_stop(self) -> None:
        self.node.install_hooks(None)
        self.unit.registry.unregister_handler(self._on_route_found)

    # -- hook callbacks (data plane -> events) -------------------------------

    def _on_no_route(self, packet: DataPacket) -> None:
        buffer = self._buffers.setdefault(
            packet.dst, EventQueue(maxlen=self.BUFFER_LIMIT)
        )
        buffer.push(packet)
        self.buffered_count += 1
        self.unit.emit(
            "NO_ROUTE", payload={"destination": packet.dst, "packet": packet}
        )

    def _on_route_used(self, destination: int) -> None:
        now = self.node.scheduler.now
        last = self._last_update.get(destination)
        if last is not None and now - last < self.UPDATE_INTERVAL:
            return
        self._last_update[destination] = now
        self.unit.emit("ROUTE_UPDATE", payload={"destination": destination})

    def _on_forward_error(self, packet: DataPacket) -> None:
        self.unit.emit(
            "SEND_ROUTE_ERR",
            payload={"destination": packet.dst, "packet": packet},
        )

    # -- event handler (events -> data plane) ----------------------------------

    def _on_route_found(self, event: Event) -> None:
        destination = event.payload["destination"]
        buffer = self._buffers.pop(destination, None)
        if buffer is None:
            return
        for packet in buffer.drain():
            self.reinjected_count += 1
            self.node.reinject(packet)

    def pending_for(self, destination: int) -> int:
        buffer = self._buffers.get(destination)
        return len(buffer) if buffer is not None else 0

    def drop_buffered(self, destination: int) -> int:
        """Discard buffered packets after a failed route discovery."""
        buffer = self._buffers.pop(destination, None)
        if buffer is None:
            return 0
        dropped = buffer.clear()
        if self.node.stats is not None:
            for _ in range(dropped):
                self.node.stats.note_data_dropped(self.node.node_id)
        return dropped


def _system_integrity(cf: ComponentFramework, mutation: Mutation) -> None:
    """System CF integrity: core elements are fixed; one Netlink at most."""
    if mutation.kind == "remove" and mutation.component is not None:
        if mutation.component.name in ("sys-control", "sys-state", "sys-forward"):
            raise IntegrityError(
                f"System CF core element {mutation.component.name!r} "
                "cannot be removed"
            )
    if mutation.kind == "insert" and isinstance(mutation.component, NetlinkComponent):
        if cf.has_child("netlink"):
            raise IntegrityError("System CF already hosts a Netlink component")


class SystemCF(CFSUnit):
    """The base-layer CFS unit of a deployment (a singleton per node)."""

    def __init__(
        self,
        node: SimNode,
        timers: TimerService,
        ontology: EventOntology,
    ) -> None:
        super().__init__("system", ontology)
        self.node = node
        self.timers = timers
        self.register_integrity_rule(_system_integrity)

        self.sys_control = SysControl(node, timers)
        self.sys_state = SysState(node)
        self.sys_forward = SysForward(self)
        self.insert(self.sys_control)
        self.insert(self.sys_state)
        self.insert(self.sys_forward)
        self._driver_index: Dict[int, str] = {}

        self.registry.register_handler("MSG_OUT", self._on_msg_out, label="sys-forward")
        self.refresh_tuple()

    def on_start(self) -> None:
        super().on_start()
        self.sys_control.init_routing_environment()

    def on_stop(self) -> None:
        super().on_stop()
        self.sys_control.restore_routing_environment()

    # -- plug-in management ----------------------------------------------------

    def load_network_driver(
        self, name: str, entries: List[Tuple[int, str, str]]
    ) -> NetworkDriver:
        """Load a NetworkDriver (idempotent per driver name)."""
        existing = self.find_child(name)
        if isinstance(existing, NetworkDriver):
            return existing
        driver = NetworkDriver(name, entries)
        self.insert(driver)
        self.refresh_tuple()
        return driver

    def unload_network_driver(self, name: str) -> None:
        self.remove(name)
        self.refresh_tuple()

    def load_power_status(self, interval: float = 5.0) -> PowerStatusComponent:
        existing = self.find_child("power-status")
        if isinstance(existing, PowerStatusComponent):
            return existing
        sensor = PowerStatusComponent(self, interval)
        self.insert(sensor)
        self.refresh_tuple()
        return sensor

    def load_netlink(self) -> NetlinkComponent:
        existing = self.find_child("netlink")
        if isinstance(existing, NetlinkComponent):
            return existing
        netlink = NetlinkComponent(self)
        self.insert(netlink)
        self.refresh_tuple()
        return netlink

    # -- event tuple derivation ---------------------------------------------------

    def refresh_tuple(self) -> None:
        """Recompute the event tuple from the loaded plug-ins."""
        required: List[Requirement] = []
        provided: List[str] = []
        self._driver_index = {}
        for child in self.children():
            if isinstance(child, NetworkDriver):
                for msg_type, in_event, _out_event in child.entries:
                    self._driver_index[msg_type] = in_event
            requires = getattr(child, "requires_events", None)
            provides = getattr(child, "provides_events", None)
            if requires is not None:
                required.extend(requires())
            if provides is not None:
                provided.extend(provides())
        # De-duplicate preserving order.
        seen_req = set()
        unique_required = []
        for req in required:
            if (req.name, req.exclusive) not in seen_req:
                seen_req.add((req.name, req.exclusive))
                unique_required.append(req)
        unique_provided = list(dict.fromkeys(provided))
        self.set_event_tuple(EventTuple(unique_required, unique_provided))

    def in_event_for(self, msg_type: int) -> Optional[str]:
        return self._driver_index.get(msg_type)

    # -- outgoing message handling ----------------------------------------------------

    def _on_msg_out(self, event: Event) -> None:
        message: Message = event.payload
        link_dst = event.meta.get("link_dst", BROADCAST)
        extra = event.meta.get("piggyback")
        self.sys_forward.send_message(message, link_dst, extra)
