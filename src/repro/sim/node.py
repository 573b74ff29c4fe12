"""Simulated hosts.

A :class:`SimNode` models one MANET device: it owns the node's kernel
routing table and data-plane forwarding engine, its radio attachment to the
medium, and the device context that MANETKit's context sensors read —
battery level (with transmit/receive/idle drain), synthetic CPU load and
memory use (paper section 4.5 lists these context sources).

The node is deliberately framework-agnostic: a MANETKit deployment, a
monolithic daemon, or a bare test harness attaches by registering a control
receiver and manipulating the kernel table.  That neutrality is what makes
the framework-vs-monolith benchmarks an apples-to-apples comparison.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.obs.trace import callback_name
from repro.sim.kernel_table import (
    DataPacket,
    KernelRoutingTable,
    NetfilterHooks,
)
from repro.sim.medium import BROADCAST, Frame, WirelessMedium
from repro.utils.scheduler import Scheduler


class BatteryModel:
    """Simple linear battery: idle drain plus per-frame transmit/receive cost."""

    def __init__(
        self,
        clock: Callable[[], float],
        capacity: float = 1.0,
        idle_rate: float = 0.0,
        tx_cost: float = 0.0,
        rx_cost: float = 0.0,
    ) -> None:
        self._clock = clock
        self.capacity = capacity
        self.idle_rate = idle_rate
        self.tx_cost = tx_cost
        self.rx_cost = rx_cost
        self._consumed = 0.0

    def note_tx(self) -> None:
        self._consumed += self.tx_cost

    def note_rx(self) -> None:
        self._consumed += self.rx_cost

    def level(self) -> float:
        """Remaining charge fraction in [0, 1]."""
        drained = self._consumed + self.idle_rate * self._clock()
        return max(0.0, min(1.0, (self.capacity - drained) / self.capacity))


class SimNode:
    """One simulated MANET device."""

    def __init__(
        self,
        node_id: int,
        medium: WirelessMedium,
        scheduler: Scheduler,
        stats: Optional["NetworkStats"] = None,
        position: Tuple[float, float] = (0.0, 0.0),
        battery: Optional[BatteryModel] = None,
        obs=None,
    ) -> None:
        self.node_id = node_id
        self.medium = medium
        self.scheduler = scheduler
        self.stats = stats
        #: Observability context shared with the simulation (may be None
        #: for bare nodes); deployments pick it up from here.
        self.obs = obs
        self.position = position
        self.battery = battery or BatteryModel(lambda: scheduler.now)
        # Routing environment flags that SysControl initialises
        # ("IP forwarding, ICMP redirects", paper section 4.3).
        self.ip_forward = False
        self.icmp_redirects = True
        self.kernel_table = KernelRoutingTable(
            lambda: scheduler.now, obs=obs, node_id=node_id
        )
        self.hooks: Optional[NetfilterHooks] = None
        #: Control-plane receivers: called with (payload bytes, sender id).
        self._control_receivers: List[Callable[[bytes, int], None]] = []
        #: Link-failure observers: called with the unreachable next hop id.
        self._link_failure_observers: List[Callable[[int], None]] = []
        #: Application delivery callbacks: called with the DataPacket.
        self._app_receivers: List[Callable[[DataPacket], None]] = []
        # Traffic counters feeding the synthetic CPU/memory context.
        self.control_rx = 0
        self.control_tx = 0
        self.data_forwarded = 0
        # Per-node packet-id sequence: ids of originated packets must be
        # reproducible run-to-run (the trace determinism contract), which
        # the module-global DataPacket counter is not.
        self._packet_seq = 0
        medium.register_node(node_id, self.receive_frame)

    # -- attachment ---------------------------------------------------------

    def add_control_receiver(
        self,
        receiver: Callable[[bytes, int], None],
        processing_delay: float = 0.0,
    ) -> None:
        """Attach a control-plane receiver.

        ``processing_delay`` charges a fixed per-message handling cost in
        simulated time before the receiver runs — the knob the benchmarks
        use to account for each implementation's measured per-message
        processing overhead (e.g. DYMOUM v0.3's libipq kernel/user-space
        round trip).
        """
        if processing_delay > 0:
            original = receiver

            def delayed(payload: bytes, sender: int) -> None:
                probe = None if self.obs is None else self.obs.probe
                cause = probe.current_cause if probe is not None else 0
                if cause:
                    # The delay hop would otherwise sever the causal chain:
                    # re-establish the delivering frame's provenance when
                    # the receiver finally runs.
                    self.scheduler.call_later(
                        processing_delay, self._run_with_cause,
                        original, payload, sender, cause,
                    )
                else:
                    self.scheduler.call_later(
                        processing_delay, original, payload, sender
                    )

            delayed.__wrapped__ = original  # type: ignore[attr-defined]
            receiver = delayed
        self._control_receivers.append(receiver)

    def _run_with_cause(
        self,
        receiver: Callable[[bytes, int], None],
        payload: bytes,
        sender: int,
        cause: int,
    ) -> None:
        # The scheduler dispatch frame for this hop names the trampoline;
        # a ``node.rx`` profiler frame re-attributes the deferred work to
        # the receiver that asked for the ``processing_delay``.
        probe = None if self.obs is None else self.obs.probe
        if probe is None:
            receiver(payload, sender)
            return
        with probe.frame("node.rx", callback_name(receiver)), probe.cause(cause):
            receiver(payload, sender)

    def remove_control_receiver(self, receiver: Callable[[bytes, int], None]) -> None:
        for installed in list(self._control_receivers):
            if installed is receiver or getattr(installed, "__wrapped__", None) is receiver:
                self._control_receivers.remove(installed)

    def add_link_failure_observer(self, observer: Callable[[int], None]) -> None:
        self._link_failure_observers.append(observer)

    def add_app_receiver(self, receiver: Callable[[DataPacket], None]) -> None:
        self._app_receivers.append(receiver)

    def install_hooks(self, hooks: Optional[NetfilterHooks]) -> None:
        """Install (or with ``None`` remove) the Netfilter-like hook set."""
        self.hooks = hooks

    # -- device / context surface -----------------------------------------------

    def devices(self) -> List[Tuple[str, int]]:
        """Network device listing: (name, address) pairs."""
        return [("wlan0", self.node_id)]

    def battery_level(self) -> float:
        return self.battery.level()

    def cpu_load(self) -> float:
        """Synthetic load in [0, 1]: recent control traffic pressure."""
        elapsed = max(self.scheduler.now, 1.0)
        return min(1.0, (self.control_rx + self.control_tx) / (200.0 * elapsed))

    def memory_use(self) -> int:
        """Synthetic resident bytes: table sizes dominate on a MANET node."""
        return 4096 + 64 * len(self.kernel_table)

    # -- control plane --------------------------------------------------------------

    def send_control(
        self,
        payload: bytes,
        link_dst: int = BROADCAST,
        msg: Optional[str] = None,
    ) -> bool:
        """Transmit a control payload (PacketBB bytes) on the radio.

        ``msg`` optionally labels the frame's transmit trace record with
        the message type it carries (e.g. ``"HELLO"``).

        Under a non-ideal medium model (:mod:`repro.sim.phy`) the frame
        may be deferred by CSMA carrier sense before it goes on the air;
        a ``True`` return still means only "accepted for transmission" —
        losses (noise, collisions) happen at delivery time.
        """
        self.battery.note_tx()
        self.control_tx += 1
        if self.stats is not None:
            self.stats.note_control_tx(self.node_id, len(payload))
        frame = Frame("control", payload, sender=self.node_id,
                      link_dst=link_dst, size=len(payload))
        if msg is not None:
            frame.meta["msg"] = msg
        if link_dst == BROADCAST:
            self.medium.broadcast(frame)
            return True
        ok = self.medium.unicast(frame)
        if not ok:
            self._notify_link_failure(link_dst)
        return ok

    # -- data plane -----------------------------------------------------------------

    def send_data(self, dst: int, payload: bytes = b"", ttl: int = 32) -> bool:
        """Originate an application datagram toward ``dst``."""
        self._packet_seq += 1
        packet = DataPacket(
            src=self.node_id, dst=dst, payload=payload, ttl=ttl,
            created_at=self.scheduler.now,
            # Unique within a run and deterministic across runs; fits the
            # 4-byte packet_id field of the UDP backend's data header.
            packet_id=(self.node_id << 20) | self._packet_seq,
        )
        if self.stats is not None:
            self.stats.note_data_sent(self.node_id)
        probe = None if self.obs is None else self.obs.probe
        if probe is None or not probe.tracing:
            return self._route_and_send(packet, originated=True)
        # Root of the data packet's causal chain: everything that happens
        # because of this send (route lookup, buffering, the eventual
        # transmission) links back to this provenance id.
        prov = probe.new_provenance()
        probe.event(
            "node.data_send", node=self.node_id, dst=dst,
            packet_id=packet.packet_id, prov=prov,
        )
        with probe.cause(prov):
            return self._route_and_send(packet, originated=True)

    def reinject(self, packet: DataPacket) -> bool:
        """Re-enter a previously buffered packet into the data path.

        Used by the NetLink component when a route discovery succeeds
        (``ROUTE_FOUND``, paper section 5.2).
        """
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            # Runs under the causal context of whatever completed the
            # route discovery (usually an RREP delivery), so the record's
            # automatic ``cause`` attribute links buffered data back to it.
            probe.event(
                "node.reinject", node=self.node_id, dst=packet.dst,
                packet_id=packet.packet_id,
            )
        return self._route_and_send(packet, originated=True)

    def _route_and_send(self, packet: DataPacket, originated: bool) -> bool:
        if packet.dst == self.node_id:
            self._deliver_local(packet)
            return True
        route = self.kernel_table.lookup(packet.dst)
        if route is None:
            return self._handle_no_route(packet, originated)
        if self.hooks is not None and self.hooks.route_used is not None:
            self.hooks.route_used(packet.dst)
        self.battery.note_tx()
        frame = Frame("data", packet, sender=self.node_id,
                      link_dst=route.next_hop, size=packet.size())
        ok = self.medium.unicast(frame)
        if not ok:
            self._notify_link_failure(route.next_hop)
            return self._handle_no_route(packet, originated)
        return True

    def _handle_no_route(self, packet: DataPacket, originated: bool) -> bool:
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            probe.event(
                "node.no_route", node=self.node_id, dst=packet.dst,
                packet_id=packet.packet_id, originated=originated,
                hook="netfilter" if self.hooks is not None else "drop",
            )
        if self.hooks is not None:
            if originated and self.hooks.no_route is not None:
                self.hooks.no_route(packet)
                return True  # buffered pending route discovery
            if not originated and self.hooks.forward_error is not None:
                self.hooks.forward_error(packet)
        if self.stats is not None:
            self.stats.note_data_dropped(self.node_id)
        return False

    def _deliver_local(self, packet: DataPacket) -> None:
        if self.stats is not None:
            self.stats.note_data_delivered(
                packet, self.scheduler.now - packet.created_at
            )
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            probe.event(
                "node.data_delivered", node=self.node_id, src=packet.src,
                packet_id=packet.packet_id,
            )
        for receiver in self._app_receivers:
            receiver(packet)

    # -- frame reception --------------------------------------------------------------

    def receive_frame(self, frame: Frame) -> None:
        self.battery.note_rx()
        if frame.kind == "control":
            self.control_rx += 1
            if self.stats is not None:
                self.stats.note_control_rx(self.node_id, frame.size)
            for receiver in list(self._control_receivers):
                receiver(frame.payload, frame.sender)
            return
        packet: DataPacket = frame.payload
        if packet.dst == self.node_id:
            self._deliver_local(packet)
            return
        if not self.ip_forward or packet.ttl <= 1:
            if self.stats is not None:
                self.stats.note_data_dropped(self.node_id)
            probe = None if self.obs is None else self.obs.probe
            if probe is not None:
                probe.event(
                    "node.data_drop", node=self.node_id, dst=packet.dst,
                    packet_id=packet.packet_id,
                    reason="no_forward" if not self.ip_forward else "ttl_expired",
                )
            return
        packet.ttl -= 1
        self.data_forwarded += 1
        self._route_and_send(packet, originated=False)

    def _notify_link_failure(self, next_hop: int) -> None:
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            probe.event(
                "node.link_failure", node=self.node_id, next_hop=next_hop
            )
        for observer in list(self._link_failure_observers):
            observer(next_hop)

    def shutdown(self) -> None:
        """Detach from the medium (node leaves the network)."""
        self.medium.unregister_node(self.node_id)

    # -- crash / restart (fault injection) ------------------------------------

    def power_off(self) -> None:
        """Abrupt power loss.

        The radio detaches (in-flight frames towards this node are lost),
        the protocol stack's attachments are severed, the kernel routing
        table is flushed and the routing environment reverts to its boot
        state.  Application receivers survive — they model observers
        outside the node, and tests rely on their delivery logs spanning a
        restart.
        """
        self.medium.unregister_node(self.node_id)
        self._control_receivers.clear()
        self._link_failure_observers.clear()
        self.hooks = None
        self.ip_forward = False
        self.icmp_redirects = True
        self.kernel_table.flush()
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            probe.event("node.power_off", node=self.node_id)

    def power_on(self) -> None:
        """Re-attach the radio after :meth:`power_off`.

        Links must be re-established separately (the medium dropped them on
        detach); a fresh deployment re-initialises the routing environment.
        """
        self.medium.register_node(self.node_id, self.receive_frame)
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            probe.event("node.power_on", node=self.node_id)

    def __repr__(self) -> str:
        return f"<SimNode {self.node_id} @{self.position}>"
