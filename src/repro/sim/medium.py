"""The simulated wireless medium.

The medium is a directed connectivity relation between node ids with
per-link properties (latency, loss probability, quality).  It supports the
two primitives a MANET link layer offers:

* **broadcast** — deliver a frame to every current neighbour of the sender
  (each link independently applies its latency and loss);
* **unicast** — deliver to one neighbour, with synchronous success/failure
  so that a link-layer-feedback style of neighbour detection is possible.

Deliveries are scheduled on the simulation's discrete-event scheduler, so
in-flight frames still arrive (or are lost) after topology changes, just as
on a real radio.  All randomness comes from one seeded RNG: identical
seeds give identical runs.

Every transmission takes one path: the prologue in
:meth:`WirelessMedium._transmit`, then the installed
:class:`~repro.sim.phy.MediumModel` strategy decides which receivers the
radio reaches (:class:`~repro.sim.phy.IdealModel`: per-link scalar loss;
:class:`~repro.sim.phy.InterferenceModel`: CSMA contention, SINR-style
interference, 802.11 link profiles), and every survivor goes through
:meth:`WirelessMedium._schedule_delivery` (shard boundary → fault tamper
→ scheduler).  Install a model via :meth:`WirelessMedium.install_model`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import UnknownNode
from repro.sim.phy import IdealModel, MediumModel
from repro.utils.scheduler import Scheduler

#: Destination id used for broadcast frames.
BROADCAST = -1

DEFAULT_LATENCY = 0.002   # 2 ms per hop: typical 802.11 one-hop time
DEFAULT_LOSS = 0.0


@dataclass
class Frame:
    """One link-layer frame in flight.

    ``kind`` is ``"control"`` (payload: PacketBB bytes) or ``"data"``
    (payload: a :class:`~repro.sim.kernel_table.DataPacket`).  ``sender``
    is the transmitting node for *this hop*; ``link_dst`` the intended
    next-hop receiver (or :data:`BROADCAST`).
    """

    kind: str
    payload: Any
    sender: int
    link_dst: int = BROADCAST
    size: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)


@dataclass
class LinkProperties:
    latency: float = DEFAULT_LATENCY
    loss: float = DEFAULT_LOSS
    quality: float = 1.0


class WirelessMedium:
    """Connectivity + delivery engine.

    ``obs`` (a :class:`repro.obs.Observability`) makes every transmit,
    loss and delivery visible to the trace recorder and the profiler
    through its probe; when both are off the cost is one ``probe is
    None`` check per frame.
    """

    def __init__(self, scheduler: Scheduler, seed: int = 0, obs=None) -> None:
        self.scheduler = scheduler
        self.obs = obs
        self.rng = random.Random(seed)
        self._links: Dict[Tuple[int, int], LinkProperties] = {}
        self._receivers: Dict[int, Callable[[Frame], None]] = {}
        #: Optional per-delivery tamper hook (fault injection).  Called as
        #: ``tamper(frame, receiver_id, props)`` after the ordinary loss
        #: roll passes; returning ``None`` keeps the default delivery,
        #: ``[]`` drops the frame, and a list of ``(delay, frame)`` pairs
        #: replaces the delivery schedule (corruption, duplication,
        #: reordering).  Cost when unset: one attribute check per frame.
        self.tamper: Optional[
            Callable[[Frame, int, LinkProperties], Optional[List[Tuple[float, Frame]]]]
        ] = None
        #: Shard-boundary proxy (see :mod:`repro.sim.sharded`): when set,
        #: frames addressed to a receiver in ``boundary.remote`` are
        #: captured — serialized for delivery into the peer shard's next
        #: epoch — instead of being scheduled locally.  ``None`` on the
        #: single-process path, which therefore pays one attribute load
        #: per surviving receiver and nothing else.
        self.boundary = None
        #: The installed :class:`~repro.sim.phy.MediumModel`: decides,
        #: per transmission, which receivers the radio reaches.
        self.model: MediumModel = IdealModel()
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_lost = 0
        self.frames_tampered = 0
        self.batches_scheduled = 0
        # Per-node sorted neighbour lists, rebuilt lazily after any
        # connectivity change — broadcast is the hottest medium path and
        # must not rescan the link table per transmission.
        self._neighbor_cache: Dict[int, List[int]] = {}

    # -- node registration ---------------------------------------------------

    def register_node(self, node_id: int, receiver: Callable[[Frame], None]) -> None:
        self._receivers[node_id] = receiver

    def unregister_node(self, node_id: int) -> None:
        self._receivers.pop(node_id, None)
        for key in [k for k in self._links if node_id in k]:
            del self._links[key]
        self._neighbor_cache.clear()

    def node_ids(self) -> List[int]:
        return sorted(self._receivers)

    # -- PHY strategy --------------------------------------------------------

    def install_model(self, model: MediumModel) -> MediumModel:
        """Install a :class:`~repro.sim.phy.MediumModel` strategy."""
        self.model = model
        return model

    def _check_node(self, node_id: int) -> None:
        if node_id not in self._receivers:
            raise UnknownNode(f"node {node_id} is not registered on the medium")

    # -- topology management -----------------------------------------------------

    def set_link(
        self,
        a: int,
        b: int,
        up: bool = True,
        latency: float = DEFAULT_LATENCY,
        loss: float = DEFAULT_LOSS,
        quality: float = 1.0,
        symmetric: bool = True,
    ) -> None:
        """Install or tear down the link ``a -> b`` (and back if symmetric)."""
        pairs = [(a, b), (b, a)] if symmetric else [(a, b)]
        for pair in pairs:
            if up:
                self._links[pair] = LinkProperties(latency, loss, quality)
            else:
                self._links.pop(pair, None)
        self._neighbor_cache.clear()

    def clear_links(self) -> None:
        self._links.clear()
        self._neighbor_cache.clear()

    def set_connectivity(
        self,
        edges: Iterable[Tuple[int, int]],
        latency: float = DEFAULT_LATENCY,
        loss: float = DEFAULT_LOSS,
    ) -> None:
        """Replace the whole topology (MobiEmu-style re-filtering)."""
        self._links.clear()
        for a, b in edges:
            self._links[(a, b)] = LinkProperties(latency, loss)
            self._links[(b, a)] = LinkProperties(latency, loss)
        self._neighbor_cache.clear()

    def has_link(self, a: int, b: int) -> bool:
        return (a, b) in self._links

    def neighbors(self, node_id: int) -> List[int]:
        """Sorted neighbour ids; the returned list is a shared cache
        entry and must be treated as read-only."""
        cached = self._neighbor_cache.get(node_id)
        if cached is None:
            cached = sorted(b for (a, b) in self._links if a == node_id)
            self._neighbor_cache[node_id] = cached
        return cached

    def link_properties(self, a: int, b: int) -> Optional[LinkProperties]:
        return self._links.get((a, b))

    def link_quality(self, a: int, b: int) -> float:
        """Delivered fraction for the link (0.0 when down)."""
        props = self._links.get((a, b))
        if props is None:
            return 0.0
        return props.quality * (1.0 - props.loss)

    def edges(self) -> Set[Tuple[int, int]]:
        return set(self._links)

    # -- transmission --------------------------------------------------------

    def broadcast(self, frame: Frame) -> int:
        """Transmit to every neighbour; returns how many deliveries were scheduled.

        Under the ideal model one transmission enqueues a *single*
        scheduler entry per distinct link latency (usually exactly one),
        sharing the frame across the whole broadcast domain, instead of
        one entry per receiver.  Loss and tamper decisions are still
        rolled per receiver at transmit time, in sorted-neighbour order,
        so the RNG stream and all traced outcomes are identical to
        per-receiver scheduling.  Batches are anchored at the scheduler
        position of their first member, and any tampered delivery seals
        the open batches, which preserves the exact same-instant
        execution order of the unbatched world.
        """
        probe = None if self.obs is None else self.obs.probe
        if probe is None:
            return self._transmit(frame, False, None)
        # The frame wraps the model dispatch too, so interference/CSMA
        # transmit costs attribute under the same ``medium.broadcast``.
        with probe.frame("medium.broadcast", frame.kind):
            return self._transmit(frame, False, probe)

    def unicast(self, frame: Frame) -> bool:
        """Transmit to ``frame.link_dst``.

        Returns ``False`` immediately when no link exists (the analogue of
        a link-layer transmission failure, which drives link-layer-feedback
        neighbour detection).  A ``True`` return means the frame was put on
        the air; it can still be lost to the link's loss probability (and,
        under a non-ideal PHY model, to contention or interference).
        """
        probe = None if self.obs is None else self.obs.probe
        if probe is None:
            return self._transmit(frame, True, None)
        with probe.frame("medium.unicast", frame.kind):
            return self._transmit(frame, True, probe)

    def _transmit(self, frame: Frame, unicast: bool, probe):
        """The one transmit path: prologue, then the installed model."""
        self._check_node(frame.sender)
        self.frames_sent += 1
        if probe is not None and probe.tracing:
            prov = frame.meta.get("prov")
            if prov is None:
                prov = frame.meta["prov"] = probe.new_provenance()
            attrs: Dict[str, Any] = {"sender": frame.sender}
            if unicast:
                attrs["dst"] = frame.link_dst
            attrs.update(kind=frame.kind, size=frame.size, prov=prov)
            msg = frame.meta.get("msg")
            if msg is not None:
                attrs["msg"] = msg
            probe.event("medium.unicast" if unicast else "medium.broadcast", **attrs)
        if not unicast:
            return self.model.broadcast(self, frame)
        if (frame.sender, frame.link_dst) not in self._links:
            # Synchronous link-layer failure under every model: neighbour
            # detection by link-layer feedback depends on it.
            self.frames_lost += 1
            if probe is not None:
                probe.event(
                    "medium.no_link", sender=frame.sender, dst=frame.link_dst
                )
            return False
        return self.model.unicast(self, frame)

    # -- delivery -------------------------------------------------------------

    def _schedule_delivery(
        self,
        frame: Frame,
        receiver_id: int,
        props: LinkProperties,
        batches: Optional[Dict[float, List[int]]] = None,
    ) -> bool:
        """Post-verdict pipeline: boundary capture → tamper → delivery.

        Every model hands each receiver that survived its loss/PHY
        verdict to this one method, so shard capture and fault injection
        (corruption/duplication/reordering windows) compose identically
        with all of them: neither hook ever sees a frame the radio
        dropped.  Returns whether anything was scheduled or captured.

        ``batches`` (latency → receiver list, owned by one broadcast)
        opts the caller into shared per-latency scheduler entries;
        without it each receiver gets its own entry.
        """
        boundary = self.boundary
        if boundary is not None and receiver_id in boundary.remote:
            # Cross-shard hop: hand the frame to the boundary proxy
            # (it carries latency + prov to the peer shard's epoch).
            boundary.capture(frame, receiver_id, props)
            return True
        tamper = self.tamper
        if tamper is not None:
            deliveries = tamper(frame, receiver_id, props)
            if deliveries is not None:
                self.frames_tampered += 1
                probe = None if self.obs is None else self.obs.probe
                if probe is not None:
                    probe.event(
                        "medium.tamper", sender=frame.sender, dst=receiver_id,
                        kind=frame.kind, copies=len(deliveries),
                        prov=frame.meta.get("prov"),
                    )
                if not deliveries:
                    self.frames_lost += 1
                    return False
                for delay, tampered in deliveries:
                    self.scheduler.call_later(
                        delay, self._deliver, tampered, receiver_id
                    )
                if batches is not None:
                    # The tampered copies hold their own scheduler slots;
                    # seal the open batches so a later receiver cannot be
                    # delivered ahead of them at the same instant.
                    batches.clear()
                return True
        if batches is None:
            self.scheduler.call_later(
                props.latency, self._deliver, frame, receiver_id
            )
            return True
        batch = batches.get(props.latency)
        if batch is None:
            batch = batches[props.latency] = []
            self.batches_scheduled += 1
            self.scheduler.call_later(
                props.latency, self._deliver_batch, frame, batch
            )
        batch.append(receiver_id)
        return True

    def _deliver_batch(self, frame: Frame, receivers: List[int]) -> None:
        """Deliver one shared frame to every receiver of a broadcast batch."""
        for receiver_id in receivers:
            self._deliver(frame, receiver_id)

    def _deliver(self, frame: Frame, receiver_id: int) -> None:
        receiver = self._receivers.get(receiver_id)
        probe = None if self.obs is None else self.obs.probe
        if receiver is None:
            # The node left the network while the frame was in flight.
            self.frames_lost += 1
            if probe is not None:
                with probe.frame("medium.deliver", frame.kind):
                    probe.event(
                        "medium.unregistered", sender=frame.sender,
                        dst=receiver_id, kind=frame.kind, size=frame.size,
                        prov=frame.meta.get("prov"),
                    )
            return
        self.frames_delivered += 1
        if probe is None:
            receiver(frame)
            return
        # Everything the receiver does synchronously — handler dispatch,
        # kernel installs, forwarded messages — nests under this frame in
        # the flamegraph and, through the causal context, links back to
        # the delivered frame's ``prov``.
        with probe.frame("medium.deliver", frame.kind):
            prov = frame.meta.get("prov")
            probe.event(
                "medium.deliver", sender=frame.sender, dst=receiver_id,
                kind=frame.kind, size=frame.size, prov=prov,
            )
            with probe.cause(prov):
                receiver(frame)
