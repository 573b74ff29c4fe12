"""The per-node "kernel" routing table and data-plane forwarding engine.

On the paper's testbed, routing protocols manipulate the Linux kernel
routing table (through the System CF's ``ISysState`` interface) and DYMO's
reactive machinery hangs off Netfilter hooks installed by the NetLink
component (paper sections 4.3 and 5.2).  This module reproduces both:

* :class:`KernelRoutingTable` — destination → (next hop, metric, lifetime)
  entries, the structure the data plane consults;
* a forwarding engine driven by :class:`SimNode` with **hook points** that
  mirror Netfilter's:

  - ``no_route(packet)`` fires when an outgoing/forwarded packet has no
    route (DYMO buffers the packet and starts a route discovery —
    ``NO_ROUTE`` event);
  - ``route_used(destination)`` fires whenever a route carries a packet
    (DYMO extends route lifetimes — ``ROUTE_UPDATE`` event);
  - ``forward_error(packet)`` fires when an *intermediate* node cannot
    forward (DYMO originates a Route Error — ``SEND_ROUTE_ERR`` event).

A node with no hooks installed simply drops the packet, like a kernel with
no Netfilter rules.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

_packet_ids = itertools.count(1)

#: Width of the (IPv4-analogue) address space node ids live in.  A route
#: with ``prefix_len == ADDR_BITS`` is a host route — the common case every
#: MANET protocol here installs.
ADDR_BITS = 32


def _network(destination: int, prefix_len: int) -> int:
    """Mask ``destination`` down to its ``prefix_len``-bit network."""
    if prefix_len >= ADDR_BITS:
        return destination
    return destination & (((1 << prefix_len) - 1) << (ADDR_BITS - prefix_len))


@dataclass
class DataPacket:
    """An application-level datagram travelling the data plane."""

    src: int
    dst: int
    payload: bytes = b""
    ttl: int = 32
    created_at: float = 0.0
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    def size(self) -> int:
        return 28 + len(self.payload)  # IP+UDP header analogue + payload


@dataclass
class KernelRoute:
    """One kernel forwarding entry.

    ``proto`` tags the installing protocol (the analogue of the Linux
    routing table's ``rtm_protocol`` field) so that a proactive protocol's
    full-table recomputation replaces only its *own* routes and leaves a
    co-deployed reactive protocol's entries alone.
    """

    destination: int
    next_hop: int
    metric: int = 1
    expiry: Optional[float] = None
    proto: str = ""
    #: prefix length; anything below :data:`ADDR_BITS` is a covering
    #: (aggregate/default) route consulted only when no host route matches.
    prefix_len: int = ADDR_BITS

    def is_expired(self, now: float) -> bool:
        return self.expiry is not None and now >= self.expiry

    def covers(self, destination: int) -> bool:
        return _network(destination, self.prefix_len) == self.destination


class KernelRoutingTable:
    """The forwarding table the data plane consults.

    Protocols write it through the System CF's ``ISysState`` interface.
    The forwarding path is a destination-keyed exact-match lookup (one
    dict hop for the host routes every protocol here installs); covering
    prefix routes live in a separate per-length index consulted only when
    no host route matches, longest prefix first — so aggregate/default
    routes keep their semantics without taxing the hot path.  Expired
    entries are treated as absent (and reaped lazily).
    """

    def __init__(
        self, clock: Callable[[], float], obs=None, node_id: int = -1
    ) -> None:
        #: host routes: destination -> route (the exact-match fast path)
        self._routes: Dict[int, KernelRoute] = {}
        #: covering routes: (network, prefix_len) -> route
        self._prefixes: Dict[tuple, KernelRoute] = {}
        #: distinct prefix lengths present, longest first
        self._plens: List[int] = []
        self._clock = clock
        self.version = 0  # bumped on every mutation; cheap change detection
        #: Observability context; mutations are traced when tracing is on.
        self.obs = obs
        #: Owning node's id, stamped on every traced mutation so offline
        #: analysis can attribute route changes per node (-1 = unattached).
        self.node_id = node_id

    # -- manipulation (ISysState surface) ----------------------------------

    def add_route(
        self,
        destination: int,
        next_hop: int,
        metric: int = 1,
        lifetime: Optional[float] = None,
        proto: str = "",
        prefix_len: int = ADDR_BITS,
    ) -> KernelRoute:
        expiry = self._clock() + lifetime if lifetime is not None else None
        if prefix_len >= ADDR_BITS:
            route = KernelRoute(destination, next_hop, metric, expiry, proto)
            self._routes[destination] = route
        else:
            network = _network(destination, prefix_len)
            route = KernelRoute(
                network, next_hop, metric, expiry, proto, prefix_len
            )
            self._prefixes[(network, prefix_len)] = route
            if prefix_len not in self._plens:
                self._plens.append(prefix_len)
                self._plens.sort(reverse=True)
        self.version += 1
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            if prefix_len >= ADDR_BITS:
                probe.event(
                    "kernel.route_add", node=self.node_id,
                    destination=destination,
                    next_hop=next_hop, metric=metric, proto=proto,
                )
            else:
                probe.event(
                    "kernel.route_add", node=self.node_id,
                    destination=route.destination,
                    next_hop=next_hop, metric=metric, proto=proto,
                    prefix_len=prefix_len,
                )
        return route

    def del_route(self, destination: int, prefix_len: int = ADDR_BITS) -> bool:
        if prefix_len >= ADDR_BITS:
            removed = self._routes.pop(destination, None) is not None
        else:
            key = (_network(destination, prefix_len), prefix_len)
            removed = self._prefixes.pop(key, None) is not None
            if removed and not any(
                plen == prefix_len for _net, plen in self._prefixes
            ):
                self._plens.remove(prefix_len)
        if removed:
            self.version += 1
            probe = None if self.obs is None else self.obs.probe
            if probe is not None:
                probe.event(
                    "kernel.route_del", node=self.node_id,
                    destination=destination,
                )
            return True
        return False

    def refresh_route(self, destination: int, lifetime: float) -> bool:
        """Push the expiry of an existing route ``lifetime`` into the future."""
        route = self._routes.get(destination)
        if route is None:
            return False
        route.expiry = self._clock() + lifetime
        self.version += 1
        return True

    def flush(self) -> int:
        """Remove every route; returns how many were removed."""
        count = len(self._routes) + len(self._prefixes)
        self._routes.clear()
        self._prefixes.clear()
        self._plens.clear()
        if count:
            self.version += 1
        return count

    def replace_all(
        self, routes: List[KernelRoute], proto: Optional[str] = None
    ) -> None:
        """Atomically install a new table (proactive recomputation).

        With ``proto`` given, only routes owned by that protocol are
        replaced; entries installed by other protocols survive unless the
        new table claims the same destination.
        """
        probe = None if self.obs is None else self.obs.probe
        tracing = probe is not None and probe.tracing
        # Delta attribution is trace-only work: snapshot the previous host
        # table so the replace event can report which destinations were
        # added/rerouted and which disappeared (the information offline
        # route explanation needs for proactive protocols).
        before = (
            {d: r.next_hop for d, r in self._routes.items()}
            if tracing else None
        )
        host = [r for r in routes if r.prefix_len >= ADDR_BITS]
        prefix = [r for r in routes if r.prefix_len < ADDR_BITS]
        if proto is None:
            self._routes = {route.destination: route for route in host}
            self._prefixes = {
                (route.destination, route.prefix_len): route for route in prefix
            }
        else:
            kept = {
                destination: route
                for destination, route in self._routes.items()
                if route.proto != proto
            }
            for route in host:
                route.proto = proto
                kept[route.destination] = route
            self._routes = kept
            kept_prefixes = {
                key: route
                for key, route in self._prefixes.items()
                if route.proto != proto
            }
            for route in prefix:
                route.proto = proto
                kept_prefixes[(route.destination, route.prefix_len)] = route
            self._prefixes = kept_prefixes
        self._plens = sorted({plen for _net, plen in self._prefixes}, reverse=True)
        self.version += 1
        if tracing:
            added = sorted(
                (d, r.next_hop)
                for d, r in self._routes.items()
                if before.get(d) != r.next_hop
            )
            removed = sorted(d for d in before if d not in self._routes)
            probe.event(
                "kernel.replace_all", node=self.node_id,
                proto=proto or "*", routes=len(routes),
                added=added, removed=removed,
            )

    # -- lookup ----------------------------------------------------------------

    def lookup(self, destination: int) -> Optional[KernelRoute]:
        route = self._routes.get(destination)
        if route is not None:
            if not route.is_expired(self._clock()):
                return route
            del self._routes[destination]
            self.version += 1
            probe = None if self.obs is None else self.obs.probe
            if probe is not None:
                probe.event(
                    "kernel.route_expired", node=self.node_id,
                    destination=destination,
                )
        if not self._plens:
            return None
        # No host route: fall back to the covering prefixes, longest first.
        for plen in self._plens:
            covering = self._prefixes.get((_network(destination, plen), plen))
            if covering is None:
                continue
            if covering.is_expired(self._clock()):
                del self._prefixes[(covering.destination, plen)]
                self._plens = sorted(
                    {p for _net, p in self._prefixes}, reverse=True
                )
                self.version += 1
                continue
            return covering
        return None

    def routes(self) -> List[KernelRoute]:
        """Snapshot of unexpired routes, ordered by destination."""
        now = self._clock()
        pool = list(self._routes.values()) + list(self._prefixes.values())
        return sorted(
            (route for route in pool if not route.is_expired(now)),
            key=lambda route: (route.destination, -route.prefix_len),
        )

    def routes_via(self, next_hop: int) -> List[KernelRoute]:
        return [r for r in self.routes() if r.next_hop == next_hop]

    def destinations(self) -> List[int]:
        return [r.destination for r in self.routes()]

    def __len__(self) -> int:
        return len(self.routes())

    def __contains__(self, destination: int) -> bool:
        return self.lookup(destination) is not None


class NetfilterHooks:
    """The pluggable hook points on a node's data path.

    At most one hook set is installed per node (mirroring one NetLink
    kernel module); installing replaces the previous set.
    """

    def __init__(
        self,
        no_route: Optional[Callable[[DataPacket], None]] = None,
        route_used: Optional[Callable[[int], None]] = None,
        forward_error: Optional[Callable[[DataPacket], None]] = None,
    ) -> None:
        self.no_route = no_route
        self.route_used = route_used
        self.forward_error = forward_error
