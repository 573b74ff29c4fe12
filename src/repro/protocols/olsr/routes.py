"""OLSR route calculation.

Builds the routing graph from three information sources — the symmetric
1-hop neighbourhood and the 2-hop map (both read from the MPR CF's S
element via a direct call, a deliberate cross-layer interaction the event
architecture permits) and the learned topology set — and keeps a
shortest-path tree over it.  The resulting routes are written to the
kernel table through the System CF's ``ISysState`` interface.

Two regimes:

* **Incremental** (the default): the graph and its shortest-path tree are
  maintained across installs by :class:`~repro.protocols.olsr.spt.IncrementalSpt`.
  Each install classifies what changed since the last one — symmetric-link
  add/drop (momentary set diff, which also captures hysteresis flips and
  time-based expiry), 2-hop listing edits (diffed per neighbour, scoped to
  the affected entries), topology tuple add/drop (replayed from the
  journal in :class:`~repro.protocols.olsr.state.OlsrState`) — and applies
  the resulting edge delta as one localized repair.  Weight-neutral
  refreshes (HELLOs/TCs that only extend expiries) bump no version and
  cost nothing beyond the fingerprint check.  Structural invalidation
  (journal gap or state transfer) falls back to a full rebuild.
* **Legacy full** (power-aware subclass): recompute from scratch each
  install, since its inputs (residual power) sit outside every version
  fingerprint.

The kernel table is rewritten only when the route set changed or another
writer touched the table since our last install — a no-op install is a
version check, not an O(routes) replace.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.opencom.component import Component
from repro.protocols.olsr.spt import Edge, IncrementalSpt, SptInconsistency
from repro.sim.kernel_table import KernelRoute

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.olsr.protocol import OlsrCF


class RouteCalculator(Component):
    """Shortest-path (min hop count) route computation."""

    #: Subclasses whose ``compute`` reads inputs outside the delta sources
    #: (e.g. residual power) set this False to run the legacy full path.
    incremental = True
    #: Test hook: force a full rebuild on every install while keeping the
    #: rest of the pipeline (change detection, kernel skip) identical —
    #: the behaviour-equivalence suite diffs traces across this switch.
    force_full = False

    def __init__(self, cf: "OlsrCF") -> None:
        super().__init__("route-calculator")
        self.cf = cf
        #: full recomputations actually performed (BFS runs / rebuilds).
        self.computations = 0
        self.last_route_count = 0
        #: no-op installs: every input fingerprint unchanged.
        self.cache_hits = 0
        #: localized repairs applied instead of full recomputation.
        self.incremental_updates = 0
        #: structural invalidations that forced a rebuild.
        self.fallbacks = 0
        #: kernel-table writes skipped because nothing changed.
        self.kernel_skips = 0
        self._cache_key: Optional[tuple] = None
        self._cached_routes: Optional[Dict[int, Tuple[int, int]]] = None
        self._engine: Optional[IncrementalSpt] = None
        self._last_sym: Tuple[int, ...] = ()
        self._last_blocks: Dict[int, frozenset] = {}
        self._last_nhood_version = -1
        self._last_topo_version = -1
        self._last_kernel_version: Optional[int] = None
        self._counters: Optional[tuple] = None
        self.provide_interface("IRouteCalc", "IRouteCalc")

    def _cache_token(self) -> Optional[tuple]:
        """Fingerprint of every input ``compute`` reads, or ``None``.

        The momentary symmetric-neighbour set captures link/hysteresis
        timing; the two version counters capture 2-hop content and the
        learned topology edge set.  Subclasses whose ``compute`` reads
        inputs outside this fingerprint (residual power) return ``None``
        to disable caching.
        """
        cf = self.cf
        try:
            mpr_state = cf.mpr().mpr_state
        except LookupError:
            return None
        return (
            tuple(cf.symmetric_neighbours()),
            mpr_state.nhood_version,
            cf.olsr_state.topology_version,
        )

    def build_graph(self) -> Dict[int, Set[int]]:
        """Adjacency sets from neighbourhood + 2-hop + topology info."""
        cf = self.cf
        local = cf.local_address
        graph: Dict[int, Set[int]] = {local: set()}
        sym = cf.symmetric_neighbours()
        for neighbour in sym:
            graph[local].add(neighbour)
            graph.setdefault(neighbour, set()).add(local)
        for neighbour, two_hops in cf.two_hop_map().items():
            if neighbour not in graph.get(local, set()):
                continue
            for two_hop in two_hops:
                graph.setdefault(neighbour, set()).add(two_hop)
                graph.setdefault(two_hop, set())
        for last_hop, destination in cf.olsr_state.topology_edges():
            graph.setdefault(last_hop, set()).add(destination)
            graph.setdefault(destination, set())
        return graph

    def compute(self) -> Dict[int, Tuple[int, int]]:
        """BFS from the local node: dest -> (next hop, hop count)."""
        self.computations += 1
        cf = self.cf
        local = cf.local_address
        graph = self.build_graph()
        routes: Dict[int, Tuple[int, int]] = {}
        # (node, first_hop, distance); neighbours sorted for determinism.
        frontier = deque(
            (neighbour, neighbour, 1) for neighbour in sorted(graph[local])
        )
        visited: Set[int] = {local}
        while frontier:
            node, first_hop, distance = frontier.popleft()
            if node in visited:
                continue
            visited.add(node)
            routes[node] = (first_hop, distance)
            for successor in sorted(graph.get(node, ())):
                if successor not in visited:
                    frontier.append((successor, first_hop, distance + 1))
        return routes

    # -- incremental machinery ---------------------------------------------

    def _rebuild_engine(self, sym: Tuple[int, ...], mpr_state) -> bool:
        """Reseed the SPT engine from the full current graph."""
        cf = self.cf
        local = cf.local_address
        edges: List[Edge] = []
        blocks: Dict[int, frozenset] = {}
        for neighbour in sym:
            edges.append((local, neighbour))
            edges.append((neighbour, local))
            block = frozenset(mpr_state.two_hop.get(neighbour, ()))
            blocks[neighbour] = block
            for two_hop in block:
                edges.append((neighbour, two_hop))
        edges.extend(cf.olsr_state.topology_edges())
        if self._engine is None:
            self._engine = IncrementalSpt(local)
        self._last_blocks = blocks
        self.computations += 1
        return self._engine.rebuild(edges)

    def _neighbourhood_deltas(
        self, sym: Tuple[int, ...], nhood_changed: bool, mpr_state
    ) -> Tuple[List[Edge], List[Edge]]:
        """Edge deltas from the MPR side since the last install.

        The symmetric set is diffed against the previous momentary set
        (capturing time-based expiry and hysteresis flips, which bump no
        version); 2-hop listings are diffed per *continuing* neighbour only
        when the neighbourhood version moved — work scoped to the 1/2-hop
        neighbourhood, never the whole network.
        """
        local = self.cf.local_address
        added: List[Edge] = []
        removed: List[Edge] = []
        blocks = self._last_blocks
        new_sym = set(sym)
        prev_sym = set(self._last_sym)
        for neighbour in prev_sym - new_sym:
            removed.append((local, neighbour))
            removed.append((neighbour, local))
            for two_hop in blocks.pop(neighbour, ()):
                removed.append((neighbour, two_hop))
        for neighbour in new_sym - prev_sym:
            added.append((local, neighbour))
            added.append((neighbour, local))
            block = frozenset(mpr_state.two_hop.get(neighbour, ()))
            blocks[neighbour] = block
            for two_hop in block:
                added.append((neighbour, two_hop))
        if nhood_changed:
            for neighbour in new_sym & prev_sym:
                new_block = frozenset(mpr_state.two_hop.get(neighbour, ()))
                old_block = blocks[neighbour]
                if new_block != old_block:
                    for two_hop in new_block - old_block:
                        added.append((neighbour, two_hop))
                    for two_hop in old_block - new_block:
                        removed.append((neighbour, two_hop))
                    blocks[neighbour] = new_block
        return added, removed

    def _observability(self):
        """(incremental, full, fallback, noop) counters, or None."""
        if self._counters is None:
            node = self.cf.deployment.node
            obs = getattr(node, "obs", None)
            if obs is None:
                self._counters = ()
            else:
                registry = obs.registry
                node_id = node.node_id
                self._counters = tuple(
                    registry.counter(f"route_calc.{kind}", node=node_id)
                    for kind in ("incremental", "full", "fallback", "noop")
                )
        return self._counters or None

    _MODE_INDEX = {"incremental": 0, "full": 1, "fallback": 2, "noop": 3}

    def install(self) -> int:
        """Refresh routes and write the kernel table; returns the count."""
        cf = self.cf
        now = cf.deployment.now
        cf.olsr_state.purge_topology(now)
        if not self.incremental:
            return self._install_legacy()

        olsr_state = cf.olsr_state
        mpr_state = cf.mpr().mpr_state
        sym = tuple(cf.symmetric_neighbours())
        nhood_version = mpr_state.nhood_version
        topo_version = olsr_state.topology_version

        changed = False
        if self._engine is None or self.force_full:
            changed = self._rebuild_engine(sym, mpr_state)
            mode = "full"
        elif (
            sym == self._last_sym
            and nhood_version == self._last_nhood_version
            and topo_version == self._last_topo_version
        ):
            self.cache_hits += 1
            mode = "noop"
        else:
            topo_deltas = []
            if topo_version != self._last_topo_version:
                topo_deltas = olsr_state.topology_deltas_since(self._last_topo_version)
            if topo_deltas is None:
                changed = self._rebuild_engine(sym, mpr_state)
                self.fallbacks += 1
                mode = "fallback"
            else:
                nhood_changed = nhood_version != self._last_nhood_version
                added, removed = self._neighbourhood_deltas(
                    sym, nhood_changed, mpr_state
                )
                for batch_added, batch_removed in topo_deltas:
                    added.extend(batch_added)
                    removed.extend(batch_removed)
                try:
                    changed = self._engine.apply(added, removed)
                    self.incremental_updates += 1
                    mode = "incremental"
                except SptInconsistency:
                    changed = self._rebuild_engine(sym, mpr_state)
                    self.fallbacks += 1
                    mode = "fallback"
        self._last_sym = sym
        self._last_nhood_version = nhood_version
        self._last_topo_version = topo_version

        routes = self._engine.routes
        count = self._finish_install(routes, changed)

        counters = self._observability()
        if counters is not None:
            counters[self._MODE_INDEX[mode]].inc()
            probe = self.cf.deployment.node.obs.probe
            if probe is not None:
                # The install mode is only known after the work ran, so
                # attribute it as an event count (the wall time already
                # lands in the enclosing unit.process frame).
                probe.count("route_calc.install", mode)
                if mode != "noop":
                    probe.event(
                        "route_calc.update",
                        node=self.cf.deployment.node.node_id,
                        mode=mode,
                        routes=count,
                        changed=changed,
                    )
        return count

    def _install_legacy(self) -> int:
        """Token-cached full recomputation (power-aware subclasses)."""
        cf = self.cf
        token = self._cache_token()
        if token is not None and token == self._cache_key:
            self.cache_hits += 1
            # Copy: ``set_state`` merges into the mirror in place, so the
            # cached dict must never be aliased to ``olsr_state.routes``.
            routes = dict(self._cached_routes)
            changed = False
        else:
            routes = self.compute()
            changed = routes != cf.olsr_state.routes
            self._cache_key = token
            self._cached_routes = dict(routes) if token is not None else None
        return self._finish_install(routes, changed)

    def _finish_install(
        self, routes: Dict[int, Tuple[int, int]], changed: bool
    ) -> int:
        """Write the kernel table (unless provably redundant) + the mirror."""
        cf = self.cf
        sys_state = cf.sys_state()
        kernel_version = sys_state.kernel_version()
        if changed or self._last_kernel_version != kernel_version:
            kernel_routes = [
                KernelRoute(destination, next_hop, metric=hops)
                for destination, (next_hop, hops) in sorted(routes.items())
            ]
            # Replace only OLSR-owned routes: a co-deployed reactive
            # protocol's kernel entries must survive proactive recomputation.
            sys_state.replace_all(kernel_routes, proto=cf.name)
            self._last_kernel_version = sys_state.kernel_version()
        else:
            self.kernel_skips += 1
        # The incremental path aliases the mirror to the engine's live view
        # (kept consistent because any state transfer invalidates the
        # journal and forces a rebuild); the legacy path hands over a
        # private dict, as before.
        cf.olsr_state.routes = routes
        self.last_route_count = len(routes)
        return len(routes)
