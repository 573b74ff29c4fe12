"""The top-level MANETKit CF — one deployment per node.

"MANETKit is an OpenCom CF that supports the development, deployment and
dynamic reconfiguration of ad-hoc routing protocols" (paper section 4.1).
A deployment comprises the Framework Manager CF, the singleton System CF,
and any number of ManetProtocol instances stacked above it (Fig 2).

The deployment enforces coarse integrity rules of the kind the paper
sketches — "we might use this mechanism to ensure that only one instance of
a reactive routing protocol exists in a given MANETKit deployment"
(section 4.2) — via :attr:`ManetProtocol.protocol_class`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.concurrency.models import make_model
from repro.core.framework_manager import FrameworkManager
from repro.core.manet_protocol import ManetProtocol
from repro.core.reconfig import ReconfigurationManager
from repro.core.system_cf import SystemCF
from repro.core.unit import CFSUnit
from repro.errors import IntegrityError, ReconfigurationError
from repro.events.types import EventOntology
from repro.events.types import ontology as default_ontology
from repro.opencom.framework import ComponentFramework, Mutation
from repro.opencom.kernel import OpenComKernel
from repro.sim.node import SimNode
from repro.utils.timers import TimerService

#: Builders for dynamically deployable protocols, keyed by protocol name.
#: Populated by :mod:`repro.protocols` at import time and extensible by
#: users (the analog of loading a protocol implementation into the kernel).
PROTOCOL_REGISTRY: Dict[str, Callable[..., ManetProtocol]] = {}


def register_protocol(name: str, builder: Callable[..., ManetProtocol]) -> None:
    """Register a protocol builder for :meth:`ManetKit.load_protocol`."""
    PROTOCOL_REGISTRY[name] = builder


def _deployment_integrity(cf: ComponentFramework, mutation: Mutation) -> None:
    """Only one reactive routing protocol per deployment (section 4.2)."""
    if mutation.kind != "insert" or not isinstance(mutation.component, ManetProtocol):
        return
    if getattr(mutation.component, "protocol_class", "service") != "reactive":
        return
    for child in cf.children():
        if (
            isinstance(child, ManetProtocol)
            and getattr(child, "protocol_class", "service") == "reactive"
        ):
            raise IntegrityError(
                f"deployment already runs reactive protocol {child.name!r}; "
                f"refusing to deploy {mutation.component.name!r}"
            )


class ManetKit(ComponentFramework):
    """One node's MANETKit deployment."""

    def __init__(
        self,
        node: SimNode,
        ontology: Optional[EventOntology] = None,
        concurrency: str = "single-threaded",
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(f"manetkit@{node.node_id}")
        self.node = node
        #: Observability context shared with the simulation substrate (the
        #: node carries it); ``None`` for bare nodes — every consumer
        #: treats that as "not instrumented".
        self.obs = getattr(node, "obs", None)
        self.ontology = ontology if ontology is not None else default_ontology
        #: ``True`` once :meth:`crash` has run; a crashed kit is dead and
        #: must be replaced by a fresh deployment on restart.
        self.crashed = False
        self._concurrency = concurrency
        #: Deployment recipe — ``(protocol name, kwargs)`` in load order —
        #: so a node restart can rebuild the same protocol stack from
        #: scratch (fresh state, exactly like a daemon coming back up).
        self._recipe: List[tuple] = []
        self.register_integrity_rule(_deployment_integrity)
        # Per-node jitter RNG so co-located nodes do not fire in lockstep.
        timer_seed = seed if seed is not None else node.node_id
        self.timers = TimerService(node.scheduler, seed=timer_seed)
        self.kernel = OpenComKernel()
        self.manager = FrameworkManager(self.ontology)
        if self.obs is not None:
            # Pull-style publication of the dispatch-index counters — the
            # hot path pays nothing, snapshots see the current values.
            self.obs.registry.register_collector(self._collect_dispatch_metrics)
        self.insert(self.manager)
        self.system = SystemCF(node, self.timers, self.ontology)
        self.system.deployment = self
        self.insert(self.system)
        self.manager.register_unit(self.system)
        self.reconfig = ReconfigurationManager(self)
        if concurrency != "single-threaded":
            self.set_concurrency(concurrency)
        self.start()

    # -- time ---------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.node.scheduler.now

    # -- metrics -----------------------------------------------------------

    def _collect_dispatch_metrics(self) -> Dict[str, float]:
        node_id = self.node.node_id
        return {
            f"dispatch.index_hits{{node={node_id}}}": float(self.manager.index_hits),
            f"dispatch.index_misses{{node={node_id}}}": float(self.manager.index_misses),
        }

    # -- protocol deployment ----------------------------------------------------

    def deploy(self, protocol: ManetProtocol) -> ManetProtocol:
        """Dynamically deploy a protocol instance onto this node."""
        if self.manager.unit(protocol.name) is not None:
            raise ReconfigurationError(
                f"a unit named {protocol.name!r} is already deployed"
            )
        protocol.deployment = self
        self.manager.register_unit(protocol)
        try:
            protocol.on_install(self)
            self.insert(protocol)  # starts the protocol (kit is started)
        except Exception:
            self.manager.unregister_unit(protocol)
            protocol.deployment = None
            raise
        # Record in the rebuild recipe so crash/restart resurrects the
        # stack a node is *currently* running — including protocols that
        # arrived via a live switch, not load_protocol.  Registered-name
        # entries only: an unregistered name cannot be rebuilt.
        if protocol.name in PROTOCOL_REGISTRY:
            self._recipe.append((protocol.name, {}))
        self.system.emit("PROTOCOL_STARTED", payload={"protocol": protocol.name})
        return protocol

    def load_protocol(self, name: str, **kwargs: Any) -> ManetProtocol:
        """Instantiate a registered protocol by name and deploy it."""
        try:
            builder = PROTOCOL_REGISTRY[name]
        except KeyError:
            raise ReconfigurationError(
                f"no protocol {name!r} registered "
                f"(available: {sorted(PROTOCOL_REGISTRY)})"
            ) from None
        protocol = self.deploy(builder(self.ontology, **kwargs))
        if self._recipe and self._recipe[-1] == (name, {}):
            self._recipe[-1] = (name, dict(kwargs))
        else:
            self._recipe.append((name, dict(kwargs)))
        return protocol

    def undeploy(self, name: str) -> ManetProtocol:
        """Stop and remove a deployed protocol."""
        unit = self.manager.unit(name)
        if not isinstance(unit, ManetProtocol):
            raise ReconfigurationError(f"no deployed protocol named {name!r}")
        unit.on_uninstall(self)
        self.manager.unregister_unit(unit)
        self.remove(name)
        unit.deployment = None
        for entry in self._recipe:
            if entry[0] == name:
                self._recipe.remove(entry)
                break
        self.system.emit("PROTOCOL_STOPPED", payload={"protocol": name})
        return unit

    def protocol(self, name: str) -> ManetProtocol:
        unit = self.manager.unit(name)
        if not isinstance(unit, ManetProtocol):
            raise ReconfigurationError(f"no deployed protocol named {name!r}")
        return unit

    def protocols(self) -> List[ManetProtocol]:
        return [u for u in self.manager.units() if isinstance(u, ManetProtocol)]

    def units(self) -> List[CFSUnit]:
        return self.manager.units()

    # -- concurrency -----------------------------------------------------------------

    def set_concurrency(self, model: "str | ConcurrencyModel", **kwargs: Any) -> None:
        """Select the deployment-wide concurrency model.

        "To select either of the single-threaded or thread-per-message
        model it is only necessary to ask the System CF to use one or other
        model, and the selected model is applied throughout the MANETKit
        instance" (section 4.4).
        """
        if isinstance(model, str):
            model = make_model(model, **kwargs)
        self.manager.set_model(model)

    def use_dedicated_thread(self, protocol_name: str, enabled: bool = True) -> None:
        """Opt a single protocol into thread-per-ManetProtocol."""
        self.manager.set_dedicated_thread(self.protocol(protocol_name), enabled)

    def drain(self, timeout: float = 10.0) -> bool:
        return self.manager.drain(timeout)

    # -- lookups --------------------------------------------------------------------------

    def find_interface(self, iface_type: str, exclude: Optional[CFSUnit] = None) -> Any:
        """Locate an interface by type across the deployment's units."""
        for unit in self.manager.units():
            if unit is exclude:
                continue
            target = unit.find_local_interface(iface_type)
            if target is not None:
                return target
        raise LookupError(
            f"no unit in {self.name} provides an interface of type {iface_type!r}"
        )

    @property
    def context(self):
        """The context concentrator facade (section 4.5)."""
        return self.manager.concentrator

    # -- teardown ----------------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every protocol and release concurrency resources."""
        for protocol in list(self.protocols()):
            self.undeploy(protocol.name)
        self.manager.shutdown()
        self.stop()

    # -- crash / restart lifecycle (fault injection) ------------------------------------------

    def deployment_recipe(self) -> List[tuple]:
        """``(protocol name, kwargs)`` pairs needed to rebuild this stack."""
        return [(name, dict(kwargs)) for name, kwargs in self._recipe]

    def crash(self) -> None:
        """Abrupt node failure.

        Unlike :meth:`shutdown`, nothing is graceful: no ``on_uninstall``
        hooks run, no goodbye control traffic is sent, and no
        ``PROTOCOL_STOPPED`` events fire.  Every timer the deployment armed
        is cancelled, concurrency resources are released, the node's radio
        detaches and its kernel routing table is flushed — the state a real
        device is in the instant it loses power.  The kit object is dead
        afterwards; a restart builds a fresh deployment (see
        :meth:`rebuild`).
        """
        if self.crashed:
            return
        self.crashed = True
        probe = None if self.obs is None else self.obs.probe
        if probe is not None:
            probe.event(
                "kit.crash", node=self.node.node_id,
                protocols=[p.name for p in self.protocols()],
            )
        self.timers.cancel_all()
        self.manager.shutdown()
        self.node.power_off()
        self.stop()

    def rebuild(self) -> "ManetKit":
        """Fresh deployment for a restarted node (same stack, wiped state).

        The node must have been powered back on (see
        :meth:`repro.sim.node.SimNode.power_on`) before calling this.
        """
        kit = ManetKit(
            self.node, ontology=self.ontology, concurrency=self._concurrency
        )
        for name, kwargs in self.deployment_recipe():
            kit.load_protocol(name, **kwargs)
        return kit
