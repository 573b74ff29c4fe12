"""Discrete-event wireless network substrate.

This package replaces the paper's physical evaluation environment — an
802.11b/g ad-hoc testbed of 5 Ubuntu nodes arranged in a linear topology
via MAC-level filtering and the MobiEmu emulator, with Linux kernel routing
tables and Netfilter hooks (paper section 6) — with a deterministic
simulation:

* :mod:`repro.sim.medium` — the wireless medium: a connectivity relation
  with per-link latency and loss; broadcast and unicast delivery
  with optional link-layer feedback;
* :mod:`repro.sim.phy` — pluggable medium models, the verdict stage of
  the medium's one delivery pipeline: the default
  :class:`~repro.sim.phy.IdealModel` (per-link scalar loss) and an
  :class:`~repro.sim.phy.InterferenceModel` adding SINR-style
  interference and CSMA contention under named 802.11 link profiles;
* :mod:`repro.sim.node` — simulated hosts with position, battery and
  synthetic CPU/memory context;
* :mod:`repro.sim.kernel_table` — the per-node "kernel" routing table and
  data-plane forwarding engine with netfilter-like hook points;
* :mod:`repro.sim.topology` — topology builders (the paper's 5-node linear
  chain, grids, rings, random geometric graphs) and MobiEmu-style dynamic
  re-filtering;
* :mod:`repro.sim.mobility` — static and random-waypoint mobility driving
  connectivity changes;
* :mod:`repro.sim.network` — the :class:`Simulation` facade wiring scheduler,
  medium, nodes, traffic generation and statistics together;
* :mod:`repro.sim.faults` — deterministic, seed-driven fault injection:
  declarative :class:`~repro.sim.faults.FaultPlan` schedules (link churn,
  Gilbert-Elliott loss bursts, crash/restart, corruption/duplication/
  reordering, partition/heal) replayed by a
  :class:`~repro.sim.faults.FaultInjector`;
* :mod:`repro.sim.stats` — delivery/overhead/latency accounting.
"""

from repro.sim.medium import BROADCAST, Frame, WirelessMedium
from repro.sim.node import SimNode
from repro.sim.phy import (
    PROFILES,
    IdealModel,
    InterferenceModel,
    LinkProfile,
    MediumModel,
    build_medium_model,
)
from repro.sim.kernel_table import DataPacket, KernelRoute, KernelRoutingTable
from repro.sim.network import Simulation
from repro.sim.faults import FaultInjector, FaultPlan, FaultStep
from repro.sim.stats import NetworkStats
from repro.sim import topology, mobility

__all__ = [
    "BROADCAST",
    "Frame",
    "WirelessMedium",
    "MediumModel",
    "IdealModel",
    "InterferenceModel",
    "LinkProfile",
    "PROFILES",
    "build_medium_model",
    "SimNode",
    "DataPacket",
    "KernelRoute",
    "KernelRoutingTable",
    "Simulation",
    "FaultInjector",
    "FaultPlan",
    "FaultStep",
    "NetworkStats",
    "topology",
    "mobility",
]
