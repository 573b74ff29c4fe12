"""Scenario runner: one command (or one call), one simulated MANET experiment.

Examples::

    python -m repro.tools.scenario --protocol dymo --topology chain:8 \
        --traffic 1:8 --duration 30
    python -m repro.tools.scenario --protocol olsr --topology grid:3x3 \
        --traffic 1:9 --traffic 3:7 --loss 0.1
    python -m repro.tools.scenario --protocol zrp --topology chain:12 \
        --traffic 1:12 --zone-radius 2
    python -m repro.tools.scenario --protocol dymo --topology random:15:0.45 \
        --mobility 10:4:1.0 --traffic 1:15 --duration 60
    python -m repro.tools.scenario --protocol olsr --topology chain:5 \
        --fault crash:5:3 --fault restart:12:3 --fault-seed 99
    python -m repro.tools.scenario --protocol aodv --topology grid:3x3 \
        --fault-plan plan.json --duration 45

The runner prints per-flow delivery, network-wide control overhead and
latency statistics — the quantities the paper's evaluation is built from.
With faults installed it also reports each applied fault and the
convergence-oracle recovery time per disruption (see
``docs/fault-injection.md``).

A scenario is also an **importable library function**: call
:func:`run_scenario` with the same options the CLI takes (flag names with
``-`` replaced by ``_``) and get back a JSON-safe, fully deterministic
result dict — the foundation the campaign runner
(:mod:`repro.tools.campaign`) builds its sweeps, resume hashing and
cross-run summaries on::

    from repro.tools.scenario import run_scenario

    result = run_scenario(protocol="olsr", topology="grid:3x3",
                          duration=5.0, warmup=10.0, seed=3)
    result["delivery_ratio"]      # 1.0
    result["control_frames"]      # deterministic for a given spec
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.tables import render_table
from repro.core import ManetKit
from repro.obs.export import _nan_to_null, dump_metrics_json, format_timeline
from repro.sim import FaultPlan, Simulation, topology
from repro.sim.mobility import RandomWaypoint
from repro.sim.phy import PHY_CHOICES

import repro.protocols  # noqa: F401

PROTOCOL_CHOICES = ("olsr", "dymo", "aodv", "zrp", "olsr+dymo")

#: Option keys that select *outputs* (trace/metrics files, verbosity) and
#: therefore never influence the simulated behaviour.  The campaign
#: runner's content hash excludes them so e.g. pointing a re-run at a
#: different trace path still resumes.
OUTPUT_OPTION_KEYS = frozenset(
    {"trace", "trace_limit", "trace_tail", "trace_jsonl", "metrics_json",
     "profile_out"}
)


def _near_square(count: int) -> Tuple[int, int]:
    """Factor ``count`` into the most square W x H grid possible."""
    height = max(int(count ** 0.5), 1)
    while count % height:
        height -= 1
    return count // height, height


def topology_model(
    spec: str, nodes: Optional[int] = None
) -> Tuple[List[int], List[Tuple[int, int]], Dict[int, Tuple[float, float]]]:
    """Pure form of :func:`parse_topology`: ``(ids, edges, positions)``.

    Builds nothing — just the node ids (always ``1..N``, matching what
    :meth:`Simulation.add_nodes` would assign), the edge list and any
    node positions.  :func:`parse_topology` materialises this model into
    a live simulation.
    """
    if ":" not in spec and nodes is not None:
        if spec == "grid":
            width, height = _near_square(nodes)
            spec = f"grid:{width}x{height}"
        else:
            spec = f"{spec}:{nodes}"
    kind, _, rest = spec.partition(":")
    positions: Dict[int, Tuple[float, float]] = {}
    if kind == "chain":
        ids = list(range(1, int(rest) + 1))
        edges = topology.linear_chain(ids)
    elif kind == "ring":
        ids = list(range(1, int(rest) + 1))
        edges = topology.ring(ids)
    elif kind == "grid":
        width, _, height = rest.partition("x")
        ids = list(range(1, int(width) * int(height) + 1))
        edges = topology.grid(int(width), int(height), first_id=ids[0])
    elif kind == "random":
        count_text, _, radius_text = rest.partition(":")
        ids = list(range(1, int(count_text) + 1))
        radius = float(radius_text or "0.45")
        edges, positions = topology.random_geometric(ids, radius, seed=1)
    else:
        raise ValueError(
            f"unknown topology {spec!r}; use chain:N, ring:N, grid:WxH "
            "or random:N[:radius]"
        )
    return ids, list(edges), positions


def parse_topology(spec: str, sim: Simulation, nodes: Optional[int] = None) -> List[int]:
    """Build the topology described by ``spec``; returns the node ids.

    ``nodes`` (the CLI's ``--nodes``) completes a bare-kind spec: ``chain``
    becomes ``chain:N``, ``grid`` becomes the most square ``grid:WxH``
    holding exactly N nodes, and so on — the scale benchmark drives the
    same entry point as interactive runs.
    """
    model_ids, edges, positions = topology_model(spec, nodes=nodes)
    sim.add_nodes(len(model_ids))
    ids = sim.node_ids()
    if ids != model_ids:
        # A pre-populated simulation assigned different ids; remap the
        # model onto them in order.
        remap = dict(zip(model_ids, ids))
        edges = [(remap[a], remap[b]) for a, b in edges]
        positions = {remap[n]: pos for n, pos in positions.items()}
    sim.topology.apply(edges)
    for node_id, position in positions.items():
        sim.node(node_id).position = position
    return ids


def parse_flow(spec: str) -> Tuple[int, int, float]:
    """``src:dst[:interval]`` -> (src, dst, interval)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"flow must be src:dst[:interval], got {spec!r}")
    interval = float(parts[2]) if len(parts) == 3 else 0.5
    return int(parts[0]), int(parts[1]), interval


def deploy_one(protocol: str, sim: Simulation, node_id: int, args) -> ManetKit:
    kit = ManetKit(sim.node(node_id))
    if protocol == "dymo":
        kit.load_protocol("dymo")
    elif protocol == "aodv":
        kit.load_protocol("aodv")
    elif protocol == "olsr":
        kit.load_protocol("mpr", hello_interval=args.hello_interval)
        kit.load_protocol("olsr", tc_interval=args.tc_interval)
    elif protocol == "olsr+dymo":
        from repro.protocols.dymo.flooding import apply_optimised_flooding

        kit.load_protocol("mpr", hello_interval=args.hello_interval)
        kit.load_protocol("olsr", tc_interval=args.tc_interval)
        kit.load_protocol("dymo")
        apply_optimised_flooding(kit)
    elif protocol == "zrp":
        from repro.protocols.hybrid import deploy_zrp

        deploy_zrp(
            kit,
            zone_radius=args.zone_radius,
            hello_interval=args.hello_interval,
            tc_interval=args.tc_interval,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown protocol {protocol!r}")
    return kit


def deploy(protocol: str, sim: Simulation, ids: List[int], args) -> Dict[int, ManetKit]:
    return {node_id: deploy_one(protocol, sim, node_id, args) for node_id in ids}


# -- fault specs -------------------------------------------------------------

def _parse_edge(text: str) -> Tuple[int, int]:
    a, _, b = text.partition("-")
    return int(a), int(b)


def parse_fault(spec: str, plan: FaultPlan) -> None:
    """Append one ``--fault`` step to ``plan``.

    Grammar (``AT`` is seconds after fault install, edges are ``A-B``)::

        break:AT:A-B          restore:AT:A-B        loss:AT:A-B:RATE
        flap:AT:A-B[:FLAPS]   burst:AT:A-B[:DUR]    crash:AT:NODE
        restart:AT:NODE       partition:AT:A,B/C,D  heal:AT
        corrupt:AT:DUR[:RATE] duplicate:AT:DUR[:RATE]
        reorder:AT:DUR[:RATE]
    """
    parts = spec.split(":")
    kind = parts[0]
    try:
        at = float(parts[1])
        rest = parts[2:]
        if kind == "break":
            plan.break_link(at, *_parse_edge(rest[0]))
        elif kind == "restore":
            plan.restore_link(at, *_parse_edge(rest[0]))
        elif kind == "loss":
            plan.set_link_loss(at, *_parse_edge(rest[0]), loss=float(rest[1]))
        elif kind == "flap":
            flaps = int(rest[1]) if len(rest) > 1 else 3
            plan.flap_link(at, *_parse_edge(rest[0]), flaps=flaps)
        elif kind == "burst":
            duration = float(rest[1]) if len(rest) > 1 else 5.0
            plan.loss_burst(at, *_parse_edge(rest[0]), duration=duration)
        elif kind == "crash":
            plan.crash(at, int(rest[0]))
        elif kind == "restart":
            plan.restart(at, int(rest[0]))
        elif kind == "partition":
            group_a, _, group_b = rest[0].partition("/")
            plan.partition(
                at,
                [int(n) for n in group_a.split(",") if n],
                [int(n) for n in group_b.split(",") if n],
            )
        elif kind == "heal":
            plan.heal(at)
        elif kind in ("corrupt", "duplicate", "reorder"):
            duration = float(rest[0])
            rate = float(rest[1]) if len(rest) > 1 else 0.2
            method = {"corrupt": plan.corruption, "duplicate": plan.duplication,
                      "reorder": plan.reordering}[kind]
            method(at, duration=duration, rate=rate)
        else:
            raise ValueError(f"unknown fault kind {kind!r}")
    except (IndexError, ValueError) as error:
        raise ValueError(f"bad --fault {spec!r}: {error}") from error


def build_fault_plan(args) -> Optional[FaultPlan]:
    if args.fault_plan:
        plan = FaultPlan.from_json(args.fault_plan)
        if args.fault_seed is not None:
            plan.seed = args.fault_seed
    elif args.fault:
        plan = FaultPlan(seed=args.fault_seed or 0)
    else:
        return None
    for spec in args.fault:
        parse_fault(spec, plan)
    return plan


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.scenario",
        description="Run a MANETKit routing scenario and report statistics.",
    )
    parser.add_argument("--protocol", choices=PROTOCOL_CHOICES, default="dymo")
    parser.add_argument(
        "--topology", default="chain:5",
        help="chain:N | ring:N | grid:WxH | random:N[:radius] — or a bare "
             "kind (e.g. just 'grid') combined with --nodes",
    )
    parser.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="node count for a bare --topology kind (grid picks the most "
             "square WxH layout holding exactly N nodes)",
    )
    parser.add_argument(
        "--traffic", action="append", default=[], metavar="SRC:DST[:INTERVAL]",
        help="CBR flow (repeatable); defaults to first->last node",
    )
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--warmup", type=float, default=10.0,
                        help="settling time before traffic starts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="per-link loss probability")
    parser.add_argument(
        "--phy", choices=PHY_CHOICES, default="ideal",
        help="medium model: 'ideal' keeps matrix delivery; an 802.11 "
             "profile enables SINR interference + CSMA contention",
    )
    parser.add_argument("--latency", type=float, default=0.002,
                        help="per-link latency in seconds")
    parser.add_argument(
        "--mobility", metavar="AREA:RANGE:SPEED", default=None,
        help="random-waypoint mobility, e.g. 10:4:1.0",
    )
    parser.add_argument("--hello-interval", type=float, default=0.5)
    parser.add_argument("--tc-interval", type=float, default=1.0)
    parser.add_argument("--zone-radius", type=int, default=2)
    parser.add_argument(
        "--fault", action="append", default=[], metavar="KIND:AT:ARGS",
        help="inject a fault AT seconds after warm-up (repeatable), e.g. "
             "crash:5:3, break:2:1-2, partition:10:1,2/3,4, corrupt:0:5:0.3",
    )
    parser.add_argument(
        "--fault-plan", metavar="PATH", default=None,
        help="load a JSON FaultPlan file (--fault steps append to it)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault engine's random draws (default 0, or the "
             "plan file's own seed)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record a structured trace and print its tail after the run",
    )
    parser.add_argument(
        "--trace-limit", type=int, default=200_000,
        help="trace recorder capacity in records (default 200000); raise "
             "it when the exporter warns about a truncated trace",
    )
    parser.add_argument(
        "--trace-tail", type=int, default=40,
        help="how many trace records to print with --trace (default 40)",
    )
    parser.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="with --trace, also dump the full trace as JSONL to PATH",
    )
    parser.add_argument(
        "--metrics-out", "--metrics-json", dest="metrics_json", metavar="PATH",
        default=None,
        help="dump the final metrics snapshot as JSON to PATH (deterministic "
             "mode: wall-clock families excluded)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attribute wall-clock time and event counts to "
             "(phase, subsystem, component, event-kind) frames and print "
             "the top-N hot-spot table (see docs/profiling.md)",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH", default=None,
        help="write the profile snapshot as JSON to PATH (implies "
             "--profile); render it with repro.tools.profview",
    )
    return parser


# -- the scenario as a library -----------------------------------------------

def resolve_options(
    options: Optional[Dict[str, Any]] = None,
    include_output: bool = False,
    **overrides: Any,
) -> Dict[str, Any]:
    """Resolve a partial option mapping into the full canonical spec dict.

    Starts from the CLI parser's defaults, then applies ``options`` and
    ``overrides`` (keys may use ``-`` or ``_``).  Unknown keys raise
    ``ValueError`` so a typo in a campaign spec fails loudly instead of
    silently running the default scenario.  With ``include_output=False``
    (the default) the output-only keys (:data:`OUTPUT_OPTION_KEYS`) are
    dropped — the remainder is exactly the content the campaign runner
    hashes for resume.
    """
    args = build_parser().parse_args([])
    known = set(vars(args))
    merged: Dict[str, Any] = {}
    for source in (options or {}), overrides:
        for key, value in source.items():
            merged[str(key).replace("-", "_")] = value
    for key, value in merged.items():
        if key not in known:
            raise ValueError(f"unknown scenario option {key!r}")
        if key in ("traffic", "fault") and isinstance(value, str):
            value = [value]
        setattr(args, key, value)
    if args.protocol not in PROTOCOL_CHOICES:
        raise ValueError(
            f"unknown protocol {args.protocol!r}; choose from {PROTOCOL_CHOICES}"
        )
    resolved = dict(sorted(vars(args).items()))
    if not include_output:
        for key in OUTPUT_OPTION_KEYS:
            resolved.pop(key, None)
    return resolved


@dataclass
class ScenarioArtifacts:
    """Everything a finished scenario leaves behind.

    ``result`` is the JSON-safe deterministic report; the live objects
    (``sim``, ``tracer``, ``injector``) are kept for callers — the CLI's
    pretty-printer, tests poking at internals — that want more than the
    report.
    """

    result: Dict[str, Any]
    sim: Simulation
    tracer: Any = None
    injector: Any = None
    tracker: Any = None
    flows: List[Any] = field(default_factory=list)
    profiler: Any = None


def execute_scenario(args: argparse.Namespace) -> ScenarioArtifacts:
    """Run one fully-specified scenario; raises ``ValueError`` on bad specs.

    The returned :attr:`ScenarioArtifacts.result` contains only
    deterministic quantities (simulated-time stats, counts, the
    ``deterministic=True`` metrics snapshot): two executions of the same
    spec yield equal dicts, which is the contract campaign resume and the
    regression tests rely on.
    """
    # Validate the cheap-to-check inputs before simulating anything.
    flow_specs = list(args.traffic) if args.traffic else []
    parsed_flows = [parse_flow(spec) for spec in flow_specs]
    mobility_params = None
    if args.mobility:
        try:
            mobility_params = tuple(float(x) for x in args.mobility.split(":"))
            if len(mobility_params) != 3:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad --mobility {args.mobility!r}") from None
    plan = build_fault_plan(args)

    sim = Simulation(
        seed=args.seed, latency=args.latency, loss=args.loss,
        phy=getattr(args, "phy", None),
    )
    sim.topology.latency = args.latency
    sim.topology.loss = args.loss
    tracer = sim.enable_tracing(capacity=args.trace_limit) if args.trace else None
    profile_enabled = bool(
        getattr(args, "profile", False) or getattr(args, "profile_out", None)
    )
    profiler = sim.enable_profiling() if profile_enabled else None
    ids = parse_topology(args.topology, sim, nodes=args.nodes)

    mobility = None
    if mobility_params is not None:
        area, radio_range, speed = mobility_params
        mobility = RandomWaypoint(
            sim.medium, sim.scheduler, ids, area=area, radio_range=radio_range,
            speed_min=speed / 2, speed_max=speed, seed=args.seed,
        )
        mobility.start()

    kits = deploy(args.protocol, sim, ids, args)
    if profiler is not None:
        # Dispatch-index hops surface as fm.route event counts; the
        # observer list stays empty (zero cost) when profiling is off.
        for kit in kits.values():
            kit.manager.add_route_observer(profiler.route_observer)
        profiler.begin_phase("warmup")
    executed = sim.run(args.warmup)

    injector = tracker = None
    if plan is not None:
        from repro.analysis.oracle import ConvergenceOracle, RecoveryTracker

        injector = sim.install_faults(
            plan,
            kits=kits,
            rebuild=lambda node_id, _old: deploy_one(
                args.protocol, sim, node_id, args
            ),
        )
        mode = "full" if args.protocol in ("olsr", "olsr+dymo") else "sound"
        tracker = RecoveryTracker(
            sim,
            ConvergenceOracle(sim, mode=mode),
            protocol=args.protocol,
            timeout=args.warmup + args.duration,
        ).attach(injector)

    if not parsed_flows:
        parsed_flows = [(ids[0], ids[-1], 0.5)]
    deliveries = {}
    flows = []
    for src, dst, interval in parsed_flows:
        received: List[object] = []
        sim.node(dst).add_app_receiver(received.append)
        deliveries[(src, dst)] = received
        flows.append(sim.start_cbr(src, dst, interval=interval))

    if profiler is not None:
        profiler.begin_phase("traffic")
    executed += sim.run(args.duration)
    for flow in flows:
        flow.stop()
    if profiler is not None:
        profiler.begin_phase("drain")
    executed += sim.run(1.0)  # drain in-flight packets
    if profiler is not None:
        profiler.end_phase()
    if mobility is not None:
        mobility.stop()

    stats = sim.stats
    result: Dict[str, Any] = {
        "spec": resolve_options(vars(args)),
        "nodes": len(ids),
        "sim_time_s": sim.now,
        "events_executed": executed,
        "truncated": sim.truncated,
        "flows": [
            {
                "src": src, "dst": dst, "interval": interval,
                "sent": flow.sent, "delivered": len(deliveries[(src, dst)]),
                "ratio": len(deliveries[(src, dst)]) / max(flow.sent, 1),
            }
            for flow, (src, dst, interval) in zip(flows, parsed_flows)
        ],
        "delivery_ratio": stats.delivery_ratio(),
        "control_frames": stats.total_control_frames,
        "control_bytes": stats.total_control_bytes,
        "latency_mean_s": stats.mean_latency() if stats.latencies else None,
        "latency_p95_s": (
            stats.latency_percentile(0.95) if stats.latencies else None
        ),
        "mobility": mobility is not None,
        "faults": [
            {"time": fault.time, "kind": fault.kind, "params": list(fault.params)}
            for fault in injector.applied
        ] if injector is not None else [],
        "recoveries": [
            {"fault": kind, "elapsed_s": elapsed}
            for kind, elapsed in tracker.recoveries
        ] if tracker is not None else [],
        "recovery_timeouts": list(tracker.timeouts) if tracker is not None else [],
        "metrics": sim.obs.registry.snapshot(deterministic=True),
    }
    if profiler is not None:
        from repro.obs.profile import summary_counts

        # Counts only (no wall figures): the result dict stays equal
        # across same-spec runs, preserving campaign resume hashing.
        result["profile"] = summary_counts(profiler.snapshot(deterministic=True))
    result = _nan_to_null(result)
    return ScenarioArtifacts(
        result=result, sim=sim, tracer=tracer, injector=injector,
        tracker=tracker, flows=flows, profiler=profiler,
    )


def run_scenario(
    options: Optional[Dict[str, Any]] = None, **overrides: Any
) -> Dict[str, Any]:
    """Run one scenario from an option mapping; return the result dict.

    This is the campaign runner's worker entry point and the recommended
    programmatic interface.  Options mirror the CLI flags (``-`` → ``_``);
    repeatable flags (``traffic``, ``fault``) take lists.  When
    ``trace_jsonl`` / ``metrics_json`` paths are given, the exports are
    written in **deterministic** mode (wall-clock fields excluded) so
    re-running a spec reproduces the files byte-for-byte.
    """
    full = resolve_options(options, include_output=True, **overrides)
    args = argparse.Namespace(**full)
    if args.trace_jsonl and not args.trace:
        args.trace = True
    artifacts = execute_scenario(args)
    if args.trace_jsonl and artifacts.tracer is not None:
        from repro.obs.export import dump_trace_jsonl

        dump_trace_jsonl(artifacts.tracer, args.trace_jsonl, deterministic=True)
    if args.metrics_json:
        dump_metrics_json(
            artifacts.sim.obs.registry, args.metrics_json, deterministic=True
        )
    if args.profile_out and artifacts.profiler is not None:
        from repro.obs.profile import write_profile

        write_profile(
            artifacts.profiler.snapshot(deterministic=True), args.profile_out
        )
    return artifacts.result


# -- the CLI ------------------------------------------------------------------

def _print_report(args: argparse.Namespace, artifacts: ScenarioArtifacts) -> None:
    result = artifacts.result
    flow_rows = [
        [f"{flow['src']} -> {flow['dst']}", flow["sent"], flow["delivered"],
         f"{flow['ratio']:.0%}"]
        for flow in result["flows"]
    ]
    print(render_table(
        f"Scenario: {args.protocol} on {args.topology} "
        f"({args.duration:.0f}s, seed {args.seed}"
        + (f", loss {args.loss:.0%}" if args.loss else "")
        + (", mobility on" if result["mobility"] else "") + ")",
        ["flow", "sent", "delivered", "ratio"],
        flow_rows,
    ))
    print(
        f"\ncontrol: {result['control_frames']} frames, "
        f"{result['control_bytes']} bytes "
        f"({result['control_bytes'] / (args.warmup + args.duration + 1):.0f} B/s)"
    )
    if result["latency_mean_s"] is not None:
        print(
            f"latency mean {result['latency_mean_s'] * 1000:.1f} ms, "
            f"p95 {result['latency_p95_s'] * 1000:.1f} ms"
        )
    else:
        print("latency: no packets delivered")
    print(f"overall delivery ratio: {result['delivery_ratio']:.0%}")

    if artifacts.injector is not None:
        print(f"\nfaults applied ({len(result['faults'])}):")
        for fault in result["faults"]:
            detail = " ".join(f"{k}={v}" for k, v in fault["params"])
            print(f"  {fault['time']:8.3f}s {fault['kind']}"
                  + (f" {detail}" if detail else ""))
        if artifacts.tracker is not None:
            for recovery in result["recoveries"]:
                print(f"recovered from {recovery['fault']} "
                      f"in {recovery['elapsed_s']:.2f} s")
            for kind in result["recovery_timeouts"]:
                print(f"NO recovery from {kind} before the run ended")
            if not result["recoveries"] and not result["recovery_timeouts"]:
                print("no disruptive faults required recovery")

    tracer = artifacts.tracer
    if tracer is not None:
        print(f"\ntrace: {len(tracer.events)} records"
              + (f", {tracer.dropped} dropped" if tracer.dropped else ""))
        print(format_timeline(tracer, limit=args.trace_tail))
        if args.trace_jsonl:
            from repro.obs.export import dump_trace_jsonl

            path = dump_trace_jsonl(tracer, args.trace_jsonl)
            print(f"trace written to {path}")
    if args.metrics_json:
        path = dump_metrics_json(
            artifacts.sim.obs.registry, args.metrics_json, deterministic=True
        )
        print(f"metrics written to {path}")

    profiler = artifacts.profiler
    if profiler is not None:
        from repro.obs.profile import render_top, write_profile

        snapshot = profiler.snapshot()
        print("\n" + render_top(snapshot, n=15))
        if args.profile_out:
            # The CLI keeps the wall figures (the point of profiling a
            # run interactively); the library path writes deterministic
            # snapshots, mirroring the trace_jsonl split.
            path = write_profile(snapshot, args.profile_out)
            print(f"profile written to {path}")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        artifacts = execute_scenario(args)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    _print_report(args, artifacts)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
