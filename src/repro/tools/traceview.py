"""Offline trace analysis CLI: causal chains, route explanations, Perfetto.

Examples::

    python -m repro.tools.scenario --protocol dymo --topology chain:5 \
        --duration 20 --trace --trace-jsonl /tmp/trace.jsonl
    python -m repro.tools.traceview /tmp/trace.jsonl --summary
    python -m repro.tools.traceview /tmp/trace.jsonl --route 1 5
    python -m repro.tools.traceview /tmp/trace.jsonl --explain 3 5 --at 12.5
    python -m repro.tools.traceview /tmp/trace.jsonl --chrome /tmp/trace.chrome.json

``--route SRC DST`` reconstructs the cross-node causal chain behind the
source node's first route to the destination (origin HELLO/TC/RREQ
through every forwarding hop to the kernel install) and prints the
critical path: an exact partition of the root-to-install delay into
propagation / timer-wait / processing edges.  ``--explain NODE DST``
answers why (or why not) a node holds a route at a given time, replayed
from the kernel-table mutation records; history rows that fall inside a
live-reconfiguration window are annotated ``[during ...]``.  ``--reconfig``
lists every reconfiguration enactment and state-transfer record in the
trace.  ``--chrome OUT`` writes Chrome
trace-event JSON viewable in Perfetto or ``chrome://tracing``, one track
per node with flow arrows following every transmission.

Input is one trace JSONL file as written by ``--trace-jsonl`` (plain or
gzip-compressed, e.g. the committed golden replays).  Exit codes: 0 ok,
1 when a requested route/chain cannot be reconstructed, 2 on usage or
file errors.
"""

from __future__ import annotations

import argparse
import gzip
import json
import pathlib
import sys
from typing import List, Optional

from repro.obs.causal import CausalGraph, to_chrome_trace
from repro.obs.export import trace_event_from_dict, trace_summary
from repro.obs.trace import TraceEvent


def load_events(path: str) -> List[TraceEvent]:
    """Load trace JSONL (optionally gzipped) into TraceEvent objects."""
    source = pathlib.Path(path)
    opener = gzip.open if source.suffix == ".gz" else open
    events = []
    with opener(source, "rt") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(trace_event_from_dict(json.loads(line)))
    return events


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f} ms"


def print_summary(graph: CausalGraph) -> None:
    summary = trace_summary(graph.events)
    stats = graph.stats()
    print(f"trace: {len(graph.events)} records, "
          f"{summary['span_count']} spans, "
          f"t_sim up to {summary['t_sim_max']:.3f}s")
    print(f"provenance: {stats['transmissions']} transmissions "
          f"({stats['root_transmissions']} roots, "
          f"{stats['caused_transmissions']} caused), "
          f"{stats['deliveries']} deliveries, {stats['losses']} losses")
    print(f"kernel: {stats['route_installs']} route installs, "
          f"{stats['route_removals']} removals")
    if stats["reconfigurations"]:
        print(f"reconfig: {stats['reconfigurations']} enactments, "
              f"{stats['state_transfer_bytes']} state-transfer bytes")
    top = sorted(
        summary["events_by_name"].items(), key=lambda kv: -kv[1]
    )[:10]
    for name, count in top:
        print(f"  {count:8d}  {name}")


def print_route(graph: CausalGraph, src: int, dst: int, limit: int) -> int:
    installs = graph.route_installs(src, dst)
    if not installs:
        print(f"no route install for destination {dst} on node {src} "
              f"found in this trace", file=sys.stderr)
        return 1
    event, _node, _dest, next_hop = installs[0]
    proto = event.attrs.get("proto", "")
    print(f"route {src} -> {dst}: first installed at t={event.t_sim:.6f}s "
          f"on node {src} via next hop {next_hop}"
          + (f" (proto {proto})" if proto else ""))
    path = graph.critical_path(event)
    if not path.chain:
        print("no causal chain: the installing record carries no cause "
              "link (was the trace recorded with provenance?)",
              file=sys.stderr)
        return 1
    nodes = path.nodes()
    print(f"causal chain: {len(path.chain)} transmissions across nodes "
          + " -> ".join(str(n) for n in nodes))
    shown = path.chain if len(path.chain) <= limit else path.chain[-limit:]
    if len(path.chain) > limit:
        print(f"  ... ({len(path.chain) - limit} earlier transmissions elided)")
    for tx in shown:
        mint = tx.mint
        origin = "root" if not tx.cause else f"caused by prov {tx.cause}"
        print(f"  t={mint.t_sim:.6f}s  node {tx.origin_node}  "
              f"{tx.label:<10s} prov {tx.prov:<6d} "
              f"({len(tx.deliveries)} delivered, {len(tx.losses)} lost) "
              f"[{origin}]")
    print(f"critical path ({_ms(path.total)} from root to install):")
    for edge in path.edges:
        if edge.kind == "propagation":
            where = f"{edge.from_node} -> {edge.to_node}"
        else:
            where = f"node {edge.to_node}"
        label = f"  {edge.label}" if edge.label else ""
        print(f"  t={edge.t0:.6f}s  {edge.kind:<12s} {where:<10s} "
              f"{_ms(edge.dt):>12s}{label}")
    breakdown = path.breakdown()
    total = max(path.total, 1e-12)
    print("breakdown: " + ", ".join(
        f"{kind} {_ms(value)} ({value / total:.1%})"
        for kind, value in breakdown.items()
    ))
    edge_sum = sum(edge.dt for edge in path.edges)
    print(f"edge sum {_ms(edge_sum)} == root-to-install delay "
          f"{_ms(path.total)}")
    return 0


def print_explain(
    graph: CausalGraph, node: int, dst: int, at: Optional[float], limit: int
) -> int:
    info = graph.explain_route(node, dst, at=at)
    when = f" at t={at:.3f}s" if at is not None else ""
    if info["installed"]:
        print(f"node {node} route to {dst}{when}: INSTALLED via next hop "
              f"{info['next_hop']} since t={info['since']:.6f}s"
              + (f" (proto {info['proto']})" if info["proto"] else ""))
        cause = info["last_event"].get("cause")
        if cause:
            tx = graph.transmissions.get(cause)
            if tx is not None and tx.mint is not None:
                print(f"why: installed while processing {tx.label} "
                      f"(prov {cause}) transmitted by node {tx.origin_node} "
                      f"at t={tx.mint.t_sim:.6f}s")
    else:
        last = info["last_event"]
        if last is None:
            print(f"node {node} route to {dst}{when}: NO ROUTE "
                  f"(never installed in this trace)")
        else:
            print(f"node {node} route to {dst}{when}: NO ROUTE "
                  f"(last event: {last['action']} at t={last['t']:.6f}s)")
    drops = info["no_route_events"]
    if drops:
        print(f"{len(drops)} packet(s) hit the no-route path for this "
              f"destination, first at t={drops[0]['t']:.6f}s")
    history = info["history"]
    if history:
        print(f"history ({len(history)} kernel-table events):")
        shown = history if len(history) <= limit else history[-limit:]
        if len(history) > limit:
            print(f"  ... ({len(history) - limit} earlier events elided)")
        for item in shown:
            detail = (
                f" next_hop={item['next_hop']}" if item["action"] == "install"
                else ""
            )
            cause = f" cause=prov {item['cause']}" if item.get("cause") else ""
            during = (
                f" [during {item['during']}]" if item.get("during") else ""
            )
            print(f"  t={item['t']:.6f}s  {item['action']}{detail}{cause}{during}")
    return 0


def print_reconfig(graph: CausalGraph, limit: int) -> int:
    entries = graph.reconfig_summary()
    if not entries:
        print("no reconfiguration records in this trace", file=sys.stderr)
        return 1
    print(f"{len(entries)} reconfiguration record(s):")
    shown = entries if len(entries) <= limit else entries[-limit:]
    if len(entries) > limit:
        print(f"  ... ({len(entries) - limit} earlier records elided)")
    for entry in shown:
        node = f"node {entry['node']}" if entry.get("node") is not None else "?"
        extra = ""
        if entry.get("bytes") is not None:
            extra = f"  {entry['bytes']} B carried"
        elif entry.get("dt") is not None:
            extra = f"  ({_ms(entry['dt'])} quiesced)"
        print(f"  t={entry['t']:.6f}s  {node:<10s} {entry['label']}{extra}")
    return 0


def write_chrome(graph: CausalGraph, out: str) -> int:
    data = to_chrome_trace(graph.events)
    path = pathlib.Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(data, handle)
    print(f"chrome trace: {len(data['traceEvents'])} events written to "
          f"{path} (open in Perfetto or chrome://tracing)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.traceview",
        description="Analyse a provenance-linked trace JSONL file.",
    )
    parser.add_argument(
        "trace",
        help="trace JSONL file (from --trace-jsonl; .gz accepted)",
    )
    parser.add_argument(
        "--route", nargs=2, type=int, metavar=("SRC", "DST"), default=None,
        help="reconstruct the causal chain and critical path behind SRC's "
             "first route to DST",
    )
    parser.add_argument(
        "--explain", nargs=2, type=int, metavar=("NODE", "DST"), default=None,
        help="why / why-not: NODE's route to DST from kernel-table records",
    )
    parser.add_argument(
        "--at", type=float, default=None, metavar="T",
        help="with --explain, the simulated time to answer for "
             "(default: end of trace)",
    )
    parser.add_argument(
        "--chrome", metavar="OUT", default=None,
        help="write Chrome trace-event JSON (Perfetto-viewable) to OUT",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="print trace and provenance summary statistics",
    )
    parser.add_argument(
        "--reconfig", action="store_true",
        help="list reconfiguration enactments and state-transfer records",
    )
    parser.add_argument(
        "--limit", type=int, default=30,
        help="max chain/history rows to print (default 30)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        events = load_events(args.trace)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load {args.trace!r}: {error}", file=sys.stderr)
        return 2
    graph = CausalGraph(events)
    status = 0
    ran_anything = False
    if args.summary:
        print_summary(graph)
        ran_anything = True
    if args.route is not None:
        status = max(status, print_route(graph, *args.route, limit=args.limit))
        ran_anything = True
    if args.explain is not None:
        status = max(
            status,
            print_explain(graph, *args.explain, at=args.at, limit=args.limit),
        )
        ran_anything = True
    if args.reconfig:
        status = max(status, print_reconfig(graph, limit=args.limit))
        ran_anything = True
    if args.chrome is not None:
        status = max(status, write_chrome(graph, args.chrome))
        ran_anything = True
    if not ran_anything:
        print_summary(graph)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
