"""Offline profile analysis CLI: top-N tables, flamegraphs, Chrome traces.

Examples::

    python -m repro.tools.scenario --protocol olsr --topology grid:8x8 \
        --duration 30 --profile --profile-out /tmp/prof.json
    python -m repro.tools.profview /tmp/prof.json --top 20
    python -m repro.tools.profview /tmp/prof.json --flame /tmp/prof.folded
    python -m repro.tools.profview /tmp/prof.json --chrome /tmp/prof.chrome.json

Input is one profile snapshot file as written by ``--profile-out``
(:func:`repro.obs.profile.write_profile`).

``--flame OUT`` writes collapsed-stack lines (one ``phase;frame;frame
VALUE`` per distinct stack) consumable by ``flamegraph.pl`` or
speedscope; ``--chrome OUT`` writes an *aggregate* Chrome trace-event
view (one synthetic thread per phase, frames laid out left-heavy by
weight — widths carry meaning, positions do not); ``--json OUT`` writes
the snapshot back out.  ``--weight`` picks what the flamegraph
and table weigh: ``wall`` (self wall time), ``count`` (event counts), or
``auto`` (the default: wall, falling back to counts when every wall
figure is zero — i.e. a deterministic snapshot such as a committed
golden).

Exit codes: 0 ok, 1 when the profile holds no frames at all,
2 on usage or file errors.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List, Optional

from repro.obs.profile import (
    attribution,
    chrome_trace,
    collapsed_stacks,
    load_profile,
    pick_weight,
    render_top,
    summary_counts,
    write_profile,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools.profview",
        description="Analyse cost-attribution profile snapshots.",
    )
    parser.add_argument(
        "profile",
        help="profile JSON file (from --profile-out)",
    )
    parser.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="print the top-N hot-frame table (default action, N=15)",
    )
    parser.add_argument(
        "--flame", metavar="OUT", default=None,
        help="write collapsed-stack lines (flamegraph.pl / speedscope)",
    )
    parser.add_argument(
        "--chrome", metavar="OUT", default=None,
        help="write aggregate Chrome trace-event JSON (Perfetto-viewable)",
    )
    parser.add_argument(
        "--json", dest="json_out", metavar="OUT", default=None,
        help="write the snapshot JSON to OUT",
    )
    parser.add_argument(
        "--weight", choices=("auto", "wall", "count"), default="auto",
        help="weigh frames by wall time or event counts (auto: wall, "
             "falling back to counts when walls are zeroed)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        profile = load_profile(args.profile)
    except (OSError, ValueError) as error:
        print(f"error: cannot load {args.profile!r}: {error}", file=sys.stderr)
        return 2
    if not profile["stacks"]:
        print("error: profile holds no frames (was the run profiled?)",
              file=sys.stderr)
        return 1
    weight = pick_weight(profile, args.weight)
    ran_anything = False
    if args.flame is not None:
        lines = collapsed_stacks(profile, weight=weight)
        out = pathlib.Path(args.flame)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text("\n".join(lines) + "\n")
        print(f"flamegraph: {len(lines)} collapsed stacks ({weight}-weighted) "
              f"written to {out}")
        ran_anything = True
    if args.chrome is not None:
        events = chrome_trace(profile, weight=weight)
        out = pathlib.Path(args.chrome)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w") as handle:
            json.dump({"traceEvents": events}, handle)
        print(f"chrome trace: {len(events)} events written to {out} "
              f"(open in Perfetto or chrome://tracing)")
        ran_anything = True
    if args.json_out is not None:
        out = write_profile(profile, args.json_out)
        counts = summary_counts(profile)
        print(f"snapshot: {counts['stacks']} stacks / {counts['events']} "
              f"events written to {out}")
        ran_anything = True
    if args.top is not None or not ran_anything:
        print(render_top(profile, n=args.top or 15, weight=weight))
        attrib = attribution(profile)
        if attrib["total_wall_s"] <= 0.0:
            counts = summary_counts(profile)
            subs = ", ".join(
                f"{name}={count}"
                for name, count in counts["by_subsystem"].items()
            )
            print(f"(deterministic snapshot: walls zeroed; "
                  f"{counts['events']} events — {subs})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
