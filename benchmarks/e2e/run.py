"""The repo benchmark: four MANET workloads, measured end to end and per layer.

    python3 benchmarks/e2e/run.py                         # all workloads, both passes
    python3 benchmarks/e2e/run.py --workload dymo_cbr --seed 11 --no-trace
    python3 benchmarks/e2e/run.py --smoke                 # tiny sizes, every shim exercised
    python3 benchmarks/e2e/run.py --agree A.json B.json   # compare two result sets
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
                                                          # one machine-readable result line

Metric names, units, directions and regression bounds live in the repo's
``BENCHMARK.json`` and nowhere else; this harness refuses to run if what
it measures and what that file lists differ.  Every pass of a workload
runs in a fresh subprocess started with ``PYTHONHASHSEED=0``, so peak RSS
and the process-global decode cache are per pass and set iteration order
is fixed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Shortest window the full-size workloads make sense in, host seconds.
MIN_SECONDS = 12


def load_manifest() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- one pass, in this process (the --child side) -----------------------------


def child_main(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import measure

    trace_path = None
    if args.trace == 1:
        OUT.mkdir(exist_ok=True)
        stem = f"trace_{args.workload}_smoke" if args.smoke else f"trace_{args.workload}"
        trace_path = str(OUT / f"{stem}.json")
    record = measure.run_pass(args.workload, args.seed, args.seconds, args.smoke, trace_path)
    print(json.dumps(record))
    return 0


# -- orchestration (the parent side; imports nothing from repro) --------------


def spawn_pass(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool) -> Dict[str, Any]:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(done.returncode)
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(manifest: Dict[str, Any], workload: str, seed: int, seconds: float,
                 traced: bool, smoke: bool) -> Dict[str, Any]:
    """Untraced pass, then optionally the traced one; merged and cross-checked."""
    plain = spawn_pass(workload, seed, seconds, False, smoke)
    failed = list(plain["failed_checks"])
    # Host times (H) and simulated statistics (S) share the end-to-end
    # list; S ones repeat exactly for a seed, which --agree relies on.
    measured = {**plain["host"], **plain["simulated"]}
    missing = [m["name"] for m in manifest["end_to_end"] if m["name"] not in measured]
    if missing:
        raise SystemExit(f"BENCHMARK.json lists end_to_end metrics nobody measures: {missing}")
    result = {key: plain[key] for key in (
        "workload", "seed", "sim_s", "window_wall_s", "simulated", "counts",
        "sim_fingerprint", "samples", "ops_attempted", "ops_failed",
    )}
    result["end_to_end"] = {m["name"]: measured[m["name"]] for m in manifest["end_to_end"]}
    result["per_layer"] = None
    if traced:
        shadow = spawn_pass(workload, seed, seconds, True, smoke)
        failed += [f"traced pass: {message}" for message in shadow["failed_checks"]]
        for key in ("simulated", "counts", "sim_fingerprint"):
            if shadow[key] != plain[key]:
                failed.append(f"traced and untraced passes disagree on {key}")
        layers = dict(shadow["layers"])
        layers["utils.scheduler.us_per_event"] = (
            plain["window_wall_s"] / plain["counts"]["events"] * 1e6
        )
        layers["trace.overhead_ratio"] = shadow["window_wall_s"] / plain["window_wall_s"]
        expected = [m["name"] for m in manifest["per_layer"]]
        if sorted(layers) != sorted(expected):
            odd = sorted(set(layers) ^ set(expected))
            raise SystemExit(f"BENCHMARK.json per_layer and measured layers differ on {odd}")
        result["per_layer"] = layers
        result["traced_window_wall_s"] = shadow["window_wall_s"]
    result["failed_checks"] = failed
    return result


def largest_layer(result: Dict[str, Any]) -> str:
    """The layer with the most traced self time, with its share of the wall."""
    layers = {
        name[: -len(".self_ms")]: value
        for name, value in result["per_layer"].items() if name.endswith(".self_ms")
    }
    top = max(layers, key=layers.get)
    share = layers[top] / (result["traced_window_wall_s"] * 1e3)
    return f"{top} ({share:.1%} of traced wall)"


def print_result(manifest: Dict[str, Any], result: Dict[str, Any]) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  window {result['sim_s']} sim-s"
          f" in {result['window_wall_s']:.2f} host-s")
    for section in ("end_to_end", "per_layer"):
        values = result[section]
        if values is None:
            continue
        print(f"  {section}:")
        for metric in manifest[section]:
            kind = ""
            if section == "end_to_end":
                kind = "S" if metric["name"] in result["simulated"] else "H"
            print(f"    {metric['name']:<42} {values[metric['name']]:>16.6g} "
                  f"{metric['unit']:<10} {kind}")
    print(f"  counts: {result['counts']}")
    print(f"  samples: {result['samples']}")
    print(f"  ops: {result['ops_attempted']} attempted, {result['ops_failed']} failed")
    print(f"  sim_fingerprint: {result['sim_fingerprint']}")
    if result["per_layer"] is not None:
        print(f"  largest self-time layer: {largest_layer(result)}")
    if result["failed_checks"]:
        for message in result["failed_checks"]:
            print(f"  CHECK FAILED: {message}")
    else:
        print("  checks: ok")


def driver_main(manifest: Dict[str, Any], args: argparse.Namespace) -> int:
    """One workload, one mode, one JSON result line (the BENCHMARK.json contract)."""
    result = run_workload(
        manifest, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    print_result(manifest, result)
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": not result["failed_checks"],
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            metric["name"]: {"value": result[section][metric["name"]], "unit": metric["unit"]}
            for metric in manifest[section]
        },
    }))
    return 0


def calibrate() -> float:
    """A fixed pure-Python loop: how fast this machine runs the interpreter."""
    started = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i % 7
    return time.perf_counter() - started


def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def report_main(manifest: Dict[str, Any], args: argparse.Namespace) -> int:
    """Every workload (or the named one), both passes; writes the result set."""
    names = [args.workload] if args.workload else [w["name"] for w in manifest["workloads"]]
    meta = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "PYTHONHASHSEED": "0", "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "git_sha": git_sha(), "calib_s": calibrate(),
    }
    print(f"meta: {meta}")
    results = {}
    for name in names:
        results[name] = run_workload(
            manifest, name, args.seed, args.seconds, not args.no_trace, args.smoke
        )
        print_result(manifest, results[name])
    OUT.mkdir(exist_ok=True)
    target = Path(args.out) if args.out else OUT / ("smoke.json" if args.smoke else "results.json")
    with open(target, "w") as handle:
        json.dump({"meta": meta, "workloads": results}, handle, indent=1)
    print(f"wrote {target}")
    return 1 if any(r["failed_checks"] for r in results.values()) else 0


def agree_main(manifest: Dict[str, Any], path_a: str, path_b: str) -> int:
    """B against A: host times within their bounds, everything simulated identical."""
    with open(path_a) as handle:
        side_a = json.load(handle)
    with open(path_b) as handle:
        side_b = json.load(handle)
    if side_a["meta"]["calib_s"] and side_b["meta"]["calib_s"]:
        print(f"calib_s: A {side_a['meta']['calib_s']:.4f}  B {side_b['meta']['calib_s']:.4f}"
              "  (host times are compared raw; only trust them on one machine)")
    offender: Optional[str] = None

    def flag(message: str) -> str:
        nonlocal offender
        if offender is None:
            offender = message
        return "FAIL"

    print(f"{'workload':<14} {'metric':<26} {'A':>14} {'B':>14} {'B vs A':>9} {'bound':>7}")

    def row(name: str, key: str, va: float, vb: float, bound: str, verdict: str) -> None:
        print(f"{name:<14} {key:<26} {va:>14.6g} {vb:>14.6g} {(vb - va) / va:>+9.1%} "
              f"{bound:>7}  {verdict}")

    for name in side_a["workloads"]:
        a, b = side_a["workloads"][name], side_b["workloads"].get(name)
        if b is None:
            flag(f"{name}: missing from {path_b}")
            continue
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            if key in a["simulated"]:
                continue
            va, vb = a["end_to_end"][key], b["end_to_end"][key]
            worse = (vb - va) / va * (1 if metric["better"] == "lower" else -1)
            bound = f"{metric['bound']:.0%}"
            row(name, key, va, vb, bound, "ok" if worse <= metric["bound"] else flag(
                f"{name}: {key} worse by {worse:.1%}, bound {bound}"))
        for key, va in a["simulated"].items():
            vb = b["simulated"][key]
            row(name, key, va, vb, "exact", "same" if va == vb else flag(
                f"{name}: {key} differs ({va} vs {vb})"))
        for key in ("counts", "sim_fingerprint"):
            if a[key] != b[key]:
                flag(f"{name}: {key} differs ({a[key]} vs {b[key]})")
        for side, label in ((a, path_a), (b, path_b)):
            if side["failed_checks"]:
                flag(f"{name}: output checks failed in {label}: {side['failed_checks'][0]}")
    if offender is not None:
        print(f"DISAGREE: {offender}")
        return 1
    print("agree: host times within bounds; simulated metrics, counts and fingerprints identical")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="host seconds the timed window is sized for "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="print one result line: end-to-end (0) or per-layer (1) metrics")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="16-25 nodes, 5 sim-s: exercises the harness and every shim")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--out", help="where to write the result set")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args)
    manifest = load_manifest()
    if args.agree:
        return agree_main(manifest, *args.agree)
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds is None:
        args.seconds = float(manifest["run_seconds"])
    if args.seconds < MIN_SECONDS and not args.smoke:
        parser.error(f"--seconds must be at least {MIN_SECONDS}: olsr_grid needs ~8 sim-s "
                     "to converge, and a window with no deliveries has no latency to report")
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return driver_main(manifest, args)
    return report_main(manifest, args)


if __name__ == "__main__":
    sys.exit(main())
