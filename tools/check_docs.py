#!/usr/bin/env python
"""Documentation smoke checker: executable docs or failing CI.

Walks ``README.md`` and ``docs/*.md`` and enforces three properties:

1. **Runnable examples run.**  Fenced ``python`` blocks execute in a
   subprocess (repo root, ``PYTHONPATH=src``); fenced ``bash`` blocks
   execute under ``bash -euo pipefail`` when marked runnable.  A block
   is selected by an HTML comment directly above the fence::

       <!-- docs-check: run -->
       ```bash
       python -m repro.tools.scenario --protocol olsr --duration 5
       ```

   ``<!-- docs-check: skip -->`` exempts a block.  Unmarked ``python``
   blocks auto-run unless they contain ``...`` placeholders; unmarked
   ``bash``/``console`` blocks are never executed (but are still
   flag-checked, below).

2. **Documented flags exist.**  Every command line in a ``bash`` or
   ``console`` block that invokes one of this repo's CLIs
   (``repro.tools.scenario``, ``repro.tools.campaign``,
   ``repro.tools.bench_check``, ``repro.tools.traceview``,
   ``repro.tools.profview``,
   ``repro.tools.golden_replay``, ``repro.sim.reconfig_battery``,
   ``manetkit-scenario``, ``tools/check_docs.py``) has its ``--flags``
   checked against the *actual* argparse parser.  Rename a flag without
   updating the docs and this fails.

3. **Local links resolve.**  Relative markdown link targets must exist
   on disk.

Exit status: 0 all checks passed, 1 any failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import re
import shlex
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

DIRECTIVE_RE = re.compile(r"<!--\s*docs-check:\s*(run|skip)\s*-->")
FENCE_RE = re.compile(r"^```(\S*)\s*$")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXEC_LANGS = {"python", "py", "bash", "sh"}
COMMAND_LANGS = {"bash", "sh", "console"}


def _rel(path: pathlib.Path) -> pathlib.Path:
    """Repo-relative spelling when possible; absolute otherwise."""
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


@dataclasses.dataclass
class Block:
    """One fenced code block, with enough context to report failures."""

    path: pathlib.Path
    lineno: int  # 1-based line of the opening fence
    lang: str
    code: str
    directive: Optional[str] = None  # "run" | "skip" | None

    @property
    def where(self) -> str:
        return f"{_rel(self.path)}:{self.lineno}"


def extract_blocks(path: pathlib.Path, text: str) -> List[Block]:
    blocks: List[Block] = []
    directive: Optional[str] = None
    in_fence = False
    lang = ""
    start = 0
    body: List[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        fence = FENCE_RE.match(line.strip()) if line.strip().startswith("```") else None
        if not in_fence:
            if fence is not None:
                in_fence = True
                lang = fence.group(1).lower()
                start = lineno
                body = []
                continue
            marker = DIRECTIVE_RE.search(line)
            if marker:
                directive = marker.group(1)
            elif line.strip():
                directive = None  # directives bind to the *next* fence only
        else:
            if line.strip() == "```":
                blocks.append(Block(path, start, lang, "\n".join(body), directive))
                in_fence = False
                directive = None
            else:
                body.append(line)
    return blocks


def extract_links(text: str) -> List[str]:
    return LINK_RE.findall(text)


# ---------------------------------------------------------------------------
# Flag verification


def _known_parsers() -> Dict[str, Set[str]]:
    """Map CLI spelling → the option strings its real parser accepts."""
    from repro.sim import reconfig_battery
    from repro.tools import bench_check, campaign, profview, scenario, traceview

    def opts(parser: argparse.ArgumentParser) -> Set[str]:
        return set(parser._option_string_actions)

    scenario_opts = opts(scenario.build_parser())
    campaign_opts = opts(campaign.build_parser())
    bench_opts = opts(bench_check.build_parser())
    traceview_opts = opts(traceview.build_parser())
    profview_opts = opts(profview.build_parser())
    battery_opts = opts(reconfig_battery.build_parser())
    docs_opts = opts(build_parser())
    return {
        "repro.tools.scenario": scenario_opts,
        "manetkit-scenario": scenario_opts,
        "repro.tools.campaign": campaign_opts,
        "repro.tools.bench_check": bench_opts,
        "repro.tools.traceview": traceview_opts,
        "repro.tools.profview": profview_opts,
        "repro.sim.reconfig_battery": battery_opts,
        "tools/check_docs.py": docs_opts,
        # golden_replay builds its parser inline inside main()
        "repro.tools.golden_replay": {"--update", "-h", "--help"},
    }


def iter_command_lines(block: Block) -> Iterable[str]:
    """Command lines of a bash/console block, continuations joined."""
    pending = ""
    for raw in block.code.splitlines():
        line = raw.rstrip()
        if block.lang == "console":
            if not pending:
                if not line.lstrip().startswith("$ "):
                    continue  # program output, not a command
                line = line.lstrip()[2:]
        if pending:
            line = pending + " " + line.lstrip()
            pending = ""
        if line.endswith("\\"):
            pending = line[:-1].rstrip()
            continue
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            yield stripped
    if pending:
        yield pending.strip()


def check_flags_in_line(line: str, parsers: Dict[str, Set[str]]) -> List[str]:
    """Return error strings for unknown flags documented in ``line``."""
    try:
        tokens = shlex.split(line, posix=True)
    except ValueError:
        return []  # unbalanced quotes: not a checkable command line
    target: Optional[str] = None
    flag_start = 0
    for i, token in enumerate(tokens):
        for spelling in parsers:
            if token == spelling or token.endswith("/" + spelling):
                target = spelling
                flag_start = i + 1
                break
        if target:
            break
    if target is None:
        return []
    errors = []
    for token in tokens[flag_start:]:
        if token == "--":
            break
        if token.startswith("--"):
            flag = token.split("=", 1)[0]
            if flag not in parsers[target]:
                errors.append(f"flag {flag!r} not accepted by {target}")
    return errors


# ---------------------------------------------------------------------------
# Block execution


def should_run(block: Block) -> bool:
    if block.directive == "skip":
        return False
    if block.directive == "run":
        return True
    if block.lang in {"python", "py"}:
        # Unmarked python auto-runs unless it is an elided illustration.
        return "..." not in block.code
    return False  # bash/console execute only on request


def run_block(block: Block, timeout: float) -> Optional[str]:
    """Execute a block; return an error string or None."""
    if block.lang in {"python", "py"}:
        argv = [sys.executable, "-c", block.code]
    elif block.lang in {"bash", "sh", "console"}:
        code = "\n".join(iter_command_lines(block))
        argv = ["bash", "-euo", "pipefail", "-c", code]
    else:
        return None
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            argv, cwd=REPO_ROOT, env=env, timeout=timeout,
            capture_output=True, text=True,
        )
    except subprocess.TimeoutExpired:
        return f"timed out after {timeout:.0f}s"
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-6:]
        detail = "\n      ".join(tail) or f"exit code {proc.returncode}"
        return f"exited {proc.returncode}:\n      {detail}"
    return None


# ---------------------------------------------------------------------------
# Driver


def default_files() -> List[pathlib.Path]:
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]


def check_file(
    path: pathlib.Path,
    parsers: Dict[str, Set[str]],
    timeout: float,
    no_exec: bool,
    report: List[str],
) -> Tuple[int, int]:
    """Check one document; append failures to ``report``.

    Returns (blocks_executed, failures).
    """
    text = path.read_text()
    rel = _rel(path)
    executed = 0
    failed = 0

    for target in extract_links(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        local = (path.parent / target.split("#", 1)[0]).resolve()
        if not local.exists():
            report.append(f"{rel}: broken link -> {target}")
            failed += 1

    for block in extract_blocks(path, text):
        if block.lang in COMMAND_LANGS:
            for line in iter_command_lines(block):
                for err in check_flags_in_line(line, parsers):
                    report.append(f"{block.where}: {err}\n      in: {line}")
                    failed += 1
        if no_exec or not should_run(block):
            continue
        if block.lang not in EXEC_LANGS and block.lang != "console":
            continue
        executed += 1
        err = run_block(block, timeout)
        if err is not None:
            report.append(f"{block.where}: [{block.lang}] block {err}")
            failed += 1
    return executed, failed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="check_docs", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "files", nargs="*", type=pathlib.Path,
        help="markdown files to check (default: README.md and docs/*.md)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-block execution timeout in seconds (default 300)",
    )
    parser.add_argument(
        "--no-exec", action="store_true",
        help="verify flags and links only; do not execute any block",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_blocks",
        help="list every fenced block and whether it would execute",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    files = [p.resolve() for p in args.files] or default_files()
    missing = [p for p in files if not p.is_file()]
    if missing:
        print(f"check_docs: no such file: {missing[0]}", file=sys.stderr)
        return 2
    parsers = _known_parsers()

    if args.list_blocks:
        for path in files:
            for block in extract_blocks(path, path.read_text()):
                verdict = "run" if should_run(block) else "skip"
                print(f"{block.where:<40} {block.lang or '(none)':<8} {verdict}")
        return 0

    report: List[str] = []
    total_exec = 0
    total_failed = 0
    for path in files:
        executed, failed = check_file(
            path, parsers, args.timeout, args.no_exec, report
        )
        total_exec += executed
        total_failed += failed
        status = "FAIL" if failed else "ok"
        print(
            f"check_docs: {status:<4} {_rel(path)}"
            f" ({executed} block(s) executed)"
        )
    for line in report:
        print(f"  - {line}", file=sys.stderr)
    if total_failed:
        print(f"check_docs: {total_failed} failure(s)", file=sys.stderr)
        return 1
    print(f"check_docs: all good ({total_exec} block(s) executed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
