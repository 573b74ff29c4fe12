"""Reusable worker-process machinery: a crash-tolerant process pool.

Extracted from :mod:`repro.tools.campaign` (PR 4 built it there for the
sweep runner) so that *any* subsystem can fan work out over
shared-nothing processes with the same crash/timeout/retry semantics:

* :class:`ProcessPool` — the campaign's launch/reap loop, generalised.
  Each :class:`Job` runs ``target(conn, *job.args)`` in its own process
  (``fork`` start method where available) and ships one payload dict
  back over a one-way pipe: ``{"ok": True, "result": ...}`` on success
  or ``{"ok": False, "error": "..."}`` on a clean Python error.  A
  worker that dies or exceeds ``timeout`` is retried up to ``retries``
  times, then recorded as failed; clean errors are deterministic and are
  never retried.

Behavioural contract is pinned by ``tests/tools/test_workers.py`` and —
via the campaign runner that now delegates here — by
``tests/tools/test_campaign.py`` and the ``BENCH_campaign.json`` gate.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Exit status a worker uses when a test-only crash hook fires; chosen
#: to be visibly distinct from Python's generic exit codes in logs.
CRASH_HOOK_EXIT = 23


def default_context() -> multiprocessing.context.BaseContext:
    """The start-method context pool machinery uses: fork where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


# -- one-shot process pool ---------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One unit of pool work.

    ``key`` identifies the job across retries (and in callbacks);
    ``args`` are passed to the pool target after the result pipe;
    ``tag`` is an opaque caller payload carried through to the outcome
    (the campaign stores its :class:`~repro.tools.campaign.RunSpec`).
    """

    key: str
    args: Tuple[Any, ...] = ()
    tag: Any = None


@dataclass
class JobOutcome:
    """Terminal result of one job, after any retries.

    ``status`` is ``"ok"`` (payload carries the result), ``"error"``
    (the worker reported a clean Python error — deterministic, not
    retried), or ``"crashed"`` / ``"timeout"`` (retries exhausted).
    """

    job: Job
    status: str
    attempts: int
    wall_s: float
    result: Any = None
    error: Optional[str] = None
    exitcode: Optional[int] = None


class _ActiveJob:
    __slots__ = ("job", "process", "conn", "started", "attempt", "deadline")

    def __init__(self, job, process, conn, started, attempt, deadline):
        self.job = job
        self.process = process
        self.conn = conn
        self.started = started
        self.attempt = attempt
        self.deadline = deadline


class ProcessPool:
    """Fan jobs out over worker processes with crash/timeout retry.

    ``target(conn, *job.args)`` runs in the child and must send exactly
    one ``{"ok": bool, ...}`` payload over ``conn`` (or die, which the
    parent treats as a crash).  Callbacks, all optional and invoked in
    the parent:

    * ``on_outcome(outcome)`` — once per job, in completion order, when
      the job reaches a terminal state.
    * ``on_event(kind, job, attempt)`` — ``kind`` in ``{"crash",
      "timeout", "retry"}``, as each non-terminal incident happens.
    * ``on_tick(active, queued)`` — once per scheduler pass, for
      progress displays.
    """

    def __init__(
        self,
        target: Callable[..., None],
        workers: int = 1,
        retries: int = 1,
        timeout: Optional[float] = None,
        on_outcome: Optional[Callable[[JobOutcome], None]] = None,
        on_event: Optional[Callable[[str, Job, int], None]] = None,
        on_tick: Optional[Callable[[int, int], None]] = None,
        context: Optional[multiprocessing.context.BaseContext] = None,
    ) -> None:
        self.target = target
        self.workers = max(1, int(workers))
        self.retries = max(0, int(retries))
        self.timeout = timeout
        self.on_outcome = on_outcome
        self.on_event = on_event
        self.on_tick = on_tick
        self._ctx = context if context is not None else default_context()

    def run(self, jobs: Sequence[Job]) -> List[JobOutcome]:
        """Run every job to a terminal outcome; completion order."""
        queue: List[Job] = list(jobs)
        active: List[_ActiveJob] = []
        attempts: Dict[str, int] = {}
        outcomes: List[JobOutcome] = []

        def emit(event: str, job: Job, attempt: int) -> None:
            if self.on_event is not None:
                self.on_event(event, job, attempt)

        def finish(outcome: JobOutcome) -> None:
            outcomes.append(outcome)
            if self.on_outcome is not None:
                self.on_outcome(outcome)

        def launch(job: Job) -> None:
            attempt = attempts.get(job.key, 0) + 1
            attempts[job.key] = attempt
            parent_conn, child_conn = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=self.target,
                args=(child_conn,) + tuple(job.args),
                daemon=True,
            )
            process.start()
            child_conn.close()
            now = time.perf_counter()
            deadline = now + self.timeout if self.timeout else None
            active.append(_ActiveJob(
                job, process, parent_conn, now, attempt, deadline
            ))

        def reap(entry: _ActiveJob, timed_out: bool) -> None:
            active.remove(entry)
            wall = time.perf_counter() - entry.started
            payload = None
            if not timed_out:
                try:
                    if entry.conn.poll():
                        payload = entry.conn.recv()
                except (EOFError, OSError):
                    payload = None
            entry.conn.close()
            if timed_out:
                entry.process.terminate()
            entry.process.join(timeout=10.0)
            if entry.process.is_alive():  # pragma: no cover - last resort
                entry.process.kill()
                entry.process.join()

            if payload is not None and payload.get("ok"):
                finish(JobOutcome(
                    job=entry.job, status="ok", attempts=entry.attempt,
                    wall_s=wall, result=payload.get("result"),
                ))
                return
            if payload is not None:
                # Clean worker error: deterministic, never retried.
                finish(JobOutcome(
                    job=entry.job, status="error", attempts=entry.attempt,
                    wall_s=wall, error=payload.get("error"),
                ))
                return
            kind = "timeout" if timed_out else "crash"
            emit(kind, entry.job, entry.attempt)
            if entry.attempt <= self.retries:
                emit("retry", entry.job, entry.attempt)
                launch(entry.job)
                return
            label = "timeout" if timed_out else "worker crash"
            finish(JobOutcome(
                job=entry.job, status=kind, attempts=entry.attempt,
                wall_s=wall, exitcode=entry.process.exitcode,
                error=f"{label} (exit code {entry.process.exitcode}), "
                      f"retries exhausted",
            ))

        while queue or active:
            while queue and len(active) < self.workers:
                launch(queue.pop(0))
            if self.on_tick is not None:
                self.on_tick(len(active), len(queue))
            now = time.perf_counter()
            wait_for = 0.5
            for entry in active:
                if entry.deadline is not None:
                    wait_for = min(wait_for, max(0.0, entry.deadline - now))
            ready = connection_wait(
                [entry.conn for entry in active], timeout=wait_for
            )
            ready_set = set(ready)
            now = time.perf_counter()
            for entry in list(active):
                if entry.conn in ready_set:
                    reap(entry, timed_out=False)
                elif entry.deadline is not None and now > entry.deadline:
                    reap(entry, timed_out=True)
        if self.on_tick is not None:
            self.on_tick(0, 0)
        return outcomes

