"""Behavioural contract of the extracted worker-process machinery.

These pin the pool semantics the campaign runner used to own privately:
exactly-one payload per worker, clean errors never retried, and crash
and timeout retried up to ``retries``.  The campaign suite covers the
same behaviour end to end through its CLI; this file covers it at the
:mod:`repro.tools.workers` API boundary.
"""

import os
import time

from repro.tools.workers import CRASH_HOOK_EXIT, Job, ProcessPool


def _ok_target(conn, value):
    conn.send({"ok": True, "result": value * 2})


def _error_target(conn, value):
    conn.send({"ok": False, "error": f"ValueError: bad {value}"})


def _crash_once_target(conn, marker):
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(CRASH_HOOK_EXIT)
    conn.send({"ok": True, "result": "recovered"})


def _always_crash_target(conn):
    os._exit(CRASH_HOOK_EXIT)


def _sleep_target(conn, seconds):
    time.sleep(seconds)
    conn.send({"ok": True, "result": None})


class TestProcessPool:
    def test_runs_jobs_and_returns_results(self):
        pool = ProcessPool(_ok_target, workers=2)
        outcomes = pool.run([Job(key=f"j{i}", args=(i,)) for i in range(5)])
        assert len(outcomes) == 5
        by_key = {o.job.key: o for o in outcomes}
        for i in range(5):
            outcome = by_key[f"j{i}"]
            assert outcome.status == "ok"
            assert outcome.result == i * 2
            assert outcome.attempts == 1

    def test_clean_error_is_not_retried(self):
        events = []
        pool = ProcessPool(
            _error_target, retries=3,
            on_event=lambda kind, job, attempt: events.append(kind),
        )
        (outcome,) = pool.run([Job(key="bad", args=(7,))])
        assert outcome.status == "error"
        assert outcome.attempts == 1
        assert "bad 7" in outcome.error
        assert events == []

    def test_crash_is_retried_then_succeeds(self, tmp_path):
        events = []
        pool = ProcessPool(
            _crash_once_target, retries=1,
            on_event=lambda kind, job, attempt: events.append((kind, attempt)),
        )
        marker = str(tmp_path / "crash-once")
        (outcome,) = pool.run([Job(key="flaky", args=(marker,))])
        assert outcome.status == "ok"
        assert outcome.result == "recovered"
        assert outcome.attempts == 2
        assert ("crash", 1) in events
        assert ("retry", 1) in events

    def test_crash_retries_exhausted(self):
        pool = ProcessPool(_always_crash_target, retries=1)
        (outcome,) = pool.run([Job(key="doomed")])
        assert outcome.status == "crash"
        assert outcome.attempts == 2
        assert outcome.exitcode == CRASH_HOOK_EXIT
        assert str(CRASH_HOOK_EXIT) in outcome.error

    def test_timeout_kills_and_reports(self):
        events = []
        pool = ProcessPool(
            _sleep_target, retries=0, timeout=0.3,
            on_event=lambda kind, job, attempt: events.append(kind),
        )
        (outcome,) = pool.run([Job(key="slow", args=(30.0,))])
        assert outcome.status == "timeout"
        assert "timeout" in outcome.error
        assert events == ["timeout"]

    def test_tag_rides_through_to_outcome(self):
        pool = ProcessPool(_ok_target)
        (outcome,) = pool.run([Job(key="k", args=(1,), tag={"spec": 42})])
        assert outcome.job.tag == {"spec": 42}

    def test_on_tick_reports_idle_at_end(self):
        ticks = []
        pool = ProcessPool(_ok_target, on_tick=lambda a, q: ticks.append((a, q)))
        pool.run([Job(key="k", args=(1,))])
        assert ticks[-1] == (0, 0)

