"""A wall-clock scheduler with the same surface as the virtual one.

Consumers (the timer service, protocol sources, retry logic) only use
``now``, ``call_later``, ``call_at`` and the returned handle's ``cancel``
— so this drop-in replacement is all it takes to move a deployment from
simulated to real time.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
import traceback
from typing import Any, Callable, List

from repro.obs.trace import callback_name
from repro.utils.scheduler import ScheduledCall


class RealTimeScheduler:
    """Executes callbacks at wall-clock deadlines on a dedicated thread."""

    def __init__(self, name: str = "rt-scheduler") -> None:
        self._epoch = time.monotonic()
        self._heap: List[ScheduledCall] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._running = True
        self._cancelled = 0
        self.heap_compactions = 0
        self.errors: List[str] = []
        #: Optional :class:`repro.obs.Observability`.  For a wall-clock
        #: deployment both trace timestamps are wall time.
        self.obs = None
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()

    # -- the Scheduler surface the framework consumes -----------------------

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any):
        return self.call_at(self.now + max(delay, 0.0), callback, *args)

    def call_at(self, when: float, callback: Callable[..., Any], *args: Any):
        call = ScheduledCall(when, next(self._seq), callback, args)
        call._owner = self
        with self._wake:
            if not self._running:
                raise RuntimeError("scheduler is shut down")
            heapq.heappush(self._heap, call)
            self._wake.notify()
        return call

    def _note_cancelled(self, call: ScheduledCall) -> None:
        """Compact the heap when cancelled entries outnumber live ones.

        Without this, a cancelled call stays queued until its deadline —
        it wakes the loop spuriously and, under heavy timer churn
        (rescheduled periodic timers), the heap grows without bound.
        """
        with self._wake:
            self._cancelled += 1
            if self._cancelled * 2 > len(self._heap):
                live = [entry for entry in self._heap if not entry.cancelled]
                if len(live) != len(self._heap):
                    self._heap = live
                    heapq.heapify(self._heap)
                    self.heap_compactions += 1
                self._cancelled = 0
            self._wake.notify()

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self, timeout: float = 2.0) -> None:
        with self._wake:
            self._running = False
            self._wake.notify_all()
        self._thread.join(timeout)

    # -- loop --------------------------------------------------------------------

    def _loop(self) -> None:
        while True:
            with self._wake:
                while self._running:
                    while self._heap and self._heap[0].cancelled:
                        heapq.heappop(self._heap)
                        if self._cancelled > 0:
                            self._cancelled -= 1
                    if not self._heap:
                        self._wake.wait(0.1)
                        continue
                    delay = self._heap[0].when - self.now
                    if delay <= 0:
                        call = heapq.heappop(self._heap)
                        break
                    self._wake.wait(min(delay, 0.1))
                else:
                    return
            probe = None if self.obs is None else self.obs.probe
            try:
                if probe is None:
                    call.callback(*call.args)
                else:
                    name = callback_name(call.callback)
                    with probe.span("rt.dispatch", name, callback=name):
                        call.callback(*call.args)
            except Exception:
                # A broken callback must not kill every timer on the node.
                self.errors.append(traceback.format_exc())
