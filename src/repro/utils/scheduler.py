"""Discrete-event scheduler over a :class:`~repro.utils.clock.VirtualClock`.

The scheduler is the single ordering authority for a simulation: packet
deliveries, protocol timers, mobility steps and context-sensor polls are all
scheduled calls.  Events with equal timestamps run in insertion order, which
keeps runs deterministic.

Two queue structures back the one logical timeline:

* a binary **heap** for immediate work (sub-:data:`WHEEL_GRANULARITY`
  deliveries, zero-delay callbacks) and far deadlines beyond the wheel's
  horizon;
* a hashed **timer wheel** for the protocol-timer band (HELLO/TC
  intervals, route lifetimes) — insertion and cancellation are O(1), and
  the dominant churn of periodic timers stops rippling through the heap.

Entries are routed automatically by delay; the pop order is the exact
``(when, seq)`` total order of a single queue, so the split is invisible
to behaviour.  Cancelled entries no longer leak until their deadline:
wheel buckets drop them on scan (with a sweep when they pile up), and the
heap is compacted whenever cancelled entries outnumber live ones.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.trace import callback_name
from repro.utils.clock import VirtualClock

#: Wheel bucket width in seconds.  Delays shorter than one bucket (packet
#: deliveries, zero-delay handoffs) stay on the heap.
WHEEL_GRANULARITY = 0.05
#: Number of wheel buckets; the horizon is ``GRANULARITY * SLOTS`` (12.8 s
#: with the defaults) — far deadlines fall back to the heap.
WHEEL_SLOTS = 256


class ScheduledCall:
    """Handle to a scheduled callback; allows cancellation."""

    __slots__ = ("when", "seq", "callback", "args", "cancelled", "_owner", "_in_wheel")

    def __init__(
        self,
        when: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
    ) -> None:
        self.when = when
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner: Optional["Scheduler"] = None
        self._in_wheel = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self._owner
        if owner is not None:
            owner._note_cancelled(self)

    def __lt__(self, other: "ScheduledCall") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.when:.6f} {state} {self.callback!r}>"


class Scheduler:
    """A deterministic discrete-event scheduler.

    The scheduler owns a :class:`VirtualClock` and advances it as it pops
    events.  ``run_until`` / ``run_for`` are the main driving loops; ``step``
    executes exactly one event, which the tests use for fine-grained
    assertions.
    """

    def __init__(self, clock: Optional[VirtualClock] = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: List[ScheduledCall] = []
        self._seq = itertools.count()
        self._executed = 0
        # Timer wheel state.  Every resident entry satisfies
        # ``tick(when) - tick(now) < WHEEL_SLOTS`` (enforced at insert, and
        # preserved as ``now`` only advances), so scanning buckets forward
        # from the current tick visits entries in non-decreasing bucket
        # time and the first non-empty bucket contains the wheel minimum.
        self._wheel: Dict[int, List[ScheduledCall]] = {}
        self._wheel_live = 0
        self._wheel_cancelled = 0
        self._wheel_next: Optional[ScheduledCall] = None
        self._heap_cancelled = 0
        #: timerwheel.* counters (published by the simulation's metrics
        #: collector): how entries were routed and how many cancelled
        #: entries were reclaimed before their deadline.
        self.wheel_scheduled = 0
        self.heap_scheduled = 0
        self.cancelled_purged = 0
        self.heap_compactions = 0
        #: Optional :class:`repro.obs.Observability`; while its probe is
        #: live every dispatched callback runs inside a ``sched.dispatch``
        #: profiler frame + trace span.
        self.obs = None

    # -- scheduling -------------------------------------------------------

    def call_at(
        self, when: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledCall:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        now = self.clock.now()
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        call = ScheduledCall(when, next(self._seq), callback, args)
        call._owner = self
        if (
            when - now >= WHEEL_GRANULARITY
            and int(when / WHEEL_GRANULARITY) - int(now / WHEEL_GRANULARITY)
            < WHEEL_SLOTS
        ):
            self._wheel_insert(call)
        else:
            self.heap_scheduled += 1
            heapq.heappush(self._heap, call)
        return call

    def call_later(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> ScheduledCall:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.call_at(self.clock.now() + delay, callback, *args)

    # -- introspection ----------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now()

    @property
    def executed_count(self) -> int:
        """Number of callbacks executed so far (cancelled ones excluded)."""
        return self._executed

    def pending_count(self) -> int:
        """Number of not-yet-cancelled calls still queued."""
        return (
            sum(1 for call in self._heap if not call.cancelled)
            + self._wheel_live
        )

    def next_event_time(self) -> Optional[float]:
        """Timestamp of the earliest pending call, or ``None`` if idle."""
        upcoming = self._peek()
        if upcoming is None:
            return None
        return upcoming.when

    # -- execution --------------------------------------------------------

    def step(self) -> bool:
        """Execute the single earliest pending call.

        Returns ``True`` if a callback ran, ``False`` if the queue was
        empty.  The clock is advanced to the callback's timestamp before it
        runs.
        """
        call = self._peek()
        if call is None:
            return False
        if call._in_wheel:
            self._wheel_remove(call)
        else:
            heapq.heappop(self._heap)
        call._owner = None
        self.clock.set_time(call.when)
        self._executed += 1
        probe = None if self.obs is None else self.obs.probe
        if probe is None:
            call.callback(*call.args)
            return True
        name = callback_name(call.callback)
        with probe.span("sched.dispatch", name, callback=name):
            call.callback(*call.args)
        return True

    def run_until(
        self,
        deadline: float,
        max_events: Optional[int] = None,
        inclusive: bool = True,
    ) -> int:
        """Run events up to ``deadline``; advance the clock to it.

        With ``inclusive=True`` (the default) events stamped exactly at
        the deadline run; with ``inclusive=False`` they stay queued —
        the mode a sharded epoch uses so that an event sitting exactly
        on a barrier fires on the same side of it as in an unsharded
        run (the *final* epoch of a phase is inclusive, matching
        :meth:`run_until`'s default semantics end to end).

        Returns the number of callbacks executed.  ``max_events`` is a
        safety valve against runaway event storms; when it trips, the
        clock is NOT advanced past the stranded events (advancing would
        leave past-dated work that a later ``step`` could never run).
        """
        executed = 0
        truncated = False
        while True:
            upcoming = self.next_event_time()
            if upcoming is None:
                break
            if (upcoming > deadline) if inclusive else (upcoming >= deadline):
                break
            if max_events is not None and executed >= max_events:
                truncated = True
                break
            self.step()
            executed += 1
        if not truncated and self.clock.now() < deadline:
            self.clock.set_time(deadline)
        return executed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run events for ``duration`` simulated seconds from now."""
        return self.run_until(self.clock.now() + duration, max_events=max_events)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Drain every pending event regardless of timestamp."""
        executed = 0
        while executed < max_events and self.step():
            executed += 1
        return executed

    # -- internals --------------------------------------------------------

    def _peek(self) -> Optional[ScheduledCall]:
        """The earliest pending call across both queues (not removed)."""
        self._drop_cancelled_head()
        heap_head = self._heap[0] if self._heap else None
        wheel_head = self._wheel_peek()
        if heap_head is None:
            return wheel_head
        if wheel_head is None:
            return heap_head
        return heap_head if heap_head < wheel_head else wheel_head

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
            self._heap_cancelled -= 1

    def _note_cancelled(self, call: ScheduledCall) -> None:
        """Cancellation hook: reclaim queue residency eagerly."""
        if call._in_wheel:
            self._wheel_live -= 1
            self._wheel_cancelled += 1
            if self._wheel_next is call:
                self._wheel_next = None
            if self._wheel_cancelled > max(8, self._wheel_live):
                self._wheel_sweep()
        else:
            self._heap_cancelled += 1
            if self._heap_cancelled * 2 > len(self._heap):
                self._compact_heap()

    def _compact_heap(self) -> None:
        live = [call for call in self._heap if not call.cancelled]
        self.cancelled_purged += len(self._heap) - len(live)
        self._heap = live
        heapq.heapify(self._heap)
        self._heap_cancelled = 0
        self.heap_compactions += 1

    # -- timer wheel ------------------------------------------------------

    def _wheel_insert(self, call: ScheduledCall) -> None:
        call._in_wheel = True
        self.wheel_scheduled += 1
        self._wheel_live += 1
        slot = int(call.when / WHEEL_GRANULARITY) % WHEEL_SLOTS
        bucket = self._wheel.get(slot)
        if bucket is None:
            bucket = self._wheel[slot] = []
        bucket.append(call)
        if self._wheel_next is not None and call < self._wheel_next:
            self._wheel_next = call

    def _wheel_remove(self, call: ScheduledCall) -> None:
        call._in_wheel = False
        self._wheel_live -= 1
        if self._wheel_next is call:
            self._wheel_next = None
        slot = int(call.when / WHEEL_GRANULARITY) % WHEEL_SLOTS
        bucket = self._wheel.get(slot)
        if bucket is not None:
            bucket.remove(call)
            if not bucket:
                del self._wheel[slot]

    def _wheel_peek(self) -> Optional[ScheduledCall]:
        cached = self._wheel_next
        if cached is not None and not cached.cancelled:
            return cached
        self._wheel_next = None
        if self._wheel_live == 0:
            return None
        start = int(self.clock.now() / WHEEL_GRANULARITY)
        for offset in range(WHEEL_SLOTS):
            slot = (start + offset) % WHEEL_SLOTS
            bucket = self._wheel.get(slot)
            if not bucket:
                continue
            live = [call for call in bucket if not call.cancelled]
            if len(live) != len(bucket):
                purged = len(bucket) - len(live)
                self._wheel_cancelled -= purged
                self.cancelled_purged += purged
                if live:
                    bucket[:] = live
                else:
                    del self._wheel[slot]
                    continue
            # Single-revolution invariant: the first non-empty bucket in
            # scan order holds the earliest wheel entries.
            self._wheel_next = min(live)
            return self._wheel_next
        return None

    def _wheel_sweep(self) -> None:
        """Drop every cancelled entry still resident in a bucket."""
        for slot in list(self._wheel):
            bucket = self._wheel[slot]
            live = [call for call in bucket if not call.cancelled]
            if len(live) == len(bucket):
                continue
            self.cancelled_purged += len(bucket) - len(live)
            if live:
                bucket[:] = live
            else:
                del self._wheel[slot]
        self._wheel_cancelled = 0
