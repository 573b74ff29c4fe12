"""The concurrency models themselves.

A model delivers events to *units* — any object exposing ``name``,
``process_event(event)`` and a reentrant ``lock`` (the unit's critical
section).  ManetProtocol CFs satisfy this contract.

Correctness obligations shared by every model (paper section 4.4):

* **atomic handlers** — a unit's ``process_event`` runs under the unit's
  critical-section lock, so no two events are processed concurrently by
  the same protocol;
* **FIFO order** — events dispatched to a unit are processed in dispatch
  order, so protocols sharing an interest in a set of events all observe
  the same sequence;
* **drainability** — ``drain()`` blocks until all in-flight events have
  been fully processed, which both the simulator (between deliveries, for
  determinism) and the reconfiguration engine (before surgery) rely on.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Deque, Dict, Tuple

from repro.events.event import Event


class ConcurrencyModel(ABC):
    """Delivery strategy for events travelling up from the System CF."""

    def __init__(self) -> None:
        self.dispatched = 0
        self.processed = 0
        self._stats_lock = threading.Lock()
        self._idle = threading.Condition(self._stats_lock)

    # -- accounting shared by all models ------------------------------------

    def _note_dispatched(self) -> None:
        with self._stats_lock:
            self.dispatched += 1

    def _note_processed(self) -> None:
        with self._idle:
            self.processed += 1
            if self.processed == self.dispatched:
                self._idle.notify_all()

    @property
    def in_flight(self) -> int:
        with self._stats_lock:
            return self.dispatched - self.processed

    def drain(self, timeout: float = 10.0) -> bool:
        """Wait until every dispatched event has been processed.

        Handlers may dispatch new events while the drain waits; a model
        that buffers them is flushed again until it is idle with nothing
        buffered.  Returns ``False`` if ``timeout`` seconds pass first.
        """
        deadline = time.monotonic() + timeout
        while True:
            self._pre_drain()
            with self._idle:
                self._idle.wait_for(
                    lambda: self.processed == self.dispatched or self._buffered(),
                    max(0.0, deadline - time.monotonic()),
                )
                if self.processed == self.dispatched:
                    return True
            if time.monotonic() >= deadline:
                return False

    def _pre_drain(self) -> None:
        """Hook for models that buffer events (flush before waiting)."""

    def _buffered(self) -> bool:
        """Whether events wait in a buffer that only a flush releases."""
        return False

    def _run(self, unit: Any, event: Event) -> None:
        """Process one event under the unit's critical section."""
        try:
            with unit.lock:
                unit.process_event(event)
        finally:
            self._note_processed()

    # -- abstract API ----------------------------------------------------------

    @abstractmethod
    def dispatch(self, unit: Any, event: Event) -> None:
        """Deliver ``event`` to ``unit`` according to this model."""

    def shutdown(self) -> None:
        """Release any threads the model owns (idempotent)."""

    @property
    def model_name(self) -> str:
        return type(self).__name__


class SingleThreaded(ConcurrencyModel):
    """All protocols share the caller's single thread.

    The same thread is used to call each interested protocol in turn; the
    obvious benefit is the absence of race conditions, and the model is
    applicable to primitive low-resource environments such as sensor motes
    (paper section 4.4).  This is also the model under which the discrete-
    event simulator is deterministic, and the one the paper's evaluation
    used (section 6).
    """

    def dispatch(self, unit: Any, event: Event) -> None:
        self._note_dispatched()
        self._run(unit, event)


class ThreadPerMessage(ConcurrencyModel):
    """A distinct thread shepherds each event up the protocol graph.

    FIFO order per unit is kept by routing each event through a per-unit
    queue: worker threads contend on the unit's order lock and always take
    the *oldest* queued event, so even if the OS scheduler runs them out of
    spawn order, processing order matches dispatch order.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queues: Dict[int, Deque[Event]] = {}
        self._order_locks: Dict[int, threading.Lock] = {}
        self._registry_lock = threading.Lock()

    def dispatch(self, unit: Any, event: Event) -> None:
        self._note_dispatched()
        with self._registry_lock:
            queue = self._queues.setdefault(id(unit), deque())
            order_lock = self._order_locks.setdefault(id(unit), threading.Lock())
        queue.append(event)
        worker = threading.Thread(
            target=self._shepherd, args=(unit, queue, order_lock), daemon=True
        )
        worker.start()

    def _shepherd(
        self, unit: Any, queue: Deque[Event], order_lock: threading.Lock
    ) -> None:
        with order_lock:
            event = queue.popleft()
            self._run(unit, event)


class ThreadPerNMessages(ThreadPerMessage):
    """Midway point: one shepherd thread per batch of ``n`` events.

    Events accumulate per unit until ``n`` are waiting (or ``drain`` forces
    a flush), then a single thread processes the whole batch in order.
    """

    def __init__(self, n: int = 4) -> None:
        super().__init__()
        if n < 1:
            raise ValueError(f"batch size must be >= 1, got {n}")
        self.n = n
        self._pending: Dict[int, Tuple[Any, Deque[Event]]] = {}
        self._pending_lock = threading.Lock()

    def dispatch(self, unit: Any, event: Event) -> None:
        self._note_dispatched()
        with self._pending_lock:
            _unit, batch = self._pending.setdefault(id(unit), (unit, deque()))
            batch.append(event)
            if len(batch) < self.n:
                return
            del self._pending[id(unit)]
        self._spawn_batch(unit, batch)

    def _pre_drain(self) -> None:
        with self._pending_lock:
            flushing = list(self._pending.values())
            self._pending.clear()
        for unit, batch in flushing:
            self._spawn_batch(unit, batch)

    def _buffered(self) -> bool:
        return bool(self._pending)

    def _spawn_batch(self, unit: Any, batch: Deque[Event]) -> None:
        with self._registry_lock:
            order_lock = self._order_locks.setdefault(id(unit), threading.Lock())

        def shepherd() -> None:
            with order_lock:
                for event in batch:
                    self._run(unit, event)
            # The batch may have buffered new events; wake a waiting
            # drain so it flushes them.
            with self._idle:
                self._idle.notify_all()

        threading.Thread(target=shepherd, daemon=True).start()


class ThreadPerProtocol(ConcurrencyModel):
    """Each protocol instance owns a dedicated thread and FIFO queue.

    A thread passing an event from the layer below returns immediately; the
    event is handed to the unit's dedicated thread (paper section 4.4).
    Units are attached lazily on first dispatch, or explicitly via
    :meth:`attach`, and this model can wrap *around* another model so that
    only selected protocols get dedicated threads (per-instance selection).
    """

    _POLL = 0.05  # seconds the dedicated thread waits for new events

    def __init__(self) -> None:
        super().__init__()
        self._workers: Dict[int, "_DedicatedWorker"] = {}
        self._registry_lock = threading.Lock()
        self._stopped = False

    def attach(self, unit: Any) -> None:
        with self._registry_lock:
            if id(unit) not in self._workers:
                self._workers[id(unit)] = _DedicatedWorker(self, unit)

    def dispatch(self, unit: Any, event: Event) -> None:
        self._note_dispatched()
        self.attach(unit)
        self._workers[id(unit)].enqueue(event)

    def shutdown(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        with self._registry_lock:
            workers = list(self._workers.values())
        for worker in workers:
            worker.stop()


class _DedicatedWorker:
    """The dedicated thread + FIFO queue of one protocol instance."""

    def __init__(self, model: ThreadPerProtocol, unit: Any) -> None:
        self.model = model
        self.unit = unit
        self._queue: Deque[Event] = deque()
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._stop = False
        name = getattr(unit, "name", "unit")
        self._thread = threading.Thread(
            target=self._loop, name=f"proto-{name}", daemon=True
        )
        self._thread.start()

    def enqueue(self, event: Event) -> None:
        with self._ready:
            self._queue.append(event)
            self._ready.notify()

    def stop(self) -> None:
        with self._ready:
            self._stop = True
            self._ready.notify_all()
        self._thread.join(timeout=2.0)

    def _loop(self) -> None:
        while True:
            with self._ready:
                while not self._queue and not self._stop:
                    self._ready.wait(ThreadPerProtocol._POLL)
                if self._stop and not self._queue:
                    return
                event = self._queue.popleft() if self._queue else None
            if event is not None:
                self.model._run(self.unit, event)


_MODELS = {
    "single-threaded": SingleThreaded,
    "thread-per-message": ThreadPerMessage,
    "thread-per-n-messages": ThreadPerNMessages,
    "thread-per-protocol": ThreadPerProtocol,
}


def make_model(name: str, **kwargs: Any) -> ConcurrencyModel:
    """Instantiate a concurrency model by its paper name."""
    try:
        factory = _MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown concurrency model {name!r}; choose from {sorted(_MODELS)}"
        ) from None
    return factory(**kwargs)
