"""Multi-core component scheduling with batched work stealing (paper §3).

A pool of worker threads executes ready components.  Every component is
idle, ready, or busy; each worker owns a dedicated queue of ready
components and processes one event in one component at a time.  A worker
that runs out of ready components becomes a *thief*: it picks the *victim*
with the most ready components and steals a batch of half of them (the
paper reports that batching substantially outperforms stealing single
components — reproduced in ``benchmarks/bench_work_stealing_ablation.py``).

Python's GIL serializes bytecode execution, so this scheduler reproduces
the *scheduling structure* (queues, batching, stealing behaviour), not
parallel CPU speedup; see EXPERIMENTS.md.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from typing import TYPE_CHECKING, Optional

from .scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from ..core.component import ComponentCore


class _Worker(threading.Thread):
    """One scheduler worker with a dedicated ready-component queue."""

    def __init__(self, scheduler: "WorkStealingScheduler", index: int) -> None:
        super().__init__(name=f"kompics-worker-{index}", daemon=True)
        self.scheduler = scheduler
        self.index = index
        self.ready: deque["ComponentCore"] = deque()
        self.lock = threading.Lock()
        # Stats (written only by this thread, except pushes from schedule()).
        self.executed_slots = 0
        self.steal_attempts = 0
        self.steals = 0
        self.components_stolen = 0

    # -------------------------------------------------------------- queue ops

    def push(self, component: "ComponentCore") -> None:
        with self.lock:
            self.ready.append(component)

    def pop(self) -> Optional["ComponentCore"]:
        with self.lock:
            if self.ready:
                return self.ready.popleft()
        return None

    def queue_length(self) -> int:
        return len(self.ready)

    # ------------------------------------------------------------------- loop

    def run(self) -> None:
        scheduler = self.scheduler
        while scheduler.running:
            component = self.pop() or self.steal()
            if component is None:
                with scheduler.condition:
                    # Counted before the queue is looked at: a push that
                    # finds no sleeper happened before this check saw it.
                    scheduler.sleeping += 1
                    if scheduler.running and not self.ready:
                        scheduler.condition.wait(timeout=scheduler.idle_wait)
                    scheduler.sleeping -= 1
                continue
            self.executed_slots += 1
            if component.execute(scheduler.throughput):
                self.push(component)

    def steal(self) -> Optional["ComponentCore"]:
        """Steal a batch of ready components from the most loaded victim."""
        self.steal_attempts += 1
        victim = None
        victim_length = 0
        for other in self.scheduler.workers:
            if other is self:
                continue
            length = other.queue_length()
            if length > victim_length:
                victim, victim_length = other, length
        if victim is None or victim_length == 0:
            return None
        with victim.lock:
            available = len(victim.ready)
            if available == 0:
                return None
            batch = self.scheduler.batch_size(available)
            # Steal the oldest components (FIFO front) so long-waiting
            # components migrate to the idle worker.
            stolen = [victim.ready.popleft() for _ in range(min(batch, available))]
        self.steals += 1
        self.components_stolen += len(stolen)
        first, rest = stolen[0], stolen[1:]
        if rest:
            with self.lock:
                self.ready.extend(rest)
        return first


class WorkStealingScheduler(Scheduler):
    """The production scheduler: worker pool + batched work stealing."""

    def __init__(
        self,
        workers: int = 4,
        throughput: int = 1,
        steal_batch: int | str = "half",
        idle_wait: float = 0.005,
    ) -> None:
        super().__init__(throughput)
        if workers < 1:
            raise ValueError("need at least one worker")
        if steal_batch != "half" and (not isinstance(steal_batch, int) or steal_batch < 1):
            raise ValueError("steal_batch must be 'half' or a positive int")
        self.worker_count = workers
        self.steal_batch = steal_batch
        self.idle_wait = idle_wait
        self.workers: list[_Worker] = []
        self.condition = threading.Condition()
        #: Workers inside (or about to enter) the idle wait; written under
        #: ``condition``, read without it by schedule().
        self.sleeping = 0
        self.running = False
        # itertools.count: atomic under the GIL, unlike a read-modify-write
        # on an int — several external threads (network, timers) may place
        # components concurrently.
        self._placement = itertools.count()
        self._pre_start: deque["ComponentCore"] = deque()

    def batch_size(self, available: int) -> int:
        if self.steal_batch == "half":
            return max(1, available // 2)
        return int(self.steal_batch)

    def start(self) -> None:
        with self.condition:
            if self.running:
                return
            self.running = True
            self.workers = [_Worker(self, i) for i in range(self.worker_count)]
        for worker in self.workers:
            worker.start()
        while True:
            with self.condition:
                if not self._pre_start:
                    break
                component = self._pre_start.popleft()
            self.schedule(component)

    def schedule(self, component: "ComponentCore") -> None:
        if not self.running:
            # Components scheduled before start() (e.g. Init during
            # bootstrap construction) are held and flushed on start.  The
            # running flag is re-checked under the lock so a component
            # can't slip into _pre_start after start() drained it.
            with self.condition:
                if not self.running:
                    self._pre_start.append(component)
                    return
        current = threading.current_thread()
        if isinstance(current, _Worker) and current.scheduler is self:
            current.push(component)
        else:
            # External thread (network/timer/main): round-robin placement.
            index = next(self._placement) % len(self.workers)
            self.workers[index].push(component)
        if self.sleeping:
            with self.condition:
                self.condition.notify()

    def shutdown(self, wait: bool = True) -> None:
        self.running = False
        with self.condition:
            self.condition.notify_all()
        if wait:
            for worker in self.workers:
                worker.join(timeout=2.0)

    # ------------------------------------------------------------------ stats

    def stats(self) -> dict[str, int]:
        """Aggregate scheduling statistics across workers."""
        return {
            "executed_slots": sum(w.executed_slots for w in self.workers),
            "steal_attempts": sum(w.steal_attempts for w in self.workers),
            "steals": sum(w.steals for w in self.workers),
            "components_stolen": sum(w.components_stolen for w in self.workers),
        }


class SingleThreadScheduler(WorkStealingScheduler):
    """A one-worker scheduler: serial execution on a background thread."""

    def __init__(self, throughput: int = 1) -> None:
        super().__init__(workers=1, throughput=throughput)
