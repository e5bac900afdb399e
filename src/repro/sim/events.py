"""A minimal discrete-event simulation engine.

The paper's performance results (Figs 6–8) are wall-clock measurements on a
Xeon cluster.  Measuring a Python reimplementation with wall clocks would
say more about CPython than about Orthrus, so the benchmark harness runs
application threads, validator threads, and the RBV replica as *processes*
in virtual time on this engine (see DESIGN.md §2).

The engine is a deliberately small simpy-like core:

* :class:`Environment` — the event loop and virtual clock;
* :class:`Event` / :class:`Timeout` — one-shot triggers;
* :class:`Process` — a generator that yields events to wait on;
* :class:`Store` — an unbounded FIFO channel with blocking ``get``.

Determinism: ties in time are broken by schedule order, so a seeded
workload always produces the same trace.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable

from repro.errors import SimulationError


class Event:
    """A one-shot occurrence processes can wait on."""

    __slots__ = ("env", "callbacks", "_value", "_triggered", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to all waiters."""
        if self._triggered or self._scheduled:
            raise SimulationError("event triggered twice")
        self._value = value
        self.env._schedule(self, delay=0.0)
        return self

    # internal: called by the environment when the event fires
    def _fire(self) -> None:
        self._triggered = True
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that fires after a fixed virtual delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        # Event.__init__ and Environment._schedule, inlined: one Timeout per
        # simulated service interval.
        self.env = env
        self.callbacks = []
        self._value = value
        self._triggered = False
        self._scheduled = True
        env._eid += 1
        heapq.heappush(env._heap, (env.now + delay, env._eid, self))


class Process(Event):
    """Drives a generator; itself an event that fires when the generator
    returns (with the return value as the event value)."""

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        super().__init__(env)
        self._generator = generator
        # Bootstrap on the next tick so creation order is fair.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        env._schedule(bootstrap, delay=0.0)

    def _resume(self, trigger: Event) -> None:
        try:
            target = self._generator.send(trigger._value)
        except StopIteration as stop:
            self._value = stop.value
            self.env._schedule(self, delay=0.0)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {type(target).__name__}; processes must "
                "yield Event/Timeout/Store.get objects"
            )
        if target._triggered:
            # Already fired: resume immediately on the next tick.
            immediate = Event(self.env)
            immediate._value = target._value
            immediate.callbacks.append(self._resume)
            self.env._schedule(immediate, delay=0.0)
        else:
            target.callbacks.append(self._resume)


class Store:
    """Unbounded FIFO channel between processes."""

    def __init__(self, env: "Environment"):
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def unget(self, item: Any) -> None:
        """Return an item a getter took back to the head of the channel."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.appendleft(item)

    def __len__(self) -> int:
        return len(self._items)


class Environment:
    """The virtual clock and event queue."""

    def __init__(self):
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._eid = 0
        #: engine events retired by run(); a plain counter the
        #: host-time benchmark reads from outside (benchmarks/perf)
        self.events_processed = 0

    # ------------------------------------------------------------------
    def _schedule(self, event: Event, delay: float) -> None:
        if event._scheduled:
            raise SimulationError("event scheduled twice")
        event._scheduled = True
        self._eid += 1
        heapq.heappush(self._heap, (self.now + delay, self._eid, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def store(self) -> Store:
        return Store(self)

    # ------------------------------------------------------------------
    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap empties, time passes ``until``, or the given
        event fires (returning its value).

        Each loop pops the earliest event, advances the clock to it and
        fires it: every simulated event passes through them.
        """
        heap, pop = self._heap, heapq.heappop
        if isinstance(until, Event):
            target = until
            while not target._triggered:
                if not heap:
                    raise SimulationError(
                        "simulation deadlocked before target event fired"
                    )
                when, _, event = pop(heap)
                if when < self.now:
                    raise SimulationError("time ran backwards")
                self.now = when
                self.events_processed += 1
                event._fire()
            return target._value
        horizon = float("inf") if until is None else float(until)
        while heap and heap[0][0] <= horizon:
            when, _, event = pop(heap)
            if when < self.now:
                raise SimulationError("time ran backwards")
            self.now = when
            self.events_processed += 1
            event._fire()
        if until is not None:
            self.now = max(self.now, horizon) if self.now < horizon else self.now
        return None

    def all_of(self, events: Iterable[Event]) -> Event:
        """An event that fires once every given event has fired."""
        events = list(events)
        done = self.event()
        remaining = len(events)
        if remaining == 0:
            done.succeed([])
            return done
        results: list[Any] = [None] * remaining

        def make_callback(index: int):
            def callback(event: Event) -> None:
                nonlocal remaining
                results[index] = event.value
                remaining -= 1
                if remaining == 0:
                    done.succeed(results)

            return callback

        for index, event in enumerate(events):
            if event.triggered:
                results[index] = event.value
                remaining -= 1
            else:
                event.callbacks.append(make_callback(index))
        if remaining == 0 and not done.triggered and not done._scheduled:
            done.succeed(results)
        return done


class SimClock:
    """Adapts an :class:`Environment` to the :class:`repro.clock.Clock`
    protocol so the heap, sampler, and validator see virtual time."""

    def __init__(self, env: Environment):
        self._env = env

    def now(self) -> float:
        return self._env.now
