"""The event engine: incremental merging of per-core execution streams.

Multi-core SoC simulations run each core's workload as an *actor* that,
when stepped, performs one unit of work and reports the local time it has
reached.  :class:`EventLoop` keeps every actor's next-event time in a
single min-heap and always steps the actor whose local clock is furthest
behind, so accesses to shared state (the L2 cache, the DRAM channel, the
shared TLB) are applied in approximately global time order — the property
the paper's dual-core contention study (Figure 9c) depends on.

The loop is *incremental*: actors can be added at an explicit clock
(resuming a checkpointed simulation), an actor can withdraw (park) and be
re-added later, and the loop can run up to a time bound and hand control
back.  The serving cluster engine builds its O(in-flight) core on these
hooks.  :func:`lockstep_merge` is the run-to-completion form for plain
generators (the multicore figure's per-core runtimes): the same loop and
stepping order, ties on equal clocks going to the lowest actor index.
"""

from __future__ import annotations

import heapq
from typing import Generator, Iterable, Protocol

__all__ = ["Actor", "EventLoop", "lockstep_merge"]


class Actor(Protocol):
    """One event-driven participant of an :class:`EventLoop`.

    ``step()`` performs the work between the actor's previous event and
    its next one, returning the new local clock (non-decreasing), or
    ``None`` when the actor has no further events (finished *or*
    voluntarily parked — the distinction is the actor's own state, the
    loop only removes it from the heap).  Raising ``StopIteration`` is
    equivalent to returning ``None`` (the generator convention).
    """

    def step(self) -> float | None: ...


class _GeneratorActor:
    """Adapter: a ``yield``-driven clock stream as an :class:`Actor`."""

    __slots__ = ("step",)

    def __init__(self, stream: Generator[float, None, None]) -> None:
        self.step = stream.__next__


class EventLoop:
    """A min-heap of per-actor next-event times, stepped laggard-first.

    Each heap entry is ``(clock, index, actor)``; the loop pops the
    smallest, steps that actor once, and re-enters it at its new clock.
    Equal clocks resolve by actor index, so a fixed actor set replays the
    same interleaving on every run.

    An actor that yields a decreasing time raises ``ValueError`` — that
    always indicates a bookkeeping bug in a model, and silently accepting
    it would corrupt shared-resource ordering.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Actor]] = []
        self._next_index = 0
        #: final clock of every actor that left the heap, by index
        self.finished: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, actor: Actor, index: int | None = None, clock: float | None = None) -> int:
        """Enter one actor into the loop; returns its index.

        With ``clock=None`` the actor is *primed* — stepped once so it has
        a current clock (the historical merge semantics; an actor that
        finishes during priming records a final clock of 0.0).  Passing an
        explicit ``clock`` defers the first step to the loop itself, which
        is what resuming a parked actor at its saved clock needs.
        """
        if index is None:
            index = self._next_index
        self._next_index = max(self._next_index, index + 1)
        if clock is None:
            try:
                clock = actor.step()
            except StopIteration:
                clock = None
            if clock is None:
                self.finished[index] = 0.0
                return index
        heapq.heappush(self._heap, (clock, index, actor))
        return index

    def peek(self) -> float | None:
        """The next event time, or None when the loop is drained."""
        return self._heap[0][0] if self._heap else None

    def run(self, until: float | None = None) -> None:
        """Step laggard-first until drained (or past ``until``).

        Every actor either finishes (``step`` returns None / raises
        StopIteration) and has its final clock recorded in
        :attr:`finished`, or — with ``until`` — stays parked in the heap
        at its next event time beyond the bound.
        """
        heap = self._heap
        while heap:
            previous, index, actor = heap[0]
            if until is not None and previous > until:
                return
            try:
                now = actor.step()
            except StopIteration:
                now = None
            if now is None:
                self.finished[index] = previous
                heapq.heappop(heap)
                continue
            if now < previous:
                raise ValueError(
                    f"stream {index} yielded decreasing time {now} < {previous}"
                )
            heapq.heapreplace(heap, (now, index, actor))


def lockstep_merge(streams: Iterable[Generator[float, None, None]]) -> list[float]:
    """Run generators to completion, always stepping the laggard.

    Each generator yields its current local time (non-decreasing) after
    each unit of work.  Returns the final local time of each stream, in
    the order given.  A helper over :class:`EventLoop`: every stream is
    primed in order, then the loop steps the smallest
    ``(clock, index)`` until all streams are exhausted — the exact
    selection order (ties to the lowest stream index) that keeps dual-core
    runs deterministic.
    """
    loop = EventLoop()
    count = 0
    for stream in streams:
        loop.add(_GeneratorActor(stream))
        count += 1
    loop.run()
    return [loop.finished[i] for i in range(count)]
