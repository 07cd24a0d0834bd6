"""Set-associative write-back cache model (the SoC's shared L2).

The cache is the central shared resource of the paper's Section V-B case
study: convolutions want scratchpad, residual additions want their layer
outputs to *survive in the L2* until consumed several layers later, and in
dual-core SoCs the two processes' working sets evict each other.  Those
behaviours all emerge from an ordinary set-associative LRU model, which is
what this module provides.

:meth:`Cache.access_batch` is the cache's one timed-access implementation:
it takes a sequence of accesses in FCFS order, and :meth:`Cache.access` is
its length-1 form.  A sequence and the same accesses made one call at a
time give bitwise-equal end times, LRU state and counters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.sim.stats import StatsRegistry
from repro.sim.timeline import BandwidthTimeline


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int = 1 << 20
    ways: int = 8
    line_bytes: int = 64
    hit_latency: float = 20.0
    bytes_per_cycle: float = 64.0
    writeback: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("cache size must be positive")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line_bytes must be a positive power of two")
        if self.ways <= 0:
            raise ValueError("ways must be positive")
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ValueError("size must be divisible by line_bytes * ways")
        if self.bytes_per_cycle <= 0:
            raise ValueError("bytes_per_cycle must be positive")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes


class Cache:
    """A write-back, write-allocate, LRU set-associative cache.

    ``lower`` is any object exposing ``access_batch(now, addr, nbytes,
    is_write) -> end_times`` and its length-1 form ``access`` — in practice
    a :class:`~repro.mem.dram.DRAMModel` or another :class:`Cache`.
    """

    def __init__(self, config: CacheConfig, lower, name: str = "L2") -> None:
        self.config = config
        self.lower = lower
        self.name = name
        self.port = BandwidthTimeline(f"{name}.port", config.bytes_per_cycle)
        self.stats = StatsRegistry(owner=name)
        # One LRU structure per set: OrderedDict maps tag -> dirty flag.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]
        self._num_sets = config.num_sets
        self._ways = config.ways
        self._line = config.line_bytes

    # ------------------------------------------------------------------ #
    # Timing + functional access                                         #
    # ------------------------------------------------------------------ #

    def access(
        self,
        now: float,
        addr: int,
        nbytes: int,
        is_write: bool,
        requester: str = "",
    ) -> float:
        """Access a contiguous byte range; returns the completion time."""
        if nbytes <= 0:
            return now
        return float(self.access_batch([now], [addr], [nbytes], [is_write], requester)[0])

    def access_batch(self, now, addr, nbytes, is_write, requester: str = ""):
        """Perform a whole FCFS sequence of accesses; returns end times.

        Each range is decomposed into cache lines.  Hits are served at the
        cache port bandwidth after ``hit_latency``; each miss fetches the
        line from the lower level (plus a writeback first if the victim is
        dirty), and an access completes when its port transfer and all of its
        lower-level requests have.  The lower level sees its requests in
        access order through one ``access_batch`` call, and counters land in
        one aggregated add per name.
        """
        import numpy as np

        now = np.asarray(now, dtype=np.float64)
        addr = np.asarray(addr, dtype=np.int64)
        nbytes = np.asarray(nbytes, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        n = now.size
        if n == 0:
            return now
        if int(nbytes.min()) <= 0:
            raise ValueError("batched cache accesses must move at least one byte")
        cfg = self.config
        line = self._line
        num_sets = self._num_sets
        ways_limit = self._ways
        sets = self._sets
        first = (addr // line).tolist()
        last = ((addr + nbytes - 1) // line).tolist()
        writes_list = is_write.tolist()
        now_list = now.tolist()

        hits = 0
        misses = 0
        evictions = 0
        writebacks = 0
        writeback_enabled = cfg.writeback
        # Lower-level requests (earliest, addr, is_write, owner), in access
        # order; ``owner`` maps each back to its originating access.
        low: list[tuple] = []
        low_append = low.append

        for i, (t, w, lo, hi) in enumerate(zip(now_list, writes_list, first, last)):
            for index in range(lo, hi + 1):
                set_index = index % num_sets
                ways = sets[set_index]
                tag = index // num_sets
                if tag in ways:
                    hits += 1
                    ways.move_to_end(tag)
                    if w:
                        ways[tag] = True
                else:
                    misses += 1
                    if len(ways) >= ways_limit:
                        victim_tag, victim_dirty = ways.popitem(last=False)
                        evictions += 1
                        if victim_dirty and writeback_enabled:
                            writebacks += 1
                            low_append((t, (victim_tag * num_sets + set_index) * line, True, i))
                    low_append((t, index * line, False, i))
                    ways[tag] = w

        lower_end = now.copy()
        if low:
            low_earliest, low_addr, low_write, low_owner = zip(*low)
            nlines = np.full(len(low), line, dtype=np.int64)
            low_ends = self.lower.access_batch(
                np.asarray(low_earliest), np.asarray(low_addr), nlines, np.asarray(low_write)
            )
            # Per-access completion of the last lower request: owners are
            # nondecreasing, so a segment-max (reduceat) replaces the very
            # slow np.maximum.at scatter.
            owners = np.asarray(low_owner, dtype=np.int64)
            starts = np.flatnonzero(np.diff(owners, prepend=-1))
            idx = owners[starts]
            lower_end[idx] = np.maximum(lower_end[idx], np.maximum.reduceat(low_ends, starts))

        stats = self.stats
        stats.counter("hits").add(hits)
        stats.counter("misses").add(misses)
        stats.counter("accesses").add(hits + misses)
        n_writes = int(is_write.sum())
        if n_writes:
            stats.counter("writes").add(n_writes)
        if n - n_writes:
            stats.counter("reads").add(n - n_writes)
        if evictions:
            stats.counter("evictions").add(evictions)
        if writebacks:
            stats.counter("writebacks").add(writebacks)
        if requester:
            stats.counter(f"hits_{requester}").add(hits)
            stats.counter(f"misses_{requester}").add(misses)

        port_end = self.port.transfer_batch(now + cfg.hit_latency, nbytes)
        return np.maximum(port_end, lower_end)

    # ------------------------------------------------------------------ #
    # Inspection / maintenance                                            #
    # ------------------------------------------------------------------ #

    def probe(self, addr: int) -> bool:
        """True if the line containing ``addr`` is currently resident."""
        index = addr // self._line
        return (index // self._num_sets) in self._sets[index % self._num_sets]

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def flush(self, now: float = 0.0) -> float:
        """Write back all dirty lines and invalidate; returns completion time."""
        end = now
        for set_index, ways in enumerate(self._sets):
            for tag, dirty in ways.items():
                if dirty and self.config.writeback:
                    addr = (tag * self._num_sets + set_index) * self._line
                    end = self.lower.access(end, addr, self._line, True)
                    self.stats.counter("writebacks").add()
            ways.clear()
        return end

    def miss_rate(self) -> float:
        return self.stats.ratio("misses", "accesses")

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.port.reset()
        self.stats.reset()
