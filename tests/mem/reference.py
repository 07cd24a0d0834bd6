"""Per-access reference loops for the memory models: the test-side oracle.

The simulator gives each memory component one timed-access implementation,
the sequence one (``access_batch`` / ``translate_batch`` /
``book_batch``), and the DMA engine issues whole transfers through it.
This module keeps the one-access-at-a-time formulation those sequence
methods replaced, operating directly on a component's state, so the parity
suites can require the sequence methods to reproduce it bitwise.  Nothing
under ``src/`` imports it.

* :func:`bus_transfer`, :func:`dram_access`, :func:`cache_access` and
  :func:`memory_access` move one request through the bus, DRAM, cache and
  the composed memory system.
* :func:`translate` resolves one translation request and reports which
  level served it; :func:`translate_chain` runs a request sequence through
  the single-ported TLB the way ``translate_batch`` does (request ``k``
  starts at ``max(now[k], end[k-1])``).
* :func:`dma_transfer` is the DMA engine's per-row transfer loop, built on
  the functions above.

:func:`timeline_state`, :func:`memory_state` and :func:`xlat_state` snapshot
everything a twin comparison checks: timelines, counters, LRU and open-row
state, and the miss-rate series.
"""

from __future__ import annotations

from repro.core.dma import DMAResult
from repro.mem.cache import Cache


def bandwidth_transfer(bw, earliest: float, num_bytes: int) -> tuple[float, float]:
    """Book one transfer on a :class:`BandwidthTimeline`; returns the interval."""
    bw.bytes_moved += num_bytes
    return bw.inner.book(earliest, bw.overhead + num_bytes / bw.bytes_per_cycle)


def bus_transfer(bus, now: float, nbytes: int, requester: str = "") -> float:
    if nbytes <= 0:
        return now
    bus.stats.counter("transactions").add()
    bus.stats.counter("bytes").add(nbytes)
    if requester:
        bus.stats.counter(f"bytes_{requester}").add(nbytes)
    return bandwidth_transfer(bus.channel, now, nbytes)[1]


def dram_access(dram, now: float, addr: int, nbytes: int, is_write: bool) -> float:
    if nbytes <= 0:
        return now
    cfg = dram.config
    row = addr // cfg.row_buffer_bytes
    bank = row % cfg.num_banks
    if dram._open_rows.get(bank) == row:
        latency = cfg.row_hit_latency
        occupancy_extra = 0.0
        dram.stats.counter("row_hits").add()
    else:
        latency = cfg.access_latency
        occupancy_extra = cfg.activate_occupancy
        dram.stats.counter("row_misses").add()
        dram._open_rows[bank] = row
    dram.stats.counter("writes" if is_write else "reads").add()
    dram.stats.counter("bytes").add(nbytes)
    if occupancy_extra:
        dram.channel.inner.book(now, occupancy_extra)
    return bandwidth_transfer(dram.channel, now + latency, nbytes)[1]


def lower_access(lower, now: float, addr: int, nbytes: int, is_write: bool) -> float:
    if isinstance(lower, Cache):
        return cache_access(lower, now, addr, nbytes, is_write)
    return dram_access(lower, now, addr, nbytes, is_write)


def cache_access(
    cache, now: float, addr: int, nbytes: int, is_write: bool, requester: str = ""
) -> float:
    if nbytes <= 0:
        return now
    cfg = cache.config
    line = cache._line
    num_sets = cache._num_sets
    stats = cache.stats
    hits = 0
    misses = 0
    lower_end = now
    for index in range(addr // line, (addr + nbytes - 1) // line + 1):
        set_index = index % num_sets
        tag = index // num_sets
        ways = cache._sets[set_index]
        if tag in ways:
            hits += 1
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
        else:
            misses += 1
            if len(ways) >= cache._ways:
                victim_tag, victim_dirty = ways.popitem(last=False)
                stats.counter("evictions").add()
                if victim_dirty and cfg.writeback:
                    stats.counter("writebacks").add()
                    victim_addr = (victim_tag * num_sets + set_index) * line
                    lower_end = lower_access(cache.lower, now, victim_addr, line, True)
            lower_end = max(lower_end, lower_access(cache.lower, now, index * line, line, False))
            ways[tag] = is_write
    stats.counter("hits").add(hits)
    stats.counter("misses").add(misses)
    stats.counter("accesses").add(hits + misses)
    stats.counter("writes" if is_write else "reads").add()
    if requester:
        stats.counter(f"hits_{requester}").add(hits)
        stats.counter(f"misses_{requester}").add(misses)
    __, port_end = bandwidth_transfer(cache.port, now + cfg.hit_latency, nbytes)
    return max(port_end, lower_end)


def memory_access(
    mem, now: float, paddr: int, nbytes: int, is_write: bool, requester: str = ""
) -> float:
    if nbytes <= 0:
        return now
    bus_end = bus_transfer(mem.bus, now, nbytes, requester)
    if mem.l2 is not None:
        return cache_access(mem.l2, bus_end, paddr, nbytes, is_write, requester)
    return dram_access(mem.dram, bus_end, paddr, nbytes, is_write)


def translate(xlat, now: float, vpn: int, is_write: bool) -> tuple[float, str]:
    """Resolve one request starting at ``now``; returns (end, serving level)."""
    cfg = xlat.config
    stats = xlat.stats
    stats.counter("requests").add()
    stats.counter("write_requests" if is_write else "read_requests").add()
    last = xlat._last_vpn[is_write]
    if last is not None:
        stats.counter("consecutive_write" if is_write else "consecutive_read").add()
        if last == vpn:
            stats.counter("consecutive_same_write" if is_write else "consecutive_same_read").add()
    xlat._last_vpn[is_write] = vpn

    if xlat.filters is not None and xlat.filters.check(vpn, is_write):
        stats.counter("filter_hits").add()
        xlat.miss_window.record(now, positive=False)
        return now, "filter"
    if xlat.filters is not None:
        xlat.filters.update(vpn, is_write)
    if xlat.private.lookup(vpn):
        stats.counter("private_hits").add()
        xlat.miss_window.record(now, positive=False)
        return now + cfg.private_hit_latency, "private"
    stats.counter("private_misses").add()
    xlat.miss_window.record(now, positive=True)
    after_private = now + cfg.private_hit_latency
    if cfg.shared_entries and xlat.shared.lookup(vpn):
        stats.counter("shared_hits").add()
        xlat.private.fill(vpn)
        return after_private + cfg.shared_hit_latency, "shared"
    if cfg.shared_entries:
        stats.counter("shared_misses").add()
    stats.counter("walks").add()
    walk_request = after_private + (cfg.shared_hit_latency if cfg.shared_entries else 0)
    if xlat.page_table is not None:
        xlat.page_table.walk(vpn)
    __, walk_end = xlat.ptw.book(walk_request, cfg.walk_latency)
    xlat.private.fill(vpn)
    xlat.shared.fill(vpn)
    return walk_end, "walk"


def translate_chain(xlat, now, vpns, is_write) -> list[float]:
    """Translate a sequence through the single-ported TLB; returns end times."""
    ends = []
    end = None
    for t, vpn, w in zip(now, vpns, is_write):
        start = t if end is None or t >= end else end
        end = translate(xlat, start, vpn, w)[0]
        ends.append(end)
    return ends


def dma_transfer(
    dma,
    now: float,
    vaddr: int,
    bytes_per_row: int,
    nrows: int,
    stride_bytes: int,
    is_write: bool,
    requester: str = "",
) -> DMAResult:
    """One DMA transfer, row by row and access by access."""
    if bytes_per_row <= 0 or nrows <= 0:
        raise ValueError("transfer must move at least one byte")
    channel = dma.write_channel if is_write else dma.read_channel
    page_bytes = dma.page_bytes
    first_start = None
    end = now
    tlb_requests = 0
    translation_stall = 0.0
    xlat_cursor = now
    row_vaddr = vaddr
    for __ in range(nrows):
        issue, channel_free = channel.book(now, max(1.0, bytes_per_row / dma.config.dma_bus_bytes))
        if first_start is None:
            first_start = issue
        xlat_done = issue if issue > xlat_cursor else xlat_cursor
        for vpn in range(row_vaddr // page_bytes, (row_vaddr + bytes_per_row - 1) // page_bytes + 1):
            xl_end = translate(dma.xlat, xlat_done, vpn, is_write)[0]
            tlb_requests += 1
            translation_stall += xl_end - xlat_done
            xlat_done = xl_end
        xlat_cursor = xlat_done
        cursor = row_vaddr
        remaining = bytes_per_row
        access_done = xlat_done
        while remaining > 0:
            chunk = min(remaining, page_bytes - cursor % page_bytes)
            paddr = dma.vm.translate(cursor) if dma.vm is not None else cursor
            access_done = memory_access(dma.mem, access_done, paddr, chunk, is_write, requester)
            cursor += chunk
            remaining -= chunk
        end = max(end, access_done, channel_free)
        row_vaddr += stride_bytes
    bytes_moved = bytes_per_row * nrows
    dma.stats.counter("bytes_written" if is_write else "bytes_read").add(bytes_moved)
    dma.stats.counter("rows").add(nrows)
    dma.stats.counter("transfers").add()
    return DMAResult(first_start, end, bytes_moved, tlb_requests, translation_stall)


# ---------------------------------------------------------------------- #
# State snapshots for twin comparisons                                    #
# ---------------------------------------------------------------------- #


def timeline_state(timeline) -> tuple[float, float, int]:
    return (timeline.next_free, timeline.busy_time, timeline.bookings)


def memory_state(mem) -> dict:
    """Every timeline, counter and piece of state of a memory system."""
    state = {
        "bus": (timeline_state(mem.bus.channel.inner), mem.bus.channel.bytes_moved),
        "bus.stats": mem.bus.stats.snapshot(),
        "dram": (timeline_state(mem.dram.channel.inner), mem.dram.bytes_moved),
        "dram.stats": mem.dram.stats.snapshot(),
        "dram.rows": dict(mem.dram._open_rows),
    }
    if mem.l2 is not None:
        state["l2"] = (timeline_state(mem.l2.port.inner), mem.l2.port.bytes_moved)
        state["l2.stats"] = mem.l2.stats.snapshot()
        state["l2.sets"] = [list(ways.items()) for ways in mem.l2._sets]
    return state


def xlat_state(xlat) -> dict:
    """Counters, TLB and filter contents, PTW timeline and miss-rate series."""
    filters = xlat.filters
    return {
        "stats": xlat.stats.snapshot(),
        "private": list(xlat.private._lru),
        "shared": list(xlat.shared._lru),
        "last": dict(xlat._last_vpn),
        "filters": None if filters is None else (filters.read_vpn, filters.write_vpn),
        "ptw": timeline_state(xlat.ptw),
        "window": (xlat.miss_window.series.times, xlat.miss_window.series.values),
    }
