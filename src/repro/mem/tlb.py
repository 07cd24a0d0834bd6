"""Virtual-address translation: TLBs, filter registers, and the PTW.

This module implements the translation hierarchy of the paper's Section V-A
case study:

* a small **private TLB** inside the accelerator's DMA path,
* an optional larger **shared L2 TLB** the private TLB falls back on,
* a single **page-table walker** shared by the CPU and the accelerator,
* optional per-channel **filter registers** — one caching the last
  translation used by DMA reads and one for DMA writes — which serve
  consecutive same-page requests with zero-cycle latency and keep reads and
  writes from evicting each other's hot entry.

:meth:`TranslationSystem.translate_batch` is the one timed translation
implementation; ``translate`` and ``translate_vpn`` are its length-1 forms.
The TLB is single-ported, so the requests of one call chain: each starts
when it is issued or when the previous one ends, whichever is later.
Times are exact (bitwise) against the same requests resolved one by one at
those chained starts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.sim.stats import RateWindow, StatsRegistry
from repro.sim.timeline import Timeline


@dataclass(frozen=True)
class TLBConfig:
    """Translation-system parameters.

    ``private_entries``/``shared_entries`` of zero disable that level.  All
    latencies are in cycles.  TLBs are fully associative with true-LRU
    replacement, matching small accelerator TLBs.
    """

    private_entries: int = 16
    shared_entries: int = 128
    filter_registers: bool = False
    page_bytes: int = 4096
    private_hit_latency: float = 4.0
    shared_hit_latency: float = 16.0
    #: three radix levels, typically L2-resident: 3 x ~20 cycles
    walk_latency: float = 60.0
    miss_rate_window: int = 512

    def __post_init__(self) -> None:
        if self.private_entries < 0 or self.shared_entries < 0:
            raise ValueError("TLB entry counts must be non-negative")
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError("page_bytes must be a positive power of two")
        if min(self.private_hit_latency, self.shared_hit_latency, self.walk_latency) < 0:
            raise ValueError("latencies must be non-negative")


class TLB:
    """A fully associative, true-LRU TLB."""

    def __init__(self, entries: int, name: str = "tlb") -> None:
        if entries < 0:
            raise ValueError("entries must be non-negative")
        self.entries = entries
        self.name = name
        self._lru: OrderedDict[int, int] = OrderedDict()

    def lookup(self, vpn: int) -> bool:
        """True on hit (and refresh recency); False on miss."""
        if vpn in self._lru:
            self._lru.move_to_end(vpn)
            return True
        return False

    def fill(self, vpn: int, ppn: int = 0) -> None:
        if self.entries == 0:
            return
        if vpn in self._lru:
            self._lru.move_to_end(vpn)
            self._lru[vpn] = ppn
            return
        if len(self._lru) >= self.entries:
            self._lru.popitem(last=False)
        self._lru[vpn] = ppn

    def flush(self) -> None:
        self._lru.clear()

    @property
    def occupancy(self) -> int:
        return len(self._lru)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._lru


class FilterRegisters:
    """Last-translation registers, one per DMA channel direction.

    A request whose virtual page number matches the channel's register skips
    the TLB entirely (zero-cycle translation).  Keeping separate read and
    write registers prevents the overlapped read/write streams from evicting
    each other's entry — the contention the paper observed.
    """

    __slots__ = ("read_vpn", "write_vpn")

    def __init__(self) -> None:
        self.read_vpn: int | None = None
        self.write_vpn: int | None = None

    def check(self, vpn: int, is_write: bool) -> bool:
        if is_write:
            return vpn == self.write_vpn
        return vpn == self.read_vpn

    def update(self, vpn: int, is_write: bool) -> None:
        if is_write:
            self.write_vpn = vpn
        else:
            self.read_vpn = vpn

    def flush(self) -> None:
        self.read_vpn = None
        self.write_vpn = None


def chained_starts(now, ends) -> list[float]:
    """Start times of one :meth:`TranslationSystem.translate_batch` call.

    ``now`` and ``ends`` are the call's request times and returned end
    times; request ``k`` started at ``max(now[k], ends[k-1])``.
    """
    starts = []
    prev = float("-inf")
    for t, end in zip(now, ends):
        starts.append(prev if prev > t else t)
        prev = end
    return starts


class TranslationSystem:
    """The full translation path used by an accelerator's DMA engine.

    ``ptw`` may be shared between several translation systems (and the host
    CPU) to model the paper's single shared page-table walker; pass the same
    :class:`~repro.sim.timeline.Timeline` to each.
    """

    def __init__(
        self,
        config: TLBConfig,
        ptw: Timeline | None = None,
        page_table=None,
        name: str = "xlat",
    ) -> None:
        self.config = config
        self.name = name
        self.private = TLB(config.private_entries, f"{name}.private")
        self.shared = TLB(config.shared_entries, f"{name}.shared")
        self.filters = FilterRegisters() if config.filter_registers else None
        self.ptw = ptw if ptw is not None else Timeline(f"{name}.ptw")
        self.page_table = page_table
        self.stats = StatsRegistry(owner=name)
        self.miss_window = RateWindow(f"{name}.miss_rate", config.miss_rate_window)
        self._last_vpn = {False: None, True: None}

    # ------------------------------------------------------------------ #

    def translate(self, now: float, vaddr: int, is_write: bool) -> float:
        """Translate the page of byte address ``vaddr``; returns the end time."""
        return self.translate_vpn(now, vaddr // self.config.page_bytes, is_write)

    def translate_vpn(self, now: float, vpn: int, is_write: bool) -> float:
        """Translate one virtual page number; returns the end time."""
        return float(self.translate_batch([now], [vpn], [is_write])[0])

    def translate_batch(self, now, vpns, is_write):
        """Translate a request sequence; returns the end times.

        The TLB is single-ported, so requests chain: request ``k`` starts at
        ``max(now[k], end[k-1])`` (:func:`chained_starts`).  A filter-register
        hit ends at its start, a private hit ``private_hit_latency`` later, a
        shared hit ``shared_hit_latency`` after that, and a miss in every
        level books ``walk_latency`` on the (possibly shared) PTW and fills
        both TLBs.  The miss-rate window records every outcome at its
        request's start, and counters are added once per name.
        """
        import numpy as np

        vpn_list = np.asarray(vpns, dtype=np.int64).tolist()
        write_list = np.asarray(is_write, dtype=bool).tolist()
        now_list = np.asarray(now, dtype=np.float64).tolist()
        if not vpn_list:
            return np.asarray(now_list, dtype=np.float64)
        cfg = self.config
        filters = self.filters
        private = self.private
        shared = self.shared
        shared_entries = cfg.shared_entries
        private_hit_latency = cfg.private_hit_latency
        shared_latency = cfg.shared_hit_latency if shared_entries else 0.0
        walk_latency = cfg.walk_latency
        page_table = self.page_table
        ptw_book = self.ptw.book
        last_vpn = self._last_vpn

        n_write = n_consec_r = n_consec_w = n_same_r = n_same_w = 0
        n_filter = n_priv_hit = n_priv_miss = n_shared_hit = n_shared_miss = n_walk = 0
        last_r = last_vpn[False]
        last_w = last_vpn[True]
        private_lru = private._lru
        move_private = private_lru.move_to_end
        ends = []
        starts = []
        outcomes = []  # miss-rate window: True on a private-TLB miss
        end = float("-inf")
        for vpn, w, t in zip(vpn_list, write_list, now_list):
            if end > t:
                t = end
            starts.append(t)
            # Consecutive same-page behaviour per channel (paper: 87% of
            # consecutive reads and 83% of consecutive writes hit the same page).
            if w:
                n_write += 1
                if last_w is not None:
                    n_consec_w += 1
                    if last_w == vpn:
                        n_same_w += 1
                last_w = vpn
            else:
                if last_r is not None:
                    n_consec_r += 1
                    if last_r == vpn:
                        n_same_r += 1
                last_r = vpn

            if filters is not None and filters.check(vpn, w):
                n_filter += 1
                outcomes.append(False)
                end = t
            else:
                if filters is not None:
                    filters.update(vpn, w)
                if vpn in private_lru:
                    move_private(vpn)
                    n_priv_hit += 1
                    outcomes.append(False)
                    end = t + private_hit_latency
                else:
                    n_priv_miss += 1
                    outcomes.append(True)
                    after_private = t + private_hit_latency
                    if shared_entries and shared.lookup(vpn):
                        n_shared_hit += 1
                        private.fill(vpn)
                        end = after_private + shared_latency
                    else:
                        if shared_entries:
                            n_shared_miss += 1
                        n_walk += 1
                        if page_table is not None:
                            page_table.walk(vpn)
                        __, end = ptw_book(after_private + shared_latency, walk_latency)
                        private.fill(vpn)
                        shared.fill(vpn)
            ends.append(end)
        last_vpn[False] = last_r
        last_vpn[True] = last_w
        self.miss_window.record_all(starts, outcomes)
        counts = {
            "requests": len(vpn_list),
            "write_requests": n_write,
            "read_requests": len(vpn_list) - n_write,
            "consecutive_read": n_consec_r,
            "consecutive_write": n_consec_w,
            "consecutive_same_read": n_same_r,
            "consecutive_same_write": n_same_w,
            "filter_hits": n_filter,
            "private_hits": n_priv_hit,
            "private_misses": n_priv_miss,
            "shared_hits": n_shared_hit,
            "shared_misses": n_shared_miss,
            "walks": n_walk,
        }
        stats = self.stats
        for name, value in counts.items():
            if value or name == "requests":
                stats.counter(name).add(value)
        return np.asarray(ends, dtype=np.float64)

    # ------------------------------------------------------------------ #

    def flush(self) -> None:
        """Flush all translation state (e.g. on a context switch)."""
        self.private.flush()
        self.shared.flush()
        if self.filters is not None:
            self.filters.flush()
        self._last_vpn = {False: None, True: None}
        self.stats.counter("flushes").add()

    # -- derived metrics ------------------------------------------------ #

    def hit_rate_including_filters(self) -> float:
        """Fraction of requests served without leaving the private level."""
        requests = self.stats.value("requests")
        if not requests:
            return 0.0
        served = self.stats.value("filter_hits") + self.stats.value("private_hits")
        return served / requests

    def private_miss_rate(self) -> float:
        """Private-TLB miss rate over requests that reached the private TLB."""
        looked_up = self.stats.value("private_hits") + self.stats.value("private_misses")
        if not looked_up:
            return 0.0
        return self.stats.value("private_misses") / looked_up

    def consecutive_same_page_fraction(self, is_write: bool) -> float:
        total = self.stats.value("consecutive_write" if is_write else "consecutive_read")
        same = self.stats.value(
            "consecutive_same_write" if is_write else "consecutive_same_read"
        )
        return same / total if total else 0.0

    def reset(self) -> None:
        self.private.flush()
        self.shared.flush()
        if self.filters is not None:
            self.filters.flush()
        self.stats.reset()
        self.miss_window.reset()
        self._last_vpn = {False: None, True: None}
