"""The accelerator's DMA engine: strided row transfers with translation.

Every MVIN/MVOUT becomes a sequence of row transfers.  Each row is
translated through the accelerator's :class:`TranslationSystem` (one request
per page the row touches — consecutive same-page requests are what the
filter registers of Section V-A capture), then moved over the system bus and
through the shared L2/DRAM.  Read and write channels are independent, so
loads and stores overlap like the paper's overlapped read/write streams.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import GemminiConfig
from repro.mem.hierarchy import MemorySystem
from repro.mem.page_table import VirtualMemory
from repro.mem.tlb import TranslationSystem, chained_starts
from repro.sim.stats import StatsRegistry
from repro.sim.timeline import Timeline


@dataclass
class DMAResult:
    """Timing summary of one MVIN/MVOUT-sized transfer."""

    start_time: float
    end_time: float
    bytes_moved: int
    tlb_requests: int
    translation_stall: float

    @property
    def cycles(self) -> float:
        return self.end_time - self.start_time


class DMAEngine:
    """Row-granularity DMA with separate read and write channels."""

    def __init__(
        self,
        config: GemminiConfig,
        xlat: TranslationSystem,
        mem: MemorySystem,
        vm: VirtualMemory | None = None,
        name: str = "dma",
    ) -> None:
        self.config = config
        self.xlat = xlat
        self.mem = mem
        self.vm = vm
        self.name = name
        self.read_channel = Timeline(f"{name}.rd")
        self.write_channel = Timeline(f"{name}.wr")
        self.stats = StatsRegistry(owner=name)
        self.page_bytes = xlat.config.page_bytes

    # ------------------------------------------------------------------ #

    def transfer(
        self,
        now: float,
        vaddr: int,
        bytes_per_row: int,
        nrows: int,
        stride_bytes: int,
        is_write: bool,
        requester: str = "",
    ) -> DMAResult:
        """Move ``nrows`` rows of ``bytes_per_row`` with a row stride.

        Returns the transfer's timing summary.  Rows are pipelined on the
        channel: the channel is occupied ``bytes/bus_width`` cycles per row
        while translation and memory latency overlap with later rows.  Each
        row translates once per page it touches, starting when its channel
        slot begins; the TLB is single-ported, so the rows' translations
        chain and a burst of misses (e.g. at a tile boundary) throttles the
        whole stream — the effect the Section V-A TLB sizing study
        measures.  A row then moves its bytes, split at page boundaries,
        once its last translation is done; a page-split row's second chunk
        waits for its first.

        The whole transfer goes to each component as sequences in row order:
        one channel booking, one translation call, and one memory call per
        run of chunks that do not wait on each other.
        """
        if bytes_per_row <= 0 or nrows <= 0:
            raise ValueError("transfer must move at least one byte")
        channel = self.write_channel if is_write else self.read_channel
        page_bytes = self.page_bytes
        vm = self.vm

        # Row k's slot starts when row k-1's ends.
        occupancy = max(1.0, bytes_per_row / self.config.dma_bus_bytes)
        first_start = channel.peek(now)
        slot_ends = channel.book_batch([now] * nrows, [occupancy] * nrows).tolist()
        issues = [first_start] + slot_ends[:-1]

        row_vaddrs = [vaddr + row * stride_bytes for row in range(nrows)]
        xl_now: list[float] = []
        vpns: list[int] = []
        row_last_xl: list[int] = []  # index of each row's last translation
        for issue, row_vaddr in zip(issues, row_vaddrs):
            first_vpn = row_vaddr // page_bytes
            last_vpn = (row_vaddr + bytes_per_row - 1) // page_bytes
            vpns.extend(range(first_vpn, last_vpn + 1))
            xl_now.extend([issue] * (last_vpn - first_vpn + 1))
            row_last_xl.append(len(vpns) - 1)
        xl_end = self.xlat.translate_batch(xl_now, vpns, [is_write] * len(vpns)).tolist()
        translation_stall = 0.0
        for start, xl_done in zip(chained_starts(xl_now, xl_end), xl_end):
            translation_stall += xl_done - start

        access_batch = self.mem.access_batch
        end = slot_ends[-1]
        times: list[float] = []
        paddrs: list[int] = []
        sizes: list[int] = []

        def issue_pending() -> float:
            """Issue the pending chunks; returns the last one's end time."""
            nonlocal end
            ends = access_batch(times, paddrs, sizes, [is_write] * len(times), requester).tolist()
            end = max(end, *ends)
            times.clear()
            paddrs.clear()
            sizes.clear()
            return ends[-1]

        for row_vaddr, last_xl in zip(row_vaddrs, row_last_xl):
            ready = xl_end[last_xl]
            cursor = row_vaddr
            row_end = row_vaddr + bytes_per_row
            while cursor < row_end:
                chunk = min(row_end - cursor, page_bytes - cursor % page_bytes)
                if cursor != row_vaddr:
                    ready = issue_pending()
                times.append(ready)
                paddrs.append(vm.translate(cursor) if vm is not None else cursor)
                sizes.append(chunk)
                cursor += chunk
        issue_pending()

        bytes_moved = bytes_per_row * nrows
        self.stats.counter("bytes_written" if is_write else "bytes_read").add(bytes_moved)
        self.stats.counter("rows").add(nrows)
        self.stats.counter("transfers").add()
        return DMAResult(
            start_time=first_start,
            end_time=end,
            bytes_moved=bytes_moved,
            tlb_requests=len(vpns),
            translation_stall=translation_stall,
        )
