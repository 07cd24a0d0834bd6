"""The DMA engine's whole-transfer path against its per-row reference loop.

``DMAEngine.transfer`` hands a transfer to each component as sequences (one
channel booking, one chained translation call, one memory call per run of
independent chunks).  :func:`reference.dma_transfer` is the per-row loop it
replaced, issuing one translation and one memory access at a time.  Twin
systems run the same drawn transfers through both and must agree exactly:
every :class:`DMAResult` field, every counter, every timeline's
``next_free``/``busy_time``/``bookings``, and the TLB, L2 and DRAM state.
"""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from repro.core.config import default_config
from repro.core.dma import DMAEngine
from repro.mem.hierarchy import MemorySystem
from repro.mem.page_table import VirtualMemory
from repro.mem.tlb import TLBConfig, TranslationSystem
from repro.sim.timeline import Timeline

PAGE = 4096
REGION = 1 << 20


def build(bus_bytes, tlb, vm_on, ptw_pre_booked, scattered):
    vm = VirtualMemory(page_bytes=PAGE, scattered=scattered) if vm_on else None
    base = vm.alloc(REGION, "region") if vm is not None else 0x4000_0000
    ptw = Timeline("ptw")
    ptw.book(0.0, ptw_pre_booked)  # another requester's walk holds the shared PTW
    xlat = TranslationSystem(
        tlb, ptw=ptw, page_table=vm.page_table if vm is not None else None
    )
    config = replace(default_config(), dma_bus_bytes=bus_bytes)
    return DMAEngine(config, xlat, MemorySystem(), vm=vm), base


def state(dma):
    return {
        "dma.stats": dma.stats.snapshot(),
        "dma.rd": reference.timeline_state(dma.read_channel),
        "dma.wr": reference.timeline_state(dma.write_channel),
        "xlat": reference.xlat_state(dma.xlat),
        "mem": reference.memory_state(dma.mem),
    }


transfers = st.tuples(
    st.floats(min_value=0.0, max_value=300.0),  # issue-time advance
    st.integers(min_value=0, max_value=REGION // 2),  # offset: any alignment
    st.sampled_from([1, 16, 64, 100, 256, 1000, PAGE, PAGE + 64, 2 * PAGE + 8]),
    st.integers(min_value=1, max_value=24),  # nrows
    st.sampled_from([0, 16, 64, 100, 1000, PAGE - 32, PAGE, PAGE + 64, 9000]),
    st.booleans(),  # is_write
)


@given(
    batch=st.lists(transfers, min_size=1, max_size=4),
    bus_bytes=st.sampled_from([8, 16, 64]),
    vm_on=st.booleans(),
    scattered=st.booleans(),
    private=st.sampled_from([0, 2, 16]),
    shared=st.sampled_from([0, 8]),
    filters=st.booleans(),
    ptw_pre_booked=st.floats(min_value=0.0, max_value=2000.0),
)
def test_transfers_match_per_row_reference(
    batch, bus_bytes, vm_on, scattered, private, shared, filters, ptw_pre_booked
):
    tlb = TLBConfig(
        private_entries=private, shared_entries=shared, filter_registers=filters,
        miss_rate_window=7,
    )
    ref, base = build(bus_bytes, tlb, vm_on, ptw_pre_booked, scattered)
    dut, __ = build(bus_bytes, tlb, vm_on, ptw_pre_booked, scattered)
    now = 0.1
    for advance, offset, bytes_per_row, nrows, stride, is_write in batch:
        now += advance
        args = (now, base + offset, bytes_per_row, nrows, stride, is_write, "gem0")
        assert dut.transfer(*args) == reference.dma_transfer(ref, *args)
    assert state(dut) == state(ref)


@pytest.mark.parametrize("offset", [PAGE - 40, PAGE - 64, 0])
def test_page_split_rows_issue_second_chunk_after_first(offset):
    """A row straddling a page boundary moves its second chunk only after
    its first; the reference and the sequence path agree on that ordering."""
    tlb = TLBConfig(private_entries=4, shared_entries=0)
    ref, base = build(16, tlb, True, 0.0, True)
    dut, __ = build(16, tlb, True, 0.0, True)
    args = (3.3, base + offset, 64, 12, PAGE + 8, False, "gem0")
    assert dut.transfer(*args) == reference.dma_transfer(ref, *args)
    assert state(dut) == state(ref)
