"""Bitwise parity of the memory models' sequence methods with the reference.

Each memory component has one timed-access implementation, the sequence
one (``Timeline.book_batch``, ``BandwidthTimeline.transfer_batch``,
``DRAMModel.access_batch``, ``Cache.access_batch``,
``MemorySystem.access_batch``, ``TranslationSystem.translate_batch``).
These suites drive the same request streams through the per-access loops
of :mod:`reference` and through the sequence method on twin instances, and
require equal end times, state, counters and timelines — compared with
``==``.  Start times are drawn from non-dyadic floats, so a reassociated
sum would show.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from repro.mem.dram import DRAMConfig, DRAMModel
from repro.mem.hierarchy import MemorySystem, MemorySystemConfig
from repro.mem.tlb import TLBConfig, TranslationSystem
from repro.sim.timeline import BandwidthTimeline, Timeline

#: Request gaps in cycles: non-dyadic fractions, and 0 for same-cycle bursts.
gaps = st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=60.0))


@st.composite
def streams(draw, max_size=80, max_addr=1 << 21):
    """(now, addr, nbytes, is_write) lists: a streaming component (consecutive
    lines) interleaved with random addresses; some requests arrive out of
    order (earlier than their predecessor)."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    now, addr = [], []
    t = draw(st.floats(min_value=0.0, max_value=1e4))
    for i in range(n):
        t += draw(gaps)
        late = draw(st.booleans()) and draw(st.booleans())
        now.append(t - 7.3 if late else t)
        if i % 3 == 0:
            addr.append((i * 64) % max_addr)
        else:
            addr.append(draw(st.integers(min_value=0, max_value=max_addr - 1)))
    nbytes = draw(st.lists(st.sampled_from([1, 16, 64, 100, 512, 4096]), min_size=n, max_size=n))
    is_write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return now, addr, nbytes, is_write


class TestTimelineBookBatch:
    @given(
        st.lists(st.tuples(st.floats(-20.0, 60.0), st.floats(0.0, 40.0)), max_size=120),
        st.floats(0.0, 100.0),
    )
    def test_matches_sequential_bookings(self, requests, pre_booked):
        a, b = Timeline("a"), Timeline("b")
        a.book(0.0, pre_booked)
        b.book(0.0, pre_booked)
        t = 0.0
        earliest, durations = [], []
        for offset, duration in requests:
            t += abs(offset)
            earliest.append(t + min(offset, 0.0))  # some arrive late, queue FCFS
            durations.append(duration)
        scalar = [a.book(e, d)[1] for e, d in zip(earliest, durations)]
        assert b.book_batch(earliest, durations).tolist() == scalar
        assert reference.timeline_state(a) == reference.timeline_state(b)

    def test_empty_batch_is_noop(self):
        t = Timeline("t")
        assert t.book_batch(np.empty(0), np.empty(0)).size == 0
        assert t.bookings == 0

    def test_negative_duration_rejected(self):
        t = Timeline("t")
        with pytest.raises(ValueError):
            t.book_batch(np.zeros(2), np.array([1.0, -1.0]))
        assert reference.timeline_state(t) == (0.0, 0.0, 0)


class TestBandwidthTransferBatch:
    @given(streams())
    def test_matches_sequential_transfers(self, stream):
        now, __, nbytes, __ = stream
        a = BandwidthTimeline("a", 16.0, overhead=1.0)
        b = BandwidthTimeline("b", 16.0, overhead=1.0)
        scalar = [reference.bandwidth_transfer(a, t, n)[1] for t, n in zip(now, nbytes)]
        assert b.transfer_batch(now, nbytes).tolist() == scalar
        assert reference.timeline_state(a.inner) == reference.timeline_state(b.inner)
        assert a.bytes_moved == b.bytes_moved


class TestDRAMBatch:
    @pytest.mark.parametrize("num_banks", [1, 2, 8])
    @pytest.mark.parametrize("activate", [0.0, 24.0])
    @given(stream=streams(max_addr=1 << 22))
    def test_parity_with_scalar_loop(self, num_banks, activate, stream):
        cfg = DRAMConfig(num_banks=num_banks, activate_occupancy=activate)
        a, b = DRAMModel(cfg), DRAMModel(cfg)
        scalar = [reference.dram_access(a, *request) for request in zip(*stream)]
        assert b.access_batch(*stream).tolist() == scalar
        assert a.stats.snapshot() == b.stats.snapshot()
        assert a._open_rows == b._open_rows
        assert a.bytes_moved == b.bytes_moved
        assert reference.timeline_state(a.channel.inner) == reference.timeline_state(b.channel.inner)

    def test_mixing_scalar_and_batch_is_safe(self):
        """State is shared: a length-1 access between batches sees batch state."""
        a, b = DRAMModel(), DRAMModel()
        addr = [i * 1024 + 3 for i in range(10)]  # one row each
        a_ends = [reference.dram_access(a, i * 0.3, ad, 64, False) for i, ad in enumerate(addr)]
        b.access_batch([i * 0.3 for i in range(5)], addr[:5], [64] * 5, [False] * 5)
        mid = b.access(5 * 0.3, addr[5], 64, False)
        b.access_batch([i * 0.3 for i in range(6, 10)], addr[6:], [64] * 4, [False] * 4)
        assert mid == a_ends[5]
        assert a._open_rows == b._open_rows
        assert reference.timeline_state(a.channel.inner) == reference.timeline_state(b.channel.inner)

    def test_rejects_non_positive_bytes(self):
        with pytest.raises(ValueError):
            DRAMModel().access_batch(np.zeros(1), np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, bool))


class TestCacheBatch:
    @given(stream=streams(max_size=120))
    def test_parity_with_scalar_loop(self, stream):
        a, b = MemorySystem(), MemorySystem()
        scalar = [reference.cache_access(a.l2, *request, "gem0") for request in zip(*stream)]
        assert b.l2.access_batch(*stream, "gem0").tolist() == scalar
        # LRU sets evolved through identical decisions (same tags, dirty bits
        # and recency order), and DRAM saw the same requests.
        assert reference.memory_state(a) == reference.memory_state(b)

    def test_small_cache_evicts_dirty_lines(self):
        """A cache far smaller than the stream: every path through eviction
        and writeback is taken, and still matches bitwise."""
        rng = random.Random(3)
        cfg = MemorySystemConfig().with_l2_size(8 * 64 * 4)
        a, b = MemorySystem(cfg), MemorySystem(cfg)
        now = [i * 2.7 for i in range(400)]
        addr = [rng.randrange(0, 1 << 16) for __ in range(400)]
        nbytes = [rng.choice([64, 200, 1024]) for __ in range(400)]
        wr = [rng.random() < 0.5 for __ in range(400)]
        scalar = [reference.cache_access(a.l2, *r) for r in zip(now, addr, nbytes, wr)]
        assert b.l2.access_batch(now, addr, nbytes, wr).tolist() == scalar
        assert b.l2.stats.value("writebacks") > 0
        assert reference.memory_state(a) == reference.memory_state(b)

    @given(stream=streams(max_size=120, max_addr=1 << 22))
    def test_full_hierarchy_parity(self, stream):
        a, b = MemorySystem(), MemorySystem()
        scalar = [reference.memory_access(a, *request, "g") for request in zip(*stream)]
        assert b.access_batch(*stream, "g").tolist() == scalar
        assert reference.memory_state(a) == reference.memory_state(b)

    def test_no_l2_routes_to_dram(self):
        cfg = MemorySystemConfig(l2=None)
        a, b = MemorySystem(cfg), MemorySystem(cfg)
        now = [i * 10.1 for i in range(20)]
        addr = [i * 64 for i in range(20)]
        scalar = [reference.memory_access(a, t, ad, 64, False) for t, ad in zip(now, addr)]
        assert b.access_batch(now, addr, [64] * 20, [False] * 20).tolist() == scalar
        assert reference.memory_state(a) == reference.memory_state(b)

    def test_length_one_adapters_match(self):
        """The per-access methods are length-1 calls of the sequence methods."""
        a, b = MemorySystem(), MemorySystem()
        rng = random.Random(5)
        for i in range(60):
            request = (i * 3.1, rng.randrange(0, 1 << 20), rng.choice([0, 64, 300]), i % 3 == 0)
            assert b.access(*request, "g") == reference.memory_access(a, *request, "g")
        assert reference.memory_state(a) == reference.memory_state(b)


@st.composite
def translation_streams(draw):
    """(now, vpns, is_write) lists with consecutive same-page runs."""
    n = draw(st.integers(min_value=1, max_value=120))
    now, vpns = [], []
    t = draw(st.floats(min_value=0.0, max_value=1e4))
    for __ in range(n):
        t += draw(gaps)
        now.append(t)
        same = vpns and draw(st.booleans())
        vpns.append(vpns[-1] if same else draw(st.integers(min_value=0, max_value=40)))
    is_write = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return now, vpns, is_write


class TestTranslateBatch:
    @pytest.mark.parametrize("filters", [False, True])
    @pytest.mark.parametrize("private,shared", [(16, 128), (4, 0), (0, 32), (0, 0)])
    @given(stream=translation_streams(), window=st.integers(min_value=1, max_value=9))
    def test_parity_with_scalar_loop(self, filters, private, shared, stream, window):
        cfg = TLBConfig(
            private_entries=private,
            shared_entries=shared,
            filter_registers=filters,
            miss_rate_window=window,
        )
        a = TranslationSystem(cfg, ptw=Timeline("a"))
        b = TranslationSystem(cfg, ptw=Timeline("b"))
        assert b.translate_batch(*stream).tolist() == reference.translate_chain(a, *stream)
        # Includes the miss-rate series, times and values: each point is
        # stamped with the (chained) start of the request closing its window.
        assert reference.xlat_state(a) == reference.xlat_state(b)

    @given(stream=translation_streams(), pre_booked=st.floats(0.0, 500.0))
    def test_shared_ptw_bookings_match(self, stream, pre_booked):
        """A PTW shared with another requester (already booked) queues the
        walks identically."""
        cfg = TLBConfig(private_entries=2, shared_entries=0)
        ptw_a, ptw_b = Timeline("a"), Timeline("b")
        ptw_a.book(0.0, pre_booked)
        ptw_b.book(0.0, pre_booked)
        a = TranslationSystem(cfg, ptw=ptw_a)
        b = TranslationSystem(cfg, ptw=ptw_b)
        assert b.translate_batch(*stream).tolist() == reference.translate_chain(a, *stream)
        assert reference.timeline_state(ptw_a) == reference.timeline_state(ptw_b)

    def test_requests_chain_on_the_single_port(self):
        """Requests issued together serialise: each starts when the previous ends."""
        cfg = TLBConfig(private_entries=4, shared_entries=0, walk_latency=60.0)
        xs = TranslationSystem(cfg)
        ends = xs.translate_batch([10.0, 10.0, 10.0], [1, 2, 1], [False] * 3).tolist()
        # walk (4 + 60), walk queued behind it, then a private hit (4).
        assert ends == [74.0, 138.0, 142.0]

    def test_miss_window_stamps_closing_request(self):
        """Regression: a window closing inside a run of equal outcomes is
        stamped with the closing request's time, not the run's last."""
        cfg = TLBConfig(private_entries=0, shared_entries=0, miss_rate_window=2, walk_latency=1.0)
        xs = TranslationSystem(cfg)
        xs.translate_batch([0.5, 10.5, 20.5, 30.5, 40.5], [1, 2, 3, 4, 5], [False] * 5)
        assert xs.miss_window.series.times == [10.5, 30.5]
        assert xs.miss_window.series.values == [1.0, 1.0]
