"""Fault suite for the shared on-disk layer and the four stores built on it.

The run ledger, the schedule cache and the result cache are append logs;
serving checkpoints are atomic whole-file writes.  Every store must
survive a writer killed mid-write, truncated and corrupt records, a
read-only directory and a full disk.  The failure policy per store is
pinned here: the ledger, the schedule cache and checkpoints raise and
leave the file (and any in-memory map) as it was; ``ResultCache.put``
swallows the error and leaves the log as it was.

Read-only directories and full disks are simulated by injecting
``PermissionError`` from ``os.open`` and ``ENOSPC`` from ``os.write``,
so the suite means the same when it runs as root.
"""

import errno
import multiprocessing
import os
import pickle
import signal
import time
import warnings
from pathlib import Path

import pytest

from repro.core.config import default_config
from repro.eval.runner import ResultCache
from repro.obs.ledger import RunLedger, RunRecord
from repro.serve import (
    ServingSimulation,
    TenantSpec,
    TrafficProfile,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve import checkpoint as checkpoint_module
from repro.store import env_path, read_json_lines, scan_json_lines, write_atomic
from repro.sw.schedule_cache import ScheduleCache, ScheduleKey, ScheduleRecord, schedule_key
from repro.sw.tiling import MatmulTiling

CFG = default_config()
FORK = multiprocessing.get_context("fork")


@pytest.fixture(scope="module")
def parked_sim(tmp_path_factory):
    """A small serving simulation parked at its first checkpoint barrier."""
    path = tmp_path_factory.mktemp("parked") / "serve.ckpt"
    profile = TrafficProfile(
        tenants=(
            TenantSpec(
                name="web", arrival="poisson", rate_qps=300.0, num_requests=6,
                slo_ms=5.0, model="squeezenet", input_hw=32,
            ),
        ),
        num_tiles=1,
        scheduler="fcfs",
        seed=1,
    )
    halted = ServingSimulation(profile, checkpoint_every=2, checkpoint_path=path).run(
        stop_after_checkpoints=1
    )
    assert halted is None
    return load_checkpoint(path)


# ---------------------------------------------------------------------- #
# One adapter per store: write record ``i``, read back the ids it holds   #
# ---------------------------------------------------------------------- #


class LedgerStore:
    append_log = True
    raises = True

    def __init__(self, root, sim=None):
        self.path = root / "ledger.jsonl"
        self.store = RunLedger(self.path)

    def write(self, i):
        return self.store.append(RunRecord(run_id=f"run-{i}", kind="bench", name=str(i)))

    def target(self, i):
        return self.path

    def read(self):
        return [int(record.name) for record in RunLedger(self.path).records()]

    def memory(self):
        return None


class ScheduleStore:
    append_log = True
    raises = True

    def __init__(self, root, sim=None):
        self.path = root / "schedules.jsonl"
        self.store = ScheduleCache(self.path)
        len(self.store)  # load the file, so the in-memory map is live

    def write(self, i):
        m = i + 1
        return self.store.put(
            ScheduleRecord(
                key=schedule_key(CFG, m, 16, 16),
                tiling=MatmulTiling(1, 1, 1, CFG.dim, m, 16, 16),
            )
        )

    def target(self, i):
        return self.path

    def read(self):
        return sorted(record.key.m - 1 for record in ScheduleCache(self.path).records())

    def memory(self):
        return self.store.records()


class ResultStore:
    append_log = True
    raises = False

    def __init__(self, root, sim=None):
        self.store = ResultCache(root / "results")
        self.path = self.store.path

    def write(self, i):
        return self.store.put(f"k{i}", {"i": i, "pad": bytes(64 * 1024)})

    def target(self, i):
        return self.path

    def read(self):
        # The keys of every readable line (the tolerant reader warns about
        # the rest), then each value through a fresh cache's index.
        keys = read_json_lines(self.path, "result cache", lambda entry: entry["key"])
        cache = ResultCache(self.store.directory)
        values = [cache.get(key) for key in keys]
        assert len(cache) == len(keys)
        return sorted(value["i"] for value in values if value is not ResultCache._MISS)

    def memory(self):
        return None


class CheckpointStore:
    append_log = False
    raises = True

    def __init__(self, root, sim=None):
        self.path = root / "serve.ckpt"
        self.sim = sim

    def write(self, i):
        return save_checkpoint(self.sim, self.path)

    def target(self, i):
        return self.path

    def read(self):
        # One path, overwritten in place: an intact checkpoint is "record 0".
        assert isinstance(load_checkpoint(self.path), ServingSimulation)
        return [0]

    def memory(self):
        return None


STORES = [LedgerStore, ScheduleStore, ResultStore, CheckpointStore]
STORE_IDS = ["ledger", "schedule_cache", "result_cache", "checkpoint"]


@pytest.fixture(params=STORES, ids=STORE_IDS)
def make_store(request, tmp_path):
    sim = request.getfixturevalue("parked_sim") if request.param is CheckpointStore else None
    return lambda: request.param(tmp_path, sim)


def _snapshot(root):
    """Every file under ``root`` with its bytes (tmp files included)."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


# ---------------------------------------------------------------------- #
# The shared layer                                                         #
# ---------------------------------------------------------------------- #


class TestEnvPath:
    def test_unset_or_empty_is_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_STORE", raising=False)
        assert env_path("REPRO_TEST_STORE", "d/x.jsonl") == Path("d/x.jsonl")
        monkeypatch.setenv("REPRO_TEST_STORE", "  ")
        assert env_path("REPRO_TEST_STORE", "d/x.jsonl") == Path("d/x.jsonl")

    def test_named_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TEST_STORE", str(tmp_path / "mine.jsonl"))
        assert env_path("REPRO_TEST_STORE", "d/x.jsonl") == tmp_path / "mine.jsonl"

    @pytest.mark.parametrize("value", ["0", "off", "none", "disabled", "Off", " OFF "])
    def test_off(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TEST_STORE", value)
        assert env_path("REPRO_TEST_STORE", "d/x.jsonl") is None


class TestReadJsonLines:
    def test_decode_errors_count_as_corrupt_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"v": 1}\n{"w": 2}\n{"v": 3}\n')
        with pytest.warns(RuntimeWarning, match=r"test log .*: skipping corrupt line 2$"):
            values = read_json_lines(path, "test log", lambda data: data["v"])
        assert values == [1, 3]

    def test_non_object_lines_are_corrupt(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('[1, 2]\n"text"\n{"v": 1}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read_json_lines(path, "test log", lambda data: data) == [{"v": 1}]
        assert len(caught) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert read_json_lines(tmp_path / "absent.jsonl", "test log", dict) == []


class TestScanJsonLines:
    def test_offsets_and_an_unfinished_final_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"v": 1}\n{"v": 2}\n{"v": 3')
        entries, end = scan_json_lines(path, "test log", lambda data: data["v"])
        assert entries == [(0, 1), (9, 2)]
        assert end == 18  # the unfinished line waits for its newline
        with path.open("ab") as fh:
            fh.write(b'}\n{"v": 4}\n')
        assert scan_json_lines(path, "test log", lambda data: data["v"], end) == (
            [(18, 3), (27, 4)],
            36,
        )

    def test_corrupt_lines_are_skipped_by_byte_offset(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"v": 1}\n[1]\n\n{"w": 2}\n{"v": 3}\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            entries, end = scan_json_lines(path, "test log", lambda data: data["v"])
        assert entries == [(0, 1), (23, 3)]
        assert end == path.stat().st_size
        assert [str(w.message).rsplit(": ", 1)[1] for w in caught] == [
            "skipping corrupt line at byte 9",
            "skipping corrupt line at byte 14",
        ]

    def test_missing_file_is_empty(self, tmp_path):
        assert scan_json_lines(tmp_path / "absent.jsonl", "test log", dict, 5) == ([], 5)


class TestWriteAtomic:
    def test_tmp_name_is_per_process_and_cleaned_up(self, tmp_path, monkeypatch):
        path = tmp_path / "blob.bin"
        seen = []
        real_replace = os.replace

        def spy(src, dst):
            seen.append(os.path.basename(src))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        write_atomic(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert seen == [f".blob.bin.{os.getpid()}.tmp"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]

    def test_failed_write_removes_tmp_and_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "blob.bin"
        write_atomic(path, b"old")
        monkeypatch.setattr(os, "replace", _raiser(OSError(errno.EXDEV, "cross-device")))
        with pytest.raises(OSError):
            write_atomic(path, b"new")
        assert _snapshot(tmp_path) == {"blob.bin": b"old"}


# ---------------------------------------------------------------------- #
# On-disk formats are unchanged                                            #
# ---------------------------------------------------------------------- #

#: the exact bytes an earlier release appended for the records below
GOLDEN_LEDGER_LINE = (
    b'{"config_hash":"c0ffee","kind":"serve","metrics":{"p99_ms":4.25,"qps":120.0},'
    b'"name":"fcfs:squeezenet","provenance":{"git_dirty":false,"git_rev":'
    b'"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"},"run_id":"run-golden-1","schema":1,'
    b'"seed":3,"ts":1700000000.25,"wall_s":1.5,"workload":{"tenants":["a","b"],'
    b'"tiles":2},"workload_hash":"beef"}\n'
)
GOLDEN_SCHEDULE_LINE = (
    b'{"candidates":9,"digest":"fc7a8d6fb84d5b0f","greedy_cycles":120.0,"key":'
    b'{"config_hash":"0123456789abcdef","double_buffer":true,"dtype":"int8","k":128,'
    b'"m":64,"n":32,"tuner_version":1},"schema":1,"tiling":{"dim":16,"double_buffer":'
    b'true,"i_blocks":2,"j_blocks":2,"k":128,"k_blocks":4,"loop_order":"ijk","m":64,'
    b'"n":32},"ts":1700000000.5,"tuned_cycles":100.0,"verified":3}\n'
)

#: ``ResultCache.put("abc", {"v": 1})``: the key and the base64 protocol-4 pickle
GOLDEN_RESULT_LINE = (
    b'{"key":"abc","pickle":"gASVCgAAAAAAAAB9lIwBdpRLAXMu"}\n'
)


def _golden_run_record():
    return RunRecord(
        run_id="run-golden-1", kind="serve", name="fcfs:squeezenet", seed=3,
        ts=1700000000.25, wall_s=1.5, config_hash="c0ffee", workload_hash="beef",
        workload={"tiles": 2, "tenants": ["a", "b"]},
        metrics={"p99_ms": 4.25, "qps": 120.0},
        provenance={"git_rev": "a" * 40, "git_dirty": False},
    )


def _golden_schedule_record():
    return ScheduleRecord(
        key=ScheduleKey(m=64, k=128, n=32, dtype="int8", config_hash="0123456789abcdef"),
        tiling=MatmulTiling(2, 2, 4, 16, 64, 128, 32),
        tuned_cycles=100.0, greedy_cycles=120.0, candidates=9, verified=3,
        ts=1700000000.5,
    )


class TestGoldenFormat:
    def test_ledger_append_bytes(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append(_golden_run_record())
        assert path.read_bytes() == GOLDEN_LEDGER_LINE

    def test_schedule_cache_append_bytes(self, tmp_path):
        path = tmp_path / "schedules.jsonl"
        ScheduleCache(path).put(_golden_schedule_record())
        assert path.read_bytes() == GOLDEN_SCHEDULE_LINE

    def test_earlier_files_read_back_equal(self, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        ledger_path.write_bytes(GOLDEN_LEDGER_LINE * 2)
        assert RunLedger(ledger_path).records() == [_golden_run_record()] * 2
        cache_path = tmp_path / "schedules.jsonl"
        cache_path.write_bytes(GOLDEN_SCHEDULE_LINE)
        assert ScheduleCache(cache_path).records() == [_golden_schedule_record()]

    def test_result_cache_append_bytes(self, tmp_path):
        ResultCache(tmp_path).put("abc", {"v": 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["results.jsonl"]
        assert (tmp_path / "results.jsonl").read_bytes() == GOLDEN_RESULT_LINE
        assert ResultCache(tmp_path).get("abc") == {"v": 1}

    def test_leftover_pickle_entry_is_a_miss(self, tmp_path):
        """Caches written one pickle file per key before the append log
        read as empty: the old files are neither read nor removed."""
        (tmp_path / "abc.pkl").write_bytes(pickle.dumps({"v": 1}))
        cache = ResultCache(tmp_path)
        assert cache.get("abc") is ResultCache._MISS
        assert len(cache) == 0
        cache.put("abc", {"v": 2})
        assert ResultCache(tmp_path).get("abc") == {"v": 2}
        assert (tmp_path / "abc.pkl").exists()


# ---------------------------------------------------------------------- #
# Faults, for every store                                                  #
# ---------------------------------------------------------------------- #


def _write_forever(make, ready) -> None:
    store = make()
    i = 0
    while True:
        store.write(i)
        i += 1
        if i == 3:
            ready.set()


class TestKilledWriter:
    def test_sigkill_mid_write_loses_at_most_the_final_record(self, make_store):
        ready = FORK.Event()
        child = FORK.Process(target=_write_forever, args=(make_store, ready))
        child.start()
        try:
            assert ready.wait(timeout=60)
            time.sleep(0.05)
        finally:
            os.kill(child.pid, signal.SIGKILL)
            child.join(timeout=60)
        assert child.exitcode == -signal.SIGKILL

        store = make_store()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ids = store.read()
        assert ids and ids == list(range(len(ids)))
        if store.append_log:
            text = store.path.read_bytes()
            assert len(ids) == text.count(b"\n")
            torn = [w for w in caught if "truncated final line" in str(w.message)]
            assert len(torn) == (0 if text.endswith(b"\n") else 1)


class TestDamagedRecords:
    def test_truncated_record(self, make_store):
        store = make_store()
        store.write(0)
        store.write(1)
        target = store.target(1)
        target.write_bytes(target.read_bytes()[:-10])  # the writer died mid-record
        if isinstance(store, CheckpointStore):
            with pytest.raises((EOFError, pickle.UnpicklingError, ValueError)):
                store.read()
        elif store.append_log:
            with pytest.warns(RuntimeWarning, match="truncated final line"):
                assert store.read() == [0]
        else:
            assert store.read() == [0]

    def test_corrupt_record(self, make_store):
        store = make_store()
        store.write(0)
        if store.append_log:
            with store.path.open("ab") as fh:
                fh.write(b"{not json at all\n")
            store.write(1)
            with pytest.warns(RuntimeWarning, match="skipping corrupt line 2$"):
                assert store.read() == [0, 1]
            return
        store.write(1)
        store.target(0).write_bytes(b"not a pickle")
        if isinstance(store, CheckpointStore):
            with pytest.raises((pickle.UnpicklingError, ValueError)):
                store.read()
        else:
            assert store.read() == [1]


def _raiser(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


FAULTS = {
    "read_only_dir": ("open", PermissionError(errno.EACCES, "Permission denied")),
    "full_disk": ("write", OSError(errno.ENOSPC, "No space left on device")),
}


class TestFailedWrites:
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_failed_write_keeps_the_store_as_it_was(
        self, make_store, monkeypatch, tmp_path, fault
    ):
        store = make_store()
        store.write(0)
        files, memory = _snapshot(tmp_path), store.memory()
        name, exc = FAULTS[fault]
        with monkeypatch.context() as patch:
            patch.setattr(os, name, _raiser(exc))
            if store.raises:
                with pytest.raises(OSError) as raised:
                    store.write(1)
                assert raised.value is exc
            else:
                assert store.write(1) is None
        # No new entry, no tmp file, not one byte changed.
        assert _snapshot(tmp_path) == files
        assert store.memory() == memory
        assert store.read() == [0]


# ---------------------------------------------------------------------- #
# Checkpoints: concurrent writers and the trust boundary                   #
# ---------------------------------------------------------------------- #


def _checkpoint_in_lockstep(sim, path, barrier, rounds) -> None:
    for __ in range(rounds):
        barrier.wait(timeout=60)
        save_checkpoint(sim, path)


class TestCheckpointStore:
    def test_two_runs_checkpointing_to_one_path(self, parked_sim, tmp_path):
        """Each writer has its own tmp file, so neither can rename the
        other's half-written checkpoint over the last good one."""
        path = tmp_path / "serve.ckpt"
        barrier = FORK.Barrier(2)
        writers = [
            FORK.Process(target=_checkpoint_in_lockstep, args=(parked_sim, path, barrier, 12))
            for __ in range(2)
        ]
        for writer in writers:
            writer.start()
        while any(writer.is_alive() for writer in writers):
            if any(writer.exitcode for writer in writers):
                barrier.abort()  # one writer died: release the other now
            if path.exists():
                assert isinstance(load_checkpoint(path), ServingSimulation)
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        assert isinstance(load_checkpoint(path), ServingSimulation)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["serve.ckpt"]

    def test_other_source_tree_is_refused(self, parked_sim, tmp_path, monkeypatch):
        path = tmp_path / "serve.ckpt"
        save_checkpoint(parked_sim, path)
        ours = checkpoint_module._source_fingerprint()
        monkeypatch.setattr(checkpoint_module, "_source_fingerprint", lambda: "f" * 64)
        with pytest.raises(ValueError, match=f"{ours}.*{'f' * 64}"):
            load_checkpoint(path)

    def test_schema_1_is_refused(self, parked_sim, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({"schema": 1, "sim": parked_sim}))
        with pytest.raises(ValueError, match="checkpoint schema 1 != 2"):
            load_checkpoint(path)
