"""Parallel experiment orchestration with per-config result caching.

Figure reproduction and design-space sweeps are embarrassingly parallel:
every point is an independent (function, config) pair.  The
:class:`ExperimentRunner` fans such points out over a
``ProcessPoolExecutor`` and memoises each result on disk, keyed by a
stable hash of the function identity and its keyword arguments, so
re-running a sweep only pays for the points that changed.

``eval/experiments.py`` (via :func:`repro.eval.experiments.run_figures`),
``examples/design_space_exploration.py`` and the ``benchmarks/`` suite all
route through this module.

Environment knobs:

* ``REPRO_WORKERS`` — default worker count (``1`` forces in-process
  serial execution, which also permits non-picklable callables).
* ``REPRO_CACHE_DIR`` — honoured by the benchmark suite to place the
  result cache; this module itself only caches when given a cache.
"""

from __future__ import annotations

import base64
import enum
import functools
import hashlib
import inspect
import json
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.store import append_json, scan_json_lines

__all__ = [
    "ExperimentRunner",
    "ExperimentSpec",
    "ResultCache",
    "RunnerStats",
    "config_hash",
    "default_workers",
]


# ---------------------------------------------------------------------- #
# Config hashing                                                          #
# ---------------------------------------------------------------------- #


_PLAIN = frozenset({str, int, float, bool})


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serialisable structure.

    Dataclasses (configs) flatten to ``{type, field: value, ...}``; mappings
    get sorted keys; sets are sorted; anything else that JSON cannot encode
    falls back to its ``repr``, which is deterministic for the config
    objects used here.
    """
    if type(obj) in _PLAIN or obj is None:  # fast path; subclasses fall through
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        # Fields marked compare=False are simulation knobs, not identity.
        flat = {f.name: _canonical(getattr(obj, f.name)) for f in fields(obj) if f.compare}
        flat["__type__"] = type(obj).__qualname__
        return flat
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, dict):
        # repr keeps 1 and "1" distinct (str() would collide them).
        return {repr(k): _canonical(v) for k, v in sorted(obj.items(), key=lambda kv: repr(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(repr(_canonical(v)) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        # repr() truncates large arrays, which would collide distinct
        # sweep points; hash the full contents plus shape/dtype instead.
        return {
            "__ndarray__": obj.shape,
            "dtype": str(obj.dtype),
            "data": hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest(),
        }
    if isinstance(obj, np.generic):
        return obj.item()
    return repr(obj)


def _encode(payload: Any) -> bytes:
    """The canonical JSON bytes :func:`config_hash` hashes."""
    return json.dumps(_canonical(payload), sort_keys=True, separators=(",", ":")).encode("utf-8")


def config_hash(payload: Any) -> str:
    """Stable hex digest of an arbitrary experiment configuration."""
    return hashlib.sha256(_encode(payload)).hexdigest()


def _callable_state(fn: Callable[..., Any]) -> Any:
    """Captured state a callable's source text does not show.

    Two closures minted by the same factory share source but differ in
    their closure cells; same for ``functools.partial`` bindings and
    argument defaults.  All of it must reach the cache key, or identical-
    looking callables would collide on one entry.
    """
    if isinstance(fn, functools.partial):
        return {
            "partial_args": [_canonical(a) for a in fn.args],
            "partial_kwargs": _canonical(dict(fn.keywords or {})),
            "inner": _callable_state(fn.func),
        }
    state: dict[str, Any] = {}
    bound_self = getattr(fn, "__self__", None)
    if bound_self is not None:
        # Bound methods of different instances share source and qualname;
        # the instance is part of the computation's identity.
        state["self"] = _canonical(bound_self)
    cells = getattr(fn, "__closure__", None)
    if cells:
        contents = []
        for cell in cells:
            try:
                contents.append(_canonical(cell.cell_contents))
            except ValueError:  # still-empty cell (recursive definition)
                contents.append("<empty-cell>")
        state["closure"] = contents
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        state["defaults"] = [_canonical(d) for d in defaults]
    return state


@lru_cache(maxsize=512)
def _fn_fingerprint(inner: Callable[..., Any]) -> tuple[str, str, str]:
    """(identity, source, module source) of an innermost callable.

    Memoised per function object: a sweep computes one cache key per point
    but every point shares the same function, so the source lookups (two
    file reads through :mod:`inspect`) would otherwise dominate key cost.
    A redefined function is a new object and gets a fresh entry.
    """
    ident = f"{getattr(inner, '__module__', '?')}.{getattr(inner, '__qualname__', repr(inner))}"
    try:
        source = inspect.getsource(inner)
    except (OSError, TypeError):
        source = ""
    # Also hash the function's whole module file: sweeps commonly read
    # module-level constants (shape lists, capacities) that the
    # function's own source does not contain.
    try:
        srcfile = inspect.getsourcefile(inner)
        module_src = Path(srcfile).read_text(encoding="utf-8") if srcfile else ""
    except (OSError, TypeError):
        module_src = ""
    return ident, source, module_src


@lru_cache(maxsize=None)
def _source_fingerprint(root: str | None = None) -> str:
    """Fingerprint of the package source tree (per-file path/size/mtime).

    Folded into every cache key so that editing *any* simulator module —
    not just the experiment function itself — invalidates cached results.
    Computed once per process; caches therefore never outlive a source
    edit, at the cost of also expiring on fresh checkouts (mtimes differ),
    which only ever re-runs an experiment, never serves a stale one.
    """
    if root is None:
        root = str(Path(__file__).resolve().parents[1])  # the repro package
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*.py")):
        stat = path.stat()
        digest.update(f"{path}:{stat.st_size}:{stat.st_mtime_ns};".encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Experiment specs                                                        #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a callable plus the keyword arguments to run it with."""

    name: str
    fn: Callable[..., Any]
    kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, fn: Callable[..., Any], *, label: str | None = None, **kwargs: Any
    ) -> "ExperimentSpec":
        """Build a spec; ``label`` is the display name.  It is keyword-only
        and deliberately not called ``name`` so it can never swallow an
        experiment function's own ``name`` argument — everything else in
        ``kwargs`` reaches the function verbatim."""
        return cls(
            name=label or getattr(fn, "__name__", repr(fn)),
            fn=fn,
            kwargs=tuple(sorted(kwargs.items())),
        )

    @property
    def key(self) -> str:
        """Cache key: hash of the function identity, its source text (when
        retrievable), the package source fingerprint (so editing the
        experiment *or* the simulator it calls invalidates cached results),
        and its arguments.

        ``name`` is deliberately excluded: it is a display label (sweep
        position, figure name), and the same computation must hit the same
        cache entry however it is labelled or ordered.
        """
        return config_hash(_key_payload(self.fn, dict(self.kwargs)))

    def run(self) -> Any:
        return self.fn(**dict(self.kwargs))


def _key_payload(fn: Callable[..., Any], kwargs: dict[str, Any]) -> dict[str, Any]:
    """What :attr:`ExperimentSpec.key` hashes for ``fn`` called with ``kwargs``."""
    target = getattr(fn, "__wrapped__", fn)
    # Identity and source come from the innermost function: a partial's
    # own repr embeds a memory address (nondeterministic across runs),
    # while its bindings are already captured by _callable_state.
    inner = target
    while isinstance(inner, functools.partial):
        inner = inner.func
    try:
        ident, source, module_src = _fn_fingerprint(inner)
    except TypeError:  # unhashable callable (e.g. a custom instance)
        ident, source, module_src = _fn_fingerprint.__wrapped__(inner)
    # "kwargs" sorts after "call", so a spec's arguments are the last bytes
    # hashed and a batch hashes what its specs share once (_spec_keys).
    return {
        "call": {
            "fn": ident,
            "src": source,
            "module_src": module_src,
            "state": _callable_state(target),
            "env": _source_fingerprint(),
        },
        "kwargs": kwargs,
    }


#: stands in for ``item`` while a batch's shared key bytes are encoded
_ITEM_SLOT = "\x00item\x00"
_ITEM_SLOT_JSON = json.dumps(_ITEM_SLOT).encode("utf-8")


def _spec_keys(specs: Sequence[ExperimentSpec]) -> list[str]:
    """``[spec.key for spec in specs]``, hashing what points share once.

    Specs built by :meth:`ExperimentRunner.map` and
    :meth:`ExperimentRunner.map_batch` share one callable and the same
    shared-keyword objects; only ``item`` differs.  For each such group the
    key payload is encoded once with a placeholder item.  Each spec's key
    continues a copy of the sha256 state of the bytes before the
    placeholder with the item's canonical JSON and the few bytes after it
    (shared keywords that sort after ``item``, closing braces).  JSON
    encoding nests, so the digest equals :attr:`ExperimentSpec.key`.
    Specs without an ``item`` keyword hash whole.
    """
    keys: list[str] = []
    heads: dict[tuple, tuple[Any, bytes] | None] = {}
    for spec in specs:
        kwargs = dict(spec.kwargs)
        if "item" not in kwargs:
            keys.append(spec.key)
            continue
        # Every spec is alive for the whole call, so ids are stable here.
        group = (id(spec.fn), tuple((k, id(v)) for k, v in spec.kwargs if k != "item"))
        if group not in heads:
            encoded = _encode(_key_payload(spec.fn, {**kwargs, "item": _ITEM_SLOT}))
            before, __, after = encoded.partition(_ITEM_SLOT_JSON)
            unique = encoded.count(_ITEM_SLOT_JSON) == 1
            heads[group] = (hashlib.sha256(before), after) if unique else None
        head = heads[group]
        if head is None:
            keys.append(spec.key)
            continue
        digest = head[0].copy()
        digest.update(_encode(kwargs["item"]))
        digest.update(head[1])
        keys.append(digest.hexdigest())
    return keys


def _run_spec(spec: ExperimentSpec) -> Any:
    """Module-level trampoline so specs can cross the process boundary."""
    return spec.run()


def _run_spec_timed(spec: ExperimentSpec) -> tuple[Any, float, float, int]:
    """Traced trampoline: the worker stamps its own wall-clock interval and
    pid, so the parent can attribute the span to a worker lane.  Epoch
    (``time.time``) stamps are the one clock parent and workers share."""
    import time

    t0 = time.time()
    value = spec.run()
    return value, t0, time.time(), os.getpid()


# ---------------------------------------------------------------------- #
# Result cache                                                            #
# ---------------------------------------------------------------------- #


class ResultCache:
    """Append-log result store: one ``results.jsonl`` per directory.

    :meth:`put` appends one ``{"key", "pickle"}`` JSON line, the value's
    pickle in base64, through :func:`repro.store.append_json`: concurrent
    writers never interleave, and a killed writer loses at most its own
    last line.  :meth:`get` reads through an index of key -> line offset
    that holds no values.  The index is built in one pass on first use
    and, on a miss, extended by reading only what any process appended
    since.  A later line for a key replaces an earlier one.  Torn or
    corrupt lines, and entries that no longer unpickle, are misses.
    Reading unpickles, which runs code from the file: point a cache only
    at a directory that this user's own runs wrote.
    """

    _MISS = object()
    #: pinned so the bytes of an entry do not depend on the Python version
    _PICKLE_PROTOCOL = 4

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.path = self.directory / "results.jsonl"
        self._offsets: dict[str, int] = {}
        self._indexed = 0  # offset just past the last indexed line

    def _index(self) -> None:
        """Index the lines appended since the last call."""
        try:
            size = self.path.stat().st_size
        except OSError:
            size = 0
        if size < self._indexed:  # cleared or replaced since: start over
            self._offsets.clear()
            self._indexed = 0
        if size > self._indexed:
            entries, self._indexed = scan_json_lines(
                self.path, "result cache", _entry_key, self._indexed
            )
            self._offsets.update((key, offset) for offset, key in entries)

    def get(self, key: str) -> Any:
        """Return the cached value, or :attr:`ResultCache._MISS`."""
        offset = self._offsets.get(key)
        if offset is None:
            self._index()
            offset = self._offsets.get(key)
            if offset is None:
                return self._MISS
        try:
            with self.path.open("rb") as fh:
                fh.seek(offset)
                entry = json.loads(fh.readline())
            if entry["key"] != key:  # the log was replaced since indexing
                return self._MISS
            return pickle.loads(base64.b64decode(entry["pickle"]))
        except Exception:
            # Unpickling can fail in arbitrary ways (class moved or renamed
            # since the entry was written, __setstate__ errors); every one
            # of them is just a miss.
            return self._MISS

    def put(self, key: str, value: Any) -> None:
        try:
            data = pickle.dumps(value, protocol=self._PICKLE_PROTOCOL)
            append_json(self.path, {"key": key, "pickle": base64.b64encode(data).decode("ascii")})
        except Exception:
            # A result that cannot be pickled (serial runners permit them)
            # or a filesystem error must not fail the run that computed it —
            # the entry is simply not cached.
            pass

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)
        self._offsets.clear()
        self._indexed = 0

    def __len__(self) -> int:
        self._index()
        return len(self._offsets)


def _entry_key(entry: dict) -> str:
    """The key of one result-cache line; rejects lines missing a field."""
    key, data = entry["key"], entry["pickle"]
    if not isinstance(key, str) or not isinstance(data, str):
        raise TypeError("result-cache entry fields must be strings")
    return key


# ---------------------------------------------------------------------- #
# Runner                                                                  #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class RunnerStats:
    """Cache effectiveness counters for one runner's lifetime."""

    hits: int
    misses: int

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def to_dict(self) -> dict[str, float]:
        """JSON-ready form (lands in the BENCH_*.json ``extra_info``)."""
        return {"hits": self.hits, "misses": self.misses, "hit_rate": self.hit_rate}

    def __str__(self) -> str:
        return (
            f"cache: {self.hits} hit{'s' if self.hits != 1 else ''} / "
            f"{self.misses} miss{'es' if self.misses != 1 else ''} "
            f"({self.hit_rate:.0%} hit rate)"
        )


def default_workers() -> int:
    """Worker count: ``REPRO_WORKERS`` if set, else the CPU count."""
    env = os.environ.get("REPRO_WORKERS", "").strip()
    if env:
        return max(1, int(env))
    return max(1, os.cpu_count() or 1)


class ExperimentRunner:
    """Fan experiment specs out over processes, consulting a result cache.

    With ``max_workers == 1`` (or a single submitted spec) everything runs
    in-process, which keeps tracebacks direct and permits closures; any
    higher worker count requires picklable callables/results, which all the
    ``run_fig*`` experiment runners satisfy.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache: ResultCache | str | os.PathLike | None = None,
        tracer: "Tracer | None" = None,
        ledger=None,
    ) -> None:
        from repro.obs.ledger import NULL_LEDGER
        from repro.obs.tracer import NULL_TRACER

        self.max_workers = max_workers if max_workers is not None else default_workers()
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self._pool: ProcessPoolExecutor | None = None
        self.hits = 0
        self.misses = 0
        #: per-spec span / cache-attribution sink (no-op singleton when off)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.declare_lane("cache", process="runner", label="cache", sort=0)
        #: run-history sink: one record per ``run_specs`` batch (no-op when off)
        self.ledger = ledger if ledger is not None else NULL_LEDGER

    # -- lifecycle ------------------------------------------------------ #

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ExperimentRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- execution ------------------------------------------------------ #

    def run(self, fn: Callable[..., Any], *, label: str | None = None, **kwargs: Any) -> Any:
        """Run one experiment (cached); serial unless workers are warranted.

        ``label`` is display-only; every other keyword reaches ``fn``."""
        return self.run_specs([ExperimentSpec.make(fn, label=label, **kwargs)])[0]

    def run_specs(self, specs: Sequence[ExperimentSpec]) -> list[Any]:
        """Run specs, returning results in order.

        Cached results are served immediately; within one batch, specs with
        identical cache keys compute once and fan out (the evolutionary and
        annealing DSE strategies routinely re-propose points); the
        remainder execute in parallel (or inline when a pool is not worth
        spinning up).
        """
        batch_t0 = time.perf_counter() if self.ledger else 0.0
        results, executed = self._run_cached(specs, functools.partial(self._execute, specs))
        self._record_batch(specs, time.perf_counter() - batch_t0, executed=executed)
        return results

    def _run_cached(
        self,
        specs: Sequence[ExperimentSpec],
        execute: Callable[[list[int]], Iterable[tuple[int, Any]]],
    ) -> tuple[list[Any], int]:
        """The one cache pass behind :meth:`run_specs` and :meth:`map_batch`.

        Serves cached results, counts hits and misses, and hands the
        positions left to compute to ``execute``, which yields
        ``(position, value)`` pairs.  Specs whose key is already pending in
        this batch compute once, fan out, and count as hits.  Returns the
        results in order and the number of specs executed.
        """
        results: list[Any] = [None] * len(specs)
        pending: list[int] = []
        tracer = self.tracer
        keys = _spec_keys(specs) if self.cache is not None else None
        primary: dict[str, int] = {}  # key -> first pending position
        duplicates: dict[int, int] = {}  # position -> its primary position
        for i, spec in enumerate(specs):
            if keys is not None:
                value = self.cache.get(keys[i])
                if value is not ResultCache._MISS:
                    results[i] = value
                elif primary.setdefault(keys[i], i) != i:
                    duplicates[i] = primary[keys[i]]
                else:
                    self.misses += 1
                    pending.append(i)
                    continue
                self.hits += 1
                tracer.instant("cache", "hit", tracer.now(), {"spec": spec.name})
                continue
            self.misses += 1
            pending.append(i)
        tracer.counter("cache", "cache_hits", tracer.now(), self.hits)
        tracer.counter("cache", "cache_misses", tracer.now(), self.misses)

        # Cache every result the moment it exists: a point that fails (or a
        # Ctrl-C) must not discard the completed points of a long sweep.
        for i, value in execute(pending):
            results[i] = value
            if keys is not None:
                self.cache.put(keys[i], value)
        for i, first in duplicates.items():
            results[i] = results[first]
        return results, len(pending)

    def _execute(
        self, specs: Sequence[ExperimentSpec], pending: list[int]
    ) -> Iterator[tuple[int, Any]]:
        """Run the pending specs, yielding each result as it completes:
        in-process when a pool is not worth spinning up, else on the pool."""
        if not pending:
            return
        tracer = self.tracer
        if self.max_workers == 1 or len(pending) == 1:
            pid = os.getpid()
            lane = f"worker:{pid}"
            tracer.declare_lane(lane, process="runner", label=f"pid {pid} (inline)")
            for i in pending:
                t0 = tracer.now()
                value = _run_spec(specs[i])
                tracer.complete(lane, specs[i].name, t0, tracer.now(), {"pid": pid})
                yield i, value
            return
        pool = self._ensure_pool()
        # Only the traced path pays for the timed trampoline; untraced
        # submissions stay byte-identical to the pre-telemetry runner.
        task = _run_spec_timed if tracer else _run_spec
        futures = {pool.submit(task, specs[i]): i for i in pending}
        try:
            for future in as_completed(futures):
                i = futures[future]
                value = future.result()
                if tracer:
                    value, t0, t1, pid = value
                    lane = f"worker:{pid}"
                    tracer.declare_lane(lane, process="runner", label=f"pid {pid}")
                    tracer.complete(
                        lane,
                        specs[i].name,
                        max(0.0, tracer.to_timeline(t0)),
                        max(0.0, tracer.to_timeline(t1)),
                        {"pid": pid},
                    )
                yield i, value
        except BaseException:
            for future in futures:
                future.cancel()
            raise

    def _record_batch(self, specs: Sequence[ExperimentSpec], wall_s: float, executed: int) -> None:
        """One ledger record per ``run_specs`` batch: what ran, how long,
        and the cache split — provenance-stamped like every other record."""
        if not self.ledger or not specs:
            return
        base = specs[0].name.split("[", 1)[0]
        self.ledger.record(
            "runner",
            base,
            wall_s=wall_s,
            workload={"specs": [spec.name for spec in specs[:32]], "n": len(specs)},
            metrics={
                "specs": float(len(specs)),
                "executed": float(executed),
                "cache_hits": float(self.hits),
                "cache_misses": float(self.misses),
            },
        )

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        label: str | None = None,
        labels: Sequence[Any] | None = None,
    ) -> list[Any]:
        """Parallel (cached) map of ``fn`` over ``items``.

        Each item is passed as the callable's single positional argument;
        per-item cache keys include the item itself.  ``labels`` (optional,
        one per item) replaces the positional ``[0]``, ``[1]``... suffix in
        spec names so sweep traces read as ``dse[dim=16,tile=2]`` instead
        of ``dse[7]``; it is display-only and never reaches the cache key.
        """
        base = label or getattr(fn, "__name__", "map")
        return self.run_specs(_item_specs(_ItemCall(fn), list(items), base, labels))

    def map_batch(
        self,
        batch_fn: Callable[..., Sequence[Any]],
        items: Iterable[Any],
        *,
        label: str | None = None,
        labels: Sequence[Any] | None = None,
        **shared: Any,
    ) -> list[Any]:
        """Cached map evaluated through one vectorised batch call.

        ``batch_fn(items, **shared)`` must return one result per item, in
        order.  Caching, hit/miss accounting and duplicate-key
        deduplication stay per item — the same content-hash granularity as
        :meth:`map`, so re-running, reordering or enlarging a sweep only
        pays for genuinely new items — but all the misses execute in ONE
        ``batch_fn`` call instead of one task per item.  Runs in-process:
        the point of a batched evaluator is that its per-item cost is far
        below what a process fan-out would amortise.
        """
        items = list(items)
        base = label or getattr(batch_fn, "__name__", "map_batch")
        specs = _item_specs(
            _BatchCall(batch_fn), items, base, labels, tuple(sorted(shared.items()))
        )
        tracer = self.tracer

        def execute(pending: list[int]) -> Iterator[tuple[int, Any]]:
            if not pending:
                return
            tracer.declare_lane("batch", process="runner", label="batched evaluator")
            t0 = tracer.now()
            values = list(batch_fn([items[i] for i in pending], **shared))
            tracer.complete(
                "batch", f"{base}[batch:{len(pending)}]", t0, tracer.now(),
                {"items": len(pending), "of": len(items)},
            )
            if len(values) != len(pending):
                raise ValueError(
                    f"batch function returned {len(values)} results "
                    f"for {len(pending)} items"
                )
            yield from zip(pending, values)

        return self._run_cached(specs, execute)[0]

    def stats(self) -> RunnerStats:
        """Hits/misses/hit-rate accumulated since the last reset."""
        return RunnerStats(hits=self.hits, misses=self.misses)

    def reset_stats(self) -> None:
        """Zero the counters so multi-phase runs report per-phase numbers."""
        self.hits = 0
        self.misses = 0


def _item_specs(
    call: Callable[..., Any],
    items: list[Any],
    base: str,
    labels: Sequence[Any] | None,
    shared: tuple[tuple[str, Any], ...] = (),
) -> list[ExperimentSpec]:
    """One spec per item for :meth:`ExperimentRunner.map` and
    :meth:`ExperimentRunner.map_batch`, named ``base[label]``."""
    if labels is not None:
        labels = list(labels)
        if len(labels) != len(items):
            raise ValueError(
                f"labels length {len(labels)} does not match items length {len(items)}"
            )
    return [
        ExperimentSpec(
            name=f"{base}[{labels[i] if labels is not None else i}]",
            fn=call,
            kwargs=(("item", item),) + shared,
        )
        for i, item in enumerate(items)
    ]


class _ItemCall:
    """Adapter turning ``fn(item)`` into a kwargs call; picklable when fn is."""

    kind = "item"

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn
        self.__module__ = getattr(fn, "__module__", "?")
        self.__qualname__ = f"{self.kind}:{getattr(fn, '__qualname__', repr(fn))}"
        self.__wrapped__ = fn  # lets ExperimentSpec.key fingerprint the source

    def __call__(self, item: Any) -> Any:
        return self.fn(item)


class _BatchCall(_ItemCall):
    """Per-item cache identity over a batch function (``map_batch``).

    The spec's kwargs carry one item plus the shared keywords; calling the
    adapter evaluates just that item through a single-element batch, so a
    spec that ends up on the generic :meth:`ExperimentRunner.run_specs`
    path still computes the right value.
    """

    kind = "batch"

    def __call__(self, item: Any, **shared: Any) -> Any:
        return self.fn([item], **shared)[0]
