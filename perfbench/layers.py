"""Per-layer host-time attribution by wrapping each layer's entry points.

:class:`LayerTracer` replaces the public entry points listed in
:data:`ENTRY_POINTS` with timing wrappers, from outside the program: a
class attribute for methods, every ``repro.*`` module binding for
functions.  Each wrapper records one span per call (per resumption for
generators) on a shared stack, so a layer's self time is its spans'
duration minus the part covered by child spans.  Time spent between
wrapped entry points stays with the innermost enclosing span; time outside
every span is reported as unattributed.

The per-access helpers (``StatsRegistry.counter``, ``Timeline.book`` and
friends) deliberately get no span: they run several times per memory
access, so wrapping them multiplies the traced run's cost and distorts the
shares.  Their time stays in the calling layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: (layer, module, entry point, note).  An entry point is ``func``,
#: ``Class.method`` or ``*.method`` (every class in the module defining it).
#: The note names a hook that reads extra work counts off the call.
ENTRY_POINTS: tuple[tuple[str, str, str, str | None], ...] = (
    ("sw.runtime", "repro.sw.runtime", "Runtime.run", None),
    ("sw.runtime", "repro.sw.runtime", "Runtime.run_generator", None),
    ("sw.compile", "repro.sw.compiler", "compile_graph", None),
    ("core.controller", "repro.core.controller", "Controller.issue", None),
    ("core.dma", "repro.core.dma", "DMAEngine.transfer", "dma"),
    ("mem.system", "repro.mem.hierarchy", "MemorySystem.access", None),
    ("mem.system", "repro.mem.hierarchy", "MemorySystem.access_batch", None),
    ("mem.tlb", "repro.mem.tlb", "TranslationSystem.translate_vpn", None),
    ("mem.tlb", "repro.mem.tlb", "TranslationSystem.translate_batch", "vpns"),
    ("mem.page_table", "repro.mem.page_table", "VirtualMemory.translate", None),
    ("mem.cache", "repro.mem.cache", "Cache.access", None),
    ("mem.cache", "repro.mem.cache", "Cache.access_batch", None),
    ("mem.dram", "repro.mem.dram", "DRAMModel.access", None),
    ("mem.dram", "repro.mem.dram", "DRAMModel.access_batch", None),
    ("sim.trace", "repro.sim.trace", "MacroTrace.replay", None),
    ("sim.trace", "repro.sim.trace", "TraceRecorder.record", None),
    ("sim.trace", "repro.sim.trace", "TraceRecorder.build_trace", None),
    ("sim.trace", "repro.sim.trace", "record_steady_state_trace", None),
    ("sim.engine", "repro.sim.engine", "EventLoop.run", None),
    ("serve.cluster", "repro.serve.cluster", "ServingSimulation.run", None),
    ("serve.cluster", "repro.serve.cluster", "_TileActor.step", None),
    ("serve.scheduler", "repro.serve.scheduler", "*.add", None),
    ("serve.scheduler", "repro.serve.scheduler", "*.pick", None),
    ("dse.engine", "repro.dse.engine", "Explorer.explore", None),
    ("dse.batch", "repro.dse.objectives", "evaluate_design_batch", "points"),
    ("dse.strategies", "repro.dse.strategies", "*.ask", None),
    ("dse.strategies", "repro.dse.strategies", "*.tell", None),
    ("dse.pareto", "repro.dse.pareto", "split_front", None),
    ("dse.pareto", "repro.dse.pareto", "front_hypervolume", None),
    ("eval.runner", "repro.eval.runner", "ExperimentRunner.map_batch", None),
    ("eval.runner", "repro.eval.runner", "ExperimentRunner.run_specs", None),
    ("eval.runner.key", "repro.eval.runner", "ExperimentSpec.key", None),
    ("eval.runner.cache", "repro.eval.runner", "ResultCache.get", None),
    ("eval.runner.cache", "repro.eval.runner", "ResultCache.put", None),
)


class Entry:
    """Accumulators of one wrapped entry point.

    A plain slotted class on purpose: wrappers close over it, and the
    experiment runner canonicalises the closure cells of the callables it
    hashes, which for this class is one cheap ``repr``.
    """

    __slots__ = ("layer", "stack", "self_s", "calls", "items", "extra")

    def __init__(self, layer: str, stack: list) -> None:
        self.layer = layer
        self.stack = stack
        self.self_s = 0.0
        self.calls = 0
        self.items = 0  # batch entries: elements handed to the batch call
        self.extra = 0.0  # DMA: translation-stall cycles of the transfers

    def reset(self) -> None:
        self.self_s = 0.0
        self.calls = 0
        self.items = 0
        self.extra = 0.0


def _span(entry: Entry, fn, note: str | None):
    clock = time.perf_counter

    if inspect.isgeneratorfunction(fn):
        def timed_resumptions(gen):
            stack = entry.stack
            try:
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        entry.self_s += elapsed - stack.pop()
                        stack[-1] += elapsed
                    yield value
            finally:
                gen.close()

        @functools.wraps(fn)
        def span_gen(*args, **kwargs):
            entry.calls += 1
            return timed_resumptions(fn(*args, **kwargs))

        return span_gen

    @functools.wraps(fn)
    def span(*args, **kwargs):
        stack = entry.stack
        stack.append(0.0)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            entry.self_s += elapsed - stack.pop()
            stack[-1] += elapsed
            entry.calls += 1
        if note == "dma":
            entry.items += args[4]  # nrows
            entry.extra += result.translation_stall
        elif note == "vpns":  # translate_batch(self, now, vpns, is_write)
            entry.items += len(args[2])
        elif note == "points":  # evaluate_design_batch(points, spec)
            entry.items += len(args[0])
        return result

    return span


class LayerTracer:
    """Installs the span wrappers, accumulates, and restores on uninstall."""

    def __init__(self) -> None:
        self.stack = [0.0]  # root frame: time covered by top-level spans
        self.entries: dict[str, Entry] = {}
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer, module_name, target, note in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, __, attr = target.rpartition(".")
            if not owner_name:
                self._patch_function(layer, module, attr, note)
                continue
            if owner_name == "*":
                owners = [
                    obj for obj in vars(module).values()
                    if inspect.isclass(obj) and obj.__module__ == module.__name__
                    and attr in vars(obj)
                ]
            else:
                owners = [getattr(module, owner_name)]
            for owner in owners:
                self._patch_method(layer, owner, attr, note)

    def _entry(self, layer: str, name: str) -> Entry:
        entry = self.entries[name] = Entry(layer, self.stack)
        return entry

    def _patch_method(self, layer: str, owner: type, attr: str, note) -> None:
        original = vars(owner)[attr]
        entry = self._entry(layer, f"{owner.__name__}.{attr}")
        if isinstance(original, property):
            wrapped = property(_span(entry, original.fget, note))
        else:
            wrapped = _span(entry, original, note)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def _patch_function(self, layer: str, module, attr: str, note) -> None:
        original = getattr(module, attr)
        wrapped = _span(self._entry(layer, attr), original, note)
        # Rebind every ``from module import func`` copy as well.
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "repro" and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        self.stack[:] = [0.0]
        for entry in self.entries.values():
            entry.reset()

    # -- readout -------------------------------------------------------- #

    def self_s(self, layer: str) -> float:
        return sum(e.self_s for e in self.entries.values() if e.layer == layer)

    def calls(self, *names: str) -> int:
        return sum(self.entries[n].calls for n in names)

    def layer_calls(self, layer: str) -> int:
        return sum(e.calls for e in self.entries.values() if e.layer == layer)

    def items(self, name: str) -> int:
        return self.entries[name].items

    def extra(self, name: str) -> float:
        return self.entries[name].extra

    @property
    def covered_s(self) -> float:
        """Host time inside any top-level span."""
        return self.stack[0]
