"""perfbench's layer tracer still fits the program it wraps.

``perfbench/layers.py`` patches program entry points by name and reads two
work counts off the calls by position: ``DMAEngine.transfer``'s ``nrows``
and the VPN sequence of ``TranslationSystem.translate_batch``.  A rename,
or a caller that starts passing those by keyword, breaks the benchmark's
per-layer report without failing anything in ``src/``.  This test installs
the tracer, runs one tiny model, uninstalls it, and checks both.  It loads
``perfbench/layers.py`` read-only.
"""

import importlib.util
from pathlib import Path

from repro.core.config import default_config
from repro.core.dma import DMAEngine
from repro.core.generator import SoftwareParams
from repro.mem.tlb import TranslationSystem
from repro.soc.soc import make_soc
from repro.sw.compiler import compile_graph
from repro.sw.graph import Graph
from repro.sw.runtime import Runtime

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_model(config):
    g = Graph("tiny")
    g.add_input("x", (16, 16, 3))
    g.add_weight("w1", (3, 3, 3, 8))
    g.add_node("Conv", "c1", ["x", "w1"], "a", attrs={"kernel": 3, "padding": 1, "out_ch": 8})
    g.add_weight("w2", (1, 1, 8, 8))
    g.add_node("Conv", "c2", ["a", "w2"], "b", attrs={"kernel": 1, "out_ch": 8})
    g.mark_output("b")
    return compile_graph(g, SoftwareParams.from_config(config))


def test_entry_points_resolve_and_notes_read_real_counts():
    layers = load_layers()
    config = default_config().with_im2col(True)
    soc = make_soc(gemmini=config)
    runtime = Runtime(soc.tile, tiny_model(config))
    original_transfer = DMAEngine.transfer
    original_translate = TranslationSystem.translate_batch

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        runtime.run()
    finally:
        tracer.uninstall()

    for layer, __, target, __ in layers.ENTRY_POINTS:
        owner, __, attr = target.rpartition(".")
        if owner == "*":
            wrapped = [
                name for name, entry in tracer.entries.items()
                if name.endswith(f".{attr}") and entry.layer == layer
            ]
            assert wrapped, f"no class provides {target} for layer {layer}"
        else:
            assert target in tracer.entries, f"{target} was not wrapped"

    dma = soc.tile.accel.dma
    xlat = soc.tile.accel.xlat
    assert tracer.calls("DMAEngine.transfer") == dma.stats.value("transfers") > 0
    assert tracer.items("DMAEngine.transfer") == dma.stats.value("rows")
    assert tracer.items("TranslationSystem.translate_batch") == xlat.stats.value("requests") > 0
    assert DMAEngine.transfer is original_transfer
    assert TranslationSystem.translate_batch is original_translate
