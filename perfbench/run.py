"""Simulator perf-anatomy benchmark: host time of the Gemmini simulator.

Run from the repository root::

    python3 perfbench/run.py --workload run-resnet50 --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's timed call (setup, then one batch
simulation or sweep) until ``--seconds`` would be exceeded, at least
``min_reps`` times, and reports the end-to-end metrics as medians over the
calls.  ``--trace 1`` makes one untraced call and one call with a span on
every layer entry point (see ``layers.py``), and reports the per-layer
metrics, the tracing overhead, and whether both calls produced the same
simulated digest.

Every run prints a human-readable report and, as its last line, one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

All reported times are corrected for the host's speed while they were
taken (see ``hostspeed.py``); the report also prints the raw seconds.

The run touches no host state outside the checkout: the run ledger and the
schedule cache are off (so tilings are greedy, whatever a user cached),
DSE result caches live in a fresh directory under ``.perfbench-tmp/`` that
is removed on exit, and numeric libraries are held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-up samples a run takes at least (extra ones after the timed calls)
SETUP_SAMPLES = 3

#: (name, unit) of the metrics a --trace 0 run reports
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("ops_per_s", "1/s"),
)

#: (name, unit) of the metrics a --trace 1 run reports
PER_LAYER = (
    ("sw.compile_share", "ratio"),
    ("sw.runtime.self_share", "ratio"),
    ("core.controller.ops", "count"),
    ("core.controller.self_share", "ratio"),
    ("core.dma.transfers", "count"),
    ("core.dma.rows", "count"),
    ("core.dma.self_share", "ratio"),
    ("core.dma.xlat_stall_cycles", "cycles"),
    ("mem.system.self_share", "ratio"),
    ("mem.tlb.calls", "count"),
    ("mem.tlb.translations", "count"),
    ("mem.tlb.self_share", "ratio"),
    ("mem.tlb.hit_ratio", "ratio"),
    ("mem.page_table.calls", "count"),
    ("mem.page_table.self_share", "ratio"),
    ("mem.cache.calls", "count"),
    ("mem.cache.batch_calls", "count"),
    ("mem.cache.self_share", "ratio"),
    ("mem.cache.hit_ratio", "ratio"),
    ("mem.dram.calls", "count"),
    ("mem.dram.bytes", "B"),
    ("mem.dram.self_share", "ratio"),
    ("sim.trace.replays", "count"),
    ("sim.trace.recordings", "count"),
    ("sim.trace.replay_ratio", "ratio"),
    ("sim.trace.self_share", "ratio"),
    ("sim.engine.self_share", "ratio"),
    ("serve.scheduler.calls", "count"),
    ("serve.scheduler.self_share", "ratio"),
    ("serve.cluster.self_share", "ratio"),
    ("dse.engine.self_share", "ratio"),
    ("dse.batch.points", "count"),
    ("dse.batch.self_share", "ratio"),
    ("dse.strategies.self_share", "ratio"),
    ("dse.pareto.calls", "count"),
    ("dse.pareto.self_share", "ratio"),
    ("eval.runner.key_self_share", "ratio"),
    ("eval.runner.cache_self_share", "ratio"),
    ("eval.runner.cache_puts", "count"),
    ("eval.runner.hit_ratio", "ratio"),
    ("eval.runner.self_share", "ratio"),
    ("unattributed_share", "ratio"),
    ("traced_wall_s", "s"),
    ("untraced_wall_s", "s"),
    ("trace_overhead_s", "s"),
)


def _timed(speed, fn, *args):
    """(value, raw seconds, host-speed-corrected seconds) of one call."""
    mark = speed.mark()
    value = fn(*args)
    return (value, *speed.since(mark))


def _call(workload, speed, setups: list[float]):
    """One timed call: a fresh setup, then the workload's run."""
    state, __, setup_s = _timed(speed, workload.setup)
    setups.append(setup_s)
    try:
        return _timed(speed, workload.run, state)
    finally:
        workload.teardown(state)


def measure(workload, speed, seconds: float, import_s: float):
    """--trace 0: end-to-end metrics over back-to-back timed calls."""
    outcomes, raws, walls, setups = [], [], [], []
    start = time.perf_counter()
    while True:
        outcome, raw, wall = _call(workload, speed, setups)
        outcomes.append(outcome)
        raws.append(raw)
        walls.append(wall)
        elapsed = time.perf_counter() - start
        if len(outcomes) >= workload.min_reps and elapsed * (1 + 1 / len(outcomes)) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        state, __, setup_s = _timed(speed, workload.setup)
        workload.teardown(state)
        setups.append(setup_s)
    print(f"  host seconds per call, raw: {' '.join(f'{w:.4f}' for w in raws)}")
    print(f"  host seconds per call, corrected: {' '.join(f'{w:.4f}' for w in walls)}")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_mcycles_per_s": statistics.median(
            o.sim_cycles / w / 1e6 for o, w in zip(outcomes, walls)
        ),
        "ops_per_s": statistics.median(o.ops / w for o, w in zip(outcomes, walls)),
    }
    return outcomes, metrics, dict(END_TO_END)


def trace(workload, speed):
    """--trace 1: one untraced and one traced call; per-layer metrics."""
    from layers import LayerTracer

    plain, __, plain_wall = _call(workload, speed, [])
    tracer = LayerTracer()
    tracer.install()
    try:
        state = workload.setup()
        compile_s = tracer.self_s("sw.compile")
        tracer.reset()
        try:
            traced, raw, wall = _timed(speed, workload.run, state)
        finally:
            workload.teardown(state)
        compile_s += tracer.self_s("sw.compile")
    finally:
        tracer.uninstall()

    # Layer times as shares of the traced call, so that a layer a workload
    # never enters reads 0 as a ratio, not as a time.
    calls, items = tracer.calls, tracer.items

    def share(layer: str) -> float:
        return tracer.self_s(layer) / raw

    stats = traced.stats
    metrics = {
        "sw.compile_share": compile_s / raw,
        "sw.runtime.self_share": share("sw.runtime"),
        "core.controller.ops": calls("Controller.issue"),
        "core.controller.self_share": share("core.controller"),
        "core.dma.transfers": calls("DMAEngine.transfer"),
        "core.dma.rows": items("DMAEngine.transfer"),
        "core.dma.self_share": share("core.dma"),
        "core.dma.xlat_stall_cycles": tracer.extra("DMAEngine.transfer"),
        "mem.system.self_share": share("mem.system"),
        "mem.tlb.calls": calls(
            "TranslationSystem.translate_vpn", "TranslationSystem.translate_batch"
        ),
        "mem.tlb.translations": calls("TranslationSystem.translate_vpn")
        + items("TranslationSystem.translate_batch"),
        "mem.tlb.self_share": share("mem.tlb"),
        "mem.tlb.hit_ratio": stats.get("tlb_hit_ratio", 0.0),
        "mem.page_table.calls": calls("VirtualMemory.translate"),
        "mem.page_table.self_share": share("mem.page_table"),
        "mem.cache.calls": calls("Cache.access"),
        "mem.cache.batch_calls": calls("Cache.access_batch"),
        "mem.cache.self_share": share("mem.cache"),
        "mem.cache.hit_ratio": stats.get("l2_hit_ratio", 0.0),
        "mem.dram.calls": calls("DRAMModel.access", "DRAMModel.access_batch"),
        "mem.dram.bytes": stats.get("dram_bytes", 0),
        "mem.dram.self_share": share("mem.dram"),
        "sim.trace.replays": stats.get("replayed", 0),
        "sim.trace.recordings": calls("TraceRecorder.record"),
        "sim.trace.replay_ratio": stats.get("replay_ratio", 0.0),
        "sim.trace.self_share": share("sim.trace"),
        "sim.engine.self_share": share("sim.engine"),
        "serve.scheduler.calls": tracer.layer_calls("serve.scheduler"),
        "serve.scheduler.self_share": share("serve.scheduler"),
        "serve.cluster.self_share": share("serve.cluster"),
        "dse.engine.self_share": share("dse.engine"),
        "dse.batch.points": items("evaluate_design_batch"),
        "dse.batch.self_share": share("dse.batch"),
        "dse.strategies.self_share": share("dse.strategies"),
        "dse.pareto.calls": tracer.layer_calls("dse.pareto"),
        "dse.pareto.self_share": share("dse.pareto"),
        "eval.runner.key_self_share": share("eval.runner.key"),
        "eval.runner.cache_self_share": share("eval.runner.cache"),
        "eval.runner.cache_puts": calls("ResultCache.put"),
        "eval.runner.hit_ratio": stats.get("cache_hit_ratio", 0.0),
        "eval.runner.self_share": share("eval.runner"),
        "unattributed_share": max(0.0, raw - tracer.covered_s) / raw,
        "traced_wall_s": wall,
        "untraced_wall_s": plain_wall,
        "trace_overhead_s": wall - plain_wall,
    }
    return [plain, traced], metrics, dict(PER_LAYER)


def report(workload, args, outcomes, metrics, failed: int) -> None:
    """Human-readable lines before the JSON result."""
    last = outcomes[-1]
    print(f"  timed calls: {len(outcomes)}")
    attempted = sum(o.ops for o in outcomes)
    print(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} {workload.op_name}s)")
    if not args.trace:
        rate = {"request": "requests_per_s", "design point": "points_per_s"}.get(
            workload.op_name, "inferences_per_s"
        )
        print(f"  {rate} {metrics['ops_per_s']:.6g} 1/s (ops_per_s)")
    for key, value in sorted(last.stats.items()):
        print(f"  sim {key} {value!r}")
    print(f"  {workload.validation}")
    print(f"  digest {last.digest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Before any import: no ledger or schedule-cache state from the host,
    # one numeric thread.
    os.environ.update(
        REPRO_LEDGER="off",
        REPRO_SCHEDULE_CACHE="off",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from hostspeed import HostSpeed

    speed = HostSpeed()
    speed.start()
    scratch = ROOT / ".perfbench-tmp" / str(os.getpid())
    try:
        mark = speed.mark()
        import workloads

        __, import_s = speed.since(mark)
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload](args.seed, str(scratch))
        mode = "traced" if args.trace else "timed"
        print(f"perfbench {workload.name} seed={args.seed} {mode}")
        scratch.mkdir(parents=True, exist_ok=True)
        if args.trace:
            outcomes, metrics, units = trace(workload, speed)
        else:
            outcomes, metrics, units = measure(workload, speed, args.seconds, import_s)
    finally:
        speed.stop()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # absent, or another run still uses it

    attempted = sum(o.ops for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = workload.check_reps(outcomes)
    if problems:
        failed = attempted  # no call of the run can be trusted
    problems += [p for o in outcomes for p in o.problems]
    report(workload, args, outcomes, metrics, failed)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
