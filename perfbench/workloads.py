"""The four reference workloads of the simulator's perf-anatomy benchmark.

Each workload is split into ``setup`` (building everything one timed call
needs: model, compiled program, SoC, serving simulation or explorer) and
``run`` (the timed call: one batch simulation or sweep on the host).  ``run`` returns an
:class:`Outcome` carrying the simulated statistics, their digest and the
result of the output checks.

Traffic shape: the serve workloads are open loop in *simulated* time.
Arrival offsets are Poisson draws made here from the benchmark seed and
handed to the program as ``arrival="trace"`` tenants, so the program only
sees the generated inputs.  On the host every timed call is one whole
batch simulation, run back to back.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field, replace

from repro.core.config import default_config
from repro.core.generator import SoftwareParams
from repro.dse import EvaluationSpec, Explorer, gemmini_space, make_strategy, model_workload
from repro.eval.experiments import Fig7Result
from repro.eval.runner import ExperimentRunner
from repro.models import build_model
from repro.serve import ServingSimulation, TenantSpec, TrafficProfile
from repro.soc.soc import make_soc
from repro.sw import compiler
from repro.sw.runtime import Runtime

# -- simulated reference numbers of run-resnet50 on the CLI-default config
#: simulated cycles of one ResNet50@224 inference
RESNET50_CYCLES = 39_962_499.546875
#: shared-L2 miss rate, to 5 decimals
RESNET50_L2_MISS = 0.37974
#: bytes moved to and from DRAM
RESNET50_DRAM_BYTES = 74_553_280
#: accelerator TLB hit rate including the filter registers (about 90.5%)
RESNET50_TLB_HIT = 0.905
RESNET50_TLB_HIT_TOLERANCE = 0.0005


@dataclass
class Outcome:
    """What one timed call produced."""

    ops: int  # operations attempted: inferences, requests or design points
    failed: int  # operations dropped, or belonging to a failed check
    #: simulated cycles the call advanced: the run's cycles, the serving
    #: makespan (dse: cycles the analytic model estimated, summed over points)
    sim_cycles: float
    digest: str  # hash of the simulated statistics
    stats: dict = field(default_factory=dict)  # simulated statistics
    problems: list[str] = field(default_factory=list)  # failed output checks


def digest_of(payload) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:16]


def _cli_config():
    """The ``gemmini-repro`` CLI default: 16x16 PEs, 256 KB scratchpad,
    64 KB accumulator, im2col on."""
    config = default_config()
    return replace(
        config,
        mesh_rows=16 // config.tile_rows,
        mesh_cols=16 // config.tile_cols,
        sp_capacity_bytes=256 * 1024,
        acc_capacity_bytes=64 * 1024,
        has_im2col=True,
    )


def soc_stats(soc) -> dict:
    """Simulated memory-system statistics of every tile plus the shared
    L2 and DRAM, read from the program's own counters."""
    tlb_requests = tlb_served = 0
    for tile in soc.tiles:
        xlat = tile.accel.xlat.stats
        tlb_requests += xlat.value("requests")
        tlb_served += xlat.value("filter_hits") + xlat.value("private_hits")
    return {
        "tlb_hit_ratio": tlb_served / tlb_requests if tlb_requests else 0.0,
        "l2_hit_ratio": 1.0 - soc.mem.l2.miss_rate(),
        "l2_miss_rate": soc.mem.l2.miss_rate(),
        "dram_bytes": soc.mem.dram.bytes_moved,
    }


def soc_counters(soc) -> dict:
    """Every counter of every simulated component, for the digest."""
    registries = {"l2": soc.mem.l2.stats, "dram": soc.mem.dram.stats, "bus": soc.mem.bus.stats}
    for tile in soc.tiles:
        accel = tile.accel
        registries[f"t{tile.index}.xlat"] = accel.xlat.stats
        registries[f"t{tile.index}.dma"] = accel.dma.stats
        registries[f"t{tile.index}.ctrl"] = accel.controller.stats
    return {name: registry.snapshot() for name, registry in registries.items()}


class Workload:
    name = ""
    #: timed calls a run makes at least, whatever ``--seconds`` says
    min_reps = 2
    #: what one operation is, for the report
    op_name = ""
    validation = "unvalidated: the repo holds no reference results for this workload"

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self):
        raise NotImplementedError

    def run(self, state) -> Outcome:
        raise NotImplementedError

    def teardown(self, state) -> None:
        """Release what ``setup`` made outside the process."""

    def check_reps(self, outcomes: list[Outcome]) -> list[str]:
        """Checks across the timed calls of one seed."""
        if len({o.digest for o in outcomes}) > 1:
            return [f"{self.name}: repetitions disagree on the simulated digest"]
        return []


class RunResNet50(Workload):
    """One full-SoC ``Runtime(soc.tile, model).run()`` of ResNet50@224."""

    name = "run-resnet50"
    min_reps = 1  # one call takes 15-20 s on a 2-core sandbox
    op_name = "inference"
    validation = "validated against the Fig. 7 FPS anchor"

    def setup(self):
        config = _cli_config()
        graph = build_model("resnet50", input_hw=224)
        soc = make_soc(gemmini=config, cpu="rocket")
        model = compiler.compile_graph(graph, SoftwareParams.from_config(config))
        return config, soc, Runtime(soc.tile, model)

    def run(self, state) -> Outcome:
        config, soc, runtime = state
        result = runtime.run()
        stats = soc_stats(soc)
        fps = result.fps(config.clock_ghz)
        anchor = Fig7Result.paper_fps["resnet50"]
        stats.update(
            total_cycles=result.total_cycles,
            fps=fps,
            fps_err_vs_paper=abs(fps / anchor - 1.0),
        )
        problems = []
        if result.total_cycles != RESNET50_CYCLES:
            problems.append(f"cycles {result.total_cycles!r} != {RESNET50_CYCLES!r}")
        if round(stats["l2_miss_rate"], 5) != RESNET50_L2_MISS:
            problems.append(f"L2 miss {stats['l2_miss_rate']:.6f} != {RESNET50_L2_MISS}")
        if stats["dram_bytes"] != RESNET50_DRAM_BYTES:
            problems.append(f"DRAM bytes {stats['dram_bytes']} != {RESNET50_DRAM_BYTES}")
        if abs(stats["tlb_hit_ratio"] - RESNET50_TLB_HIT) > RESNET50_TLB_HIT_TOLERANCE:
            problems.append(f"TLB hit {stats['tlb_hit_ratio']:.4f} not ~{RESNET50_TLB_HIT}")
        digest = digest_of({
            "cycles": result.total_cycles,
            "layers": [(layer.name, layer.cycles) for layer in result.layers],
            "counters": soc_counters(soc),
        })
        return Outcome(1, 1 if problems else 0, result.total_cycles, digest, stats, problems)


class _Serve(Workload):
    """One ``ServingSimulation.run()`` over seeded open-loop Poisson traffic."""

    op_name = "request"
    num_tiles = 1
    #: (tenant, model, rate in QPS, requests)
    tenants: tuple[tuple[str, str, float, int], ...] = ()

    def profile(self):
        """Open-loop Poisson arrivals at the tenants' summed rate.

        The merged stream's arrivals fall uniformly over the window
        ``requests / total rate`` (a Poisson process conditioned on its
        count), so every seed offers the same load.  Tenants take the
        arrivals in a fixed order, each at its own rate.  Which model runs
        next on a tile sets how many replays re-resolve against the shared
        L2, and so most of ``serve-mixed``'s host time; a fixed order keeps
        that the same for every seed, and only the arrival times vary.
        """
        rng = random.Random(f"perfbench:{self.seed}")
        total = sum(count for *_, count in self.tenants)
        window_ms = total * 1000.0 / sum(qps for __, __, qps, __ in self.tenants)
        times = sorted(rng.uniform(0.0, window_ms) for _ in range(total))
        order = sorted(
            ((k + 0.5) / qps, i)
            for i, (__, __, qps, count) in enumerate(self.tenants)
            for k in range(count)
        )
        offsets: list[list[float]] = [[] for _ in self.tenants]
        for t, (__, i) in zip(times, order):
            offsets[i].append(t)
        specs = tuple(
            TenantSpec(
                name=tenant, model=model, arrival="trace", trace_ms=tuple(offsets[i]),
                input_hw=64,
            )
            for i, (tenant, model, __, __) in enumerate(self.tenants)
        )
        return TrafficProfile(
            tenants=specs, num_tiles=self.num_tiles, scheduler="fcfs", seed=self.seed
        )

    def setup(self):
        return ServingSimulation(self.profile(), gemmini=_cli_config())

    def run(self, sim) -> Outcome:
        result = sim.run()
        dropped = sum(result.dropped.values())
        problems = []
        expected = sum(count for *_, count in self.tenants)
        if result.issued != expected:
            problems.append(f"issued {result.issued} != generated {expected}")
        if result.completed + dropped != result.issued:
            problems.append(
                f"{result.completed} completed + {dropped} dropped != {result.issued} issued"
            )
        stats = soc_stats(sim.soc)
        stats.update(
            completed=result.completed,
            replayed=result.replayed,
            replay_ratio=result.replayed / result.completed if result.completed else 0.0,
            makespan_cycles=result.makespan_cycles,
            p99_ms=result.report.overall.p99_ms,
        )
        digest = digest_of({
            "log": [
                (r.tenant, r.index, r.tile, r.arrival, r.start, r.finish)
                for r in result.records
            ],
            "dropped": result.dropped,
            "makespan": result.makespan_cycles,
            "replayed": result.replayed,
            "counters": soc_counters(sim.soc),
        })
        failed = dropped + (result.issued if problems else 0)
        return Outcome(
            result.issued, min(failed, result.issued), result.makespan_cycles, digest,
            stats, problems,
        )


class ServeMixed(_Serve):
    name = "serve-mixed"
    num_tiles = 2
    tenants = (
        ("squeezenet", "squeezenet", 120.0, 96),
        ("mobilenetv2", "mobilenetv2", 40.0, 32),
    )


class ServeSteady(_Serve):
    name = "serve-steady"
    tenants = (("squeezenet", "squeezenet", 200.0, 4000),)


class DSESweep(Workload):
    """Grid sweep of ``gemmini_space(max_dim=32)`` scored on ResNet50@224
    by the batched analytic evaluator, into a fresh result cache."""

    name = "dse-sweep"
    op_name = "design point"
    budget = 3000

    def setup(self):
        cache_dir = tempfile.mkdtemp(prefix="dse-cache-", dir=self.scratch)
        space = gemmini_space(max_dim=32)
        spec = EvaluationSpec(workload=model_workload("resnet50", input_hw=224))
        # The CLI feeds grid sweeps to the batched evaluator in 64-point slabs.
        strategy = make_strategy("grid", space, seed=self.seed, batch_size=64)
        runner = ExperimentRunner(max_workers=1, cache=cache_dir)
        explorer = Explorer(space, strategy, spec, budget=self.budget, runner=runner)
        return cache_dir, runner, explorer

    def run(self, state) -> Outcome:
        __, runner, explorer = state
        result = explorer.explore()
        problems = []
        if result.evaluations != self.budget:
            problems.append(f"evaluated {result.evaluations} != budget {self.budget}")
        if not result.front:
            problems.append("empty Pareto front")
        stats = {
            "front_size": len(result.front),
            "hypervolume": result.hypervolume,
            "cache_hit_ratio": runner.stats().hit_rate,
        }
        # Equal digests across calls mean equal fronts and hypervolumes.
        digest = digest_of({
            "trace": [(e.point, e.metrics) for e in result.trace],
            "front": [e.point for e in result.front],
            "hypervolume": result.hypervolume,
        })
        cycles = sum(e.metric_dict["cycles"] for e in result.trace)
        failed = result.evaluations if problems else 0
        return Outcome(
            max(result.evaluations, 1), failed, cycles, digest, stats, problems
        )

    def teardown(self, state) -> None:
        cache_dir, runner, __ = state
        runner.close()
        shutil.rmtree(cache_dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (RunResNet50, ServeMixed, ServeSteady, DSESweep)}
