"""Multi-objective cost evaluation of one design point.

The evaluator combines the repo's calibrated models into one typed
:class:`Evaluation` per point: cycles from the analytic
:class:`~repro.core.spatial_array.SpatialArrayModel` (or a full SoC run at
``fidelity="soc"``), achievable clock from :mod:`repro.physical.timing`,
area from :mod:`repro.physical.area`, power from
:mod:`repro.physical.power` and energy from :mod:`repro.physical.energy`.

Everything here is a frozen dataclass or a module-level function so an
evaluation can be shipped to a worker process and content-hashed into the
:class:`~repro.eval.runner.ExperimentRunner` result cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import Dataflow, GemminiConfig
from repro.core.spatial_array import SpatialArrayModel
from repro.dse.space import COMPONENTS_KEY, TILE_PRESETS, point_to_config
from repro.physical.area import accelerator_area
from repro.physical.energy import estimate_energy
from repro.physical.power import power_mw
from repro.physical.timing import max_frequency_ghz

__all__ = [
    "Objective",
    "OBJECTIVES",
    "SERVING_METRICS",
    "parse_objectives",
    "Workload",
    "conv_workload",
    "model_workload",
    "EvaluationSpec",
    "Evaluation",
    "evaluate_design",
    "evaluate_design_batch",
]


# ---------------------------------------------------------------------- #
# Objectives                                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Objective:
    """One optimisation target: a metric name plus its direction."""

    name: str
    direction: str  # "min" | "max"
    unit: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError(f"objective {self.name!r}: direction must be min or max")

    def ascending(self, value: float) -> float:
        """Map to minimisation coordinates (lower is always better)."""
        return value if self.direction == "min" else -value


#: Every metric the evaluator produces, with its optimisation direction.
OBJECTIVES: dict[str, Objective] = {
    o.name: o
    for o in (
        Objective("cycles", "min", "cycles"),
        Objective("latency_ms", "min", "ms"),
        Objective("area_mm2", "min", "mm^2"),
        Objective("power_mw", "min", "mW"),
        Objective("energy_mj", "min", "mJ"),
        Objective("fmax_ghz", "max", "GHz"),
        Objective("throughput_gmacs", "max", "GMAC/s"),
        Objective("edp", "min", "mJ*ms"),
        # Serving objectives: scored by running the design under a traffic
        # profile (spec.traffic) through repro.serve's cluster engine.
        Objective("p99_latency_ms", "min", "ms"),
        Objective("goodput_qps", "max", "QPS"),
        Objective("qps_per_watt", "max", "QPS/W"),
        Objective("slo_violation_rate", "min", ""),
    )
}

#: Metrics that only exist when the spec carries a traffic profile.
SERVING_METRICS: tuple[str, ...] = (
    "p99_latency_ms",
    "goodput_qps",
    "qps_per_watt",
    "slo_violation_rate",
)


def parse_objectives(names: str | list[str] | tuple[str, ...]) -> tuple[Objective, ...]:
    """Resolve a comma-separated string (or sequence) of objective names."""
    if isinstance(names, str):
        names = [n.strip() for n in names.split(",") if n.strip()]
    unknown = [n for n in names if n not in OBJECTIVES]
    if unknown:
        raise ValueError(f"unknown objective(s) {unknown}; known: {sorted(OBJECTIVES)}")
    if len(names) < 2:
        raise ValueError("multi-objective search needs at least two objectives")
    return tuple(OBJECTIVES[n] for n in names)


# ---------------------------------------------------------------------- #
# Workloads                                                               #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Workload:
    """A suite of matmul shapes the design is scored on.

    ``shapes`` are im2col-lowered ``(M, K, N)`` matmuls; ``model``/kwargs
    are retained so ``fidelity="soc"`` evaluations can rebuild and run the
    full network on a simulated SoC.
    """

    name: str
    shapes: tuple[tuple[int, int, int], ...]
    model: str | None = None
    model_kwargs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError(f"workload {self.name!r} has no matmul shapes")
        for m, k, n in self.shapes:
            if min(m, k, n) < 1:
                raise ValueError(f"workload {self.name!r}: bad shape {(m, k, n)}")

    @property
    def total_macs(self) -> int:
        return sum(m * k * n for m, k, n in self.shapes)

    @property
    def operand_bytes(self) -> int:
        """Bytes of A, B and C touched once each (int8 operands/outputs)."""
        return sum(m * k + k * n + m * n for m, k, n in self.shapes)


def conv_workload() -> Workload:
    """ResNet50 stage-1 3x3 convolution as an im2col matmul (the historic
    design_space_exploration.py example shape)."""
    return Workload(name="conv3x3", shapes=((3136, 576, 64),))


def model_workload(name: str, input_hw: int = 224, seq: int = 128) -> Workload:
    """Every matmul-able layer of a zoo model, im2col-lowered.

    Conv becomes ``(H_out*W_out, k*k*C_in, C_out)``; Gemm/MatMul map
    directly; depthwise convolutions run per-channel and contribute
    ``(H_out*W_out, k*k, 1)`` scaled into one aggregate shape.
    """
    from repro.models.zoo import build_model

    kwargs = {"seq": seq} if name == "bert" else {"input_hw": input_hw}
    graph = build_model(name, **kwargs)
    shapes: list[tuple[int, int, int]] = []
    for node in graph.nodes:
        if node.op == "Conv":
            a = graph.tensor(node.inputs[0])
            out = graph.tensor(node.outputs[0])
            kernel = node.attrs.get("kernel", 1)
            shapes.append((out.shape[0] * out.shape[1], kernel * kernel * a.shape[2], out.shape[2]))
        elif node.op == "DepthwiseConv":
            out = graph.tensor(node.outputs[0])
            kernel = node.attrs.get("kernel", 1)
            # One channel's patch matmul, repeated C times; fold the repeat
            # into M so the aggregate MAC count is preserved.
            shapes.append((out.shape[0] * out.shape[1] * out.shape[2], kernel * kernel, 1))
        elif node.op in ("Gemm", "MatMul"):
            a = graph.tensor(node.inputs[0])
            out = graph.tensor(node.outputs[0])
            shapes.append((a.shape[0], a.shape[1], out.shape[1]))
    return Workload(
        name=name,
        shapes=tuple(shapes),
        model=name,
        model_kwargs=tuple(sorted(kwargs.items())),
    )


# ---------------------------------------------------------------------- #
# Evaluation                                                              #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class EvaluationSpec:
    """Everything needed to score a point, in picklable/hashable form."""

    workload: Workload = field(default_factory=conv_workload)
    objectives: tuple[str, ...] = ("latency_ms", "area_mm2", "power_mw")
    fidelity: str = "analytic"  # "analytic" | "soc"
    cpu: str = "none"  # host CPU included in the area account
    #: a :class:`repro.serve.TrafficProfile` — when set, the design is also
    #: run under this traffic and the SERVING_METRICS become available
    traffic: "object | None" = None

    def __post_init__(self) -> None:
        if self.fidelity not in ("analytic", "soc"):
            raise ValueError(f"fidelity must be 'analytic' or 'soc', got {self.fidelity!r}")
        parse_objectives(self.objectives)
        if self.fidelity == "soc" and self.workload.model is None:
            raise ValueError(
                f"workload {self.workload.name!r} carries no model; "
                "soc fidelity needs a zoo model workload"
            )
        serving = [n for n in self.objectives if n in SERVING_METRICS]
        if serving and self.traffic is None:
            raise ValueError(
                f"objectives {serving} are serving metrics; the spec needs a "
                "traffic profile (EvaluationSpec(traffic=TrafficProfile(...)))"
            )
        if self.traffic is not None and not hasattr(self.traffic, "tenants"):
            raise ValueError(
                f"traffic must be a repro.serve.TrafficProfile, got {type(self.traffic)}"
            )

    @property
    def objective_set(self) -> tuple[Objective, ...]:
        return parse_objectives(self.objectives)


@dataclass(frozen=True)
class Evaluation:
    """The scored result of one design point."""

    point: tuple[tuple[str, object], ...]  # sorted (axis, value) pairs
    config_summary: str
    metrics: tuple[tuple[str, float], ...]  # sorted (metric, value) pairs

    @property
    def point_dict(self) -> dict:
        return dict(self.point)

    @property
    def metric_dict(self) -> dict[str, float]:
        return dict(self.metrics)

    def metric(self, name: str) -> float:
        for key, value in self.metrics:
            if key == name:
                return value
        raise KeyError(f"evaluation has no metric {name!r}; has {[k for k, __ in self.metrics]}")

    def vector(self, objectives: tuple[Objective, ...]) -> tuple[float, ...]:
        """Objective values in minimisation coordinates (for domination)."""
        return tuple(o.ascending(self.metric(o.name)) for o in objectives)


def _soc_cycles_and_energy(config: GemminiConfig, spec: EvaluationSpec) -> tuple[float, float]:
    """Full-SoC run: measured cycles and energy for the workload's model."""
    from repro.core.generator import SoftwareParams
    from repro.models.zoo import build_model
    from repro.physical.energy import estimate_run_energy
    from repro.soc.soc import make_soc
    from repro.sw.compiler import compile_graph
    from repro.sw.runtime import Runtime

    graph = build_model(spec.workload.model, **dict(spec.workload.model_kwargs))
    soc = make_soc(gemmini=config)
    result = Runtime(soc.tile, compile_graph(graph, SoftwareParams.from_config(config))).run()
    return float(result.total_cycles), estimate_run_energy(soc, result).total_mj


def _serving_metrics(config: GemminiConfig, spec: EvaluationSpec, fmax: float, power: float) -> dict:
    """Run the design under the spec's traffic profile (serve fidelity).

    The SoC is clocked at the design's achievable frequency, so a slower
    (larger/denser) design sees proportionally more arrival cycles between
    requests — tail latency and goodput trade off against area and power
    exactly the way the serving objectives need.

    Serving evaluations ride the macro-op trace record/replay fast path:
    after the first executions of each ``(tile, model)`` pair the remaining
    requests replay a recorded stream, which is what makes per-design-point
    traffic simulation affordable inside a search loop (``gemmini-repro dse
    --traffic ...``).
    """
    from dataclasses import replace as dc_replace

    from repro.serve.cluster import simulate_serving

    result = simulate_serving(
        spec.traffic, gemmini=dc_replace(config, clock_ghz=fmax), replay=True
    )
    overall = result.report.overall
    watts = power / 1e3
    return {
        "p99_latency_ms": overall.p99_ms,
        "goodput_qps": overall.goodput_qps,
        "qps_per_watt": overall.goodput_qps / watts if watts > 0 else 0.0,
        "slo_violation_rate": overall.slo_violation_rate,
    }


def evaluate_design(point: dict, spec: EvaluationSpec) -> Evaluation:
    """Score one point: the cost model every strategy optimises against.

    Points carrying the structural ``components`` axis describe whole
    heterogeneous fleets; they are scored per tile class and aggregated
    (see :func:`_aggregate_fleet`).  Module-level so
    :class:`~repro.eval.runner.ExperimentRunner` can ship it to worker
    processes and cache results under a stable key.
    """
    if COMPONENTS_KEY in point:
        return _evaluate_structural(point, spec)
    config = point_to_config(point)
    fmax = max_frequency_ghz(config)
    area_um2 = accelerator_area(config, cpu=spec.cpu).total
    dyn_power = power_mw(config, frequency_ghz=fmax)

    workload = spec.workload
    if spec.fidelity == "soc":
        cycles, energy_mj = _soc_cycles_and_energy(config, spec)
    else:
        model = SpatialArrayModel(config)
        dataflow = Dataflow.WS if config.dataflow is Dataflow.BOTH else config.dataflow
        cycles = sum(model.matmul_cost(m, k, n, dataflow).total for m, k, n in workload.shapes)
        energy_mj = estimate_energy(
            config,
            macs=workload.total_macs,
            cycles=cycles,
            dma_bytes=workload.operand_bytes,
            dram_bytes=workload.operand_bytes,
            clock_ghz=fmax,
        ).total_mj

    seconds = cycles / (fmax * 1e9)
    latency_ms = seconds * 1e3
    metrics = {
        "cycles": float(cycles),
        "latency_ms": latency_ms,
        "area_mm2": area_um2 / 1e6,
        "power_mw": dyn_power,
        "energy_mj": energy_mj,
        "fmax_ghz": fmax,
        "throughput_gmacs": workload.total_macs / seconds / 1e9,
        "edp": energy_mj * latency_ms,
    }
    if spec.traffic is not None:
        metrics.update(_serving_metrics(config, spec, fmax, dyn_power))
    return Evaluation(
        point=tuple(sorted(point.items())),
        config_summary=config.describe(),
        metrics=tuple(sorted(metrics.items())),
    )


# ---------------------------------------------------------------------- #
# Structural (component-mix) evaluation                                    #
# ---------------------------------------------------------------------- #


def _structural_rows(point: dict) -> "list[tuple[str, int, dict]]":
    """Split a structural point into per-tile-class sub-rows.

    Each mix entry becomes one plain (``point_to_config``-able) row: the
    preset's geometry overlaid by the point's shared axes — the same
    overlay :func:`~repro.dse.space.point_to_design` applies when
    materialising the fleet.
    """
    rest = {k: v for k, v in point.items() if k != COMPONENTS_KEY}
    return [
        (preset, count, {**TILE_PRESETS[preset], **rest})
        for preset, count in point[COMPONENTS_KEY]
    ]


def _component_spec(spec: EvaluationSpec) -> EvaluationSpec:
    """The per-tile-class sub-spec: the same workload without the traffic
    profile (serving is scored at fleet level, not per component)."""
    if spec.traffic is None:
        return spec
    return EvaluationSpec(workload=spec.workload, fidelity=spec.fidelity, cpu=spec.cpu)


def _structural_serving_metrics(
    point: dict, spec: EvaluationSpec, fmax: float, fleet_power: float
) -> dict:
    """Serve the spec's traffic on the materialised heterogeneous fleet.

    The whole fleet runs at the shared achievable clock (``fmax``, the
    slowest component's) and every request is free to land on any tile, so
    SJF's per-tile cost oracle — not a single global hint — decides big
    vs little placement.
    """
    from repro.dse.space import point_to_design
    from repro.serve.cluster import simulate_serving

    design = point_to_design(point, clock_ghz=fmax)
    result = simulate_serving(spec.traffic, design=design, replay=True)
    overall = result.report.overall
    watts = fleet_power / 1e3
    return {
        "p99_latency_ms": overall.p99_ms,
        "goodput_qps": overall.goodput_qps,
        "qps_per_watt": overall.goodput_qps / watts if watts > 0 else 0.0,
        "slo_violation_rate": overall.slo_violation_rate,
    }


def _aggregate_fleet(
    point: dict, parts: "list[tuple[str, int, Evaluation]]", spec: EvaluationSpec
) -> Evaluation:
    """Combine per-tile-class evaluations into one fleet evaluation.

    Pure arithmetic over the component metrics — shared verbatim by the
    scalar and batched paths, so structural evaluations stay bitwise
    consistent between them.  The model: one shared clock domain at the
    slowest component's fmax; the workload's latency is the fastest
    component's (a single inference runs on one tile); area and power sum
    over the fleet (power linearly re-clocked to the shared frequency);
    throughput assumes every tile streams the workload concurrently.
    """
    fmax = min(evaluation.metric("fmax_ghz") for __, __, evaluation in parts)
    # stable min: ties resolve to the first (mix-order) component
    best = min(parts, key=lambda part: part[2].metric("cycles"))
    cycles = best[2].metric("cycles")
    seconds = cycles / (fmax * 1e9)
    latency_ms = seconds * 1e3
    area_mm2 = sum(count * e.metric("area_mm2") for __, count, e in parts)
    power = sum(
        count * e.metric("power_mw") * (fmax / e.metric("fmax_ghz"))
        for __, count, e in parts
    )
    energy_mj = best[2].metric("energy_mj")
    total_macs = spec.workload.total_macs
    throughput = (
        sum(
            count * total_macs * (fmax * 1e9) / e.metric("cycles")
            for __, count, e in parts
        )
        / 1e9
    )
    metrics = {
        "cycles": cycles,
        "latency_ms": latency_ms,
        "area_mm2": area_mm2,
        "power_mw": power,
        "energy_mj": energy_mj,
        "fmax_ghz": fmax,
        "throughput_gmacs": throughput,
        "edp": energy_mj * latency_ms,
    }
    if spec.traffic is not None:
        metrics.update(_structural_serving_metrics(point, spec, fmax, power))
    summary = " + ".join(f"{count}x[{e.config_summary}]" for __, count, e in parts)
    return Evaluation(
        point=tuple(sorted(point.items())),
        config_summary=summary,
        metrics=tuple(sorted(metrics.items())),
    )


def _evaluate_structural(point: dict, spec: EvaluationSpec) -> Evaluation:
    """Scalar-path structural evaluation: score each tile class, aggregate."""
    sub_spec = _component_spec(spec)
    parts = [
        (preset, count, evaluate_design(row, sub_spec))
        for preset, count, row in _structural_rows(point)
    ]
    return _aggregate_fleet(point, parts, spec)


#: The 8 analytic metric names, pre-sorted (the order ``sorted(metrics
#: .items())`` produces in :func:`evaluate_design`); the batched fast path
#: assembles metric tuples from per-metric columns in this order.
_ANALYTIC_METRICS_SORTED: tuple[str, ...] = (
    "area_mm2",
    "cycles",
    "edp",
    "energy_mj",
    "fmax_ghz",
    "latency_ms",
    "power_mw",
    "throughput_gmacs",
)


def _evaluate_batch_structural(
    points: "list[dict]", spec: EvaluationSpec
) -> "list[Evaluation]":
    """Batched evaluation of a mixed plain/structural point list.

    Structural points are grouped by component signature
    (:func:`~repro.dse.batch.group_by_components`) and decomposed into
    their per-tile-class sub-rows; the unique sub-rows — one per tile
    class per shared-axis combination, however many fleets reference it —
    join the plain points in a single columnised
    :func:`evaluate_design_batch` call, and each fleet is then aggregated
    with the same arithmetic as the scalar path.  Only reached on the
    analytic/no-traffic fast path, so sub-rows never re-trigger the
    structural branch (no recursion).
    """
    from repro.dse.batch import group_by_components
    from repro.dse.space import point_key

    groups = group_by_components(points)
    plain_indices = groups.pop(None, [])
    sub_rows: dict = {}  # row key -> row dict, insertion-ordered
    per_point: dict = {}  # point index -> [(preset, count, row key), ...]
    for indices in groups.values():
        for index in indices:
            keyed = []
            for preset, count, row in _structural_rows(points[index]):
                key = point_key(row)
                sub_rows.setdefault(key, row)
                keyed.append((preset, count, key))
            per_point[index] = keyed

    sub_keys = list(sub_rows)
    combined = [points[i] for i in plain_indices] + [sub_rows[k] for k in sub_keys]
    evaluated = evaluate_design_batch(combined, spec)
    plain_evals = dict(zip(plain_indices, evaluated[: len(plain_indices)]))
    row_evals = dict(zip(sub_keys, evaluated[len(plain_indices):]))

    out: "list[Evaluation]" = []
    for index, point in enumerate(points):
        if index in plain_evals:
            out.append(plain_evals[index])
        else:
            parts = [
                (preset, count, row_evals[key])
                for preset, count, key in per_point[index]
            ]
            out.append(_aggregate_fleet(point, parts, spec))
    return out


def evaluate_design_batch(points: "list[dict]", spec: EvaluationSpec) -> "list[Evaluation]":
    """Score a whole batch of points through the vectorised analytic path.

    Produces exactly the :class:`Evaluation` objects ``[evaluate_design(p,
    spec) for p in points]`` would (metrics within 1e-9 relative; point and
    config summary identical), but runs the cost pipeline — matmul cycles,
    fmax, area, power, energy — as a handful of numpy expressions over
    struct-of-arrays config columns instead of one Python object per point.

    The fast path only covers the analytic fidelity without a traffic
    profile, on points made of the standard :func:`~repro.dse.space
    .gemmini_space` axes; ``fidelity="soc"``, serving objectives and
    points carrying other config keys fall back to :func:`evaluate_design`
    point by point.  Module-level and pure-data in/out, so batches ship
    through :class:`~repro.eval.runner.ExperimentRunner` workers and cache
    under content-hash keys.
    """
    import numpy as np

    from repro.core.spatial_array import matmul_cost_batch
    from repro.dse.batch import UnsupportedPoint, build_columns
    from repro.physical.area import accelerator_area_batch
    from repro.physical.energy import estimate_energy_batch
    from repro.physical.power import power_mw_batch
    from repro.physical.timing import max_frequency_ghz_batch

    points = list(points)
    if not points:
        return []
    if spec.fidelity != "analytic" or spec.traffic is not None:
        return [evaluate_design(p, spec) for p in points]
    if any(COMPONENTS_KEY in p for p in points):
        return _evaluate_batch_structural(points, spec)
    try:
        cols = build_columns(points)
    except UnsupportedPoint:
        return [evaluate_design(p, spec) for p in points]

    fmax = max_frequency_ghz_batch(cols)
    area_um2 = accelerator_area_batch(cols, cpu=spec.cpu)
    dyn_power = power_mw_batch(cols, fmax)

    workload = spec.workload
    shapes = np.asarray(workload.shapes, dtype=np.int64)  # (S, 3)
    cost = matmul_cost_batch(
        dim=cols.dim[None, :],
        mesh_rows=cols.mesh_rows[None, :],
        mesh_cols=cols.mesh_cols[None, :],
        m=shapes[:, 0][:, None],
        k=shapes[:, 1][:, None],
        n=shapes[:, 2][:, None],
        os_dataflow=cols.os_dataflow[None, :],
    )
    cycles = cost.total.sum(axis=0)  # block counts are integral: exact
    energy_mj = estimate_energy_batch(
        cols,
        macs=workload.total_macs,
        cycles=cycles,
        dma_bytes=workload.operand_bytes,
        dram_bytes=workload.operand_bytes,
        clock_ghz=fmax,
        power_mw_at_clock=dyn_power,
    )

    seconds = cycles / (fmax * 1e9)
    latency_ms = seconds * 1e3
    # Columns in _ANALYTIC_METRICS_SORTED order, pulled down to Python
    # floats once per column (not once per point).
    metric_rows = zip(
        (area_um2 / 1e6).tolist(),
        cycles.tolist(),
        (energy_mj * latency_ms).tolist(),
        energy_mj.tolist(),
        fmax.tolist(),
        latency_ms.tolist(),
        dyn_power.tolist(),
        (workload.total_macs / seconds / 1e9).tolist(),
    )
    summaries = cols.describe_all()
    names = _ANALYTIC_METRICS_SORTED
    # Assembling ~1e4 frozen dataclasses dominates the remaining per-point
    # cost; bypassing the generated __init__ (3 object.__setattr__ calls
    # per instance) keeps small-workload batches ~10x over the scalar path.
    new = object.__new__
    cls = Evaluation
    out: list[Evaluation] = []
    for point, summary, row in zip(points, summaries, metric_rows):
        evaluation = new(cls)
        evaluation.__dict__.update(
            point=tuple(sorted(point.items())),
            config_summary=summary,
            metrics=tuple(zip(names, row)),
        )
        out.append(evaluation)
    return out
