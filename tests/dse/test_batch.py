"""Batched analytic evaluation: parity with the per-point path, fallbacks.

:func:`~repro.dse.objectives.evaluate_design_batch` must be
*indistinguishable* from mapping :func:`~repro.dse.objectives
.evaluate_design` over the batch: identical points, identical config
summaries, and every metric equal with ``==``.  Both run the same cost
formulas, so this checks the batching (columns, ordering, assembly); the
formulas themselves are pinned by ``test_golden_evaluations.py``.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import (
    EvaluationSpec,
    build_columns,
    evaluate_design,
    evaluate_design_batch,
    gemmini_space,
    model_workload,
)

ANALYTIC_METRICS = (
    "area_mm2",
    "cycles",
    "edp",
    "energy_mj",
    "fmax_ghz",
    "latency_ms",
    "power_mw",
    "throughput_gmacs",
)


def assert_matches_scalar(points, spec):
    scalar = [evaluate_design(p, spec) for p in points]
    batch = evaluate_design_batch(points, spec)
    assert len(batch) == len(scalar)
    for s, b in zip(scalar, batch):
        assert b.point == s.point
        assert b.config_summary == s.config_summary
        assert [k for k, __ in b.metrics] == [k for k, __ in s.metrics]
        for name in ANALYTIC_METRICS:
            assert b.metric(name) == s.metric(name), (
                f"{name}: batch {b.metric(name)!r} != scalar {s.metric(name)!r} "
                f"at {s.config_summary}"
            )
    assert batch == scalar


class TestParity:
    def test_randomized_512_point_batch(self):
        """The acceptance criterion: a randomized 512-point batch over the
        full example space matches the scalar evaluator exactly."""
        space = gemmini_space(max_dim=32)
        rng = random.Random(0)
        points = [space.sample(rng) for __ in range(512)]
        assert_matches_scalar(points, EvaluationSpec())

    def test_model_workload_parity(self):
        """Multi-shape (whole-network) workloads vectorise over both the
        shape and the batch axis; parity must hold there too."""
        space = gemmini_space(max_dim=16)
        rng = random.Random(1)
        points = [space.sample(rng) for __ in range(32)]
        spec = EvaluationSpec(workload=model_workload("mobilenetv2", input_hw=96))
        assert_matches_scalar(points, spec)

    def test_os_dataflow_and_cpu_parity(self):
        """OS drains and a host CPU in the area account must match."""
        points = [
            {"dim": 8, "tile": 2, "sp_kb": 128, "acc_kb": 32, "sp_banks": 2,
             "acc_banks": 1, "dataflow": "OS", "has_im2col": True},
            {"dim": 16, "tile": 1, "sp_kb": 256, "acc_kb": 64, "sp_banks": 4,
             "acc_banks": 2, "dataflow": "WS", "has_im2col": False},
        ]
        assert_matches_scalar(points, EvaluationSpec(cpu="rocket"))

    def test_partial_points_use_config_defaults(self):
        """Missing axes default exactly like point_to_config({})."""
        assert_matches_scalar(
            [{}, {"dim": 8}, {"dataflow": "BOTH"}], EvaluationSpec()
        )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_points_property(self, seed):
        """Hypothesis sweep: any sampled sub-batch matches the scalar path
        on all 8 analytic metrics."""
        space = gemmini_space(max_dim=32)
        rng = random.Random(seed)
        points = [space.sample(rng) for __ in range(1 + seed % 7)]
        assert_matches_scalar(points, EvaluationSpec())

    def test_empty_batch(self):
        assert evaluate_design_batch([], EvaluationSpec()) == []

    def test_single_point(self):
        space = gemmini_space(max_dim=8)
        point = space.sample(random.Random(3))
        spec = EvaluationSpec()
        [batched] = evaluate_design_batch([point], spec)
        assert batched == evaluate_design(point, spec)


class TestFallbacks:
    def test_unsupported_key_falls_back_to_scalar(self):
        """Raw GemminiConfig keys pass through point_to_config into the
        columns, so they batch too, with identical results."""
        points = [
            {"dim": 8, "clock_ghz": 0.5},  # not a gemmini_space axis
            {"dim": 16},
        ]
        spec = EvaluationSpec()
        batch = evaluate_design_batch(points, spec)
        assert batch == [evaluate_design(p, spec) for p in points]

    def test_build_columns_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one point"):
            build_columns([])

    def test_invalid_point_raises_the_scalar_error(self):
        """Validation mirrors the scalar path exactly: the offending point
        is materialised so the exception type/message match."""
        bad_geometry = {"dim": 8, "tile": 3}  # tile does not divide dim
        with pytest.raises(Exception) as batch_err:
            evaluate_design_batch([{"dim": 8}, bad_geometry], EvaluationSpec())
        with pytest.raises(Exception) as scalar_err:
            evaluate_design(bad_geometry, EvaluationSpec())
        assert type(batch_err.value) is type(scalar_err.value)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_invalid_capacity_raises_the_scalar_error(self):
        bad_banks = {"dim": 16, "sp_kb": 256, "sp_banks": 3}  # not a power of two
        with pytest.raises(ValueError, match="power of two"):
            evaluate_design_batch([bad_banks], EvaluationSpec())

    def test_traffic_spec_falls_back_to_scalar(self):
        """Serving objectives need a per-point cluster simulation; the
        batched entry point must delegate and still match."""
        from repro.serve import TenantSpec, TrafficProfile

        traffic = TrafficProfile(
            tenants=(
                TenantSpec(
                    name="t", model="squeezenet", input_hw=32,
                    rate_qps=300.0, num_requests=2, slo_ms=5.0,
                ),
            ),
            num_tiles=1,
            seed=0,
        )
        spec = EvaluationSpec(
            objectives=("p99_latency_ms", "area_mm2"), traffic=traffic
        )
        point = {"dim": 8, "tile": 1, "sp_kb": 64, "acc_kb": 16,
                 "sp_banks": 1, "acc_banks": 1, "dataflow": "WS", "has_im2col": False}
        [batched] = evaluate_design_batch([point], spec)
        assert batched == evaluate_design(point, spec)
        assert batched.metric("p99_latency_ms") > 0


class TestExplorerIntegration:
    def test_batched_explorer_matches_scalar_explorer(self):
        """End to end: re-scoring every point the (batched) explorer
        evaluated through the scalar evaluate_design reproduces its trace,
        front and hypervolume."""
        from repro.dse import (
            Explorer,
            front_hypervolume,
            make_strategy,
            parse_objectives,
            split_front,
        )

        space = gemmini_space(max_dim=8)
        spec = EvaluationSpec()
        strategy = make_strategy("evolutionary", space, seed=0)
        fast = Explorer(space, strategy, spec, budget=16).explore()
        scalar = [evaluate_design(e.point_dict, spec) for e in fast.trace]
        assert [e.point for e in fast.trace] == [e.point for e in scalar]
        for f, s in zip(fast.trace, scalar):
            for name in ANALYTIC_METRICS:
                assert f.metric(name) == s.metric(name)
        objectives = parse_objectives(spec.objectives)
        front, __ = split_front(scalar, objectives)
        assert [e.point for e in fast.front] == [e.point for e in front]
        hypervolume = front_hypervolume(front, objectives, fast.reference)
        assert fast.hypervolume == hypervolume
