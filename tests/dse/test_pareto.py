"""Pareto machinery: domination, fronts, hypervolume, bounds."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.objectives import OBJECTIVES, Evaluation, parse_objectives
from repro.dse.pareto import (
    MetricBound,
    _nondominated_vectors,
    crowding_distance,
    dominates,
    hypervolume,
    nondominated_sort,
    parse_bound,
    reference_point,
    split_front,
)

OBJS = parse_objectives("latency_ms,area_mm2")
OBJS3 = parse_objectives("latency_ms,area_mm2,power_mw")


def make_eval(latency, area, power=1.0):
    metrics = (("area_mm2", float(area)), ("latency_ms", float(latency)), ("power_mw", float(power)))
    return Evaluation(point=(("id", f"{latency}/{area}/{power}"),), config_summary="t", metrics=metrics)


class TestDominates:
    def test_strict(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (2.0, 2.0))
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (2.0, 2.0))  # equal never dominates

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))


# Random evaluation sets for the property tests.
eval_sets = st.lists(
    st.tuples(
        st.floats(0.1, 100.0, allow_nan=False),
        st.floats(0.1, 100.0, allow_nan=False),
        st.floats(0.1, 100.0, allow_nan=False),
    ),
    min_size=1,
    max_size=24,
)


class TestSplitFront:
    @given(eval_sets)
    def test_front_mutually_nondominated(self, values):
        """Property (satellite): no front member dominates another."""
        evals = [make_eval(*v) for v in values]
        front, __ = split_front(evals, OBJS3)
        vectors = [e.vector(OBJS3) for e in front]
        assert front
        for i, a in enumerate(vectors):
            for j, b in enumerate(vectors):
                assert i == j or not dominates(a, b)

    @given(eval_sets)
    def test_discarded_points_are_dominated_and_dominate_nothing(self, values):
        """Property (satellite): every discarded point is dominated by a
        front member, and no discarded point dominates any front member."""
        evals = [make_eval(*v) for v in values]
        front, discarded = split_front(evals, OBJS3)
        fvs = [e.vector(OBJS3) for e in front]
        for d in discarded:
            dv = d.vector(OBJS3)
            assert any(dominates(f, dv) for f in fvs)
            assert not any(dominates(dv, f) for f in fvs)

    def test_ties_stay_on_front(self):
        evals = [make_eval(1, 1), make_eval(1, 1), make_eval(2, 2)]
        front, discarded = split_front(evals, OBJS)
        assert len(front) == 2 and len(discarded) == 1


# ---------------------------------------------------------------------- #
# The non-dominated filter against a brute-force oracle                   #
# ---------------------------------------------------------------------- #

#: objectives of 1 to 4 dimensions; fmax_ghz is maximised (sign-flipped)
OBJECTIVE_SETS = [
    tuple(OBJECTIVES[name] for name in names)
    for names in (
        ("latency_ms",),
        ("latency_ms", "fmax_ghz"),
        ("latency_ms", "area_mm2", "power_mw"),
        ("latency_ms", "area_mm2", "power_mw", "fmax_ghz"),
    )
]

# A small pool makes ties and duplicates common; arbitrary floats add the rest.
coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def scored_sets(draw, allow_nan=True):
    """(objectives, evaluations): up to 40 points, some exact duplicates."""
    objectives = draw(st.sampled_from(OBJECTIVE_SETS))
    coordinate = coordinates if allow_nan else coordinates.filter(lambda x: not math.isnan(x))
    rows = draw(st.lists(st.tuples(*[coordinate] * len(objectives)), max_size=32))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=8))
    rows = draw(st.permutations(rows))
    evals = [
        Evaluation(
            point=(("id", i),),
            config_summary="t",
            metrics=tuple(sorted(zip((o.name for o in objectives), row))),
        )
        for i, row in enumerate(rows)
    ]
    return objectives, evals


def oracle_split(evals, objectives):
    """The definition: a point is on the front iff no point dominates it."""
    vectors = [e.vector(objectives) for e in evals]
    on_front = [not any(dominates(u, v) for u in vectors) for v in vectors]
    return (
        [e for e, keep in zip(evals, on_front) if keep],
        [e for e, keep in zip(evals, on_front) if not keep],
    )


def oracle_sort(evals, objectives):
    fronts, remaining = [], list(evals)
    while remaining:
        front, remaining = oracle_split(remaining, objectives)
        if not front:  # a domination cycle through NaN coordinates
            front, remaining = remaining, []
        fronts.append(front)
    return fronts


def oracle_nondominated_vectors(vectors):
    unique = sorted(set(vectors))
    return [v for v in unique if not any(dominates(u, v) for u in unique)]


class TestFilterMatchesOracle:
    @settings(max_examples=200)
    @given(scored_sets())
    def test_split_front(self, case):
        objectives, evals = case
        assert split_front(evals, objectives) == oracle_split(evals, objectives)

    @settings(max_examples=100)
    @given(scored_sets(allow_nan=False))
    def test_split_front_without_nan(self, case):
        """The lex-order pass (NaN-free input) on its own."""
        objectives, evals = case
        assert split_front(evals, objectives) == oracle_split(evals, objectives)

    @given(scored_sets())
    def test_nondominated_sort(self, case):
        objectives, evals = case
        assert nondominated_sort(evals, objectives) == oracle_sort(evals, objectives)

    @settings(max_examples=100)
    @given(scored_sets())
    def test_nondominated_vectors(self, case):
        objectives, evals = case
        vectors = [e.vector(objectives) for e in evals]
        assert _nondominated_vectors(vectors) == oracle_nondominated_vectors(vectors)

    def test_nan_domination_cycle_ends_the_sort(self):
        """Each of these dominates the next when NaN counts as neither
        better nor worse; the sort must still terminate."""
        objectives = OBJECTIVE_SETS[2]
        cycle = [make_eval(0, 1, math.nan), make_eval(1, math.nan, 0), make_eval(math.nan, 0, 1)]
        assert nondominated_sort(cycle, objectives) == [cycle]

    def test_small_blocks(self, monkeypatch):
        """Blocks of one vector exercise every carry across blocks."""
        from repro.dse import pareto

        monkeypatch.setattr(pareto, "_BLOCK_ELEMENTS", 1)
        objectives = OBJECTIVE_SETS[2]
        evals = [
            make_eval(*v)
            for v in [(3, 1, 2), (1, 3, 2), (2, 2, 2), (3, 3, 3), (1, 3, 2), (0, 9, 9), (4, 4, 1)]
        ]
        nan_evals = evals + [make_eval(math.nan, 0, 0)]
        for case in (evals, nan_evals):
            assert split_front(case, objectives) == oracle_split(case, objectives)


class TestNondominatedSort:
    def test_ranks_partition(self):
        evals = [make_eval(1, 3), make_eval(3, 1), make_eval(2, 2), make_eval(4, 4), make_eval(5, 5)]
        fronts = nondominated_sort(evals, OBJS)
        assert [len(f) for f in fronts] == [3, 1, 1]
        assert sum(len(f) for f in fronts) == len(evals)


class TestCrowding:
    def test_boundaries_infinite(self):
        front = [make_eval(1, 5), make_eval(2, 4), make_eval(3, 3), make_eval(5, 1)]
        crowd = crowding_distance(front, OBJS)
        assert crowd[0] == float("inf")
        assert crowd[3] == float("inf")
        assert 0 < crowd[1] < float("inf")


class TestHypervolume:
    def test_single_point_box(self):
        assert hypervolume([(1.0, 1.0)], (2.0, 2.0)) == pytest.approx(1.0)
        assert hypervolume([(1.0, 1.0, 1.0)], (2.0, 3.0, 4.0)) == pytest.approx(6.0)

    def test_staircase_union(self):
        # Two 1x... boxes overlapping in a 2x2 reference square.
        assert hypervolume([(0.0, 1.0), (1.0, 0.0)], (2.0, 2.0)) == pytest.approx(3.0)

    def test_points_outside_reference_contribute_nothing(self):
        assert hypervolume([(3.0, 3.0)], (2.0, 2.0)) == 0.0
        assert hypervolume([], (2.0, 2.0)) == 0.0

    def test_dominated_point_adds_nothing(self):
        base = hypervolume([(1.0, 1.0)], (3.0, 3.0))
        assert hypervolume([(1.0, 1.0), (2.0, 2.0)], (3.0, 3.0)) == pytest.approx(base)

    @given(eval_sets)
    def test_monotone_in_set_inclusion(self, values):
        """Adding points never shrinks the hypervolume."""
        vectors = [tuple(v) for v in values]
        ref = tuple(max(v[d] for v in vectors) + 1.0 for d in range(3))
        partial = hypervolume(vectors[: len(vectors) // 2], ref)
        full = hypervolume(vectors, ref)
        assert full >= partial - 1e-9

    def test_3d_matches_inclusion_exclusion(self):
        a, b = (1.0, 2.0, 3.0), (3.0, 2.0, 1.0)
        ref = (4.0, 4.0, 4.0)
        va = (4 - 1) * (4 - 2) * (4 - 3)
        vb = (4 - 3) * (4 - 2) * (4 - 1)
        vab = (4 - 3) * (4 - 2) * (4 - 3)
        assert hypervolume([a, b], ref) == pytest.approx(va + vb - vab)


class TestReferencePoint:
    def test_pushed_past_nadir(self):
        evals = [make_eval(1, 2), make_eval(3, 1)]
        ref = reference_point(evals, OBJS)
        assert ref[0] > 3.0 and ref[1] > 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reference_point([], OBJS)


class TestMetricBound:
    def test_parse_and_satisfy(self):
        bound = parse_bound("area_mm2<=1.5")
        assert bound == MetricBound("area_mm2", "<=", 1.5)
        assert bound.satisfied(make_eval(1, 1.5))
        assert not bound.satisfied(make_eval(1, 2.0))

    def test_ge_bound(self):
        bound = parse_bound("latency_ms>=0.5")
        assert bound.satisfied(make_eval(0.5, 1))
        assert not bound.satisfied(make_eval(0.4, 1))

    def test_violation_gradient(self):
        bound = parse_bound("area_mm2<=2")
        assert bound.violation(make_eval(1, 2.0)) == 0.0
        assert bound.violation(make_eval(1, 3.0)) == pytest.approx(0.5)

    def test_bad_bounds_rejected(self):
        for text in ("area_mm2", "area_mm2<=x", "<=4", "area_mm2==4"):
            with pytest.raises(ValueError):
                parse_bound(text)
