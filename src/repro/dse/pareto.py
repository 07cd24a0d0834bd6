"""Pareto machinery: domination, fronts, hypervolume, metric constraints.

All routines work on minimisation-coordinate vectors produced by
:meth:`repro.dse.objectives.Evaluation.vector`, so maximisation
objectives are already sign-flipped by the time they arrive here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.dse.objectives import Evaluation, Objective

__all__ = [
    "dominates",
    "split_front",
    "pareto_front",
    "nondominated_sort",
    "crowding_distance",
    "reference_point",
    "hypervolume",
    "front_hypervolume",
    "MetricBound",
    "parse_bound",
]


# ---------------------------------------------------------------------- #
# Domination                                                              #
# ---------------------------------------------------------------------- #


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether ``a`` Pareto-dominates ``b`` (minimisation: no worse in all
    dimensions and strictly better in at least one)."""
    if len(a) != len(b):
        raise ValueError(f"vector length mismatch: {len(a)} vs {len(b)}")
    better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better = True
    return better


#: elements of one blocked comparison array in :func:`_nondominated_mask`
_BLOCK_ELEMENTS = 1 << 20


def _dominated_by(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each row of ``b``, whether some row of ``a`` dominates it, as
    :func:`dominates` decides (a NaN coordinate is neither better nor worse)."""
    a, b = a[:, None, :], b[None, :, :]
    return ((a < b).any(axis=2) & ~(a > b).any(axis=2)).any(axis=0)


def _nondominated_mask(vectors: Sequence[Sequence[float]]) -> list[bool]:
    """Which of ``vectors`` no other vector dominates, decided exactly as
    :func:`dominates` decides it (coordinates compared as float64).

    Without NaN, domination is transitive and a dominator sorts
    lexicographically before what it dominates.  So blocks taken in lex
    order need checking only against the front kept from earlier blocks
    and against their own survivors: whatever dominates a vector is on
    that front or dominated by a member of it.  :func:`dominates` treats a
    NaN coordinate as neither better nor worse, which breaks transitivity,
    so input holding a NaN compares all pairs instead.  Blocks keep each
    comparison array near :data:`_BLOCK_ELEMENTS` elements.
    """
    v = np.asarray(vectors, dtype=np.float64)
    n = len(v)
    if n == 0 or v.shape[1] == 0:
        return [True] * n
    block = max(1, _BLOCK_ELEMENTS // (n * v.shape[1]))
    if np.isnan(v).any():
        dominated = [_dominated_by(v, v[s:s + block]) for s in range(0, n, block)]
        return (~np.concatenate(dominated)).tolist()
    order = np.lexsort(v.T[::-1])
    keep = np.zeros(n, dtype=bool)
    front = v[:0]
    for start in range(0, n, block):
        idx = order[start:start + block]
        alive = ~_dominated_by(front, v[idx])
        idx = idx[alive]
        alive = ~_dominated_by(v[idx], v[idx])
        keep[idx[alive]] = True
        front = np.concatenate([front, v[idx[alive]]])
    return keep.tolist()


def split_front(
    evaluations: Sequence[Evaluation], objectives: tuple[Objective, ...]
) -> tuple[list[Evaluation], list[Evaluation]]:
    """Partition into (non-dominated front, dominated rest), each in input
    order.

    Duplicate objective vectors all stay on the front (none strictly
    dominates its twin), which keeps the split deterministic.
    """
    keep = _nondominated_mask([e.vector(objectives) for e in evaluations])
    front = [e for e, k in zip(evaluations, keep) if k]
    rest = [e for e, k in zip(evaluations, keep) if not k]
    return front, rest


def pareto_front(
    evaluations: Sequence[Evaluation], objectives: tuple[Objective, ...]
) -> list[Evaluation]:
    return split_front(evaluations, objectives)[0]


def nondominated_sort(
    evaluations: Sequence[Evaluation], objectives: tuple[Objective, ...]
) -> list[list[Evaluation]]:
    """Successive Pareto fronts (NSGA-style rank 0, 1, 2, ...).

    NaN coordinates can make domination cyclic, leaving every remaining
    point dominated; those points form the last rank together.
    """
    remaining = list(evaluations)
    fronts: list[list[Evaluation]] = []
    while remaining:
        front, remaining = split_front(remaining, objectives)
        if not front:
            front, remaining = remaining, []
        fronts.append(front)
    return fronts


def crowding_distance(
    front: Sequence[Evaluation], objectives: tuple[Objective, ...]
) -> dict[int, float]:
    """NSGA-II crowding distance, keyed by index into ``front``.

    Boundary points get infinity so selection always keeps the extremes.
    """
    n = len(front)
    distance = {i: 0.0 for i in range(n)}
    if n <= 2:
        return {i: float("inf") for i in range(n)}
    vectors = [e.vector(objectives) for e in front]
    for d in range(len(objectives)):
        order = sorted(range(n), key=lambda i: vectors[i][d])
        lo, hi = vectors[order[0]][d], vectors[order[-1]][d]
        distance[order[0]] = distance[order[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for rank in range(1, n - 1):
            i = order[rank]
            gap = vectors[order[rank + 1]][d] - vectors[order[rank - 1]][d]
            distance[i] += gap / span
    return distance


# ---------------------------------------------------------------------- #
# Hypervolume                                                             #
# ---------------------------------------------------------------------- #


def reference_point(
    evaluations: Sequence[Evaluation],
    objectives: tuple[Objective, ...],
    margin: float = 0.1,
) -> tuple[float, ...]:
    """Nadir of the evaluated set pushed ``margin`` of each span outward,
    so every evaluated point contributes non-zero hypervolume."""
    if not evaluations:
        raise ValueError("need at least one evaluation for a reference point")
    vectors = [e.vector(objectives) for e in evaluations]
    ref = []
    for d in range(len(objectives)):
        values = [v[d] for v in vectors]
        span = max(values) - min(values)
        ref.append(max(values) + margin * span + 1e-12)
    return tuple(ref)


def _nondominated_vectors(vectors: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    unique = sorted(set(vectors))
    return [v for v, k in zip(unique, _nondominated_mask(unique)) if k]


def hypervolume(vectors: Sequence[Sequence[float]], reference: Sequence[float]) -> float:
    """Dominated hypervolume of minimisation vectors w.r.t. ``reference``.

    Recursive objective slicing: exact in any dimension, O(n^d)-ish, fine
    for the front sizes a budgeted search produces.  Points not strictly
    better than the reference in every dimension contribute nothing.
    """
    ref = tuple(float(r) for r in reference)
    pts = [tuple(float(x) for x in v) for v in vectors if all(x < r for x, r in zip(v, ref))]
    return _hv(_nondominated_vectors(pts), ref)


def _hv(pts: list[tuple[float, ...]], ref: tuple[float, ...]) -> float:
    if not pts:
        return 0.0
    if len(ref) == 1:
        return ref[0] - min(p[0] for p in pts)
    if len(ref) == 2:
        # Staircase sweep: ascending x gives descending y on a clean front.
        hv = 0.0
        prev_y = ref[1]
        for x, y in sorted(pts):
            if y < prev_y:
                hv += (ref[0] - x) * (prev_y - y)
                prev_y = y
        return hv
    # Slice along the last objective: between consecutive levels, the
    # dominated region is the (d-1)-dim hypervolume of the points already
    # at or below the slab floor.
    levels = sorted({p[-1] for p in pts})
    hv = 0.0
    for i, z in enumerate(levels):
        upper = levels[i + 1] if i + 1 < len(levels) else ref[-1]
        slab = upper - z
        proj = _nondominated_vectors([p[:-1] for p in pts if p[-1] <= z])
        hv += slab * _hv(proj, ref[:-1])
    return hv


def front_hypervolume(
    evaluations: Sequence[Evaluation],
    objectives: tuple[Objective, ...],
    reference: Sequence[float],
) -> float:
    return hypervolume([e.vector(objectives) for e in evaluations], reference)


# ---------------------------------------------------------------------- #
# Metric constraints (feasibility, not domination)                        #
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class MetricBound:
    """A feasibility bound on one metric, e.g. area_mm2 <= 4.0."""

    metric: str
    op: str  # "<=" | ">="
    value: float

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError(f"bound op must be <= or >=, got {self.op!r}")

    def satisfied(self, evaluation: Evaluation) -> bool:
        measured = evaluation.metric(self.metric)
        return measured <= self.value if self.op == "<=" else measured >= self.value

    def violation(self, evaluation: Evaluation) -> float:
        """Relative overshoot (0 when satisfied) — a feasibility gradient
        annealing can descend even when everything seen violates bounds."""
        measured = evaluation.metric(self.metric)
        excess = measured - self.value if self.op == "<=" else self.value - measured
        return max(0.0, excess / max(abs(self.value), 1e-12))

    def __str__(self) -> str:
        return f"{self.metric} {self.op} {self.value:g}"


def parse_bound(text: str) -> MetricBound:
    """Parse ``"metric<=value"`` / ``"metric>=value"`` CLI constraints."""
    for op in ("<=", ">="):
        if op in text:
            metric, __, raw = text.partition(op)
            try:
                value = float(raw)
            except ValueError:
                raise ValueError(f"bad bound value in {text!r}") from None
            metric = metric.strip()
            if not metric:
                raise ValueError(f"bad bound {text!r}: missing metric name")
            return MetricBound(metric=metric, op=op, value=value)
    raise ValueError(f"bad bound {text!r}: expected metric<=value or metric>=value")
