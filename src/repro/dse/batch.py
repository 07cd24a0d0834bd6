"""Config columns: a batch of design points seen one parameter at a time.

:func:`build_columns` materialises each design point through
:func:`~repro.dse.space.point_to_config` — the one place a point becomes a
:class:`~repro.core.config.GemminiConfig`, with its defaults, units and
validation — and wraps the configs in a :class:`ConfigColumns`.  Reading
any config attribute off the columns gives the numpy array of that
attribute over the batch, so the analytic cost model
(:class:`~repro.core.spatial_array.SpatialArrayModel` and
:mod:`repro.physical`) scores every candidate with the same formulas it
applies to one config, in a handful of vectorised expressions.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

import numpy as np

from repro.core.config import GemminiConfig
from repro.dse.space import point_key, point_to_config

__all__ = ["ConfigColumns", "build_columns", "group_by_components", "materialise"]


@lru_cache(maxsize=1024)
def materialise(key: tuple) -> "tuple[GemminiConfig, str]":
    """The config and ``describe()`` line of the point whose
    :func:`~repro.dse.space.point_key` is ``key``.

    Memoised per process: a search re-scores the points it revisits
    (neighbours, repeated batches), and building and describing a config
    costs more than scoring it in a batch.  Both are pure functions of the
    point and the config is frozen, so sharing them is safe.
    """
    config = point_to_config(dict(key))
    return config, config.describe()


def group_by_components(points: list[dict]) -> dict:
    """Group point indices by their component signature (the structural mix).

    Points without a ``components`` axis land under the ``None`` key — they
    are single-accelerator points and columnise directly.  Points sharing a
    mix signature share their per-preset sub-configs, so the batched
    evaluator scores each unique tile class once per group instead of once
    per fleet.
    """
    from repro.dse.space import COMPONENTS_KEY

    groups: dict = {}
    for index, point in enumerate(points):
        mix = point.get(COMPONENTS_KEY)
        key = None if mix is None else tuple(mix)
        groups.setdefault(key, []).append(index)
    return groups


class ConfigColumns:
    """A batch of configs whose attributes read as numpy columns.

    ``columns.dim`` is ``np.array([c.dim for c in columns.configs])``, and
    so on for every :class:`~repro.core.config.GemminiConfig` field and
    property; enum-valued attributes (``dataflow``) become object arrays.
    Each column is built on first read and kept.
    """

    def __init__(self, configs: "list[GemminiConfig] | tuple[GemminiConfig, ...]") -> None:
        self.configs = tuple(configs)

    def __len__(self) -> int:
        return len(self.configs)

    def __getattr__(self, name: str) -> np.ndarray:
        if name.startswith("_"):
            raise AttributeError(name)
        column = np.array(list(map(attrgetter(name), self.configs)))
        self.__dict__[name] = column
        return column


def build_columns(points: list[dict]) -> ConfigColumns:
    """Materialise ``points`` through :func:`point_to_config` and columnise
    the configs; an invalid point raises ``point_to_config``'s error."""
    if not points:
        raise ValueError("build_columns needs at least one point")
    return ConfigColumns([materialise(point_key(point))[0] for point in points])
