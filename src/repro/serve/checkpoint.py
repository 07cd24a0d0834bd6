"""Checkpoint/resume of long serving simulations.

The event engine parks every tile at a dispatch point (no macro-op
generator frames live, nothing in flight), which makes the whole
:class:`~repro.serve.cluster.ServingSimulation` — SoC state, scheduler
queue, pending arrivals, per-tenant RNG cursors, tile clocks, metric
estimators, partial records — one picklable object graph.  A checkpoint
is that pickle plus a schema stamp and the package source fingerprint,
written atomically (:func:`repro.store.write_atomic`) so a kill mid-write
never corrupts the last good one.  Loading unpickles, which runs code
from the file: only load checkpoints you wrote.

Resuming is :func:`load_checkpoint` followed by
:meth:`~repro.serve.cluster.ServingSimulation.run`: parked actors
re-enter the event heap at their saved ``(clock, tile index)`` positions,
so the continued schedule — and the final :class:`~repro.serve.metrics
.ServeReport` — is bitwise identical to the uninterrupted run.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from repro.eval.runner import _source_fingerprint
from repro.serve.cluster import ServingSimulation
from repro.store import write_atomic

__all__ = ["CHECKPOINT_SCHEMA", "save_checkpoint", "load_checkpoint"]

#: bump on any incompatible change to the pickled layout
CHECKPOINT_SCHEMA = 2


def save_checkpoint(sim: ServingSimulation, path: str | Path) -> None:
    """Atomically write ``sim`` (parked at a barrier) to ``path``."""
    if any(actor.stream is not None for actor in sim._actors):
        raise RuntimeError("checkpoint outside a barrier: a tile stream is live")
    payload = {"schema": CHECKPOINT_SCHEMA, "source": _source_fingerprint(), "sim": sim}
    write_atomic(Path(path), pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: str | Path) -> ServingSimulation:
    """Load a checkpointed simulation, ready for ``run()`` to continue;
    refuses another schema, then another source tree's checkpoint."""
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    if not isinstance(payload, dict) or "schema" not in payload:
        raise ValueError(f"{path}: not a serving checkpoint")
    if payload["schema"] != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"{path}: checkpoint schema {payload['schema']} != {CHECKPOINT_SCHEMA}"
        )
    source = _source_fingerprint()
    if payload.get("source") != source:
        raise ValueError(
            f"{path}: checkpoint written by source tree {payload.get('source')}, "
            f"this is {source}"
        )
    sim = payload["sim"]
    if not isinstance(sim, ServingSimulation):
        raise ValueError(f"{path}: checkpoint payload is not a ServingSimulation")
    return sim
