"""Golden gate: the serving engine must reproduce the historical schedule bitwise.

``golden_serve_digests.json`` holds one sha256 digest per case below.  The
digests were captured from the retired lockstep engine — every tenant's
arrival list materialised up front and the tile generators interleaved
through :func:`~repro.sim.engine.lockstep_merge` — before it was deleted,
and the event engine had matched it bitwise on every point of its parity
suite.  A digest covers the request log, the overall and per-tenant report
summaries, the makespan, the issued/dropped/replayed accounting and the
shared-memory counters (L2 miss rate, DRAM bytes), so any change to what a
request observes moves it.

Regenerating the fixture: when a deliberate timing change lands (a memory
latency, a scheduler tie-break, a new cost in the macro-op stream), the
digests move with it.  Rewrite them from the current engine with::

    PYTHONPATH=src python tests/serve/test_engine_parity.py --regenerate

then check that only the cases the change should touch moved, and commit
the fixture together with the change, saying in CHANGES.md why it moved.

Profiles stay tiny (squeezenet at 32px, a handful of requests) and trace
replay (on by default) keeps repeated macro-op streams cheap.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

from repro.core.config import default_config
from repro.serve import TenantSpec, TrafficProfile, simulate_serving

MODEL = dict(model="squeezenet", input_hw=32)
GOLDEN_PATH = Path(__file__).with_name("golden_serve_digests.json")


def serve_digest(result) -> str:
    """sha256 over everything a serving run reports about its schedule."""
    payload = {
        "records": [dataclasses.astuple(r) for r in result.records],
        "overall": result.report.overall.summary(),
        "tenants": {t.tenant: t.summary() for t in result.report.tenants},
        "makespan_cycles": result.makespan_cycles,
        "issued": result.issued,
        "dropped": result.dropped,
        "replayed": result.replayed,
        "l2_miss_rate": result.l2_miss_rate,
        "dram_bytes": result.dram_bytes,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def contended_study() -> TrafficProfile:
    return TrafficProfile(
        tenants=(
            TenantSpec(
                name="web", arrival="poisson", rate_qps=300.0,
                num_requests=8, slo_ms=5.0, **MODEL,
            ),
            TenantSpec(
                name="batchy", arrival="closed", num_requests=6,
                concurrency=2, think_ms=0.5, **MODEL,
            ),
        ),
        num_tiles=2,
        scheduler="fcfs",
        seed=7,
    )


def horizon_cut_study() -> TrafficProfile:
    return TrafficProfile(
        tenants=(
            TenantSpec(
                name="web", arrival="poisson", rate_qps=400.0,
                num_requests=12, **MODEL,
            ),
        ),
        num_tiles=1,
        seed=3,
        horizon_ms=1.0,
    )


SCHEDULERS = ("fcfs", "priority", "sjf", "rr")
ARRIVALS = ("poisson", "bursty", "closed")


def grid_point(index: int, scheduler: str, arrival: str) -> tuple[TrafficProfile, int]:
    """One point of the fixed grid: tiles alternate 1/2 point by point, the
    mesh dim alternates 8/16 every two points."""
    kwargs = dict(name="t0", arrival=arrival, num_requests=4, **MODEL)
    if arrival == "closed":
        kwargs.update(concurrency=2, think_ms=0.25)
    else:
        kwargs.update(rate_qps=250.0)
    if arrival == "bursty":
        kwargs.update(burst_on_ms=0.5, burst_off_ms=1.0)
    profile = TrafficProfile(
        tenants=(
            TenantSpec(**kwargs),
            TenantSpec(
                name="t1", arrival="poisson", rate_qps=200.0,
                num_requests=2, priority=1, **MODEL,
            ),
        ),
        num_tiles=1 + index % 2,
        scheduler=scheduler,
        seed=index,
    )
    return profile, (8, 16)[(index // 2) % 2]


def cases() -> dict[str, tuple[TrafficProfile, int | None]]:
    """Case name -> (profile, mesh dim or None for the default config)."""
    out = {
        "study/contended_two_tenant": (contended_study(), None),
        "study/horizon_cut": (horizon_cut_study(), None),
    }
    for index, (scheduler, arrival) in enumerate(itertools.product(SCHEDULERS, ARRIVALS)):
        out[f"grid/{index:02d}-{scheduler}-{arrival}"] = grid_point(index, scheduler, arrival)
    return out


def run_case(profile: TrafficProfile, dim: int | None):
    if dim is None:
        return simulate_serving(profile)
    return simulate_serving(profile, gemmini=default_config().with_geometry(dim, 1))


def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


class TestTwoTenantStudyParity:
    """The two study profiles, against the lockstep engine's digests."""

    def test_contended_two_tenant_study(self):
        result = simulate_serving(contended_study())
        assert result.completed == result.issued
        assert serve_digest(result) == golden()["study/contended_two_tenant"]

    def test_horizon_cut_drops_match(self):
        # A tight horizon forces drops; streamed sources must account the
        # arrivals they never pulled exactly as the materialised lists did.
        result = simulate_serving(horizon_cut_study())
        assert sum(result.dropped.values()) > 0
        assert serve_digest(result) == golden()["study/horizon_cut"]


class TestGridGolden:
    def test_fixture_covers_every_case(self):
        assert set(golden()) == set(cases())

    def test_grid_points_match_golden(self):
        expected = golden()
        moved = [
            name
            for name, (profile, dim) in cases().items()
            if name.startswith("grid/")
            and serve_digest(run_case(profile, dim)) != expected[name]
        ]
        assert moved == []


class TestMemoryBound:
    def test_peak_state_is_order_inflight_not_total(self):
        # A closed loop with concurrency 2 issues 20 requests but never
        # has more than ~concurrency pending or in flight: the measurable
        # O(in-flight) claim.
        profile = TrafficProfile(
            tenants=(
                TenantSpec(
                    name="loop", arrival="closed", num_requests=20,
                    concurrency=2, think_ms=0.1, **MODEL,
                ),
                TenantSpec(
                    name="web", arrival="poisson", rate_qps=100.0,
                    num_requests=8, **MODEL,
                ),
            ),
            num_tiles=2,
            seed=1,
        )
        event = simulate_serving(profile)
        assert event.completed == event.issued == 28
        assert event.peak_inflight <= profile.num_tiles
        # Streaming admission holds one pre-scheduled arrival per tenant
        # plus follow-ups; far below the 28 issued requests.
        assert event.peak_pending <= 8
        assert event.peak_pending < event.issued // 3

    def test_stream_record_mode_drops_the_request_log(self):
        profile = TrafficProfile(
            tenants=(
                TenantSpec(
                    name="web", arrival="poisson", rate_qps=250.0,
                    num_requests=6, slo_ms=5.0, **MODEL,
                ),
            ),
            num_tiles=1,
            seed=5,
        )
        exact = simulate_serving(profile, record_mode="exact")
        stream = simulate_serving(profile, record_mode="stream")
        assert stream.records == []
        assert stream.completed == exact.completed == 6
        assert stream.issued == exact.issued
        # Counting stats are exact in both modes; quantiles come from the
        # P2 sketch and must land near the exact histogram's.
        s, e = stream.report.overall, exact.report.overall
        assert s.completed == e.completed
        assert s.mean_ms == e.mean_ms
        assert s.goodput_qps == e.goodput_qps
        assert abs(s.p99_ms - e.p99_ms) <= max(0.25 * e.p99_ms, 0.05)


def regenerate() -> None:
    """Rewrite the fixture from the current engine (see the module docstring)."""
    import os

    # Dispatch must plan greedily, as it does under the tests' empty cache.
    os.environ["REPRO_SCHEDULE_CACHE"] = "off"
    digests = {name: serve_digest(run_case(*case)) for name, case in cases().items()}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python tests/serve/test_engine_parity.py --regenerate")
    regenerate()
