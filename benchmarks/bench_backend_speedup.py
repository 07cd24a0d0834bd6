"""Structural simulation: vectorized wavefront vs the per-PE scalar reference.

``StructuralMesh.run_ws``/``run_os`` advance the whole array per cycle with
numpy slab operations and must be bitwise-identical to the scalar
reference loops (``_run_ws_scalar``/``_run_os_scalar``) while
being at least an order of magnitude faster on a 32x32 array — the margin
that makes large-array sweeps and the structural-check execution mode
affordable.
"""

import time

import numpy as np

from benchmarks.conftest import once
from repro.core.config import GemminiConfig
from repro.core.spatial_array import StructuralMesh


def _mesh_config(dim: int, tile: int) -> GemminiConfig:
    return GemminiConfig(
        mesh_rows=dim // tile,
        mesh_cols=dim // tile,
        tile_rows=tile,
        tile_cols=tile,
        sp_capacity_bytes=dim * 256,
        sp_banks=1,
        acc_capacity_bytes=dim * 4 * 64,
        acc_banks=1,
    )


def _time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(dim: int = 32) -> list[tuple]:
    """Scalar vs vectorized wall time for a dim x dim WS and OS matmul."""
    rng = np.random.default_rng(0xBEEF)
    rows = []
    for tile in (1, dim):
        mesh = StructuralMesh(_mesh_config(dim, tile))
        # float64 operands: what run_ws/run_os hand the simulator.
        a, b, d = (
            rng.integers(-8, 8, size=(dim, dim)).astype(np.float64) for __ in range(3)
        )

        out_s, cyc_s = mesh._run_ws_scalar(a, b, d)
        out_v, cyc_v = mesh.run_ws(a, b, d)
        assert np.array_equal(out_s, out_v) and cyc_s == cyc_v

        # Best-of-N on both sides: the ratio gates CI, so keep scheduler
        # noise out of both the numerator and the denominator.
        t_scalar = min(_time(lambda: mesh._run_ws_scalar(a, b, d)) for __ in range(2))
        t_vector = min(_time(lambda: mesh.run_ws(a, b, d)) for __ in range(3))
        rows.append((f"WS {dim}x{dim} tile {tile}x{tile}", t_scalar, t_vector))

        t_scalar = min(_time(lambda: mesh._run_os_scalar(a, b, d)) for __ in range(2))
        t_vector = min(_time(lambda: mesh.run_os(a, b, d)) for __ in range(3))
        rows.append((f"OS {dim}x{dim} tile {tile}x{tile}", t_scalar, t_vector))
    return rows


def test_vectorized_backend_speedup(benchmark, emit):
    rows = once(benchmark, measure)

    from repro.eval.report import format_table

    text = format_table(
        ["simulation", "scalar (ms)", "vectorized (ms)", "speedup"],
        [
            (name, f"{ts * 1e3:.1f}", f"{tv * 1e3:.2f}", f"{ts / tv:.1f}x")
            for name, ts, tv in rows
        ],
        title="Structural mesh: scalar reference vs vectorized wavefront",
    )
    emit("backend_speedup", text)

    # Acceptance: a 32x32 structural matmul must be >=10x faster vectorized.
    for name, t_scalar, t_vector in rows:
        assert t_scalar / t_vector >= 10.0, (
            f"{name}: vectorized path only {t_scalar / t_vector:.1f}x faster"
        )
