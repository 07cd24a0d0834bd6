"""The Gemmini architectural template: every design-time parameter.

:class:`GemminiConfig` mirrors the Chisel generator's parameter class.  The
two-level spatial-array geometry (mesh of tiles, tiles of PEs), the dataflow
set, datatypes, memory capacities, peripheral compute blocks and DMA/TLB
parameters are all design-time choices (paper Section III-A).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from repro.core.dtypes import DType, INT8, INT32, FP32, dtype_by_name
from repro.mem.tlb import TLBConfig


def geometry_kwargs(dim: int, tile: int = 1) -> dict:
    """Field overrides for a square ``dim x dim`` PE grid of ``tile x tile``
    combinational tiles — the single source of the dim/tile -> mesh/tile
    mapping (used by :meth:`GemminiConfig.with_geometry` and the DSE
    space's point materialisation)."""
    if dim < 1 or tile < 1:
        raise ValueError(f"dim and tile must be >= 1, got dim={dim}, tile={tile}")
    if dim % tile:
        raise ValueError(f"tile edge {tile} must divide PE-grid edge {dim}")
    return {
        "mesh_rows": dim // tile,
        "mesh_cols": dim // tile,
        "tile_rows": tile,
        "tile_cols": tile,
    }


class Dataflow(enum.Enum):
    """Spatial-array dataflows.  BOTH means run-time selectable."""

    OS = "output-stationary"
    WS = "weight-stationary"
    BOTH = "both"

    def supports(self, other: "Dataflow") -> bool:
        if self is Dataflow.BOTH:
            return other in (Dataflow.OS, Dataflow.WS, Dataflow.BOTH)
        return other is self


class Activation(enum.Enum):
    """Activation functions implemented by the output pipeline."""

    NONE = "none"
    RELU = "relu"
    RELU6 = "relu6"


@dataclass(frozen=True)
class GemminiConfig:
    """Design-time parameters of one generated accelerator.

    Geometry follows the Chisel generator: the spatial array is a
    ``mesh_rows x mesh_cols`` grid of *tiles* (pipeline registers between
    tiles), each tile a ``tile_rows x tile_cols`` grid of *PEs* connected
    combinationally.  The overall PE grid is therefore
    ``(mesh_rows*tile_rows) x (mesh_cols*tile_cols)`` and must be square.
    """

    # -- spatial array ------------------------------------------------- #
    mesh_rows: int = 16
    mesh_cols: int = 16
    tile_rows: int = 1
    tile_cols: int = 1
    dataflow: Dataflow = Dataflow.BOTH

    # -- datatypes ------------------------------------------------------ #
    input_type: DType = INT8
    acc_type: DType = INT32

    # -- local memories -------------------------------------------------- #
    sp_capacity_bytes: int = 256 * 1024
    sp_banks: int = 4
    acc_capacity_bytes: int = 64 * 1024
    acc_banks: int = 2

    # -- peripheral compute blocks ---------------------------------------- #
    has_im2col: bool = False
    has_transposer: bool = True
    has_pooling: bool = True
    has_matscalar: bool = True
    has_relu6: bool = True

    # -- DMA / system interface ------------------------------------------- #
    dma_bus_bytes: int = 16
    dma_max_inflight: int = 16
    rob_entries: int = 16

    # -- virtual memory ----------------------------------------------------- #
    tlb: TLBConfig = field(default_factory=TLBConfig)

    # -- clock -------------------------------------------------------------- #
    clock_ghz: float = 1.0

    # ------------------------------------------------------------------ #
    # Derived geometry                                                    #
    # ------------------------------------------------------------------ #

    @property
    def grid_rows(self) -> int:
        """Total PE rows (mesh rows x tile rows)."""
        return self.mesh_rows * self.tile_rows

    @property
    def grid_cols(self) -> int:
        """Total PE columns."""
        return self.mesh_cols * self.tile_cols

    @property
    def dim(self) -> int:
        """The systolic dimension DIM (PE grid is DIM x DIM)."""
        return self.grid_rows

    @property
    def num_pes(self) -> int:
        return self.grid_rows * self.grid_cols

    @property
    def sp_row_bytes(self) -> int:
        """Bytes per scratchpad row (DIM input elements)."""
        return self.dim * self.input_type.bytes

    @property
    def sp_rows(self) -> int:
        """Total scratchpad rows across banks."""
        return self.sp_capacity_bytes // self.sp_row_bytes

    @property
    def sp_bank_rows(self) -> int:
        return self.sp_rows // self.sp_banks

    @property
    def acc_row_bytes(self) -> int:
        """Bytes per accumulator row (DIM accumulator elements)."""
        return self.dim * self.acc_type.bytes

    @property
    def acc_rows(self) -> int:
        return self.acc_capacity_bytes // self.acc_row_bytes

    @property
    def acc_bank_rows(self) -> int:
        return self.acc_rows // self.acc_banks

    @property
    def macs_per_cycle(self) -> int:
        return self.num_pes

    @property
    def pipeline_depth(self) -> int:
        """Pipeline register stages a value crosses traversing the array.

        A fully pipelined (TPU-like) array has one stage per tile row plus
        one per tile column; a fully combinational (NVDLA-like) array has a
        single boundary stage.
        """
        return self.mesh_rows + self.mesh_cols

    # ------------------------------------------------------------------ #
    # Validation                                                          #
    # ------------------------------------------------------------------ #

    def __post_init__(self) -> None:
        for name in ("mesh_rows", "mesh_cols", "tile_rows", "tile_cols"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.grid_rows != self.grid_cols:
            raise ValueError(
                f"PE grid must be square, got {self.grid_rows}x{self.grid_cols} "
                f"({self.mesh_rows}x{self.mesh_cols} tiles of "
                f"{self.tile_rows}x{self.tile_cols} PEs)"
            )
        for name in ("sp_capacity_bytes", "acc_capacity_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("sp_banks", "acc_banks"):
            banks = getattr(self, name)
            if banks < 1 or banks & (banks - 1):
                raise ValueError(f"{name} must be a positive power of two, got {banks}")
        if self.sp_capacity_bytes % (self.sp_row_bytes * self.sp_banks):
            raise ValueError(
                f"sp_capacity_bytes={self.sp_capacity_bytes} must divide into "
                f"{self.sp_banks} banks of whole {self.sp_row_bytes}-byte rows "
                f"(DIM={self.dim} x {self.input_type.bytes}-byte elements)"
            )
        if self.acc_capacity_bytes % (self.acc_row_bytes * self.acc_banks):
            raise ValueError(
                f"acc_capacity_bytes={self.acc_capacity_bytes} must divide into "
                f"{self.acc_banks} banks of whole {self.acc_row_bytes}-byte rows "
                f"(DIM={self.dim} x {self.acc_type.bytes}-byte elements)"
            )
        if self.dma_bus_bytes <= 0 or self.dma_bus_bytes & (self.dma_bus_bytes - 1):
            raise ValueError("dma_bus_bytes must be a positive power of two")
        if self.input_type.is_float != self.acc_type.is_float:
            raise ValueError("input and accumulator types must both be int or float")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")
        if self.rob_entries < 1 or self.dma_max_inflight < 1:
            raise ValueError("queue depths must be >= 1")

    # ------------------------------------------------------------------ #
    # Convenience constructors / variants                                 #
    # ------------------------------------------------------------------ #

    def with_memories(
        self,
        sp_capacity_bytes: int | None = None,
        acc_capacity_bytes: int | None = None,
    ) -> "GemminiConfig":
        return replace(
            self,
            sp_capacity_bytes=sp_capacity_bytes or self.sp_capacity_bytes,
            acc_capacity_bytes=acc_capacity_bytes or self.acc_capacity_bytes,
        )

    def with_tlb(self, tlb: TLBConfig) -> "GemminiConfig":
        return replace(self, tlb=tlb)

    def with_im2col(self, has_im2col: bool) -> "GemminiConfig":
        return replace(self, has_im2col=has_im2col)

    def with_geometry(self, dim: int, tile: int = 1) -> "GemminiConfig":
        """Variant with a ``dim x dim`` PE grid built from ``tile x tile``
        combinational tiles (the design-space geometry parameterisation)."""
        return replace(self, **geometry_kwargs(dim, tile))

    def to_dict(self) -> dict:
        """JSON-able field dict; inverse of :func:`config_from_dict`."""
        from dataclasses import asdict

        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, DType):
                out[f.name] = value.name
            elif isinstance(value, Dataflow):
                out[f.name] = value.name
            elif f.name == "tlb":
                out[f.name] = asdict(value)
            else:
                out[f.name] = value
        return out

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.grid_rows}x{self.grid_cols} PEs "
            f"({self.mesh_rows}x{self.mesh_cols} tiles of "
            f"{self.tile_rows}x{self.tile_cols}), "
            f"{self.dataflow.name}, {self.input_type}/{self.acc_type}, "
            f"sp={self.sp_capacity_bytes // 1024}KB/{self.sp_banks}b, "
            f"acc={self.acc_capacity_bytes // 1024}KB/{self.acc_banks}b, "
            f"im2col={'y' if self.has_im2col else 'n'}"
        )


# ---------------------------------------------------------------------- #
# Named configurations used throughout the paper                          #
# ---------------------------------------------------------------------- #


def default_config() -> GemminiConfig:
    """The paper's main evaluation point: 16x16 pipelined systolic array,
    256 KB scratchpad, 64 KB accumulator (Figure 6)."""
    return GemminiConfig()


def systolic_config(dim: int = 16) -> GemminiConfig:
    """Fully pipelined, TPU-like: every tile is a single PE (Figure 3 left)."""
    return GemminiConfig(mesh_rows=dim, mesh_cols=dim, tile_rows=1, tile_cols=1)


def vector_config(dim: int = 16) -> GemminiConfig:
    """Fully combinational, NVDLA-like: one tile holding the whole PE grid,
    forming MAC reduction trees (Figure 3 right)."""
    return GemminiConfig(mesh_rows=1, mesh_cols=1, tile_rows=dim, tile_cols=dim)


def edge_config(
    private_tlb_entries: int = 4,
    shared_tlb_entries: int = 0,
    filter_registers: bool = False,
) -> GemminiConfig:
    """The low-power edge device of the Section V-A case study: 16x16 mesh,
    256 KB scratchpad, one shared PTW, configurable TLB sizes."""
    return GemminiConfig(
        tlb=TLBConfig(
            private_entries=private_tlb_entries,
            shared_entries=shared_tlb_entries,
            filter_registers=filter_registers,
        ),
    )


def fp32_config() -> GemminiConfig:
    """A floating-point instance (training-capable datapath)."""
    return GemminiConfig(input_type=FP32, acc_type=FP32)


def big_sp_config() -> GemminiConfig:
    """Figure 9 'BigSP': 512 KB scratchpad + 512 KB accumulator per core."""
    return GemminiConfig(
        sp_capacity_bytes=512 * 1024,
        acc_capacity_bytes=512 * 1024,
    )


def fig9_base_config() -> GemminiConfig:
    """Figure 9 'Base': 256 KB scratchpad + 256 KB accumulator per core."""
    return GemminiConfig(acc_capacity_bytes=256 * 1024)


def config_from_dict(params: dict) -> GemminiConfig:
    """Build a config from a plain dict (the JSON design-space interface)."""
    kwargs = dict(params)
    if "input_type" in kwargs:
        kwargs["input_type"] = dtype_by_name(kwargs["input_type"])
    if "acc_type" in kwargs:
        kwargs["acc_type"] = dtype_by_name(kwargs["acc_type"])
    if "dataflow" in kwargs:
        kwargs["dataflow"] = Dataflow[kwargs["dataflow"]]
    if "tlb" in kwargs and isinstance(kwargs["tlb"], dict):
        kwargs["tlb"] = TLBConfig(**kwargs["tlb"])
    return GemminiConfig(**kwargs)
