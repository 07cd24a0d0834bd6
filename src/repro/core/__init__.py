"""The accelerator generator core: Gemmini's architectural template.

This package is the Python analogue of the Chisel generator: a
parameterised template (:class:`~repro.core.config.GemminiConfig`) from
which :func:`~repro.core.generator.generate` produces accelerator instances
— functional + cycle-accounted models of the spatial array, scratchpad,
accumulator, peripheral blocks, DMA/TLB path and decoupled controller.
"""

from repro.core.accelerator import Accelerator, ProgramResult
from repro.core.accumulator import Accumulator, apply_activation
from repro.core.config import (
    Activation,
    Dataflow,
    GemminiConfig,
    big_sp_config,
    config_from_dict,
    default_config,
    edge_config,
    fig9_base_config,
    fp32_config,
    systolic_config,
    vector_config,
)
from repro.core.controller import Controller, Op, Scoreboard
from repro.core.dma import DMAEngine, DMAResult
from repro.core.dtypes import BF16, FP32, INT8, INT16, INT32, DType, dtype_by_name
from repro.core.generator import (
    GeneratedAccelerator,
    SoftwareParams,
    enumerate_design_space,
    generate,
)
from repro.core.header import emit_params_header, parse_params_header
from repro.core.isa import Funct, Instruction, LocalAddr
from repro.core.peripherals import (
    ConvParams,
    Im2colUnit,
    MatrixScalarUnit,
    PoolingEngine,
    PoolParams,
    Transposer,
    conv_reference,
    im2col,
)
from repro.core.scratchpad import Scratchpad
from repro.core.spatial_array import (
    FunctionalMesh,
    MatmulCost,
    SpatialArrayModel,
    StructuralMesh,
)

__all__ = [
    "Accelerator",
    "ProgramResult",
    "Accumulator",
    "apply_activation",
    "Activation",
    "Dataflow",
    "GemminiConfig",
    "big_sp_config",
    "config_from_dict",
    "default_config",
    "edge_config",
    "fig9_base_config",
    "fp32_config",
    "systolic_config",
    "vector_config",
    "Controller",
    "Op",
    "Scoreboard",
    "DMAEngine",
    "DMAResult",
    "BF16",
    "FP32",
    "INT8",
    "INT16",
    "INT32",
    "DType",
    "dtype_by_name",
    "GeneratedAccelerator",
    "SoftwareParams",
    "enumerate_design_space",
    "generate",
    "emit_params_header",
    "parse_params_header",
    "Funct",
    "Instruction",
    "LocalAddr",
    "ConvParams",
    "Im2colUnit",
    "MatrixScalarUnit",
    "PoolingEngine",
    "PoolParams",
    "Transposer",
    "conv_reference",
    "im2col",
    "Scratchpad",
    "FunctionalMesh",
    "MatmulCost",
    "SpatialArrayModel",
    "StructuralMesh",
]
