"""Power model: dynamic power of the spatial array and local SRAMs.

Calibrated to Figure 3's observation that at equal frequency the fully
pipelined (systolic) 256-PE array consumes 3.0x the power of the
combinational (vector) array — the pipeline registers dominate switching
energy.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import GemminiConfig
from repro.physical.area import pipeline_register_count
from repro.physical.technology import INTEL_22FFL, Technology

_CALIBRATION_GHZ = 0.5


def spatial_array_power_mw(
    config: GemminiConfig,
    frequency_ghz: float = _CALIBRATION_GHZ,
    tech: Technology = INTEL_22FFL,
):
    """Dynamic power of the PE grid + pipeline registers, mW.

    ``frequency_ghz`` may be one array entry per design of a batch.
    """
    stopped = frequency_ghz <= 0
    if isinstance(stopped, np.ndarray):
        stopped = stopped.any()
    if stopped:
        raise ValueError("frequency must be positive")
    pes = config.num_pes * tech.pe_power_mw
    regs = pipeline_register_count(config) * tech.reg_power_mw
    return (pes + regs) * (frequency_ghz / _CALIBRATION_GHZ)


def power_mw(
    config: GemminiConfig,
    frequency_ghz: float = _CALIBRATION_GHZ,
    tech: Technology = INTEL_22FFL,
):
    """Accelerator dynamic power: array + local SRAM switching, mW."""
    sram_kb = (config.sp_capacity_bytes + config.acc_capacity_bytes) / 1024.0
    sram = sram_kb * tech.sram_power_mw_per_kb * (frequency_ghz / _CALIBRATION_GHZ)
    return spatial_array_power_mw(config, frequency_ghz, tech) + sram

