"""The generated accelerator: components wired together plus an ISA executor.

:class:`Accelerator` instantiates every block of Figure 1 from a
:class:`~repro.core.config.GemminiConfig` — spatial array, scratchpad,
accumulator, DMA with local TLB, peripheral units, and the decoupled
controller — and executes RoCC instruction streams with full functional
semantics (real bytes move) and cycle bookkeeping (every structural hazard,
DMA beat and TLB miss is accounted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.accumulator import Accumulator, apply_activation
from repro.core.config import Activation, Dataflow, GemminiConfig
from repro.core.controller import Controller, Op
from repro.core.dma import DMAEngine
from repro.core.dtypes import rounding_right_shift
from repro.core.isa import (
    ConfigTarget,
    Funct,
    Instruction,
    LocalAddr,
    config_target,
    decode_compute,
    decode_config_ex,
    decode_config_ld,
    decode_config_st,
    decode_move,
    decode_preload,
)
from repro.core.peripherals import Im2colUnit, MatrixScalarUnit, PoolingEngine, Transposer
from repro.core.scratchpad import Scratchpad
from repro.core.spatial_array import FunctionalMesh, SpatialArrayModel, StructuralMesh
from repro.mem.hierarchy import MemorySystem
from repro.mem.host_memory import HostMemory
from repro.mem.page_table import VirtualMemory
from repro.mem.tlb import TranslationSystem
from repro.sim.stats import StatsRegistry
from repro.sim.timeline import Timeline

_ACTIVATIONS = {0: Activation.NONE, 1: Activation.RELU, 2: Activation.RELU6}


@dataclass
class _ExecState:
    """Run-time configuration programmed via CONFIG instructions."""

    dataflow_ws: bool = True
    activation: Activation = Activation.NONE
    in_shift: int = 0
    acc_scale: float = 1.0
    transpose_a: bool = False
    transpose_b: bool = False
    ld_stride: int = 0
    ld_scale: float = 1.0
    ld_shrink: bool = False
    st_stride: int = 0
    pool_size: int = 0
    pool_stride: int = 0
    pool_out_cols: int = 0


@dataclass
class _PreloadState:
    """The staged PRELOAD operands awaiting the next COMPUTE."""

    c: LocalAddr = field(default_factory=LocalAddr.garbage_addr)
    c_cols: int = 0
    c_rows: int = 0
    os_seed_pending: bool = False


@dataclass
class ProgramResult:
    """Outcome of executing one instruction stream."""

    cycles: float
    instructions: int

    def seconds(self, clock_ghz: float) -> float:
        return self.cycles / (clock_ghz * 1e9)


class Accelerator:
    """A generated Gemmini instance attached to an SoC memory system."""

    def __init__(
        self,
        config: GemminiConfig,
        mem: MemorySystem | None = None,
        vm: VirtualMemory | None = None,
        host: HostMemory | None = None,
        ptw: Timeline | None = None,
        name: str = "gemmini",
        structural_check: bool = False,
    ) -> None:
        self.config = config
        self.name = name
        self.mem = mem if mem is not None else MemorySystem()
        self.vm = vm
        self.host = host if host is not None else HostMemory()
        self.xlat = TranslationSystem(
            config.tlb,
            ptw=ptw,
            page_table=vm.page_table if vm is not None else None,
            name=f"{name}.xlat",
        )
        self.scratchpad = Scratchpad(config, name=f"{name}.spad")
        self.accumulator = Accumulator(config, name=f"{name}.acc")
        self.mesh = FunctionalMesh(config)
        self.model = SpatialArrayModel(config)
        self.dma = DMAEngine(config, self.xlat, self.mem, vm, name=f"{name}.dma")
        self.controller = Controller(rob_entries=config.rob_entries)
        self.transposer = Transposer(config.dim) if config.has_transposer else None
        self.pooling = PoolingEngine(config.dim) if config.has_pooling else None
        self.im2col_unit = Im2colUnit(config.dim) if config.has_im2col else None
        self.matscalar = MatrixScalarUnit(config.dim) if config.has_matscalar else None
        self.stats = StatsRegistry(owner=name)
        #: When enabled, every COMPUTE is replayed on the cycle-exact
        #: structural mesh and compared against the functional result —
        #: affordable because the mesh simulates with vectorized wavefronts.
        self.structural = StructuralMesh(config) if structural_check else None
        self._exec = _ExecState()
        self._preload = _PreloadState()

    # ================================================================== #
    # ISA-level execution                                                 #
    # ================================================================== #

    def run_program(self, program, start_time: float = 0.0) -> ProgramResult:
        """Execute an instruction stream; returns cycles and counts.

        Functional side effects happen in program order; timing overlaps
        across the decoupled units exactly as the scoreboard allows.
        """
        count = 0
        end = start_time
        for inst in program:
            end = max(end, self._step(inst, start_time))
            count += 1
        end = max(end, self.controller.drain())
        self.stats.counter("instructions").add(count)
        return ProgramResult(cycles=end - start_time, instructions=count)

    # ------------------------------------------------------------------ #

    def _step(self, inst: Instruction, start_time: float) -> float:
        funct = inst.funct
        if funct is Funct.CONFIG:
            return self._do_config(inst)
        if funct in (Funct.MVIN, Funct.MVIN2):
            return self._do_mvin(inst)
        if funct is Funct.MVOUT:
            return self._do_mvout(inst)
        if funct is Funct.PRELOAD:
            return self._do_preload(inst)
        if funct in (Funct.COMPUTE_PRELOADED, Funct.COMPUTE_ACCUMULATE):
            return self._do_compute(inst)
        if funct in (Funct.FLUSH, Funct.FENCE):
            result = self.controller.execute([Op(unit="exec", barrier=True)])
            if funct is Funct.FLUSH:
                self._flush_os(result.end_time)
            return self.controller.drain()
        raise ValueError(f"unhandled instruction {inst!r}")

    # -- CONFIG --------------------------------------------------------- #

    def _do_config(self, inst: Instruction) -> float:
        target = config_target(inst)
        state = self._exec
        if target is ConfigTarget.EX:
            decoded = decode_config_ex(inst)
            if decoded.dataflow_ws and not self.config.dataflow.supports(Dataflow.WS):
                raise ValueError("this instance does not support the WS dataflow")
            if not decoded.dataflow_ws and not self.config.dataflow.supports(Dataflow.OS):
                raise ValueError("this instance does not support the OS dataflow")
            if (decoded.transpose_a or decoded.transpose_b) and self.transposer is None:
                raise ValueError("transpose requested but no transposer generated")
            state.dataflow_ws = decoded.dataflow_ws
            state.activation = _ACTIVATIONS[decoded.activation & 0b11]
            state.in_shift = decoded.in_shift
            state.acc_scale = decoded.acc_scale
            state.transpose_a = decoded.transpose_a
            state.transpose_b = decoded.transpose_b
        elif target is ConfigTarget.LD:
            decoded = decode_config_ld(inst)
            state.ld_stride = decoded.stride_bytes
            state.ld_scale = decoded.scale
            state.ld_shrink = decoded.shrink
        else:
            decoded = decode_config_st(inst)
            state.st_stride = decoded.stride_bytes
            state.pool_size = decoded.pool_size
            state.pool_stride = decoded.pool_stride
            state.pool_out_cols = decoded.pool_out_cols
        result = self.controller.execute([Op(unit="exec", cycles=1.0, label="config")])
        return result.end_time

    # -- MVIN ------------------------------------------------------------ #

    def _row_tokens(self, local: LocalAddr, rows: int):
        space = "acc" if local.is_acc else "sp"
        return tuple((space, local.row + r) for r in range(rows))

    def _dram_tokens(self, vaddr: int, nbytes: int):
        page = self.xlat.config.page_bytes
        first = vaddr // page
        last = (vaddr + max(nbytes, 1) - 1) // page
        return tuple(("dram", p) for p in range(first, last + 1))

    def _do_mvin(self, inst: Instruction) -> float:
        move = decode_move(inst)
        if move.local.garbage:
            raise ValueError("MVIN to garbage address")
        state = self._exec
        cols, rows = move.cols, move.rows
        if cols > self.config.dim:
            raise ValueError(f"MVIN cols {cols} exceed DIM {self.config.dim}")

        if move.local.is_acc:
            elem = self.config.acc_type if not state.ld_shrink else self.config.input_type
        else:
            elem = self.config.input_type
        row_bytes = cols * elem.bytes
        stride = state.ld_stride if state.ld_stride else row_bytes

        # Functional: host memory -> local SRAM.
        data = self.host.read_matrix(move.dram_vaddr, rows, cols, stride, elem.np_dtype)
        if state.ld_scale != 1.0:
            if self.matscalar is None:
                raise ValueError("mvin scale requested but no matrix-scalar unit")
            target_type = self.config.acc_type if move.local.is_acc else self.config.input_type
            data = self.matscalar.scale(data, state.ld_scale, target_type)
        if move.local.is_acc:
            self.accumulator.write(0.0, move.local.row, data, move.local.accumulate)
        else:
            self.scratchpad.write(0.0, move.local.row, data)

        # Timing: DMA read from DRAM through the shared memory system.
        dma = self.dma
        vaddr = move.dram_vaddr

        def run(start: float, vaddr=vaddr, row_bytes=row_bytes, rows=rows, stride=stride):
            return dma.transfer(start, vaddr, row_bytes, rows, stride, False, self.name).end_time

        op = Op(
            unit="load",
            run=run,
            reads=self._dram_tokens(vaddr, stride * rows),
            writes=self._row_tokens(move.local, rows),
            label="mvin",
        )
        return self.controller.execute([op]).end_time

    # -- MVOUT ------------------------------------------------------------ #

    def _do_mvout(self, inst: Instruction) -> float:
        move = decode_move(inst)
        if move.local.garbage:
            raise ValueError("MVOUT from garbage address")
        state = self._exec
        if state.pool_size:
            raise NotImplementedError(
                "pooling-fused MVOUT is a kernel-level operation in this model; "
                "use repro.sw.kernels.pooled_store"
            )
        cols, rows = move.cols, move.rows

        if move.local.is_acc:
            if move.local.read_full:
                __, data = self.accumulator.read_raw(0.0, move.local.row, rows)
                data = data[:, :cols]
                elem = self.config.acc_type
            else:
                __, data = self.accumulator.read_scaled(
                    0.0,
                    move.local.row,
                    rows,
                    scale=state.acc_scale,
                    shift=0,
                    activation=state.activation,
                )
                data = data[:, :cols]
                elem = self.config.input_type
        else:
            __, data = self.scratchpad.read(0.0, move.local.row, rows)
            data = data[:, :cols]
            elem = self.config.input_type

        row_bytes = cols * elem.bytes
        stride = state.st_stride if state.st_stride else row_bytes
        self.host.write_matrix(move.dram_vaddr, data, stride)

        dma = self.dma
        vaddr = move.dram_vaddr

        def run(start: float, vaddr=vaddr, row_bytes=row_bytes, rows=rows, stride=stride):
            return dma.transfer(start, vaddr, row_bytes, rows, stride, True, self.name).end_time

        op = Op(
            unit="store",
            run=run,
            reads=self._row_tokens(move.local, rows),
            writes=self._dram_tokens(vaddr, stride * rows),
            label="mvout",
        )
        return self.controller.execute([op]).end_time

    # -- PRELOAD ----------------------------------------------------------- #

    def _read_local_block(self, addr: LocalAddr, rows: int, cols: int) -> np.ndarray:
        """Functional read of an operand block (zeros for garbage)."""
        if addr.garbage or rows == 0:
            return np.zeros((max(rows, 1), cols), dtype=self.config.acc_type.np_dtype)
        if addr.is_acc:
            __, data = self.accumulator.read_raw(0.0, addr.row, rows)
        else:
            __, data = self.scratchpad.read(0.0, addr.row, rows)
        return data[:, :cols].astype(self.config.acc_type.np_dtype)

    def _do_preload(self, inst: Instruction) -> float:
        decoded = decode_preload(inst)
        state = self._exec
        pre = self._preload
        reads = ()

        if state.dataflow_ws:
            if not decoded.b.garbage:
                block = self._read_local_block(decoded.b, decoded.b_rows, decoded.b_cols)
                if state.transpose_b:
                    block = self.transposer.transpose(block)
                self.mesh.stage_weights(block)
                reads = self._row_tokens(decoded.b, decoded.b_rows)
        else:
            # OS: drain previous results, then seed the array with D.
            self._flush_os(self.controller.now)
            if decoded.b.garbage:
                self.mesh.preload_os(None)
            else:
                seed = self._read_local_block(decoded.b, decoded.b_rows, decoded.b_cols)
                reads = self._row_tokens(decoded.b, decoded.b_rows)
                self.mesh.preload_os(seed)
            pre.os_seed_pending = True

        pre.c = decoded.c
        pre.c_cols = decoded.c_cols
        pre.c_rows = decoded.c_rows

        op = Op(unit="exec", cycles=float(self.model.preload_cycles()), reads=reads, label="preload")
        return self.controller.execute([op]).end_time

    # -- COMPUTE ------------------------------------------------------------ #

    def _do_compute(self, inst: Instruction) -> float:
        decoded = decode_compute(inst)
        state = self._exec
        pre = self._preload
        dim = self.config.dim

        a_block = None
        if not decoded.a.garbage:
            a_block = self._read_local_block(decoded.a, decoded.a_rows, decoded.a_cols)
            if state.transpose_a:
                a_block = self.transposer.transpose(a_block)

        reads = ()
        if not decoded.a.garbage:
            reads += self._row_tokens(decoded.a, decoded.a_rows)
        if not decoded.bd.garbage:
            reads += self._row_tokens(decoded.bd, decoded.bd_rows)

        writes = ()
        rows_streamed = max(decoded.a_rows, 1)

        if state.dataflow_ws:
            if inst.funct is Funct.COMPUTE_PRELOADED:
                self.mesh.flip_weights()
            d_block = None
            if not decoded.bd.garbage:
                d_block = self._read_local_block(decoded.bd, decoded.bd_rows, decoded.bd_cols)
            if a_block is None:
                a_block = np.zeros((rows_streamed, dim), dtype=self.config.acc_type.np_dtype)
            result = self.mesh.compute_ws(a_block, d_block)
            if self.structural is not None:
                self._check_ws(a_block, d_block, result)
            if not pre.c.garbage:
                out_rows = min(result.shape[0], pre.c_rows or result.shape[0])
                self._write_c(pre.c, result[:out_rows, : (pre.c_cols or dim)])
                writes = self._row_tokens(pre.c, out_rows)
            self.stats.counter("ws_computes").add()
        else:
            # OS: rs2 names the B operand.
            b_block = self._read_local_block(decoded.bd, decoded.bd_rows, decoded.bd_cols)
            if state.transpose_b:
                b_block = self.transposer.transpose(b_block)
            if a_block is None:
                a_block = np.zeros((dim, decoded.bd_rows), dtype=self.config.acc_type.np_dtype)
            if inst.funct is Funct.COMPUTE_PRELOADED and not pre.os_seed_pending:
                self.mesh.preload_os(None)
            pre.os_seed_pending = False
            os_before = self.mesh.os_acc.copy() if self.structural is not None else None
            self.mesh.compute_os(a_block, b_block)
            if self.structural is not None:
                self._check_os(a_block, b_block, os_before, self.mesh.os_acc)
            self.stats.counter("os_computes").add()

        op = Op(
            unit="exec",
            cycles=float(self.model.compute_cycles(rows_streamed)),
            reads=reads,
            writes=writes,
            write_latency=float(self.model.fill_latency),
            label="compute",
        )
        return self.controller.execute([op]).end_time

    # -- structural cross-checks ------------------------------------------ #

    def _structural_mismatch(
        self,
        struct_out: np.ndarray,
        result: np.ndarray,
        magnitude: np.ndarray,
        chain: int,
    ) -> bool:
        """True when functional and structural results genuinely disagree.

        Integer accumulations are exact in both models up to the
        accumulator width, but the functional mesh wraps on overflow (as
        the hardware register does) while the float64 replay does not —
        so the replay is wrapped to the accumulator's width before the
        exact comparison.  Float accumulators round each of the ``chain``
        additions at their own precision while the structural replay
        rounds at float64, so the permitted gap scales with the
        accumulation's own magnitude (``magnitude`` is the elementwise
        |a|@|b| + |d| bound).
        """
        if not self.config.acc_type.is_float:
            bits = self.config.acc_type.bytes * 8
            modulus = 1 << bits
            half = modulus >> 1
            wrapped = (np.round(struct_out).astype(np.int64) + half) % modulus - half
            return bool(np.any(wrapped != result.astype(np.int64)))
        diff = np.abs(struct_out - result.astype(np.float64))
        eps = float(np.finfo(self.config.acc_type.np_dtype).eps)
        bound = 4.0 * eps * (chain + 2) * (magnitude + 1.0)
        return bool(np.any(diff > bound))

    def _check_ws(
        self, a_block: np.ndarray, d_block: np.ndarray | None, result: np.ndarray
    ) -> None:
        """Replay a WS compute on the cycle-exact mesh and compare results."""
        dim = self.config.dim
        m = result.shape[0]
        a_full = np.zeros((m, dim))
        a_full[:, : a_block.shape[1]] = a_block
        d_full = np.zeros((m, dim))
        if d_block is not None:
            d_full[: d_block.shape[0], : d_block.shape[1]] = d_block
        b = np.asarray(self.mesh.active_b, dtype=np.float64)
        struct_out, __ = self.structural.run_ws(a_full, b, d_full)
        magnitude = np.abs(a_full) @ np.abs(b) + np.abs(d_full)
        if self._structural_mismatch(struct_out, result, magnitude, chain=dim):
            raise RuntimeError(
                "structural check failed on WS compute: max abs diff "
                f"{np.abs(struct_out - result).max():g}"
            )

    def _check_os(
        self,
        a_block: np.ndarray,
        b_block: np.ndarray,
        before: np.ndarray,
        after: np.ndarray,
    ) -> None:
        """Replay an OS accumulation step on the cycle-exact mesh."""
        dim = self.config.dim
        k = a_block.shape[1]
        if k == 0:
            return
        a_full = np.zeros((dim, k))
        a_full[: a_block.shape[0], :] = a_block
        b_full = np.zeros((k, dim))
        b_full[:, : b_block.shape[1]] = b_block
        before64 = before.astype(np.float64)
        struct_out, __ = self.structural.run_os(a_full, b_full, before64)
        magnitude = np.abs(a_full) @ np.abs(b_full) + np.abs(before64)
        if self._structural_mismatch(struct_out, after, magnitude, chain=k):
            raise RuntimeError(
                "structural check failed on OS compute: max abs diff "
                f"{np.abs(struct_out - after).max():g}"
            )

    def _write_c(self, c: LocalAddr, result: np.ndarray) -> None:
        """Write a compute result to its C target (sp or accumulator)."""
        state = self._exec
        if c.is_acc:
            self.accumulator.write(0.0, c.row, result, c.accumulate)
            return
        # Scratchpad targets pass through the output pipeline.
        values = result
        if not self.config.input_type.is_float and state.in_shift:
            values = rounding_right_shift(values, state.in_shift)
        values = apply_activation(values, state.activation)
        self.scratchpad.write(0.0, c.row, self.config.input_type.saturate(values))

    def _flush_os(self, now: float) -> None:
        """Drain output-stationary results into the pending C target."""
        pre = self._preload
        if self._exec.dataflow_ws or pre.c.garbage:
            return
        result = self.mesh.drain_os()
        rows = pre.c_rows or self.config.dim
        cols = pre.c_cols or self.config.dim
        self._write_c(pre.c, result[:rows, :cols])
        op = Op(
            unit="exec",
            cycles=float(self.model.os_drain_cycles()),
            writes=self._row_tokens(pre.c, rows),
            label="os_drain",
        )
        self.controller.execute([op])
        pre.c = LocalAddr.garbage_addr()

    # ================================================================== #

    def reset(self) -> None:
        self.scratchpad.reset()
        self.accumulator.reset()
        self.controller.reset()
        self.xlat.reset()
        self.stats.reset()
        self._exec = _ExecState()
        self._preload = _PreloadState()
        self.mesh = FunctionalMesh(self.config)
