"""Arithmetic cluster array.

The eight SIMD clusters execute compiled kernels: all clusters run the
same VLIW schedule in lockstep, each on its own slice of the stream.
Because the schedule is static, one invocation's cost and operation
counts are fully determined by the compiled kernel and the stream
length; this module turns those into the per-invocation record the
metrics layer aggregates (Tables 2 and 5, Figure 6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import MachineConfig
from repro.core.metrics import KernelInvocationRecord
from repro.core.srf import StreamRegisterFile
from repro.isa.vliw import CompiledKernel, KernelTiming


@dataclass(frozen=True)
class InvocationResult:
    """Everything one kernel invocation did, in cycles and counts."""

    record: KernelInvocationRecord
    timing: KernelTiming

    @property
    def total_cycles(self) -> int:
        return self.record.busy_cycles + self.record.stall_cycles


class ClusterArray:
    """The 8-wide SIMD array of VLIW clusters."""

    def __init__(self, machine: MachineConfig,
                 srf: StreamRegisterFile) -> None:
        self.machine = machine
        self.srf = srf

    def run_kernel(self, kernel: CompiledKernel,
                   stream_elements: int) -> InvocationResult:
        """Execute one kernel invocation over ``stream_elements``."""
        machine = self.machine
        timing = kernel.timing(stream_elements, machine.num_clusters,
                               machine.cluster.fpus)
        iterations = timing.iterations
        stalls = self.srf.kernel_stall_cycles(kernel, iterations)
        total_iter_factor = iterations * machine.num_clusters
        record = KernelInvocationRecord(
            kernel=kernel.name,
            stream_elements=stream_elements,
            busy_cycles=timing.busy_cycles,
            stall_cycles=stalls,
            arith_ops=kernel.arith_ops_per_iteration * total_iter_factor,
            flops=kernel.flops_per_iteration * total_iter_factor,
            instructions=(kernel.instructions_per_iteration
                          * total_iter_factor),
            srf_words=((kernel.words_in_per_iteration
                        + kernel.words_out_per_iteration)
                       * total_iter_factor),
            lrf_words=kernel.lrf_accesses_per_iteration * total_iter_factor,
            sp_accesses=kernel.sp_accesses_per_iteration * total_iter_factor,
            comm_ops=kernel.comm_ops_per_iteration * total_iter_factor,
            dsq_ops=kernel.dsq_ops_per_iteration * total_iter_factor,
            fu_cycles={cls.value: busy * iterations for cls, busy
                       in kernel.fu_busy_per_iteration().items()},
        )
        return InvocationResult(record=record, timing=timing)
