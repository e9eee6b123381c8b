"""Compiled-kernel representation: VLIW words and schedules.

The kernel compiler (:mod:`repro.kernelc`) lowers a
:class:`~repro.isa.kernel_ir.KernelGraph` into a software-pipelined
VLIW schedule.  This module holds the result: the per-cycle VLIW words
of the main loop and the derived static timing facts that the cluster
model uses to charge cycles (prologue, II, epilogue, per-iteration
operation counts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.isa.kernel_ir import FuClass, KernelGraph, OPCODES

#: Issue slots per cluster by FU class.  Mirrors the unit counts in
#: :class:`repro.kernelc.scheduling.ClusterResources` (3 ADD, 2 MUL,
#: 1 DSQ, 1 SP, 1 COMM, 2 SB ports); duplicated here because kernelc
#: imports this module.  BUS is a routing resource, not an issue slot.
CLUSTER_ISSUE_SLOTS: dict[FuClass, int] = {
    FuClass.ADD: 3,
    FuClass.MUL: 2,
    FuClass.DSQ: 1,
    FuClass.SP: 1,
    FuClass.COMM: 1,
    FuClass.SB: 2,
}


@dataclass(frozen=True)
class Slot:
    """One operation placed in a VLIW word: ``(fu, unit_index, op_id)``."""

    fu: FuClass
    unit: int
    op: int
    opcode: str


@dataclass
class VliwWord:
    """All operations issued in one cycle of the kernel main loop."""

    cycle: int
    slots: list[Slot] = field(default_factory=list)

    def occupancy(self) -> int:
        return len(self.slots)


@dataclass(frozen=True)
class KernelTiming:
    """Cycle breakdown for one kernel invocation on one stream batch.

    The four categories match Figure 6 of the paper:

    * ``operations`` -- the floor: main-loop FPU work at ideal packing.
    * ``main_loop_overhead`` -- extra main-loop cycles from limited ILP
      and load imbalance between FU types (II above the ideal floor).
    * ``non_main_loop`` -- prologue, epilogue, outer-loop blocks, and
      pipeline-priming iterations.
    * ``cluster_stalls`` is accounted separately by the SRF model and
      is therefore not a field here.
    """

    iterations: int
    operations: int
    main_loop_overhead: int
    non_main_loop: int

    @property
    def busy_cycles(self) -> int:
        return self.operations + self.main_loop_overhead + self.non_main_loop

    @property
    def main_loop_cycles(self) -> int:
        return self.operations + self.main_loop_overhead


@dataclass(frozen=True)
class KernelFacts:
    """Per-iteration operation and word counts of a kernel graph.

    The timing and metrics layers read these on every invocation, and
    a compiled kernel's graph never changes, so
    :attr:`CompiledKernel.facts` derives them once.
    """

    arith_ops: int
    flops: int
    instructions: int
    words_in: int
    words_out: int
    fpu_instructions: int
    sp_accesses: int
    comm_ops: int
    dsq_ops: int

    @classmethod
    def of(cls, graph: KernelGraph) -> "KernelFacts":
        fu = graph.fu_count
        return cls(
            arith_ops=graph.arith_ops_per_iteration,
            flops=graph.flops_per_iteration,
            instructions=graph.instructions_per_iteration,
            words_in=graph.words_in_per_iteration,
            words_out=graph.words_out_per_iteration,
            fpu_instructions=(fu(FuClass.ADD) + fu(FuClass.MUL)
                              + fu(FuClass.DSQ)),
            sp_accesses=fu(FuClass.SP),
            comm_ops=fu(FuClass.COMM),
            dsq_ops=fu(FuClass.DSQ),
        )


@dataclass
class CompiledKernel:
    """Output of the kernel compiler for one kernel.

    Attributes mirror what Imagine's iscd scheduler reported: the
    initiation interval (II) of the software-pipelined main loop, the
    number of pipeline stages, prologue/epilogue lengths, microcode
    footprint, and per-iteration operation/word counts used for GOPS,
    IPC and bandwidth accounting.
    """

    name: str
    graph: KernelGraph
    ii: int
    stages: int
    schedule: list[VliwWord]
    prologue_cycles: int
    epilogue_cycles: int
    outer_overhead_cycles: int
    microcode_words: int
    regs_used: dict[FuClass, int]
    lrf_reads_per_iteration: int
    lrf_writes_per_iteration: int
    #: Memoized :meth:`fu_busy_per_iteration` result (schedules are
    #: immutable after compilation, so computing it once is safe).
    _fu_busy: dict[FuClass, int] | None = field(
        default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Derived per-iteration facts.
    # ------------------------------------------------------------------
    @cached_property
    def facts(self) -> KernelFacts:
        """The graph's per-iteration counts, derived on first use.

        Kept in the instance dict rather than as a field, so a freshly
        compiled kernel pickles exactly as it did before the memo.
        """
        return KernelFacts.of(self.graph)

    @property
    def arith_ops_per_iteration(self) -> int:
        return self.facts.arith_ops

    @property
    def flops_per_iteration(self) -> int:
        return self.facts.flops

    @property
    def instructions_per_iteration(self) -> int:
        return self.facts.instructions

    @property
    def words_in_per_iteration(self) -> int:
        return self.facts.words_in

    @property
    def words_out_per_iteration(self) -> int:
        return self.facts.words_out

    @property
    def sp_accesses_per_iteration(self) -> int:
        return self.facts.sp_accesses

    @property
    def comm_ops_per_iteration(self) -> int:
        return self.facts.comm_ops

    @property
    def dsq_ops_per_iteration(self) -> int:
        return self.facts.dsq_ops

    @property
    def elements_per_iteration(self) -> int:
        return self.graph.elements_per_iteration

    @property
    def lrf_accesses_per_iteration(self) -> int:
        return self.lrf_reads_per_iteration + self.lrf_writes_per_iteration

    def fpu_instructions_per_iteration(self) -> int:
        """Instructions on the six FPUs (ADD/MUL/DSQ) per iteration."""
        return self.facts.fpu_instructions

    def fu_busy_per_iteration(self) -> dict[FuClass, int]:
        """Unit-busy cycles per FU class in one main-loop iteration.

        Each scheduled slot keeps its unit busy for the opcode's issue
        interval, capped at the II (a unit cannot be busier than the
        loop is long).  Summed over the schedule this is the
        *occupancy* detail behind Figure 7: per-class busy cycles do
        not tile wall-clock time (several units run concurrently), so
        the profiler reports them as an annotation next to the
        exclusive busy/stall/idle tree, never inside it.
        """
        busy = self._fu_busy
        if busy is None:
            busy = {cls: 0 for cls in CLUSTER_ISSUE_SLOTS}
            for word in self.schedule:
                for slot in word.slots:
                    if slot.fu in busy:
                        busy[slot.fu] += min(
                            OPCODES[slot.opcode].issue_interval, self.ii)
            self._fu_busy = busy
        return busy

    # ------------------------------------------------------------------
    # Timing.
    # ------------------------------------------------------------------
    def iterations_for(self, stream_elements: int, num_clusters: int) -> int:
        """Main-loop iterations to consume ``stream_elements`` elements."""
        per_iteration = self.elements_per_iteration * num_clusters
        return max(1, math.ceil(stream_elements / per_iteration))

    def timing(self, stream_elements: int, num_clusters: int,
               fpus_per_cluster: int = 6) -> KernelTiming:
        """Cycle breakdown for an invocation over ``stream_elements``.

        ``operations`` is the Figure-6 floor: the kernel's FPU
        instructions executed at one instruction per FPU per cycle.
        Everything the real schedule adds on top of that inside the
        main loop is ``main_loop_overhead``; prologue, epilogue,
        priming iterations and the outer-loop block are
        ``non_main_loop``.
        """
        iterations = self.iterations_for(stream_elements, num_clusters)
        main_cycles = iterations * self.ii
        floor = math.ceil(
            iterations * self.fpu_instructions_per_iteration()
            / fpus_per_cluster
        )
        floor = min(floor, main_cycles)
        return KernelTiming(
            iterations=iterations,
            operations=floor,
            main_loop_overhead=main_cycles - floor,
            non_main_loop=(self.prologue_cycles + self.epilogue_cycles
                           + self.outer_overhead_cycles),
        )

    def validate(self) -> None:
        """Check schedule structural invariants (used by tests)."""
        if self.ii < 1:
            raise ValueError(f"{self.name}: II must be positive")
        if len(self.schedule) != self.ii:
            raise ValueError(
                f"{self.name}: schedule has {len(self.schedule)} words "
                f"but II={self.ii}"
            )
        slot_budget = sum(CLUSTER_ISSUE_SLOTS.values())
        seen: set[tuple[FuClass, int, int]] = set()
        for word in self.schedule:
            if word.occupancy() > slot_budget:
                raise ValueError(
                    f"{self.name}: word at cycle {word.cycle} issues "
                    f"{word.occupancy()} operations but a cluster has "
                    f"only {slot_budget} issue slots"
                )
            for slot in word.slots:
                limit = CLUSTER_ISSUE_SLOTS.get(slot.fu, 0)
                if not 0 <= slot.unit < limit:
                    raise ValueError(
                        f"{self.name}: op {slot.op} ({slot.opcode}) on "
                        f"{slot.fu.name} unit {slot.unit}, but a cluster "
                        f"has {limit} {slot.fu.name} unit(s)"
                    )
                key = (slot.fu, slot.unit, word.cycle)
                if key in seen:
                    raise ValueError(
                        f"{self.name}: unit {slot.fu}/{slot.unit} "
                        f"double-booked at cycle {word.cycle}"
                    )
                seen.add(key)
                if OPCODES[slot.opcode].fu is not slot.fu:
                    raise ValueError(
                        f"{self.name}: op {slot.op} ({slot.opcode}) "
                        f"scheduled on wrong unit class {slot.fu}"
                    )
