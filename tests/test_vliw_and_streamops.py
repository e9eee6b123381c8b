"""Tests for VLIW schedule representation and stream-op taxonomy."""

import pytest

from repro.isa.kernel_ir import FuClass, KernelBuilder
from repro.isa.stream_ops import (
    StreamInstruction,
    StreamOpType,
    histogram,
)
from repro.isa.vliw import CompiledKernel, KernelTiming, Slot, VliwWord
from repro.kernelc import compile_kernel
from repro.kernels import KERNEL_LIBRARY


def tiny_kernel() -> CompiledKernel:
    b = KernelBuilder("tiny")
    x = b.stream_input("x")
    b.stream_output("o", b.op("fadd", x, x))
    return compile_kernel(b.build())


class TestKernelTiming:
    def test_busy_cycles_sum(self):
        timing = KernelTiming(iterations=10, operations=30,
                              main_loop_overhead=20, non_main_loop=15)
        assert timing.busy_cycles == 65
        assert timing.main_loop_cycles == 50

    def test_iterations_for_rounds_up(self):
        kernel = tiny_kernel()
        assert kernel.iterations_for(17, 8) == 3
        assert kernel.iterations_for(16, 8) == 2
        assert kernel.iterations_for(0, 8) == 1

    def test_fpu_instruction_count(self):
        kernel = tiny_kernel()
        assert kernel.fpu_instructions_per_iteration() == 1


class TestKernelFacts:
    @pytest.mark.parametrize("name", sorted(KERNEL_LIBRARY))
    def test_cached_facts_match_the_graph(self, name):
        kernel = KERNEL_LIBRARY[name].compiled()
        graph = kernel.graph
        fu = graph.fu_count
        assert kernel.facts is kernel.facts
        assert (kernel.arith_ops_per_iteration
                == graph.arith_ops_per_iteration)
        assert kernel.flops_per_iteration == graph.flops_per_iteration
        assert (kernel.instructions_per_iteration
                == graph.instructions_per_iteration)
        assert (kernel.words_in_per_iteration
                == graph.words_in_per_iteration)
        assert (kernel.words_out_per_iteration
                == graph.words_out_per_iteration)
        assert kernel.fpu_instructions_per_iteration() == (
            fu(FuClass.ADD) + fu(FuClass.MUL) + fu(FuClass.DSQ))
        assert kernel.sp_accesses_per_iteration == fu(FuClass.SP)
        assert kernel.comm_ops_per_iteration == fu(FuClass.COMM)
        assert kernel.dsq_ops_per_iteration == fu(FuClass.DSQ)

    def test_fresh_kernel_carries_no_memo(self):
        # Images pickle as they did before the memo existed.
        kernel = tiny_kernel()
        assert "facts" not in vars(kernel)
        assert kernel.flops_per_iteration == 1
        assert "facts" in vars(kernel)


class TestCompiledKernelValidation:
    def test_wrong_schedule_length_rejected(self):
        kernel = tiny_kernel()
        kernel.schedule.append(VliwWord(cycle=99))
        with pytest.raises(ValueError, match="schedule has"):
            kernel.validate()

    def test_double_booked_unit_rejected(self):
        kernel = tiny_kernel()
        word = kernel.schedule[0]
        if not word.slots:
            word = kernel.schedule[1]
        slot = word.slots[0]
        word.slots.append(Slot(slot.fu, slot.unit, 999, slot.opcode))
        with pytest.raises(ValueError, match="double-booked"):
            kernel.validate()

    def test_wrong_unit_class_rejected(self):
        kernel = tiny_kernel()
        for word in kernel.schedule:
            for i, slot in enumerate(word.slots):
                if slot.opcode == "fadd":
                    word.slots[i] = Slot(FuClass.MUL, 0, slot.op,
                                         slot.opcode)
                    with pytest.raises(ValueError,
                                       match="wrong unit"):
                        kernel.validate()
                    return
        pytest.fail("no fadd slot found")

    def test_occupancy(self):
        kernel = tiny_kernel()
        total = sum(w.occupancy() for w in kernel.schedule)
        assert total == kernel.instructions_per_iteration

    def test_over_occupied_word_rejected(self):
        kernel = tiny_kernel()
        word = kernel.schedule[0]
        # A cluster issues at most 10 operations per cycle; stuff the
        # word past that across distinct units so no earlier check
        # fires first.
        word.slots[:] = [Slot(FuClass.ADD, unit % 3, 100 + unit, "fadd")
                         for unit in range(11)]
        with pytest.raises(ValueError, match="issue slots") as excinfo:
            kernel.validate()
        assert "tiny" in str(excinfo.value)

    def test_unit_index_out_of_range_rejected(self):
        kernel = tiny_kernel()
        for word in kernel.schedule:
            if word.slots:
                slot = word.slots[0]
                word.slots[0] = Slot(slot.fu, 99, slot.op, slot.opcode)
                break
        with pytest.raises(ValueError, match="unit") as excinfo:
            kernel.validate()
        assert "tiny" in str(excinfo.value)

    def test_every_validation_error_names_the_kernel(self):
        kernel = tiny_kernel()
        kernel.schedule.append(VliwWord(cycle=99))
        with pytest.raises(ValueError, match="tiny"):
            kernel.validate()


class TestStreamOpTaxonomy:
    def test_category_predicates(self):
        assert StreamOpType.KERNEL.is_stream_op
        assert StreamOpType.RESTART.is_kernel
        assert StreamOpType.MEM_LOAD.is_memory
        assert StreamOpType.SDR_WRITE.is_register_op
        assert StreamOpType.MICROCODE_LOAD.is_misc
        assert StreamOpType.HOST_READ.is_misc
        assert not StreamOpType.KERNEL.is_register_op
        assert not StreamOpType.MOVE.is_stream_op

    def test_every_type_in_exactly_one_table4_column(self):
        for op in StreamOpType:
            buckets = [op.is_kernel, op.is_memory,
                       op.is_register_op and not op.is_memory,
                       op.is_misc]
            # kernel/memory are subsets of stream ops; register and
            # misc are disjoint from them.
            assert sum(bool(b) for b in buckets) == 1

    def test_histogram_totals(self):
        instructions = [
            StreamInstruction(StreamOpType.KERNEL, kernel="k", index=0),
            StreamInstruction(StreamOpType.RESTART, kernel="k", index=1),
            StreamInstruction(StreamOpType.MEM_LOAD, index=2),
            StreamInstruction(StreamOpType.MEM_STORE, index=3),
            StreamInstruction(StreamOpType.SDR_WRITE, index=4),
            StreamInstruction(StreamOpType.MAR_WRITE, index=5),
            StreamInstruction(StreamOpType.UCR_WRITE, index=6),
            StreamInstruction(StreamOpType.MOVE, index=7),
            StreamInstruction(StreamOpType.SYNC, index=8),
        ]
        counts = histogram(instructions)
        assert counts["kernel"] == 2
        assert counts["memory"] == 2
        assert counts["sdr_write"] == 1
        assert counts["move"] == 1
        assert counts["misc"] == 1
        assert counts["total"] == 9

    def test_auto_index_assignment(self):
        a = StreamInstruction(StreamOpType.SYNC)
        b = StreamInstruction(StreamOpType.SYNC)
        assert b.index == a.index + 1
        explicit = StreamInstruction(StreamOpType.SYNC, index=7)
        assert explicit.index == 7
