"""Tests for core components: config, metrics, SRF, microcontroller,
scoreboard, cluster array, power model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BoardConfig, EnergyModel, MachineConfig, Metrics
from repro.core.cluster import ClusterArray
from repro.core.metrics import CycleCategory, KernelInvocationRecord
from repro.core.microcontroller import Microcontroller, MicrocodeStoreError
from repro.core.power import EnergyConstants, normalize_pj_per_flop
from repro.core.srf import SrfAllocationError, StreamRegisterFile
from repro.core.stream_controller import Scoreboard, ScoreboardError
from repro.isa.stream_ops import StreamInstruction, StreamOpType


class TestMachineConfig:
    def setup_method(self):
        self.machine = MachineConfig()

    def test_paper_peaks(self):
        # Paper: 8.13 GFLOPS / 25.7 GOPS / 12.8 GB/s SRF / 1.6 GB/s DRAM.
        assert self.machine.peak_gflops == pytest.approx(8.1, abs=0.1)
        assert self.machine.peak_gops == pytest.approx(25.7, abs=0.1)
        assert self.machine.srf_peak_gbytes == pytest.approx(12.8)
        assert self.machine.mem_peak_gbytes == pytest.approx(1.6)
        assert self.machine.lrf_peak_gbytes == pytest.approx(217.6)

    def test_peak_ipc(self):
        assert self.machine.peak_ipc == 48

    def test_srf_capacity(self):
        assert self.machine.srf_words == 32768

    def test_board_modes(self):
        assert BoardConfig.hardware().precharge_bug
        assert not BoardConfig.isim().precharge_bug
        with pytest.raises(ValueError):
            BoardConfig(mode="emulator")

    def test_host_issue_cycles(self):
        board = BoardConfig.hardware(host_mips=2.0)
        assert board.host_issue_cycles(self.machine) == 100  # 500 ns


class TestMetrics:
    def test_conservation_check(self):
        metrics = Metrics(MachineConfig())
        metrics.add_cycles(CycleCategory.OPERATIONS, 60)
        metrics.add_cycles(CycleCategory.MEMORY_STALL, 40)
        metrics.total_cycles = 100
        metrics.check_conservation()
        metrics.total_cycles = 150
        with pytest.raises(AssertionError):
            metrics.check_conservation()

    def test_negative_cycles_rejected(self):
        metrics = Metrics(MachineConfig())
        with pytest.raises(ValueError):
            metrics.add_cycles(CycleCategory.OPERATIONS, -1)

    def test_derived_rates(self):
        metrics = Metrics(MachineConfig())
        metrics.total_cycles = 200e6          # one second
        metrics.arith_ops = 5e9
        metrics.flops = 2e9
        metrics.instructions = 200e6 * 10
        assert metrics.gops == pytest.approx(5.0)
        assert metrics.gflops == pytest.approx(2.0)
        assert metrics.ipc == pytest.approx(10.0)

    def test_fractions_sum_to_one(self):
        metrics = Metrics(MachineConfig())
        metrics.add_cycles(CycleCategory.OPERATIONS, 25)
        metrics.add_cycles(CycleCategory.HOST_BANDWIDTH_STALL, 75)
        metrics.total_cycles = 100
        assert sum(metrics.cycle_fractions().values()) == pytest.approx(1)


class TestStreamRegisterFile:
    def setup_method(self):
        self.srf = StreamRegisterFile(MachineConfig())

    def test_allocate_free_cycle(self):
        region = self.srf.allocate("a", 1024)
        assert region.words == 1024
        self.srf.free("a")
        again = self.srf.allocate("b", 1024)
        # Pool reuse keeps offsets stable once rotation warms up.
        assert again.words == 1024

    def test_no_overlap_invariant(self):
        for i in range(8):
            self.srf.allocate(f"s{i}", 3000)
        self.srf.check_no_overlap()

    def test_capacity_enforced(self):
        self.srf.allocate("big", 30000)
        with pytest.raises(SrfAllocationError):
            self.srf.allocate("too_much", 8000)

    def test_double_allocation_rejected(self):
        self.srf.allocate("a", 16)
        with pytest.raises(SrfAllocationError):
            self.srf.allocate("a", 16)

    def test_free_unknown_rejected(self):
        with pytest.raises(KeyError):
            self.srf.free("ghost")

    def test_pool_rotation_depth(self):
        starts = set()
        for i in range(12):
            region = self.srf.allocate(f"r{i}", 512)
            starts.add(region.start)
            self.srf.free(f"r{i}")
        # With rotation depth 4, at least 4 distinct buffers cycle.
        assert len(starts) >= self.srf.rotation_depth

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1, 4000)),
                    min_size=1, max_size=60))
    def test_random_alloc_free_never_overlaps(self, actions):
        srf = StreamRegisterFile(MachineConfig())
        live = []
        for i, (is_alloc, words) in enumerate(actions):
            if is_alloc or not live:
                try:
                    srf.allocate(f"n{i}", words)
                    live.append(f"n{i}")
                except SrfAllocationError:
                    pass
            else:
                srf.free(live.pop(0))
            srf.check_no_overlap()
            assert srf.live_words() <= srf.capacity_words


class TestMicrocontroller:
    def setup_method(self):
        self.mc = Microcontroller(MachineConfig())

    def test_load_and_residency(self):
        cycles = self.mc.load("k1", 500)
        assert cycles > 0
        assert self.mc.is_resident("k1")
        assert self.mc.load("k1", 500) == 0.0   # already resident

    def test_lru_eviction(self):
        self.mc.load("a", 1000)
        self.mc.load("b", 1000)
        self.mc.load("c", 500)      # evicts a (LRU)
        assert not self.mc.is_resident("a")
        assert self.mc.is_resident("b")
        assert self.mc.is_resident("c")

    def test_touch_refreshes_lru(self):
        self.mc.load("a", 1000)
        self.mc.load("b", 1000)
        self.mc.touch("a")
        self.mc.load("c", 500)      # evicts b now
        assert self.mc.is_resident("a")
        assert not self.mc.is_resident("b")

    def test_oversized_kernel_rejected(self):
        with pytest.raises(MicrocodeStoreError):
            self.mc.load("huge", 4096)

    def test_capacity_never_exceeded(self):
        for i in range(20):
            self.mc.load(f"k{i}", 700)
            assert self.mc.resident_words() <= self.mc.capacity_words


class TestScoreboard:
    def make_instr(self, index, deps=()):
        return StreamInstruction(StreamOpType.KERNEL, deps=list(deps),
                                 kernel="k", index=index)

    def test_capacity(self):
        board = Scoreboard(slots=2)
        board.insert(0, self.make_instr(0))
        board.insert(1, self.make_instr(1))
        assert not board.has_free_slot()
        with pytest.raises(ScoreboardError):
            board.insert(2, self.make_instr(2))

    def test_completion_frees_slot(self):
        board = Scoreboard(slots=1)
        board.insert(0, self.make_instr(0))
        board.complete(0)
        assert board.has_free_slot()
        assert board.completed(0)

    def test_deps_met(self):
        board = Scoreboard()
        dependent = self.make_instr(1, deps=[0])
        board.insert(0, self.make_instr(0))
        board.insert(1, dependent)
        assert not board.deps_met(1)
        board.complete(0)
        assert board.deps_met(1)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_readiness_matches_rescan(self, data):
        """The incremental unmet-dependency counts agree with the
        rescan they replace, over any insert/complete interleaving:
        deps completed before the insert, repeated deps, self and
        never-issued deps (indices past ``count``), and completions
        of instructions whose deps are still unmet."""
        count = data.draw(st.integers(1, 10))
        deps = [data.draw(st.lists(st.integers(0, count + 2),
                                   max_size=4))
                for _ in range(count)]
        to_insert = list(data.draw(st.permutations(range(count))))
        board = Scoreboard(slots=count)
        completed: set[int] = set()
        while to_insert or board.occupancy:
            resident = [i for i in range(count) if board.resident(i)]
            if to_insert and (not resident or data.draw(st.booleans())):
                index = to_insert.pop(0)
                board.insert(index, self.make_instr(index, deps[index]))
            else:
                index = data.draw(st.sampled_from(resident))
                board.complete(index)
                completed.add(index)
            for index in range(count):
                if board.resident(index):
                    assert board.deps_met(index) == all(
                        dep in completed for dep in deps[index])

    def test_duplicate_insert_rejected(self):
        board = Scoreboard()
        board.insert(0, self.make_instr(0))
        with pytest.raises(ScoreboardError):
            board.insert(0, self.make_instr(0))

    def test_peak_occupancy_tracked(self):
        board = Scoreboard()
        for i in range(5):
            board.insert(i, self.make_instr(i))
        assert board.peak_occupancy == 5


class TestClusterArray:
    def test_invocation_record_counts(self):
        from repro.kernels import get_kernel

        machine = MachineConfig()
        srf = StreamRegisterFile(machine)
        clusters = ClusterArray(machine, srf)
        kernel = get_kernel("conv7x7").compiled()
        result = clusters.run_kernel(kernel, 1600)
        record = result.record
        iterations = result.timing.iterations
        assert record.arith_ops == (kernel.arith_ops_per_iteration
                                    * iterations * 8)
        assert record.busy_cycles == result.timing.busy_cycles
        assert record.stall_cycles >= machine.srf_prime_cycles


class TestPowerModel:
    def test_idle_floor(self):
        machine = MachineConfig()
        metrics = Metrics(machine)
        metrics.total_cycles = 200e6
        report = EnergyModel(machine).report(metrics)
        assert report.watts == pytest.approx(4.72, abs=0.01)

    def test_activity_adds_power(self):
        machine = MachineConfig()
        metrics = Metrics(machine)
        metrics.total_cycles = 200e6
        metrics.flops = 8e9
        busy = 200e6
        report = EnergyModel(machine).report(
            metrics, cluster_busy_cycles=busy)
        assert report.watts > 5.5

    def test_technology_normalization(self):
        # Paper: 862 pJ at 0.18um/1.8V -> ~277 pJ at 0.13um/1.2V.
        assert normalize_pj_per_flop(862.0) == pytest.approx(277, abs=2)

    def test_report_components_sum(self):
        machine = MachineConfig()
        metrics = Metrics(machine)
        metrics.total_cycles = 1e6
        metrics.flops = 1e6
        metrics.srf_words = 1e6
        report = EnergyModel(machine).report(metrics)
        assert report.dynamic_joules == pytest.approx(
            sum(report.by_component.values()))
