"""Fuzzing the stream compiler + simulator with random programs.

Hypothesis generates random but well-formed stream programs (loads,
kernel chains over live streams, stores, host reads); every one must
compile with valid dependencies, simulate to completion without
deadlock, and account for every cycle.  This is the whole-system
equivalent of the scheduler's random-graph equivalence test.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.common import AppBundle
from repro.core import BoardConfig
from repro.engine import Session, SessionConfig
from repro.isa.kernel_ir import KernelBuilder
from repro.streamc import StreamProgram
from repro.streamc.program import KernelSpec, _Emitter

_BOARDS = {
    "hardware": BoardConfig.hardware(),
    "isim": BoardConfig.isim(),
    "slow-host": BoardConfig.hardware(host_mips=0.5),
}


def _run(image, board):
    """One engine-mediated, in-process, uncached simulation."""
    with Session(config=SessionConfig(jobs=1, cache=False)) as session:
        return session.run_bundle(
            AppBundle(name=image.name, image=image), board=board)


def _make_spec(name: str, inputs: int) -> KernelSpec:
    builder = KernelBuilder(name)
    streams = [builder.stream_input(f"x{i}") for i in range(inputs)]
    total = builder.reduce("fadd", streams)
    builder.stream_output("o", builder.op("fmul", total, total))
    return KernelSpec(
        name, builder.build(),
        lambda ins, p: [np.sum(ins, axis=0) ** 2])


_SPECS = {n: _make_spec(f"fuzz{n}", n) for n in (1, 2, 3)}


@st.composite
def random_program(draw):
    program = StreamProgram("fuzz", max_batch_elements=512)
    source = program.array("src", np.arange(4096, dtype=float) % 7)
    sink = program.alloc_array("sink", 8192)
    live = []
    budget = 20000          # stay far from SRF capacity
    sink_cursor = 0
    steps = draw(st.integers(3, 25))
    for step in range(steps):
        action = draw(st.sampled_from(["load", "kernel", "store",
                                       "kernel", "load"]))
        if action == "load" or not live:
            words = draw(st.integers(8, 1024))
            if words > budget:
                continue
            start = draw(st.integers(0, 4096 - words))
            live.append(program.load(source, start=start, words=words,
                                     name=f"l{step}"))
            budget -= words
        elif action == "kernel":
            arity = min(draw(st.integers(1, 3)), len(live))
            picks = [live[draw(st.integers(0, len(live) - 1))]
                     for _ in range(arity)]
            shortest = min(picks, key=lambda s: s.words)
            picks = [s for s in picks]
            # Kernels read streams elementwise; trim via the shortest
            # by just using it multiple times when lengths differ.
            if len({s.words for s in picks}) > 1:
                picks = [shortest] * arity
            out = program.kernel1(_SPECS[arity], picks,
                                  name=f"k{step}")
            live.append(out)
            budget -= out.words
        else:
            stream = live[draw(st.integers(0, len(live) - 1))]
            if sink_cursor + stream.words <= 8192:
                program.store(stream, sink, start=sink_cursor)
                sink_cursor += stream.words
            if draw(st.booleans()):
                program.host_read(tag=f"hr{step}")
        if len(live) > 6:
            live = live[-6:]     # let old streams die
    # Ensure at least one kernel so the run has cluster work.
    if not any(c.kind == "kernel" for c in program._calls):
        out = program.kernel1(_SPECS[1], [live[0]], name="kfinal")
        program.store(out, sink, start=0)
    return program


class _RescanEmitter(_Emitter):
    """Reference release: rescan every stream's last use on each
    emit, releasing in ``last_use`` order."""

    def __init__(self, program, last_use):
        super().__init__(program, last_use)
        self.last_use = dict(last_use)

    def _release_dead_streams(self, position, releaser):
        for ident, last in list(self.last_use.items()):
            if last == position and ident in self.region_of:
                start, words = self.region_of.pop(ident)
                self.srf.free(f"s{ident}")
                self.freed.append((start, start + words, releaser))
                row = self._open_srf_row.pop(ident, None)
                if row is not None:
                    row[4] = releaser
                del self.last_use[ident]


class TestStreamFuzz:
    @settings(max_examples=25, deadline=None)
    @given(random_program())
    def test_release_matches_rescan(self, program):
        image = program.build()
        emitter = _RescanEmitter(program, program._analyze_lifetimes())
        for position, call in enumerate(program._calls):
            emitter.emit(position, call)
        reference = emitter.finish()
        assert image.instructions == reference.instructions
        assert image.srf_allocations == reference.srf_allocations

    @settings(max_examples=25, deadline=None)
    @given(random_program(), st.sampled_from(sorted(_BOARDS)))
    def test_random_programs_complete_and_conserve(self, program,
                                                   board_name):
        image = program.build()
        image.validate()
        result = _run(image, _BOARDS[board_name])
        result.metrics.check_conservation(1e-3)
        assert result.cycles > 0
        # Every instruction was traced and finished.
        assert all(e.finished_at <= result.cycles + 1e-6
                   for e in result.trace)

    @settings(max_examples=10, deadline=None)
    @given(random_program())
    def test_isim_never_slower_than_hardware(self, program):
        image = program.build()
        cycles = {}
        for name in ("hardware", "isim"):
            cycles[name] = _run(image, _BOARDS[name]).cycles
        assert cycles["isim"] <= cycles["hardware"] * 1.02
