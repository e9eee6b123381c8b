"""Stream controller: the 32-slot scoreboard.

The host writes stream instructions into scoreboard slots; the stream
controller issues an instruction once its encoded dependencies have
completed and its resources (clusters, an address generator, the
microcode loader) are available.  This module is the bookkeeping half;
the event-driven issue logic lives in :mod:`repro.core.processor`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.stream_ops import StreamInstruction
from repro.obs.tracer import NULL_TRACER, TRACK_CONTROLLER, Tracer


class ScoreboardError(Exception):
    """Structural misuse of the scoreboard."""


@dataclass
class Scoreboard:
    """Fixed-capacity in-flight window of stream instructions."""

    slots: int = 32
    tracer: Tracer = field(default=NULL_TRACER, repr=False)
    #: Slots currently disabled by a transient fault (see
    #: :mod:`repro.faults`); resident instructions keep their slots,
    #: only free capacity shrinks.
    slots_lost: int = 0

    def __post_init__(self) -> None:
        self._resident: dict[int, StreamInstruction] = {}
        self._completed: set[int] = set()
        #: Resident index -> how many of its distinct dependencies
        #: have not completed yet.
        self._unmet: dict[int, int] = {}
        #: Index -> resident instructions counting it as unmet.
        self._waiters: dict[int, list[int]] = {}
        self.peak_occupancy = 0

    def _sample_occupancy(self) -> None:
        self.tracer.counter(TRACK_CONTROLLER, "scoreboard",
                            {"occupancy": float(self.occupancy)})

    # ------------------------------------------------------------------
    # Host side.
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._resident)

    @property
    def effective_slots(self) -> int:
        return max(0, self.slots - self.slots_lost)

    def has_free_slot(self) -> bool:
        return self.occupancy < self.effective_slots

    def insert(self, index: int, instruction: StreamInstruction) -> None:
        if not self.has_free_slot():
            raise ScoreboardError("scoreboard full")
        if index in self._resident or index in self._completed:
            raise ScoreboardError(f"instruction {index} already seen")
        self._resident[index] = instruction
        unmet = {dep for dep in instruction.deps
                 if dep not in self._completed}
        self._unmet[index] = len(unmet)
        for dep in unmet:
            self._waiters.setdefault(dep, []).append(index)
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        if self.tracer.enabled:
            self._sample_occupancy()

    # ------------------------------------------------------------------
    # Controller side.
    # ------------------------------------------------------------------
    def resident(self, index: int) -> bool:
        return index in self._resident

    def completed(self, index: int) -> bool:
        return index in self._completed

    def deps_met(self, index: int) -> bool:
        """Whether every dependency of resident ``index`` completed."""
        return self._unmet[index] == 0

    def complete(self, index: int) -> None:
        if index not in self._resident:
            raise ScoreboardError(
                f"completing non-resident instruction {index}")
        del self._resident[index]
        del self._unmet[index]
        self._completed.add(index)
        unmet = self._unmet
        for waiter in self._waiters.pop(index, ()):
            if waiter in unmet:        # not itself completed meanwhile
                unmet[waiter] -= 1
        if self.tracer.enabled:
            self._sample_occupancy()

    def resident_instructions(self) -> list[tuple[int, StreamInstruction]]:
        return sorted(self._resident.items())

    def dump(self) -> dict:
        """Diagnostic snapshot for watchdog/deadlock reports."""
        return {
            "slots": self.slots,
            "slots_lost": self.slots_lost,
            "occupancy": self.occupancy,
            "peak_occupancy": self.peak_occupancy,
            "completed": len(self._completed),
            "resident": [
                {"index": index,
                 "op": instr.op.value,
                 "tag": instr.tag or None,
                 "deps": list(instr.deps),
                 "unmet_deps": [dep for dep in instr.deps
                                if dep not in self._completed]}
                for index, instr in sorted(self._resident.items())
            ],
        }
