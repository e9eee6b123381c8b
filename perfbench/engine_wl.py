"""The two in-process engine workloads: ``sweep_cold`` and
``fetch_warm``.

``sweep_cold`` runs a seeded design-space sweep through one
``Session`` on the event backend with a fresh cache: every request is
built and simulated (the repeated hardware point is served from the
session's in-flight memo).  ``fetch_warm`` answers ``run``,
``critpath`` and ``whatif`` from a cache filled at set-up, each
operation through a fresh ``Session``: cache decode plus capture, no
build and no simulation.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from typing import Any

from common import kind_medians, median
from mix import (SERVE_VARIANTS, fetch_ops, fetch_set, sweep_kind,
                 sweep_round)

#: Requests re-run on the other backend after the timed phase.
CHECK_SAMPLE = 8


def parse(payload: dict[str, Any]):
    """A submission payload -> RunRequest, via the service's parser."""
    from repro.serve.models import request_from_payload

    return request_from_payload(payload)[0]


def open_session(backend: str, cache_dir=None):
    from repro.engine import Session, SessionConfig

    return Session(config=SessionConfig(
        backend=backend, jobs=1, cache=cache_dir is not None,
        cache_dir=None if cache_dir is None else str(cache_dir)))


def setup(workload: str, seed: int, directory) -> list[Any]:
    """The workload's set-up; returns what the timed phase needs."""
    if workload == "sweep_cold":
        # Build and simulate each app once, small, so the first timed
        # operation does not pay one-time compiler work.
        with open_session("event") as session:
            for payload in SERVE_VARIANTS:
                session.run(parse(payload))
        return []
    requests = [parse(payload) for payload in fetch_set(seed)]
    with open_session("vector", directory) as session:
        for request in requests:
            session.run(request)
    return requests


# ----------------------------------------------------------------------
# Timed phases.
# ----------------------------------------------------------------------
class Recorded:
    """Per-operation kinds, latencies and delivered results of one
    phase.

    Rates and the median are taken over ``kind_medians``: each
    operation counts at the median latency of its kind (the same image
    under the same point, or the same warm entry), which a slow
    stretch of a shared machine moves far less than the raw times."""

    def __init__(self) -> None:
        self.kinds: list[Any] = []
        self.latencies: list[float] = []
        self.cycles = 0.0
        self.failed = 0

    def add(self, kind: Any, latency: float) -> None:
        self.kinds.append(kind)
        self.latencies.append(latency)

    def metrics(self) -> dict[str, float]:
        typical = kind_medians(zip(self.kinds, self.latencies))
        seconds = sum(typical)
        return {
            "ops_per_s": len(typical) / seconds if seconds else 0.0,
            "op_p50_ms": median(typical) * 1e3,
            "sim_mcycles_per_s": (self.cycles / 1e6 / seconds
                                  if seconds else 0.0),
        }


def finished(elapsed: float, seconds: float, trace_from: float | None,
             phases: tuple[Recorded, Recorded]) -> bool:
    """The time is up, and a traced run has traced something."""
    return elapsed >= seconds and (trace_from is None
                                   or bool(phases[1].latencies))


def sweep(seed: int, seconds: float, directory, recorder,
          trace_from: float | None, delivered: dict):
    """Whole sweep rounds until ``seconds`` have passed, each through
    its own ``Session`` and cache dir, as one sweep invocation would
    run.  With ``trace_from`` set, rounds starting after that many
    seconds run traced and are recorded separately."""
    phases = (Recorded(), Recorded())
    counts = {"dedup": 0, "executed": 0, "failed": 0, "retried": 0}
    keep = sweep_sample(seed)
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        if finished(elapsed, seconds, trace_from, phases):
            break
        traced = trace_from is not None and elapsed >= trace_from
        recorder.enabled = traced
        phase = phases[traced]
        round_dir = directory / f"round{index}"
        # A round starts from a collected heap, as a fresh sweep
        # process would.
        gc.collect()
        with open_session("event", round_dir) as session:
            for number, payload in enumerate(sweep_round(seed, index)):
                request = parse(payload)
                begin = time.perf_counter()
                with recorder.operation((index, number)):
                    outcome = session.submit(request).outcome()
                phase.add(sweep_kind(payload, number),
                          time.perf_counter() - begin)
                if not outcome.completed:
                    phase.failed += 1
                    continue
                phase.cycles += outcome.result.metrics.total_cycles
                if index == 0 and number in keep:
                    delivered[number] = (payload, outcome.result)
        add_counts(counts, session)
        del session
        shutil.rmtree(round_dir, ignore_errors=True)
        index += 1
    recorder.enabled = False
    return phases, counts


def add_counts(counts: dict[str, float], session) -> None:
    """Add one session's dedup/executed/failed/retried counters."""
    dedup = session.metrics.get("engine_inflight_dedup_total")
    counts["dedup"] += sum(child.value for _, child in dedup.children())
    for name in ("executed", "failed", "retried"):
        counts[name] += getattr(session.stats, name)


def fetch(seed: int, seconds: float, directory, requests, recorder,
          trace_from: float | None, delivered: dict):
    """Closed-loop fetch + critpath + whatif operations."""
    from repro.obs.critpath import KNOWN_SCALES

    phases = (Recorded(), Recorded())
    counts = {"dedup": 0, "executed": 0, "failed": 0, "retried": 0}
    schedule = fetch_ops(seed, 100_000, len(requests), KNOWN_SCALES)
    started = time.perf_counter()
    for number, (index, resource) in enumerate(schedule):
        elapsed = time.perf_counter() - started
        if finished(elapsed, seconds, trace_from, phases):
            break
        traced = trace_from is not None and elapsed >= trace_from
        recorder.enabled = traced
        phase = phases[traced]
        request = requests[index]
        # Each operation starts from a collected heap, as a fresh
        # ``repro critpath`` process would: whether it pays for a full
        # collection of earlier operations' garbage is then not left
        # to where the collector's counters happen to stand.
        gc.collect()
        begin = time.perf_counter()
        with recorder.operation(number):
            with open_session("event", directory) as session:
                result = session.run(request)
                report = session.critpath(request)
                whatif = session.whatif(request, {resource: 2.0})
        phase.add(index, time.perf_counter() - begin)
        phase.cycles += result.metrics.total_cycles
        add_counts(counts, session)
        answer = {"cycles": float(result.metrics.total_cycles),
                  "path_cycles": report["path_cycles"],
                  ("whatif", resource): whatif["predicted_cycles"]}
        first = delivered.setdefault(index, (requests[index], answer))[1]
        for key, value in answer.items():
            if first.setdefault(key, value) != value:
                phase.failed += 1
    recorder.enabled = False
    return phases, counts


# ----------------------------------------------------------------------
# Output check.
# ----------------------------------------------------------------------
def reference(request, backend: str) -> dict[str, Any]:
    """The uncached answer of ``backend`` for ``request``."""
    from repro.obs.profile import build_profile

    with open_session(backend) as session:
        result = session.run(request)
    return {"cycles": float(result.metrics.total_cycles),
            "summary": build_profile(result)["summary"],
            "result": result}


def compare(delivered: dict[str, Any], expected: dict[str, Any]
            ) -> list[str]:
    """Names of the fields where a delivered answer differs."""
    return sorted(str(key) for key, value in delivered.items()
                  if key in expected and expected[key] != value)


def sweep_sample(seed: int) -> set[int]:
    """Positions in round 0 whose results the output check re-runs."""
    rng = random.Random(f"check:{seed}")
    return set(rng.sample(range(len(sweep_round(seed, 0))), CHECK_SAMPLE))


def check_sweep(delivered: dict) -> tuple[list[str], float, int]:
    """Re-run the sampled round-0 requests on the vector backend:
    (problems, exact cycle total of the sample, requests checked)."""
    from repro.obs.profile import build_profile

    problems, total = [], 0.0
    if len(delivered) != CHECK_SAMPLE:
        problems.append(f"only {len(delivered)} sampled results")
    for number in sorted(delivered):
        payload, result = delivered[number]
        answer = {"cycles": float(result.metrics.total_cycles),
                  "summary": build_profile(result)["summary"]}
        wrong = compare(answer, reference(parse(payload), "vector"))
        if wrong:
            problems.append(f"{payload['app']}#{number}: {', '.join(wrong)}")
        total += answer["cycles"]
    return problems, total, len(delivered)


def check_fetch(seed: int, directory, delivered: dict
                ) -> tuple[list[str], float, int]:
    """Re-run one warm entry per app on the event backend: its cycles
    and profile summary must match the cached result, and its critpath
    and what-if must match what was served."""
    from repro.obs.critpath import build_critpath, build_whatif
    from repro.obs.profile import build_profile

    rng = random.Random(f"check:{seed}")
    by_app: dict[str, list[int]] = {}
    for index in sorted(delivered):
        by_app.setdefault(delivered[index][0].app, []).append(index)
    chosen = {rng.choice(indices) for indices in by_app.values()}
    problems, total = [], 0.0
    for index in sorted(chosen):
        request, answer = delivered[index]
        with open_session("event", directory) as session:
            answer = dict(answer, summary=build_profile(
                session.run(request))["summary"])
        expected = reference(request, "event")
        result = expected.pop("result")
        expected["path_cycles"] = build_critpath(result)["path_cycles"]
        for key in answer:
            if isinstance(key, tuple):
                expected[key] = build_whatif(
                    result, {key[1]: 2.0})["predicted_cycles"]
        wrong = compare(answer, expected)
        if wrong:
            problems.append(f"{request.app}#{index}: {', '.join(wrong)}")
        total += answer["cycles"]
    return problems, total, len(chosen)
