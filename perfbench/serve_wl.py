"""``serve_open``: HTTP load on the experiment service.

The service runs in its own process (``server.py``); this process is
the load generator.  It sends seeded requests over at most ``SLOTS``
concurrent connections: mostly hot requests (a pure artifact read)
and a few cold ones with new input seeds (built, vector-simulated,
captured, then polled to a terminal state).  Open-loop stages send on
a schedule and time latency from when a request was *due*, so a stall
also charges the requests queued behind it; the closed loop sends as
fast as the service answers, which measures its capacity.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import subprocess
import sys
import time
from typing import Any

from common import ROOT, child_env, kind_medians, median, percentile

#: Concurrent connections the generator may hold (one per core).
SLOTS = os.cpu_count() or 2
#: Per-request latency limits of the SLO.
HOT_LIMIT_S = 0.050
COLD_LIMIT_S = 5.0
#: A send that starts this much later than due means the generator,
#: not the service, fell behind; such a run is invalid.
LAG_LIMIT_MS = 20.0
#: Polling period for cold jobs.
POLL_S = 0.02
#: Past this many outstanding requests a stage stops sending; the
#: requests it skips count as failed.
BACKLOG_CAP = 200


class Server:
    """One service process and its command pipe."""

    def __init__(self, data_dir, trace: bool = False) -> None:
        command = [sys.executable, str(ROOT / "perfbench" / "server.py"),
                   "--data-dir", str(data_dir)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=child_env(), cwd=str(ROOT))
        try:
            self.port = self._reply()["port"]
        except (RuntimeError, ValueError, KeyError):
            self.process.kill()
            self.process.wait()
            raise

    def _reply(self) -> dict[str, Any]:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("service process exited")
        return json.loads(line)

    def command(self, text: str) -> dict[str, Any]:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._reply()

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.process.stdin.write("quit\n")
                self.process.stdin.close()
                self.process.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# ----------------------------------------------------------------------
# Load generation.
# ----------------------------------------------------------------------
class Stage:
    """One stage: schedule (empty for the closed loop), per-request
    records, generator health."""

    def __init__(self, rate: float, schedule) -> None:
        self.rate = rate
        self.schedule = schedule
        self.records: list[dict[str, Any]] = []
        self.lags_ms: list[float] = []
        self.outstanding = 0
        self.backlog: list[int] = []
        self.started = 0.0
        self.finished = 0.0

    def latencies(self, kind: str | None = None) -> list[float]:
        return [r["latency_s"] * 1e3 for r in self.records
                if r.get("ok") and (kind is None or r["kind"] == kind)]

    def met(self) -> int:
        return sum(1 for r in self.records if r.get("ok") and
                   r["latency_s"] <= (HOT_LIMIT_S if r["kind"] == "hot"
                                      else COLD_LIMIT_S))

    def backlog_grew(self) -> bool:
        """Outstanding requests rose from the first to the second half
        of the stage (sampled at each send)."""
        half = len(self.backlog) // 2
        if not half:
            return False
        first = sum(self.backlog[:half]) / half
        second = sum(self.backlog[half:]) / (len(self.backlog) - half)
        return second > 1.5 * first + SLOTS


async def _exchange(port: int, slots: asyncio.Semaphore, method: str,
                    path: str, body: Any = None):
    from repro.serve.http import http_request

    async with slots:
        return await http_request("127.0.0.1", port, method, path, body,
                                  timeout_s=60.0)


def _served(envelope: dict[str, Any]) -> dict[str, Any]:
    """The parts of a served artifact the output check compares."""
    body = envelope["body"]
    return {"digest": envelope.get("digest"),
            "body": {"cycles": body["cycles"], "summary": body["summary"]}}


async def _one(port: int, slots, stage: Stage, kind: str, payload,
               due: float) -> None:
    record: dict[str, Any] = {"kind": kind, "payload": payload}
    stage.records.append(record)
    try:
        sent = time.perf_counter()
        status, _, document = await _exchange(port, slots, "POST",
                                              "/v1/jobs", payload)
        record["exchange_ms"] = (time.perf_counter() - sent) * 1e3
        record["status"] = status
        if status == 200 and kind == "hot":
            record["artifact"] = _served(document["artifact"])
        elif status == 202 and kind == "cold":
            job_id = document["job"]["id"]
            while True:
                await asyncio.sleep(POLL_S)
                status, _, document = await _exchange(
                    port, slots, "GET", f"/v1/jobs/{job_id}")
                if status != 200 or document["job"]["state"] in (
                        "completed", "failed"):
                    break
            status, _, document = await _exchange(
                port, slots, "GET", f"/v1/jobs/{job_id}/artifact")
            record["status"] = status
            if (document or {}).get("artifact") is not None:
                record["artifact"] = _served(document["artifact"])
        record["ok"] = record.get("artifact") is not None
        record["latency_s"] = time.perf_counter() - due
    except (OSError, asyncio.TimeoutError, ValueError, KeyError) as error:
        record["error"] = f"{type(error).__name__}: {error}"
    finally:
        stage.outstanding -= 1


@contextlib.contextmanager
def _collector_off():
    """The generator's own collector pauses would show up as service
    latency, so it stays off while a stage runs."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def run_stage(port: int, stage: Stage) -> None:
    """Send ``stage.schedule`` open-loop."""
    with _collector_off():
        await _send_all(port, stage)


async def run_closed(port: int, stage: Stage, stream, seconds: float,
                     clients: int) -> None:
    """Closed loop: ``clients`` clients, each sending the next request
    of ``stream`` as soon as its last one is answered, until ``seconds``
    have passed.  The service, not a schedule, sets how many complete."""
    slots = asyncio.Semaphore(SLOTS)

    async def client(deadline: float) -> None:
        while time.perf_counter() < deadline:
            kind, payload = next(stream)
            stage.outstanding += 1
            await _one(port, slots, stage, kind, payload,
                       time.perf_counter())

    with _collector_off():
        stage.started = time.perf_counter()
        await asyncio.gather(*(client(stage.started + seconds)
                               for _ in range(clients)))
        stage.finished = time.perf_counter()


async def _send_all(port: int, stage: Stage) -> None:
    slots = asyncio.Semaphore(SLOTS)
    tasks = []
    stage.started = base = time.perf_counter() + 0.05
    for due, kind, payload in stage.schedule:
        delay = base + due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.perf_counter()
        stage.lags_ms.append(max(now - (base + due), 0.0) * 1e3)
        stage.backlog.append(stage.outstanding)
        if stage.outstanding >= BACKLOG_CAP:
            stage.records.append({"kind": kind, "payload": payload,
                                  "error": "backlog cap reached"})
            continue
        stage.outstanding += 1
        tasks.append(asyncio.create_task(
            _one(port, slots, stage, kind, payload, base + due)))
    await asyncio.gather(*tasks)
    stage.finished = time.perf_counter()


def prewarm(port: int, hot: list[dict]) -> None:
    """Make every hot-set digest an artifact hit."""
    stage = Stage(0.0, [(0.0, "cold", payload) for payload in hot])
    asyncio.run(run_stage(port, stage))
    missing = [r for r in stage.records if not r.get("ok")]
    if missing:
        raise RuntimeError(f"pre-warm failed for {len(missing)} request(s)")


# ----------------------------------------------------------------------
# Summaries.
# ----------------------------------------------------------------------
def stage_metrics(stage: Stage) -> dict[str, Any]:
    """The latency metrics of the nominal stage (medians; run.py adds
    the tails)."""
    sent = len(stage.records)
    return {"op_p50_ms": median(stage.latencies()),
            "hot_p50_ms": median(stage.latencies("hot")),
            "cold_p50_ms": median(stage.latencies("cold")),
            "slo_met_frac": stage.met() / sent if sent else 0.0}


def merge(stages: list[Stage]) -> Stage:
    """One stage holding the records and generator health of several
    turns of the same open-loop stage."""
    merged = Stage(stages[0].rate, [entry for stage in stages
                                    for entry in stage.schedule])
    for stage in stages:
        merged.records += stage.records
        merged.lags_ms += stage.lags_ms
        merged.backlog += stage.backlog
    return merged


def completed_per_s(loops: list[Stage]) -> float:
    """Requests a closed loop completed per second it ran: the median
    over the loop's turns, so a turn that fell in a slow stretch of a
    shared machine does not set the figure."""
    return median(len(loop.latencies()) / (loop.finished - loop.started)
                  for loop in loops)


def cold_mcycles_per_s(loops: list[Stage], executed: list[dict]) -> float:
    """Simulated Mcycles per second of service-side execution (job
    start to finish) over the cold jobs of ``loops``, each job timed at
    the median execution time of its app's jobs (``kind_medians``)."""
    seconds = {job["digest"]: job["execute_ms"] / 1e3 for job in executed}
    jobs = [(record["artifact"]["body"]["cycles"],
             (record["payload"]["app"], seconds[record["artifact"]["digest"]]))
            for loop in loops for record in loop.records
            if record.get("ok") and record["artifact"]["digest"] in seconds]
    return (sum(cycles for cycles, _ in jobs) / 1e6
            / max(sum(kind_medians(timed for _, timed in jobs)), 1e-9))


def ramp_verdict(stage: Stage) -> str:
    """Why a ramp stage failed, or "" when at least 99% of the requests
    sent met their limit, the backlog did not grow and the generator
    kept its schedule."""
    sent = len(stage.records)
    if percentile(stage.lags_ms, 0.99) > LAG_LIMIT_MS:
        return f"the generator fell behind at {stage.rate:g}/s"
    if stage.met() < 0.99 * sent:
        return (f"{stage.met()}/{sent} requests met their limit at "
                f"{stage.rate:g}/s")
    if stage.backlog_grew():
        return f"the backlog grew at {stage.rate:g}/s"
    return ""


def check(stages: list[Stage], nominal: Stage, hot: list[dict], seed: int
          ) -> tuple[list[str], float, int]:
    """Every served artifact must answer its request's digest and agree
    with every other serve of that digest.  The hot set plus a seeded
    sample of the nominal stage's cold digests is then re-run uncached
    on the event backend: cycles and profile summary must equal the
    served ones exactly."""
    import random

    from engine_wl import compare, parse, reference

    problems: list[str] = []
    served: dict[str, tuple[dict, dict]] = {}
    for stage in stages:
        for record in stage.records:
            if not record.get("ok"):
                continue
            payload = record["payload"]
            digest = parse(payload).digest()
            artifact = record["artifact"]
            if artifact.get("digest") != digest:
                problems.append(f"{payload['app']}: served digest "
                                f"{artifact.get('digest')} for {digest}")
                continue
            body = artifact["body"]
            first = served.setdefault(digest, (payload, body))[1]
            if first["cycles"] != body["cycles"]:
                problems.append(f"{digest[:12]}: cycles differ between "
                                f"serves")
    hot_digests = {parse(payload).digest() for payload in hot}
    cold = sorted({parse(r["payload"]).digest() for r in nominal.records
                   if r["kind"] == "cold" and r.get("ok")})
    rng = random.Random(f"check:{seed}")
    sample = sorted(hot_digests | set(rng.sample(cold, min(4, len(cold)))))
    total = 0.0
    for digest in sample:
        if digest not in served:
            problems.append(f"{digest[:12]}: never served")
            continue
        payload, body = served[digest]
        expected = reference(parse(payload), "event")
        wrong = compare({"cycles": body["cycles"],
                         "summary": body["summary"]}, expected)
        if wrong:
            problems.append(f"{payload['app']}/{digest[:12]}: "
                            f"{', '.join(wrong)}")
        total += body["cycles"]
    return problems, total, len(sample)
