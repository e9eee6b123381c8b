"""The experiment service in its own process, for ``serve_open``.

Usage: ``python3 perfbench/server.py --data-dir DIR [--trace]``.

Prints ``{"port": N}`` once listening, then obeys one-line commands
on standard input, answering each with one JSON line:

* ``mark`` -- start a measured window: snapshot the service counters,
  restart the peak-RSS mark and, with ``--trace``, clear and start
  recording spans;
* ``report PATH`` -- counters, executed jobs' timings and span totals
  since the last mark, plus peak RSS since it; with ``--trace`` the window's spans are
  written to PATH as a Chrome trace;
* ``quit`` (or end of input) -- stop the service and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading

from common import import_repro, peak_rss_mb, reset_peak_rss
from spans import ENGINE_LAYERS, SERVE_LAYERS, SpanRecorder, layer_totals


def _report(service, recorder: SpanRecorder | None, marked: dict,
            path: str | None) -> dict:
    stats = service.stats.as_dict()
    engine = service.engine_stats()
    executed = [job for job in service.jobs.values()
                if job.id not in marked["jobs"]
                and job.started_at is not None
                and job.finished_at is not None]
    document = {
        "rss_mb": peak_rss_mb(),
        "stats": {name: stats[name] - marked["stats"].get(name, 0)
                  for name in stats},
        "engine": {name: engine[name] - marked["engine"].get(name, 0)
                   for name in engine if name != "hit_rate"},
        "executed": [{"digest": job.digest,
                      "queue_wait_ms": (job.started_at
                                        - job.accepted_at) * 1e3,
                      "execute_ms": (job.finished_at
                                     - job.started_at) * 1e3}
                     for job in executed],
    }
    if recorder is not None:
        spans = list(recorder.spans)
        document["layers"] = layer_totals(spans)
        document["hot_submit_ms"] = [
            span.duration_ns / 1e6 for span in spans
            if span.name == "serve.submit" and span.note]
        if path:
            with open(path, "w") as handle:
                json.dump(recorder.chrome_trace("repro-serve", spans),
                          handle)
    return document


def _mark(service, recorder: SpanRecorder | None) -> dict:
    reset_peak_rss()
    if recorder is not None:
        recorder.spans.clear()
        recorder.enabled = True
    return {"stats": service.stats.as_dict(),
            "engine": service.engine_stats(),
            "jobs": set(service.jobs)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    import_repro()
    from repro.serve import ExperimentService, ServiceConfig, ServiceServer

    recorder = None
    if args.trace:
        recorder = SpanRecorder()
        recorder.install(ENGINE_LAYERS + SERVE_LAYERS)
    service = ExperimentService(ServiceConfig(
        data_dir=args.data_dir, backend="auto", workers=2,
        journal_fsync=False, default_deadline_s=30.0))
    server = ServiceServer(service)
    loop = asyncio.new_event_loop()
    loop.run_until_complete(server.start())
    stop = asyncio.Event()

    def on_loop(function, *call_args):
        """Run ``function`` on the event loop thread; wait for it."""
        async def call():
            return function(*call_args)
        return asyncio.run_coroutine_threadsafe(call(), loop).result()

    def commands() -> None:
        marked = on_loop(_mark, service, None)
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "mark":
                marked = on_loop(_mark, service, recorder)
                reply = {"ok": True}
            elif command == "report":
                reply = on_loop(_report, service, recorder, marked,
                                argument or None)
            elif command == "quit":
                break
            else:
                reply = {"error": f"unknown command {command!r}"}
            print(json.dumps(reply), flush=True)
        loop.call_soon_threadsafe(stop.set)

    print(json.dumps({"port": server.port}), flush=True)
    reader = threading.Thread(target=commands, daemon=True)
    reader.start()
    try:
        loop.run_until_complete(stop.wait())
    finally:
        loop.run_until_complete(server.stop())
        loop.close()
    reader.join(timeout=5.0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
