"""Host-time benchmark of the simulator and its service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` spends the first half of the timed phase untraced and
the second half with every layer boundary wrapped, and prints the
per-layer metrics, the unattributed remainder and the tracing
overhead.  Either way the delivered results are checked afterwards and
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when a result is wrong or the run is invalid.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from common import (  # noqa: E402
    END_TO_END, PER_LAYER, REPORTED, ROOT, UNGATED, WORK, WORKLOADS,
    BenchError, child_env, fresh_dir, import_repro, median, peak_rss_mb,
    percentile,
    print_metric, print_tail, provenance, reset_peak_rss, result_line)

#: Set-up is timed this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: A service start is cheaper and noisier; it is timed more often.
SERVE_SETUP_SAMPLES = 5
#: Shares of an untraced serve_open run: the nominal open-loop stage of
#: the mix, the closed loop of hot requests (capacity), the closed loop
#: of cold requests (cold-path speed) and the hot-only ramp.  The first
#: three take ``ROUNDS`` turns each.
NOMINAL_SHARE = 0.30
HOT_LOOP_SHARE = 0.20
COLD_LOOP_SHARE = 0.35
RAMP_SHARE = 0.15
ROUNDS = 5


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNGATED + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args, started: float) -> int:
    """Child mode: one timed set-up of an engine workload."""
    import engine_wl

    directory = fresh_dir(f"probe-{args.workload}")
    try:
        engine_wl.setup(args.workload, args.seed, directory)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def _probe(args) -> float:
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
    output = subprocess.run(command, capture_output=True, text=True,
                            env=child_env(), cwd=str(ROOT), timeout=120,
                            check=True).stdout
    return json.loads(output.strip().splitlines()[-1])["setup_s"]


def _print_header(args, **extra) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(
        provenance(args.workload, args.seed, **extra), sort_keys=True))


def _finish(args, check, e2e, layer, attempted, failed, tails,
            invalid: str = "") -> int:
    """Print the check, the metric tables and the result line."""
    problems, cycles_total, checked = check
    for problem in problems:
        print(f"WRONG {problem}")
    print(f"check: {checked} request(s) re-run on the other backend, "
          f"{len(problems)} wrong")
    print(f"cycles.check_total {cycles_total!r} (exact, over the "
          f"seeded check sample)")
    if invalid:
        print(f"INVALID: {invalid}")
        return 3
    failed += len(problems)
    correct = not problems
    e2e["failed_frac"] = failed / max(attempted, 1)
    if args.trace:
        print("per-layer metrics (traced half of the run):")
        for name, unit in PER_LAYER.items():
            print_metric(name, layer[name], unit)
        units, values = PER_LAYER, layer
    else:
        print("end-to-end metrics:")
        for name, unit in END_TO_END.items():
            print_metric(name, e2e[name], unit)
        for name, unit in REPORTED.items():
            if name in e2e:
                print_metric(name, e2e[name], unit)
        for prefix, q, samples in tails:
            print_tail(prefix, q, samples)
        units, values = END_TO_END, e2e
    print(result_line(correct, attempted, failed, values, units))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Engine workloads.
# ----------------------------------------------------------------------
def _run_engine(args, started: float) -> int:
    import engine_wl
    from spans import ENGINE_LAYERS, SpanRecorder, layer_metrics, \
        layer_totals

    directory = fresh_dir(args.workload)
    try:
        requests = engine_wl.setup(args.workload, args.seed, directory)
        setups = [time.perf_counter() - started]
        setups += [_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        _print_header(args, setup_samples_s=setups)
        recorder = SpanRecorder()
        if args.trace:
            recorder.install(ENGINE_LAYERS)
        reset_peak_rss()
        trace_from = args.seconds / 2 if args.trace else None
        delivered: dict = {}
        if args.workload == "sweep_cold":
            phases, counts = engine_wl.sweep(
                args.seed, args.seconds, directory, recorder, trace_from,
                delivered)
        else:
            phases, counts = engine_wl.fetch(
                args.seed, args.seconds, directory, requests, recorder,
                trace_from, delivered)
        rss = peak_rss_mb()
        recorder.uninstall()
        if args.workload == "sweep_cold":
            check = engine_wl.check_sweep(delivered)
        else:
            check = engine_wl.check_fetch(args.seed, directory, delivered)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    untraced, traced = phases
    e2e = dict(untraced.metrics(), setup_s=median(setups),
               peak_rss_mb=rss)
    layer = {name: 0.0 for name in PER_LAYER}
    ops = len(untraced.latencies) + len(traced.latencies)
    if args.trace:
        spans = list(recorder.spans)
        layer.update(layer_metrics(layer_totals(spans),
                                   len(traced.latencies)))
        # The session counters cover both halves of the run.
        for name, value in counts.items():
            layer[f"session.{name}"] = value / max(ops, 1)
        _trace_overhead(layer, untraced, traced)
        _write_trace(args, recorder.chrome_trace(f"perfbench {args.workload}",
                                                 spans))
    tails = [("op", 0.90, [value * 1e3 for value in untraced.latencies])]
    return _finish(args, check, e2e, layer, ops,
                   untraced.failed + traced.failed, tails)


def _trace_overhead(layer, untraced, traced) -> None:
    plain = untraced.metrics()["op_p50_ms"]
    with_spans = traced.metrics()["op_p50_ms"]
    layer["trace.untraced_op_p50_ms"] = plain
    layer["trace.op_p50_ms"] = with_spans
    layer["trace.overhead_ms"] = with_spans - plain


def _write_trace(args, document: dict) -> None:
    from repro.obs.export import validate_chrome_trace

    validate_chrome_trace(document)
    path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document))
    print(f"trace: {path.relative_to(ROOT)} "
          f"({len(document['traceEvents'])} events)")


# ----------------------------------------------------------------------
# serve_open.
# ----------------------------------------------------------------------
def _run_serve(args) -> int:
    import serve_wl
    from mix import NOMINAL_RPS, RAMP_RPS, arrivals, hot_set, requests
    from serve_wl import SLOTS
    from spans import layer_metrics

    # The generator and the service share one CPU: on a VM, wake-ups
    # across CPUs made the closed-loop figures swing by a third from
    # run to run; on one CPU they hold within a tenth.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    hot = hot_set(args.seed)
    setups: list[float] = []
    directories: list[pathlib.Path] = []
    server = None
    stages: list = []
    try:
        for attempt in range(SERVE_SETUP_SAMPLES):
            if server is not None:
                server.close()
            directories.append(fresh_dir(f"serve{attempt}"))
            begin = time.perf_counter()
            server = serve_wl.Server(directories[-1], trace=bool(args.trace))
            serve_wl.prewarm(server.port, hot)
            setups.append(time.perf_counter() - begin)
        _print_header(args, setup_samples_s=setups, stage_rates=(
            [NOMINAL_RPS] * 2 if args.trace else
            {"nominal": NOMINAL_RPS, "rounds": ROUNDS,
             "ramp": list(RAMP_RPS)}))

        def stream(only: str | None):
            entries = requests(args.seed, len(stages), hot)
            return (entry for entry in entries
                    if only is None or entry[0] == only)

        def stage(rate: float, share: float, only: str | None = None):
            """An open-loop stage at ``rate``."""
            current = serve_wl.Stage(rate, arrivals(
                args.seed, len(stages), rate, share * args.seconds,
                stream(only)))
            asyncio.run(serve_wl.run_stage(server.port, current))
            stages.append(current)
            return current

        def closed(share: float, only: str, clients: int):
            """A closed loop of ``clients`` sending ``only`` requests."""
            current = serve_wl.Stage(0.0, [])
            asyncio.run(serve_wl.run_closed(
                server.port, current, stream(only), share * args.seconds,
                clients))
            stages.append(current)
            return current

        traced = None
        if args.trace:
            nominal = stage(NOMINAL_RPS, 0.5)
            server.command("mark")
            traced = stage(NOMINAL_RPS, 0.5)
            path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            report = server.command(f"report {path}")
            _write_trace(args, json.loads(path.read_text()))
            measured = [nominal, traced]
        else:
            server.command("mark")
            # The phases take turns, so each figure samples the whole
            # run rather than one stretch of a machine whose speed
            # drifts.
            parts, hot_loops, cold_loops = [], [], []
            for _ in range(ROUNDS):
                parts.append(stage(NOMINAL_RPS, NOMINAL_SHARE / ROUNDS))
                hot_loops.append(closed(HOT_LOOP_SHARE / ROUNDS, "hot",
                                        SLOTS))
                cold_loops.append(closed(COLD_LOOP_SHARE / ROUNDS, "cold",
                                         1))
            nominal = serve_wl.merge(parts)
            # Peak RSS and job timings are read before the ramp, whose
            # length varies.
            report = server.command("report")
            max_rate, stopped = 0.0, "every ramp stage passed"
            for rate in RAMP_RPS:
                verdict = serve_wl.ramp_verdict(stage(
                    rate, RAMP_SHARE / len(RAMP_RPS), only="hot"))
                if verdict:
                    stopped = verdict
                    break
                max_rate = rate
            measured = [nominal] + hot_loops + cold_loops
    finally:
        if server is not None:
            server.close()
        for directory in directories:
            shutil.rmtree(directory, ignore_errors=True)
    check = serve_wl.check(stages, nominal, hot, args.seed)
    attempted = sum(len(s.records) for s in measured)
    failed = sum(1 for s in measured for r in s.records if not r.get("ok"))
    print("loadgen: " + ", ".join(
        f"stage {i} at {s.rate:g}/s lag p99 "
        f"{percentile(s.lags_ms, 0.99):.3f} ms backlog max "
        f"{max(s.backlog, default=0)}"
        for i, s in enumerate(stages) if s.schedule))
    invalid = ""
    if any(percentile(s.lags_ms, 0.99) > serve_wl.LAG_LIMIT_MS
           for s in measured):
        invalid = (f"the load generator ran more than "
                   f"{serve_wl.LAG_LIMIT_MS:g} ms late; the run measured "
                   f"the generator, not the service")

    layer = {name: 0.0 for name in PER_LAYER}
    e2e: dict = {"setup_s": median(setups), "peak_rss_mb": report["rss_mb"]}
    tails: list = []
    if traced is not None:
        ops = len(traced.records)
        layer.update(layer_metrics(report["layers"], ops))
        _serve_layers(layer, report, traced, ops)
        plain = median(nominal.latencies("hot"))
        layer["trace.untraced_op_p50_ms"] = plain
        layer["trace.op_p50_ms"] = median(traced.latencies("hot"))
        layer["trace.overhead_ms"] = layer["trace.op_p50_ms"] - plain
    else:
        e2e.update(serve_wl.stage_metrics(nominal),
                   ops_per_s=serve_wl.completed_per_s(hot_loops),
                   sim_mcycles_per_s=serve_wl.cold_mcycles_per_s(
                       cold_loops, report["executed"]),
                   max_rate_rps=max_rate)
        tails = [("op", 0.90, nominal.latencies()),
                 ("hot", 0.99, nominal.latencies("hot")),
                 ("cold", 0.90, nominal.latencies("cold"))]
        print(f"ramp (hot requests only): {stopped}")
    return _finish(args, check, e2e, layer, attempted, failed, tails,
                   invalid)


def _serve_layers(layer, report, traced, ops: int) -> None:
    """Per-layer metrics of the service measured outside spans."""
    stats = report["stats"]
    waits = [job["queue_wait_ms"] for job in report["executed"]]
    runs = [job["execute_ms"] for job in report["executed"]]
    layer["serve.queue_wait_calls"] = len(waits) / ops
    layer["serve.queue_wait_ms"] = sum(waits) / len(waits) if waits else 0
    layer["serve.execute_calls"] = len(runs) / ops
    layer["serve.execute_ms"] = sum(runs) / len(runs) if runs else 0.0
    layer["serve.coalesced"] = stats["coalesced"] / ops
    layer["serve.shed"] = (stats["shed_queue_full"]
                           + stats["shed_breaker"]) / ops
    layer["serve.retried"] = stats["retried"] / ops
    engine = report["engine"]
    for name in ("executed", "failed", "retried"):
        layer[f"session.{name}"] = engine.get(name, 0) / ops
    exchanges = [r["exchange_ms"] for r in traced.records
                 if r["kind"] == "hot" and r.get("ok")]
    submits = report["hot_submit_ms"]
    layer["serve.http_other_calls"] = len(exchanges) / ops
    layer["serve.http_other_ms"] = (
        median(exchanges) - median(submits) if exchanges and submits else 0.0)
    layer["loadgen.lag_ms"] = percentile(traced.lags_ms, 0.99)
    layer["loadgen.backlog_max"] = max(traced.backlog, default=0)


# ----------------------------------------------------------------------
# All workloads.
# ----------------------------------------------------------------------
def _run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    status = 0
    summary = {}
    for workload in WORKLOADS + UNGATED:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True,
                              cwd=str(ROOT), env=child_env())
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            summary[workload] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[workload] = {"correct": False, "exit": done.returncode}
        status = status or done.returncode
        print()
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _arguments(argv)
    try:
        import_repro()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        return _setup_probe(args, started)
    if args.workload == "serve_open":
        return _run_serve(args)
    return _run_engine(args, started)


if __name__ == "__main__":
    sys.exit(main())
