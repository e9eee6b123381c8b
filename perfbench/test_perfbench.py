"""Self-tests of the benchmark (not part of the repository's tier-1
suite).  Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys
import types

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import mix  # noqa: E402
from spans import SpanRecorder, layer_metrics, layer_totals  # noqa: E402


# ----------------------------------------------------------------------
# Seeded inputs.
# ----------------------------------------------------------------------
def _schedule(seed: int, rate: float, duration: float, hot):
    return mix.arrivals(seed, 0, rate, duration, mix.requests(seed, 0, hot))


def test_seed_reproduces_request_mix_and_schedule():
    hot = mix.hot_set(7)
    assert hot == mix.hot_set(7)
    assert mix.sweep_round(7, 0) == mix.sweep_round(7, 0)
    assert mix.fetch_set(7) == mix.fetch_set(7)
    assert (mix.fetch_ops(7, 50, 16, ("dram", "srf"))
            == mix.fetch_ops(7, 50, 16, ("dram", "srf")))
    assert _schedule(7, 30.0, 5.0, hot) == _schedule(7, 30.0, 5.0, hot)
    # Another seed gives other inputs.
    assert mix.sweep_round(8, 0) != mix.sweep_round(7, 0)
    assert mix.fetch_set(8) != mix.fetch_set(7)
    assert _schedule(8, 30.0, 5.0, mix.hot_set(8)) != \
        _schedule(7, 30.0, 5.0, hot)


def test_sweep_round_covers_every_image_and_point():
    payloads = mix.sweep_round(3, 0)
    images = {(p["app"], json.dumps(p["sizes"], sort_keys=True))
              for p in payloads}
    count = sum(n for sizes in mix.SWEEP_IMAGES.values()
                for _size, n in sizes)
    assert len(images) == count
    assert len(payloads) == count * len(mix.SWEEP_POINTS)
    # Rounds draw new input seeds, so no digest repeats across rounds.
    later = {json.dumps(p["sizes"], sort_keys=True)
             for p in mix.sweep_round(3, 1)}
    assert not later & {size for _app, size in images}


def test_arrival_schedule_shape():
    hot = mix.hot_set(1)
    schedule = _schedule(1, 40.0, 10.0, hot)
    dues = [due for due, _kind, _payload in schedule]
    assert len(schedule) == 400 and dues == sorted(dues)
    assert all(0.0 <= due <= 10.0 for due in dues)
    cold = [p for _due, kind, p in schedule if kind == "cold"]
    assert len(cold) == round(400 * mix.COLD_SHARE)
    assert not [p for p in cold if p in hot]
    apps = [p["app"] for p in cold]
    assert max(map(apps.count, set(apps))) - \
        min(map(apps.count, set(apps))) <= 1
    hot_reads = [p for _due, kind, p in schedule if kind == "hot"]
    counts = [hot_reads.count(p) for p in hot]
    assert max(counts) - min(counts) <= 1


# ----------------------------------------------------------------------
# Metric vocabulary and BENCHMARK.json.
# ----------------------------------------------------------------------
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_are_valid_and_have_units():
    names = (list(common.END_TO_END) + list(common.REPORTED)
             + list(common.PER_LAYER))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    units = (list(common.END_TO_END.values())
             + list(common.REPORTED.values())
             + list(common.PER_LAYER.values()))
    for unit in units:
        assert UNIT_RE.match(unit), unit


def test_benchmark_json_bounds():
    e2e = common.BENCHMARK["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in e2e)
    assert all(len(w["why"]) <= 200 for w in common.BENCHMARK["workloads"])


def test_result_line_carries_exactly_the_listed_metrics():
    units = common.END_TO_END
    line = common.result_line(True, 10, 0,
                              {name: 1.5 for name in units} | {"x": 2},
                              units)
    document = json.loads(line)
    assert set(document) == {"correct", "attempted", "failed", "metrics"}
    assert set(document["metrics"]) == set(units)


def test_percentiles():
    values = list(range(1, 101))
    assert common.percentile(values, 0.90) == 90
    assert common.percentile(values, 0.99) == 99
    assert common.median([3, 1, 2]) == 2


def test_tails_keep_ten_samples_beyond_them():
    assert common.tail(range(1, 1001), 0.99) == (0.99, 990)
    # 534 samples: p99 would have 5 beyond it, p95 has 26.
    assert common.tail(range(1, 535), 0.99)[0] == 0.95
    # 28 samples: p90 would have 2 beyond it, p75 has 7; none qualifies.
    assert common.tail(range(1, 29), 0.90) is None
    assert common.tail(range(1, 41), 0.90) == (0.75, 30)


# ----------------------------------------------------------------------
# Spans.
# ----------------------------------------------------------------------
def test_span_recorder_self_time_and_chrome_trace():
    from repro.obs.export import validate_chrome_trace

    fake = types.ModuleType("perfbench_fake_layers")

    def inner():
        return None

    def outer():
        return fake.inner()

    fake.inner, fake.outer = inner, outer
    sys.modules[fake.__name__] = fake
    recorder = SpanRecorder()
    try:
        recorder.install([(fake.__name__, "outer", "apps.build"),
                          (fake.__name__, "inner", "cache.load")])
        fake.outer()                      # disabled: nothing recorded
        assert recorder.spans == []
        recorder.enabled = True
        with recorder.operation(1):
            fake.outer()
        recorder.uninstall()
        assert fake.outer is outer
    finally:
        del sys.modules[fake.__name__]
    names = sorted(span.name for span in recorder.spans)
    assert names == ["apps.build", "cache.load", "op"]
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["cache.load"].parent == by_name["apps.build"].span_id
    assert by_name["apps.build"].parent == by_name["op"].span_id
    assert {span.op for span in recorder.spans} == {1}
    totals = layer_totals(recorder.spans)
    own = sum(slot["self_ns"] for slot in totals.values())
    assert own == by_name["op"].duration_ns
    metrics = layer_metrics(totals, ops=1)
    assert metrics["apps.build_calls"] == 1.0
    assert 0.0 <= metrics["attributed_share"] <= 1.0
    assert validate_chrome_trace(
        recorder.chrome_trace("test", recorder.spans))


# ----------------------------------------------------------------------
# Output check.
# ----------------------------------------------------------------------
SMALL = {"app": "rtsl", "sizes": {"triangles": 20, "seed": 3}}


def test_check_passes_backend_identical_results_and_catches_a_wrong_one():
    import engine_wl

    request = engine_wl.parse(SMALL)
    vector = engine_wl.reference(request, "vector")
    event = engine_wl.reference(request, "event")
    delivered = {"cycles": vector["cycles"], "summary": vector["summary"]}
    assert engine_wl.compare(delivered, event) == []
    wrong = dict(delivered, cycles=delivered["cycles"] + 1.0)
    assert engine_wl.compare(wrong, event) == ["cycles"]
    skewed = dict(delivered, summary=dict(delivered["summary"], gops=0.0))
    assert engine_wl.compare(skewed, event) == ["summary"]


def test_serve_check_catches_wrong_digest_and_wrong_cycles():
    import engine_wl
    import serve_wl

    request = engine_wl.parse(SMALL)
    truth = engine_wl.reference(request, "vector")
    body = {"cycles": truth["cycles"], "summary": truth["summary"]}

    def stage_with(artifact):
        stage = serve_wl.Stage(1.0, [])
        stage.records.append({"kind": "hot", "payload": SMALL, "ok": True,
                              "latency_s": 0.001, "artifact": artifact})
        return stage

    good = stage_with({"digest": request.digest(), "body": body})
    assert serve_wl.check([good], good, [SMALL], 1) == (
        [], truth["cycles"], 1)
    misaddressed = stage_with({"digest": "0" * 64, "body": body})
    problems, _, _ = serve_wl.check([misaddressed], misaddressed,
                                    [SMALL], 1)
    assert problems and "served digest" in problems[0]
    wrong = stage_with({"digest": request.digest(),
                        "body": dict(body, cycles=body["cycles"] * 2)})
    problems, _, _ = serve_wl.check([wrong], wrong, [SMALL], 1)
    assert any(problem.endswith("cycles") for problem in problems)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert done.stdout == ""


def test_service_set_figures():
    import serve_wl

    loops = [serve_wl.Stage(0.0, []) for _ in range(3)]
    for loop, (start, end, done) in zip(loops, [(0, 1, 30), (5, 8, 51),
                                                (9, 10, 5)]):
        loop.started, loop.finished = float(start), float(end)
        loop.records = [{"ok": True, "latency_s": 0.01}] * done + [{}]
    # 30/s, 17/s and 5/s: the median turn, not the pooled 86/5 s.
    assert serve_wl.completed_per_s(loops) == 17.0
    # Each cold job counts at its app's median execution time: 0.1 s
    # for "a" (the 0.7 s outlier does not count), 0.2 s for "b"; 1.6
    # Mcycles over 4 x 0.1 + 2 x 0.2 s.  A job the service did not
    # execute in the window is left out.
    jobs = [("a", 1e5, 0.1), ("a", 2e5, 0.1), ("a", 3e5, 0.7),
            ("a", 2e5, 0.1), ("b", 4e5, 0.2), ("b", 4e5, 0.2)]
    records = [{"ok": True, "payload": {"app": app},
                "artifact": {"digest": f"d{i}", "body": {"cycles": c}}}
               for i, (app, c, _) in enumerate(jobs + [("a", 9e9, 0.0)])]
    loops[0].records, loops[1].records = records[:4], records[4:]
    executed = [{"digest": f"d{i}", "execute_ms": t * 1e3}
                for i, (_, _, t) in enumerate(jobs)]
    assert abs(serve_wl.cold_mcycles_per_s(loops[:2], executed) - 2.0) \
        < 1e-9


def test_kind_medians_ignore_a_slow_stretch():
    # Three kinds, each slowed 3x once, as a slow stretch of the
    # machine would: every sample counts at its kind's median.
    samples = [("a", 1.0), ("b", 2.0), ("c", 0.5)] * 3
    samples[1] = ("b", 6.0)
    samples[3] = ("a", 3.0)
    samples[8] = ("c", 1.5)
    assert common.kind_medians(samples) == [1.0, 2.0, 0.5] * 3
    assert common.kind_medians([]) == []


def test_sweep_kinds_repeat_in_every_round():
    kinds = [sorted(mix.sweep_kind(p, n)
                    for n, p in enumerate(mix.sweep_round(5, index)))
             for index in range(3)]
    assert kinds[0] == kinds[1] == kinds[2]
    # One kind per image size and point, the repeated hardware point
    # (a memo hit) among them.
    sizes = sum(len(entries) for entries in mix.SWEEP_IMAGES.values())
    assert len(set(kinds[0])) == sizes * len(mix.SWEEP_POINTS)
