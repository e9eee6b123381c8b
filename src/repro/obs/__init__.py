"""Observability: tracing, counter registry, run manifests, exports.

The paper's evaluation *is* observability -- every figure comes from
attributing cycles and reading instruction timelines.  This package
gives the reproduction the same instruments as first-class, exportable
artifacts:

* :mod:`repro.obs.tracer` -- zero-cost-when-disabled span/event
  tracer threaded through the stream controller, memory system,
  micro-controller and clusters;
* :mod:`repro.obs.export` -- Chrome/Perfetto ``trace_event`` JSON and
  counter CSV exporters, plus the trace schema validator;
* :mod:`repro.obs.registry` -- named, self-describing counters with
  units and paper-target (expected value + tolerance) annotations;
* :mod:`repro.obs.manifest` -- the provenance record attached to
  every :class:`~repro.core.RunResult`;
* :mod:`repro.obs.profile` -- hierarchical cycle-accounting profiler
  (``repro.profile-report/1``: exclusive busy/stall/idle trees per
  component, per-kernel and per-stream-op rollups);
* :mod:`repro.obs.diff` -- category-by-category comparison of two
  profile reports with significance thresholds;
* :mod:`repro.obs.history` -- the append-only perf-history store
  behind ``repro perf`` and the benchmark trajectory;
* :mod:`repro.obs.critpath` -- critical-path extraction over the
  simulator's recorded event DAG (``repro.critpath-report/1``) and
  the what-if speedup projector behind ``repro whatif``;
* :mod:`repro.obs.metrics` -- stdlib-only labeled Counter / Gauge /
  Histogram registry with deterministic Prometheus text exposition
  (v0.0.4) and a strict parser, the live telemetry plane behind
  ``GET /metrics``;
* :mod:`repro.obs.stitch` -- cross-process trace stitching: one
  Perfetto document per served job, HTTP accept -> queue wait ->
  engine execute -> per-component simulator spans.
"""

from repro.obs.critpath import (
    CRITPATH_SCHEMA,
    WHATIF_SCHEMA,
    CritpathError,
    EventGraph,
    build_critpath,
    build_whatif,
    critpath_summary,
    parse_scales,
    project_whatif,
    render_critpath,
    render_whatif,
    validate_critpath,
    whatif_configs,
)
from repro.obs.diff import (
    DIFF_SCHEMA,
    diff_profiles,
    render_diff,
)
from repro.obs.export import (
    TraceValidationError,
    counters_csv,
    finalize_events,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.history import (
    HISTORY_SCHEMA,
    append_history,
    history_entry,
    read_history,
)
from repro.obs.metrics import (
    CONTENT_TYPE,
    LATENCY_BUCKETS_MS,
    Counter,
    ExpositionError,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    counter_totals,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.stitch import (
    SERVICE_PID,
    SIMULATOR_PID,
    TraceContext,
    stitch_job_trace,
    validate_stitched_trace,
)
from repro.obs.manifest import (
    REPORT_SCHEMA,
    RunManifest,
    build_manifest,
    machine_summary,
)
from repro.obs.profile import (
    PROFILE_SCHEMA,
    ProfileError,
    build_profile,
    kernel_catalog_profile,
    render_profile,
    validate_profile,
)
from repro.obs.registry import (
    COUNTER_UNITS,
    PAPER_TARGETS,
    PaperTarget,
    Probe,
    ProbeRegistry,
    registry_from_result,
)
from repro.obs.tracer import (
    NULL_TRACER,
    CounterSample,
    InstantEvent,
    NullTracer,
    SpanEvent,
    Tracer,
)

__all__ = [
    "CRITPATH_SCHEMA",
    "WHATIF_SCHEMA",
    "CritpathError",
    "EventGraph",
    "build_critpath",
    "build_whatif",
    "critpath_summary",
    "parse_scales",
    "project_whatif",
    "render_critpath",
    "render_whatif",
    "validate_critpath",
    "whatif_configs",
    "DIFF_SCHEMA",
    "diff_profiles",
    "render_diff",
    "HISTORY_SCHEMA",
    "append_history",
    "history_entry",
    "read_history",
    "PROFILE_SCHEMA",
    "ProfileError",
    "build_profile",
    "kernel_catalog_profile",
    "render_profile",
    "validate_profile",
    "COUNTER_UNITS",
    "TraceValidationError",
    "counters_csv",
    "finalize_events",
    "to_chrome_trace",
    "validate_chrome_trace",
    "write_chrome_trace",
    "CONTENT_TYPE",
    "LATENCY_BUCKETS_MS",
    "Counter",
    "ExpositionError",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "counter_totals",
    "parse_prometheus",
    "render_prometheus",
    "SERVICE_PID",
    "SIMULATOR_PID",
    "TraceContext",
    "stitch_job_trace",
    "validate_stitched_trace",
    "REPORT_SCHEMA",
    "RunManifest",
    "build_manifest",
    "machine_summary",
    "PAPER_TARGETS",
    "PaperTarget",
    "Probe",
    "ProbeRegistry",
    "registry_from_result",
    "NULL_TRACER",
    "CounterSample",
    "InstantEvent",
    "NullTracer",
    "SpanEvent",
    "Tracer",
]
