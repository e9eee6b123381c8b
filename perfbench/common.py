"""Shared pieces of the host-time benchmark: paths, metric vocabulary,
percentiles, provenance and the final result line.

Everything here is stdlib-only so the benchmark can report a clean
error when the package under test is missing.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import sys
from typing import Any, Hashable, Iterable

#: The checkout root (the directory holding ``perfbench/``).
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for caches, data dirs and traces; listed in .gitignore.
WORK = ROOT / ".perfbench"

#: ``BENCHMARK.json`` names the workloads and the metrics, with their
#: units; the code reads them from there.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(entry["name"] for entry in BENCHMARK["workloads"])
#: Runs like the others and prints the same metrics, but is not listed
#: in ``BENCHMARK.json``: its speed differs by up to two fifths from
#: one process to the next on the same code (README.md).
UNGATED = ("fetch_warm",)
#: Gated on every workload, so each is defined for each workload.
END_TO_END = {entry["name"]: entry["unit"]
              for entry in BENCHMARK["end_to_end"]}
#: Per-layer metrics of the traced run.  ``*_calls`` and the counts
#: are per completed operation; ``*_ms`` is mean self time per call.
PER_LAYER = {entry["name"]: entry["unit"]
             for entry in BENCHMARK["per_layer"]}

#: Printed by name but not gated: they exist only on some workloads
#: (serve_open), are usually exactly zero (failed_frac), or cannot be
#: held to a bound (max_rate_rps moves in steps of a ramp stage).
#: Tails (``op_p90_ms``, ``hot_p99_ms``, ``cold_p90_ms``) are printed
#: by ``print_tail``.
REPORTED = {
    "failed_frac": "fraction",
    "hot_p50_ms": "ms",
    "cold_p50_ms": "ms",
    "slo_met_frac": "fraction",
    "max_rate_rps": "1/s",
}

#: Percentiles a tail falls back to, highest first, when the one asked
#: for has fewer than ``TAIL_BEYOND`` samples beyond it.
TAIL_LADDER = (0.99, 0.95, 0.90, 0.75)
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The benchmark cannot run (missing package, broken set-up)."""


def import_repro() -> None:
    """Put the checkout's ``src`` on the path; fail when absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no package to benchmark under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for benchmark child processes: the checkout's
    ``src`` on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def fresh_dir(name: str) -> pathlib.Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark at its current RSS, so the
    next ``peak_rss_mb`` covers what ran since, not the set-up."""
    pathlib.Path("/proc/self/clear_refs").write_text("5")


def peak_rss_mb() -> float:
    """This process's peak resident set size since the last
    ``reset_peak_rss`` (``VmHWM``, which Linux reports in KiB)."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


# ----------------------------------------------------------------------
# Percentiles.
# ----------------------------------------------------------------------
def percentile(samples: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of ``samples``."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(samples: Iterable[float], q: float
         ) -> tuple[float, float] | None:
    """``(level, value)``: the ``q``-quantile of ``samples`` when at
    least ``TAIL_BEYOND`` samples lie beyond it, else the highest
    ``TAIL_LADDER`` level below ``q`` that has them; None if none has."""
    ordered = sorted(samples)
    for level in (q,) + tuple(x for x in TAIL_LADDER if x < q):
        if len(ordered) - math.ceil(level * len(ordered)) >= TAIL_BEYOND:
            return level, percentile(ordered, level)
    return None


def median(samples: Iterable[float]) -> float:
    values = list(samples)
    return statistics.median(values) if values else 0.0


def kind_medians(samples: Iterable[tuple[Hashable, float]]) -> list[float]:
    """Each ``(kind, duration)`` sample replaced by the median duration
    of its kind.

    A run repeats each kind of operation several times, spread over
    the run.  A stretch of seconds in which a shared machine runs slow
    then moves a kind's median far less than its mean, so totals and
    medians taken over these figures hold steady from run to run where
    the plain ones swing with the machine."""
    pairs = list(samples)
    by_kind: dict[Hashable, list[float]] = {}
    for kind, duration in pairs:
        by_kind.setdefault(kind, []).append(duration)
    medians = {kind: median(values) for kind, values in by_kind.items()}
    return [medians[kind] for kind, _ in pairs]


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------
def provenance(workload: str, seed: int, **extra: Any) -> dict[str, Any]:
    """What must match for two runs to be comparable."""
    import numpy

    from repro.engine import code_salt

    return {"workload": workload, "seed": seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "code_salt": code_salt(), **extra}


def print_metric(name: str, value: float, unit: str,
                 note: str = "") -> None:
    suffix = f"  ({note})" if note else ""
    print(f"  {name:28s} {value:14.6g} {unit}{suffix}")


def print_tail(prefix: str, q: float, samples: list[float]) -> None:
    """Print the ``q`` tail of ``samples`` as ``<prefix>_p<N>_ms``, at
    a lower level when too few samples lie beyond ``q``."""
    found = tail(samples, q)
    if found is None:
        print(f"  {f'{prefix}_p{q * 100:g}_ms':28s} {'n/a':>14s} ms  "
              f"(n={len(samples)}: too few samples for any tail)")
        return
    level, value = found
    note = f"n={len(samples)}"
    if level != q:
        note += f"; p{q * 100:g} needs more samples"
    print_metric(f"{prefix}_p{level * 100:g}_ms", value, "ms", note)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float],
                units: dict[str, str]) -> str:
    """The last line of standard output, read by the harness."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(max(attempted, 1)),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in units},
    })
