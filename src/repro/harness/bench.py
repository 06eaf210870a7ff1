"""The perf gate: a fixed metric set, timed as interleaved repeats.

``repro bench`` times every :class:`Metric` in :data:`METRICS`: one
untimed warm-up round, then :data:`REPEATS` rounds, each timing every
metric once, serially and in list order, so slow phases of a noisy
host land on every metric alike instead of on whichever ran then.
Each metric is a higher-is-better rate with a name, a force backend
and a fixed workload config; one sample is one call of an existing
timer (the campaign workers and the profiling step timers).

The document written by ``--json`` keeps every sample, the median,
the interquartile range, the config and backend of each metric, and
the host's ``cpu_count``.  :func:`check_gate` compares a fresh
document against such a baseline and fails when a median drops more
than :data:`THRESHOLD`, when the two metric sets differ, when a
metric's backend or config differs, or when a metric's backend is
unavailable on this host (a numpy fallback is never timed in its
place).  A comparison of nothing cannot pass.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from repro.harness.campaign import batch_rate, engine_rate, machine_rate
from repro.harness.profiling import profile_distributed, profile_machine
from repro.harness.report import format_table
from repro.md.backends import backend_status

#: Timed rounds after the warm-up round.
REPEATS = 7

#: A median more than this fraction below its baseline fails the gate.
THRESHOLD = 0.30


@dataclass(frozen=True)
class Metric:
    """One gated rate: ``run(backend, **config)`` returns one sample."""

    name: str
    backend: str
    config: Dict[str, Any]
    run: Callable[..., float]


def _engine_rate(backend: str, **config) -> float:
    return engine_rate(force_impl=backend, **config)["timing"]["steps_per_s"]


def _machine_rate(backend: str, **config) -> float:
    return machine_rate(force_impl=backend, **config)["timing"]["steps_per_s"]


def _batch_rate(backend: str, **config) -> float:
    out = batch_rate(force_impl=backend, **config)
    return out["timing"]["aggregate_steps_per_s"]


def _machine_step(backend: str, **config) -> float:
    return profile_machine(force_impl=backend, **config)["machine_step_per_s"]


def _distributed_step(backend: str, **config) -> float:
    out = profile_distributed(force_impl=backend, **config)
    return out["distributed_serial_per_s"]


_BOX = {"seed": 2023, "dims": (5, 5, 6), "steps": 10}
_BATCH = {"seed": 2023, "k_systems": 64, "particles_per_cell": 2, "steps": 100}
_SMALL_BOX = {"dims": (3, 3, 3), "reps": 5}

#: The gated metrics.  The 9600-particle box is the campaign's rate
#: box; the 1728-particle box is ``repro profile --smoke``'s.
METRICS: Sequence[Metric] = (
    Metric("engine/reuse", "numpy", _BOX, _engine_rate),
    Metric("engine/reuse-cext", "cext", _BOX, _engine_rate),
    Metric("machine/reuse", "numpy", {**_BOX, "mode": "run"}, _machine_rate),
    Metric("machine/reuse-cext", "cext", {**_BOX, "mode": "run"},
           _machine_rate),
    Metric("machine/reuse-eval", "numpy", {**_BOX, "mode": "eval"},
           _machine_rate),
    Metric("batch/k64_ppc2", "numpy", _BATCH, _batch_rate),
    Metric("batch/k64_ppc2-cext", "cext", _BATCH, _batch_rate),
    Metric("machine_1728p", "cext", {**_SMALL_BOX, "phase_steps": 1},
           _machine_step),
    Metric("distributed_1728p", "numpy", {**_SMALL_BOX, "traj_steps": 1},
           _distributed_step),
)


def _summary(metric: Metric, samples: List[float]) -> Dict[str, Any]:
    q1, q3 = np.percentile(samples, [25, 75])
    return {
        "backend": metric.backend,
        # Through JSON, so a fresh document compares equal to a loaded one.
        "config": json.loads(json.dumps(metric.config)),
        "samples": samples,
        "median": statistics.median(samples),
        "iqr": float(q3 - q1),
    }


def run_bench(metrics: Sequence[Metric] = METRICS) -> Dict[str, Any]:
    """Time ``metrics`` as interleaved repeats; returns the document.

    A metric whose backend is unavailable is not timed; it is listed
    under ``"unavailable"`` with the backend's probe outcome.
    """
    status = backend_status()
    live, unavailable = [], {}
    for m in metrics:
        probe = status.get(m.backend, "unknown backend")
        if probe == "available":
            live.append(m)
        else:
            unavailable[m.name] = {"backend": m.backend, "status": probe}
    for m in live:  # warm-up: plan caches, tables, compiled kernels
        m.run(m.backend, **m.config)
    samples: Dict[str, List[float]] = {m.name: [] for m in live}
    for _ in range(REPEATS):
        for m in live:
            samples[m.name].append(float(m.run(m.backend, **m.config)))
    return {
        "bench": "gate",
        "cpu_count": os.cpu_count() or 1,
        "repeats": REPEATS,
        "threshold": THRESHOLD,
        "metrics": {m.name: _summary(m, samples[m.name]) for m in live},
        "unavailable": unavailable,
    }


def check_gate(baseline: Dict[str, Any], fresh: Dict[str, Any]) -> List[str]:
    """Failure messages of ``fresh`` against ``baseline``; empty passes."""
    base, got = baseline.get("metrics", {}), fresh.get("metrics", {})
    off = fresh.get("unavailable", {})
    if not base:
        return ["the baseline holds no metrics"]
    failures = []
    for name in sorted(set(base) | set(got) | set(off)):
        b, f = base.get(name), got.get(name)
        if name in off:
            failures.append(
                f"{name}: backend {off[name]['backend']!r} is "
                f"{off[name]['status']}; refusing to time a fallback"
            )
        elif b is None:
            failures.append(f"{name}: not in the baseline")
        elif f is None:
            failures.append(f"{name}: missing from the fresh run")
        elif f["backend"] != b["backend"]:
            failures.append(
                f"{name}: backend {f['backend']!r} differs from the "
                f"baseline's {b['backend']!r}"
            )
        elif f["config"] != b["config"]:
            failures.append(
                f"{name}: config {f['config']} differs from the "
                f"baseline's {b['config']}"
            )
        elif f["median"] < (1.0 - THRESHOLD) * b["median"]:
            drop = 1.0 - f["median"] / b["median"]
            failures.append(
                f"{name}: median {f['median']:.4g} is {100 * drop:.1f}% "
                f"below baseline {b['median']:.4g} "
                f"(threshold {100 * THRESHOLD:.0f}%)"
            )
    return failures


def format_bench(doc: Dict[str, Any]) -> str:
    """Per-metric table of a :func:`run_bench` document."""
    rows = [
        [name, m["backend"], m["median"], m["iqr"],
         min(m["samples"]), max(m["samples"])]
        for name, m in doc["metrics"].items()
    ]
    lines = [
        format_table(
            ["metric", "backend", "median /s", "IQR", "min", "max"],
            rows,
            precision=2,
            title=(
                f"perf gate: {doc['repeats']} interleaved rounds after a "
                f"warm-up (cpu_count={doc['cpu_count']})"
            ),
        )
    ]
    for name, off in doc["unavailable"].items():
        lines.append(f"{name}: not timed, backend {off['backend']!r} is "
                     f"{off['status']}")
    return "\n".join(lines)
