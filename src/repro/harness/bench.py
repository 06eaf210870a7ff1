"""The perf gate: a fixed metric set, timed as interleaved repeats.

``repro bench`` times every :class:`Metric` in :data:`METRICS`: one
untimed warm-up round, then :data:`REPEATS` rounds, each timing every
metric once, serially and in list order, so slow phases of a noisy
host land on every metric alike instead of on whichever ran then.
Each metric is a higher-is-better rate with a name, a force backend
and a fixed workload config; one sample is one call of an existing
timer: the rate timers below (:func:`engine_rate`, :func:`machine_rate`,
:func:`batch_rate`) or the profiling step timers.

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
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import MachineConfig
from repro.core.machine import FasdaMachine
from repro.harness.profiling import profile_distributed, profile_machine
from repro.harness.report import format_table
from repro.md.backends import backend_status, resolve_backend
from repro.md.batch import BatchedEngine
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.util.errors import ValidationError

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


def engine_rate(
    seed: int,
    dims: Tuple[int, int, int] = (5, 5, 6),
    steps: int = 30,
    force_impl: Optional[str] = None,
) -> Dict[str, Any]:
    """ReferenceEngine steps/s over its persistent CellState.

    ``force_impl`` selects the force backend (see
    :mod:`repro.md.backends`); the payload records which backend
    actually produced the number under ``"backend"`` (an unavailable
    optional backend falls back to ``"numpy"``).
    """
    system, grid = build_dataset(dims, particles_per_cell=64, seed=seed)
    eng = ReferenceEngine(system=system, grid=grid, force_impl=force_impl)
    eng.run(1)  # prime forces and warm the plan/state caches
    t0 = time.perf_counter()
    eng.run(steps)
    wall = time.perf_counter() - t0
    return {
        "backend": resolve_backend(force_impl).name,
        "state_builds": eng.state_builds,
        "final_potential": float(eng.history[-1].potential),
        "timing": {"steps_per_s": steps / wall},
    }


def machine_rate(
    seed: int,
    dims: Tuple[int, int, int] = (5, 5, 6),
    steps: int = 30,
    mode: str = "run",
    force_impl: Optional[str] = None,
) -> Dict[str, Any]:
    """FasdaMachine steps/s over its step-persistent cell state.

    ``mode="run"`` integrates (migrations update the cell state in
    place and the skin/2 trigger rebuilds it — the honest end-to-end
    number; ``update_rate`` is the share of passes that updated in
    place); ``mode="eval"`` re-evaluates forces on a frozen
    configuration (the steady-state amortization ceiling).
    ``force_impl`` selects the force backend; machine results are
    bitwise identical across backends (the float64 recheck through
    ``PairFilter.admit_r2`` stays authoritative), so only the timing
    and the recorded ``"backend"`` differ.
    """
    if mode not in ("run", "eval"):
        raise ValidationError(f"machine_rate mode must be run/eval, got {mode!r}")
    system, _ = build_dataset(dims, particles_per_cell=64, seed=seed)
    machine = FasdaMachine(MachineConfig(dims), system=system)
    machine.force_impl = force_impl
    last = machine.compute_forces(collect_traffic=True)  # warm-up
    t0 = time.perf_counter()
    if mode == "eval":
        for _ in range(steps):
            last = machine.compute_forces(collect_traffic=True)
    else:
        for _ in range(steps):
            machine.step(collect_traffic=True)
        last = machine.last_stats
    wall = time.perf_counter() - t0
    return {
        "backend": resolve_backend(force_impl).name,
        "state_builds": int(last.state_builds),
        "state_updates": int(last.state_updates),
        "update_rate": int(last.state_updates) / (steps + 1),
        "potential_energy": float(last.potential_energy),
        "timing": {"steps_per_s": steps / wall},
    }


def batch_rate(
    seed: int,
    k_systems: int = 8,
    particles_per_cell: int = 4,
    steps: int = 30,
    force_impl: Optional[str] = None,
) -> Dict[str, Any]:
    """Aggregate steps/s of the fused K-system BatchedEngine.

    ``repro batch`` runs the full K=256 sweep with its serial baseline
    (see :func:`repro.harness.jobs.run_batch_bench`).
    """
    engine = BatchedEngine(force_impl=force_impl)
    for i in range(k_systems):
        sysv, grid = build_dataset(
            (3, 3, 3), particles_per_cell=particles_per_cell, seed=seed + i
        )
        engine.add(sysv, grid)
    engine.prime()
    engine.step(2)  # warm past formation
    t0 = time.perf_counter()
    engine.step(steps)
    wall = time.perf_counter() - t0
    return {
        "k_systems": k_systems,
        "backend": engine.backend_name,
        "timing": {"aggregate_steps_per_s": k_systems * steps / wall},
    }


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

#: The gated metrics.  The 9600-particle box is the rate timers'
#: default box; the 1728-particle box is ``repro profile --smoke``'s.
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
    Metric("distributed_1728p-cext", "cext", {**_SMALL_BOX, "traj_steps": 1},
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
