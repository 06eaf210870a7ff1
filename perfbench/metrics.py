"""The benchmark's catalogue: workloads, metrics, and the percentile rule.

This module is the single source of the names, units and bounds that
``BENCHMARK.json`` at the repository root declares;
``python3 perfbench/metrics.py`` rewrites that file from here, and the
benchmark's tests check that the two agree.

Every end-to-end metric is printed by every workload (untraced runs),
and every per-layer metric by every traced run.  A per-layer metric of a
layer the workload does not run reads 0.
"""

from __future__ import annotations

import json
import math
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Seconds one run measures (``run_seconds`` in the manifest).
RUN_SECONDS = 35

#: (name, why) of every workload, in the order the manifest lists them.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "machine-paper",
        "FasdaMachine at the paper point (4x4x4 cells, 64 Na/cell, 8 FPGAs) "
        "in steady state: build, force and traffic of the single machine; "
        "control for distributed, fault and job changes",
    ),
    (
        "distributed-chaos",
        "DistributedMachine at N=512 under packet loss, node crashes, "
        "slowdowns and 8<->4 node rescales: light physics, heavy protocol",
    ),
    (
        "jobs-durable",
        "run_jobs drains ~100 seeded jobs (N 54-432, 5% poisoned) with "
        "guards, retries, an fsync journal and checkpoints",
    ),
)

#: Workloads that run by name but are not in the manifest.  On a shared
#: 2-vCPU host, whole 25 s runs of the paper-point DistributedMachine
#: ran ~1.4x slower than others at the fast tail, while the workloads
#: above stayed steady; ten seeds spread by 0.20 of their median (five
#: by 0.29) against the 0.25 bound of ``steps_per_s``.
HAND_WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "distributed-paper",
        "DistributedMachine (serial, fault-free) on the paper-point input "
        "and partition: the distributed force core and exchange at scale",
    ),
)

#: (name, unit, better, bound) — bound is the share of the parent's
#: median by which the metric may worsen.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("steps_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit) of every per-layer metric, grouped by layer.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    # core.machine (machine-paper), per step
    ("machine.build_ms", "ms"),
    ("machine.force_ms", "ms"),
    ("machine.traffic_ms", "ms"),
    ("machine.ring_ms", "ms"),
    ("machine.integrate_ms", "ms"),
    ("machine.unaccounted_frac", "ratio"),
    # core.datapath (machine-paper), per step
    ("machine.candidates_per_step", "count"),
    ("machine.admitted_per_step", "count"),
    ("machine.filter_accept_ratio", "ratio"),
    # md.cellstate
    ("cellstate.rebuild_frac", "ratio"),
    ("distributed.state_rebuild_frac", "ratio"),
    # core.distributed (distributed-chaos, and distributed-paper when run
    # by hand), per step
    ("distributed.build_ms", "ms"),
    ("distributed.exchange_ms", "ms"),
    ("distributed.force_ms", "ms"),
    ("distributed.integrate_ms", "ms"),
    ("distributed.unaccounted_frac", "ratio"),
    ("distributed.position_packets_per_step", "count"),
    ("distributed.force_packets_per_step", "count"),
    # faults + network (distributed-chaos); counts are per 120-step episode
    ("transport.retransmits_per_step", "count"),
    ("transport.delivered_ratio", "ratio"),
    ("transport.overhead_cycles_per_step", "cycles"),
    ("recovery.events", "count"),
    ("recovery.shadow_records_per_step", "count"),
    ("rescale.ms_per_call", "ms"),
    ("rescale.committed_ratio", "ratio"),
    ("rescale.migration_packets", "count"),
    ("degradation.records", "count"),
    # md.batch + harness.jobs + core.checkpoint (jobs-durable); totals
    # and counts are per drained batch
    ("batch.step_busy_frac", "ratio"),
    ("batch.step_ms_per_chunk", "ms"),
    ("batch.add_ms", "ms"),
    ("batch.remove_ms", "ms"),
    ("batch.extract_ms", "ms"),
    ("checkpoint.save_ms_per_call", "ms"),
    ("checkpoint.save_calls", "count"),
    ("checkpoint.bytes_written", "B"),
    ("journal.fsync_calls", "count"),
    ("journal.fsync_ms", "ms"),
    ("jobs.chunks", "count"),
    ("jobs.batches_formed", "count"),
    ("jobs.swaps", "count"),
    ("jobs.quarantined", "count"),
    ("jobs.retries", "count"),
    ("jobs.slot_occupancy", "ratio"),
    # md.reference (machine-paper): float64 baseline on the same input
    ("reference.steps_per_s", "1/s"),
    # tracing overhead: both halves of the traced run
    ("trace.untraced_steps_per_s", "1/s"),
    ("trace.traced_steps_per_s", "1/s"),
    ("trace.overhead_steps_per_s", "1/s"),
)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (0 < q < 100), or None when under-sampled.

    A percentile is reported only when at least :data:`MIN_BEYOND`
    samples lie beyond it — a p90 needs 100 samples.  Uses the
    nearest-rank definition, so the value is always a measured sample.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile q must be in (0, 100), got {q}")
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


#: Share of a run's step samples at or below the one throughput uses.
FAST_TAIL = 0.05


def fast_tail(samples: Sequence[float]) -> float:
    """The :data:`FAST_TAIL` quantile (nearest rank) of a timing sample.

    Throughput is taken at this sample rather than at the median: the
    host's slow stretches last from seconds to minutes and only ever add
    time, so the fast tail of a run moves with the program and hardly
    with the neighbours.
    """
    if not samples:
        raise ValueError("fast tail of an empty sample")
    return sorted(samples)[max(1, math.ceil(FAST_TAIL * len(samples))) - 1]


def best_pass(passes: Sequence[Sequence[float]]) -> float:
    """Time of a pass assembled from the fastest sample at each position.

    ``passes`` holds the per-iteration times of equally long passes
    that repeat the same work iteration by iteration (bitwise-identical
    episodes).  Each position's minimum drops whatever the host added to
    that iteration in the slower passes, so the sum follows the program
    rather than the stretch of host time a pass happened to fall in.
    """
    if not passes or not passes[0]:
        raise ValueError("best pass of no samples")
    if len({len(p) for p in passes}) != 1:
        raise ValueError("passes differ in length")
    return sum(min(column) for column in zip(*passes))


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle two if even)."""
    if not samples:
        raise ValueError("median of an empty sample")
    s = sorted(samples)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else 0.5 * (s[mid - 1] + s[mid])


def unit_of(name: str) -> str:
    """Unit of any end-to-end or per-layer metric."""
    for n, unit, *_ in END_TO_END + PER_LAYER:
        if n == name:
            return unit
    raise KeyError(f"unknown metric {name!r}")


def metric_block(values: Dict[str, float], names: List[str]) -> Dict[str, dict]:
    """``{name: {"value", "unit"}}`` for exactly ``names``; raises on gaps."""
    missing = [n for n in names if n not in values]
    extra = [n for n in values if n not in names]
    if missing or extra:
        raise KeyError(f"metrics missing {missing}, unexpected {extra}")
    return {n: {"value": float(values[n]), "unit": unit_of(n)} for n in names}


def end_to_end_names() -> List[str]:
    return [m[0] for m in END_TO_END]


def per_layer_names() -> List[str]:
    return [m[0] for m in PER_LAYER]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": _better(n)} for n, u in PER_LAYER
        ],
    }


def _better(name: str) -> str:
    """Direction of a per-layer metric (informational: no bound)."""
    higher = (
        "filter_accept_ratio", "delivered_ratio", "committed_ratio",
        "slot_occupancy", "steps_per_s",
    )
    return "higher" if name.endswith(higher) else "lower"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCHMARK.json")
    with open(path, "w") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
