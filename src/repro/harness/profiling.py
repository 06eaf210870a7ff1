"""Phase-timed, bitwise-checked profiling of the machine/distributed step.

One entry point, :func:`run_profile`, drives the whole "where does a
step go" story of ``repro profile``:

* **Machine phase breakdown** — a :class:`~repro.core.machine.FasdaMachine`
  on the best available compiled backend with
  :class:`~repro.core.timing.StepTimings` enabled, reporting per-phase
  seconds (build / force / traffic / ring / integrate) over full
  ``step()`` calls.
* **Bitwise checks first, speed second** — before any timing, the
  compiled ``datapath_pass`` (admission, ROM pipeline and accumulation
  in one walk of the band) is asserted bitwise against its numpy
  statement (float32 force bank and full :class:`StepStats`), the
  accounting kernels (``traffic_flat`` / ``ring_charge``) head-to-head
  against their numpy references, and the thread-pooled distributed
  run against the serial one.  The retired loop/chunked oracles are
  asserted by the tier-1 tests (``tests/oracles.py``), not here.

The step timers :func:`profile_machine` and :func:`profile_distributed`
also serve ``repro bench`` (:mod:`repro.harness.bench`), which gates
their ``machine_step_per_s`` and ``distributed_serial_per_s``.

Everything here is measurement and assertion — no simulation state of
its own — so it lives in the harness layer.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.core.rings import RingLoadModel, RingPath
from repro.md.backends import (
    backend_status,
    resolve_backend,
    ring_charge_numpy,
    traffic_flat_numpy,
)
from repro.md.dataset import build_dataset

#: ~10k-particle box (the acceptance size) and the 2k smoke box.
DEFAULT_DIMS: Tuple[int, int, int] = (5, 5, 6)
SMOKE_DIMS: Tuple[int, int, int] = (3, 3, 3)

#: The machine phases StepTimings accounts, in report order.  ``ring``
#: is charged inside ``traffic`` (nested counters, not additive).
MACHINE_PHASES: Tuple[str, ...] = (
    "build", "force", "traffic", "ring", "integrate",
)
#: Phases whose time another phase already holds.
NESTED_PHASES: Tuple[str, ...] = ("ring",)
DISTRIBUTED_PHASES: Tuple[str, ...] = (
    "build", "exchange", "force", "integrate",
)


def median_time(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn`` (at least one;
    the upper middle sample of an even count)."""
    samples = []
    for _ in range(max(1, reps)):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[len(samples) // 2]


def split_grid(dims) -> tuple:
    """A >1-node partition that divides the box evenly."""
    for axis in (2, 1, 0):
        if dims[axis] % 2 == 0:
            grid = [1, 1, 1]
            grid[axis] = 2
            return tuple(grid)
    return (dims[0], 1, 1)


def stats_signature(stats) -> dict:
    """Everything a StepStats asserts bitwise (timings excluded — they
    are wall-clock, not physics)."""
    return {
        "position_records": stats.position_records,
        "force_records": stats.force_records,
        "pr_load": {n: asdict(s) for n, s in stats.pr_load.items()},
        "fr_load": {n: asdict(s) for n, s in stats.fr_load.items()},
        "accepted": stats.accepted_per_cell.tolist(),
        "nbr_frc": stats.neighbor_force_records_per_cell.tolist(),
    }


def best_backend() -> str:
    """The fastest available force backend: ``cext`` when it compiles."""
    return resolve_backend("cext").name


# ---------------------------------------------------------------------------
# Accounting-kernel equivalence (traffic_flat / ring_charge)
# ---------------------------------------------------------------------------


def check_accounting_kernels(force_impl: str) -> Dict[str, object]:
    """Assert the backend group-by and ring range-add against numpy.

    Covers the ``traffic_flat`` and ``ring_charge`` backend contracts
    head-to-head on adversarial synthetic inputs (duplicate keys,
    zero-hop spans, wrapped spans, both ring directions).  Raises
    AssertionError on any bitwise mismatch; returns the contracts
    checked (both: every backend carries them).
    """
    backend = resolve_backend(force_impl)
    rng = np.random.default_rng(20230814)
    n = 4096
    keys = rng.integers(0, 97, n)
    weights = rng.random(n)
    aux = rng.integers(0, 10_000, n)

    for w, a in ((weights, aux), (None, aux), (weights, None), (None, None)):
        ru, rs, rm, rf = traffic_flat_numpy(keys, w, a)
        gu, gs, gm, gf = backend.traffic_flat(keys, w, a)
        assert np.array_equal(ru, gu), "traffic_flat: unique keys diverged"
        assert (rs is None) == (gs is None) and (
            rs is None or np.array_equal(rs, gs)
        ), "traffic_flat: weight sums diverged"
        assert (rm is None) == (gm is None) and (
            rm is None or np.array_equal(rm, gm)
        ), "traffic_flat: aux maxima diverged"
        assert np.array_equal(rf, gf), "traffic_flat: first rows diverged"

    for direction in (+1, -1):
        slots = 29
        k = 512
        src = rng.integers(0, slots, k)
        hops = rng.integers(0, slots, k)
        counts = rng.integers(0, 50, k)
        ref = np.zeros(slots, dtype=np.int64)
        live = (counts > 0) & (hops > 0)
        ring_charge_numpy(ref, direction, src[live], hops[live], counts[live])
        got = np.zeros(slots, dtype=np.int64)
        backend.ring_charge(got, direction, src[live], hops[live], counts[live])
        assert np.array_equal(ref, got), "ring_charge: link loads diverged"
        # And both against the per-record inject loop.
        model = RingLoadModel(RingPath(slots, direction))
        for s, h, c in zip(src[live], hops[live], counts[live]):
            d = (s + direction * h) % slots
            model.inject(int(s), int(d), int(c))
        assert np.array_equal(model.link_load, got), (
            "ring_charge: diverged from the per-record inject loop"
        )

    return {"traffic_flat": True, "ring_charge": True}


# ---------------------------------------------------------------------------
# Machine: bitwise check, phase table, rates
# ---------------------------------------------------------------------------


def profile_machine(
    dims: Tuple[int, int, int],
    reps: int,
    force_impl: Optional[str] = None,
    phase_steps: int = 5,
) -> Dict[str, object]:
    """Phase-timed machine step, bitwise-gated against the numpy sequence.

    The machine runs the ``datapath_pass`` kernel of ``force_impl``
    (best available by default); its float32
    forces and full StepStats must match the same machine on the numpy
    backend bitwise before anything is timed.
    """
    impl = force_impl or best_backend()
    fpga_grid = split_grid(dims)

    mach = FasdaMachine(MachineConfig(dims, fpga_grid))
    mach.force_impl = impl
    ref = FasdaMachine(MachineConfig(dims, fpga_grid))
    ref.force_impl = "numpy"

    mach.compute_forces()  # warm: plan/table caches + band artifacts
    mach.compute_forces()
    s_opt = mach.compute_forces(collect_traffic=True)
    s_ref = ref.compute_forces(collect_traffic=True)
    assert stats_signature(s_opt) == stats_signature(s_ref), (
        "datapath_pass StepStats diverged from the numpy sequence"
    )
    assert np.array_equal(mach.forces, ref.forces), (
        "datapath_pass float32 forces diverged from the numpy sequence"
    )

    t_opt = median_time(
        lambda: mach.compute_forces(collect_traffic=True), reps
    )

    # Phase table over full step() calls (integrate included) with the
    # lightweight counters on; overhead is a perf_counter pair per
    # phase, far below timer resolution at these sizes.
    mach.timings.enabled = True
    mach.timings.reset()
    t0 = time.perf_counter()
    for _ in range(max(1, phase_steps)):
        mach.step(collect_traffic=True)
    wall = time.perf_counter() - t0
    snap = mach.timings.snapshot() or {}
    mach.timings.enabled = False
    phases = {
        name: snap.get(name, 0.0) / max(1, phase_steps)
        for name in MACHINE_PHASES
    }

    return {
        "dims": list(dims),
        "fpga_grid": list(fpga_grid),
        "n_particles": int(mach.system.n),
        "force_impl": impl,
        "reps": reps,
        "forces_match_numpy_sequence": True,
        "machine_step_s": t_opt,
        "machine_step_per_s": 1.0 / t_opt,
        "phase_steps": phase_steps,
        "phase_step_wall_s": wall / max(1, phase_steps),
        "phases_s": phases,
    }


# ---------------------------------------------------------------------------
# Distributed: thread-pool check and rates
# ---------------------------------------------------------------------------


def profile_distributed(
    dims: Tuple[int, int, int],
    reps: int,
    traj_steps: int = 4,
    force_impl: Optional[str] = None,
) -> Dict[str, object]:
    """Serial vs thread-pooled node evaluation.

    Asserts, bitwise, a short ``parallel=True`` trajectory against the
    serial run (positions, velocities, float32 forces) before timing.
    ``cpu_count`` is recorded because the pool's speedup depends on
    it.  ``force_impl`` defaults to the process-wide backend.
    """
    fpga_grid = split_grid(dims)
    system, _ = build_dataset(dims, seed=2023)

    def machine(parallel: bool) -> DistributedMachine:
        m = DistributedMachine(
            MachineConfig(dims, fpga_grid), system=system.copy(),
            parallel=parallel,
        )
        m.force_impl = force_impl
        return m

    serial = machine(False)
    serial.compute_forces()
    t_serial = median_time(serial.compute_forces, reps)

    # Short trajectories: serial vs the thread pool.
    s_traj = machine(False)
    p_traj = machine(True)
    try:
        for _ in range(traj_steps):
            s_traj.step()
            p_traj.step()
        assert np.array_equal(
            s_traj.system.positions, p_traj.system.positions
        ), "thread-pooled positions diverged from serial"
        assert np.array_equal(s_traj.velocities, p_traj.velocities), (
            "thread-pooled velocities diverged from serial"
        )
        assert np.array_equal(s_traj.forces, p_traj.forces), (
            "thread-pooled float32 forces diverged from serial"
        )
        t_thread = median_time(p_traj.compute_forces, reps)
    finally:
        p_traj.close()

    snap = {}
    serial.timings.enabled = True
    serial.timings.reset()
    for _ in range(max(1, reps)):
        serial.step()
    snap = serial.timings.snapshot() or {}
    serial.timings.enabled = False
    phases = {
        name: snap.get(name, 0.0) / max(1, reps)
        for name in DISTRIBUTED_PHASES
    }

    return {
        "dims": list(dims),
        "fpga_grid": list(fpga_grid),
        "n_particles": int(system.n),
        "force_impl": resolve_backend(force_impl).name,
        "reps": reps,
        "cpu_count": os.cpu_count() or 1,
        "thread_trajectory_bitwise": True,
        "distributed_step_s": t_serial,
        "distributed_step_thread_s": t_thread,
        "distributed_serial_per_s": 1.0 / t_serial,
        "distributed_thread_per_s": 1.0 / t_thread,
        "thread_speedup": t_serial / t_thread,
        "phases_s": phases,
    }


# ---------------------------------------------------------------------------
# Top-level document
# ---------------------------------------------------------------------------


def run_profile(
    smoke: bool = False,
    reps: Optional[int] = None,
    force_impl: Optional[str] = None,
    dims: Optional[Tuple[int, int, int]] = None,
) -> Dict[str, object]:
    """Assemble the full profile document (see the module docstring)."""
    dims = tuple(dims) if dims else (SMOKE_DIMS if smoke else DEFAULT_DIMS)
    reps = reps if reps is not None else (1 if smoke else 5)
    impl = force_impl or best_backend()

    kernel_checks = check_accounting_kernels(impl)
    machine = profile_machine(
        dims, reps, force_impl=impl, phase_steps=2 if smoke else 5
    )
    distributed = profile_distributed(
        dims, max(1, reps if smoke else reps // 2),
        traj_steps=2 if smoke else 4,
    )
    return {
        "profile": "machine_phases",
        "smoke": smoke,
        "force_impl": impl,
        "cpu_count": os.cpu_count() or 1,
        "backend_status": backend_status(),
        "kernel_checks": kernel_checks,
        "machine": machine,
        "distributed": distributed,
    }


def format_profile(doc: Dict[str, object]) -> str:
    """Human-readable phase-breakdown table for a run_profile document."""
    m = doc["machine"]
    d = doc["distributed"]
    wall = m["phase_step_wall_s"]
    lines = [
        f"machine force pass ({m['n_particles']} particles, "
        f"force_impl={m['force_impl']}): "
        f"{m['machine_step_s'] * 1e3:.1f} ms "
        f"({m['machine_step_per_s']:.1f}/s), bitwise ok",
        f"  phase breakdown of one step(): {wall * 1e3:.2f} ms "
        "(ring within traffic):",
    ]
    rows = [(name, m["phases_s"].get(name, 0.0)) for name in MACHINE_PHASES]
    accounted = sum(sec for name, sec in rows if name not in NESTED_PHASES)
    for name, sec in rows + [("unaccounted", wall - accounted)]:
        pct = 100.0 * sec / wall if wall > 0 else 0.0
        lines.append(f"    {name:<11s} {sec * 1e3:8.2f} ms  {pct:5.1f}%")
    lines.append(
        f"distributed step ({d['n_particles']} particles, "
        f"{int(np.prod(d['fpga_grid']))} nodes, "
        f"force_impl={d['force_impl']}): serial "
        f"{d['distributed_step_s'] * 1e3:.1f} ms, thread pool "
        f"{d['distributed_step_thread_s'] * 1e3:.1f} ms "
        f"({d['thread_speedup']:.2f}x, {d['cpu_count']} cpu), bitwise ok"
    )
    for name in DISTRIBUTED_PHASES:
        sec = d["phases_s"].get(name, 0.0)
        lines.append(f"    {name:<11s} {sec * 1e3:8.2f} ms")
    return "\n".join(lines)
