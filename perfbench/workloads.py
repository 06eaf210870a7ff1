"""The benchmark's workloads (three in the manifest, one run by name);
one workload per process.

``run.py`` starts this script in a fresh interpreter with the program's
``src/`` on ``PYTHONPATH``, one BLAS/OpenMP thread, and ``TMPDIR``
inside the checkout::

    python workloads.py --workload NAME --seed N --seconds S --trace 0|1 \
        --workdir DIR

All load comes from this one process and its one simulation thread, in
a closed loop: each step, episode or job batch is issued only after the
previous one returned.  The seed builds the inputs; the program only
ever sees the generated systems.  Untraced runs print every end-to-end
metric; traced runs (``--trace 1``) measure half the window untraced and
half traced, and print every per-layer metric plus the tracing overhead.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

import checks
from metrics import (
    HAND_WORKLOADS,
    WORKLOADS,
    best_pass,
    end_to_end_names,
    fast_tail,
    median,
    metric_block,
    per_layer_names,
    percentile,
)
from tracing import JobLayerTrace

# -- workload parameters ------------------------------------------------------

#: The paper's Fig 16/18 point: 4x4x4 cells, 64 Na/cell, 2x2x2 FPGAs.
PAPER_DIMS = (4, 4, 4)
PAPER_PPC = 64
PAPER_FPGA_GRID = (2, 2, 2)
#: Float64 reference steps that carry a fresh lattice past the
#: no-migration transient, after which every machine step rebuilds.
ADVANCE_STEPS = 60
#: Seconds of the run between two timed constructions (plus priming
#: pass); the median of all of them is ``setup_s``.
MACHINE_SETUP_EVERY = 1.0
DISTRIBUTED_SETUP_EVERY = 2.5
CHAOS_SETUP_EVERY = 0.5
JOB_SETUP_EVERY = 1.0
#: Largest force error of the distributed bank, relative to the largest
#: machine force component, on the same positions.
DISTRIBUTED_FORCE_RTOL = 1e-5

CHAOS_PPC = 8
CHAOS_NODES = (8, 4)
EPISODE_STEPS = 120
RESCALE_EVERY = 20
DROP_RATE = 0.02
CORRUPT_RATE = 0.01
#: Five attempts per packet put a position-exchange loss (and with it a
#: stale-halo substitution) near 1e-9 per packet.
RETRY_BUDGET = 5
CRASH_RATE = 0.01
SLOWDOWN_RATE = 0.02
SHADOW_INTERVAL = 5
#: Seed of the packet and node fault plans.  It is part of the workload,
#: not drawn from ``--seed``: the fault draws alone decide which
#: rescales commit and how many recoveries run, so with it fixed every
#: seed's episode does the same protocol work (4 committed rescales,
#: 1 aborted and rolled back, 8 recoveries) on its own particles.
CHAOS_FAULT_SEED = 12

N_JOBS = 100
JOB_DIMS = (3, 3, 3)
JOB_PPC = (2, 4, 8, 16)
JOB_STEPS = (10, 40)
JOB_PRIORITIES = 3
POISON_RATE = 0.05
JOB_CHUNK_STEPS = 50
JOB_MAX_SYSTEMS = 64
JOB_SAMPLE = 3
#: Seed of the job schedule (sizes, budgets, priorities, poison) —
#: part of the workload, like the fault seed of the chaos workload.
JOB_SCHEDULE_SEED = 0x4A4F4253

BACKEND = "cext"


class Outcome:
    """What one workload measured, and how many operations failed."""

    def __init__(self) -> None:
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {n: 0.0 for n in per_layer_names()}
        self.attempted = 0
        self.failed = 0
        self.report: List[str] = []

    def note(self, line: str) -> None:
        self.report.append(line)


# -- shared set-up ------------------------------------------------------------


def require_backend() -> None:
    """Refuse to run on a silent numpy fallback; warm the compiled kernels.

    Importing the backends builds (or loads from the ``TMPDIR`` cache)
    the C extension; a small machine pass then runs every kernel once,
    all before any timer starts.
    """
    from repro.core.config import MachineConfig
    from repro.core.machine import FasdaMachine
    from repro.md.backends import backend_status, resolve_backend
    from repro.md.dataset import build_dataset
    from repro.md.engine import ReferenceEngine

    if resolve_backend(BACKEND).name != BACKEND:
        raise SystemExit(
            f"force backend {BACKEND!r} unavailable "
            f"({backend_status().get(BACKEND)}); refusing to time a fallback"
        )
    system, grid = build_dataset((3, 3, 3), particles_per_cell=8, seed=1)
    warm = FasdaMachine(MachineConfig((3, 3, 3)), system=system)
    warm.reuse_state, warm.force_impl = True, BACKEND
    warm.run(2, record_every=0, collect_traffic=True)
    ReferenceEngine(
        system, grid, reuse_state=True, force_impl=BACKEND
    ).run(2, record_every=0)


def steady_input(dims, ppc: int, seed: int):
    """Seeded dataset advanced past the lattice transient.

    Returns ``(system, grid, reference_steps_per_s)``: the float64
    ``ReferenceEngine`` advance is also the plain single-threaded
    baseline on this input.
    """
    from repro.md.dataset import build_dataset
    from repro.md.engine import ReferenceEngine

    system, grid = build_dataset(dims, particles_per_cell=ppc, seed=seed)
    engine = ReferenceEngine(system, grid, reuse_state=True, force_impl=BACKEND)
    t0 = time.perf_counter()
    engine.run(ADVANCE_STEPS, record_every=0)
    rate = ADVANCE_STEPS / (time.perf_counter() - t0)
    del engine
    gc.collect()
    return system, grid, rate


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Setups:
    """Timed builds spread over the whole run; their median is ``setup_s``.

    :meth:`timed` builds an object the workload goes on to use;
    :meth:`tick`, called between closed-loop operations, builds a spare
    every ``every`` seconds and drops it.  Sampling set-up across the
    window, not only before it, lets the median follow the host speed
    the rest of the run saw.  The cyclic collector runs before each
    build, outside its time, so the build never pays for earlier garbage.
    """

    def __init__(self, build: Callable[[], object], every: float) -> None:
        self.build = build
        self.every = every
        self.seconds: List[float] = []
        self._last = time.perf_counter()

    def timed(self):
        gc.collect()
        t0 = time.perf_counter()
        obj = self.build()
        self._last = time.perf_counter()
        self.seconds.append(self._last - t0)
        return obj

    def tick(self) -> None:
        if time.perf_counter() - self._last >= self.every:
            self.timed()


def windows(seconds: float, trace: bool) -> List[Tuple[float, bool]]:
    """(length, traced) of each measured window of one run."""
    if trace:
        return [(seconds / 2.0, False), (seconds / 2.0, True)]
    return [(seconds, False)]


def step_loop(step: Callable[[], None], seconds: float, after: Callable[[], None]):
    """Closed loop of ``step()`` calls for ``seconds``; per-call wall times.

    ``after()`` runs after each call, outside its sample.
    """
    samples = []
    start = t1 = time.perf_counter()
    deadline = start + seconds
    while t1 < deadline:
        t0 = time.perf_counter()
        step()
        t1 = time.perf_counter()
        samples.append(t1 - t0)
        after()
        t1 = time.perf_counter()
    return samples


def latency_notes(out: Outcome, label: str, samples: List[float]) -> None:
    p90 = percentile(samples, 90)
    s = sorted(samples)
    out.note(
        f"{label}: n={len(samples)} p25={1e3 * s[len(s) // 4]:.2f} ms "
        f"mean={1e3 * sum(s) / len(s):.2f} ms "
        f"p50={1e3 * median(samples):.2f} ms "
        + (f"p90={1e3 * p90:.2f} ms" if p90 is not None else
           "p90=unreported (under 10 samples beyond it)")
    )


def trace_overhead(out: Outcome, untraced_rate: float, traced_rate: float) -> None:
    out.layer["trace.untraced_steps_per_s"] = untraced_rate
    out.layer["trace.traced_steps_per_s"] = traced_rate
    out.layer["trace.overhead_steps_per_s"] = traced_rate - untraced_rate


def phase_metrics(
    out: Outcome, prefix: str, snap: Dict[str, float], phases, steps: int,
    wall: float,
) -> None:
    """Per-step phase times and the share of step wall they leave out.

    ``phases`` lists the additive phases; nested ones (``ring`` inside
    ``traffic``) are reported but not summed.
    """
    for name in phases:
        out.layer[f"{prefix}.{name}_ms"] = 1e3 * snap.get(name, 0.0) / steps
    accounted = sum(snap.get(name, 0.0) for name in phases if name != "ring")
    out.layer[f"{prefix}.unaccounted_frac"] = 1.0 - accounted / wall


# -- machine-paper ------------------------------------------------------------


def machine_paper(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.config import MachineConfig
    from repro.core.machine import FasdaMachine
    from repro.harness.acceptance import (
        ENERGY_REL_TOLERANCE,
        FORCE_REL_TOLERANCE,
    )
    from repro.md.forcefield import LennardJonesKernel, compute_forces_kernel

    out = Outcome()
    system, grid, ref_rate = steady_input(PAPER_DIMS, PAPER_PPC, seed)
    cfg = MachineConfig(PAPER_DIMS, PAPER_FPGA_GRID)

    def build():
        m = FasdaMachine(cfg, system=system)
        m.reuse_state, m.force_impl = True, BACKEND
        m.run(0, collect_traffic=True)
        return m

    setups = Setups(build, MACHINE_SETUP_EVERY)
    m = setups.timed()
    rates = {}
    for length, traced in windows(seconds, trace):
        m.timings.enabled = traced
        m.timings.reset()
        builds0 = m.last_stats.state_builds
        datapath = [0, 0]

        def after():
            datapath[0] += m.last_stats.total_candidates
            datapath[1] += m.last_stats.total_accepted
            setups.tick()

        samples = step_loop(lambda: m.step(collect_traffic=True), length, after)
        steps, wall = len(samples), sum(samples)
        rates[traced] = 1.0 / fast_tail(samples)
        out.attempted += steps
        if not traced:
            out.e2e["steps_per_s"] = rates[traced]
            latency_notes(out, "machine step", samples)
            continue
        phase_metrics(
            out, "machine", m.timings.snapshot(),
            ("build", "force", "traffic", "ring", "integrate"), steps, wall,
        )
        m.timings.enabled = False
        out.layer["machine.candidates_per_step"] = datapath[0] / steps
        out.layer["machine.admitted_per_step"] = datapath[1] / steps
        out.layer["machine.filter_accept_ratio"] = datapath[1] / datapath[0]
        out.layer["cellstate.rebuild_frac"] = (
            m.last_stats.state_builds - builds0
        ) / steps
        out.layer["reference.steps_per_s"] = ref_rate
        trace_overhead(out, rates[False], rates[True])
    out.e2e["setup_s"] = median(setups.seconds)
    out.note(f"N={m.system.n} reference advance {ref_rate:.1f} steps/s")
    out.note(f"setup: {len(setups.seconds)} builds")

    out.e2e["peak_rss_mb"] = peak_rss_mb()
    ref_forces, ref_potential = compute_forces_kernel(
        m.system, grid, LennardJonesKernel()
    )
    problems = checks.check_machine_forces(
        m.forces, m.last_stats.potential_energy, ref_forces, ref_potential,
        FORCE_REL_TOLERANCE, ENERGY_REL_TOLERANCE,
    )
    if problems:
        out.failed = out.attempted
        out.note("machine check FAILED: " + "; ".join(problems))
    return out


# -- distributed-paper --------------------------------------------------------


def distributed_paper(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.core.config import MachineConfig
    from repro.core.distributed import DistributedMachine

    out = Outcome()
    system, _, ref_rate = steady_input(PAPER_DIMS, PAPER_PPC, seed)
    cfg = MachineConfig(PAPER_DIMS, PAPER_FPGA_GRID)

    def build():
        d = DistributedMachine(cfg, system=system)
        d.reuse_state, d.force_impl = True, BACKEND
        d.run(0)
        return d

    setups = Setups(build, DISTRIBUTED_SETUP_EVERY)
    d = setups.timed()
    rates = {}
    for length, traced in windows(seconds, trace):
        d.timings.enabled = traced
        d.timings.reset()
        builds0 = d.state_builds
        packets0 = (d.total_position_packets, d.total_force_packets)
        samples = step_loop(d.step, length, setups.tick)
        steps, wall = len(samples), sum(samples)
        rates[traced] = 1.0 / fast_tail(samples)
        out.attempted += steps
        if not traced:
            out.e2e["steps_per_s"] = rates[traced]
            latency_notes(out, "distributed step", samples)
            continue
        phase_metrics(
            out, "distributed", d.timings.snapshot(),
            ("build", "exchange", "force", "integrate"), steps, wall,
        )
        d.timings.enabled = False
        out.layer["distributed.position_packets_per_step"] = (
            d.total_position_packets - packets0[0]
        ) / steps
        out.layer["distributed.force_packets_per_step"] = (
            d.total_force_packets - packets0[1]
        ) / steps
        out.layer["distributed.state_rebuild_frac"] = (
            d.state_builds - builds0
        ) / steps
        out.layer["reference.steps_per_s"] = ref_rate
        trace_overhead(out, rates[False], rates[True])
    out.e2e["setup_s"] = median(setups.seconds)
    out.note(f"N={d.system.n} nodes={d.config.n_fpgas} "
             f"setup: {len(setups.seconds)} builds")

    out.e2e["peak_rss_mb"] = peak_rss_mb()
    problems = checks.check_distributed_forces(
        *distributed_vs_machine(d), DISTRIBUTED_FORCE_RTOL
    )
    if problems:
        out.failed = out.attempted
        out.note("distributed check FAILED: " + "; ".join(problems))
    return out


def distributed_vs_machine(d) -> Tuple[np.ndarray, int, np.ndarray, int]:
    """The distributed machine's last force bank and its position packets
    per pass, with the single machine's bank and accounted packets on the
    same positions.

    The packets are those of one more distributed pass on the positions
    of the last step.
    """
    from repro.core.machine import FasdaMachine

    bank = d.forces
    sent0 = d.total_position_packets
    d.compute_forces()
    packets = d.total_position_packets - sent0
    single = FasdaMachine(d.config, system=d.system)
    stats = single.compute_forces(collect_traffic=True)
    expected = sum(
        int(np.ceil(r / d.config.records_per_packet))
        for r in stats.position_records.values()
    )
    return bank, packets, single.forces, expected


# -- distributed-chaos --------------------------------------------------------


def chaos_machine(system, faults: bool, fault_seed: int = CHAOS_FAULT_SEED):
    """An 8-node machine on ``system``, primed; faulted or fault-free."""
    from repro.core.config import MachineConfig
    from repro.core.distributed import DistributedMachine
    from repro.core.elasticity import fpga_grid_for
    from repro.faults import (
        FaultInjector,
        FaultPlan,
        NodeFaultPlan,
        TransportConfig,
    )

    kwargs = {}
    if faults:
        kwargs = dict(
            injector=FaultInjector(
                FaultPlan(
                    seed=fault_seed, drop_rate=DROP_RATE,
                    corrupt_rate=CORRUPT_RATE,
                )
            ),
            transport=TransportConfig(retry_budget=RETRY_BUDGET),
            node_faults=NodeFaultPlan(
                seed=fault_seed, crash_rate=CRASH_RATE,
                slowdown_rate=SLOWDOWN_RATE,
            ),
            shadow_interval=SHADOW_INTERVAL,
        )
    dims = PAPER_DIMS
    m = DistributedMachine(
        MachineConfig(dims, fpga_grid_for(dims, CHAOS_NODES[0])),
        system=system, **kwargs,
    )
    m.reuse_state, m.force_impl = True, BACKEND
    m.run(0)
    return m


def machine_state(m) -> Dict[str, object]:
    return {
        "positions": m.system.positions.copy(),
        "velocities": m.velocities.copy(),
        "forces": m.forces.copy(),
        "fpga_grid": tuple(m.config.fpga_grid),
    }


def chaos_episode(
    m,
    schedule: Optional[Dict[int, int]] = None,
    steps: int = EPISODE_STEPS,
    every: int = RESCALE_EVERY,
    after: Optional[Callable[[], None]] = None,
) -> dict:
    """Run one episode; rescale toward the other node count every ``every``.

    With ``schedule`` (boundary step -> node count) the episode instead
    replays exactly those rescales — the fault-free reference run.
    ``times`` holds each iteration's wall time: its ``step()`` plus the
    ``rescale()`` that follows it, if any.  ``step_s`` holds the steps
    alone.  The state snapshots taken around each rescale attempt, and
    ``after()``, run outside both.
    """
    committed: Dict[int, int] = {}
    grids, aborts, times, step_s, rescale_s = [], [], [], [], []
    target = 1
    for i in range(1, steps + 1):
        t0 = time.perf_counter()
        m.step()
        step_s.append(time.perf_counter() - t0)
        spent = step_s[-1]
        if i % every == 0 and i < steps:
            if schedule is None:
                before = machine_state(m)
                t0 = time.perf_counter()
                ok = m.rescale(CHAOS_NODES[target])
                rescale_s.append(time.perf_counter() - t0)
                spent += rescale_s[-1]
                if ok:
                    committed[i] = CHAOS_NODES[target]
                    target ^= 1
                else:
                    aborts.append((before, machine_state(m)))
            elif i in schedule and not m.rescale(schedule[i]):
                raise RuntimeError("fault-free replay rescale aborted")
            grids.append(tuple(m.config.fpga_grid))
        times.append(spent)
        if after is not None:
            after()
    return {
        "times": times,
        "step_s": step_s,
        "committed": committed,
        "aborts": aborts,
        "rescale_s": rescale_s,
        "final": dict(machine_state(m), grids=grids),
    }


def chaos_digest(final: dict) -> bytes:
    return checks.state_digest(
        (final["positions"], final["velocities"], final["forces"],
         np.asarray(final["grids"]))
    )


def distributed_chaos(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    system, _, _ = steady_input(PAPER_DIMS, CHAOS_PPC, seed)
    setups = Setups(lambda: chaos_machine(system, True), CHAOS_SETUP_EVERY)
    rates = {}
    first: Optional[dict] = None
    first_digest = b""
    for length, traced in windows(seconds, trace):
        passes, cycles = [], []
        deadline = time.perf_counter() + length
        while not passes or time.perf_counter() < deadline:
            m = setups.timed()
            m.timings.enabled = traced
            ep = chaos_episode(m, after=setups.tick)
            passes.append(ep["times"])
            cycles += [
                sum(ep["times"][i:i + 2 * RESCALE_EVERY])
                for i in range(0, EPISODE_STEPS, 2 * RESCALE_EVERY)
            ]
            out.attempted += EPISODE_STEPS
            if first is None:
                first, first_digest = ep, chaos_digest(ep["final"])
            elif chaos_digest(ep["final"]) != first_digest:
                out.failed += EPISODE_STEPS
                out.note("chaos check FAILED: episode diverged from the first")
            if traced:
                chaos_layers(out, m, ep)
        # Episodes repeat the same work iteration by iteration, so each
        # iteration is timed at its fastest across the window's episodes.
        rates[traced] = EPISODE_STEPS / best_pass(passes)
        if not traced:
            out.e2e["steps_per_s"] = rates[traced]
            out.note(f"chaos: {len(passes)} episodes")
            latency_notes(out, f"chaos {2 * RESCALE_EVERY}-step cycle", cycles)
        else:
            trace_overhead(out, rates[False], rates[True])
    out.e2e["setup_s"] = median(setups.seconds)
    out.note(
        f"episode: {len(first['committed'])} committed rescales, "
        f"{len(first['aborts'])} aborted; setup: {len(setups.seconds)} builds"
    )

    out.e2e["peak_rss_mb"] = peak_rss_mb()
    fault_free = chaos_machine(system, False)
    replay = chaos_episode(fault_free, first["committed"])
    problems = checks.check_chaos_replay(first["final"], replay["final"])
    problems += checks.check_rollbacks(first["aborts"])
    problems += checks.check_distributed_forces(
        *distributed_vs_machine(fault_free), DISTRIBUTED_FORCE_RTOL
    )
    if problems:
        out.failed += EPISODE_STEPS
        out.note("chaos check FAILED: " + "; ".join(problems))
    return out


def chaos_layers(out: Outcome, m, ep: dict) -> None:
    """Per-layer counters of one traced episode (identical every episode).

    The phases are set against the episode's ``step()`` time only, so
    neither rescale calls nor the benchmark's snapshots count as
    unaccounted step time.
    """
    steps = EPISODE_STEPS
    phase_metrics(
        out, "distributed", m.timings.snapshot(),
        ("build", "exchange", "force", "integrate"), steps, sum(ep["step_s"]),
    )
    ts = m.transport_stats
    out.layer["distributed.position_packets_per_step"] = (
        m.total_position_packets / steps
    )
    out.layer["distributed.force_packets_per_step"] = m.total_force_packets / steps
    out.layer["distributed.state_rebuild_frac"] = m.state_builds / steps
    out.layer["transport.retransmits_per_step"] = ts.retransmits / steps
    out.layer["transport.delivered_ratio"] = (
        ts.delivered / ts.packets_sent if ts.packets_sent else 0.0
    )
    out.layer["transport.overhead_cycles_per_step"] = ts.overhead_cycles / steps
    summary = m.recovery_summary()
    out.layer["recovery.events"] = summary["n_recoveries"]
    out.layer["recovery.shadow_records_per_step"] = (
        summary["shadow_traffic_records"] / steps
    )
    attempts = len(ep["rescale_s"])
    out.layer["rescale.ms_per_call"] = 1e3 * sum(ep["rescale_s"]) / attempts
    out.layer["rescale.committed_ratio"] = len(ep["committed"]) / attempts
    out.layer["rescale.migration_packets"] = summary["rescale_migration_packets"]
    out.layer["degradation.records"] = len(m.degradation_log)


# -- jobs-durable -------------------------------------------------------------


class JobSpec(NamedTuple):
    """One generated job: its system and grid, budget, priority, poison."""

    system: object
    grid: object
    steps: int
    priority: int
    poisoned: bool


def job_inputs(seed: int) -> List[JobSpec]:
    """The seeded closed batch: sizes, budgets, priorities and poison.

    The batch is stratified: every size class, budget and priority
    appears in fixed proportions and exactly ``POISON_RATE`` of the jobs
    are poisoned.  Which job gets what, and how each poisoned job is
    poisoned, is drawn once from :data:`JOB_SCHEDULE_SEED`; the seed
    draws the particles of every job.  The service's batching, chunking,
    quarantines and retries depend on that schedule alone, so every seed
    puts the same work through it.
    """
    from repro.faults import JobChaosPlan
    from repro.md.dataset import build_dataset

    schedule = np.random.default_rng(JOB_SCHEDULE_SEED)
    ppcs = schedule.permutation(np.resize(JOB_PPC, N_JOBS))
    budgets = schedule.permutation(
        np.rint(np.linspace(JOB_STEPS[0], JOB_STEPS[1], N_JOBS)).astype(int)
    )
    priorities = schedule.permutation(np.arange(N_JOBS) % JOB_PRIORITIES)
    poisoned = set(
        schedule.choice(N_JOBS, round(POISON_RATE * N_JOBS), replace=False).tolist()
    )
    plan = JobChaosPlan(seed=JOB_SCHEDULE_SEED, poison_rate=1.0)
    rng = np.random.default_rng([seed, 0x4A4F4253])
    jobs = []
    for i in range(N_JOBS):
        system, grid = build_dataset(
            JOB_DIMS, particles_per_cell=int(ppcs[i]),
            seed=int(rng.integers(2**31 - 1)),
        )
        if i in poisoned:
            system = plan.poison(system, i)
        jobs.append(
            JobSpec(system, grid, int(budgets[i]), int(priorities[i]),
                    i in poisoned)
        )
    return jobs


def jobs_round(jobs: List[JobSpec], workdir: str) -> dict:
    """Submit the whole batch at t=0 and drain it through ``run_jobs``.

    ``segments`` are the wall times between successive chunk boundaries,
    from submission to the end of the drain, without the time spent in
    this function's own ``on_chunk`` bookkeeping.
    """
    from repro.faults import GuardConfig
    from repro.harness.jobs import DONE, QUARANTINED, JobQueue, run_jobs

    t_submit = time.perf_counter()
    queue = JobQueue()
    ids = [
        queue.submit(j.system, j.grid, steps=j.steps, priority=j.priority)
        for j in jobs
    ]
    open_ids = set(ids)
    stamps: Dict[int, float] = {}
    segments: List[float] = []
    resumed = [t_submit]

    def on_chunk(_chunk, _engine):
        now = time.perf_counter()
        segments.append(now - resumed[0])
        for jid in [j for j in open_ids if queue.status(j) in (DONE, QUARANTINED)]:
            stamps[jid] = now
            open_ids.discard(jid)
        resumed[0] = time.perf_counter()

    summary = run_jobs(
        queue, force_impl=BACKEND, max_systems=JOB_MAX_SYSTEMS,
        chunk_steps=JOB_CHUNK_STEPS, guard=GuardConfig(), workdir=workdir,
        retry_attempts=1, on_chunk=on_chunk,
    )
    end = time.perf_counter()
    segments.append(end - resumed[0])
    for jid in open_ids:
        stamps[jid] = end
    statuses = {i: queue.status(jid) for i, jid in enumerate(ids)}
    results = {
        i: (queue.result(jid).positions, queue.result(jid).velocities)
        for i, jid in enumerate(ids) if statuses[i] == DONE
    }
    return {
        "wall": end - t_submit,
        "segments": segments,
        "turnaround": [stamps[jid] - t_submit for jid in ids],
        "summary": summary,
        "statuses": statuses,
        "results": results,
    }


def batch_engine(jobs: List[JobSpec]):
    """The service's engine, primed on the first full co-batchable batch.

    The jobs' set-up analogue of a machine's construction plus priming
    pass: admit the first ``JOB_MAX_SYSTEMS`` healthy jobs small enough
    to share a batch, in submission order, and pack and prime them.
    """
    from repro.faults import GuardConfig
    from repro.harness.jobs import BATCH_MAX_N_DEFAULT
    from repro.md.batch import BatchedEngine

    engine = BatchedEngine(force_impl=BACKEND, guard=GuardConfig())
    batch = [
        j for j in jobs
        if not j.poisoned and j.system.n <= BATCH_MAX_N_DEFAULT
    ][:JOB_MAX_SYSTEMS]
    for job in batch:
        engine.add(job.system, job.grid)
    engine.prime()
    return engine


def job_digests(rnd: dict) -> Dict[int, bytes]:
    return {
        i: hashlib.sha256(
            status.encode()
            + (checks.state_digest(rnd["results"][i]) if i in rnd["results"] else b"")
        ).digest()
        for i, status in rnd["statuses"].items()
    }


def solo_results(jobs: List[JobSpec], sample: List[int]):
    """Sampled jobs run alone on the solo oracle engine."""
    from repro.md.batch import solo_oracle_impl
    from repro.md.engine import ReferenceEngine

    out = {}
    for i in sample:
        job = jobs[i]
        system = job.system.copy()
        ReferenceEngine(
            system, job.grid, reuse_state=True,
            force_impl=solo_oracle_impl(BACKEND),
        ).run(job.steps, record_every=0)
        out[i] = (system.positions, system.velocities)
    return out


def jobs_durable(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    from repro.harness.jobs import DONE, QUARANTINED

    out = Outcome()
    jobs = job_inputs(seed)
    expected = {
        i: (QUARANTINED if j.poisoned else DONE) for i, j in enumerate(jobs)
    }
    healthy = [i for i, j in enumerate(jobs) if not j.poisoned]
    rng = np.random.default_rng([seed, 0x534F4C4F])
    sample = sorted(
        {int(i) for i in rng.choice(healthy, JOB_SAMPLE, replace=False)}
        | {max(healthy, key=lambda i: jobs[i].system.n)}
    )
    setups = Setups(lambda: batch_engine(jobs), JOB_SETUP_EVERY)
    setups.timed()
    root = os.path.join(workdir, f"jobs-{os.getpid()}")
    rates, turnaround = {}, []
    reference: Optional[Dict[int, bytes]] = None
    first_results = None
    n_round = 0
    for length, traced in windows(seconds, trace):
        walls, rounds = 0.0, []
        tracer = JobLayerTrace()
        while walls < length:
            setups.tick()
            wd = os.path.join(root, f"round-{n_round}")
            n_round += 1
            if traced:
                with tracer.active():
                    rnd = jobs_round(jobs, wd)
            else:
                rnd = jobs_round(jobs, wd)
            shutil.rmtree(wd, ignore_errors=True)
            walls += rnd["wall"]
            if not traced:
                turnaround += rnd["turnaround"]
            rounds.append(rnd)
            out.attempted += len(jobs)
            bad = set(checks.check_job_outcomes(rnd["statuses"], expected))
            digests = job_digests(rnd)
            if reference is None:
                reference, first_results = digests, rnd["results"]
            else:
                bad |= {i for i in digests if digests[i] != reference[i]}
            out.failed += len(bad)
            if bad:
                out.note(f"jobs check FAILED: jobs {sorted(bad)}")
            del rnd["results"]
        # Rounds drain the same batch chunk by chunk, so each stretch
        # between chunk boundaries is timed at its fastest across rounds.
        passes = [r["segments"] for r in rounds]
        alike = [p for p in passes if len(p) == len(passes[0])]
        if len(alike) < len(passes):
            out.note(f"jobs: {len(passes) - len(alike)} rounds chunked differently")
        rates[traced] = rounds[0]["summary"]["total_steps"] / best_pass(alike)
        if not traced:
            out.e2e["steps_per_s"] = rates[traced]
            latency_notes(out, "job turnaround", turnaround)
        else:
            jobs_layers(out, tracer, rounds, walls)
            trace_overhead(out, rates[False], rates[True])
    shutil.rmtree(root, ignore_errors=True)
    out.e2e["setup_s"] = median(setups.seconds)
    out.note(f"{n_round} rounds of {len(jobs)} jobs, {len(jobs) - len(healthy)} "
             f"poisoned; setup: {len(setups.seconds)} builds")

    out.e2e["peak_rss_mb"] = peak_rss_mb()
    bad = checks.check_job_results(first_results, solo_results(jobs, sample))
    if bad:
        out.failed += len(bad)
        out.note(f"jobs check FAILED: solo mismatch for jobs {bad}")
    return out


def jobs_layers(out: Outcome, tracer: JobLayerTrace, rounds: List[dict],
                walls: float) -> None:
    n = len(rounds)
    s = tracer.spans
    out.layer["batch.step_busy_frac"] = s["step"].seconds / walls
    out.layer["batch.step_ms_per_chunk"] = s["step"].ms / s["step"].calls
    out.layer["batch.add_ms"] = s["add"].ms / n
    out.layer["batch.remove_ms"] = s["remove"].ms / n
    out.layer["batch.extract_ms"] = s["extract"].ms / n
    out.layer["checkpoint.save_ms_per_call"] = s["save"].ms / s["save"].calls
    out.layer["checkpoint.save_calls"] = s["save"].calls / n
    out.layer["checkpoint.bytes_written"] = tracer.bytes_written / n
    out.layer["journal.fsync_calls"] = tracer.journal_fsync.calls / n
    out.layer["journal.fsync_ms"] = tracer.journal_fsync.ms / n
    out.layer["jobs.slot_occupancy"] = tracer.segments_stepped / (
        s["step"].calls * JOB_MAX_SYSTEMS
    )
    for key, name in (
        ("chunks", "jobs.chunks"),
        ("batches_formed", "jobs.batches_formed"),
        ("swaps", "jobs.swaps"),
        ("quarantined", "jobs.quarantined"),
        ("retries", "jobs.retries"),
    ):
        out.layer[name] = sum(r["summary"][key] for r in rounds) / n


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[n for n, _ in WORKLOADS + HAND_WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from repro.md.backends import resolve_backend

    require_backend()
    trace = bool(args.trace)
    if args.workload == "machine-paper":
        out = machine_paper(args.seed, args.seconds, trace)
    elif args.workload == "distributed-paper":
        out = distributed_paper(args.seed, args.seconds, trace)
    elif args.workload == "distributed-chaos":
        out = distributed_chaos(args.seed, args.seconds, trace)
    else:
        out = jobs_durable(args.seed, args.seconds, trace, args.workdir)

    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"backend={resolve_backend(BACKEND).name} cpu_count={os.cpu_count()}"
    )
    for line in out.report:
        print(line)
    if trace:
        metrics = metric_block(out.layer, per_layer_names())
    else:
        metrics = metric_block(out.e2e, end_to_end_names())
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted={out.attempted} failed={out.failed}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
