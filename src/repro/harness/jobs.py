"""Crash-safe job service and batch former for many-system campaigns.

The screening workload the paper motivates (hundreds of small
replicas, each with its own step budget) maps onto
:class:`~repro.md.batch.BatchedEngine` through three pieces:

* :class:`JobQueue` — submit/status/result with priorities, per-job
  step budgets and optional wall-clock deadlines.  Input is hardened:
  duplicate submissions of the same system *object* are rejected,
  unknown ids raise :class:`~repro.util.errors.UnknownJobError`, and
  priority ties are strictly FIFO even across resubmission (ordering is
  by a monotonic enqueue sequence number, not by job id).
* :func:`run_jobs` — the batch former/scheduler: bin-packs queued jobs
  into an active batch (bounded by ``max_systems`` and optionally
  ``max_particles``), steps the fused engine in chunks, and swaps
  finished segments out / queued jobs in mid-campaign.  Because a swap
  never perturbs the other segments (see ``md/batch.py``), every job's
  trajectory is bitwise the one it would get running alone.
* The robustness layer (DESIGN.md §12): with a
  :class:`~repro.faults.health.GuardConfig` the engine quarantines
  poisoned tenants; the scheduler journals every job-state transition
  (queued/running/quarantined/preempted/done) to an append-only fsync
  JSONL, checkpoints the engine at chunk boundaries and each finished
  job's result to its own checkpoint-v2 file, enforces deadlines at
  chunk boundaries (preemption via checkpoint), and re-admits
  quarantined jobs from their last healthy snapshot at exponentially
  reduced dt until an attempt budget runs out.  A SIGKILLed service
  resumed with ``resume=True`` finishes with per-job results bitwise
  equal to an uninterrupted run: restores are bitwise, per-job
  trajectories are chunking-independent, and completed results are
  adopted from their durable files rather than recomputed.

:func:`run_batch_bench` is the measurement harness behind
``repro batch`` and the committed ``BENCH_batch.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.faults.health import GuardConfig, REASON_INPUT
from repro.md.batch import BatchedEngine
from repro.md.cells import CellGrid
from repro.md.system import ParticleSystem
from repro.util.errors import (
    JobPoisonedError,
    UnknownJobError,
    ValidationError,
)

QUEUED = "queued"
RUNNING = "running"
QUARANTINED = "quarantined"
PREEMPTED = "preempted"
DONE = "done"

#: Every state a job can be journaled in.
JOB_STATES = (QUEUED, RUNNING, QUARANTINED, PREEMPTED, DONE)

#: Default ``batch_max_n`` solo-routing threshold.  The committed
#: BENCH_batch.json crossover: co-batching wins 4.0x at N=108 but drops
#: to 0.85x by N=432, so systems past ~256 particles step faster alone.
BATCH_MAX_N_DEFAULT = 256


@dataclass
class Job:
    """One queued system with a step budget."""

    job_id: int
    system: ParticleSystem
    grid: CellGrid
    steps: int
    priority: int = 0
    thermostat: object = None
    aux: dict = field(default_factory=dict)
    status: str = QUEUED
    steps_done: int = 0
    handle: Optional[int] = None
    result: Optional[ParticleSystem] = None
    final_potential: float = 0.0
    #: Monotonic enqueue sequence: priority ties run strictly FIFO by
    #: this, and a resubmission re-joins the back of its priority class.
    seq: int = 0
    #: Wall-clock deadline (seconds from admission) enforced at chunk
    #: boundaries; ``None`` = no deadline.
    deadline_s: Optional[float] = None
    #: Poisoned runs so far (also the retry-lane level of a requeue).
    attempts: int = 0
    #: Last poison record (``PoisonRecord.asdict()``), once quarantined.
    poison: Optional[dict] = None
    #: Preemption / retry-basis checkpoint path, when one was written.
    checkpoint_path: Optional[str] = None
    # -- scheduler internals -------------------------------------------------
    key: Optional[str] = None
    retry_system: Optional[ParticleSystem] = None
    retry_steps_done: int = 0
    admitted_clock: Optional[float] = None


def job_fingerprint(job: Job) -> str:
    """Content hash identifying a job across service restarts.

    Covers the submitted dynamic state, geometry, budget, priority and
    thermostat config — everything that determines the job's trajectory
    apart from engine-level settings (journaled once per service).
    Identical resubmissions are disambiguated by the scheduler with an
    occurrence suffix, so the journal key stays unique.
    """
    from repro.md.thermostat import thermostat_meta

    h = hashlib.sha256()
    for arr in (
        job.system.positions, job.system.velocities, job.system.species,
        job.system.box,
    ):
        h.update(arr.tobytes())
    h.update(
        json.dumps(
            {
                "steps": int(job.steps),
                "priority": int(job.priority),
                "grid_dims": list(job.grid.dims),
                "cell_edge": float(job.grid.cell_edge),
                "thermostat": thermostat_meta(job.thermostat),
            },
            sort_keys=True,
        ).encode()
    )
    return h.hexdigest()[:20]


class JobQueue:
    """Submit/status/result queue feeding the batch former.

    Higher ``priority`` is admitted first; ties run in enqueue order
    (strictly FIFO, stable under resubmission).  Jobs carry their own
    thermostat and opaque ``aux`` payload (carried through checkpoints
    by the batch engine).
    """

    def __init__(self):
        self._jobs: Dict[int, Job] = {}
        self._next_id = 0
        self._next_seq = 0
        # id(system) -> job_id of every submission; the queue keeps the
        # system reference alive, so the object id stays valid.
        self._by_object: Dict[int, int] = {}

    def submit(
        self,
        system: ParticleSystem,
        grid: CellGrid,
        steps: int,
        priority: int = 0,
        thermostat=None,
        aux: Optional[dict] = None,
        deadline_s: Optional[float] = None,
    ) -> int:
        if steps <= 0:
            raise ValidationError("job step budget must be positive")
        if deadline_s is not None and deadline_s <= 0:
            raise ValidationError("deadline_s must be positive when set")
        prior = self._by_object.get(id(system))
        if prior is not None:
            raise ValidationError(
                f"this exact system object is already submitted as job "
                f"{prior}; submit a copy (system.copy()) to run it again"
            )
        job = Job(
            self._next_id, system, grid, int(steps), int(priority),
            thermostat, dict(aux) if aux else {},
            deadline_s=deadline_s,
        )
        job.seq = self._next_seq
        self._next_seq += 1
        self._jobs[job.job_id] = job
        self._by_object[id(system)] = job.job_id
        self._next_id += 1
        return job.job_id

    def status(self, job_id: int) -> str:
        return self._job(job_id).status

    def result(self, job_id: int) -> ParticleSystem:
        job = self._job(job_id)
        if job.status == QUARANTINED:
            raise JobPoisonedError(
                f"job {job_id} was quarantined "
                f"(reason {job.poison['reason']!r} at step "
                f"{job.poison['step']} after {job.attempts} attempt(s)); "
                "it has no result",
                record=job.poison,
            )
        if job.status == PREEMPTED:
            raise ValidationError(
                f"job {job_id} was preempted at {job.steps_done} steps; "
                f"its state is checkpointed at {job.checkpoint_path!r} "
                "(resubmit_preempted() re-queues it)"
            )
        if job.status != DONE:
            raise ValidationError(
                f"job {job_id} is {job.status}, not {DONE}"
            )
        return job.result

    def final_potential(self, job_id: int) -> float:
        job = self._job(job_id)
        if job.status != DONE:
            raise ValidationError(f"job {job_id} is not {DONE}")
        return job.final_potential

    def pending(self) -> List[Job]:
        """Queued jobs in admission order: priority desc, then FIFO.

        FIFO is by enqueue sequence, so a requeued (retried) job joins
        the back of its priority class instead of jumping ahead on its
        old job id.
        """
        out = [j for j in self._jobs.values() if j.status == QUEUED]
        out.sort(key=lambda j: (-j.priority, j.seq))
        return out

    def running(self) -> List[Job]:
        return [j for j in self._jobs.values() if j.status == RUNNING]

    def unfinished(self) -> int:
        """Jobs still owed work (terminal states: done/quarantined/preempted)."""
        terminal = (DONE, QUARANTINED, PREEMPTED)
        return sum(1 for j in self._jobs.values() if j.status not in terminal)

    def quarantined(self) -> List[Job]:
        return [j for j in self._jobs.values() if j.status == QUARANTINED]

    def preempted(self) -> List[Job]:
        return [j for j in self._jobs.values() if j.status == PREEMPTED]

    def requeue(self, job: Job) -> None:
        """Put a job back in the queue at the tail of its priority class."""
        job.status = QUEUED
        job.handle = None
        job.seq = self._next_seq
        self._next_seq += 1

    def resubmit_preempted(self, job_id: int) -> None:
        """Re-queue a preempted job to continue from its checkpoint."""
        job = self._job(job_id)
        if job.status != PREEMPTED:
            raise ValidationError(
                f"job {job_id} is {job.status}, not {PREEMPTED}"
            )
        if job.checkpoint_path is not None:
            from repro.core.checkpoint import load_checkpoint_v2

            job.retry_system, _ = load_checkpoint_v2(job.checkpoint_path)
            job.retry_steps_done = job.steps_done
        job.deadline_s = None
        self.requeue(job)

    def _job(self, job_id: int) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(f"unknown job id {job_id}")


# ---------------------------------------------------------------------------
# The crash-safe scheduler (``run_jobs``)
# ---------------------------------------------------------------------------


class _JobJournal:
    """Append-only JSONL of job-state transitions, durable per line.

    Every appended event is flushed and fsynced before the scheduler
    proceeds, so any event the journal reports happened is durable even
    against SIGKILL.
    """

    def __init__(self, path: str):
        dirname = os.path.dirname(path)
        if dirname:
            os.makedirs(dirname, exist_ok=True)
        self.path = path
        self._fh = open(path, "a")

    def append(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._fh.close()


def load_jobs_journal(path: str) -> List[Dict[str, Any]]:
    """Parse a jobs journal; tolerates the torn final line of a killed writer."""
    events: List[Dict[str, Any]] = []
    if not os.path.exists(path):
        return events
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a killed writer
            if isinstance(event, dict) and "event" in event:
                events.append(event)
    return events


def _fs_safe(key: str) -> str:
    return key.replace("#", "-")


class _JobService:
    """One ``run_jobs`` invocation: lanes, journal, checkpoints, retries."""

    JOURNAL_NAME = "jobs.jsonl"

    def __init__(
        self,
        queue: JobQueue,
        force_impl: Optional[str],
        max_systems: int,
        max_particles: Optional[int],
        dt_fs: float,
        shift: bool,
        chunk_steps: int,
        engine: Optional[BatchedEngine],
        guard: Optional[GuardConfig],
        workdir: Optional[str],
        resume: bool,
        retry_attempts: int,
        retry_dt_factor: float,
        checkpoint_every: int,
        job_step_timeout: Optional[int],
        now_fn: Optional[Callable[[], float]],
        on_chunk: Optional[Callable[[int, BatchedEngine], None]],
        batch_max_n: Optional[int] = None,
    ):
        if max_systems < 1:
            raise ValidationError("max_systems must be >= 1")
        if chunk_steps < 1:
            raise ValidationError("chunk_steps must be >= 1")
        if retry_attempts < 0:
            raise ValidationError("retry_attempts must be >= 0")
        if not 0.0 < retry_dt_factor <= 1.0:
            raise ValidationError("retry_dt_factor must be in (0, 1]")
        if checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        if resume and workdir is None:
            raise ValidationError("resume=True requires a workdir")
        if batch_max_n is not None and batch_max_n < 1:
            raise ValidationError("batch_max_n must be >= 1 or None")
        self.queue = queue
        self.force_impl = force_impl
        self.max_systems = max_systems
        self.max_particles = max_particles
        self.dt_fs = float(dt_fs)
        self.shift = bool(shift)
        self.chunk_steps = int(chunk_steps)
        self.engine = engine
        self.guard = guard
        self.workdir = workdir
        self.resume = bool(resume)
        self.retry_attempts = int(retry_attempts)
        self.retry_dt_factor = float(retry_dt_factor)
        self.checkpoint_every = int(checkpoint_every)
        self.job_step_timeout = job_step_timeout
        self.now_fn = now_fn or time.monotonic
        self.on_chunk = on_chunk
        self.batch_max_n = batch_max_n

        self.level = 0
        self.active: Dict[int, Job] = {}
        self.journal: Optional[_JobJournal] = None
        self.manager = None
        self.chunk_index = 0
        self._poison_seen = 0
        # Last healthy (chunk-boundary) state per job key, for retry
        # re-admission: (a call returning that state as a fresh
        # ParticleSystem, steps_done there).  At a boundary the call
        # reads the boundary's BatchSnapshot, so a system is built only
        # for a job that is actually retried.
        self._healthy: Dict[str, Tuple[Callable[[], ParticleSystem], int]] = {}
        # Counters for the summary.
        self.total_steps = 0
        self.swaps = 0
        self.batches = 0
        self.n_quarantined = 0
        self.n_retries = 0
        self.n_preempted = 0
        self.n_adopted = 0
        self.poison_records: List[dict] = []

    # -- setup ---------------------------------------------------------------

    def _assign_keys(self) -> None:
        """Fingerprint every job; disambiguate identical resubmissions."""
        seen: Dict[str, int] = {}
        for job_id in sorted(self.queue._jobs):
            job = self.queue._jobs[job_id]
            if job.key is not None:
                continue
            base = job_fingerprint(job)
            occ = seen.get(base, 0)
            seen[base] = occ + 1
            job.key = f"{base}#{occ}"

    def _open_workdir(self) -> None:
        from repro.core.checkpoint import CheckpointManager

        os.makedirs(self.workdir, exist_ok=True)
        self.manager = CheckpointManager(
            self.workdir, interval=1, keep=3, prefix="engine"
        )
        journal_path = os.path.join(self.workdir, self.JOURNAL_NAME)
        fresh = not os.path.exists(journal_path)
        self.journal = _JobJournal(journal_path)
        if fresh:
            self.journal.append({
                "event": "service",
                "dt_fs": self.dt_fs,
                "force_impl": self.force_impl,
                "chunk_steps": self.chunk_steps,
                "guard": self.guard is not None,
            })

    def _adopt_journal(self) -> None:
        """Restore job states and the latest engine from a prior run."""
        from repro.core.checkpoint import CheckpointError

        events = load_jobs_journal(
            os.path.join(self.workdir, self.JOURNAL_NAME)
        )
        by_key = {j.key: j for j in self.queue._jobs.values()}
        for ev in events:
            job = by_key.get(ev.get("key"))
            if job is None:
                continue
            kind = ev["event"]
            if kind == "done":
                try:
                    from repro.core.checkpoint import load_checkpoint_v2

                    job.result, _ = load_checkpoint_v2(ev["result_path"])
                except CheckpointError:
                    continue  # unreadable result: recompute (bitwise equal)
                job.status = DONE
                job.steps_done = int(ev["steps_done"])
                job.final_potential = float(ev["final_potential"])
                job.attempts = int(ev.get("attempt", 0))
                self.n_adopted += 1
            elif kind == "quarantined":
                job.attempts = int(ev["attempt"])
                job.poison = ev["record"]
                if ev.get("retry"):
                    self._adopt_retry_basis(job, ev)
                    self.queue.requeue(job)
                    self.n_retries += 1
                else:
                    job.status = QUARANTINED
                    self.n_quarantined += 1
                    self.poison_records.append(ev["record"])
            elif kind == "preempted":
                job.status = PREEMPTED
                job.steps_done = int(ev["steps_done"])
                job.checkpoint_path = ev["checkpoint_path"]
                self.n_preempted += 1
        self._restore_engine()

    def _adopt_retry_basis(self, job: Job, ev: Dict[str, Any]) -> None:
        """Load the healthy snapshot a pending retry re-admits from.

        The basis file is written (atomically) *before* its journal
        line, so a journaled retry always finds its basis; the npz
        round-trip is exact, matching the live run's in-memory snapshot
        bitwise.
        """
        from repro.core.checkpoint import load_checkpoint_v2

        basis_path = ev.get("basis_path")
        if basis_path:
            job.retry_system, _ = load_checkpoint_v2(basis_path)
            job.retry_steps_done = int(ev.get("basis_steps", 0))
        else:
            job.retry_system = None
            job.retry_steps_done = 0

    def _restore_engine(self) -> None:
        """Load the newest engine checkpoint and re-adopt its segments.

        Segments are matched to jobs by the ``_job`` tag the scheduler
        plants in each segment's aux payload — the checkpoint is
        self-describing, so no journal/checkpoint write-ordering race
        can orphan a segment.  Segments of jobs already terminal in the
        journal (their events are durable before any checkpoint that
        could drop them) are swapped out; removal never perturbs the
        adopted survivors.
        """
        from repro.core.checkpoint import CheckpointError

        try:
            be, _, path = self.manager.load_latest()
        except CheckpointError:
            return  # no (loadable) checkpoint: all non-terminal jobs re-run
        by_key = {j.key: j for j in self.queue._jobs.values()}
        adopted_level = None
        for handle in list(be.handles()):
            tag = be._by_handle[handle].aux.get("_job")
            job = by_key.get(tag["key"]) if tag else None
            if job is None or job.status != QUEUED:
                # Done/quarantined/preempted after this snapshot (their
                # journal events are durable), or not resubmitted.
                be.remove(handle)
                continue
            job.status = RUNNING
            job.handle = handle
            job.attempts = int(tag.get("attempt", 0))
            job.steps_done = int(tag.get("steps_base", 0)) + be.segment_steps(handle)
            adopted_level = job.attempts
        if be.n_segments == 0:
            return
        # Guard policy is the service's, not trajectory state: re-apply
        # it to the restored engine (guard buffers are built at the
        # repack the restore already owes, and guards never perturb the
        # trajectory, so this is bitwise-neutral).
        be.guard = self.guard
        self.engine = be
        self.level = adopted_level or 0
        for step, p in self.manager.checkpoints():
            if p == path:
                self.chunk_index = step

    # -- lanes ---------------------------------------------------------------

    def _lane_dt(self, level: int) -> float:
        return self.dt_fs * (self.retry_dt_factor ** level)

    def _make_engine(self, level: int) -> BatchedEngine:
        return BatchedEngine(
            dt_fs=self._lane_dt(level), shift=self.shift,
            force_impl=self.force_impl, guard=self.guard,
        )

    def _next_level(self) -> Optional[int]:
        levels = {j.attempts for j in self.queue.pending()}
        return min(levels) if levels else None

    def run(self) -> dict:
        self._assign_keys()
        if self.workdir is not None:
            self._open_workdir()
            if self.resume:
                self._adopt_journal()
        t0 = time.perf_counter()
        if self.engine is not None:
            # Adopt RUNNING jobs into the active set (journal resume set
            # them up above; a caller-restored engine relies on the
            # caller having marked its jobs RUNNING with live handles).
            for job in self.queue.running():
                if job.handle is None or job.handle not in self.engine._by_handle:
                    raise ValidationError(
                        f"running job {job.job_id} has no live segment "
                        "in the engine"
                    )
                self.active[job.handle] = job
                if self._keeps_basis:
                    state = self.engine.extract(job.handle)
                    self._stash_healthy(job, state.copy)
        while True:
            fresh = False
            if self.engine is None:
                level = self._next_level()
                if level is None:
                    break
                self.level = level
                self.engine = self._make_engine(level)
                self._poison_seen = 0
                fresh = True
            progressed = self._drain_lane()
            self.engine = None
            if fresh and not progressed:
                # Nothing in this lane can be admitted (e.g. a job
                # larger than max_particles): leave it queued rather
                # than spin — same contract as the plain batch former.
                break
        wall = time.perf_counter() - t0
        if self.journal is not None:
            self.journal.close()
        done = sum(
            1 for j in self.queue._jobs.values() if j.status == DONE
        )
        summary = {
            "jobs_done": done,
            "total_steps": self.total_steps,
            "batches_formed": self.batches,
            "swaps": self.swaps,
            "wall_s": wall,
            "aggregate_steps_per_s": (
                self.total_steps / wall if wall > 0 else 0.0
            ),
            "backend": self._backend_name(),
            "chunks": self.chunk_index,
            "quarantined": self.n_quarantined,
            "retries": self.n_retries,
            "preempted": self.n_preempted,
            "adopted_done": self.n_adopted,
            "poison_records": list(self.poison_records),
            "journal": (
                os.path.join(self.workdir, self.JOURNAL_NAME)
                if self.workdir is not None else None
            ),
        }
        return summary

    def _backend_name(self) -> str:
        if self.engine is not None:
            return self.engine.backend_name
        from repro.md.backends import resolve_backend

        return resolve_backend(self.force_impl).name

    # -- the chunk loop ------------------------------------------------------

    def _job_n(self, job: Job) -> int:
        system = job.retry_system if job.retry_system is not None else job.system
        return system.n

    def _admit(self) -> int:
        """Bin-pack pending jobs of the current lane into free capacity.

        Systems above ``batch_max_n`` are routed solo: batching loses for
        them (the committed BENCH_batch.json crossover — N=432 runs at
        0.85x co-batched), so a big job only enters an empty engine and
        owns it until it drains.
        """
        admitted = 0
        engine = self.engine
        if self.batch_max_n is not None and any(
            self._job_n(j) > self.batch_max_n for j in self.active.values()
        ):
            return 0  # a solo big job owns the engine until it finishes
        for job in self.queue.pending():
            if job.attempts != self.level:
                continue
            if len(self.active) >= self.max_systems:
                break
            system = (
                job.retry_system if job.retry_system is not None
                else job.system
            )
            solo = (
                self.batch_max_n is not None and system.n > self.batch_max_n
            )
            if solo and (self.active or admitted):
                # Revisited once the engine is empty again.
                continue
            if (
                self.max_particles is not None
                and engine.n_particles + system.n > self.max_particles
            ):
                # First-fit: a big job does not block smaller ones.
                continue
            steps_base = (
                job.retry_steps_done if job.retry_system is not None else 0
            )
            aux = dict(job.aux)
            aux["_job"] = {
                "key": job.key,
                "job_id": job.job_id,
                "attempt": job.attempts,
                "steps_base": steps_base,
            }
            try:
                handle = engine.add(
                    system, job.grid, thermostat=job.thermostat, aux=aux,
                )
            except JobPoisonedError as exc:
                # Corrupt upload: rejected at the door, never retried
                # (the submitted state itself is non-finite).
                self._quarantine_terminal(job, exc.record.asdict())
                continue
            job.handle = handle
            job.status = RUNNING
            job.steps_done = steps_base
            job.admitted_clock = self.now_fn()
            self.active[handle] = job
            self._stash_healthy(job, system.copy)
            admitted += 1
            if solo:
                break
        return admitted

    def _drain_lane(self) -> bool:
        progressed = bool(self.active)
        while True:
            admitted = self._admit()
            if admitted:
                self.batches += 1
                progressed = True
            if not self.active:
                return progressed
            chunk = min(
                self.chunk_steps,
                min(j.steps - j.steps_done for j in self.active.values()),
            )
            self.engine.step(chunk)
            self.total_steps += chunk * len(self.active)
            self.chunk_index += 1
            self._handle_poisoned()
            self._handle_finished(chunk)
            self._handle_deadlines()
            self._boundary_persist()
            if self.on_chunk is not None:
                self.on_chunk(self.chunk_index, self.engine)

    def _handle_poisoned(self) -> None:
        records = self.engine.poison_log[self._poison_seen:]
        self._poison_seen = len(self.engine.poison_log)
        for rec in records:
            job = self.active.pop(rec.handle, None)
            if job is None:
                continue
            job.attempts += 1
            tag_base = job.retry_steps_done if job.retry_system is not None else 0
            job.steps_done = tag_base + rec.segment_steps
            record = rec.asdict()
            record["job_id"] = job.job_id
            retry = (
                job.attempts <= self.retry_attempts
                and rec.reason != REASON_INPUT
            )
            if retry:
                self._schedule_retry(job, record)
            else:
                self._quarantine_terminal(job, record)

    def _schedule_retry(self, job: Job, record: dict) -> None:
        """Re-queue from the last healthy snapshot at reduced dt."""
        basis = self._healthy.get(job.key)
        if basis is not None:
            state, job.retry_steps_done = basis
            job.retry_system = state()
        else:
            job.retry_system = None
            job.retry_steps_done = 0
        basis_path = None
        if self.journal is not None:
            if job.retry_system is not None:
                from repro.core.checkpoint import save_checkpoint_v2

                basis_path = os.path.join(
                    self.workdir,
                    f"retry-{_fs_safe(job.key)}-a{job.attempts}.npz",
                )
                save_checkpoint_v2(job.retry_system, basis_path)
            self.journal.append({
                "event": "quarantined",
                "key": job.key,
                "job_id": job.job_id,
                "attempt": job.attempts,
                "record": record,
                "retry": True,
                "basis_path": basis_path,
                "basis_steps": job.retry_steps_done,
                "retry_dt_fs": self._lane_dt(job.attempts),
            })
        job.poison = record
        self.queue.requeue(job)
        self.n_retries += 1

    def _quarantine_terminal(self, job: Job, record: dict) -> None:
        job.status = QUARANTINED
        job.poison = record
        job.handle = None
        self.n_quarantined += 1
        self.poison_records.append(record)
        if self.journal is not None:
            self.journal.append({
                "event": "quarantined",
                "key": job.key,
                "job_id": job.job_id,
                "attempt": job.attempts,
                "record": record,
                "retry": False,
            })

    def _handle_finished(self, chunk: int) -> None:
        finished = []
        for handle, job in self.active.items():
            job.steps_done += chunk
            if job.steps_done >= job.steps:
                finished.append(handle)
        if not finished:
            return
        pots = self.engine.potentials()
        for handle in finished:
            job = self.active.pop(handle)
            job.final_potential = pots[handle]
            job.result = self.engine.remove(handle)
            job.status = DONE
            job.handle = None
            self.swaps += 1
            self._healthy.pop(job.key, None)
            if self.journal is not None:
                from repro.core.checkpoint import save_checkpoint_v2

                result_path = os.path.join(
                    self.workdir, f"result-{_fs_safe(job.key)}.npz"
                )
                save_checkpoint_v2(job.result, result_path)
                self.journal.append({
                    "event": "done",
                    "key": job.key,
                    "job_id": job.job_id,
                    "steps_done": job.steps_done,
                    "final_potential": job.final_potential,
                    "result_path": result_path,
                    "attempt": job.attempts,
                    "dt_fs": self._lane_dt(self.level),
                })

    def _handle_deadlines(self) -> None:
        """Preempt over-budget jobs (wall deadline or step timeout)."""
        now = self.now_fn()
        over = []
        for handle, job in self.active.items():
            if (
                job.deadline_s is not None
                and job.admitted_clock is not None
                and now - job.admitted_clock > job.deadline_s
            ):
                over.append(handle)
            elif (
                self.job_step_timeout is not None
                and job.steps_done >= self.job_step_timeout
            ):
                over.append(handle)
        for handle in over:
            job = self.active.pop(handle)
            state = self.engine.remove(handle)
            job.status = PREEMPTED
            job.handle = None
            self.swaps += 1
            self.n_preempted += 1
            self._healthy.pop(job.key, None)
            if self.journal is not None:
                from repro.core.checkpoint import save_checkpoint_v2

                ckpt = os.path.join(
                    self.workdir, f"preempt-{_fs_safe(job.key)}.npz"
                )
                save_checkpoint_v2(state, ckpt)
                job.checkpoint_path = ckpt
                self.journal.append({
                    "event": "preempted",
                    "key": job.key,
                    "job_id": job.job_id,
                    "steps_done": job.steps_done,
                    "checkpoint_path": ckpt,
                })
            else:
                job.retry_system = state
                job.retry_steps_done = job.steps_done

    def _boundary_persist(self) -> None:
        """Engine checkpoint + healthy-state refresh at the boundary.

        Both read one :meth:`~repro.md.batch.BatchedEngine.snapshot` of
        the engine, taken once per boundary.

        Write order matters: result/quarantine/preempt events above are
        already durable, so an engine checkpoint can only ever be
        *behind* the journal — a resume then replays forward
        deterministically, never invents state.
        """
        if not self.active:
            return
        save = (
            self.manager is not None
            and self.chunk_index % self.checkpoint_every == 0
        )
        if not (save or self._keeps_basis):
            return
        snap = self.engine.snapshot()
        if save:
            self.manager.save(snap, self.chunk_index)
        for job in self.active.values():
            self._stash_healthy(job, partial(snap.system, job.handle))

    @property
    def _keeps_basis(self) -> bool:
        """Whether retries are on, so healthy states must be kept."""
        return self.guard is not None and self.retry_attempts > 0

    def _stash_healthy(
        self, job: Job, state: Callable[[], ParticleSystem]
    ) -> None:
        if self._keeps_basis:
            self._healthy[job.key] = (state, job.steps_done)


def run_jobs(
    queue: JobQueue,
    force_impl: Optional[str] = None,
    max_systems: int = 64,
    max_particles: Optional[int] = None,
    dt_fs: float = 2.0,
    shift: bool = False,
    chunk_steps: int = 50,
    engine: Optional[BatchedEngine] = None,
    guard: Optional[GuardConfig] = None,
    workdir: Optional[str] = None,
    resume: bool = False,
    retry_attempts: int = 0,
    retry_dt_factor: float = 0.5,
    checkpoint_every: int = 1,
    job_step_timeout: Optional[int] = None,
    now_fn: Optional[Callable[[], float]] = None,
    on_chunk: Optional[Callable[[int, BatchedEngine], None]] = None,
    batch_max_n: Optional[int] = BATCH_MAX_N_DEFAULT,
) -> dict:
    """Drain a job queue through one batched engine, crash-safely.

    Steps the active batch in chunks of
    ``min(chunk_steps, smallest remaining budget)`` so every job stops
    exactly on its budget; finished segments are swapped out and the
    freed capacity immediately refilled from the queue.  Returns a
    summary dict (jobs completed, total steps, batches formed, wall
    time, quarantine/retry/preemption counters).

    Robustness knobs (all optional — defaults reproduce the plain
    batch former):

    * ``guard`` — enable the per-segment health guards; poisoned jobs
      are quarantined instead of taking the batch down.
    * ``workdir`` — journal every job-state transition to
      ``workdir/jobs.jsonl`` (append-only, fsync per line), checkpoint
      the engine at chunk boundaries, and write each finished job's
      result to its own checkpoint-v2 file.  With ``resume=True`` a
      killed service continues from the journal: completed jobs are
      adopted from their durable results, mid-flight segments from the
      newest engine checkpoint, and everything else re-runs — final
      per-job results are bitwise equal to an uninterrupted run.
    * ``retry_attempts`` / ``retry_dt_factor`` — re-admit a quarantined
      job from its last healthy chunk-boundary snapshot at
      ``dt * factor^attempt`` (exponential backoff) until the budget
      runs out; each attempt level drains in its own engine lane.
    * per-job ``deadline_s`` (see :meth:`JobQueue.submit`) and
      ``job_step_timeout`` — enforced at chunk boundaries; over-budget
      jobs are preempted via checkpoint, not killed.

    Pass ``engine`` to resume a caller-restored batch checkpoint: its
    live segments are matched to RUNNING jobs by handle.

    ``batch_max_n`` routes systems bigger than the threshold to solo
    execution (they enter only an empty engine and block co-admission
    while active) — co-batching loses above the measured crossover.
    ``None`` disables the routing.
    """
    service = _JobService(
        queue, force_impl, max_systems, max_particles, dt_fs, shift,
        chunk_steps, engine, guard, workdir, resume, retry_attempts,
        retry_dt_factor, checkpoint_every, job_step_timeout, now_fn,
        on_chunk, batch_max_n=batch_max_n,
    )
    return service.run()


# ---------------------------------------------------------------------------
# benchmark harness (``repro batch`` / BENCH_batch.json)
# ---------------------------------------------------------------------------

#: Per-system sizes of the default sweep: particles-per-cell at a
#: (3, 3, 3) grid, spanning the amortization-friendly small end up to
#: the kernel-bound saturation region (N = 54 .. 432).
BENCH_PPC = (2, 4, 16)


def _bench_point(
    force_impl: Optional[str],
    k_systems: int,
    ppc: int,
    steps: int,
    warm_steps: int,
    serial_sample: int,
    seed: int,
) -> dict:
    from repro.md.dataset import build_dataset
    from repro.md.engine import ReferenceEngine
    from repro.md.pairplan import clear_plan_cache, plan_cache_info

    systems = [
        build_dataset((3, 3, 3), cutoff=8.5, particles_per_cell=ppc,
                      seed=seed + i)
        for i in range(k_systems)
    ]
    n_per = systems[0][0].n

    # Cold: batch formation with an empty plan cache (priming included).
    clear_plan_cache()
    engine = BatchedEngine(force_impl=force_impl)
    t0 = time.perf_counter()
    for sysv, grid in systems:
        engine.add(sysv.copy(), grid)
    engine.prime()
    cold_wall = time.perf_counter() - t0
    cold_cache = plan_cache_info()._asdict()

    # Warm: steady-state stepping past the post-build honeymoon.
    engine.step(warm_steps)
    t0 = time.perf_counter()
    engine.step(steps)
    wall = time.perf_counter() - t0
    warm_cache = plan_cache_info()._asdict()
    batched_rate = k_systems * steps / wall
    builds = sum(engine.state_builds(h) for h in engine.handles())

    # Serial baseline: solo ReferenceEngine on the same backend.  For
    # large K a sample of systems is timed and the mean extrapolated;
    # ``serial_sampled`` records how many actually ran.
    sample = min(serial_sample, k_systems)
    serial_wall = 0.0
    for sysv, grid in systems[:sample]:
        eng = ReferenceEngine(sysv.copy(), grid, force_impl=force_impl)
        eng.run(warm_steps + 1, record_every=0)
        t0 = time.perf_counter()
        eng.run(steps, record_every=0)
        serial_wall += time.perf_counter() - t0
    serial_rate = steps / (serial_wall / sample)
    return {
        "label": f"k{k_systems}_ppc{ppc}",
        "k_systems": k_systems,
        "n_per_system": n_per,
        "particles_per_cell": ppc,
        "steps": steps,
        "backend": engine.backend_name,
        "state_builds_total": builds,
        "serial_sampled": sample,
        "formation_wall_s": cold_wall,
        "plan_cache_cold": cold_cache,
        "plan_cache_warm": warm_cache,
        "aggregate_steps_per_s": batched_rate,
        "serial_aggregate_steps_per_s": serial_rate,
        "speedup_vs_serial": batched_rate / serial_rate,
    }


def run_batch_bench(
    force_impl: Optional[str] = None,
    k_systems: int = 256,
    steps: int = 30,
    warm_steps: int = 10,
    serial_sample: int = 6,
    seed: int = 2023,
    ppc_list=BENCH_PPC,
    smoke: bool = False,
) -> dict:
    """Measure batched vs serial aggregate throughput; returns the doc.

    ``smoke`` shrinks to a quick configuration: K=64, the smallest
    system size only, fewer steps.  One entry of ``sizes`` per system
    size.  The perf gate (``repro bench``) times the fused aggregate
    rate through :func:`repro.harness.bench.batch_rate`, not here.
    """
    if smoke:
        k_systems = min(k_systems, 64)
        steps = min(steps, 20)
        ppc_list = ppc_list[:1]
    sizes = [
        _bench_point(
            force_impl, k_systems, ppc, steps, warm_steps, serial_sample,
            seed,
        )
        for ppc in ppc_list
    ]
    return {
        "bench": "batch",
        "smoke": bool(smoke),
        "seed": seed,
        "k_systems": k_systems,
        "steps": steps,
        "backend": sizes[0]["backend"],
        "sizes": sizes,
        "best_speedup_vs_serial": max(
            p["speedup_vs_serial"] for p in sizes
        ),
    }


def format_batch(doc: dict) -> str:
    lines = [
        "batched stepping bench "
        f"(K={doc['k_systems']}, {doc['steps']} steps, "
        f"backend={doc['backend']}"
        + (", smoke)" if doc.get("smoke") else ")"),
    ]
    for r in doc["sizes"]:
        lines.append(
            f"  {r['label']:>12s}  N={r['n_per_system']:<5d} "
            f"batched {r['aggregate_steps_per_s']:10.0f} steps/s   "
            f"serial {r['serial_aggregate_steps_per_s']:8.0f} steps/s   "
            f"speedup {r['speedup_vs_serial']:5.2f}x"
        )
    lines.append(f"  best speedup {doc['best_speedup_vs_serial']:.2f}x")
    return "\n".join(lines)
