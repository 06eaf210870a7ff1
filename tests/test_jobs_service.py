"""Tests for the crash-safe job service (DESIGN.md §12).

Queue hardening (typed errors, duplicate rejection, FIFO ties under
resubmission), quarantine + retry lanes, deadline preemption with an
injectable clock, the fsync journal, and SIGKILL/resume bitwise parity.
"""

import json
import os
import signal

import numpy as np
import pytest

from repro.faults.health import GuardConfig, JobChaosPlan
from repro.harness.jobs import (
    DONE,
    JobQueue,
    PREEMPTED,
    QUARANTINED,
    QUEUED,
    job_fingerprint,
    load_jobs_journal,
    run_jobs,
)
from repro.md.backends import available_backends
from repro.md.dataset import build_dataset
from repro.md.system import ParticleSystem
from repro.util.errors import (
    JobPoisonedError,
    UnknownJobError,
    ValidationError,
)

BACKENDS = available_backends()


def small_case(seed, ppc=2, dims=(3, 3, 3)):
    return build_dataset(dims, cutoff=8.5, particles_per_cell=ppc, seed=seed)


def nan_case(seed):
    s, g = small_case(seed)
    s.velocities[0, 0] = np.nan
    return s, g


def kick_case(seed, scale=1e6):
    s, g = small_case(seed)
    s.velocities[:] = scale
    return s, g


class TestQueueHardening:
    def test_duplicate_object_rejected(self):
        q = JobQueue()
        s, g = small_case(1)
        q.submit(s, g, steps=5)
        with pytest.raises(ValidationError, match="already submitted"):
            q.submit(s, g, steps=5)
        q.submit(s.copy(), g, steps=5)  # a copy is a new job

    def test_unknown_id_typed_error(self):
        q = JobQueue()
        for method in (q.status, q.result, q.final_potential):
            with pytest.raises(UnknownJobError):
                method(7)
        # UnknownJobError is still a ValidationError for old callers.
        with pytest.raises(ValidationError):
            q.status(7)

    def test_fifo_ties_stable_under_resubmission(self):
        q = JobQueue()
        ids = [q.submit(small_case(10 + i)[0], small_case(10 + i)[1],
                        steps=5) for i in range(3)]
        assert [j.job_id for j in q.pending()] == ids
        # Requeue the head: it must rejoin at the BACK of its class.
        q.requeue(q._job(ids[0]))
        assert [j.job_id for j in q.pending()] == [ids[1], ids[2], ids[0]]
        # Priorities still dominate sequence.
        hi = q.submit(small_case(14)[0], small_case(14)[1], steps=5,
                      priority=2)
        assert [j.job_id for j in q.pending()][0] == hi

    def test_quarantined_result_raises_typed(self):
        q = JobQueue()
        jid = q.submit(*nan_case(20), steps=6)
        summary = run_jobs(q, guard=GuardConfig(), chunk_steps=3)
        assert summary["quarantined"] == 1 and summary["jobs_done"] == 0
        assert q.status(jid) == QUARANTINED
        with pytest.raises(JobPoisonedError) as exc:
            q.result(jid)
        assert exc.value.record["reason"] == "nonfinite_input"

    def test_bad_deadline_rejected(self):
        q = JobQueue()
        with pytest.raises(ValidationError):
            q.submit(*small_case(21), steps=5, deadline_s=0.0)


class TestQuarantineFlow:
    def test_survivors_bitwise_vs_never_poisoned(self):
        cases = [small_case(30 + i) for i in range(6)]
        bad_i = 2
        for name in BACKENDS:
            q = JobQueue()
            ids = []
            for i, (s, g) in enumerate(cases):
                sysv = s.copy()
                if i == bad_i:
                    sysv.velocities[:] = 1e6  # finite poison: passes admission
                ids.append(q.submit(sysv, g, steps=10))
            summary = run_jobs(q, force_impl=name, max_systems=4,
                               chunk_steps=4, guard=GuardConfig())
            assert summary["quarantined"] == 1
            assert q.status(ids[bad_i]) == QUARANTINED

            q_ref = JobQueue()
            ref_ids = [
                q_ref.submit(s.copy(), g, steps=10)
                for i, (s, g) in enumerate(cases) if i != bad_i
            ]
            run_jobs(q_ref, force_impl=name, max_systems=4, chunk_steps=4,
                     guard=GuardConfig())
            live = [jid for i, jid in enumerate(ids) if i != bad_i]
            for jid, rid in zip(live, ref_ids):
                a, b = q.result(jid), q_ref.result(rid)
                assert np.array_equal(a.positions, b.positions), name
                assert np.array_equal(a.velocities, b.velocities), name

    def test_retry_succeeds_at_reduced_dt(self):
        """A job that trips at full dt completes in the half-dt lane.

        Displacement scales ~linearly with dt, so a threshold between
        the dt=2 and dt=1 step sizes deterministically separates them.
        """
        s, g = small_case(40)
        # Measure the healthy max one-step displacement at dt=2 from
        # the wrapped position delta (min-image; steps are tiny).
        from repro.md.batch import BatchedEngine

        probe = BatchedEngine(dt_fs=2.0, force_impl=BACKENDS[-1])
        h = probe.add(s.copy(), g)
        before = probe.extract(h).positions.copy()
        probe.step(1)
        delta = probe.extract(h).positions - before
        delta -= s.box * np.round(delta / s.box)
        disp = float(np.sqrt((delta ** 2).sum(axis=1)).max())

        q = JobQueue()
        jid = q.submit(s.copy(), g, steps=8)
        guard = GuardConfig(max_step_displacement=0.6 * disp)
        summary = run_jobs(
            q, force_impl=BACKENDS[-1], chunk_steps=4, guard=guard,
            retry_attempts=2, retry_dt_factor=0.25,
        )
        assert q.status(jid) == DONE
        assert summary["retries"] >= 1
        assert q._job(jid).attempts >= 1

    def test_retry_budget_exhausts_to_terminal(self):
        q = JobQueue()
        jid = q.submit(*kick_case(41), steps=8)
        summary = run_jobs(q, guard=GuardConfig(), chunk_steps=4,
                           retry_attempts=1)
        assert q.status(jid) == QUARANTINED
        assert summary["retries"] == 1
        assert q._job(jid).attempts == 2  # initial + one retry, both tripped

    def test_accounting_keys_present(self):
        q = JobQueue()
        q.submit(*small_case(42), steps=4)
        summary = run_jobs(q, chunk_steps=4)
        for key in ("quarantined", "retries", "preempted", "adopted_done",
                    "chunks", "poison_records", "journal"):
            assert key in summary
        assert summary["journal"] is None


class TestNotBatchable:
    """A system the batch refuses to pack is quarantined at admission;
    the drain goes on and the jobs batched with it are untouched."""

    @staticmethod
    def lone_particle(like):
        s, g = like
        return ParticleSystem(
            positions=[[1.0, 2.0, 3.0]], velocities=[[0.0, 0.0, 0.0]],
            species=[0], lj_table=s.lj_table, box=s.box,
        ), g

    def test_refused_job_quarantined_and_healthy_jobs_bitwise(self, tmp_path):
        for name in BACKENDS:
            healthy = [small_case(95), small_case(96, ppc=3)]
            q = JobQueue()
            first = q.submit(healthy[0][0].copy(), healthy[0][1], steps=10)
            lone = q.submit(*self.lone_particle(healthy[0]), steps=10)
            last = q.submit(healthy[1][0].copy(), healthy[1][1], steps=7)
            summary = run_jobs(
                q, force_impl=name, chunk_steps=4, guard=GuardConfig(),
                retry_attempts=2, workdir=str(tmp_path / name),
            )
            assert q.status(lone) == QUARANTINED
            assert summary["quarantined"] == 1
            assert summary["retries"] == 0
            assert q._job(lone).attempts == 0
            with pytest.raises(JobPoisonedError, match="not-batchable"):
                q.result(lone)
            events = load_jobs_journal(
                os.path.join(str(tmp_path / name), "jobs.jsonl")
            )
            (ev,) = [e for e in events if e["event"] == "quarantined"]
            assert ev["record"]["reason"] == "not-batchable"
            assert ev["record"]["value"] == 1.0
            assert ev["retry"] is False
            for jid, (s, g), steps in zip(
                (first, last), healthy, (10, 7)
            ):
                solo = JobQueue()
                ref = solo.submit(s.copy(), g, steps=steps)
                run_jobs(solo, force_impl=name, chunk_steps=4)
                a, b = q.result(jid), solo.result(ref)
                assert np.array_equal(a.positions, b.positions), name
                assert np.array_equal(a.velocities, b.velocities), name
                assert np.array_equal(a.forces, b.forces), name


class TestPreemption:
    def test_deadline_preempts_via_checkpoint(self, tmp_path):
        clock = {"t": 0.0}

        def fake_now():
            clock["t"] += 10.0  # each boundary looks 10s later
            return clock["t"]

        q = JobQueue()
        fast = q.submit(*small_case(50), steps=4)
        slow = q.submit(*small_case(51), steps=100, deadline_s=15.0)
        summary = run_jobs(
            q, chunk_steps=4, workdir=str(tmp_path), now_fn=fake_now,
        )
        assert q.status(fast) == DONE
        assert q.status(slow) == PREEMPTED
        assert summary["preempted"] == 1
        job = q._job(slow)
        assert 0 < job.steps_done < 100
        assert job.checkpoint_path and os.path.exists(job.checkpoint_path)
        with pytest.raises(ValidationError, match="preempted"):
            q.result(slow)

        # The checkpointed state continues to completion.
        q.resubmit_preempted(slow)
        assert q.status(slow) == QUEUED
        run_jobs(q, chunk_steps=4, workdir=str(tmp_path))
        assert q.status(slow) == DONE
        assert q._job(slow).steps_done == 100

    def test_step_timeout_preempts(self):
        q = JobQueue()
        jid = q.submit(*small_case(52), steps=50)
        summary = run_jobs(q, chunk_steps=5, job_step_timeout=10)
        assert q.status(jid) == PREEMPTED
        assert q._job(jid).steps_done == 10
        assert summary["preempted"] == 1


class TestJournalAndResume:
    def _queue(self, k=6, poison=()):
        q = JobQueue()
        ids = []
        for i in range(k):
            s, g = small_case(60 + i)
            if i in poison:
                s.velocities[:] = 1e6
            ids.append(q.submit(s, g, steps=8 + 3 * (i % 2)))
        return q, ids

    def test_journal_events_and_torn_tail(self, tmp_path):
        q, ids = self._queue(k=3, poison=(1,))
        run_jobs(q, guard=GuardConfig(), chunk_steps=4,
                 workdir=str(tmp_path), retry_attempts=0)
        path = os.path.join(str(tmp_path), "jobs.jsonl")
        events = load_jobs_journal(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "service"
        assert kinds.count("done") == 2
        assert kinds.count("quarantined") == 1
        done_ev = next(e for e in events if e["event"] == "done")
        assert os.path.exists(done_ev["result_path"])
        # A torn final line (SIGKILL mid-write) is tolerated.
        with open(path, "a") as fh:
            fh.write('{"event": "done", "key": "trunc')
        assert load_jobs_journal(path) == events

    def test_resume_without_crash_adopts_everything(self, tmp_path):
        q1, ids1 = self._queue()
        run_jobs(q1, guard=GuardConfig(), chunk_steps=4,
                 workdir=str(tmp_path))
        q2, ids2 = self._queue()
        summary = run_jobs(q2, guard=GuardConfig(), chunk_steps=4,
                           workdir=str(tmp_path), resume=True)
        assert summary["adopted_done"] == len(ids2)
        assert summary["total_steps"] == 0  # nothing re-ran
        for a, b in zip(ids1, ids2):
            ra, rb = q1.result(a), q2.result(b)
            assert np.array_equal(ra.positions, rb.positions)
            assert np.array_equal(ra.velocities, rb.velocities)
            assert q1._job(a).final_potential == q2._job(b).final_potential

    @pytest.mark.parametrize("kill_at", [1, 3])
    def test_sigkill_resume_bitwise(self, tmp_path, kill_at):
        """SIGKILL mid-campaign; resume finishes bitwise-identically."""
        if not hasattr(os, "fork"):  # pragma: no cover
            pytest.skip("no fork on this platform")
        ref_q, ref_ids = self._queue(poison=(2,))
        run_jobs(ref_q, guard=GuardConfig(), chunk_steps=4,
                 retry_attempts=1, workdir=str(tmp_path / "ref"))

        wd = str(tmp_path / "killed")
        pid = os.fork()
        if pid == 0:
            try:
                q, _ = self._queue(poison=(2,))

                def bomb(chunk, engine):
                    if chunk == kill_at:
                        os.kill(os.getpid(), signal.SIGKILL)

                run_jobs(q, guard=GuardConfig(), chunk_steps=4,
                         retry_attempts=1, workdir=wd, on_chunk=bomb)
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL

        q2, ids2 = self._queue(poison=(2,))
        run_jobs(q2, guard=GuardConfig(), chunk_steps=4,
                 retry_attempts=1, workdir=wd, resume=True)
        for a, b in zip(ref_ids, ids2):
            ja, jb = ref_q._job(a), q2._job(b)
            assert ja.status == jb.status
            assert ja.steps_done == jb.steps_done
            if ja.status == DONE:
                assert np.array_equal(ja.result.positions,
                                      jb.result.positions)
                assert np.array_equal(ja.result.velocities,
                                      jb.result.velocities)
                assert ja.final_potential == jb.final_potential

    def test_fingerprints_disambiguate_identical_jobs(self, tmp_path):
        s, g = small_case(65)
        q = JobQueue()
        a = q.submit(s.copy(), g, steps=5)
        b = q.submit(s.copy(), g, steps=5)  # identical content
        assert job_fingerprint(q._job(a)) == job_fingerprint(q._job(b))
        run_jobs(q, chunk_steps=5, workdir=str(tmp_path))
        events = load_jobs_journal(os.path.join(str(tmp_path), "jobs.jsonl"))
        done_keys = {e["key"] for e in events if e["event"] == "done"}
        assert len(done_keys) == 2  # occurrence suffix keeps them distinct

    def test_resume_requires_workdir(self):
        q, _ = self._queue(k=1)
        with pytest.raises(ValidationError, match="workdir"):
            run_jobs(q, resume=True)


class TestJobSoak:
    def test_soak_smoke(self, tmp_path):
        from repro.harness.faultsweep import format_job_soak, run_job_soak

        result = run_job_soak(
            k_jobs=10, steps=8, chunk_steps=4, seed=77, poison_rate=0.2,
            kill_at_chunk=2, workdir=str(tmp_path),
        )
        assert result.n_poisoned >= 1
        assert result.unrecovered == 0
        assert result.killed
        text = format_job_soak(result)
        assert "unrecovered: 0" in text
        doc = json.loads(result.to_json())
        assert doc["unrecovered"] == 0
