"""Stateful property test of :class:`~repro.harness.jobs.JobQueue`.

A hypothesis state machine drives the queue through submissions,
rejected resubmissions of the same system object, requeues, refused
``resubmit_preempted`` calls and unknown-id lookups, against a plain
model: a list of ``(job_id, priority, seq)``.  After every step:

* ``pending()`` is the model sorted by priority descending, then by
  enqueue sequence (a requeue joins the tail of its priority class);
* job ids are dense and unique;
* every job is owed work, so ``unfinished() == len(pending())``.

No scheduler runs here; this pins the queue's own ordering and input
checks.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.harness.jobs import JobQueue
from repro.md import build_dataset
from repro.util.errors import UnknownJobError, ValidationError

_SYSTEM, _GRID = build_dataset(
    (3, 3, 3), cutoff=8.5, particles_per_cell=1, seed=0
)


class JobQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.queue = JobQueue()
        #: job_id -> [priority, seq]; ids are the list positions.
        self.model = []
        self.systems = []
        self.next_seq = 0

    def _snapshot(self):
        return [(j.job_id, j.priority, j.seq) for j in self.queue.pending()]

    @rule(priority=st.integers(-3, 3), steps=st.integers(1, 50))
    def submit(self, priority, steps):
        system = _SYSTEM.copy()
        job_id = self.queue.submit(system, _GRID, steps=steps, priority=priority)
        assert job_id == len(self.model)
        self.model.append([priority, self.next_seq])
        self.systems.append(system)
        self.next_seq += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def resubmit_same_object(self, data):
        system = data.draw(st.sampled_from(self.systems))
        before = self._snapshot()
        with pytest.raises(ValidationError, match="already submitted"):
            self.queue.submit(system, _GRID, steps=1)
        assert self._snapshot() == before

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def requeue(self, data):
        job = data.draw(st.sampled_from(self.queue.pending()))
        self.queue.requeue(job)
        self.model[job.job_id][1] = self.next_seq
        self.next_seq += 1

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def resubmit_not_preempted(self, data):
        job_id = data.draw(st.integers(0, len(self.model) - 1))
        before = self._snapshot()
        with pytest.raises(ValidationError, match="not preempted"):
            self.queue.resubmit_preempted(job_id)
        assert self._snapshot() == before

    @rule(
        data=st.data(),
        lookup=st.sampled_from(
            ["status", "result", "final_potential", "resubmit_preempted"]
        ),
    )
    def unknown_id(self, data, lookup):
        job_id = data.draw(
            st.one_of(
                st.integers(max_value=-1),
                st.integers(len(self.model), len(self.model) + 100),
            )
        )
        with pytest.raises(UnknownJobError):
            getattr(self.queue, lookup)(job_id)

    @invariant()
    def pending_in_model_order(self):
        expect = sorted(
            ((i, p, s) for i, (p, s) in enumerate(self.model)),
            key=lambda e: (-e[1], e[2]),
        )
        assert self._snapshot() == expect

    @invariant()
    def ids_dense_and_unique(self):
        ids = sorted(j.job_id for j in self.queue.pending())
        assert ids == list(range(len(self.model)))

    @invariant()
    def everything_unfinished_is_pending(self):
        assert self.queue.unfinished() == len(self.queue.pending())


JobQueueMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestJobQueueStateMachine = JobQueueMachine.TestCase
