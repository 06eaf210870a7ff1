"""Property: every batch segment stays bitwise its solo run.

A hypothesis state machine drives one
:class:`~repro.md.batch.BatchedEngine` through random sequences of
admissions, removals (both re-pack the stream), steps and overflows.
An overflow takes every segment's pair-stream slack away and makes
every segment rebuild, off its solo run's schedule, in one step: the
first band that grew overflows its region, and that force pass
re-packs the stream.  Beside each admitted system runs a solo
:class:`~repro.md.engine.ReferenceEngine` on the same backend, stepped
in lockstep.  After every step each surviving segment's positions,
velocities, forces and potential must equal its solo run's bit for
bit, and a removed segment must leave with exactly its solo state.

Segments of 2, 3 and 8 particles a cell mix pieces of both kinds on the
numpy backend: the sparse ones are one piece, the dense ones are cut
per half-shell offset.  Each run draws the numpy kernel's pass size
too: small passes split a segment's pieces across passes at other
points in the packed stream than in its solo one.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

import repro.md.backends as backends_mod
from repro.md.backends import available_backends
from repro.md.batch import BatchedEngine
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine

CUTOFF = 8.5


def _assert_same(got, solo, label):
    want = solo.system
    assert np.array_equal(got.positions, want.positions), f"{label} positions"
    assert np.array_equal(got.velocities, want.velocities), f"{label} velocities"
    assert np.array_equal(got.forces, want.forces), f"{label} forces"


class BatchVsSolo(RuleBasedStateMachine):
    backend: str

    def __init__(self):
        super().__init__()
        self.batch = BatchedEngine(force_impl=self.backend)
        self.solos = {}
        self.span = backends_mod.SPAN_PAIRS

    @initialize(span=st.sampled_from([64, 1000, backends_mod.SPAN_PAIRS]))
    def pass_size(self, span):
        backends_mod.SPAN_PAIRS = span

    def teardown(self):
        backends_mod.SPAN_PAIRS = self.span

    @rule(
        seed=st.integers(0, 2**16),
        ppc=st.sampled_from([2, 3, 8]),
        dims=st.sampled_from([(3, 3, 3), (3, 4, 3), (4, 3, 3)]),
    )
    def add(self, seed, ppc, dims):
        if len(self.solos) >= 4:
            return
        system, grid = build_dataset(
            dims, cutoff=CUTOFF, particles_per_cell=ppc, seed=seed
        )
        handle = self.batch.add(system.copy(), grid)
        self.solos[handle] = ReferenceEngine(
            system.copy(), grid, force_impl=self.backend
        )

    @precondition(lambda self: self.solos)
    @rule(data=st.data())
    def remove(self, data):
        handle = data.draw(st.sampled_from(sorted(self.solos)))
        solo = self.solos.pop(handle)
        _assert_same(self.batch.remove(handle), solo, f"removed {handle}")

    @precondition(lambda self: self.solos)
    @rule()
    def overflow(self):
        self.batch._ensure_ready()
        for seg in self.batch._segments:
            if seg.cap >= 0:  # a lone segment re-packs at every rebuild
                seg.cap = seg.live  # the rest of the region stays pads
        self.batch._cids[:] = -1  # every segment rebuilds at the next pass
        self.step(1)

    @precondition(lambda self: self.solos)
    @rule(n=st.integers(1, 3))
    def step(self, n):
        self.batch.step(n)
        potentials = self.batch.potentials()
        for handle, solo in self.solos.items():
            solo.run(n, record_every=0)
            _assert_same(self.batch.extract(handle), solo, f"segment {handle}")
            assert potentials[handle] == solo._potential(), handle


_SETTINGS = settings(
    max_examples=40,
    stateful_step_count=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class NumpyBatchVsSolo(BatchVsSolo):
    backend = "numpy"


class CextBatchVsSolo(BatchVsSolo):
    backend = "cext"


TestNumpyBatchVsSolo = NumpyBatchVsSolo.TestCase
TestNumpyBatchVsSolo.settings = _SETTINGS

TestCextBatchVsSolo = pytest.mark.skipif(
    "cext" not in available_backends(), reason="cext backend unavailable"
)(CextBatchVsSolo.TestCase)
TestCextBatchVsSolo.settings = _SETTINGS
