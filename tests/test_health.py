"""Tests for the batched engine's numerical health guards (DESIGN.md §12).

The contract under test:

* guards are read-only — a guarded healthy run is **bitwise identical**
  to an unguarded one, on every available backend;
* a poisoned segment trips exactly once, is quarantined through the
  swap-out machinery at its step boundary, and every survivor is
  bitwise identical to a run that never contained the poisoned job —
  including when the quarantine composes with overflow-driven repacks
  and mid-run admissions;
* admission screening rejects non-finite uploads with a typed error;
* the chaos plan is deterministic (same seed, same decisions) and
  corrupts copies, never its input.
"""

import numpy as np
import pytest

from repro.faults.health import (
    CHAOS_MODES,
    GuardConfig,
    JobChaosPlan,
    REASON_DISPLACEMENT,
    REASON_DRIFT,
    REASON_INPUT,
    check_system_finite,
)
from repro.md.backends import available_backends
from repro.md.batch import BatchedEngine
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.thermostat import VelocityRescaleThermostat
from repro.util.errors import JobPoisonedError, ValidationError

BACKENDS = available_backends()


def small_case(seed, ppc=3, dims=(3, 3, 3)):
    return build_dataset(dims, cutoff=8.5, particles_per_cell=ppc, seed=seed)


def run_batch(cases, steps, impl, guard=None, poison_handle=None,
              poison_step=None):
    """Step a batch; optionally NaN one segment's velocity mid-run."""
    eng = BatchedEngine(force_impl=impl, guard=guard)
    handles = [eng.add(s.copy(), g) for s, g in cases]
    if poison_step is None:
        eng.step(steps)
    else:
        eng.step(poison_step)
        seg = eng._by_handle[poison_handle]
        eng._vel[seg.base, 0] = np.nan
        eng.step(steps - poison_step)
    return eng, handles


class TestGuardedHealthyPath:
    def test_bitwise_identical_to_unguarded_all_backends(self):
        cases = [small_case(70 + i, ppc=3 + i % 2) for i in range(5)]
        for name in BACKENDS:
            plain, hp = run_batch(cases, 25, name)
            guarded, hg = run_batch(cases, 25, name, guard=GuardConfig())
            assert not guarded.poison_log
            for a, b in zip(hp, hg):
                pa, ga = plain.extract(a), guarded.extract(b)
                assert np.array_equal(pa.positions, ga.positions), name
                assert np.array_equal(pa.velocities, ga.velocities), name
                assert np.array_equal(pa.forces, ga.forces), name

    def test_guard_config_defaults(self):
        g = GuardConfig()
        assert g.resolved_max_disp(8.5) == pytest.approx(0.25 * 8.5)
        assert GuardConfig(max_step_displacement=1.5).resolved_max_disp(8.5) == 1.5
        with pytest.raises(ValidationError):
            GuardConfig(max_step_displacement=-1.0).resolved_max_disp(8.5)


class TestQuarantine:
    def test_k64_one_nan_job_all_backends(self):
        """The acceptance scenario: K=64, one NaN-seeded job.

        Exactly that job quarantines; all 63 survivors are bitwise
        identical to a run that never contained it — on every backend.
        """
        k = 64
        cases = [small_case(200 + i, ppc=2) for i in range(k)]
        bad = 31
        for name in BACKENDS:
            poisoned = cases[bad][0].copy()
            poisoned.velocities[0, 0] = np.nan

            eng = BatchedEngine(force_impl=name, guard=GuardConfig())
            handles = []
            for i, (s, g) in enumerate(cases):
                sysv = poisoned if i == bad else s.copy()
                # The NaN job must get past admission to test the
                # in-flight tripwire.
                if i == bad:
                    eng.guard = GuardConfig(check_input=False)
                handles.append(eng.add(sysv, g))
                if i == bad:
                    eng.guard = GuardConfig()
            eng.step(8)
            assert len(eng.poison_log) == 1
            rec = eng.poison_log[0]
            assert rec.handle == handles[bad]
            assert rec.reason == REASON_DISPLACEMENT
            assert eng.n_segments == k - 1

            ref = BatchedEngine(force_impl=name, guard=GuardConfig())
            ref_handles = [
                ref.add(s.copy(), g)
                for i, (s, g) in enumerate(cases) if i != bad
            ]
            ref.step(8)
            survivors = [h for i, h in enumerate(handles) if i != bad]
            for h, hr in zip(survivors, ref_handles):
                a, b = eng.extract(h), ref.extract(hr)
                assert np.array_equal(a.positions, b.positions), name
                assert np.array_equal(a.velocities, b.velocities), name

    def test_trip_records_and_segment_steps(self):
        cases = [small_case(80 + i) for i in range(4)]
        eng, handles = run_batch(
            cases, 12, BACKENDS[-1], guard=GuardConfig(),
            poison_handle=2, poison_step=5,
        )
        assert [r.handle for r in eng.poison_log] == [2]
        rec = eng.poison_log[0]
        assert rec.reason == REASON_DISPLACEMENT
        assert rec.step == 6  # NaN injected after step 5, tripped on 6
        assert rec.segment_steps == 6
        assert rec.system is not None and rec.system.n == cases[2][0].n
        d = rec.asdict()
        assert d["reason"] == REASON_DISPLACEMENT
        assert "system" not in d

    def test_multiple_trips_same_step(self):
        """Two segments poisoned in the same step both quarantine cleanly."""
        cases = [small_case(90 + i) for i in range(5)]
        eng = BatchedEngine(force_impl=BACKENDS[-1], guard=GuardConfig())
        handles = [eng.add(s.copy(), g) for s, g in cases]
        eng.step(3)
        for h in (handles[1], handles[3]):
            seg = eng._by_handle[h]
            eng._vel[seg.base, 0] = np.nan
        eng.step(4)
        assert sorted(r.handle for r in eng.poison_log) == [1, 3]
        assert eng.n_segments == 3

    def test_quarantine_composes_with_swap_and_repack(self):
        """Overflow-repack + mid-run admission around a quarantined middle
        segment: survivors stay bitwise, counters keep counting."""
        impl = BACKENDS[-1]
        cases = [small_case(100 + i, ppc=2 + i % 3) for i in range(5)]
        late = small_case(110, ppc=4)

        eng = BatchedEngine(force_impl=impl, guard=GuardConfig())
        handles = [eng.add(s.copy(), g) for s, g in cases]
        eng.step(4)
        seg = eng._by_handle[handles[2]]
        eng._vel[seg.base, 0] = np.nan
        eng.step(4)  # trips on step 5, repack happens on step 6
        assert [r.handle for r in eng.poison_log] == [handles[2]]
        h_late = eng.add(late[0].copy(), late[1])  # forces another repack
        eng.step(6)

        ref = BatchedEngine(force_impl=impl, guard=GuardConfig())
        ref_handles = [
            ref.add(s.copy(), g)
            for i, (s, g) in enumerate(cases) if i != 2
        ]
        ref.step(8)
        ref_late = ref.add(late[0].copy(), late[1])
        ref.step(6)
        survivors = [h for i, h in enumerate(handles) if i != 2]
        for h, hr in zip(survivors + [h_late], ref_handles + [ref_late]):
            a, b = eng.extract(h), ref.extract(hr)
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.velocities, b.velocities)
            assert eng.segment_steps(h) == ref.segment_steps(hr)
            assert eng.state_builds(h) == ref.state_builds(hr)

    def test_admission_screen(self):
        s, g = small_case(120)
        s.positions[3, 1] = np.inf
        eng = BatchedEngine(guard=GuardConfig())
        with pytest.raises(JobPoisonedError) as exc:
            eng.add(s, g)
        assert exc.value.record.reason == REASON_INPUT
        assert eng.n_segments == 0
        # check_input=False admits it (callers may want the tripwire).
        eng2 = BatchedEngine(guard=GuardConfig(check_input=False))
        eng2.add(s, g)
        assert eng2.n_segments == 1

    def test_check_system_finite_helper(self):
        s, _ = small_case(121)
        check_system_finite(s.positions, s.velocities)  # healthy: no raise
        s.velocities[0, 2] = np.nan
        with pytest.raises(JobPoisonedError):
            check_system_finite(s.positions, s.velocities)


class TestEnergyDriftWatchdog:
    def test_kick_trips_drift_guard(self):
        """A huge-but-finite velocity kick trips displacement or drift."""
        cases = [small_case(130 + i) for i in range(3)]
        guard = GuardConfig(energy_drift_tol=0.05)
        eng = BatchedEngine(force_impl=BACKENDS[-1], guard=guard)
        handles = [eng.add(s.copy(), g) for s, g in cases]
        eng.step(3)
        seg = eng._by_handle[handles[1]]
        eng._vel[seg.base] *= 50.0  # finite corruption, energy blows up
        eng.step(5)
        assert [r.handle for r in eng.poison_log] == [1]
        assert eng.poison_log[0].reason in (REASON_DISPLACEMENT, REASON_DRIFT)

    def test_thermostatted_segment_exempt(self):
        """Thermostats legitimately change E: no drift trips for them."""
        cases = [small_case(140 + i) for i in range(3)]
        guard = GuardConfig(energy_drift_tol=1e-9)  # hair trigger
        eng = BatchedEngine(force_impl=BACKENDS[-1], guard=guard)
        for s, g in cases:
            eng.add(s.copy(), g, thermostat=VelocityRescaleThermostat(400.0))
        eng.step(10)
        assert not eng.poison_log

    def test_healthy_nve_survives_loose_tol(self):
        cases = [small_case(150 + i) for i in range(3)]
        eng = BatchedEngine(
            force_impl=BACKENDS[-1], guard=GuardConfig(energy_drift_tol=0.5)
        )
        for s, g in cases:
            eng.add(s.copy(), g)
        eng.step(15)
        assert not eng.poison_log


class TestChaosPlan:
    def test_deterministic_and_pure(self):
        plan_a = JobChaosPlan(seed=11, poison_rate=0.3)
        plan_b = JobChaosPlan(seed=11, poison_rate=0.3)
        decisions = [plan_a.decide(i) for i in range(40)]
        assert decisions == [plan_b.decide(i) for i in range(40)]
        assert any(d is not None for d in decisions)
        assert any(d is None for d in decisions)
        assert set(d for d in decisions if d) <= set(CHAOS_MODES)

    def test_poison_copies_not_mutates(self):
        plan = JobChaosPlan(seed=12, poison_rate=1.0)
        s, _ = small_case(160)
        before = s.velocities.copy()
        out = plan.poison(s, 0)
        assert np.array_equal(s.velocities, before)
        assert not (
            np.array_equal(out.velocities, before)
            and np.array_equal(out.positions, s.positions)
        )

    def test_zero_rate_never_poisons(self):
        plan = JobChaosPlan(seed=13, poison_rate=0.0)
        assert all(plan.decide(i) is None for i in range(50))
