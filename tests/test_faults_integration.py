"""Fault injection end to end: event network, sync protocol, machine.

Covers the headline robustness guarantees:

* a zero-rate injector leaves every layer bitwise identical to a run
  with no injector at all;
* under loss, the reliable transport recovers the exact fault-free
  trajectory within its retry budget (and accounts the cycle overhead);
* bare UDP under the same loss is *diagnosed* — stale-halo degradation
  with bounded force error on the machine, a watchdog naming the stuck
  node on the sync protocol — never a silent hang.
"""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.sync import run_chained_sync
from repro.eventsim import EventSimulator
from repro.faults import FaultInjector, FaultPlan, TransportConfig
from repro.md import build_dataset
from repro.network.fabric import LinkStats
from repro.network.netsim import Burst, OutputQueuedSwitch, SwitchStats
from repro.network.topology import TorusTopology
from repro.util.errors import (
    ConfigError,
    DeadlockError,
    SimulationError,
    TransportError,
)

TORUS = TorusTopology((2, 2, 2))


def constant_work(cycles):
    return lambda node, iteration: cycles


# -- stats merge helpers (satellite c) --------------------------------------


class TestStatsMerging:
    def test_switch_stats_add(self):
        a = SwitchStats(delivered=10, dropped=1, max_occupancy={0: 5, 1: 2})
        b = SwitchStats(delivered=4, dropped=0, max_occupancy={1: 7}, injected=3)
        m = a + b
        assert m.delivered == 14
        assert m.dropped == 1
        assert m.injected == 3
        assert m.max_occupancy == {0: 5, 1: 7}  # per-port peak, not sum

    def test_switch_stats_sum(self):
        parts = [SwitchStats(delivered=i, dropped=0) for i in (1, 2, 3)]
        assert sum(parts).delivered == 6

    def test_switch_loss_rate_counts_injected(self):
        s = SwitchStats(delivered=90, dropped=5, injected=5)
        assert s.loss_rate == pytest.approx(0.1)

    def test_link_stats_add(self):
        m = LinkStats(packets=3, records=12) + LinkStats(packets=2, records=5)
        assert (m.packets, m.records) == (5, 17)
        assert sum([LinkStats(packets=1), LinkStats(packets=2)]).packets == 3


# -- switch-level injection --------------------------------------------------


class TestSwitchInjection:
    def test_injector_losses_counted(self):
        switch = OutputQueuedSwitch(4, buffer_packets=16)
        inj = FaultInjector(FaultPlan(seed=1, drop_rate=1.0))
        stats = switch.run([Burst(1, 0, 50, gap_cycles=2)], injector=inj)
        assert stats.injected == 50
        assert stats.delivered == 0
        assert stats.loss_rate == 1.0

    def test_zero_rate_injector_matches_no_injector(self):
        bursts = [Burst(s, 0, 40, gap_cycles=2) for s in (1, 2, 3)]
        base = OutputQueuedSwitch(4, buffer_packets=16).run(bursts)
        inj = FaultInjector(FaultPlan(seed=1))
        faulty = OutputQueuedSwitch(4, buffer_packets=16).run(
            bursts, injector=inj
        )
        assert faulty == base

    def test_reproducible(self):
        bursts = [Burst(1, 0, 100, gap_cycles=1)]
        inj = FaultPlan(seed=9, drop_rate=0.2)
        a = OutputQueuedSwitch(2).run(bursts, injector=FaultInjector(inj))
        b = OutputQueuedSwitch(2).run(bursts, injector=FaultInjector(inj))
        assert a == b


# -- event-kernel watchdog ---------------------------------------------------


class TestWatchdog:
    def test_watchdog_raises_on_stuck_diagnosis(self):
        sim = EventSimulator()
        sim.schedule(1.0, lambda: None)
        sim.add_watchdog(lambda: "node 3 stuck")
        with pytest.raises(DeadlockError, match="node 3 stuck"):
            sim.run()

    def test_healthy_watchdog_is_silent(self):
        sim = EventSimulator()
        sim.schedule(1.0, lambda: None)
        sim.add_watchdog(lambda: None)
        sim.run()
        assert sim.events_processed == 1


# -- chained sync ------------------------------------------------------------


class TestSyncFaults:
    def test_zero_fault_injector_bitwise_identical(self):
        base = run_chained_sync(TORUS, constant_work(1000.0), n_iterations=4)
        faulty = run_chained_sync(
            TORUS,
            constant_work(1000.0),
            n_iterations=4,
            injector=FaultInjector(FaultPlan(seed=17)),
        )
        np.testing.assert_array_equal(
            faulty.iteration_complete, base.iteration_complete
        )
        assert faulty.fault_counts is not None
        assert faulty.fault_counts["dropped"] == 0

    def test_drop_without_transport_names_stuck_node(self):
        inj = FaultInjector(FaultPlan(seed=3, drop_rate=0.05))
        with pytest.raises(DeadlockError, match=r"node \d+ stuck at iteration \d+"):
            run_chained_sync(
                TORUS, constant_work(1000.0), n_iterations=10, injector=inj
            )

    def test_drop_with_transport_completes_with_overhead(self):
        base = run_chained_sync(TORUS, constant_work(1000.0), n_iterations=10)
        inj = FaultInjector(FaultPlan(seed=3, drop_rate=0.05))
        res = run_chained_sync(
            TORUS,
            constant_work(1000.0),
            n_iterations=10,
            injector=inj,
            transport=TransportConfig(retry_budget=4),
        )
        assert res.fault_counts["retransmits"] > 0
        assert res.fault_counts["lost"] == 0
        assert res.makespan > base.makespan  # retries cost time...
        assert res.makespan < 2 * base.makespan  # ...but bounded overhead

    def test_stall_faults_slow_the_run(self):
        base = run_chained_sync(TORUS, constant_work(1000.0), n_iterations=6)
        inj = FaultInjector(
            FaultPlan(seed=5, stall_rate=0.3, stall_factor=4.0)
        )
        res = run_chained_sync(
            TORUS, constant_work(1000.0), n_iterations=6, injector=inj
        )
        assert res.makespan > base.makespan

    def test_deadlock_error_is_simulation_error(self):
        """Callers catching the old SimulationError keep working."""
        assert issubclass(DeadlockError, SimulationError)
        assert issubclass(TransportError, SimulationError)


# -- distributed machine -----------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    cfg = MachineConfig((4, 4, 4), (2, 2, 2))
    system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=2)
    return cfg, system


def _run(cfg, system, n_steps=3, **kwargs):
    machine = DistributedMachine(cfg, system=system.copy(), **kwargs)
    for _ in range(n_steps):
        machine.step()
    return machine


@pytest.fixture(scope="module")
def baseline(dataset):
    cfg, system = dataset
    return _run(cfg, system)


class TestMachineFaults:
    def test_zero_fault_injector_bitwise_identical(self, dataset, baseline):
        cfg, system = dataset
        m = _run(
            cfg,
            system,
            injector=FaultInjector(FaultPlan(seed=7)),
            transport=TransportConfig(retry_budget=2),
        )
        np.testing.assert_array_equal(
            m.system.positions, baseline.system.positions
        )
        np.testing.assert_array_equal(m.forces, baseline.forces)
        assert m.transport_stats.overhead_cycles == 0.0
        assert m.transport_stats.retransmits == 0
        assert m.degraded_records_total == 0

    def test_one_percent_loss_with_retries_recovers_exactly(
        self, dataset, baseline
    ):
        """The acceptance criterion: 1% loss + retry budget >= 2 gives a
        bitwise-identical trajectory with reported cycle overhead."""
        cfg, system = dataset
        m = _run(
            cfg,
            system,
            injector=FaultInjector(FaultPlan(seed=7, drop_rate=0.01)),
            transport=TransportConfig(retry_budget=2),
        )
        np.testing.assert_array_equal(
            m.system.positions, baseline.system.positions
        )
        assert m.transport_stats.retransmits > 0
        assert m.transport_stats.lost == 0
        assert m.transport_stats.overhead_cycles > 0
        assert m.degraded_records_total == 0

    def test_bare_loss_at_first_exchange_raises(self, dataset):
        """No stale snapshot exists yet, so degradation is impossible."""
        cfg, system = dataset
        inj = FaultInjector(FaultPlan(seed=11, drop_rate=0.05))
        with pytest.raises(TransportError, match="lost .* position records"):
            _run(cfg, system, n_steps=1, injector=inj)

    def test_bare_loss_degrades_onto_stale_halo(self, dataset, baseline):
        cfg, system = dataset
        inj = FaultInjector(
            FaultPlan(seed=11, drop_rate=0.02, onset_iteration=1)
        )
        m = _run(cfg, system, n_steps=3, injector=inj)
        assert m.degraded_records_total > 0
        assert len(m.degradation_log) > 0
        rec = m.degradation_log[0]
        assert rec.age >= 1
        assert 0 < rec.force_error_bound < 1e6  # finite, non-vacuous
        # Stale positions perturb the trajectory, but only slightly.
        err = np.abs(m.system.positions - baseline.system.positions).max()
        assert 0 < err < 1e-2

    def test_degradation_raise_mode(self, dataset):
        cfg, system = dataset
        inj = FaultInjector(
            FaultPlan(seed=11, drop_rate=0.02, onset_iteration=1)
        )
        with pytest.raises(TransportError):
            _run(cfg, system, injector=inj, degradation="raise")

    def test_raise_mode_with_exhausted_transport_budget(self, dataset):
        """The composition: reliable transport runs out of retries AND
        degradation is forbidden — the run must die loudly, with the
        exhausted-budget loss visible in the transport counters."""
        cfg, system = dataset
        inj = FaultInjector(
            FaultPlan(seed=11, drop_rate=0.35, onset_iteration=1)
        )
        machine = DistributedMachine(
            cfg, system=system.copy(), injector=inj,
            transport=TransportConfig(retry_budget=1),
            degradation="raise",
        )
        with pytest.raises(TransportError, match=r"degradation='raise'"):
            for _ in range(3):
                machine.step()
        assert machine.transport_stats.lost > 0
        assert machine.transport_stats.retransmits > 0

    def test_raise_mode_with_sufficient_budget_is_bitwise(
        self, dataset, baseline
    ):
        """raise-mode is free when the transport actually recovers."""
        cfg, system = dataset
        m = _run(
            cfg, system,
            injector=FaultInjector(FaultPlan(seed=7, drop_rate=0.01)),
            transport=TransportConfig(retry_budget=4),
            degradation="raise",
        )
        np.testing.assert_array_equal(
            m.system.positions, baseline.system.positions
        )
        assert m.transport_stats.lost == 0
        assert len(m.degradation_log) == 0

    def test_bad_degradation_mode_rejected(self, dataset):
        cfg, system = dataset
        with pytest.raises(ConfigError):
            DistributedMachine(cfg, system=system.copy(), degradation="panic")

    def test_faulty_runs_reproducible(self, dataset):
        cfg, system = dataset
        kwargs = dict(
            injector=FaultInjector(FaultPlan(seed=13, drop_rate=0.02)),
            transport=TransportConfig(retry_budget=3),
        )
        a = _run(cfg, system, **kwargs)
        b = _run(cfg, system, **kwargs)
        np.testing.assert_array_equal(a.system.positions, b.system.positions)
        assert a.transport_stats == b.transport_stats


class TestMinimumPairDistance:
    def test_matches_bruteforce(self):
        from repro.md.neighborlist import minimum_pair_distance

        system, grid = build_dataset(
            (3, 3, 3), particles_per_cell=8, seed=4
        )
        pos = system.positions
        ii, jj = np.triu_indices(len(pos), k=1)
        dr = pos[ii] - pos[jj]
        dr -= system.box * np.rint(dr / system.box)
        expected = float(np.sqrt((dr * dr).sum(axis=1).min()))
        assert minimum_pair_distance(system, grid) == pytest.approx(expected)
