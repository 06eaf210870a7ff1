"""Node-failure recovery: bitwise-lossless crashes, soak, watchdog."""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.sync import diagnose_dead_node
from repro.faults import (
    NodeFaultEvent,
    NodeFaultInjector,
    NodeFaultPlan,
)
from repro.md import build_dataset
from repro.network.topology import TorusTopology
from repro.util.errors import ConfigError, NodeFailureError, ValidationError
from tests.oracles import rebuild_nodes_every_step

DIMS = (4, 4, 4)
FPGA = (2, 2, 2)


def _machine(seed, node_faults=None, shadow_interval=2, n_steps=0):
    cfg = MachineConfig(DIMS, FPGA)
    system, _ = build_dataset(DIMS, particles_per_cell=16, seed=seed)
    m = DistributedMachine(
        cfg, system=system, node_faults=node_faults,
        shadow_interval=shadow_interval,
    )
    for _ in range(n_steps):
        m.step()
    return m


class TestPlanValidation:
    def test_event_validation(self):
        with pytest.raises(ValidationError):
            NodeFaultEvent(node=-1, iteration=0)
        with pytest.raises(ValidationError):
            NodeFaultEvent(node=0, iteration=0, kind="meltdown")

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            NodeFaultPlan(crash_rate=1.5)
        with pytest.raises(ValidationError):
            NodeFaultPlan(restart_iterations=0)
        with pytest.raises(ValidationError):
            NodeFaultPlan.from_mtbf(0.5)

    def test_from_mtbf(self):
        plan = NodeFaultPlan.from_mtbf(4.0, seed=3)
        assert plan.crash_rate == pytest.approx(0.25)
        assert plan.has_node_faults

    def test_injector_deterministic(self):
        plan = NodeFaultPlan(seed=11, crash_rate=0.3, slowdown_rate=0.2)
        a, b = NodeFaultInjector(plan), NodeFaultInjector(plan)
        for it in range(6):
            assert a.crashes_at(it, 8) == b.crashes_at(it, 8)
            for node in range(8):
                assert a.work_multiplier(node, it) == b.work_multiplier(node, it)

    def test_scripted_event_fires_once(self):
        plan = NodeFaultPlan(events=(NodeFaultEvent(node=2, iteration=1),))
        inj = NodeFaultInjector(plan)
        assert inj.crashes_at(0, 8) == []
        assert inj.crashes_at(1, 8) == [2]
        assert inj.crashes_at(2, 8) == []

    def test_machine_knob_validation(self):
        cfg = MachineConfig(DIMS, FPGA)
        with pytest.raises(ConfigError):
            DistributedMachine(cfg, shadow_interval=0)
        with pytest.raises(ConfigError):
            DistributedMachine(cfg, watchdog_timeout_cycles=-1.0)


SCHEDULES = {
    "early": (NodeFaultEvent(node=1, iteration=1),),
    "late-two": (
        NodeFaultEvent(node=3, iteration=2),
        NodeFaultEvent(node=6, iteration=4),
    ),
}


class TestBitwiseLosslessRecovery:
    @pytest.mark.parametrize("seed", [2023, 7, 99])
    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    def test_scripted_crash_is_bitwise_lossless(self, seed, schedule):
        """The recovery contract: trajectory identical, accounting nonzero."""
        n_steps = 5
        baseline = _machine(seed, n_steps=n_steps)
        plan = NodeFaultPlan(events=SCHEDULES[schedule])
        m = _machine(seed, node_faults=plan, n_steps=n_steps)
        np.testing.assert_array_equal(
            m.system.positions, baseline.system.positions
        )
        np.testing.assert_array_equal(m._forces32, baseline._forces32)
        assert [
            (a.step, a.kinetic, a.potential) for a in m.history
        ] == [(b.step, b.kinetic, b.potential) for b in baseline.history]
        # ... but the crash really happened and was paid for.
        assert len(m.recovery_log) == len(SCHEDULES[schedule])
        summary = m.recovery_summary()
        assert summary["records_moved"] > 0
        assert summary["cycles_lost"] > 0
        assert summary["recovery_traffic_records"] > 0
        assert m.shadow_traffic_records > 0
        assert baseline.recovery_summary()["n_recoveries"] == 0

    def test_random_mtbf_crashes_bitwise(self):
        baseline = _machine(5, n_steps=6)
        plan = NodeFaultPlan.from_mtbf(3.0, seed=5)
        m = _machine(5, node_faults=plan, n_steps=6)
        assert len(m.recovery_log) > 0
        np.testing.assert_array_equal(
            m.system.positions, baseline.system.positions
        )

    def test_recovery_record_fields(self):
        plan = NodeFaultPlan(
            events=(NodeFaultEvent(node=1, iteration=3),)
        )
        m = _machine(2023, node_faults=plan, shadow_interval=2, n_steps=5)
        (rec,) = m.recovery_log
        assert rec.node == 1
        assert rec.crash_iteration == rec.detected_iteration == 3
        assert rec.buddy == 2
        assert rec.shadow_iteration == 2
        assert rec.replay_iterations == 1
        assert rec.cells_moved > 0
        assert rec.records_moved == rec.migration_cross_node > 0
        assert rec.cycles_lost >= m.watchdog_timeout_cycles

    def test_restart_window_suppresses_rapid_recrash(self):
        """A node already down cannot crash again until it restarts."""
        plan = NodeFaultPlan(
            events=(
                NodeFaultEvent(node=1, iteration=1),
                NodeFaultEvent(node=1, iteration=2),
            ),
            restart_iterations=3,
        )
        m = _machine(2023, node_faults=plan, n_steps=5)
        assert len(m.recovery_log) == 1

    def test_all_nodes_down_raises(self):
        events = tuple(
            NodeFaultEvent(node=k, iteration=1) for k in range(8)
        )
        plan = NodeFaultPlan(events=events)
        with pytest.raises(NodeFailureError, match="8"):
            _machine(2023, node_faults=plan, n_steps=3)

    def test_reuse_state_survives_crash_bitwise(self):
        oracle = rebuild_nodes_every_step(_machine(2023))
        clean = _machine(2023)
        plan = NodeFaultPlan(events=(NodeFaultEvent(node=4, iteration=2),))
        m = _machine(2023, node_faults=plan)
        for _ in range(5):
            oracle.step()
            clean.step()
            m.step()
        np.testing.assert_array_equal(
            m.system.positions, oracle.system.positions
        )
        # Recovery invalidates the node cache, so the recovered run
        # pays at least as many rebuilds as a fault-free one.
        assert m.state_builds >= clean.state_builds
        assert len(m.recovery_log) == 1

    def test_slowdown_events_logged(self):
        plan = NodeFaultPlan(seed=3, slowdown_rate=0.5, slowdown_factor=2.5)
        m = _machine(2023, node_faults=plan, n_steps=4)
        assert len(m.node_slowdown_log) > 0
        assert all(f == 2.5 for _, _, f in m.node_slowdown_log)
        assert m.recovery_summary()["slowdown_events"] == len(
            m.node_slowdown_log
        )


class TestWatchdogDiagnosis:
    def test_dead_node_named(self):
        text = diagnose_dead_node(TorusTopology(FPGA), 1)
        assert "from node(s) 1" in text

    def test_bad_node_rejected(self):
        with pytest.raises(ConfigError):
            diagnose_dead_node(TorusTopology(FPGA), 8)


class TestNodeSoak:
    def test_small_soak_all_recovered(self):
        from repro.harness.faultsweep import format_node_soak, run_node_soak

        res = run_node_soak(
            mtbfs=(3.0,), intervals=(1, 2), n_steps=4, seeds=(2023,)
        )
        assert len(res.cells) == 2
        assert res.unrecovered == 0
        assert all(c.n_recoveries > 0 for c in res.cells)
        # Shorter shadow interval -> more shadow traffic, less replay.
        by_interval = {c.shadow_interval: c for c in res.cells}
        assert (
            by_interval[1].shadow_traffic_records
            > by_interval[2].shadow_traffic_records
        )
        assert "unrecovered" in format_node_soak(res)

    def test_soak_json_roundtrip(self):
        import json

        from repro.harness.faultsweep import run_node_soak

        res = run_node_soak(
            mtbfs=(4.0,), intervals=(2,), n_steps=3, seeds=(7,)
        )
        doc = json.loads(res.to_json())
        assert doc["unrecovered"] == res.unrecovered
        assert len(doc["cells"]) == 1


class TestRecoveryDemo:
    def test_demo_document(self):
        from repro.harness.faultsweep import (
            format_recovery_demo,
            run_recovery_demo,
        )

        doc = run_recovery_demo(node=1, iteration=3)
        assert doc["bitwise_identical"]
        assert "from node(s) 1" in doc["watchdog_diagnosis"]
        assert doc["switch"]["recoveries"] == len(doc["recovery_log"]) >= 1
        assert doc["switch"]["delivered"] > 0
        assert doc["step_stats"]["recoveries"] >= 1
        assert doc["step_stats"]["recovery_cycles"] > 0
        text = format_recovery_demo(doc)
        assert "bitwise identical" in text
        assert "watchdog" in text
