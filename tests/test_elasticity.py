"""Elastic rescale: policy, migration planning, two-phase commit/rollback."""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.elasticity import (
    ElasticityPolicy,
    LoadBalancer,
    fpga_grid_for,
    valid_node_counts,
)
from repro.faults import (
    ChannelInjector,
    FaultPlan,
    NodeFaultEvent,
    NodeFaultPlan,
)
from repro.md import build_dataset
from repro.util.errors import ConfigError, ValidationError
from tests.oracles import rebuild_nodes_every_step

DIMS = (12, 3, 3)


def _machine(n_nodes, seed=7, ppc=4, n_steps=0, **kw):
    cfg = MachineConfig(DIMS, fpga_grid_for(DIMS, n_nodes))
    system, _ = build_dataset(DIMS, particles_per_cell=ppc, seed=seed)
    m = DistributedMachine(cfg, system=system, **kw)
    for _ in range(n_steps):
        m.step()
    return m


def _fixed_reference(m, n_nodes):
    """Fresh fixed-size machine primed with m's boundary state, on the
    rebuild-every-step oracle path."""
    cfg = MachineConfig(DIMS, fpga_grid_for(DIMS, n_nodes))
    ref = rebuild_nodes_every_step(
        DistributedMachine(cfg, system=m.system.copy())
    )
    ref._velocities32 = m._velocities32.copy()
    ref._forces32 = m._forces32.copy()
    ref._primed = m._primed
    return ref


def _state(m):
    return (
        m.system.positions.copy(),
        m._velocities32.copy(),
        m._forces32.copy(),
        m._iteration,
        m.config.n_fpgas,
    )


def _states_equal(a, b):
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(a, b)
    )


class TestGridSelection:
    def test_known_grids(self):
        assert fpga_grid_for(DIMS, 4) == (4, 1, 1)
        assert fpga_grid_for(DIMS, 6) == (6, 1, 1)
        assert fpga_grid_for(DIMS, 3) == (3, 1, 1)
        assert fpga_grid_for((4, 4, 4), 8) == (2, 2, 2)

    def test_deterministic(self):
        for n in valid_node_counts(DIMS):
            assert fpga_grid_for(DIMS, n) == fpga_grid_for(list(DIMS), n)

    def test_valid_counts(self):
        assert valid_node_counts(DIMS, 12) == [2, 3, 4, 6, 9, 12]
        # every count's grid divides the cell dims on each axis
        for n in valid_node_counts(DIMS, 12):
            grid = fpga_grid_for(DIMS, n)
            assert all(d % g == 0 for d, g in zip(DIMS, grid))
            assert grid[0] * grid[1] * grid[2] == n

    def test_invalid_counts_raise(self):
        with pytest.raises(ConfigError):
            fpga_grid_for(DIMS, 5)  # 5 does not factor into the dims
        with pytest.raises(ConfigError):
            fpga_grid_for(DIMS, 0)


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ElasticityPolicy(high_water=10.0, low_water=20.0)
        with pytest.raises(ValidationError):
            ElasticityPolicy(sustain=0)
        with pytest.raises(ValidationError):
            ElasticityPolicy(cooldown=-1)
        with pytest.raises(ValidationError):
            ElasticityPolicy(min_nodes=1)

    def test_sustain_hysteresis(self):
        pol = ElasticityPolicy(high_water=10.0, low_water=2.0, sustain=3,
                               cooldown=2)
        bal = LoadBalancer(pol, DIMS)
        hot = [20.0] * 4
        assert bal.observe(hot) is None
        assert bal.observe(hot) is None
        # third consecutive hot observation proposes one step up
        assert bal.observe(hot) == 6

    def test_streak_resets_on_calm(self):
        pol = ElasticityPolicy(high_water=10.0, low_water=2.0, sustain=2)
        bal = LoadBalancer(pol, DIMS)
        assert bal.observe([20.0] * 4) is None
        assert bal.observe([5.0] * 4) is None  # calm breaks the streak
        assert bal.observe([20.0] * 4) is None
        assert bal.observe([20.0] * 4) == 6

    def test_cooldown_after_attempt(self):
        pol = ElasticityPolicy(high_water=10.0, low_water=2.0, sustain=1,
                               cooldown=2)
        bal = LoadBalancer(pol, DIMS)
        assert bal.observe([20.0] * 4) == 6
        bal.notify_rescale(committed=True)
        # two cooldown observations are ignored even if hot
        assert bal.observe([20.0] * 6) is None
        assert bal.observe([20.0] * 6) is None
        assert bal.observe([20.0] * 6) == 9

    def test_shrink_flap_guard(self):
        # Shrinking 4 -> 3 multiplies per-node load by 4/3; the guard
        # refuses the shrink when that projected load re-crosses high.
        pol = ElasticityPolicy(high_water=10.0, low_water=8.0, sustain=1)
        bal = LoadBalancer(pol, DIMS)
        assert bal.observe([8.0] * 4) is None  # 8 * 4/3 > 10 -> would flap
        pol2 = ElasticityPolicy(high_water=20.0, low_water=8.0, sustain=1)
        bal2 = LoadBalancer(pol2, DIMS)
        assert bal2.observe([8.0] * 4) == 3

    def test_meta_round_trip(self):
        pol = ElasticityPolicy(high_water=10.0, low_water=2.0, sustain=2,
                               cooldown=3)
        bal = LoadBalancer(pol, DIMS)
        bal.observe([20.0] * 4)
        clone = LoadBalancer.from_meta(bal.meta())
        assert clone.meta() == bal.meta()
        # the restored streak continues where the original left off
        assert clone.observe([20.0] * 4) == bal.observe([20.0] * 4) == 6


class TestRescaleCommit:
    def test_grow_bitwise_vs_fixed_size(self):
        m = _machine(4, n_steps=3)
        ref = _fixed_reference(m, 6)
        assert m.rescale(6)
        assert m.config.fpga_grid == (6, 1, 1)
        m.run(3)
        ref.run(3)
        assert np.array_equal(m.system.positions, ref.system.positions)
        assert np.array_equal(m._velocities32, ref._velocities32)

    def test_shrink_bitwise_vs_fixed_size(self):
        m = _machine(6, n_steps=2)
        ref = _fixed_reference(m, 3)
        assert m.rescale(3)
        m.run(2)
        ref.run(2)
        assert np.array_equal(m.system.positions, ref.system.positions)
        assert np.array_equal(m._velocities32, ref._velocities32)

    def test_record_conservation(self):
        m = _machine(4, n_steps=2)
        assert m.rescale(6)
        (rec,) = m.rescale_log
        rpp = m.config.records_per_packet
        assert sum(f[2] for f in rec.flows) == rec.records_moved
        assert sum(f[3] for f in rec.flows) == rec.migration_packets
        for _, _, records, packets in rec.flows:
            assert packets == -(-records // rpp)
        assert rec.migration_bytes == (
            rec.migration_packets * m.config.packet_bits // 8
        )
        # bytes out == bytes in: the switch delivered every packet
        assert m.migration_switch_stats.delivered == rec.migration_packets
        assert m.migration_switch_stats.dropped == 0
        assert m.migration_switch_stats.rescales == 1

    def test_recovery_summary_reports_rescales(self):
        m = _machine(4, n_steps=2)
        m.rescale(6)
        s = m.recovery_summary()
        assert s["rescales_planned"] == 1
        assert s["rescales_aborted"] == 0
        assert s["rescale_records_moved"] == m.rescale_log[0].records_moved
        assert s["rescale_migration_packets"] > 0
        assert s["rescale_migration_cycles"] > 0

    def test_bad_targets_raise(self):
        m = _machine(4, n_steps=1)
        with pytest.raises(ConfigError):
            m.rescale(4)  # same size is not a rescale
        with pytest.raises(ConfigError):
            m.rescale(1)  # single node is not distributed
        with pytest.raises(ConfigError):
            m.rescale(6, fpga_grid=(3, 1, 1))  # contradictory target
        with pytest.raises(ConfigError):
            m.rescale()  # no target at all
        with pytest.raises(ConfigError):
            m.rescale(5)  # does not factor into the dims


class TestRescaleAbort:
    def test_lost_migration_flow_rolls_back(self):
        inj = ChannelInjector(FaultPlan(seed=3, drop_rate=1.0), "rescale")
        m = _machine(4, n_steps=2, injector=inj)
        clean = _machine(4, n_steps=2)
        before = _state(m)
        assert not m.rescale(6)
        assert _states_equal(_state(m), before)
        (ab,) = m.rescale_aborted_log
        assert ab.phase == "transfer"
        assert ab.rolled_back
        assert ab.packets_lost > 0
        # the faulty channel never touches the position exchange:
        # the machine continues bitwise on the fault-free trajectory
        m.run(2)
        clean.run(2)
        assert np.array_equal(m.system.positions, clean.system.positions)

    def test_corrupt_transfer_rolls_back(self):
        inj = ChannelInjector(FaultPlan(seed=5, corrupt_rate=1.0), "rescale")
        m = _machine(4, n_steps=2, injector=inj)
        before = _state(m)
        assert not m.rescale(6)
        assert _states_equal(_state(m), before)
        assert m.rescale_aborted_log[0].rolled_back

    def test_crash_during_migration_rolls_back_then_recovers(self):
        # After 2 steps the boundary iteration is 3; the scripted crash
        # aborts the rescale there, then the next force pass draws the
        # same crash and recovers losslessly from the shadow.
        faults = NodeFaultPlan(events=(NodeFaultEvent(node=0, iteration=3),))
        m = _machine(4, n_steps=2, node_faults=faults)
        clean = _machine(4, n_steps=2)
        before = _state(m)
        assert not m.rescale(6)
        assert _states_equal(_state(m), before)
        (ab,) = m.rescale_aborted_log
        assert ab.phase == "transfer"
        assert "crashed" in ab.reason
        m.run(3)
        clean.run(3)
        assert len(m.recovery_log) == 1
        assert np.array_equal(m.system.positions, clean.system.positions)

    def test_down_node_refused_in_prepare(self):
        faults = NodeFaultPlan(
            events=(NodeFaultEvent(node=1, iteration=1),),
            restart_iterations=50,
        )
        m = _machine(4, n_steps=2, node_faults=faults)
        assert not m.rescale(6)
        (ab,) = m.rescale_aborted_log
        assert ab.phase == "prepare"
        assert "restarting" in ab.reason

    def test_abort_counted_in_summary(self):
        inj = ChannelInjector(FaultPlan(seed=3, drop_rate=1.0), "rescale")
        m = _machine(4, n_steps=2, injector=inj)
        m.rescale(6)
        s = m.recovery_summary()
        assert s["rescales_planned"] == 0
        assert s["rescales_aborted"] == 1


class TestBalancerIntegration:
    def test_maybe_rescale_grows_under_load(self):
        m = _machine(4, n_steps=1)
        pol = ElasticityPolicy(high_water=1.0, low_water=0.5, sustain=1,
                               cooldown=0)
        m.balancer = LoadBalancer(pol, DIMS)
        out = m.maybe_rescale()
        assert out is True
        assert m.config.n_fpgas == 6
        assert m.balancer.proposals == 1

    def test_maybe_rescale_none_when_calm(self):
        m = _machine(4, n_steps=1)
        pol = ElasticityPolicy(high_water=1e9, low_water=0.0, sustain=1)
        m.balancer = LoadBalancer(pol, DIMS)
        assert m.maybe_rescale() is None
        assert m.config.n_fpgas == 4

    def test_no_balancer_is_none(self):
        m = _machine(4, n_steps=1)
        assert m.maybe_rescale() is None


class TestChannelInjector:
    def test_off_channel_is_clean(self):
        inj = ChannelInjector(FaultPlan(seed=1, drop_rate=1.0), "rescale")
        assert inj.decide(0, 1, "position", 5).clean
        drop, corrupt = inj.drop_corrupt_arrays(0, 1, "position", 5, 8)
        assert not drop.any() and not corrupt.any()

    def test_on_channel_matches_plain_injector(self):
        from repro.faults import FaultInjector

        plan = FaultPlan(seed=1, drop_rate=0.5, corrupt_rate=0.25)
        scoped = ChannelInjector(plan, "rescale")
        plain = FaultInjector(plan)
        d1, c1 = scoped.drop_corrupt_arrays(0, 1, "rescale", 3, 16)
        d2, c2 = plain.drop_corrupt_arrays(0, 1, "rescale", 3, 16)
        assert np.array_equal(d1, d2) and np.array_equal(c1, c2)

    def test_subchannel_covered(self):
        inj = ChannelInjector(FaultPlan(seed=1, drop_rate=1.0), "rescale")
        assert inj.decide(0, 1, "rescale/ack", 5).drop
        assert inj.decide(0, 1, "rescaleX", 5).clean  # prefix alone: no


class TestCheckpointMidPolicy:
    def test_round_trip_continues_bitwise(self, tmp_path):
        from repro.core.checkpoint import load_checkpoint_v2, save_checkpoint_v2

        m = _machine(4, n_steps=2)
        pol = ElasticityPolicy(high_water=10.0, low_water=2.0, sustain=2)
        m.balancer = LoadBalancer(pol, DIMS)
        m.balancer.observe([20.0] * 4)  # mid-streak
        assert m.rescale(6)
        m.run(1)
        path = save_checkpoint_v2(m, str(tmp_path / "elastic.npz"))
        m2, _ = load_checkpoint_v2(path)
        assert m2.balancer is not None
        assert m2.balancer.meta() == m.balancer.meta()
        assert [r.iteration for r in m2.rescale_log] == [
            r.iteration for r in m.rescale_log
        ]
        assert m2.migration_switch_stats == m.migration_switch_stats
        m.run(2)
        m2.run(2)
        assert np.array_equal(m.system.positions, m2.system.positions)
        assert np.array_equal(m._velocities32, m2._velocities32)


class TestThreadPoolAcrossPartitionChanges:
    """Serial and ``parallel=True`` side by side through stale-halo
    degradation, scripted crashes and two committed rescales: the pool
    is rebuilt for every partition and the trajectories stay bitwise
    equal, record for record."""

    #: (rescale target before the window or None, steps in the window).
    SCHEDULE = ((None, 5), (6, 5), (3, 5))

    def _run(self, parallel):
        # Lossy position exchange on bare UDP: lost records degrade onto
        # stale snapshots.  Seed 2 never loses a cell that has no
        # snapshot yet, i.e. right after a rescale cleared them.
        injector = ChannelInjector(
            FaultPlan(seed=2, drop_rate=0.03, onset_iteration=1), "position"
        )
        faults = NodeFaultPlan(
            events=(
                NodeFaultEvent(node=1, iteration=3),
                NodeFaultEvent(node=2, iteration=12),
            )
        )
        m = _machine(
            4, parallel=parallel, injector=injector, node_faults=faults
        )
        pools = []
        try:
            m.run(0)
            for n_new, steps in self.SCHEDULE:
                if n_new is not None:
                    assert m.rescale(n_new)
                for _ in range(steps):
                    m.step()
                pools.append((m.config.n_fpgas, m._executor))
        finally:
            m.close()
        return m, pools

    def test_matches_serial_through_loss_crashes_and_rescales(self):
        serial, serial_pools = self._run(False)
        pooled, pools = self._run(True)
        assert all(pool is None for _, pool in serial_pools)
        # One pool per partition, sized one worker per node.
        assert [n for n, _ in pools] == [4, 6, 3]
        assert len({id(pool) for _, pool in pools}) == 3
        assert [pool._max_workers for _, pool in pools] == [4, 6, 3]
        assert np.array_equal(serial.system.positions, pooled.system.positions)
        assert np.array_equal(serial.forces, pooled.forces)
        assert np.array_equal(serial.velocities, pooled.velocities)
        assert serial.degradation_log == pooled.degradation_log
        assert serial.recovery_log == pooled.recovery_log
        assert serial.rescale_log == pooled.rescale_log
        assert serial.rescale_aborted_log == pooled.rescale_aborted_log == []
        assert serial.transport_stats == pooled.transport_stats
        assert (serial.total_position_packets, serial.total_force_packets) == (
            pooled.total_position_packets, pooled.total_force_packets
        )
        # The scenario exercises every partition-changing path.
        assert len(serial.degradation_log) > 0
        assert len(serial.recovery_log) == 2
        assert len(serial.rescale_log) == 2
