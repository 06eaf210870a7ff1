"""The distributed force phase without per-node fixed costs.

* The folded merge (one pass over every node's flat force returns) is
  bitwise the per-segment merge it replaced
  (:func:`tests.oracles.merge_segments`), pass by pass: force bank,
  potential and force packets, through a degraded step whose stale
  snapshot repeats a particle id, on the thread pool and across a
  4 -> 6 -> 3 rescale schedule.
* Node view states update in place when particles only change cell,
  and stay bitwise a rebuild-every-step run.
"""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.elasticity import fpga_grid_for
from repro.faults import ChannelInjector, FaultPlan
from repro.md import build_dataset
from repro.md.backends import available_backends
from repro.md.engine import ReferenceEngine
from tests.oracles import merge_segments, rebuild_nodes_every_step
from tests.test_node_core import LOSS_AT, _stale_membership_machine

BACKENDS = ["numpy", "cext"]
#: The elasticity tests' box: 4, 6 and 3 nodes all divide it.
DIMS = (12, 3, 3)
SCHEDULE = ((None, 5), (6, 5), (3, 5))


def _require(name):
    if name not in available_backends():
        pytest.skip(f"{name} backend unavailable")


def _check_fold(machine: DistributedMachine) -> list:
    """Make every merge of ``machine`` also run the per-segment oracle on
    the same node results and assert the two bitwise equal; returns the
    list of merged passes' iterations, appended as they run."""
    fold = machine._merge_results
    merged = []

    def checked(node_list, results):
        before = machine.total_force_packets
        want = merge_segments(machine, node_list, results)
        bank = machine._forces32
        packets = machine.total_force_packets - before
        machine.total_force_packets = before
        got = fold(node_list, results)
        assert got == want
        # Bitwise, signed zeros included.
        assert np.array_equal(machine._forces32.view(np.uint32), bank.view(np.uint32))
        assert machine.total_force_packets - before == packets
        merged.append(machine._iteration)
        return got

    machine._merge_results = checked
    return merged


def _warm_system(dims, ppc, seed):
    """A lattice advanced 60 float64 steps, so particles change cell
    from the first machine step on."""
    system, grid = build_dataset(dims, particles_per_cell=ppc, seed=seed)
    ReferenceEngine(system, grid, force_impl="numpy").run(60, record_every=0)
    return system


def _run_schedule(m: DistributedMachine) -> None:
    m.run(0)
    for n_new, steps in SCHEDULE:
        if n_new is not None:
            assert m.rescale(n_new)
        for _ in range(steps):
            m.step()


def _lossy():
    # The elasticity tests' lossy exchange: seed 2 never loses a cell
    # without a snapshot to degrade onto.
    return ChannelInjector(
        FaultPlan(seed=2, drop_rate=0.03, onset_iteration=1), "position"
    )


class TestFoldMatchesSegmentMerge:
    @pytest.mark.parametrize("relabel", [False, True])
    def test_through_stale_membership_degradation(self, relabel):
        machine, _, _ = _stale_membership_machine(relabel=relabel)
        merged = _check_fold(machine)
        machine.run(0)
        for _ in range(12):
            machine.step()
        assert len(machine.degradation_log) == 1
        # The degraded pass (the snapshot substituted at exchange
        # LOSS_AT) was merged.
        assert LOSS_AT + 1 in merged
        assert len(merged) == 13

    def test_on_the_thread_pool(self):
        pooled, _, _ = _stale_membership_machine(parallel=True)
        serial, _, _ = _stale_membership_machine()
        merged = _check_fold(pooled)
        try:
            for m in (pooled, serial):
                m.run(0)
                for _ in range(12):
                    m.step()
        finally:
            pooled.close()
        assert len(merged) == 13
        assert np.array_equal(pooled.forces, serial.forces)
        assert np.array_equal(pooled.system.positions, serial.system.positions)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_across_rescales(self, name):
        _require(name)
        m = DistributedMachine(
            MachineConfig(DIMS, fpga_grid_for(DIMS, 4)),
            system=_warm_system(DIMS, 4, 7), injector=_lossy(),
        )
        m.force_impl = name
        merged = _check_fold(m)
        _run_schedule(m)
        assert [r.n_new for r in m.rescale_log] == [6, 3]
        assert len(merged) == 16
        assert m.degradation_log


class TestNodeStatesUpdateInPlace:
    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("name", BACKENDS)
    def test_updates_match_rebuild_every_step(self, name, parallel):
        _require(name)
        system = _warm_system((4, 4, 4), 8, 3)
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        oracle = rebuild_nodes_every_step(
            DistributedMachine(cfg, system=system.copy())
        )
        m = DistributedMachine(cfg, system=system.copy(), parallel=parallel)
        oracle.force_impl = m.force_impl = name
        try:
            recs = [x.run(30, record_every=1) for x in (oracle, m)]
        finally:
            m.close()
        assert [r.potential for r in recs[0]] == [r.potential for r in recs[1]]
        assert np.array_equal(oracle.system.positions, m.system.positions)
        assert np.array_equal(oracle.velocities, m.velocities)
        assert np.array_equal(oracle.forces, m.forces)
        assert oracle.total_force_packets == m.total_force_packets
        states = [s for s, _ in m._node_states.values()]
        assert sum(s.updates for s in states) > 0
        # Full builds only on the priming pass and the skin/2 trigger.
        assert m.state_builds < m.state_reused_steps
        assert oracle.state_reused_steps == 0

    def test_updates_across_rescales_with_loss(self):
        oracle = rebuild_nodes_every_step(
            DistributedMachine(
                MachineConfig(DIMS, fpga_grid_for(DIMS, 4)),
                system=_warm_system(DIMS, 4, 7), injector=_lossy(),
            )
        )
        m = DistributedMachine(
            MachineConfig(DIMS, fpga_grid_for(DIMS, 4)),
            system=_warm_system(DIMS, 4, 7), injector=_lossy(),
        )
        updates = []
        for x in (oracle, m):
            x.run(0)
            for n_new, steps in SCHEDULE:
                if n_new is not None:
                    assert x.rescale(n_new)
                for _ in range(steps):
                    x.step()
                if x is m:
                    updates.append(sum(s.updates for s, _ in m._node_states.values()))
        assert np.array_equal(oracle.system.positions, m.system.positions)
        assert np.array_equal(oracle.forces, m.forces)
        assert oracle.degradation_log == m.degradation_log
        assert oracle.transport_stats == m.transport_stats
        # A rescale drops the node states, so each window counts its own.
        assert sum(updates) > 0, updates
