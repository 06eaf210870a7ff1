"""Tests for the distributed execution mode (real packets + ID conversion)."""

import numpy as np
import pytest

from repro.core import distributed
from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.md import build_dataset
from repro.util.errors import ConfigError, ValidationError


@pytest.fixture(scope="module")
def pair():
    """A global machine and a distributed machine on identical state."""
    cfg = MachineConfig((4, 4, 4), (2, 2, 2))
    system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=2)
    return (
        cfg,
        FasdaMachine(cfg, system=system.copy()),
        DistributedMachine(cfg, system=system.copy()),
    )


class TestConstruction:
    def test_single_node_rejected(self):
        with pytest.raises(ConfigError):
            DistributedMachine(MachineConfig((3, 3, 3)))

    def test_coulomb_machine_constructs(self):
        system, _ = build_dataset(
            (4, 4, 4), particles_per_cell=8, species=("Na", "Cl"),
            charged=True, min_distance=2.4, seed=3,
        )
        d = DistributedMachine(
            MachineConfig((4, 4, 4), (2, 2, 2), force_model="lj+coulomb"),
            system=system,
        )
        assert d.coulomb_pipeline is not None


class TestEquivalenceWithGlobalMachine:
    def test_forces_agree_within_accumulation_noise(self, pair):
        _, global_m, dist_m = pair
        global_m.compute_forces(collect_traffic=True)
        dist_m.compute_forces()
        fg = global_m.forces.astype(np.float64)
        fd = dist_m.forces.astype(np.float64)
        scale = np.abs(fg).max()
        assert np.abs(fg - fd).max() / scale < 1e-5

    def test_potential_energy_agrees(self, pair):
        _, global_m, dist_m = pair
        stats = global_m.compute_forces(collect_traffic=True)
        dist_m.compute_forces()
        assert dist_m._last_potential == pytest.approx(
            stats.potential_energy, rel=1e-5
        )

    def test_position_packet_count_matches_traffic_accounting(self, pair):
        """The distributed execution's real packets equal the global
        machine's accounting: ceil(records / 4) per directed node pair."""
        cfg, global_m, dist_m = pair
        stats = global_m.compute_forces(collect_traffic=True)
        dist_m.total_position_packets = 0
        dist_m.compute_forces()
        expected = sum(
            int(np.ceil(r / cfg.records_per_packet))
            for r in stats.position_records.values()
        )
        assert dist_m.total_position_packets == expected

    def test_trajectories_track_each_other(self):
        """Several steps: energies agree within float32 noise growth."""
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=5)
        g = FasdaMachine(cfg, system=system.copy())
        d = DistributedMachine(cfg, system=system.copy())
        g_recs = g.run(10, record_every=5)
        d_recs = d.run(10, record_every=5)
        for gr, dr in zip(g_recs, d_recs):
            assert dr.total == pytest.approx(gr.total, rel=1e-5)


class TestCoulombEquivalence:
    def test_charged_forces_match_global_machine(self):
        """The dual-pipeline (LJ + Ewald) datapath distributes too."""
        cfg = MachineConfig(
            (4, 4, 4), (2, 2, 2), force_model="lj+coulomb", dt_fs=0.5
        )
        system, _ = build_dataset(
            (4, 4, 4), particles_per_cell=8, species=("Na", "Cl"),
            charged=True, min_distance=2.4, temperature_k=100.0, seed=6,
        )
        g = FasdaMachine(cfg, system=system.copy())
        d = DistributedMachine(cfg, system=system.copy())
        g.compute_forces(collect_traffic=False)
        d.compute_forces()
        fg = g.forces.astype(np.float64)
        fd = d.forces.astype(np.float64)
        assert np.abs(fg - fd).max() / np.abs(fg).max() < 1e-5


class TestParallelExecution:
    def test_parallel_identical_to_serial(self):
        """Thread-pool evaluation merges deterministically: bit-identical
        forces regardless of worker scheduling."""
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=9)
        serial = DistributedMachine(cfg, system=system.copy(), parallel=False)
        threaded = DistributedMachine(cfg, system=system.copy(), parallel=True)
        serial.compute_forces()
        threaded.compute_forces()
        np.testing.assert_array_equal(serial.forces, threaded.forces)
        assert serial._last_potential == threaded._last_potential

    def test_parallel_trajectory_identical(self):
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=8, seed=10)
        serial = DistributedMachine(cfg, system=system.copy())
        threaded = DistributedMachine(cfg, system=system.copy(), parallel=True)
        serial.run(5, record_every=0)
        threaded.run(5, record_every=0)
        np.testing.assert_array_equal(
            serial.system.positions, threaded.system.positions
        )

    def test_parallel_trajectory_bitwise_20_steps(self):
        """Serial vs thread-pooled trajectories stay bitwise-identical over a
        long run — positions, velocities, forces and energy history."""
        cfg = MachineConfig((4, 4, 4), (2, 2, 1))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=12, seed=12)
        serial = DistributedMachine(cfg, system=system.copy(), parallel=False)
        pooled = DistributedMachine(cfg, system=system.copy(), parallel=True)
        try:
            serial.run(20, record_every=1)
            pooled.run(20, record_every=1)
            np.testing.assert_array_equal(
                serial.system.positions, pooled.system.positions
            )
            np.testing.assert_array_equal(serial.forces, pooled.forces)
            np.testing.assert_array_equal(
                serial.velocities, pooled.velocities
            )
            assert [(r.step, r.kinetic, r.potential) for r in serial.history] == [
                (r.step, r.kinetic, r.potential) for r in pooled.history
            ]
            assert serial.total_position_packets == pooled.total_position_packets
            assert serial.total_force_packets == pooled.total_force_packets
        finally:
            pooled.close()

    def test_executor_reused_across_steps(self):
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=8, seed=10)
        d = DistributedMachine(cfg, system=system, parallel=True)
        try:
            d.compute_forces()
            first = d._executor
            d.compute_forces()
            assert d._executor is first
            assert first._max_workers == cfg.n_fpgas
        finally:
            d.close()
        assert d._executor is None

    @pytest.mark.parametrize("value", ["process", "thread"])
    def test_retired_pool_settings_rejected(self, value):
        """``parallel`` is a bool: the retired string settings fail at
        the constructor, naming the replacement, and the pool size is
        not a parameter."""
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        with pytest.raises(ConfigError, match=r"retired.*parallel=True"):
            DistributedMachine(cfg, parallel=value)
        with pytest.raises(TypeError, match="max_workers"):
            DistributedMachine(cfg, parallel=True, max_workers=2)


class TestProtocolProperties:
    def test_energy_conserved(self, pair):
        cfg, _, _ = pair
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=7)
        d = DistributedMachine(cfg, system=system)
        recs = d.run(20, record_every=10)
        e0 = recs[0].total
        for rec in recs:
            assert abs(rec.total - e0) / abs(e0) < 5e-3

    def test_newtons_third_law_across_nodes(self, pair):
        """Forces summed over ALL nodes' particles vanish — the returned
        neighbor-force packets carry exactly the missing reactions."""
        _, _, dist_m = pair
        dist_m.compute_forces()
        total = dist_m.forces.astype(np.float64).sum(axis=0)
        assert np.abs(total).max() < 1e-2

    def test_force_packets_flow(self, pair):
        _, _, dist_m = pair
        dist_m.total_force_packets = 0
        dist_m.compute_forces()
        assert dist_m.total_force_packets > 0

    def test_negative_steps_rejected(self, pair):
        _, _, dist_m = pair
        with pytest.raises(Exception):
            dist_m.run(-1)


class TestIdConversionCheck:
    """The GCID -> LCID conversion of every halo record is round-trip
    checked: a conversion that shifts one coordinate is refused with a
    :class:`ValidationError` before any force pass completes."""

    @staticmethod
    def _shift_x(monkeypatch):
        real = distributed.gcid_to_lcid

        def shifted(cell_coords, node_coords, local_dims, global_dims):
            lcid = real(cell_coords, node_coords, local_dims, global_dims)
            lcid[..., 0] += 1
            return lcid

        monkeypatch.setattr(distributed, "gcid_to_lcid", shifted)

    @staticmethod
    def _count_merges(monkeypatch):
        merged = []
        merge = DistributedMachine._merge_results

        def counted(self, node_list, results):
            merged.append(self._iteration)
            return merge(self, node_list, results)

        monkeypatch.setattr(DistributedMachine, "_merge_results", counted)
        return merged

    def test_corrupted_conversion_refused_before_first_pass(self, monkeypatch):
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=4, seed=2)
        merged = self._count_merges(monkeypatch)
        self._shift_x(monkeypatch)
        with pytest.raises(ValidationError, match="LCID conversion corrupted"):
            d = DistributedMachine(cfg, system=system)
            d.run(1)
        assert merged == []

    def test_corrupted_conversion_refused_across_a_rescale(self, monkeypatch):
        """A partition applied by a rescale goes through the same check
        before the first force pass on it completes."""
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=4, seed=2)
        d = DistributedMachine(cfg, system=system)
        d.run(1)
        merged = self._count_merges(monkeypatch)
        self._shift_x(monkeypatch)
        with pytest.raises(ValidationError, match="LCID conversion corrupted"):
            d.rescale(fpga_grid=(2, 1, 1))
            d.run(1)
        assert merged == []
