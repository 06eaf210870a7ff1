"""Equivalence suite for the vectorized machine step.

Three oracles from ``tests/oracles.py`` guard the production paths:

* traffic accounting — the vectorized group-by passes vs the per-row
  loop walk, across 1/2/4/8-node configs and at the sizes the profiler
  and hot-path benchmark time;
* pair enumeration — the fresh padded broadcast matmuls and the
  band-list pass vs the chunked gather enumeration (bitwise-identical
  admissions and integer workload statistics), on dense and skewed
  boxes;
* distributed exchange — array-packed ``RecordBatch`` flows vs the
  per-particle P2R chain walk (identical halos and packet counts).
"""

from dataclasses import asdict, fields

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine, StepStats
from repro.md import build_dataset
from repro.md.backends import available_backends
from tests.oracles import (
    exchange_positions_loop,
    fresh_path,
    loop_exchange,
    loop_traffic,
    view_cell,
)

GRIDS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)]

#: (dims, fpga_grid, particles_per_cell): the 4x4x4 lattice over every
#: node count, plus the paper-density boxes ``repro profile`` times
#: (N ~ 2k / 10k).
TRAFFIC_CASES = [((4, 4, 4), g, 16) for g in GRIDS] + [
    ((3, 3, 3), (3, 1, 1), 64),
    ((5, 5, 6), (1, 1, 2), 64),
]


def _machine(fpga_grid, dims=(4, 4, 4), ppc=16):
    cfg = MachineConfig(dims, fpga_grid)
    system, _ = build_dataset(dims, particles_per_cell=ppc, seed=11)
    return FasdaMachine(cfg, system=system)


def _stats_signature(stats):
    """Everything StepStats carries, in comparable form."""
    return dict(
        position_records=stats.position_records,
        force_records=stats.force_records,
        pr_load={n: asdict(s) for n, s in stats.pr_load.items()},
        fr_load={n: asdict(s) for n, s in stats.fr_load.items()},
        candidates=stats.candidates_per_cell.tolist(),
        accepted=stats.accepted_per_cell.tolist(),
        occupancy=stats.occupancy_per_cell.tolist(),
        nbr_frc=stats.neighbor_force_records_per_cell.tolist(),
    )


class TestTrafficAccountingEquivalence:
    @pytest.mark.parametrize("dims,fpga_grid,ppc", TRAFFIC_CASES)
    def test_vectorized_matches_loop_oracle(self, dims, fpga_grid, ppc):
        # Full StepStats of the production step vs the chunked
        # enumeration + per-row loop accounting of the same system.
        m = _machine(fpga_grid, dims, ppc)
        oracle = loop_traffic(fresh_path(_machine(fpga_grid, dims, ppc), "chunked"))
        vec = _stats_signature(m.compute_forces())
        loop = _stats_signature(oracle.compute_forces())
        assert vec == loop

    def test_vectorized_matches_loop_after_steps(self):
        # Same equivalence on a perturbed (non-lattice) configuration.
        m = _machine((2, 2, 2))
        m.run(3)
        vec = _stats_signature(m.compute_forces())
        loop_traffic(m)
        loop = _stats_signature(m.compute_forces())
        assert vec == loop

    def test_traffic_off_produces_empty_accounting(self):
        m = _machine((2, 2, 2))
        stats = m.compute_forces(collect_traffic=False)
        assert stats.position_records == {}
        assert stats.force_records == {}
        assert all(s.total_records == 0 for s in stats.pr_load.values())


class TestPairPathEquivalence:
    def test_padded_matches_chunked_exactly(self):
        m = fresh_path(_machine((2, 2, 2)), "padded")
        sp = m.compute_forces()
        fp = m.forces.copy()
        fresh_path(m, "chunked")
        sc = m.compute_forces()
        fc = m.forces.copy()
        # Integer workload statistics are bitwise equal (same admitted
        # pair set through the real filter on both paths).
        assert _stats_signature(sp) == _stats_signature(sc)
        # Forces/energy differ only in float32 accumulation grouping.
        scale = np.abs(fc).max()
        assert np.abs(fp - fc).max() <= 1e-4 * max(scale, 1.0)
        assert sp.potential_energy == pytest.approx(
            sc.potential_energy, rel=1e-4
        )

    @pytest.mark.parametrize("name", available_backends())
    def test_skewed_box_matches_chunked_oracle(self, name):
        """The skewed box the chunked enumeration used to take now runs
        the band lists: every StepStats field equals the chunked
        oracle's, the float32 potential (summed per offset here, per
        chunk there) and the float32 banks to their rounding."""
        from tests.test_backends import _skewed_system

        cfg = MachineConfig((4, 4, 4))
        m = FasdaMachine(cfg, system=_skewed_system())
        oracle = fresh_path(FasdaMachine(cfg, system=_skewed_system()), "chunked")
        m.force_impl = oracle.force_impl = name
        got = m.compute_forces(collect_traffic=True)
        want = oracle.compute_forces(collect_traffic=True)
        assert m._cell_state.pairs is not None
        for f in fields(StepStats):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "potential_energy":
                assert a == pytest.approx(b, rel=1e-6)
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f.name
            else:
                assert a == b, f.name
        scale = np.abs(oracle.forces).max()
        assert np.abs(m.forces - oracle.forces).max() <= 1e-6 * scale

    def test_partition_invariance_holds_on_padded_path(self):
        banks = []
        for fpga_grid in GRIDS:
            m = _machine(fpga_grid)
            m.compute_forces()
            assert m._cell_state.pairs is not None  # band-list path
            banks.append(m.forces.copy())
        for other in banks[1:]:
            assert np.array_equal(banks[0], other)


class TestDistributedExchangeEquivalence:
    def _exchange_signature(self, machine, impl):
        nodes = machine._build_nodes()
        if impl == "loop":
            halos = exchange_positions_loop(machine, nodes)
        else:
            machine._exchange_positions(nodes)
            # The halo cells of the packed view: every nonempty cell the
            # node sees and does not own.
            halos = {}
            for nid, node in nodes.items():
                seen = node.layout.counts > 0
                seen[machine._local_cells_static[nid]] = False
                halos[nid] = {
                    int(c): view_cell(node, c) for c in np.flatnonzero(seen)
                }
        sig = {}
        for nid in sorted(nodes):
            node = nodes[nid]
            halo = {
                cid: (
                    data.particle_ids.tolist(),
                    data.fractions.tolist(),
                    data.species.tolist(),
                )
                for cid, data in sorted(halos.get(nid, {}).items())
            }
            sig[nid] = (node.packets_in, node.packets_out, halo)
        return sig

    @pytest.mark.parametrize(
        "fpga_grid,dims,ppc",
        [(g, (4, 4, 4), 16) for g in [(2, 1, 1), (2, 2, 1), (2, 2, 2)]]
        # The boxes ``repro profile --smoke`` and ``repro profile`` run.
        + [((3, 1, 1), (3, 3, 3), 64), ((1, 1, 2), (5, 5, 6), 64)],
    )
    def test_batched_matches_loop_oracle(self, fpga_grid, dims, ppc):
        cfg = MachineConfig(dims, fpga_grid)
        system, _ = build_dataset(dims, particles_per_cell=ppc, seed=11)
        d = DistributedMachine(cfg, system=system)
        batched = self._exchange_signature(d, "batched")
        loop = self._exchange_signature(d, "loop")
        assert batched == loop

    def test_batched_total_packet_counter_matches_loop(self):
        cfg = MachineConfig((4, 4, 4), (2, 2, 2))
        system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=11)
        counts = {}
        for impl in ("batched", "loop"):
            d = DistributedMachine(cfg, system=system.copy())
            if impl == "loop":
                loop_exchange(d)
            d.run(2)
            counts[impl] = (d.total_position_packets, d.total_force_packets)
        assert counts["batched"] == counts["loop"]
