"""The distributed node's force pass against its chunked oracle.

Every node of a :class:`~repro.core.distributed.DistributedMachine`
evaluates its home cells against its local and halo cells.  The oracle
is the distributed layer's original private core
(:func:`tests.oracles.eval_node_chunked`): a chunked enumeration with
its own pipelines and ``np.unique`` record coalescing.  Per node and
force pass over a 20-step trajectory, the production pass must admit
the same pairs, return the same neighbor-force records to the same
owners, and agree on forces and potential to float32 accumulation
noise; the force packets per pass must be exactly the oracle's.

The node view is slot-indexed and its persistent state is a cache:
reuse stays bitwise a fresh build when a stale halo snapshot repeats a
particle id, and a thread pool under contention matches serial.
"""

import sys

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine, _CellData
from repro.faults import FaultInjector, FaultPlan
from repro.md import build_dataset
from repro.md.backends import available_backends
from repro.md.kernels import scatter_add
from repro.md.system import ParticleSystem
from tests.oracles import (
    eval_node_chunked,
    rebuild_nodes_every_step,
    view_cell,
)

BACKENDS = ["numpy", "cext"]
DIMS = (4, 4, 4)


def _require(name):
    if name not in available_backends():
        pytest.skip(f"{name} backend unavailable")


def _machine(model: str, ppc: int, seed: int = 3) -> DistributedMachine:
    if model == "lj":
        system, _ = build_dataset(DIMS, particles_per_cell=ppc, seed=seed)
    else:
        system, _ = build_dataset(
            DIMS, particles_per_cell=ppc, species=("Na", "Cl"),
            charged=True, min_distance=2.4, seed=seed,
        )
    return DistributedMachine(
        MachineConfig(DIMS, (2, 2, 2), force_model=model), system=system
    )


def _contribution(n, ids, forces, returns):
    """A node's whole force contribution as one (N, 3) float64 array:
    the forces on its own particles plus every record it returns."""
    out = np.zeros((n, 3))
    out[ids] += forces
    for pids, f in returns:
        scatter_add(out, pids, f.astype(np.float64))
    return out


def _check_against_oracle(machine: DistributedMachine, records: dict):
    """Wrap ``machine._evaluate_node`` with the per-node oracle check;
    ``records`` collects the oracle's per-owner record counts."""
    real = machine._evaluate_node
    n = machine.system.n
    coulomb = machine.coulomb_pipeline

    def checked(node):
        res = real(node)
        # Every node view lists its band, however sparse its cells.
        entry = machine._node_states.get(node.node_id)
        assert entry is None or entry[0].pairs is not None
        bank, pot, rets, admitted, energy_abs = eval_node_chunked(machine, node)
        assert res.admitted == admitted
        want = {
            o: np.sort(np.concatenate([p for p, _ in segs]))
            for o, segs in rets.items()
        }
        got = {o: np.sort(pids) for o, (pids, _) in res.returns.items()}
        assert sorted(got) == sorted(want)
        for owner in want:
            assert np.array_equal(got[owner], want[owner])
            records[owner] = records.get(owner, 0) + len(want[owner])
        # The oracle bank holds nothing outside the node's own rows.
        outside = np.ones(n, dtype=bool)
        outside[res.ids] = False
        assert not bank[outside].any()
        ref = _contribution(
            n, res.ids, bank[res.ids],
            [seg for segs in rets.values() for seg in segs],
        )
        new = _contribution(n, res.ids, res.forces, list(res.returns.values()))
        scale = max(float(np.abs(ref).max()), 1.0)
        assert np.abs(new - ref).max() <= 1e-5 * scale
        # Relative to the potential, or with Ewald, whose node sums
        # cancel, to the summed pair-energy magnitude.
        ref_scale = abs(pot) if coulomb is None else energy_abs
        assert abs(res.potential - pot) <= 1e-5 * max(ref_scale, 1e-6)
        return res

    machine._evaluate_node = checked


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize(
    # Node views list bands at every density, one particle per cell
    # (which the retired padded-viability gate refused) included.
    "model,ppc", [("lj", 16), ("lj", 8), ("lj", 1), ("lj+coulomb", 8)]
)
def test_nodes_match_chunked_oracle_20_steps(model, ppc, name):
    _require(name)
    machine = _machine(model, ppc)
    machine.force_impl = name
    records: dict = {}
    _check_against_oracle(machine, records)
    rpp = machine.config.records_per_packet
    for step in range(21):
        records.clear()
        before = machine.total_force_packets
        if step == 0:
            machine.run(0)
        else:
            machine.step()
        expected = sum(-(-r // rpp) for r in records.values())
        assert machine.total_force_packets - before == expected, step
        assert records, "no neighbor-force records crossed a node boundary"


class _LoseCellAt(FaultInjector):
    """A fabric that loses one slice of one position flow's packets at
    one iteration (set in :attr:`lost`) and is clean otherwise."""

    def __init__(self):
        super().__init__(FaultPlan(seed=0))
        self.lost = None  # (src, dst, iteration, packet slice)

    def drop_corrupt_arrays(self, src, dst, channel, iteration, n, attempt=0):
        drop = np.zeros(n, dtype=bool)
        if self.lost is not None and channel == "position":
            if self.lost[:3] == (src, dst, iteration):
                drop[self.lost[3]] = True
        return drop, np.zeros(n, dtype=bool)


#: Node 1 ships the x = 2 cells to node 0 (fpga grid 2x1x1); a particle
#: of cell ``H2`` near its face with ``H`` (one cell down in y) gets a
#: stale copy in ``H``'s snapshot, and ``H``'s packets are lost at
#: force pass ``LOSS_AT``.
SRC, DST, LOSS_AT = 1, 0, 5


def _stale_membership_machine(parallel=False, relabel=False):
    system, grid = build_dataset(DIMS, particles_per_cell=16, seed=7)
    injector = _LoseCellAt()
    machine = DistributedMachine(
        MachineConfig(DIMS, (2, 1, 1)), system=system,
        injector=injector, degradation="stale", parallel=parallel,
    )
    h = int(grid.cell_id(np.array([2, 1, 1])))
    h2 = int(grid.cell_id(np.array([2, 2, 1])))
    exchange = machine._exchange_positions

    def lossy_exchange(nodes):
        if machine._iteration == LOSS_AT:
            # The stale snapshot of H also holds the particle of H2
            # closest to their shared face, just on H's side of it —
            # or, relabelled, in place of the H particle nearest node 0,
            # so only the slot ids tell the view changed.
            it, snap = machine._stale_halo[(DST, h)]
            cell = view_cell(nodes[SRC], h2)
            pick = int(np.argmin(cell.fractions[:, 1]))
            if relabel:
                ids = snap.particle_ids.copy()
                ids[np.argmin(snap.fractions[:, 0])] = cell.particle_ids[pick]
                snap = _CellData(ids, snap.fractions, snap.species)
            else:
                frac = cell.fractions[pick].copy()
                frac[1] = 1.0 - 2.0 ** -20
                snap = _CellData(
                    np.append(snap.particle_ids, cell.particle_ids[pick]),
                    np.vstack([snap.fractions, frac]),
                    np.append(snap.species, cell.species[pick]),
                )
            machine._stale_halo[(DST, h)] = (it, snap)
            # Lose exactly the packets carrying H's records.
            cids = list(machine._node_flows[(SRC, DST)])
            occ = [int(nodes[SRC].layout.counts[c]) for c in cids]
            lo = sum(occ[: cids.index(h)])
            rpp = machine.config.records_per_packet
            lost = slice(lo // rpp, (lo + occ[cids.index(h)] - 1) // rpp + 1)
            injector.lost = (SRC, DST, LOSS_AT, lost)
        return exchange(nodes)

    machine._exchange_positions = lossy_exchange
    return machine, h, h2


class TestStaleHaloMembership:
    """A degraded halo snapshot repeats a particle id the node also sees
    in a current halo cell: the node view is slot-indexed, and node
    state reuse stays bitwise a fresh build across the event."""

    STEPS = 12

    def _run(self, machine):
        machine.run(0)
        for _ in range(self.STEPS):
            machine.step()

    @pytest.mark.parametrize("relabel", [False, True])
    def test_reuse_matches_rebuild_every_step(self, relabel):
        oracle, h, h2 = _stale_membership_machine(relabel=relabel)
        rebuild_nodes_every_step(oracle)
        reuse, _, _ = _stale_membership_machine(relabel=relabel)
        evaluate = reuse._evaluate_node
        duplicates = []

        def watch(node):
            ids = node.view[0].ids
            if len(np.unique(ids)) < len(ids):
                duplicates.append((reuse._iteration, node.node_id))
            return evaluate(node)

        reuse._evaluate_node = watch
        self._run(oracle)
        self._run(reuse)
        assert duplicates == [(LOSS_AT + 1, DST)]
        for m in (oracle, reuse):
            assert [(r.iteration, r.src, r.dst, r.cell) for r in m.degradation_log] == [
                (LOSS_AT, SRC, DST, h)
            ]
            rec = m.degradation_log[0]
            assert rec.stale_records == 16 + (not relabel) and rec.age == 1
            assert np.isfinite(rec.force_error_bound)
        assert np.array_equal(oracle.system.positions, reuse.system.positions)
        assert np.array_equal(oracle.velocities, reuse.velocities)
        assert np.array_equal(oracle.forces, reuse.forces)
        assert oracle._last_potential == reuse._last_potential
        # The reuse run did reuse node states, the oracle never did.
        assert max(s.reuse_steps for s, _ in reuse._node_states.values()) > 0
        assert all(s.reuse_steps == 0 for s, _ in oracle._node_states.values())

    def test_thread_pool_matches_serial(self):
        serial, _, _ = _stale_membership_machine()
        pooled, _, _ = _stale_membership_machine(parallel=True)
        try:
            self._run(serial)
            self._run(pooled)
            assert np.array_equal(serial.system.positions, pooled.system.positions)
            assert np.array_equal(serial.forces, pooled.forces)
            assert len(pooled.degradation_log) == 1
        finally:
            pooled.close()


def test_thread_pool_matches_serial_under_contention():
    """More threads than cores and a tiny switch interval: nodes of
    different occupancy share the plan's decode cache and the machine's
    ROM cache, and every node keeps its own view state and scratch, so
    the pooled trajectory stays bitwise the serial one."""
    system, grid = build_dataset(DIMS, particles_per_cell=16, seed=9)
    # Thin out all but the x = 1 cell slab: the views of the nodes that
    # own it and of those that do not see it (halos reach +x only)
    # differ in bucket cap, contending for the shared decode cache.
    x = system.positions[:, 0] // grid.cell_edge
    keep = (x == 1) | (np.random.default_rng(9).random(system.n) < 0.6)
    system = ParticleSystem(
        positions=system.positions[keep],
        velocities=system.velocities[keep],
        species=system.species[keep],
        lj_table=system.lj_table,
        box=system.box,
    )
    cfg = MachineConfig(DIMS, (2, 2, 2))
    serial = DistributedMachine(cfg, system=system.copy())
    pooled = DistributedMachine(cfg, system=system.copy(), parallel=True)
    serial.force_impl = pooled.force_impl = "numpy"
    # Every pass rebuilds every node's band lists, concurrently.
    rebuild_nodes_every_step(pooled)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial.run(6)
        pooled.run(6)
    finally:
        sys.setswitchinterval(interval)
        pooled.close()
    assert np.array_equal(serial.system.positions, pooled.system.positions)
    assert np.array_equal(serial.forces, pooled.forces)
    assert [r.potential for r in serial.history] == [
        r.potential for r in pooled.history
    ]
