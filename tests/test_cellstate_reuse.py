"""Bitwise equivalence of the step-persistent cell state.

The amortization contract: every layer (ReferenceEngine, FasdaMachine
and DistributedMachine) must produce the *same trajectory bit for bit* as the rebuild-every-step
oracle — the persistent :class:`~repro.md.cellstate.CellState` and the
distributed node cache are pure evaluation shortcuts, never an
approximation.  These tests run the production path and the oracle
(``tests/oracles.py``) side by side for 50+ steps and compare
positions, velocities, and forces exactly, including under a forced
mid-run rebuild (a kicked particle) and under fault injection on the
distributed machine.  At the paper density the machine's state updates
in place on most steps; 200 such steps run against the fresh-build
oracle on both backends.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.faults import FaultInjector, FaultPlan, TransportConfig
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.reference import compute_forces_cells
from repro.md.backends import available_backends, resolve_backend
from repro.md.batch import BatchedEngine
from tests.oracles import (
    fresh_path,
    rebuild_nodes_every_step,
    rebuild_state_every_step,
)


def _machine_pair(dims=(4, 4, 4), ppc=16, seed=11):
    system, _ = build_dataset(dims, particles_per_cell=ppc, seed=seed)
    oracle = fresh_path(FasdaMachine(MachineConfig(dims), system=system.copy()))
    reuse = FasdaMachine(MachineConfig(dims), system=system.copy())
    return oracle, reuse


class TestMachineReuseBitwise:
    @pytest.mark.parametrize("name", ["numpy", "cext"])
    def test_paper_density_200_steps_bitwise(self, paper_run, name):
        """At the paper point particles migrate nearly every step, so
        the state mostly updates in place; every step must still equal
        a fresh build, bit for bit, with the skin/2 trigger's full
        rebuilds in between."""
        if name not in available_backends():
            pytest.skip(f"{name} backend unavailable")
        system, record = paper_run
        m = FasdaMachine(MachineConfig(PAPER_DIMS, (2, 2, 2)), system=system.copy())
        m.force_impl = name
        for step, want in enumerate(record):
            m.step(collect_traffic=True)
            assert _pass_digests(m) == want, f"step {step + 1}"
        state = m._cell_state
        assert state.updates > PAPER_STEPS // 2
        assert state.builds >= 2  # the first build and a skin/2 rebuild
        assert m.last_stats.state_builds == state.builds
        assert m.last_stats.state_updates == state.updates
        assert state.builds + state.updates + state.reuse_steps == PAPER_STEPS + 1

    @pytest.mark.parametrize("name", ["numpy", "cext"])
    def test_periodic_face_crossing_keeps_moving(self, name):
        """A particle pushed across the +x box face and on into the cell
        at the far side, within skin/2 of its build position: it is
        searched beside its new neighbours only if its build position
        is placed next to its current cell (minimum image), not at the
        wrapped build coordinates on the other side of the box."""
        if name not in available_backends():
            pytest.skip(f"{name} backend unavailable")
        dims = (4, 4, 4)
        system, _ = build_dataset(dims, particles_per_cell=16, seed=21)
        oracle = fresh_path(FasdaMachine(MachineConfig(dims), system=system.copy()))
        m = FasdaMachine(MachineConfig(dims), system=system.copy())
        m.force_impl = name
        box = m.grid.box
        # The particle nearest the +x face, put 0.25 A inside it.
        p = int(np.argmax(system.positions[:, 0]))
        start = system.positions[p].copy()
        start[0] = box[0] - 0.25
        step = np.array([0.1, 0.0, 0.0])
        for i in range(6):  # 0.5 A in all, under skin/2 = 0.64 A
            for mach in (oracle, m):
                mach.system.positions[p] = start + i * step
                mach.system.wrap()
            sa = oracle.compute_forces(collect_traffic=True)
            sb = m.compute_forces(collect_traffic=True)
            assert np.array_equal(oracle.forces, m.forces), f"pass {i}"
            assert sa.potential_energy == sb.potential_energy
            assert np.array_equal(sa.accepted_per_cell, sb.accepted_per_cell)
            assert np.array_equal(
                sa.neighbor_force_records_per_cell,
                sb.neighbor_force_records_per_cell,
            )
        assert m.system.positions[p, 0] < 1.0  # across the face
        state = m._cell_state
        assert (state.builds, state.updates) == (1, 1)

    def test_50_step_trajectory_bitwise(self):
        oracle, reuse = _machine_pair()
        for _ in range(50):
            pa = oracle.step(collect_traffic=True)
            pb = reuse.step(collect_traffic=True)
            assert pa == pb
        assert np.array_equal(oracle.system.positions, reuse.system.positions)
        assert np.array_equal(oracle.system.velocities, reuse.system.velocities)
        assert np.array_equal(oracle.forces, reuse.forces)
        sa, sb = oracle.last_stats, reuse.last_stats
        assert sa.potential_energy == sb.potential_energy
        # The whole point: most steps must have reused the state.
        assert 1 <= sb.state_builds < 50

    def test_forced_midrun_rebuild_stays_bitwise(self):
        """A particle kicked past skin/2 forces a rebuild; the reuse
        trajectory must absorb it and stay bitwise equal."""
        oracle, reuse = _machine_pair(seed=3)
        for _ in range(5):
            oracle.step(collect_traffic=True)
            reuse.step(collect_traffic=True)
        builds_before = reuse.last_stats.state_builds
        kick = np.array([0.3 * oracle.grid.cell_edge, 0.0, 0.0])
        for m in (oracle, reuse):
            m.system.positions[0] += kick
            m.system.wrap()
        for _ in range(5):
            pa = oracle.step(collect_traffic=True)
            pb = reuse.step(collect_traffic=True)
            assert pa == pb
        assert np.array_equal(oracle.system.positions, reuse.system.positions)
        assert np.array_equal(oracle.forces, reuse.forces)
        assert reuse.last_stats.state_builds > builds_before

    def test_stats_and_traffic_match(self):
        oracle, reuse = _machine_pair(seed=19)
        sa = oracle.compute_forces(collect_traffic=True)
        sb = reuse.compute_forces(collect_traffic=True)
        sb2 = reuse.compute_forces(collect_traffic=True)  # pure-reuse pass
        for stats in (sb, sb2):
            assert stats.potential_energy == sa.potential_energy
            assert np.array_equal(
                stats.accepted_per_cell, sa.accepted_per_cell
            )
            assert stats.position_records == sa.position_records
        assert sb2.state_reused is True


#: The perfbench ``machine-paper`` input: 4x4x4 cells, 64 Na per cell,
#: advanced 60 reference steps past the lattice transient, after which
#: a few particles change cell on nearly every step.
PAPER_DIMS = (4, 4, 4)
PAPER_STEPS = 200


def _digest(*arrays):
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _pass_digests(machine):
    """Everything one step leaves behind, hashed per step: positions,
    velocities, forces, potential, per-cell acceptances and neighbour
    force records, and the position and force records per node pair."""
    st = machine.last_stats
    return (
        _digest(machine.system.positions, machine.velocities, machine.forces),
        st.potential_energy,
        _digest(st.accepted_per_cell, st.neighbor_force_records_per_cell),
        sorted(st.position_records.items()),
        sorted(st.force_records.items()),
    )


@pytest.fixture(scope="module")
def paper_run():
    """The paper input and the fresh-build oracle's 200-step record."""
    system, grid = build_dataset(PAPER_DIMS, particles_per_cell=64, seed=1)
    ReferenceEngine(system, grid, force_impl="numpy").run(60, record_every=0)
    oracle = fresh_path(
        FasdaMachine(MachineConfig(PAPER_DIMS, (2, 2, 2)), system=system.copy())
    )
    oracle.force_impl = "numpy"
    record = []
    for _ in range(PAPER_STEPS):
        oracle.step(collect_traffic=True)
        record.append(_pass_digests(oracle))
    return system, record


def _engine_vs_rebuild_every_step(force_impl, steps=50):
    """Run the always-reuse engine and the rebuild-every-step oracle
    side by side; assert the trajectories bitwise equal and return
    both engines."""
    system, grid = build_dataset((4, 4, 4), particles_per_cell=16, seed=7)
    oracle = rebuild_state_every_step(
        ReferenceEngine(system=system.copy(), grid=grid, force_impl=force_impl)
    )
    reuse = ReferenceEngine(
        system=system.copy(), grid=grid, force_impl=force_impl
    )
    oracle.run(steps)
    reuse.run(steps)
    assert np.array_equal(oracle.system.positions, reuse.system.positions)
    assert np.array_equal(oracle.system.velocities, reuse.system.velocities)
    assert np.array_equal(oracle.system.forces, reuse.system.forces)
    assert oracle.state_builds == steps + 1
    assert 1 <= reuse.state_builds < steps
    return oracle, reuse


class TestEngineReuseBitwise:
    @pytest.mark.parametrize("name", ["numpy", "cext"])
    def test_reuse_matches_rebuild_every_step(self, name):
        """The engine contract on each backend: stepping through one
        persistent cell state equals rebuilding it before every pass,
        bit for bit in positions, velocities, forces and energies (both
        kernels sum only admitted pairs, which a stale band list gives
        in the same order as a fresh one)."""
        if name not in available_backends():
            pytest.skip(f"{name} backend unavailable")
        oracle, reuse = _engine_vs_rebuild_every_step(name)
        assert [r.potential for r in oracle.history] == [
            r.potential for r in reuse.history
        ]

    def test_50_step_trajectory_bitwise(self):
        # The same contract on the process default backend.
        oracle, reuse = _engine_vs_rebuild_every_step(None)
        for ra, rb in zip(oracle.history, reuse.history):
            assert rb.potential == pytest.approx(ra.potential, rel=1e-12)

    def test_skewed_pass_runs_band_search_and_reuse_resumes(
        self, monkeypatch
    ):
        """The engine's state lists bands on every binning: a skewed
        pass runs its own band search like a dense one, and the dense
        passes after it rebuild once and then reuse again.  Every
        stateless call runs one band search of its own, and its energy
        is the engine's bit for bit, whichever build the engine's band
        lists came from."""
        import repro.md.cellstate as cellstate_mod

        searches = []
        real = cellstate_mod.band_rows_numpy

        def counting(*args, **kwargs):
            searches.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(cellstate_mod, "band_rows_numpy", counting)
        system, grid = build_dataset((4, 4, 4), particles_per_cell=8, seed=5)
        dense = system.positions.copy()
        skewed = dense.copy()
        # Pile half the particles into cell 0: most slots of the padded
        # search are empty there.
        half = len(skewed) // 2
        skewed[:half] = np.random.default_rng(1).uniform(
            0.0, grid.cell_edge, size=(half, 3)
        )

        engine = ReferenceEngine(system=system, grid=grid, force_impl="numpy")
        expect = [(1, 0, 2), (2, 0, 4), (3, 0, 6), (3, 1, 7), (3, 2, 8)]
        for pos, (builds, reused, n_search) in zip(
            [dense, skewed, dense, dense, dense], expect
        ):
            system.positions[:] = pos
            _, stateless = compute_forces_cells(system, grid, force_impl="numpy")
            assert engine.potential_energy() == stateless
            engine._batch._sync_segment_stats()
            state = engine._segment().state
            assert (state.builds, state.reuse_steps) == (builds, reused)
            assert len(searches) == n_search
            assert state.pairs is not None

    def test_run_primes_force_fn_once(self, monkeypatch):
        """Regression: priming used to evaluate the same configuration
        twice (potential_energy() then run()'s own prime)."""
        backend = resolve_backend(None)
        calls = {"n": 0}
        real = backend.lj_flat_seg

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(backend, "lj_flat_seg", counting)
        system, grid = build_dataset((3, 3, 3), particles_per_cell=8, seed=3)
        eng = ReferenceEngine(system=system, grid=grid)
        eng.potential_energy()
        eng.run(3)
        # 1 priming pass + 3 step passes; historically this was 5.
        assert calls["n"] == 4


def _distributed_pair(seed=5, **kwargs):
    cfg = MachineConfig((4, 4, 4), (2, 2, 2))
    system, _ = build_dataset((4, 4, 4), particles_per_cell=16, seed=seed)
    oracle = rebuild_nodes_every_step(
        DistributedMachine(cfg, system=system.copy(), **kwargs)
    )
    reuse = DistributedMachine(cfg, system=system.copy(), **kwargs)
    return oracle, reuse


class TestDistributedReuseBitwise:
    def test_50_step_trajectory_bitwise(self):
        oracle, reuse = _distributed_pair()
        recs_a = oracle.run(50, record_every=10)
        recs_b = reuse.run(50, record_every=10)
        for ra, rb in zip(recs_a, recs_b):
            assert ra.potential == rb.potential
            assert ra.kinetic == rb.kinetic
        assert np.array_equal(oracle.system.positions, reuse.system.positions)
        assert np.array_equal(oracle.forces, reuse.forces)
        assert oracle.total_position_packets == reuse.total_position_packets
        assert reuse.state_builds >= 1
        assert reuse.state_reused_steps > reuse.state_builds
        assert oracle.state_reused_steps == 0

    def test_fault_injection_composes_bitwise(self):
        """Reuse must not change which packets exist, so the seeded
        fault stream (drops, retransmissions, degradations) and the
        degraded trajectory stay identical."""

        def fault_kwargs():
            return dict(
                injector=FaultInjector(FaultPlan(seed=5, drop_rate=0.05)),
                transport=TransportConfig(retry_budget=2),
                degradation="stale",
            )

        oracle, reuse = _distributed_pair(seed=5, **fault_kwargs())
        oracle.run(15)
        reuse.run(15)
        assert np.array_equal(oracle.system.positions, reuse.system.positions)
        assert np.array_equal(oracle.forces, reuse.forces)
        assert len(oracle.degradation_log) == len(reuse.degradation_log)
        assert oracle.transport_stats == reuse.transport_stats


@pytest.mark.parametrize("name", ["numpy", "cext"])
def test_full_build_states_hold_compact_layouts(name):
    """The states that only build afresh — the engine's and a batch
    segment's — hold compact band layouts: each region exactly its
    hits, no pad entry.  The updatable states keep slack: the machine's
    whole box in every region, and every distributed node view in the
    regions of its own cells, its bank rows being particle ids (pad row
    N)."""
    if name not in available_backends():
        pytest.skip(f"{name} backend unavailable")
    dims = (4, 4, 4)
    system, grid = build_dataset(dims, particles_per_cell=16, seed=3)
    engine = ReferenceEngine(system.copy(), grid, force_impl=name)
    engine.run(3)
    batch = BatchedEngine(force_impl=name)
    batch.add(system.copy(), grid)
    batch.run(3)
    for state in [engine._segment().state, batch._segments[0].state]:
        rb = state.pairs
        assert rb is not None
        assert np.array_equal(rb.rcap, rb.fill)
        assert rb.size == rb.rstart[-1] == rb.fill.sum() > 0
        assert rb.a[: rb.size].max() < rb.pad == len(state.clist.order)
    dist = DistributedMachine(MachineConfig(dims, (2, 2, 2)), system=system.copy())
    dist.force_impl = name
    dist.run(3)
    views = [state for state, _ in dist._node_states.values()]
    assert len(views) == 8
    n_cells = grid.n_cells
    for state in views:
        rb = state.pairs
        home = np.zeros(n_cells, dtype=bool)
        home[state.home] = True
        searched = np.tile(home, len(rb.fill) // n_cells)
        assert np.all(rb.rcap[searched] > rb.fill[searched])
        assert not rb.rcap[~searched].any()
        assert rb.pad == system.n
        filled = np.concatenate(
            [np.arange(lo, lo + f) for lo, f in zip(rb.rstart, rb.fill)]
        )
        assert rb.a[filled].max() < system.n
    machine = FasdaMachine(MachineConfig(dims), system=system.copy())
    machine.force_impl = name
    machine.step()
    rb = machine._cell_state.pairs
    assert np.all(rb.rcap > rb.fill)
