"""End-to-end datapath on degenerate inputs.

Three boxes the dense paper workload never produces: one where most
cells are empty, one holding a single particle, and one whose particles
sit exactly on cell faces and on the box face at the origin (in-cell
fractions of exactly 0, the fixed-point wrap edge).  On each, the
float64 :class:`~repro.md.engine.ReferenceEngine` must reproduce the
O(N^2) brute-force forces, and :class:`~repro.core.machine.FasdaMachine`
must stay finite with a net force (the momentum rate) at float32 noise,
on every available backend.  The same holds for
:class:`~repro.core.distributed.DistributedMachine`, serial and on the
thread pool, which must also agree with ``FasdaMachine``, also where
a node owns no particle.  Co-batched with a dense system in a
:class:`~repro.md.batch.BatchedEngine`, each box must step bitwise as it
does alone (the solo-oracle contract of ``tests/test_batch.py``).
"""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.core.machine import FasdaMachine
from repro.md.backends import available_backends
from repro.md.batch import BatchedEngine
from repro.md.cells import CellGrid
from repro.md.dataset import PAPER_CUTOFF_A, build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.params import LJTable
from repro.md.reference import compute_forces_bruteforce
from repro.md.system import ParticleSystem
from repro.util.errors import NotBatchableError
from tests.test_batch import assert_states_equal, solo_run

BACKENDS = ["numpy", "cext"]


def _require(name):
    if name not in available_backends():
        pytest.skip(f"{name} backend unavailable")


def _system(positions, grid, seed=0):
    rng = np.random.default_rng(seed)
    n = len(positions)
    return ParticleSystem(
        positions=np.asarray(positions, dtype=np.float64),
        velocities=rng.normal(0.0, 1e-3, size=(n, 3)),
        species=np.zeros(n, dtype=np.int32),
        lj_table=LJTable(("Na",)),
        box=grid.box,
    )


def _empty_cells():
    """The 4x4x4 paper box with only the cells of one x-slab occupied."""
    system, grid = build_dataset((4, 4, 4), particles_per_cell=8, seed=21)
    keep = system.positions[:, 0] < grid.cell_edge
    return (
        ParticleSystem(
            positions=system.positions[keep],
            velocities=system.velocities[keep],
            species=system.species[keep],
            lj_table=system.lj_table,
            box=system.box,
        ),
        grid,
    )


def _single_particle():
    grid = CellGrid((3, 3, 3), PAPER_CUTOFF_A)
    return _system([grid.box / 2.0], grid), grid


def _on_faces():
    """A half-cell lattice: two of each particle's coordinates are exact
    multiples of ``cell_edge / 2`` (even multiples are cell faces, zero
    is the box face); the third is jittered so the forces do not cancel
    by symmetry."""
    grid = CellGrid((3, 3, 3), PAPER_CUTOFF_A)
    h = grid.cell_edge / 2.0
    idx = np.stack(
        np.meshgrid(*(np.arange(6),) * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    pos = idx * h
    rng = np.random.default_rng(4)
    axis = np.arange(len(pos)) % 3
    pos[np.arange(len(pos)), axis] += rng.uniform(0.05, 0.4, size=len(pos))
    return _system(pos, grid, seed=4), grid


CASES = {
    "empty_cells": _empty_cells,
    "single_particle": _single_particle,
    "on_faces": _on_faces,
}


def test_face_case_sits_on_faces():
    system, grid = _on_faces()
    halves = system.positions / (grid.cell_edge / 2.0)
    assert (halves == np.floor(halves)).sum(axis=1).min() == 2
    cells = system.positions / grid.cell_edge
    assert np.count_nonzero(np.any(cells == np.floor(cells), axis=1)) > (
        system.n // 2
    )
    assert np.count_nonzero(np.any(system.positions == 0.0, axis=1)) > 0


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_bruteforce(case, name):
    _require(name)
    system, grid = CASES[case]()
    engine = ReferenceEngine(system=system, grid=grid, force_impl=name)
    for steps in (0, 3):
        engine.run(steps)
        ref, _ = compute_forces_bruteforce(system, grid.cell_edge)
        assert np.all(np.isfinite(system.forces))
        assert np.abs(system.forces - ref).max() < 1e-10, (case, steps)


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_machine_finite_and_momentum_conserving(case, name):
    _require(name)
    system, grid = CASES[case]()
    machine = FasdaMachine(MachineConfig(grid.dims), system=system)
    machine.force_impl = name
    for _ in range(3):
        machine.step(collect_traffic=True)
        forces = machine.forces.astype(np.float64)
        assert np.all(np.isfinite(forces))
        assert np.all(np.isfinite(machine.system.positions))
        # Newton-3 pairs cancel exactly in real arithmetic; what is left
        # is float32 accumulation noise on the force banks.
        scale = max(float(np.abs(forces).sum()), 1.0)
        assert np.abs(forces.sum(axis=0)).max() <= 1e-6 * scale, case


#: Partitions for the distributed runs.  Two of them leave nodes that
#: own no particle: the empty-cells box fills only the x = 0 slab (node
#: 1 owns x = 2..3), and the single particle sits on node 1 of 3.
FPGA_GRIDS = {
    "empty_cells": (2, 1, 1),
    "single_particle": (3, 1, 1),
    "on_faces": (3, 1, 1),
}


@pytest.mark.parametrize("parallel", [False, True])
@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_distributed_matches_machine(case, name, parallel):
    _require(name)
    system, grid = CASES[case]()
    machine = FasdaMachine(MachineConfig(grid.dims), system=system.copy())
    dist = DistributedMachine(
        MachineConfig(grid.dims, FPGA_GRIDS[case]), system=system,
        parallel=parallel,
    )
    machine.force_impl = dist.force_impl = name
    try:
        for _ in range(3):
            machine.step()
            dist.step()
            forces = dist.forces.astype(np.float64)
            assert np.all(np.isfinite(forces))
            assert np.all(np.isfinite(dist.system.positions))
            scale = max(float(np.abs(forces).sum()), 1.0)
            assert np.abs(forces.sum(axis=0)).max() <= 1e-6 * scale, case
            ref = machine.forces.astype(np.float64)
            tol = 1e-5 * float(np.abs(ref).max())
            assert np.abs(forces - ref).max() <= tol, case
        owned = [
            sum(len(c.particle_ids) for c in node.cells.values())
            for node in dist._nodes_cache.values()
        ]
        assert (0 in owned) == (case != "on_faces")
    finally:
        dist.close()


def _dense():
    return build_dataset((3, 3, 3), particles_per_cell=8, seed=22)


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("case", ["empty_cells", "on_faces"])
def test_batched_segment_matches_solo(case, name):
    """One dense box and the degenerate one share a fused force pass:
    each segment's trajectory equals its solo run bitwise, and its
    forces stay finite."""
    _require(name)
    segments = [_dense(), CASES[case]()]
    engine = BatchedEngine(force_impl=name)
    handles = [engine.add(system.copy(), grid) for system, grid in segments]
    engine.step(5)
    for h, (system, grid) in zip(handles, segments):
        got = engine.extract(h)
        assert np.all(np.isfinite(got.forces)), (case, h)
        want = solo_run(system, grid, name, 5)
        assert_states_equal(got, want, f"{case}/{h}")


@pytest.mark.parametrize("name", BACKENDS)
def test_batched_single_particle_refused(name):
    """A lone particle is not padded-viable, so the batch refuses it at
    the first step instead of diverging from its solo run, naming its
    handle; once it is removed, the dense segment steps bitwise as it
    does alone."""
    _require(name)
    dense = _dense()
    engine = BatchedEngine(force_impl=name)
    h = engine.add(dense[0].copy(), dense[1])
    single = engine.add(*_single_particle())
    with pytest.raises(NotBatchableError, match="padded-viable") as info:
        engine.step(5)
    assert info.value.handle == single
    engine.remove(single)
    engine.step(5)
    got = engine.extract(h)
    assert np.all(np.isfinite(got.forces))
    assert_states_equal(got, solo_run(*dense, name, 5), "dense")
