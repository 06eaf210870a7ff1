"""Property tests of the in-place cell-state update (hypothesis).

A whole-box machine :class:`~repro.md.cellstate.CellState` has three
outcomes per pass: reuse, an in-place update of the band regions that
migrating particles touch, and a full build (skin/2 exceeded, a region
with no room, a cell past the presence-key stride, or a binning the
padded path no longer takes).  Whatever the outcome, every pass must
equal a fresh build bit for bit — forces, potential, per-cell
acceptances, neighbour force records and traffic — on both backends.

Inputs are small dense boxes, single-species LJ or a charged Na/Cl box
under LJ + Ewald (whose per-entry coefficients are gathered again after
each update), driven by random sequences of per-pass moves:

* ``still`` — nothing moves (pure reuse);
* ``jitter`` — everyone moves a little, staying under skin/2 for a few
  passes before a full build;
* ``cross`` — particles near a cell face step across it, some through a
  periodic box face;
* ``push`` — particles placed just outside one cell's faces step into
  it together, growing its regions and its count past the stride;
* ``kick`` — one particle jumps past skin/2.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MachineConfig
from repro.core.machine import FasdaMachine
from repro.md.backends import available_backends
from repro.md.dataset import build_dataset
from tests.oracles import fresh_path

BACKENDS = [b for b in ("numpy", "cext") if b in available_backends()]
MOVES = ("still", "jitter", "cross", "push", "kick")


def _machines(dims, ppc, charged, seed):
    kw = dict(species=("Na", "Cl"), charged=True, min_distance=2.4) if charged else {}
    system, _ = build_dataset(dims, particles_per_cell=ppc, seed=seed, **kw)
    cfg = MachineConfig(dims, force_model="lj+coulomb" if charged else "lj")
    oracle = fresh_path(FasdaMachine(cfg, system=system.copy()))
    tested = []
    for name in BACKENDS:
        m = FasdaMachine(cfg, system=system.copy())
        m.force_impl = name
        tested.append(m)
    return oracle, tested


def _pile(positions, grid, n, rng):
    """Move ``n`` particles of other cells to 0.2 A outside the faces of
    one cell; returns the cell's lower corner and the moved ids."""
    edge = grid.cell_edge
    cell = rng.integers(0, grid.dims)
    lo = cell * edge
    cids = grid.cell_id(grid.coords_of_positions(positions))
    others = np.flatnonzero(cids != grid.cell_id(cell))
    ids = rng.choice(others, size=n, replace=False)
    for p in ids:
        axis = rng.integers(3)
        pos = lo + rng.uniform(0.1, edge - 0.1, size=3)
        pos[axis] = lo[axis] - 0.2 if rng.random() < 0.5 else lo[axis] + edge + 0.2
        positions[p] = pos % grid.box
    return lo, ids


def _move(kind, positions, grid, rng, pile):
    edge = grid.cell_edge
    if kind == "jitter":
        positions += rng.uniform(-0.05, 0.05, size=positions.shape)
    elif kind == "cross":
        # The four particles nearest a cell face step 0.05 A past it.
        frac = positions / edge - np.floor(positions / edge)
        gap = np.minimum(frac, 1 - frac) * edge
        for p in np.argsort(gap.min(axis=1))[:4]:
            axis = int(np.argmin(gap[p]))
            step = min(gap[p, axis] + 0.05, 0.5)
            positions[p, axis] += step if frac[p, axis] > 0.5 else -step
    elif kind == "push" and pile is not None:
        lo, ids = pile
        centre = lo + 0.5 * edge
        for p in ids:
            d = centre - positions[p]
            d -= grid.box * np.rint(d / grid.box)
            axis = int(np.argmax(np.abs(d)))
            positions[p, axis] += 0.4 * np.sign(d[axis])
    elif kind == "kick":
        positions[rng.integers(len(positions))] += np.array([0.8, 0.0, 0.0])
    positions %= grid.box


def _same_pass(sa, sb, fa, fb):
    assert np.array_equal(fa, fb)
    assert sa.potential_energy == sb.potential_energy
    assert np.array_equal(sa.accepted_per_cell, sb.accepted_per_cell)
    assert np.array_equal(
        sa.neighbor_force_records_per_cell, sb.neighbor_force_records_per_cell
    )
    assert sa.position_records == sb.position_records
    assert sa.force_records == sb.force_records


@pytest.mark.skipif(not BACKENDS, reason="no backend available")
class TestUpdateEqualsFreshBuild:
    @given(
        dims=st.tuples(st.integers(3, 4), st.integers(3, 4), st.integers(3, 4)),
        ppc=st.integers(8, 20),
        charged=st.booleans(),
        n_pile=st.integers(0, 6),
        moves=st.lists(st.sampled_from(MOVES), min_size=2, max_size=7),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_pass_equals_a_fresh_build(
        self, dims, ppc, charged, n_pile, moves, seed
    ):
        oracle, tested = _machines(dims, ppc, charged, seed % 1000)
        rng = np.random.default_rng(seed)
        positions = oracle.system.positions.copy()
        pile = _pile(positions, oracle.grid, n_pile, rng) if n_pile else None
        passes = ["still"] + moves
        for kind in passes:
            _move(kind, positions, oracle.grid, rng, pile)
            for m in [oracle] + tested:
                m.system.positions[:] = positions
            sa = oracle.compute_forces(collect_traffic=True)
            for m in tested:
                sb = m.compute_forces(collect_traffic=True)
                _same_pass(sa, sb, oracle.forces, m.forces)
        for m in tested:
            state = m._cell_state
            assert state.builds + state.updates + state.reuse_steps == len(passes)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_pushing_past_the_stride_rebuilds(self, name):
        """Nine particles entering one cell at once outgrow the
        presence-key stride: that pass is a full build, the passes
        around it update in place, and all equal a fresh build."""
        dims = (4, 4, 4)
        oracle, _ = _machines(dims, 16, False, 3)
        m = FasdaMachine(MachineConfig(dims), system=oracle.system.copy())
        m.force_impl = name
        rng = np.random.default_rng(8)
        positions = oracle.system.positions.copy()
        pile = _pile(positions, oracle.grid, 9, rng)
        counters = []
        for kind in ("still", "cross", "push", "cross"):
            _move(kind, positions, oracle.grid, rng, pile)
            for mach in (oracle, m):
                mach.system.positions[:] = positions
            if kind == "push":
                stride = m._cell_state.pairs.stride
            sa = oracle.compute_forces(collect_traffic=True)
            sb = m.compute_forces(collect_traffic=True)
            _same_pass(sa, sb, oracle.forces, m.forces)
            state = m._cell_state
            counters.append((state.builds, state.updates))
            if kind == "push":
                assert int(state.clist.counts.max()) > stride
        assert counters == [(1, 0), (1, 1), (2, 1), (2, 2)]
