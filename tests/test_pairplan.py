"""Tests for the pair-plan subsystem and the batched force hot path.

The contract under test: the cached :class:`CellPairPlan` topology, the
step-wide chunked enumerator, the band-list force pass on dense and
sparse boxes, and the bincount scatter must all reproduce the original per-cell half-shell
traversal *exactly* — same pair set, same workload statistics, and
forces/energies within float64 round-off (<= 1e-10) of both the per-cell
loop and the O(N^2) brute-force golden model.
"""

import numpy as np
import pytest

from repro.md import CellGrid, LJTable, ParticleSystem
from repro.md.cells import CellList, HALF_SHELL_OFFSETS
from repro.md.kernels import scatter_add
from repro.md.neighborlist import VerletNeighborList
from repro.md.pairplan import (
    ROWS_PER_CELL,
    CellPairPlan,
    candidates_per_cell,
    iter_pair_chunks,
    plan_for_dims,
    plan_for_grid,
)
from repro.md.reference import compute_forces_bruteforce, compute_forces_cells
from repro.core.config import MachineConfig
from repro.core.datapath import quantize_cell_fractions
from repro.core.machine import FasdaMachine
from repro.util.errors import ValidationError
from tests.oracles import (
    compute_forces_cells_loop,
    iter_pair_chunks_rows,
    padded_decode,
)


def random_system(dims, cell_edge=4.0, per_cell=6, seed=0, species=("Na",)):
    """Random multi-cell box with a minimum separation for finite forces."""
    rng = np.random.default_rng(seed)
    grid = CellGrid(dims, cell_edge)
    n = per_cell * grid.n_cells
    pos = rng.uniform(0, grid.box, size=(n, 3))
    keep = [0]
    for i in range(1, n):
        dr = pos[keep] - pos[i]
        dr -= grid.box * np.rint(dr / grid.box)
        if np.min(np.sum(dr * dr, axis=1)) > 1.8 ** 2:
            keep.append(i)
    pos = pos[keep]
    lj = LJTable(species)
    sys_ = ParticleSystem(
        positions=pos,
        velocities=np.zeros_like(pos),
        species=(np.arange(len(pos)) % len(species)).astype(np.int32),
        lj_table=lj,
        box=grid.box,
    )
    return sys_, grid


def reference_pair_set(plan, clist):
    """Every half-shell candidate pair, derived cell-by-cell in Python."""
    pairs = set()
    for cid in range(plan.n_cells):
        home = list(clist.particles_in_cell(cid))
        for x, i in enumerate(home):
            for j in home[x + 1 :]:
                pairs.add((cid * ROWS_PER_CELL, i, j))
        for k in range(1, ROWS_PER_CELL):
            row = cid * ROWS_PER_CELL + k
            for i in home:
                for j in clist.particles_in_cell(plan.nbr[row]):
                    pairs.add((row, i, j))
    return pairs


class TestPlanTopology:
    def test_matches_neighbor_with_shift(self):
        grid = CellGrid((3, 4, 5), 4.0)
        plan = plan_for_grid(grid)
        for cid in range(grid.n_cells):
            base = cid * ROWS_PER_CELL
            assert plan.home[base] == plan.nbr[base] == cid
            assert plan.is_self[base]
            assert not plan.has_shift[base]
            np.testing.assert_array_equal(plan.shift[base], 0.0)
            coord = tuple(int(c) for c in grid.cell_coords(np.int64(cid)))
            for k, off in enumerate(HALF_SHELL_OFFSETS, start=1):
                ncoord, img_shift = grid.neighbor_with_shift(coord, off)
                row = base + k
                assert plan.home[row] == cid
                assert plan.nbr[row] == grid.cell_id(np.asarray(ncoord))
                assert not plan.is_self[row]
                np.testing.assert_allclose(plan.shift[row], img_shift)
                assert plan.has_shift[row] == bool(np.any(img_shift != 0))

    def test_neighbor_ids_shape_and_distinct(self):
        plan = plan_for_dims((3, 3, 3), (4.0, 4.0, 4.0))
        ids = plan.neighbor_ids
        assert ids.shape == (27, 13)
        # dims >= 3 guarantees the 13 half-shell neighbors are distinct
        # cells (and none equals the home cell).
        for cid in range(27):
            assert len(set(ids[cid])) == 13
            assert cid not in set(ids[cid])

    def test_cell_coords_roundtrip(self):
        plan = plan_for_dims((3, 4, 5), (4.0, 4.0, 4.0))
        cids = np.arange(plan.n_cells)
        np.testing.assert_array_equal(
            plan.cell_id(plan.cell_coords_of(cids)), cids
        )

    def test_plan_cache_identity(self):
        grid = CellGrid((3, 3, 3), 4.0)
        assert plan_for_grid(grid) is plan_for_grid(CellGrid((3, 3, 3), 4.0))
        assert plan_for_grid(grid) is not plan_for_dims(
            (3, 3, 3), (5.0, 5.0, 5.0)
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            CellPairPlan((2, 3, 3), (4.0, 4.0, 4.0))
        with pytest.raises(ValidationError):
            CellPairPlan((3, 3, 3), (4.0, -1.0, 4.0))


class TestScatterAdd:
    def test_matches_add_at_2d(self):
        rng = np.random.default_rng(3)
        idx = rng.integers(0, 50, size=1000)
        vals = rng.normal(size=(1000, 3))
        a = np.zeros((50, 3))
        b = np.zeros((50, 3))
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_add_at_1d_and_counting(self):
        rng = np.random.default_rng(4)
        idx = rng.integers(0, 20, size=500)
        vals = rng.normal(size=500)
        a = np.zeros(20)
        b = np.zeros(20)
        scatter_add(a, idx, vals)
        np.add.at(b, idx, vals)
        np.testing.assert_allclose(a, b, atol=1e-12)
        counts = np.zeros(20, dtype=np.int64)
        scatter_add(counts, idx)
        np.testing.assert_array_equal(counts, np.bincount(idx, minlength=20))

    def test_empty_index_noop(self):
        a = np.ones((4, 3))
        scatter_add(a, np.array([], dtype=np.int64), np.empty((0, 3)))
        np.testing.assert_array_equal(a, 1.0)


class TestEnumerator:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_pair_set_matches_reference(self, seed):
        sys_, grid = random_system((3, 4, 3), per_cell=3, seed=seed)
        clist = CellList(grid, sys_.positions)
        plan = plan_for_grid(grid)
        got = set()
        for chunk in iter_pair_chunks(
            plan, clist.counts, clist.start, clist.order
        ):
            for r, i, j in zip(chunk.row, chunk.ii, chunk.jj):
                key = (int(r), int(i), int(j))
                assert key not in got, "duplicate candidate pair"
                got.add(key)
        assert got == reference_pair_set(plan, clist)

    def test_tiny_chunks_same_pairs(self):
        sys_, grid = random_system((3, 3, 3), per_cell=4, seed=2)
        clist = CellList(grid, sys_.positions)
        plan = plan_for_grid(grid)

        def collect(target):
            out = []
            for chunk in iter_pair_chunks(
                plan, clist.counts, clist.start, clist.order,
                target_pairs=target,
            ):
                out.extend(zip(chunk.row, chunk.ii, chunk.jj))
            return out

        assert collect(7) == collect(10**9)

    def test_rows_subset(self):
        sys_, grid = random_system((3, 3, 3), per_cell=3, seed=5)
        clist = CellList(grid, sys_.positions)
        plan = plan_for_grid(grid)
        rows = np.arange(ROWS_PER_CELL)  # cell 0 only
        got = set()
        for chunk in iter_pair_chunks_rows(
            plan, clist.counts, clist.start, rows, clist.order
        ):
            got.update(zip(chunk.row, chunk.ii, chunk.jj))
        want = {
            (r, i, j)
            for (r, i, j) in reference_pair_set(plan, clist)
            if r < ROWS_PER_CELL
        }
        assert {(int(r), int(i), int(j)) for r, i, j in got} == want

    def test_candidate_formula_matches_enumeration(self):
        sys_, grid = random_system((3, 4, 5), per_cell=5, seed=3)
        clist = CellList(grid, sys_.positions)
        plan = plan_for_grid(grid)
        analytic = candidates_per_cell(plan, clist.counts)
        counted = np.zeros(plan.n_cells, dtype=np.int64)
        for chunk in iter_pair_chunks(
            plan, clist.counts, clist.start, clist.order
        ):
            scatter_add(counted, plan.home[chunk.row])
        np.testing.assert_array_equal(analytic, counted)

    def test_empty_and_single_particle(self):
        grid = CellGrid((3, 3, 3), 4.0)
        plan = plan_for_grid(grid)
        counts = np.zeros(27, dtype=np.int64)
        start = np.zeros(28, dtype=np.int64)
        assert list(iter_pair_chunks(plan, counts, start)) == []
        counts[13] = 1
        start[14:] = 1
        assert list(iter_pair_chunks(plan, counts, start)) == []
        assert candidates_per_cell(plan, counts).sum() == 0


class TestForceEquivalence:
    @pytest.mark.parametrize("species", [("Na",), ("Na", "Cl"), ("Na", "Cl", "Ar")])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_batched_vs_loop_vs_brute(self, species, seed):
        sys_, grid = random_system(
            (3, 3, 4), per_cell=5, seed=seed, species=species
        )
        f_new, e_new = compute_forces_cells(sys_, grid)
        f_old, e_old = compute_forces_cells_loop(sys_, grid)
        f_ref, e_ref = compute_forces_bruteforce(sys_, grid.cell_edge)
        scale = max(np.abs(f_ref).max(), 1.0)
        assert np.abs(f_new - f_old).max() <= 1e-10 * scale
        assert np.abs(f_new - f_ref).max() <= 1e-10 * scale
        assert abs(e_new - e_old) <= 1e-10 * max(abs(e_old), 1.0)
        assert abs(e_new - e_ref) <= 1e-10 * max(abs(e_ref), 1.0)

    def test_sparse_box_matches_bruteforce(self):
        # One crowded cell in an otherwise empty box (the retired padded
        # path's gate refused it): the band-list pass is still exact.
        grid = CellGrid((5, 5, 5), 4.0)
        rng = np.random.default_rng(9)
        pos = rng.uniform(0.5, 3.5, size=(40, 3))  # all inside cell (0,0,0)
        pos = pos[
            [
                i
                for i in range(len(pos))
                if i == 0
                or np.min(np.sum((pos[:i] - pos[i]) ** 2, axis=1)) > 1.5 ** 2
            ]
        ]
        lj = LJTable(("Na",))
        sys_ = ParticleSystem(
            positions=pos,
            velocities=np.zeros_like(pos),
            species=np.zeros(len(pos), dtype=np.int32),
            lj_table=lj,
            box=grid.box,
        )
        f_new, e_new = compute_forces_cells(sys_, grid)
        f_ref, e_ref = compute_forces_bruteforce(sys_, grid.cell_edge)
        assert np.abs(f_new - f_ref).max() <= 1e-10 * max(np.abs(f_ref).max(), 1.0)
        assert abs(e_new - e_ref) <= 1e-10 * max(abs(e_ref), 1.0)


class TestMachineStats:
    def test_stats_match_direct_half_shell_count(self):
        machine = FasdaMachine(MachineConfig((3, 3, 3)))
        stats = machine.compute_forces()
        clist = CellList(machine.grid, machine.system.positions)
        plan = plan_for_grid(machine.grid)
        np.testing.assert_array_equal(
            stats.candidates_per_cell, candidates_per_cell(plan, clist.counts)
        )
        # Accepted counts: recount by brute-force distance test over the
        # plan's candidate pairs using the machine's quantized fractions.
        pos = machine.system.positions
        coords = machine.grid.coords_of_positions(pos)
        frac = quantize_cell_fractions(
            pos, coords, machine.config.cutoff, machine.fmt
        )
        accepted = np.zeros(machine.grid.n_cells, dtype=np.int64)
        for chunk in iter_pair_chunks(
            plan, clist.counts, clist.start, clist.order
        ):
            dr = frac[chunk.ii] - frac[chunk.jj] - plan.offset[chunk.row]
            r2 = np.einsum("ij,ij->i", dr, dr).astype(np.float32)
            scatter_add(accepted, plan.home[chunk.row[r2 < 1.0]])
        np.testing.assert_array_equal(stats.accepted_per_cell, accepted)


class TestVerletBucketed:
    def test_bucketed_matches_bruteforce_pairs(self):
        # Box large enough for >= 3 cells per axis at cutoff + skin: the
        # bucketed and O(N^2) builders must list the identical pair set.
        rng = np.random.default_rng(12)
        box = np.array([13.0, 14.0, 15.0])
        pos = rng.uniform(0, box, size=(300, 3))
        fast = VerletNeighborList(cutoff=3.5, skin=0.5, box=box)
        fast.build(pos)
        slow = VerletNeighborList(cutoff=3.5, skin=0.5, box=box)
        slow._build_bruteforce(pos)
        fast_pairs = set(zip(*fast.pairs()))
        slow_pairs = set(zip(*slow.pairs()))
        assert fast_pairs == slow_pairs

    def test_small_box_falls_back_to_bruteforce(self):
        rng = np.random.default_rng(13)
        box = np.array([8.0, 8.0, 8.0])  # < 3 cells at cutoff + skin
        pos = rng.uniform(0, box, size=(60, 3))
        nl = VerletNeighborList(cutoff=2.5, skin=0.5, box=box)
        nl.build(pos)
        ref = VerletNeighborList(cutoff=2.5, skin=0.5, box=box)
        ref._build_bruteforce(pos)
        assert set(zip(*nl.pairs())) == set(zip(*ref.pairs()))


def test_cells_nonempty_returns_ndarray():
    grid = CellGrid((3, 3, 3), 4.0)
    pos = np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]])
    clist = CellList(grid, pos)
    ids = clist.cells_nonempty()
    assert isinstance(ids, np.ndarray)
    assert ids.dtype == np.int64
    np.testing.assert_array_equal(ids, np.nonzero(clist.counts)[0])


class TestPlanCacheKeying:
    """The plan cache keys on a quantized edge, not the raw float —
    round-trip noise in a recomputed cell edge must not spawn duplicate
    plans (satellite fix: raw-float cache keying)."""

    def test_ulp_wobbled_edge_hits_the_same_plan(self):
        from repro.md.pairplan import plan_cache_info

        g1 = CellGrid((4, 4, 4), 1.2)
        p1 = plan_for_grid(g1)
        hits_before = plan_cache_info().hits
        g2 = CellGrid((4, 4, 4), float(np.nextafter(1.2, 2.0)))
        p2 = plan_for_grid(g2)
        assert p2 is p1
        assert plan_cache_info().hits == hits_before + 1
        # The plan was built from the quantized edge, so equal cache
        # keys imply exactly equal geometry.
        np.testing.assert_array_equal(p1.edges, p2.edges)

    def test_distinct_edges_stay_distinct(self):
        p1 = plan_for_grid(CellGrid((4, 4, 4), 1.2))
        p2 = plan_for_grid(CellGrid((4, 4, 4), 1.3))
        assert p1 is not p2

    def test_cache_info_exposed(self):
        from repro.md.pairplan import plan_cache_info

        info = plan_cache_info()
        assert hasattr(info, "hits") and hasattr(info, "misses")

    def test_clear_plan_cache(self):
        from repro.md.pairplan import clear_plan_cache, plan_cache_info

        grid = CellGrid((4, 4, 4), 1.2)
        p1 = plan_for_grid(grid)
        clear_plan_cache()
        info = plan_cache_info()
        assert info.hits == 0 and info.misses == 0 and info.currsize == 0
        p2 = plan_for_grid(grid)
        assert p2 is not p1  # genuinely rebuilt, not a stale entry
        assert plan_cache_info().misses == 1


class TestPaddedDecode:
    """The padded oracles' flat-index decode tables, cached per plan."""

    def test_tables_match_divmod(self):
        plan = plan_for_dims((3, 3, 3), (4.0, 4.0, 4.0))
        cap = 5
        cell_of, i_of, j_of = padded_decode(plan, cap)
        f = np.arange(plan.n_cells * cap * cap, dtype=np.int64)
        np.testing.assert_array_equal(cell_of, f // (cap * cap))
        np.testing.assert_array_equal(i_of, (f // cap) % cap)
        np.testing.assert_array_equal(j_of, f % cap)
        for arr in (cell_of, i_of, j_of):
            assert arr.dtype == np.int32

    def test_one_entry_cache(self):
        plan = plan_for_dims((3, 3, 4), (4.0, 4.0, 4.0))
        t1 = padded_decode(plan, 6)
        assert padded_decode(plan, 6) is t1  # warm: same tuple back
        t2 = padded_decode(plan, 7)  # cap change evicts
        assert t2 is not t1
        assert len(t2[0]) == plan.n_cells * 49
