"""Property tests for the compiled skin-band searches (``band_pairs``,
``band_rows``).

The contract (DESIGN.md §10): the cext band lists every pair the exact
admission can pass, in :func:`~repro.md.cellstate.band_slot_pairs`'
enumeration order — ascending flat ``(cell, slot_i, slot_j)`` within
each offset segment — and may differ from the numpy band only for pairs
with ``r2`` close to the band.  So after exact float64 admission both
bands yield the same admitted sequence, which is what keeps every
consumer bitwise identical across band searches.

Inputs cover empty cells, single particles, particles exactly on cell
and box faces, 3-wide periodic grids (one neighbour cell reached under
two offsets), both packings (machine quantized fractions, engine
box-local angstrom) and one cell holding more than 1024 particles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.fixedpoint import FixedPointFormat
from repro.md.backends import available_backends, resolve_backend
from repro.md.cells import CellGrid, CellList
from repro.md.cellstate import (
    RowBands,
    band_rows_numpy,
    band_slot_pairs,
    build_fractions,
    dirty_regions,
    engine_pack_fn,
    key_stride,
    machine_pack_fn,
)
from repro.md.pairplan import ROWS_PER_CELL, candidates_per_cell, plan_for_grid
from repro.util.errors import ValidationError

pytestmark = pytest.mark.skipif(
    "cext" not in available_backends(), reason="cext backend unavailable"
)

EDGE = 8.5
SKIN = 0.15 * EDGE
#: Relative float32 margin both pack functions add to the band.
MARGIN = 1e-3


def _pack(kind, grid, plan, positions):
    """``(packed, offsets, band, admit_r2)`` for one packing."""
    if kind == "machine":
        pack = machine_pack_fn(FixedPointFormat(), EDGE, SKIN, grid)
        packed, offs, band = pack(positions)
        return packed, offs, band, 1.0
    pack = engine_pack_fn(grid, plan, SKIN)
    packed, offs, band = pack(positions)
    return packed, offs, band, EDGE * EDGE


def _exact_r2(packed_s, offs, start, counts, nbr, k, c):
    """Exact float64 r2 matrix of home cell ``c`` against its row-``k``
    neighbour; on the home row ``k = 0`` only ``i < j`` is finite."""
    nc = nbr[c, k]
    p = packed_s[start[c]:start[c] + counts[c]]
    q = packed_s[start[nc]:start[nc] + counts[nc]] + offs[k]
    d = p[:, None, :] - q[None, :, :]
    r2 = np.einsum("ijx,ijx->ij", d, d)
    if k == 0:
        r2[np.tril_indices(len(p), m=len(q))] = np.inf
    return r2


def _admitted(pairs, packed_s, offs, start, nbr, admit_r2):
    """Exact float64 admission over a band: ``(k, c, i, j)`` rows kept."""
    a, b, c, js, segs = pairs
    k = np.repeat(np.arange(ROWS_PER_CELL), np.diff(segs))
    q = packed_s[b] + offs[k]
    d = packed_s[a] - q
    r2 = np.einsum("ij,ij->i", d, d)
    keep = r2 < admit_r2
    i = a - start[c]
    return np.stack([k, c, i, js])[:, keep]


def _check(grid, positions, kind):
    plan = plan_for_grid(grid)
    clist = CellList(grid, positions)
    packed, offs, band, admit_r2 = _pack(kind, grid, plan, positions)
    start, counts = clist.start, clist.counts
    nbr = plan.nbr.reshape(plan.n_cells, ROWS_PER_CELL)
    packed_s = packed[clist.order]
    cap = max(int(counts.max()), 1)

    kern = resolve_backend("cext").band_pairs
    a, b, c, js, segs = kern(plan, clist, packed, offs, band)
    assert all(x.dtype == np.int64 for x in (a, b, c, js, segs))
    assert len(segs) == ROWS_PER_CELL + 1 and segs[0] == 0
    assert len(a) == len(b) == len(c) == len(js) == segs[-1]
    # A fill pass sized from a stale length (overflowing or not) gives
    # the same lists as the count-then-fill first build.
    for hint in (1, len(a) // 2, len(a) + 100):
        again = kern(plan, clist, packed, offs, band, hint)
        assert all(
            np.array_equal(x, y) for x, y in zip(again, (a, b, c, js, segs))
        )

    i = a - start[c]
    assert np.all((i >= 0) & (i < counts[c]))
    for k in range(ROWS_PER_CELL):
        lo, hi = segs[k], segs[k + 1]
        nc = nbr[c[lo:hi], k]
        assert np.array_equal(b[lo:hi], start[nc] + js[lo:hi])
        assert np.all(js[lo:hi] < counts[nc])
        # Strictly ascending flat (c, i, j) within the segment.
        key = (c[lo:hi] * cap + i[lo:hi]) * cap + js[lo:hi]
        assert np.all(np.diff(key) > 0)

    # Superset: every pair with exact r2 below the unwidened band.  The
    # flat keys put k first, so by the order check above ``listed`` is
    # globally ascending and membership is a binary search.
    def flat_key(k, cell, ii, jj):
        return ((k * plan.n_cells + cell) * cap + ii) * cap + jj

    k_of = np.repeat(np.arange(ROWS_PER_CELL), np.diff(segs))
    listed = flat_key(k_of, c, i, js)
    inner = band / (1.0 + MARGIN)
    for k in range(ROWS_PER_CELL):
        for cell in np.flatnonzero(counts):
            r2 = _exact_r2(packed_s, offs, start, counts, nbr, k, cell)
            want = flat_key(k, cell, *np.nonzero(r2 < inner))
            at = np.searchsorted(listed, want)
            assert np.all(at < len(listed))
            assert np.array_equal(listed[at], want)

    got = _admitted((a, b, c, js, segs), packed_s, offs, start, nbr, admit_r2)
    if plan.n_cells * cap * cap <= 2_000_000:
        ref = band_slot_pairs(plan, clist, packed, offs, band)
        want = _admitted(
            (ref.a, ref.b, ref.c, ref.js, ref.segs),
            packed_s, offs, start, nbr, admit_r2,
        )
        assert np.array_equal(got, want)
    return got


def _positions(grid, occ, rng, faces):
    """Uniform in-cell positions with ``occ[c]`` particles in cell ``c``;
    ``faces`` snaps a share of coordinates onto cell/box faces."""
    cids = np.repeat(np.arange(len(occ)), occ)
    corner = grid.cell_coords(cids) * grid.cell_edge
    pos = corner + rng.uniform(0.0, grid.cell_edge, size=(len(cids), 3))
    if faces and len(cids):
        lower = rng.random(pos.shape) < 0.2
        pos[lower] = corner[lower]
        upper = rng.random(pos.shape) < 0.1
        pos[upper] = corner[upper] + grid.cell_edge  # box face at the top
    return pos


dims_st = st.tuples(st.integers(3, 4), st.integers(3, 4), st.integers(3, 5))


class TestBandKernelProperties:
    @given(
        dims=dims_st,
        max_occ=st.integers(0, 12),
        empty_share=st.floats(0.0, 0.8),
        faces=st.booleans(),
        kind=st.sampled_from(["machine", "engine"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_order_superset_and_admission(
        self, dims, max_occ, empty_share, faces, kind, seed
    ):
        grid = CellGrid(dims, EDGE)
        rng = np.random.default_rng(seed)
        occ = rng.integers(0, max_occ + 1, size=grid.n_cells)
        occ[rng.random(grid.n_cells) < empty_share] = 0
        _check(grid, _positions(grid, occ, rng, faces), kind)

    @pytest.mark.parametrize("kind", ["machine", "engine"])
    def test_single_particle(self, kind):
        grid = CellGrid((3, 3, 3), EDGE)
        got = _check(grid, np.array([[0.0, 0.0, 0.0]]), kind)
        assert got.shape[1] == 0

    @pytest.mark.parametrize("kind", ["machine", "engine"])
    def test_all_on_faces_of_3_wide_grid(self, kind):
        """Every particle on a cell corner: each neighbour cell of the
        3-wide periodic grid is reached under two offsets, with pairs
        at exactly one cell edge (outside the cutoff) in the band."""
        grid = CellGrid((3, 3, 3), EDGE)
        cids = np.arange(grid.n_cells)
        pos = grid.cell_coords(cids) * EDGE
        pos = np.concatenate([pos, pos + 0.5 * EDGE])
        _check(grid, pos, kind)

    @pytest.mark.parametrize("kind", ["machine", "engine"])
    def test_cell_over_1024_particles(self, kind):
        grid = CellGrid((3, 3, 3), EDGE)
        rng = np.random.default_rng(7)
        occ = rng.integers(0, 3, size=grid.n_cells)
        occ[13] = 1100
        got = _check(grid, _positions(grid, occ, rng, faces=False), kind)
        assert got.shape[1] > 0

    def test_offsets_must_match_plan_rows(self):
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        packed, offs, band, _ = _pack("engine", grid, plan, pos)
        with pytest.raises(ValidationError, match="offsets"):
            resolve_backend("cext").band_pairs(
                plan, CellList(grid, pos), packed, offs[:-1], band
            )

    def test_home_cells_must_be_in_range(self):
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        packed, offs, band, _ = _pack("engine", grid, plan, pos)
        for home in ([0, 27], [-1, 3]):
            with pytest.raises(ValidationError, match="home"):
                resolve_backend("cext").band_pairs(
                    plan, CellList(grid, pos), packed, offs, band, 0,
                    np.array(home),
                )


class TestHomeCellSubsets:
    """A node's band search covers only its own home cells: per offset,
    exactly the whole-box rows of those cells, in the same order — on
    the compiled kernel and on the numpy search alike — so the searches
    of a partition's nodes add up to one search of the box."""

    @pytest.mark.parametrize("search", ["cext", "numpy"])
    @pytest.mark.parametrize("parts", [(2, 2, 2), (4, 1, 1), (1, 2, 4)])
    def test_nodes_add_up_to_the_box(self, search, parts):
        grid = CellGrid((4, 4, 4), EDGE)
        plan = plan_for_grid(grid)
        rng = np.random.default_rng(5)
        positions = rng.uniform(0.0, 1.0, size=(1200, 3)) * grid.box
        clist = CellList(grid, positions)
        packed, offs, band, _ = _pack("machine", grid, plan, positions)
        if search == "cext":
            kern = resolve_backend("cext").band_pairs

            def run(home):
                return kern(plan, clist, packed, offs, band, 0, home)
        else:

            def run(home):
                p = band_slot_pairs(plan, clist, packed, offs, band, home)
                return p.a, p.b, p.c, p.js, p.segs

        a, b, c, js, segs = run(None)
        node = grid.cell_coords(np.arange(grid.n_cells)) // (
            np.asarray(grid.dims) // np.asarray(parts)
        )
        node_id = (node[:, 0] * parts[1] + node[:, 1]) * parts[2] + node[:, 2]
        total = 0
        for n in range(int(np.prod(parts))):
            home = np.flatnonzero(node_id == n)
            got = run(home)
            total += got[4][-1]
            for k in range(ROWS_PER_CELL):
                lo, hi = segs[k], segs[k + 1]
                sel = np.isin(c[lo:hi], home)
                glo, ghi = got[4][k], got[4][k + 1]
                for full, part in zip((a, b, c, js), got[:4]):
                    assert np.array_equal(full[lo:hi][sel], part[glo:ghi])
        assert total == segs[-1]


def _row_layout(plan, clist, n, shift=None, slack_min=None, room=0):
    """An empty :class:`RowBands` sized for a fresh build of ``clist``."""
    lay = RowBands(plan.n_rows)
    if shift is not None:
        lay.shift, lay.slack_min = shift, slack_min
    lay.stride = key_stride(int(clist.counts.max()))
    lay.pad = n
    cand = int(candidates_per_cell(plan, clist.counts).sum())
    lay.reserve(cand + (cand >> lay.shift) + plan.n_rows * lay.slack_min + room)
    return lay


def _copy(lay):
    out = RowBands(len(lay.rcap))
    for f in ("stride", "pad", "shift", "slack_min", "size"):
        setattr(out, f, getattr(lay, f))
    for f in ("a", "b", "key", "rstart", "rcap", "fill"):
        setattr(out, f, getattr(lay, f).copy())
    return out


def _same_layout(x, y):
    assert np.array_equal(x.rstart, y.rstart)
    assert np.array_equal(x.rcap, y.rcap)
    assert np.array_equal(x.fill, y.fill)
    n = int(x.rstart[-1])
    for f in ("a", "b", "key"):
        assert np.array_equal(getattr(x, f)[:n], getattr(y, f)[:n]), f


def _hits(lay, r):
    lo, f = lay.rstart[r], lay.fill[r]
    return tuple(getattr(lay, x)[lo:lo + f] for x in ("a", "b", "key"))


def _admitted_rows(lay, packed, offs, C):
    """Exact float64 admission (machine units, cutoff 1) over a row
    layout: ``(k, c, home bank row, neighbour bank row)`` in layout
    order, pads skipped."""
    out = []
    for r in range(len(lay.fill)):
        a, b, _ = _hits(lay, r)
        k = r // C
        d = packed[a] - packed[b] - offs[k]
        keep = np.einsum("ij,ij->i", d, d) < 1.0
        out.append(np.stack([np.full(keep.sum(), k), np.full(keep.sum(), r % C),
                             a[keep], b[keep]]))
    return np.concatenate(out, axis=1)


def _migrate(grid, positions, rng, n_move, pile):
    """Move ``n_move`` particles by under 0.6 A, some across cell and
    periodic box faces; with ``pile`` they all head for one cell."""
    moved = positions.copy()
    ids = rng.choice(len(positions), size=min(n_move, len(positions)), replace=False)
    target = grid.cell_coords(rng.integers(grid.n_cells)) * grid.cell_edge
    for p in ids:
        if pile:
            d = target - moved[p]
            d -= grid.box * np.rint(d / grid.box)
            step = 0.55 * d / max(np.linalg.norm(d), 1e-9)
        else:
            step = rng.uniform(-0.55, 0.55, size=3) / np.sqrt(3)
        moved[p] += step
    return moved % grid.box


class TestRowSearch:
    """The row-layout search (``band_rows``): the compiled kernel and its
    numpy statement fill the layout bitwise identically, for a full
    build and for an in-place update of the regions migrating particles
    touch — lengthening regions, borrowing from later ones, growing the
    layout end — and the updated regions together with the kept ones
    are exactly a fresh search of the new binning, whose admitted pairs
    are those of the numpy padded-broadcast band search."""

    @given(
        dims=dims_st,
        occ=st.integers(2, 14),
        n_move=st.integers(1, 40),
        pile=st.booleans(),
        tight=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_update_matches_numpy_and_a_fresh_search(
        self, dims, occ, n_move, pile, tight, seed
    ):
        grid = CellGrid(dims, EDGE)
        plan = plan_for_grid(grid)
        C = plan.n_cells
        rng = np.random.default_rng(seed)
        x0 = _positions(grid, np.full(C, occ), rng, faces=False)
        n = len(x0)
        _, offs, band, _ = _pack("machine", grid, plan, x0)
        b0 = CellList(grid, x0)
        c0 = grid.coords_of_positions(x0)
        p0 = build_fractions(grid, x0, x0, c0)
        # ``tight``: no slack at all, so any growth borrows or moves the
        # layout end (with room for it in the buffers).
        slack = dict(shift=63, slack_min=0, room=1 << 16) if tight else {}
        cext = _row_layout(plan, b0, n, **slack)
        size = resolve_backend("cext").band_rows(
            plan, b0, p0, offs, band, np.arange(plan.n_rows), cext, True
        )
        assert size == cext.rstart[-1] <= len(cext.a)
        ref = _copy(cext)
        band_rows_numpy(plan, b0, p0, offs, band, np.arange(plan.n_rows), ref, True)
        _same_layout(cext, ref)

        x1 = _migrate(grid, x0, rng, n_move, pile)
        b1 = CellList(grid, x1)
        c1 = grid.coords_of_positions(x1)
        p1 = build_fractions(grid, x1, x0, c1)
        regions = dirty_regions(plan, grid.cell_id(c0), grid.cell_id(c1))
        stride_ok = int(b1.counts.max()) <= cext.stride
        got = resolve_backend("cext").band_rows(
            plan, b1, p1, offs, band, regions, cext, False
        )
        want = band_rows_numpy(plan, b1, p1, offs, band, regions, ref, False)
        assert got == want == 0
        _same_layout(cext, ref)
        if not stride_ok:
            return  # the keys would collide; the state rebuilds here

        fresh = _row_layout(plan, b1, n)
        fresh.stride = cext.stride
        band_rows_numpy(plan, b1, p1, offs, band, np.arange(plan.n_rows), fresh, True)
        for r in range(plan.n_rows):
            for x, y in zip(_hits(cext, r), _hits(fresh, r)):
                assert np.array_equal(x, y)
        ref_band = band_slot_pairs(plan, b1, p1, offs, band)
        order = b1.order
        k_of = np.repeat(np.arange(ROWS_PER_CELL), np.diff(ref_band.segs))
        d = p1[order[ref_band.a]] - p1[order[ref_band.b]] - offs[k_of]
        keep = np.einsum("ij,ij->i", d, d) < 1.0
        slot_admitted = np.stack([
            k_of[keep], ref_band.c[keep],
            order[ref_band.a][keep], order[ref_band.b][keep],
        ])
        assert np.array_equal(_admitted_rows(cext, p1, offs, C), slot_admitted)

    def test_no_room_fails_on_both(self):
        """A region that must grow in a layout with neither slack nor
        room past its end makes both searches report failure."""
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        rng = np.random.default_rng(4)
        x0 = _positions(grid, np.full(plan.n_cells, 8), rng, faces=False)
        _, offs, band, _ = _pack("machine", grid, plan, x0)
        b0 = CellList(grid, x0)
        c0 = grid.coords_of_positions(x0)
        p0 = build_fractions(grid, x0, x0, c0)
        results = []
        for kern in (resolve_backend("cext").band_rows, band_rows_numpy):
            lay = _row_layout(plan, b0, len(x0), shift=63, slack_min=0)
            kern(plan, b0, p0, offs, band, np.arange(plan.n_rows), lay, True)
            lay.a, lay.b, lay.key = (
                x[: int(lay.rstart[-1])].copy() for x in (lay.a, lay.b, lay.key)
            )
            x1 = _migrate(grid, x0, np.random.default_rng(5), 20, pile=True)
            b1 = CellList(grid, x1)
            c1 = grid.coords_of_positions(x1)
            regions = dirty_regions(plan, grid.cell_id(c0), grid.cell_id(c1))
            p1 = build_fractions(grid, x1, x0, c1)
            results.append(kern(plan, b1, p1, offs, band, regions, lay, False))
        assert results == [1, 1]

    def test_regions_must_be_in_range(self):
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        clist = CellList(grid, pos)
        packed, offs, band, _ = _pack("machine", grid, plan, pos)
        lay = _row_layout(plan, clist, 2)
        kern = resolve_backend("cext").band_rows
        with pytest.raises(ValidationError, match="region"):
            kern(plan, clist, packed, offs, band, np.array([plan.n_rows]), lay, True)
        with pytest.raises(ValidationError, match="offsets"):
            kern(plan, clist, packed, offs[:-1], band, np.array([0]), lay, True)
