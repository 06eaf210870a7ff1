"""Property tests for the skin-band search (``band_rows``).

The contract (DESIGN.md §10): the compiled ``band_rows`` kernel and its
numpy statement :func:`~repro.md.cellstate.band_rows_numpy` fill a
:class:`~repro.md.cellstate.RowBands` layout bitwise identically.  A
compact full build lists every pair the exact admission can pass,
keyed by bank row, in ascending flat ``(offset, cell, slot_i, slot_j)``
order, and admits exactly what the padded-broadcast matmul search
:func:`~tests.oracles.band_slot_pairs` admits (their bands may differ
only for pairs with ``r2`` at the band edge).

Inputs cover empty cells, single particles, particles exactly on cell
and box faces, 3-wide periodic grids (one neighbour cell reached under
two offsets), both packings (machine quantized fractions, engine
box-local angstrom) and one cell holding more than 1024 particles.

Without the compiled backend the numpy search takes the compiled one's
place in every property and update check, so a numpy-only install still
tests the production search :func:`~repro.md.cellstate.band_rows_numpy`;
only the tests of the compiled kernel's wrapper skip.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.fixedpoint import FixedPointFormat
import repro.md.backends as backends_mod
from repro.md.backends import available_backends, checked_regions, resolve_backend
from repro.md.cells import CellGrid, CellList
from repro.md.cellstate import (
    RowBands,
    band_rows_numpy,
    build_fractions,
    dirty_regions,
    engine_pack_fn,
    key_stride,
    machine_pack_fn,
)
from repro.md.pairplan import ROWS_PER_CELL, candidates_per_cell, plan_for_grid
from repro.util.errors import ValidationError
from tests.oracles import band_rows_research, band_slot_pairs
from tests.test_backends import _half_in_one_cell_box
from tests.test_degenerate_inputs import CASES as DEGENERATE_CASES

#: Marks the tests that exercise the compiled kernel or its wrapper
#: alone; everything else runs on a numpy-only install too, with the
#: numpy search standing in for the compiled one.
requires_cext = pytest.mark.skipif(
    "cext" not in available_backends(), reason="cext backend unavailable"
)


def _kernels():
    """The searches to compare: the compiled one when it is available,
    then its numpy statement."""
    names = ["cext"] if "cext" in available_backends() else []
    return [resolve_backend(n).band_rows for n in names] + [band_rows_numpy]

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
    """Exact float64 admission over slot-form band lists ``(a, b, c,
    js, segs)``: the ``(k, c, i, j)`` rows kept."""
    a, b, c, js, segs = pairs
    k = np.repeat(np.arange(ROWS_PER_CELL), np.diff(segs))
    q = packed_s[b] + offs[k]
    d = packed_s[a] - q
    r2 = np.einsum("ij,ij->i", d, d)
    keep = r2 < admit_r2
    i = a - start[c]
    return np.stack([k, c, i, js])[:, keep]


def _compact(plan, clist, room=None):
    """An empty compact :class:`RowBands` for ``clist`` with buffers of
    ``room`` entries (default: the candidate count, a hit bound)."""
    lay = RowBands(plan.n_rows, slack=False)
    lay.stride = key_stride(int(clist.counts.max(initial=0)))
    lay.pad = len(clist.order)
    if room is None:
        room = int(candidates_per_cell(plan, clist.counts).sum())
    lay.reserve(room)
    return lay


def _home_rows(plan, home):
    """The regions of the ``home`` cells' plan rows, ascending (every
    region for ``None``)."""
    if home is None:
        return np.arange(plan.n_rows)
    return (np.arange(ROWS_PER_CELL)[:, None] * plan.n_cells + home).reshape(-1)


def _search(kern, plan, clist, packed, offs, band, home=None):
    """A compact full build of the ``home`` cells' regions."""
    lay = _compact(plan, clist)
    size = kern(plan, clist, packed, offs, band, _home_rows(plan, home), lay, True)
    assert size == lay.rstart[-1] <= len(lay.a)
    lay.size = size
    return lay


def _lists(lay):
    return tuple(getattr(lay, f)[: lay.size] for f in ("a", "b", "key"))


def _same_lists(x, y):
    assert np.array_equal(x.rstart, y.rstart)
    assert np.array_equal(x.fill, y.fill)
    assert np.array_equal(x.rcap, y.rcap)
    assert all(np.array_equal(p, q) for p, q in zip(_lists(x), _lists(y)))


def _check(grid, positions, kind):
    plan = plan_for_grid(grid)
    C = plan.n_cells
    clist = CellList(grid, positions)
    packed, offs, band, admit_r2 = _pack(kind, grid, plan, positions)
    order, start, counts = clist.order, clist.start, clist.counts
    nbr = plan.nbr.reshape(C, ROWS_PER_CELL)
    packed_s = packed[order]
    cap = max(int(counts.max()), 1)
    rows = np.arange(plan.n_rows)

    kern = _kernels()[0]
    lay = _search(kern, plan, clist, packed, offs, band)
    a, b, key = _lists(lay)
    # 12-byte entries: int32 streams, int64 region bookkeeping.
    assert all(x.dtype == np.int32 for x in (lay.a, lay.b, lay.key))
    assert all(x.dtype == np.int64 for x in (lay.rstart, lay.rcap, lay.fill))
    assert len(lay.rstart) == plan.n_rows + 1 and lay.rstart[0] == 0
    assert np.array_equal(lay.rcap, lay.fill)  # compact: no slack, no pads
    assert np.array_equal(np.diff(lay.rstart), lay.fill)
    assert lay.size == lay.fill.sum()
    # Buffers too small for the layout are fitted to it (a counting
    # pass, then the fill); any starting room, and a repeat, give the
    # same lists.
    for room in (0, lay.size // 2, lay.size - 1, lay.size, lay.size + 100):
        again = _compact(plan, clist, room=room)
        assert kern(plan, clist, packed, offs, band, rows, again, True) == lay.size
        assert len(again.a) >= lay.size
        again.size = lay.size
        _same_lists(again, lay)

    # Back to slot form: region r = k * C + c of every entry, home slot
    # i, neighbour slot j (the key's low part).
    reg = np.repeat(np.arange(plan.n_rows), lay.fill)
    k, c = np.divmod(reg, C)
    slot = np.empty(len(order), dtype=np.int64)
    slot[order] = np.arange(len(order))
    sa, sb = slot[a], slot[b]
    assert np.array_equal(key // lay.stride, c)
    js = key % lay.stride
    i = sa - start[c]
    nc = nbr[c, k]
    assert np.all((i >= 0) & (i < counts[c]))
    assert np.all(js < counts[nc])
    assert np.array_equal(sb, start[nc] + js)
    # Strictly ascending flat (k, c, i, j) over the whole layout, which
    # is ascending flat (c, i, j) within each offset.
    listed = ((k * C + c) * cap + i) * cap + js
    assert np.all(np.diff(listed) > 0)

    # Superset: every pair with exact r2 below the unwidened band.  By
    # the order check above ``listed`` is ascending, so membership is a
    # binary search.
    inner = band / (1.0 + MARGIN)
    for kk in range(ROWS_PER_CELL):
        for cell in np.flatnonzero(counts):
            r2 = _exact_r2(packed_s, offs, start, counts, nbr, kk, cell)
            ii, jj = np.nonzero(r2 < inner)
            want = ((kk * C + cell) * cap + ii) * cap + jj
            at = np.searchsorted(listed, want)
            assert np.all(at < len(listed))
            assert np.array_equal(listed[at], want)

    segs = lay.rstart[::C]
    got = _admitted((sa, sb, c, js, segs), packed_s, offs, start, nbr, admit_r2)
    # The numpy search pads each region to its own occupancy bucket, so
    # it runs on skewed binnings too.
    _same_lists(_search(band_rows_numpy, plan, clist, packed, offs, band), lay)
    fitted = _compact(plan, clist, room=0)
    band_rows_numpy(plan, clist, packed, offs, band, rows, fitted, True)
    fitted.size = lay.size
    _same_lists(fitted, lay)
    if C * cap * cap <= 2_000_000:
        ref = band_slot_pairs(plan, clist, packed, offs, band)
        want = _admitted(ref, packed_s, offs, start, nbr, admit_r2)
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

    @requires_cext
    def test_offsets_must_match_plan_rows(self):
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        clist = CellList(grid, pos)
        packed, offs, band, _ = _pack("engine", grid, plan, pos)
        with pytest.raises(ValidationError, match="offsets"):
            resolve_backend("cext").band_rows(
                plan, clist, packed, offs[:-1], band,
                np.arange(plan.n_rows), _compact(plan, clist), True,
            )

    @requires_cext
    def test_region_lists_must_ascend_within_range(self, monkeypatch):
        """The compiled search indexes its per-region arrays by every
        listed region, so the wrapper refuses, before the kernel runs,
        any list that is not strictly ascending within the plan rows —
        an out-of-range entry in the middle included.  The refusals are
        checked on the validator itself, so no bad list ever reaches
        the kernel here."""
        n_rows = plan_for_grid(CellGrid((3, 3, 3), EDGE)).n_rows
        for rows in ([0, 10**6, 1], [2, 1], [3, 3], [-1, 0], [n_rows], [0, -5, 9]):
            with pytest.raises(ValidationError, match="ascending"):
                checked_regions(np.array(rows), n_rows)
        ok = checked_regions([0, 5, n_rows - 1], n_rows)
        assert ok.dtype == np.int64 and ok.flags.c_contiguous
        assert checked_regions(np.array([], dtype=np.int64), n_rows).size == 0

        # The wrapper validates through it before entering the kernel.
        seen = []

        def refuse(rows, n):
            seen.append((list(rows), n))
            raise ValidationError("band_rows: refused")

        monkeypatch.setattr(backends_mod, "checked_regions", refuse)
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        clist = CellList(grid, pos)
        packed, offs, band, _ = _pack("machine", grid, plan, pos)
        with pytest.raises(ValidationError, match="refused"):
            resolve_backend("cext").band_rows(
                plan, clist, packed, offs, band, np.array([0, 1]),
                _compact(plan, clist), True,
            )
        assert seen == [([0, 1], n_rows)]


class TestHomeCellSubsets:
    """A node's band search covers only its own home cells: each of
    their regions holds exactly the whole-box region's hits, every
    other region is empty — on the compiled kernel and on the numpy
    search alike — so the searches of a partition's nodes add up to one
    search of the box."""

    @pytest.mark.parametrize(
        "search", [pytest.param("cext", marks=requires_cext), "numpy"]
    )
    @pytest.mark.parametrize("parts", [(2, 2, 2), (4, 1, 1), (1, 2, 4)])
    def test_nodes_add_up_to_the_box(self, search, parts):
        grid = CellGrid((4, 4, 4), EDGE)
        plan = plan_for_grid(grid)
        rng = np.random.default_rng(5)
        positions = rng.uniform(0.0, 1.0, size=(1200, 3)) * grid.box
        clist = CellList(grid, positions)
        packed, offs, band, _ = _pack("machine", grid, plan, positions)
        kern = resolve_backend("cext").band_rows if search == "cext" else band_rows_numpy

        def run(home):
            return _search(kern, plan, clist, packed, offs, band, home)

        whole = run(None)
        node = grid.cell_coords(np.arange(grid.n_cells)) // (
            np.asarray(grid.dims) // np.asarray(parts)
        )
        node_id = (node[:, 0] * parts[1] + node[:, 1]) * parts[2] + node[:, 2]
        cell_of_region = np.arange(plan.n_rows) % plan.n_cells
        total = 0
        for n in range(int(np.prod(parts))):
            home = np.flatnonzero(node_id == n)
            part = run(home)
            total += part.size
            mine = np.isin(cell_of_region, home)
            assert np.all(part.fill[~mine] == 0)
            for r in np.flatnonzero(mine):
                for x, y in zip(_hits(part, r), _hits(whole, r)):
                    assert np.array_equal(x, y)
        assert total == whole.size


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
        kern = _kernels()[0]
        lay = _row_layout(plan, b0, n, **slack)
        size = kern(plan, b0, p0, offs, band, np.arange(plan.n_rows), lay, True)
        assert size == lay.rstart[-1] <= len(lay.a)
        ref = _copy(lay)
        band_rows_numpy(plan, b0, p0, offs, band, np.arange(plan.n_rows), ref, True)
        _same_layout(lay, ref)

        x1 = _migrate(grid, x0, rng, n_move, pile)
        b1 = CellList(grid, x1)
        c1 = grid.coords_of_positions(x1)
        p1 = build_fractions(grid, x1, x0, c1)
        regions = dirty_regions(plan, grid.cell_id(c0), grid.cell_id(c1))
        stride_ok = int(b1.counts.max()) <= lay.stride
        got = kern(plan, b1, p1, offs, band, regions, lay, False)
        want = band_rows_numpy(plan, b1, p1, offs, band, regions, ref, False)
        assert got == want == 0
        _same_layout(lay, ref)
        if not stride_ok:
            return  # the keys would collide; the state rebuilds here

        fresh = _row_layout(plan, b1, n)
        fresh.stride = lay.stride
        band_rows_numpy(plan, b1, p1, offs, band, np.arange(plan.n_rows), fresh, True)
        for r in range(plan.n_rows):
            for x, y in zip(_hits(lay, r), _hits(fresh, r)):
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
        assert np.array_equal(_admitted_rows(lay, p1, offs, C), slot_admitted)

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
        for kern in _kernels():
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
        assert results == [1] * len(_kernels())

    @requires_cext
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


def _merge(kern):
    """``kern``'s in-place update, called as its oracle is."""
    return lambda *args: kern(*args, False)


def _update_chain(kern, update, grid, plan, steps):
    """A full build of ``steps[0]`` by ``kern``, then in-place updates by
    ``update`` (``band_rows`` without ``fresh``, or its oracle) to each
    later set of positions, searched at the first one's build
    fractions; returns the layout after each update."""
    x0 = steps[0]
    _, offs, band, _ = _pack("machine", grid, plan, x0)
    b0 = CellList(grid, x0)
    cells = grid.cell_id(grid.coords_of_positions(x0))
    lay = _row_layout(plan, b0, len(x0))
    kern(plan, b0, build_fractions(grid, x0, x0, grid.coords_of_positions(x0)),
         offs, band, np.arange(plan.n_rows), lay, True)
    out = []
    for x in steps[1:]:
        c = grid.coords_of_positions(x)
        regions = dirty_regions(plan, cells, grid.cell_id(c))
        cells = grid.cell_id(c)
        p = build_fractions(grid, x, x0, c)
        assert update(plan, CellList(grid, x), p, offs, band, regions, lay) == 0
        out.append(_copy(lay))
    return out


def _fresh_regions(grid, plan, x, x0, stride):
    """A fresh search of every region of the binning of ``x`` at the
    build fractions of ``x0``, keyed with ``stride``."""
    _, offs, band, _ = _pack("machine", grid, plan, x0)
    b = CellList(grid, x)
    fresh = _row_layout(plan, b, len(x))
    fresh.stride = stride
    band_rows_numpy(plan, b, build_fractions(grid, x, x0, grid.coords_of_positions(x)),
                    offs, band, np.arange(plan.n_rows), fresh, True)
    return fresh


class TestMergeUpdate:
    """The in-place update merges the rows that changed cell into the
    layout: on each backend it leaves the layout entry for entry as the
    retired re-search of every region it touches
    (:func:`~tests.oracles.band_rows_research`) does, and its regions
    hold exactly a fresh search's hits, through chains of updates."""

    @given(
        dims=dims_st,
        occ=st.integers(1, 12),
        moves=st.lists(st.integers(1, 30), min_size=1, max_size=4),
        pile=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_merge_equals_the_region_research(self, dims, occ, moves, pile, seed):
        grid = CellGrid(dims, EDGE)
        plan = plan_for_grid(grid)
        rng = np.random.default_rng(seed)
        steps = [_positions(grid, np.full(plan.n_cells, occ), rng, faces=False)]
        for n_move in moves:
            steps.append(_migrate(grid, steps[-1], rng, n_move, pile))
        want = _update_chain(_kernels()[-1], band_rows_research, grid, plan, steps)
        for kern in _kernels():
            got = _update_chain(kern, _merge(kern), grid, plan, steps)
            for x, y in zip(got, want):
                _same_layout(x, y)

    @pytest.mark.parametrize("kern", _kernels())
    def test_one_row_across_a_periodic_face(self, kern):
        """One row steps from the bottom x layer through the box face
        into the top one: only it moves, and the layout equals the
        oracle's and a fresh search's."""
        grid = CellGrid((3, 4, 3), EDGE)
        plan = plan_for_grid(grid)
        rng = np.random.default_rng(11)
        x0 = _positions(grid, np.full(plan.n_cells, 6), rng, faces=False)
        x0[0] = [0.05, 3.0, 3.0]
        x1 = x0.copy()
        x1[0, 0] = grid.box[0] - 0.05
        assert grid.cell_coords(grid.cell_id(grid.coords_of_positions(x1)))[0][0] == 2
        got = _update_chain(kern, _merge(kern), grid, plan, [x0, x1])[0]
        want = _update_chain(kern, band_rows_research, grid, plan, [x0, x1])[0]
        _same_layout(got, want)
        fresh = _fresh_regions(grid, plan, x1, x0, got.stride)
        for r in range(plan.n_rows):
            for x, y in zip(_hits(got, r), _hits(fresh, r)):
                assert np.array_equal(x, y)
        # Its build position sits just past the top face of its new cell.
        frac = build_fractions(grid, x1, x0, grid.coords_of_positions(x1))
        assert frac[0, 0] > 1.0

    @pytest.mark.parametrize("kern", _kernels())
    def test_a_row_in_and_back_out(self, kern):
        """A row enters a neighbouring cell on one update and goes back
        on the next: each layout equals the oracle's, and the second is
        entry for entry the first build's."""
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        rng = np.random.default_rng(12)
        x0 = _positions(grid, np.full(plan.n_cells, 7), rng, faces=False)
        x0[0] = [EDGE - 0.1, 1.0, 1.0]
        x1 = x0.copy()
        x1[0, 0] = EDGE + 0.1
        steps = [x0, x1, x0.copy()]
        got = _update_chain(kern, _merge(kern), grid, plan, steps)
        want = _update_chain(kern, band_rows_research, grid, plan, steps)
        for x, y in zip(got, want):
            _same_layout(x, y)
        _, offs, band, _ = _pack("machine", grid, plan, x0)
        b0 = CellList(grid, x0)
        first = _row_layout(plan, b0, len(x0))
        kern(plan, b0, build_fractions(grid, x0, x0, grid.coords_of_positions(x0)),
             offs, band, np.arange(plan.n_rows), first, True)
        for r in range(plan.n_rows):
            for x, y in zip(_hits(got[1], r), _hits(first, r)):
                assert np.array_equal(x, y)

    def test_update_needs_a_searched_layout(self):
        grid = CellGrid((3, 3, 3), EDGE)
        plan = plan_for_grid(grid)
        pos = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        clist = CellList(grid, pos)
        packed, offs, band, _ = _pack("machine", grid, plan, pos)
        for kern in _kernels():
            lay = _row_layout(plan, clist, 2)
            with pytest.raises(ValidationError, match="searched layout"):
                kern(plan, clist, packed, offs, band, np.array([0]), lay, False)


class TestSkewedFixtures:
    """The degenerate boxes of ``tests/test_degenerate_inputs.py`` and
    the half-in-one-cell box of ``tests/test_backends.py`` (256 of 512
    particles in cell 0): the numpy search, padding each region to its
    own occupancy bucket, lays them out exactly as the compiled one
    (:func:`_check`)."""

    @pytest.mark.parametrize("kind", ["machine", "engine"])
    @pytest.mark.parametrize("case", [*DEGENERATE_CASES, "half_in_one_cell"])
    def test_numpy_layout_matches_compiled(self, case, kind):
        build = DEGENERATE_CASES.get(case, _half_in_one_cell_box)
        system, grid = build()
        assert grid.cell_edge == EDGE
        _check(grid, system.positions, kind)
