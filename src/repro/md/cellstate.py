"""Step-persistent cell state: skin-banded pair lists reused across steps.

PR 1 and PR 2 made a *single* force evaluation fast, but every step
still pays the full binning + padded-broadcast candidate search even
when no particle has moved meaningfully.  The paper amortizes exactly
this (cell lists are rebuilt on migration, not every iteration), and
CPU MD engines amortize it with a Verlet skin.  :class:`CellState`
brings that amortization to the cell-list hot paths while keeping the
results **bitwise identical** to the rebuild-every-step code:

* At build time one band search runs with the cutoff *widened by a
  skin* — the consumer backend's compiled ``band_rows`` kernel or its
  numpy statement :func:`band_rows_numpy` — producing, per plan row,
  the (home, neighbour) bank-row candidates in exactly the order the
  fresh padded path enumerates its own survivors.  Every consumer holds
  the result in the one layout, :class:`RowBands`.
* On reuse steps the candidate search is skipped entirely; the exact
  float64 recheck (or the fixed-point :class:`~repro.core.datapath.PairFilter`
  admission) runs over the persistent band list.  Because every pair the
  fresh path could admit is guaranteed to be in the band (the classic
  skin/2 displacement argument) and the list preserves the fresh path's
  flat enumeration order, the admitted pair *sequences* — and therefore
  every float32/float64 accumulation — are bit-for-bit the same.
* The state is invalidated by the skin/2 displacement criterion (the
  same rule as :meth:`repro.md.neighborlist.VerletNeighborList.needs_rebuild`,
  which now shares :func:`skin_exceeded`) **or** by any change of the
  cell assignment itself: identical binning is what makes the padded
  packing, the bucket order, and hence the accumulation grouping of the
  reuse path equal to a fresh build's.  Box/grid changes force a new
  state object altogether (the state is keyed to one grid).
* States that only ever build afresh (``ReferenceEngine``,
  ``BatchedEngine`` segments, the throwaway state of a stateless
  ``compute_forces_cells`` call) lay their band out compactly: one
  region per plan row, exactly as long as its hits.  The updatable
  states (``updatable=True``: the machine's whole box and every
  distributed node view) give each region slack; when particles only
  changed cell, they merge the rows that moved into the regions whose
  home or neighbour cell gained or lost a row, in place: the entries of
  departed rows drop out, the kept ones are re-keyed, and only the
  pairs a moved row takes part in are searched, at the build positions
  under the current binning (:meth:`CellState._update`).  The result
  admits what a fresh build would, in the same order, so the skin/2
  trigger alone decides full builds.
* A node view's state is binned by its consumer (:meth:`CellState.ensure`
  with ``binning``): bank rows are global particle ids, the view lists
  the rows it holds, in its own bucket order, and only the regions of
  its ``home`` cells are searched.

Consumers attach layer-specific artifacts (pre-gathered coefficient
arrays, pre-cast float32 table ROMs, packed halo batches) via
:attr:`CellState.artifacts`, keyed by :attr:`CellState.version` so a
rebuild invalidates them automatically (an in-place update bumps
:attr:`CellState.updates` instead).
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.md.cells import CellGrid, CellList, HALF_SHELL_OFFSETS
from repro.md.pairplan import ROWS_PER_CELL, CellPairPlan, candidates_per_cell
from repro.util.errors import ValidationError


def skin_exceeded(
    positions: np.ndarray,
    build_positions: Optional[np.ndarray],
    box: np.ndarray,
    skin: float,
) -> bool:
    """The classic Verlet skin/2 displacement criterion.

    True when any particle moved (minimum-image) more than ``skin / 2``
    since ``build_positions``: two particles each moving skin/2 toward
    one another is the worst case that could bring an unlisted pair
    inside the cutoff.  Shared by the Verlet neighbor list and
    :class:`CellState`.
    """
    if build_positions is None:
        return True
    delta = min_image(positions - build_positions, box)
    delta *= delta
    # Row sums in ``np.sum(delta, axis=1)``'s order, (x + y) + z, a
    # column at a time.
    max_disp2 = float(((delta[:, 0] + delta[:, 1]) + delta[:, 2]).max())
    return max_disp2 > (0.5 * skin) ** 2


def min_image(delta: np.ndarray, box: np.ndarray) -> np.ndarray:
    """``delta -= box * rint(delta / box)`` in place, a column at a
    time: the same rounding per element, without numpy's slow path for
    a 3-wide broadcast.  Returns ``delta``."""
    for x in range(delta.shape[1]):
        d = delta[:, x]
        d -= box[x] * np.rint(d / box[x])
    return delta


class _FrozenCache:
    """Results of ``fn`` on read-only arrays, by the arrays' identities.

    A read-only array cannot change under its identity, and a weak
    reference tells whether the identity still names it, so a hit is
    exactly the value ``fn`` would return.  The node view states of a
    distributed pass share one read-only positions snapshot and, when
    built in the same pass, one build snapshot: each skin/2 test and
    build-fraction pass then runs once per pass, not once per node.
    Any writable argument bypasses the cache.  ``size`` bounds the
    values held.
    """

    def __init__(self, fn: Callable, size: int = 4):
        self.fn = fn
        self.size = size
        self._hits: Dict[tuple, tuple] = {}

    def __call__(self, *args):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        if any(a.flags.writeable for a in arrays):
            return self.fn(*args)
        key = tuple(id(a) if isinstance(a, np.ndarray) else a for a in args)
        hit = self._hits.get(key)
        if hit is not None and all(r() is a for r, a in zip(hit[0], arrays)):
            return hit[1]
        value = self.fn(*args)
        self._hits[key] = (tuple(weakref.ref(a) for a in arrays), value)
        # Oldest first; ``list`` copies the keys in one step, so node
        # states preparing on pool threads never iterate a changing dict.
        for old in list(self._hits)[: -self.size]:
            self._hits.pop(old, None)
        return value


#: Region slack of an updatable row layout: a region of ``fill`` hits
#: gets ``fill >> ROW_SLACK_SHIFT`` plus ``ROW_SLACK_MIN`` spare entries
#: (a region that outgrows them borrows from the regions after it).
ROW_SLACK_SHIFT = 4
ROW_SLACK_MIN = 16
#: The slack shift of a compact layout: ``fill >> 63`` is 0 for every
#: count, so with ``slack_min = 0`` each region is exactly its hits.
COMPACT_SHIFT = 63


#: Dtype of the per-entry streams of every layout (:class:`RowBands`
#: ``a``/``b``/``key``) and of the batch pair stream: 12 bytes an entry,
#: half of int64's.  Region bookkeeping and per-pass scratch stay int64.
INDEX_DTYPE = np.int32
#: Bank rows and keys must stay below this to fit :data:`INDEX_DTYPE`.
INDEX_LIMIT = int(np.iinfo(INDEX_DTYPE).max) + 1


def check_index_range(
    bank_rows: int, n_keys: int = 0, what: str = "layout"
) -> None:
    """:class:`ValidationError` unless ``bank_rows`` bank rows (pad,
    ghost and stale-snapshot rows included) and keys below ``n_keys``
    (``n_cells * stride``) all fit :data:`INDEX_DTYPE`.  Called when a
    layout or batch stream is built, before anything is written."""
    if max(int(bank_rows), int(n_keys)) > INDEX_LIMIT:
        raise ValidationError(
            f"{what}: {int(bank_rows)} bank rows / {int(n_keys)} keys do not "
            f"fit {np.dtype(INDEX_DTYPE).name} indices (limit {INDEX_LIMIT})"
        )


def check_mergeable(lay: "RowBands") -> None:
    """:class:`ValidationError` unless a search wrote ``lay`` before, so
    an update has the binning it lists to merge from."""
    if lay.binning is None:
        raise ValidationError("band_rows: an update needs a searched layout")


def key_stride(cap: int) -> int:
    """Presence-key stride of a binning whose fullest cell holds
    ``cap``: room for a few more particles per cell before an update
    has to fall back to a full build."""
    return cap + (cap >> 3) + 1


class RowBands:
    """Band lists of a :class:`CellState`, keyed by bank row.

    Region ``r = k * n_cells + c`` holds the plan row of home cell ``c``
    at offset ``k``: its hits in ascending (home slot, neighbour slot)
    order, which is ascending (home bank row, neighbour bank row) as a
    binning sorts each bucket stably, at ``[rstart[r], rstart[r] +
    fill[r])``, then pads up to ``rstart[r + 1]``.  Regions follow each
    other in ``r`` order, so the entries of offset ``k`` span
    ``[rstart[k * n_cells], rstart[(k + 1) * n_cells])`` in a fresh
    build's flat ``(cell, slot_i, slot_j)`` order, pads aside.  A region
    of ``fill`` hits gets ``fill + (fill >> shift) + slack_min``
    entries; a compact layout (``slack=False``) has no slack, so
    ``rcap == fill`` and there are no pads.  Regions a build did not
    search (the cells outside a node view's home) are empty.

    Attributes
    ----------
    a / b:
        int32 home / neighbour bank row (``clist.order[slot]``) per
        entry; a pad holds ``(pad, 0)``, and the consumer gives bank row
        ``pad`` a vector no admission passes.
    key:
        int32 presence key ``c * stride + j`` per hit, ``j`` the
        neighbour slot within its bucket (0 on pads).
    size:
        Layout length; the buffers may be longer (they only grow).
    rstart:
        int64 ``n_regions + 1`` region starts; ``rstart[-1] == size``.
    rcap / fill:
        int64 per-region capacity and hit count.
    version:
        Count of the searches that wrote the layout (fresh or in place).
    binning:
        The :class:`~repro.md.cells.CellList` the layout lists (``None``
        before the first search): an update merges the rows that changed
        cell since it.
    work:
        Grow-only scratch of the compiled search, by name.

    An entry is 12 bytes (:data:`INDEX_DTYPE`), so bank rows and keys
    must stay below 2**31 (:func:`check_index_range`).
    """

    __slots__ = (
        "a", "b", "key", "size", "stride", "pad", "shift", "slack_min",
        "rstart", "rcap", "fill", "version", "binning", "work",
    )

    def __init__(self, n_regions: int = 0, slack: bool = True):
        self.a = self.b = self.key = np.empty(0, dtype=INDEX_DTYPE)
        self.size = 0
        #: Bumped by every search that writes the layout, so what a
        #: consumer derives from its contents can be kept per version.
        self.version = 0
        self.stride = 1
        self.pad = 0
        self.shift = ROW_SLACK_SHIFT if slack else COMPACT_SHIFT
        self.slack_min = ROW_SLACK_MIN if slack else 0
        self.rstart = np.zeros(n_regions + 1, dtype=np.int64)
        self.rcap = np.zeros(n_regions, dtype=np.int64)
        self.fill = np.zeros(n_regions, dtype=np.int64)
        self.binning: Optional[CellList] = None
        self.work: Dict[str, np.ndarray] = {}

    def reserve(self, n: int) -> None:
        """Grow the three entry buffers to at least ``n`` entries.  The
        pages a build writes stay mapped for the next build."""
        if len(self.a) < n:
            self.a, self.b, self.key = np.empty((3, n), dtype=INDEX_DTYPE)

    def fit(self, size: int) -> None:
        """Make room for a fresh layout of ``size`` entries, with 1/16
        headroom so the next builds, which list about as many, fit as
        well (the band searches call this when a layout outgrows the
        buffers)."""
        if len(self.a) < size:
            self.reserve(size + (size >> 4))


#: Mask elements one pass of :func:`band_rows_numpy` evaluates at most
#: (bounds its float32 scratch to 2 MB a buffer, about a cache's worth).
_SEARCH_CHUNK = 1 << 19


def band_rows_numpy(
    plan: CellPairPlan,
    clist: CellList,
    packed: np.ndarray,
    offsets: np.ndarray,
    band: float,
    rows: np.ndarray,
    lay: RowBands,
    fresh: bool,
) -> int:
    """Search regions of a :class:`RowBands` layout in numpy, afresh or
    by merging the rows that changed cell.

    ``packed`` holds one vector per bank row; ``rows`` lists regions
    ``k * n_cells + c`` ascending.  A pair is a hit when its float32
    direct-difference ``r2 = (dx*dx + dy*dy) + dz*dz`` is below ``band``
    (``i < j`` on the home row).

    ``fresh=True`` searches every listed region whole, one padded
    ``(regions, w, w)`` mask per chunk of listed regions of one
    occupancy bucket ``w``, whose ``flatnonzero`` hits are already in
    each region's layout order.  It lays every listed region out anew
    with ``fill + (fill >> lay.shift) + lay.slack_min`` entries
    (unlisted regions get none), growing the buffers with
    :meth:`RowBands.fit` when the layout outgrows them, and returns the
    layout length.

    ``fresh=False`` updates the layout in place from the binning it
    lists (:attr:`RowBands.binning`) to ``clist`` (:func:`_merge_rows`):
    the listed regions must include every region whose home or
    neighbour cell gained or lost a row (:func:`dirty_regions`).  It
    returns 0, or 1 when a region found no room (the layout is then
    unspecified).

    This is the numpy statement and the oracle of the compiled
    ``band_rows`` kernel: both fill the layout bitwise identically, and
    both bump its :attr:`RowBands.version` and set its
    :attr:`RowBands.binning` to ``clist``.
    """
    lay.version += 1
    rows = np.asarray(rows, dtype=np.int64)
    if not fresh:
        check_mergeable(lay)
        return _merge_rows(plan, clist, packed, offsets, band, rows, lay)
    per, hits = _search_regions(plan, clist, packed, offsets, band, rows, lay)
    lay.fill[:] = 0
    lay.fill[rows] = per
    lay.rcap[:] = 0
    lay.rcap[rows] = per + (per >> lay.shift) + lay.slack_min
    lay.rstart[0] = 0
    np.cumsum(lay.rcap, out=lay.rstart[1:])
    lay.fit(int(lay.rstart[-1]))
    for idx, a, b, key in hits:
        first = lay.rstart[rows[idx]]
        cnt = per[idx]
        if first[-1] + cnt[-1] - first[0] == len(a):
            # The regions lie back to back (a compact layout): one block.
            dst = slice(first[0], first[0] + len(a))
        else:
            dst = np.repeat(first - (np.cumsum(cnt) - cnt), cnt)
            dst += np.arange(len(a))
        lay.a[dst] = a
        lay.b[dst] = b
        lay.key[dst] = key
    _pad_regions(lay, rows, per)
    lay.binning = clist
    return int(lay.rstart[-1])


def _search_regions(plan, clist, packed, offsets, band, rows, lay):
    """The whole-region search of :func:`band_rows_numpy`: per listed
    region its hit count, and per chunk ``(idx, a, b, key)``, the hits
    of the listed regions ``idx`` in layout order."""
    C = plan.n_cells
    order, start, counts = clist.order, clist.start, clist.counts
    cap = max(int(counts.max(initial=0)), 1)
    within = np.arange(len(order), dtype=np.int64) - start[clist.sorted_cids]
    # Planar float32 vectors per (cell, slot); an empty slot holds NaN,
    # so every r2 it enters is NaN and fails the band test.  The
    # assignment casts per element like astype.
    P = np.full((3, C, cap), np.nan, dtype=np.float32)
    P[:, clist.sorted_cids, within] = packed[order].T
    bank = np.zeros((C, cap), dtype=lay.a.dtype)
    bank[clist.sorted_cids, within] = order
    offs32 = np.asarray(offsets, dtype=np.float32)
    band32 = np.float32(band)
    iu = np.arange(cap)
    tri = iu[:, None] < iu[None, :]
    k_of, c_of = np.divmod(rows, C)
    nb_of = plan.nbr[c_of * ROWS_PER_CELL + k_of]
    n_home = int(np.searchsorted(k_of, 1))  # the offset-0 rows lead
    # Each region is searched padded to its own occupancy bucket, the
    # power of two (at most ``cap``) covering both of its cells, so one
    # crowded cell pads only the regions it takes part in.  Slots past
    # a cell's count are NaN, and a region's hits come out in the same
    # (home slot, neighbour slot) order at any padding.
    occ = np.maximum(np.maximum(counts[c_of], counts[nb_of]), 1)
    pad = np.minimum(1 << np.ceil(np.log2(occ)).astype(np.int64), cap)
    groups = []
    for w in np.unique(pad).tolist():
        idx = np.flatnonzero(pad == w)
        step = max(1, _SEARCH_CHUNK // (w * w))
        groups += [(w, idx[lo:lo + step]) for lo in range(0, len(idx), step)]
    most = max((len(idx) * w * w for w, idx in groups), default=0)
    r2_buf = np.empty(most, dtype=np.float32)
    d_buf = np.empty(most, dtype=np.float32)
    mask_buf = np.empty(most, dtype=bool)
    per = np.zeros(len(rows), dtype=np.int64)
    hits = []
    for w, idx in groups:
        shape = (len(idx), w, w)
        size = len(idx) * w * w
        cs, ns, ks = c_of[idx], nb_of[idx], k_of[idx]
        X = P[:, cs, :w, None]
        Q = P[:, ns, :w] + offs32[ks].T[:, :, None]
        Q = Q[:, :, None, :]
        # r2 = (dx*dx + dy*dy) + dz*dz, rounded per operation.
        r2 = r2_buf[:size].reshape(shape)
        d = d_buf[:size].reshape(shape)
        np.subtract(X[0], Q[0], out=r2)
        np.multiply(r2, r2, out=r2)
        for x in (1, 2):
            np.subtract(X[x], Q[x], out=d)
            np.multiply(d, d, out=d)
            r2 += d
        mask = np.less(r2, band32, out=mask_buf[:size].reshape(shape))
        # The offset-0 (home) regions lead ``rows``, so they lead ``idx``.
        mask[: int(np.searchsorted(idx, n_home))] &= tri[:w, :w]
        # Flat hit f: region idx[f // w^2], home slot (f // w) % w,
        # neighbour slot f % w.
        f = np.flatnonzero(mask)
        per[idx] = np.bincount(f // (w * w), minlength=len(idx))
        h = f // w
        s = h // w
        j = f - h * w
        a = bank[cs, :w].reshape(-1)[h]
        b = bank[ns, :w].reshape(-1)[s * w + j]
        hits.append((idx, a, b, cs[s] * lay.stride + j))
    return per, hits


def _ranges(n: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(group, index)`` of ``index in range(n[group])`` over every
    group, in that order."""
    total = int(n.sum())
    group = np.repeat(np.arange(len(n)), n)
    return group, np.arange(total) - np.repeat(np.cumsum(n) - n, n)


def _row_cells(clist: CellList, n_cells: int, n: int):
    """Cell (``n_cells``: none) and bucket slot of each of ``n`` bank
    rows under ``clist``."""
    cell = np.full(n, n_cells, dtype=np.int64)
    slot = np.zeros(n, dtype=np.int64)
    cell[clist.order] = clist.sorted_cids
    slot[clist.order] = (
        np.arange(len(clist.order), dtype=np.int64) - clist.start[clist.sorted_cids]
    )
    return cell, slot


def _merge_rows(plan, clist, packed, offsets, band, rows, lay) -> int:
    """The in-place update of :func:`band_rows_numpy`.

    A row *moved* when its cell under ``clist`` is not its cell under
    :attr:`RowBands.binning` (entering or leaving a node view
    included).  Each listed region ``(k, c)`` then drops the entries of
    moved rows, re-keys the kept ones by their neighbour's slot in
    ``clist`` (bank rows stay as they are), searches each pair of the
    region's cells with a moved row in it — a moved home row against
    every neighbour slot, any other home row against the moved
    neighbour slots — and merges those hits in (home slot, neighbour
    slot) order: the order of a fresh search of ``clist``, whose hits
    on pairs of kept rows are the kept entries when ``packed`` keeps
    their vectors.  Region growth is :func:`_grow_regions`'s."""
    C = plan.n_cells
    cell, slot = _row_cells(clist, C, lay.pad)
    moved = cell != _row_cells(lay.binning, C, lay.pad)[0]
    k_of, c_of = np.divmod(rows, C)
    nb_of = plan.nbr[c_of * ROWS_PER_CELL + k_of]
    # The kept entries of the listed regions, in layout order.
    reg, t = _ranges(lay.fill[rows])
    e = lay.rstart[rows][reg] + t
    a, b = lay.a[e], lay.b[e]
    keep = ~(moved[a] | moved[b])
    kept = (reg[keep], a[keep], b[keep])
    # The moved rows by cell, in bucket order.
    is_moved = moved[clist.order]
    mrows = clist.order[is_moved]
    mcount = np.bincount(clist.sorted_cids[is_moved], minlength=C)
    mstart = np.cumsum(mcount) - mcount
    order, start, counts = clist.order, clist.start, clist.counts
    # Moved home rows against every neighbour slot ...
    g, t = _ranges(mcount[c_of])
    home = mrows[mstart[c_of[g]] + t]
    g2, j = _ranges(counts[nb_of[g]])
    r1, a1 = g[g2], home[g2]
    b1 = order[start[nb_of[r1]] + j]
    ok1 = (k_of[r1] > 0) | (j > slot[a1])
    # ... and kept home rows against the moved neighbour slots.
    g, t = _ranges(mcount[nb_of])
    nbr = mrows[mstart[nb_of[g]] + t]
    g2, s = _ranges(counts[c_of[g]])
    r2, b2 = g[g2], nbr[g2]
    a2 = order[start[c_of[r2]] + s]
    ok2 = ~moved[a2] & ((k_of[r2] > 0) | (s < slot[b2]))
    rn = np.concatenate([r1[ok1], r2[ok2]])
    an = np.concatenate([a1[ok1], a2[ok2]])
    bn = np.concatenate([b1[ok1], b2[ok2]])
    # The band test of a fresh search, rounded per operation alike.
    ps = np.asarray(packed, dtype=np.float32)
    q = ps[bn] + np.asarray(offsets, dtype=np.float32)[k_of[rn]]
    d = ps[an] - q
    d *= d
    hit = (d[:, 0] + d[:, 1]) + d[:, 2] < np.float32(band)
    reg = np.concatenate([kept[0], rn[hit]])
    a = np.concatenate([kept[1], an[hit]])
    b = np.concatenate([kept[2], bn[hit]])
    merged = np.lexsort((slot[b], slot[a], reg))
    reg, a, b = reg[merged], a[merged], b[merged]
    per = np.bincount(reg, minlength=len(rows))
    if not _grow_regions(lay, rows, per):
        return 1
    dst = np.repeat(lay.rstart[rows] - (np.cumsum(per) - per), per)
    dst += np.arange(len(reg))
    lay.a[dst] = a
    lay.b[dst] = b
    lay.key[dst] = c_of[reg] * lay.stride + slot[b]
    _pad_regions(lay, rows, per)
    lay.binning = clist
    return 0


def _pad_regions(lay: RowBands, regions: np.ndarray, fill: np.ndarray) -> None:
    """Pad each of ``regions`` from its ``fill`` hits to its capacity."""
    spare = lay.rcap[regions] - fill
    first = np.cumsum(spare) - spare
    pads = np.repeat(lay.rstart[regions] + fill - first, spare)
    pads += np.arange(int(spare.sum()))
    lay.a[pads] = lay.pad
    lay.b[pads] = 0
    lay.key[pads] = 0


def _grow_regions(lay: RowBands, rows: np.ndarray, per: np.ndarray) -> bool:
    """The layout side of an in-place update of ``rows`` to ``per``
    hits each, as the compiled kernel's ``grow_region`` makes it: in
    ascending order, a region that outgrows its entries is lengthened
    to its hits plus ``slack_min``, the regions after it shifting right
    up to the first that can give those entries up (or to the layout
    end).  Regions that moved without being listed carry their hits
    along and get their pads again.  False when a region finds no
    room."""
    n_reg = len(lay.rcap)
    rstart0 = lay.rstart.copy()
    rstart, rcap, fill = lay.rstart, lay.rcap, lay.fill
    for r, m in zip(rows.tolist(), per.tolist()):
        if m > rcap[r]:
            need = m + lay.slack_min - int(rcap[r])
            free = rcap[r + 1:] - fill[r + 1:]
            t = r + 1 + int(np.argmax(free >= need)) if (free >= need).any() else n_reg
            if t == n_reg:
                if rstart[n_reg] + need > len(lay.a):
                    return False
                rstart[n_reg] += need
            else:
                rcap[t] -= need
            rstart[r + 1:min(t, n_reg - 1) + 1] += need
            rcap[r] += need
        fill[r] = m
    listed = np.zeros(n_reg, dtype=bool)
    listed[rows] = True
    moved = np.flatnonzero((rstart[:-1] != rstart0[:-1]) & ~listed)
    for r in moved[::-1].tolist():
        lo, hi, f = int(rstart0[r]), int(rstart[r]), int(fill[r])
        for x in (lay.a, lay.b, lay.key):
            x[hi:hi + f] = x[lo:lo + f]
    _pad_regions(lay, moved, fill[moved])
    return True


class BinningChange(NamedTuple):
    """What changed from binning ``prev`` to the one it is handed with:
    the new binning's :func:`binning_keys` and the rows whose key
    changed, ascending.  A consumer that bins all of its views in one
    pass hands these over, so a state whose stored binning is ``prev``
    neither recomputes the keys nor compares them row by row."""

    prev: CellList
    keys: np.ndarray
    moved: np.ndarray


class CellState:
    """Persistent binning + skin-banded candidate lists for one grid.

    Parameters
    ----------
    grid / plan:
        The cell grid and its (cached) half-shell pair plan.
    skin:
        Skin margin in angstrom.  Candidates are listed out to
        ``cutoff + skin``; the state stays valid until some particle
        moves more than ``skin / 2`` (or changes cell).
    pack_fn:
        ``(positions, coords=None) -> (packed, offsets, band)``: the
        per-particle vectors the consumer's fresh padded path compares
        (quantized cell fractions for the machine, box-local coordinates
        for the float64 reference) relative to the cells at ``coords``
        (``None``: the cells the positions lie in), the per-offset
        displacement in the same units, and ``band``, the squared
        listing distance ``(cutoff + skin)^2`` *in packed units* plus
        the conservative float32 margin.
    updatable:
        Give the :class:`RowBands` regions slack, so the state updates
        in place when particles only changed cell (:meth:`ensure`); its
        packed units must be in-cell fractions, as the machine pack's.
        Otherwise the layout is compact and every membership change
        rebuilds.
    home:
        Ascending cells whose plan rows are searched (``None``: every
        cell), as a distributed node searches only its own.

    Bank row ``r`` is row ``r`` of the positions :meth:`ensure` is
    given; bank row ``len(positions)`` is the pads'.  By default every
    row is binned where it lies.  A node view passes its own binning
    instead: a :class:`~repro.md.cells.CellList` whose ``order`` lists
    the rows the view holds in its bucket order, every other row being
    in no cell.  Its rows are global particle ids, plus rows past them
    for the repeats of a stale halo snapshot, which :attr:`ids` then
    maps to particle ids.

    Every build lists the band of every searched region, whatever the
    occupancy, so :attr:`pairs` is set from the first build on.

    Counters: :attr:`builds` counts full builds, :attr:`updates`
    in-place updates and :attr:`reuse_steps` passes that changed
    nothing; :attr:`last_rebuilt` is True after a full build only.
    """

    def __init__(
        self,
        grid: CellGrid,
        plan: CellPairPlan,
        skin: float,
        pack_fn: Callable[..., Tuple[np.ndarray, np.ndarray, float]],
        updatable: bool = False,
        home: Optional[np.ndarray] = None,
    ):
        if skin <= 0:
            raise ValidationError("CellState skin must be > 0")
        self.grid = grid
        self.plan = plan
        self.skin = float(skin)
        self._pack_fn = pack_fn
        self.updatable = bool(updatable)
        self.home = None if home is None else np.asarray(home, dtype=np.int64)
        self.version = 0
        self.builds = 0
        self.updates = 0
        self.reuse_steps = 0
        self.last_rebuilt = False
        self.clist: Optional[CellList] = None
        self.coords: Optional[np.ndarray] = None
        #: Per row: its cell id, or on a given binning its
        #: :func:`binning_keys` entry.
        self.cids: Optional[np.ndarray] = None
        self.cap = 0
        self.pairs: Optional[RowBands] = None
        self.build_positions: Optional[np.ndarray] = None
        #: Row -> particle id, set by a consumer whose rows are not
        #: particle ids (``None``: they are).
        self.ids: Optional[np.ndarray] = None
        #: The layout, kept across full builds so they write into
        #: already-mapped buffers; the offsets and band of the last build
        #: serve the in-place updates.
        self._rb: Optional[RowBands] = None
        self._offsets: Optional[np.ndarray] = None
        self._band = 0.0
        #: The coords, cids, binning and moved rows (``None``: not
        #: known) :meth:`_outcome` found changed.
        self._next: Optional[tuple] = None
        #: Consumer-attached per-build artifacts; cleared on rebuild.
        self.artifacts: Dict[str, object] = {}

    # -- checkpoint metadata ---------------------------------------------------

    def meta(self) -> Dict[str, float]:
        """Reuse metadata for checkpoints — counters, not arrays.

        The band lists themselves are never persisted: a restored
        consumer rebuilds them from positions on its first force pass
        (bitwise-equal to any fresh build), so only the cumulative
        counters need to survive a restart.
        """
        return {
            "skin": self.skin,
            "builds": self.builds,
            "updates": self.updates,
            "reuse_steps": self.reuse_steps,
            "version": self.version,
        }

    def restore_meta(self, meta: Dict[str, float]) -> None:
        """Continue the cumulative counters of a checkpointed state.

        Restoration costs one rebuild (``build_positions`` starts empty),
        so a restored run's ``builds`` may exceed an uninterrupted run's
        by the number of restarts — the documented, honest cost of a
        restart.  Metadata written before in-place updates existed has
        no ``updates`` and restores it as 0.
        """
        self.builds = int(meta["builds"])
        self.updates = int(meta.get("updates", 0))
        self.reuse_steps = int(meta["reuse_steps"])
        self.version = int(meta["version"])

    # -- rebuild criterion -----------------------------------------------------

    def invalidate(self) -> None:
        """Make the next pass a full build."""
        self.build_positions = None

    def _outcome(
        self,
        positions: np.ndarray,
        binning: Optional[CellList],
        change: Optional[BinningChange] = None,
    ) -> str:
        """What a pass at ``positions`` needs, from two cheap O(N) tests:

        * the shared skin/2 displacement criterion (:func:`skin_exceeded`)
          over every row — coverage: an unlisted pair could now be
          inside the cutoff, so ``"build"`` (as is a first pass, or one
          with another number of rows);
        * any change of the binning — identity: the padded packing,
          bucket order and accumulation grouping of a fresh build would
          differ from the stored ones, so reuse would stop being
          bit-identical even though it would still be *covering*:
          ``"update"`` (what changed is kept for :meth:`_update`, which
          only an updatable state can take).  A given ``binning`` that
          is the stored one changed nothing, by identity; one handed
          with a ``change`` from the stored one changed the rows it
          names.

        Otherwise ``"reuse"``.
        """
        bp = self.build_positions
        if bp is None or len(bp) != len(positions):
            return "build"
        if _skin_exceeded(positions, bp, self.grid, self.skin):
            return "build"
        moved = None
        if binning is not None:
            if binning is self.clist:
                return "reuse"
            if change is None:
                cids = binning_keys(binning, len(positions))
            else:
                cids = change.keys
                if change.prev is self.clist:
                    moved = change.moved
            coords = None
        else:
            coords = self.grid.coords_of_positions(positions)
            cids = self.grid.cell_id(coords)
        if moved is not None:
            changed = len(moved) > 0
        else:
            changed = not np.array_equal(cids, self.cids)
        if changed:
            self._next = (coords, cids, binning, moved)
            return "update"
        if binning is not None:
            self.clist = binning
        else:
            # Cache the (identical) coords so the consumer's
            # quantization pass does not recompute them.
            self.coords = coords
        return "reuse"

    def ensure(
        self,
        positions: np.ndarray,
        backend=None,
        binning: Optional[CellList] = None,
        coords: Optional[np.ndarray] = None,
        change: Optional[BinningChange] = None,
    ) -> bool:
        """Rebuild, update or reuse; returns True when a full build ran.

        ``backend`` is the consumer's :class:`~repro.md.backends.ForceBackend`
        (``None``: the numpy searches), whose band search the state
        calls.  ``binning`` is a node view's own binning of the rows,
        given with ``coords``, the cell coordinates of every row it holds
        (see the class docstring), and optionally with ``change``, what
        changed since the binning it replaced (:class:`BinningChange`).
        An updatable state whose rows only changed
        cell takes :meth:`_update` instead of a full build, falling back
        to one when the update cannot hold the new binning.  Read-only
        ``positions`` are kept as the build positions by reference.
        """
        outcome = self._outcome(positions, binning, change)
        if outcome == "update" and not (
            self.updatable and self._update(positions, backend, coords)
        ):
            outcome = "build"
        if outcome == "build":
            self.build(positions, backend, binning, coords)
        return self._settle(outcome)

    def _settle(self, outcome: str) -> bool:
        if outcome == "reuse":
            self.reuse_steps += 1
        elif outcome == "update":
            self.updates += 1
        self.last_rebuilt = outcome == "build"
        return self.last_rebuilt

    def build(
        self,
        positions: np.ndarray,
        backend=None,
        binning: Optional[CellList] = None,
        coords: Optional[np.ndarray] = None,
    ) -> None:
        """(Re)build binning and band lists from the current positions.

        ``backend``, ``binning`` and ``coords`` are as in
        :meth:`ensure`: the backend's ``band_rows`` (or
        :func:`band_rows_numpy`) searches the band, and either fills the
        layout bitwise identically (see DESIGN.md §10).  Every build
        lists the band, whatever the occupancy: :attr:`pairs` is never
        None afterwards.
        """
        if binning is None:
            coords = self.grid.coords_of_positions(positions)
            cids = self.grid.cell_id(coords)
            clist = CellList.from_cids(self.grid, cids)
        else:
            clist = binning
            cids = binning_keys(binning, len(positions))
        cap = int(clist.counts.max()) if clist.counts.size else 0
        packed, offsets, band = self._pack_fn(positions, coords)
        self.pairs = self._search(clist, packed, offsets, band, cap, backend)
        self.clist = clist
        self.cap = cap
        self.version += 1
        self.builds += 1
        self.artifacts.clear()
        self.coords = coords
        self.cids = cids
        self.build_positions = (
            positions.copy() if positions.flags.writeable else positions
        )

    def _update(self, positions: np.ndarray, backend, coords=None) -> bool:
        """Merge the rows that changed cell into the band layout, in
        place; False (state unspecified, a full build must follow) when
        the new binning outgrows the layout.

        Only the searched regions whose home or neighbour cell gained or
        lost a row change (:func:`dirty_regions`): the row search drops
        their entries of rows that left, re-keys the kept ones and
        merges in the hits of the pairs a moved row takes part in.
        Moved rows are searched at their *build* positions under the
        *current* binning, as every kept pair was, so the single
        skin/2-since-build trigger keeps covering every listed pair.  A
        row's build position is placed beside its current cell as its
        current position minus its minimum-image displacement since the
        build, so one that crossed a periodic face is searched next to
        its new neighbours (and may sit just outside ``[0, 1)`` of its
        cell).
        """
        found_coords, cids, binning, moved = self._next
        rb = self.pairs
        n = len(positions)
        if binning is None:
            clist, scale = CellList.from_cids(self.grid, cids), 1
            coords = found_coords
        else:
            clist, scale = binning, n
        if int(clist.counts.max()) > rb.stride:
            return False
        regions = dirty_regions(self.plan, self.cids, cids, scale, moved, self.home)
        packed = _build_fractions(self.grid, positions, self.build_positions, coords)
        kern = _row_search(backend)
        if kern(self.plan, clist, packed, self._offsets, self._band, regions, rb, False):
            return False
        rb.size = int(rb.rstart[-1])
        self.clist = clist
        self.coords = coords
        self.cids = cids
        self.cap = int(clist.counts.max())
        return True

    def _search(self, clist, packed, offsets, band, cap, backend) -> RowBands:
        """Lay the regions of the home cells out anew in the state's
        grow-only buffers, bank row ``len(packed)`` padding them.  The
        machine's whole-box state sizes them up front by the candidate
        count (a hit bound) plus slack, room for its updates to grow
        regions into; the others let the search fit them to their hits.
        A node view's updates then grow regions into their neighbours'
        slack, falling back to a full build when none is left: sizing
        every node's buffers by its candidates tripled them (peak RSS
        of ``distributed-chaos`` +3.5 MB)."""
        plan = self.plan
        home = self.home
        rb = self._rb
        if rb is None:
            rb = self._rb = RowBands(plan.n_rows, slack=self.updatable)
        rb.stride = key_stride(cap)
        rb.pad = len(packed)
        check_index_range(rb.pad + 1, plan.n_cells * rb.stride)
        if home is None:
            rows = np.arange(plan.n_rows, dtype=np.int64)
        else:
            rows = (
                np.arange(ROWS_PER_CELL)[:, None] * plan.n_cells + home
            ).reshape(-1)
        if self.updatable and home is None:
            cand = int(candidates_per_cell(plan, clist.counts).sum())
            rb.reserve(cand + (cand >> rb.shift) + len(rows) * rb.slack_min)
        self._offsets, self._band = offsets, band
        kern = _row_search(backend)
        rb.size = kern(plan, clist, packed, offsets, band, rows, rb, True)
        return rb


def binning_keys(binning: CellList, n: int) -> np.ndarray:
    """``cell * n + rank`` of each of ``n`` rows under a given binning,
    ``rank`` its place in its cell's bucket; ``n_cells * n`` for a row
    the binning does not hold.  Two binnings with equal keys hold the
    same rows in the same bucket order."""
    keys = np.full(n, binning.grid.n_cells * n, dtype=np.int64)
    rank = np.arange(len(binning.order), dtype=np.int64)
    rank -= binning.start[binning.sorted_cids]
    keys[binning.order] = binning.sorted_cids * n + rank
    return keys


def dirty_regions(
    plan: CellPairPlan,
    before: np.ndarray,
    after: np.ndarray,
    scale: int = 1,
    moved: Optional[np.ndarray] = None,
    home: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Ascending regions ``k * n_cells + c`` of the plan rows whose home
    or neighbour cell changed membership between two per-row cell
    assignments: the cells every changed row left or entered.  An entry
    is ``cell * scale + rank`` (:func:`binning_keys` with ``scale = n``),
    cell ``n_cells`` being no cell.  ``moved``, when known, lists the
    rows whose entry changed; ``home`` (ascending) keeps the regions of
    those home cells only."""
    C = plan.n_cells
    if moved is None:
        moved = np.flatnonzero(before != after)
    dirty = np.zeros(C + 1, dtype=bool)
    dirty[before[moved] // scale] = True
    dirty[after[moved] // scale] = True
    nbr = plan.nbr.reshape(C, ROWS_PER_CELL)
    if home is None:
        return np.flatnonzero((dirty[:C, None] | dirty[nbr]).T)
    k, i = np.nonzero((dirty[home, None] | dirty[nbr[home]]).T)
    return k * C + home[i]


def build_fractions(
    grid: CellGrid,
    positions: np.ndarray,
    build_positions: np.ndarray,
    coords: np.ndarray,
) -> np.ndarray:
    """Build positions as fractions of the cells at ``coords`` (the
    current binning): each particle's current position minus its
    minimum-image displacement since the build, so one that crossed a
    periodic face sits beside its new cell (possibly just outside
    ``[0, 1)``; nothing is clamped)."""
    d = min_image(positions - build_positions, grid.box)
    edge = grid.cell_edge
    return (positions - d - coords * edge) / edge


_skin_exceeded = _FrozenCache(
    lambda positions, build_positions, grid, skin: skin_exceeded(
        positions, build_positions, grid.box, skin
    )
)
#: In float32, the cast every band search applies: node states that
#: share one build snapshot make and cast the fractions once per pass.
_build_fractions = _FrozenCache(
    lambda *args: build_fractions(*args).astype(np.float32)
)


def _row_search(backend) -> Callable:
    """The backend's compiled row search, else :func:`band_rows_numpy`."""
    kern = None if backend is None else backend.band_rows
    return band_rows_numpy if kern is None else kern


def engine_skin(cell_edge: float) -> float:
    """Default skin (angstrom) of the engine-layer states: 0.15 cell
    edges, the edge being the cutoff.  Shared by
    :class:`~repro.md.engine.ReferenceEngine`,
    :class:`~repro.md.batch.BatchedEngine` segments and the throwaway
    state of a stateless
    :func:`~repro.md.reference.compute_forces_cells` call."""
    return 0.15 * float(cell_edge)


def engine_pack_fn(
    grid: CellGrid, plan: CellPairPlan, skin: float
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, float]]:
    """``pack_fn`` for the float64 reference path (box-local coordinates).

    Packed vectors are positions relative to their cell's corner
    (angstrom), offsets are the half-shell offsets scaled by the cell
    edges, and the band is ``(cutoff + skin)^2`` with a conservative
    1e-3 float32 margin, far above the float32 error of cell-local
    coordinates.  Positions must be in the box
    (:func:`~repro.md.reference.compute_forces_cells` refuses others).
    """
    off_len = (
        np.concatenate(
            [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
        )
        * plan.edges
    )
    listing = float(grid.cell_edge) + float(skin)
    band = listing * listing * (1.0 + 1e-3)

    def pack(positions: np.ndarray, coords: Optional[np.ndarray] = None):
        if coords is None:
            coords = grid.coords_of_positions(positions)
        cids = np.arange(plan.n_cells, dtype=np.int64)
        corner = plan.edges * plan.cell_coords_of(cids)
        local = positions - corner[grid.cell_id(coords)]
        return local, off_len, band

    return pack


def machine_pack_fn(
    fmt, cutoff: float, skin: float, grid: CellGrid
) -> Callable[..., Tuple[np.ndarray, np.ndarray, float]]:
    """``pack_fn`` for the fixed-point machine path (cell fractions).

    Mirrors the machine's fresh padded-broadcast pass (the oracle in
    ``tests/oracles.py``): packed vectors are quantized
    in-cell fractions (normalized units, cutoff = 1), offsets are the
    integer half-shell offsets, and the band is ``(1 + skin')^2`` with
    the fresh path's 1e-3 float32 margin, ``skin' = skin / cutoff``.
    """
    from repro.core.datapath import quantize_cell_fractions

    offs = np.concatenate(
        [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
    )
    skin_n = float(skin) / float(cutoff)
    band = (1.0 + skin_n) ** 2 * (1.0 + 1e-3)

    def pack(positions: np.ndarray, coords: Optional[np.ndarray] = None):
        if coords is None:
            coords = grid.coords_of_positions(positions)
        frac = quantize_cell_fractions(positions, coords, cutoff, fmt)
        return frac, offs, band

    return pack
