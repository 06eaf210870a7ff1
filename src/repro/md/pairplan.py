"""Step-wide batched pair plans over the half-shell cell topology.

The cell-pair *topology* of a periodic grid — which cell pairs with
which, under what periodic image shift — is pure geometry: it never
changes while the grid exists.  Yet the original hot paths re-derived it
per cell, per half-shell offset, on every timestep, with Python-level
``cell_coords`` / ``neighbor_with_shift`` / ``cell_id`` calls.  This
module computes it **once** and turns the per-step work into a handful
of vectorized passes:

* :class:`CellPairPlan` — flat numpy arrays holding every
  (home cell, neighbor cell, image shift) triple for the 13 half-shell
  offsets plus the home-home self pair; built vectorized, cached per
  grid geometry by :func:`plan_for_grid` / :func:`plan_for_dims`.
* :func:`iter_pair_chunks` — the step-wide candidate enumerator: given
  the :class:`~repro.md.cells.CellList` bucket arrays
  (``order``/``start``/``counts``) it emits all candidate particle-pair
  indices for the whole step as a few large :class:`PairChunk` batches
  (chunked to bound memory), replacing the per-cell Python loop.
* :func:`candidates_per_cell` — the per-cell candidate counts of the
  half-shell traversal, recovered analytically from cell occupancies so
  workload statistics stay exact under the batched path.

Consumers (the float64 reference, the generic force-field driver, the
FASDA machine, the distributed machine, and the Verlet list builder) all
enumerate through the same plan, so there is exactly one statement of
the half-shell traversal in the codebase.

The plan supports anisotropic cell edges (``edges`` per axis) so the
Verlet neighbor-list builder can bucket an arbitrary box at
``cutoff + skin`` resolution with the same machinery.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.md.cells import CellGrid, HALF_SHELL_OFFSETS
from repro.util.errors import ValidationError

#: Rows per home cell in a plan: the home-home self pair (row 0) plus
#: the 13 half-shell neighbors (rows 1..13).
ROWS_PER_CELL = 14

#: Default candidate-batch size for :func:`iter_pair_chunks`: large
#: enough that Python overhead vanishes, small enough that the per-chunk
#: scratch arrays stay ~100 MB even in float64.
DEFAULT_CHUNK_PAIRS = 2_000_000


class CellPairPlan:
    """Cached half-shell cell-pair topology of a periodic cell grid.

    All arrays are flat over ``n_cells * ROWS_PER_CELL`` rows, laid out
    cell-major: row ``cid * 14 + j`` where ``j = 0`` is the home-home
    self pair and ``j = 1..13`` the half-shell neighbors in
    :data:`~repro.md.cells.HALF_SHELL_OFFSETS` order.

    Attributes
    ----------
    home:
        ``(n_rows,)`` home cell id of each row.
    nbr:
        ``(n_rows,)`` wrapped neighbor cell id (== home for self rows).
    offset:
        ``(n_rows, 3)`` float64 half-shell offset in *cell units* (zero
        for self rows) — the displacement the machine's quantized
        fractions need.
    shift:
        ``(n_rows, 3)`` float64 periodic image shift in *length units*
        (angstrom): add to positions stored in the wrapped neighbor cell
        to place them in the image adjacent to the home cell.
    is_self:
        ``(n_rows,)`` bool, True on home-home rows.
    has_shift:
        ``(n_rows,)`` bool, True where ``shift`` is nonzero (boundary
        rows) — lets consumers skip the shift subtraction for the
        interior majority.
    """

    def __init__(self, dims: Tuple[int, int, int], edges) -> None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3 or any(d < 3 for d in dims):
            raise ValidationError(
                f"pair plan needs 3 cell dims >= 3, got {dims}"
            )
        edges_arr = np.asarray(edges, dtype=np.float64).reshape(3)
        if np.any(edges_arr <= 0):
            raise ValidationError("cell edges must be positive")
        self.dims = dims
        self.edges = edges_arr
        dx, dy, dz = dims
        n_cells = dx * dy * dz
        self.n_cells = n_cells
        self.n_rows = n_cells * ROWS_PER_CELL

        cids = np.arange(n_cells, dtype=np.int64)
        coords = np.stack(
            [cids // (dy * dz), (cids // dz) % dy, cids % dz], axis=-1
        )
        offs = np.concatenate(
            [
                np.zeros((1, 3), dtype=np.int64),
                np.asarray(HALF_SHELL_OFFSETS, dtype=np.int64),
            ]
        )
        raw = coords[:, None, :] + offs[None, :, :]  # (C, 14, 3)
        wrapped = np.mod(raw, np.asarray(dims, dtype=np.int64))
        self.home = np.repeat(cids, ROWS_PER_CELL)
        self.nbr = (
            dy * dz * wrapped[..., 0] + dz * wrapped[..., 1] + wrapped[..., 2]
        ).reshape(-1)
        self.offset = np.tile(offs.astype(np.float64), (n_cells, 1))
        self.shift = ((raw - wrapped).astype(np.float64) * edges_arr).reshape(
            -1, 3
        )
        self.is_self = np.tile(
            np.arange(ROWS_PER_CELL) == 0, n_cells
        )
        self.has_shift = np.any(self.shift != 0.0, axis=1)
    @property
    def neighbor_ids(self) -> np.ndarray:
        """``(n_cells, 13)`` half-shell neighbor cell ids per home cell."""
        return self.nbr.reshape(self.n_cells, ROWS_PER_CELL)[:, 1:]

    def cell_id(self, coords: np.ndarray) -> np.ndarray:
        """Linear cell id from integer coordinates (Eq. 7 convention)."""
        coords = np.asarray(coords, dtype=np.int64)
        _, dy, dz = self.dims
        return dy * dz * coords[..., 0] + dz * coords[..., 1] + coords[..., 2]

    def cell_coords_of(self, cids: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`cell_id`: linear ids -> ``(..., 3)`` coords."""
        cids = np.asarray(cids, dtype=np.int64)
        _, dy, dz = self.dims
        x = cids // (dy * dz)
        rem = cids - x * dy * dz
        return np.stack([x, rem // dz, rem % dz], axis=-1)


#: Edge-key quantum for the plan cache: keys are edge lengths rounded to
#: the nearest multiple of 2^-40 angstrom (~1e-12, far below any
#: physically meaningful box perturbation but coarse enough that the
#: accumulated float noise of a perturbed-box sweep maps to one key).
_EDGE_KEY_QUANTUM = 2.0 ** 40


def _quantize_edge(e: float) -> float:
    return round(float(e) * _EDGE_KEY_QUANTUM) / _EDGE_KEY_QUANTUM


#: Default bound on cached plans.  Campaigns sweeping cell edges used
#: to grow the cache without limit; 32 covers every concurrent geometry
#: any in-repo sweep touches while a plan is ~1 MB at production dims.
PLAN_CACHE_DEFAULT_MAXSIZE = 32

#: Cache statistics — the ``lru_cache.cache_info()`` fields plus the
#: eviction count the bounded LRU adds.
PlanCacheInfo = namedtuple(
    "PlanCacheInfo", ["hits", "misses", "maxsize", "currsize", "evictions"]
)

_plan_cache: "OrderedDict[Tuple, CellPairPlan]" = OrderedDict()
_plan_cache_maxsize = PLAN_CACHE_DEFAULT_MAXSIZE
_plan_cache_hits = 0
_plan_cache_misses = 0
_plan_cache_evictions = 0


def _plan_cached(
    dims: Tuple[int, int, int], edges: Tuple[float, float, float]
) -> CellPairPlan:
    """Bounded-LRU plan lookup (move-to-end on hit, evict oldest)."""
    global _plan_cache_hits, _plan_cache_misses, _plan_cache_evictions
    key = (dims, edges)
    plan = _plan_cache.get(key)
    if plan is not None:
        _plan_cache.move_to_end(key)
        _plan_cache_hits += 1
        return plan
    _plan_cache_misses += 1
    plan = CellPairPlan(dims, edges)
    _plan_cache[key] = plan
    while len(_plan_cache) > _plan_cache_maxsize:
        _plan_cache.popitem(last=False)
        _plan_cache_evictions += 1
    return plan


def set_plan_cache_maxsize(maxsize: int) -> None:
    """Re-bound the shared plan cache, evicting oldest entries to fit."""
    global _plan_cache_maxsize, _plan_cache_evictions
    maxsize = int(maxsize)
    if maxsize < 1:
        raise ValidationError(
            f"plan cache maxsize must be >= 1, got {maxsize}"
        )
    _plan_cache_maxsize = maxsize
    while len(_plan_cache) > _plan_cache_maxsize:
        _plan_cache.popitem(last=False)
        _plan_cache_evictions += 1


def plan_cache_info() -> PlanCacheInfo:
    """Hit/miss/eviction statistics of the shared plan cache.

    A perturbed-box sweep that thrashes this cache shows up as one miss
    per design point *per step* instead of one per design point; the
    ``repro batch`` records these counters to catch that regression.
    A long-running edge sweep shows up in ``evictions`` instead of in
    unbounded memory growth.
    """
    return PlanCacheInfo(
        hits=_plan_cache_hits,
        misses=_plan_cache_misses,
        maxsize=_plan_cache_maxsize,
        currsize=len(_plan_cache),
        evictions=_plan_cache_evictions,
    )


def clear_plan_cache() -> None:
    """Drop every cached plan (and its hit/miss/eviction counters).

    Benchmarks use this to measure cold plan construction against the
    warm (cached) lookup; production code never needs it.  The
    configured bound is kept.
    """
    global _plan_cache_hits, _plan_cache_misses, _plan_cache_evictions
    _plan_cache.clear()
    _plan_cache_hits = 0
    _plan_cache_misses = 0
    _plan_cache_evictions = 0


def plan_for_grid(grid: CellGrid) -> CellPairPlan:
    """The (cached) pair plan of a :class:`~repro.md.cells.CellGrid`.

    The cache key is the grid geometry ``(dims, cell_edge)`` with the
    edge *quantized* to 2^-40 angstrom: raw float keys made sweeps over
    recomputed (bit-wobbling) box sizes miss on every call and churn the
    bounded LRU.  The plan is built from the quantized edges, so equal
    keys return a plan that is exact for every caller mapping to them.
    """
    e = _quantize_edge(grid.cell_edge)
    return _plan_cached(grid.dims, (e, e, e))


def plan_for_dims(
    dims: Tuple[int, int, int], edges: Tuple[float, float, float]
) -> CellPairPlan:
    """The (cached) pair plan for explicit dims and per-axis cell edges."""
    return _plan_cached(
        tuple(int(d) for d in dims), tuple(_quantize_edge(e) for e in edges)
    )


@dataclass
class PairChunk:
    """One batch of candidate pairs from :func:`iter_pair_chunks`.

    Attributes
    ----------
    row:
        ``(M,)`` plan-row index of each candidate — gathers
        ``plan.shift`` / ``plan.offset`` / ``plan.home`` per candidate.
    ii / jj:
        ``(M,)`` particle indices of the home-side / neighbor-side
        particle (already mapped through the bucket ``order`` when one
        was supplied).  Self rows carry only their upper triangle
        (``i < j`` bucket slots), so every unordered pair appears
        exactly once.
    """

    row: np.ndarray
    ii: np.ndarray
    jj: np.ndarray


def iter_pair_chunks(
    plan: CellPairPlan,
    counts: np.ndarray,
    start: np.ndarray,
    order: Optional[np.ndarray] = None,
    target_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Iterator[PairChunk]:
    """Enumerate every half-shell candidate pair as large batches.

    Parameters
    ----------
    plan:
        The cell-pair topology.
    counts / start:
        Per-cell bucket occupancies and exclusive prefix offsets
        (``start`` has ``n_cells + 1`` entries) — exactly the
        :class:`~repro.md.cells.CellList` arrays.
    order:
        Bucket permutation mapping bucket slots to particle indices
        (``CellList.order``).  ``None`` when the caller's arrays are
        already bucket-sorted (slot index == particle index).
    target_pairs:
        Approximate candidates per yielded chunk; whole plan rows are
        never split across chunks, so per-row segment statistics (e.g.
        unique neighbor-force records) can be computed chunk-locally.

    Yields
    ------
    :class:`PairChunk` batches covering each candidate pair exactly once
    (home-home pairs upper-triangle, neighbor pairs full cross product).
    """
    counts = np.asarray(counts, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    if len(counts) < plan.n_cells:
        # A sparse or empty system can hand us bincount arrays shorter
        # than the cell count (trailing cells unoccupied, or a fully
        # empty box where ``counts`` has zero length).  Pad with empty
        # cells so the ``counts[home]`` gathers below stay in bounds —
        # zero-occupancy cells contribute zero candidates either way.
        tail = start[-1] if len(start) else 0
        counts = np.concatenate(
            [counts, np.zeros(plan.n_cells - len(counts), dtype=np.int64)]
        )
        start = np.concatenate(
            [
                start,
                np.full(
                    plan.n_cells + 1 - len(start), tail, dtype=np.int64
                ),
            ]
        )
    home, nbr, is_self = plan.home, plan.nbr, plan.is_self
    na = counts[home]
    nb = counts[nbr]
    sizes = np.where(is_self, na * (na - 1) // 2, na * nb)
    act = np.flatnonzero(sizes > 0)
    if act.size == 0:
        return
    sz = sizes[act]
    offsets_in_stream = np.cumsum(sz) - sz
    chunk_of = offsets_in_stream // max(int(target_pairs), 1)
    splits = np.flatnonzero(np.diff(chunk_of)) + 1
    for grp in np.split(act, splits):
        # Two-level repeat expansion (no per-pair integer division):
        # one *segment* per (row, home-slot i); self rows emit only the
        # j > i tail of their segment, which yields the home-home upper
        # triangle directly.
        na_g = na[grp]
        seg_row = np.repeat(np.arange(grp.size, dtype=np.int64), na_g)
        seg_i = (
            np.arange(len(seg_row), dtype=np.int64)
            - np.repeat(np.cumsum(na_g) - na_g, na_g)
        )
        self_seg = is_self[grp][seg_row]
        nb_seg = np.where(
            self_seg, na_g[seg_row] - seg_i - 1, nb[grp][seg_row]
        )
        seg_off = np.cumsum(nb_seg) - nb_seg
        total = int(seg_off[-1] + nb_seg[-1]) if len(nb_seg) else 0
        block = np.repeat(seg_row, nb_seg)
        i_loc = np.repeat(seg_i, nb_seg)
        j_loc = np.arange(total, dtype=np.int64) + np.repeat(
            np.where(self_seg, seg_i + 1, 0) - seg_off, nb_seg
        )
        ii = start[home[grp][block]] + i_loc
        jj = start[nbr[grp][block]] + j_loc
        if order is not None:
            ii = order[ii]
            jj = order[jj]
        yield PairChunk(row=grp[block], ii=ii, jj=jj)


def candidates_per_cell(plan: CellPairPlan, counts: np.ndarray) -> np.ndarray:
    """Per-home-cell candidate counts of the half-shell traversal.

    ``occ*(occ-1)/2`` home-home pairs plus ``occ * occ_nbr`` for each of
    the 13 half-shell neighbors — computed from occupancies alone, so
    the batched force path reports the exact same workload statistics
    as the per-cell loop it replaced.
    """
    counts = np.asarray(counts, dtype=np.int64)
    nbr_occ = counts[plan.nbr].reshape(plan.n_cells, ROWS_PER_CELL)[:, 1:].sum(
        axis=1
    )
    return counts * (counts - 1) // 2 + counts * nbr_occ
