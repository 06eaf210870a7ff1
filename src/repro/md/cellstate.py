"""Step-persistent cell state: skin-banded pair lists reused across steps.

PR 1 and PR 2 made a *single* force evaluation fast, but every step
still pays the full binning + padded-broadcast candidate search even
when no particle has moved meaningfully.  The paper amortizes exactly
this (cell lists are rebuilt on migration, not every iteration), and
CPU MD engines amortize it with a Verlet skin.  :class:`CellState`
brings that amortization to the cell-list hot paths while keeping the
results **bitwise identical** to the rebuild-every-step code:

* At build time a band search runs once with the cutoff *widened by a
  skin* — the padded-broadcast matmul search (:func:`band_slot_pairs`)
  or the consumer backend's compiled ``band_pairs`` kernel — producing,
  per half-shell offset, the flat (cell, slot_i, slot_j) candidate list
  in exactly the order the fresh padded path would enumerate its own
  survivors.
* On reuse steps the candidate matmuls are skipped entirely; the exact
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

Consumers attach layer-specific artifacts (pre-gathered coefficient
arrays, pre-cast float32 table ROMs, packed halo batches) via
:attr:`CellState.artifacts`, keyed by :attr:`CellState.version` so a
rebuild invalidates them automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.md.cells import CellGrid, CellList, HALF_SHELL_OFFSETS
from repro.md.pairplan import ROWS_PER_CELL, CellPairPlan
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
    delta = positions - build_positions
    delta -= box * np.rint(delta / box)
    max_disp2 = float(np.max(np.sum(delta * delta, axis=1)))
    return max_disp2 > (0.5 * skin) ** 2


class BandPairs:
    """Per-offset flat candidate lists of one skin-banded build.

    Attributes
    ----------
    a / b:
        ``(L,)`` int64 global *slot* indices (into the bucket ``order``)
        of the home-side / neighbor-side particle of each candidate.
    c:
        ``(L,)`` int64 evaluating (home) cell id per candidate.
    js:
        ``(L,)`` int64 neighbor-side slot-within-bucket per candidate
        (the padded path's ``j_of`` decode, for presence-bit statistics).
    segs:
        ``ROWS_PER_CELL + 1`` prefix offsets: candidates of offset ``k``
        occupy ``a[segs[k]:segs[k+1]]``, in ascending flat
        ``(cell, slot_i, slot_j)`` order — the exact enumeration order
        of the fresh padded path's ``flatnonzero`` survivors.
    """

    __slots__ = ("a", "b", "c", "js", "segs")

    def __init__(self, a, b, c, js, segs):
        self.a = a
        self.b = b
        self.c = c
        self.js = js
        self.segs = segs

    @property
    def n_pairs(self) -> int:
        return int(self.segs[-1])


def band_slot_pairs(
    plan: CellPairPlan,
    clist: CellList,
    packed: np.ndarray,
    offsets: np.ndarray,
    band: float,
    home: Optional[np.ndarray] = None,
) -> BandPairs:
    """Run the padded-broadcast candidate search once with a widened band.

    ``packed`` is the per-particle 3-vector the consumer's fresh path
    feeds its matmuls (quantized cell fractions for the machine,
    box-local coordinates for the float64 reference); ``offsets`` the
    corresponding per-offset displacement (cell units or angstrom);
    ``band`` the widened squared-distance bound *including* the
    conservative float32 margin.  The returned lists enumerate, per
    offset, every flat (cell, slot_i, slot_j) whose float32 banded
    ``r2`` passes — a superset of anything the fresh path can admit
    while no particle has moved more than skin/2.  ``home`` (ascending
    cell ids) limits the home side to those cells, so the searches of
    a partition's nodes add up to one search of the whole box; ``None``
    searches every cell.

    This is the numpy band search and the oracle of the compiled
    ``band_pairs`` kernels (``tests/test_band_kernel.py``).
    """
    order, start, counts = clist.order, clist.start, clist.counts
    C = plan.n_cells
    cap = int(counts.max())
    n = len(packed)
    packed_s = packed[order]
    within = np.arange(n, dtype=np.int64) - start[clist.sorted_cids]
    P = np.zeros((C, cap, 3), dtype=np.float32)
    P[clist.sorted_cids, within] = packed_s.astype(np.float32)
    padm = np.arange(cap)[None, :] >= counts[:, None]
    S = np.einsum("cix,cix->ci", P, P, dtype=np.float32)
    S[padm] = np.inf

    nbr_mat = plan.nbr.reshape(C, ROWS_PER_CELL)
    band32 = np.float32(band)
    # Decoded rows index the home cells searched: all cells, or ``home``.
    cell_of, i_of, j_of = plan.padded_decode(cap)
    Ph, Sh, home_start = P, S, start
    if home is not None:
        size = len(home) * cap * cap
        cell_of, i_of, j_of = cell_of[:size], i_of[:size], j_of[:size]
        Ph, Sh, nbr_mat = P[home], S[home], nbr_mat[home]
        home_start = start[home]
    a_of = home_start[cell_of] + i_of
    iu = np.arange(cap)
    tri = iu[:, None] < iu[None, :]
    mask = np.empty((len(Ph), cap, cap), dtype=bool)
    G = np.empty((len(Ph), cap, cap), dtype=np.float32)
    H = np.empty((len(Ph), cap, cap), dtype=np.float32)

    aa: List[np.ndarray] = []
    bb: List[np.ndarray] = []
    cc: List[np.ndarray] = []
    jj: List[np.ndarray] = []
    segs = np.zeros(ROWS_PER_CELL + 1, dtype=np.int64)
    for k in range(ROWS_PER_CELL):
        nb = nbr_mat[:, k]
        Q = P[nb] + offsets[k].astype(np.float32)
        Sq = np.einsum("cix,cix->ci", Q, Q, dtype=np.float32)
        Sq[padm[nb]] = np.inf
        np.matmul(Ph, Q.transpose(0, 2, 1), out=G)
        np.add(
            ((Sh - band32) * np.float32(0.5))[:, :, None],
            (Sq * np.float32(0.5))[:, None, :],
            out=H,
        )
        np.greater(G, H, out=mask)
        if k == 0:
            mask &= tri
        flat = np.flatnonzero(mask.reshape(-1))
        h = cell_of[flat].astype(np.int64)
        js = j_of[flat].astype(np.int64)
        aa.append(a_of[flat])
        bb.append(start[nb][h] + js)
        cc.append(h if home is None else home[h])
        jj.append(js)
        segs[k + 1] = segs[k] + len(flat)
    return BandPairs(
        np.concatenate(aa),
        np.concatenate(bb),
        np.concatenate(cc),
        np.concatenate(jj),
        segs,
    )


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
        ``positions -> (packed, offsets, band)``: what the consumer's
        fresh padded path feeds its candidate matmuls (see
        :func:`band_slot_pairs`), with ``band`` already widened to
        ``(cutoff + skin)^2`` *in packed units* plus the conservative
        float32 margin.
    viable:
        Optional ``(plan, clist, home) -> bool`` gate on the band search
        (``home`` as in :meth:`ensure_view`, ``None`` for position
        builds).  A binning it rejects is kept without band lists
        (:attr:`pairs` is None), so the consumer takes its own
        non-padded path and every later :meth:`ensure` rebuilds the
        binning.

    A state is built from positions (:meth:`ensure`) or from a given
    slot binning (:meth:`ensure_view`): a distributed node's local plus
    halo cells in ascending cid.  A view is slot-indexed — a stale halo
    snapshot may repeat a particle id — so its :attr:`clist` has the
    identity ``order`` and :attr:`ids` maps slots to particle ids; its
    ``pack_fn`` receives the slot vectors and ``skin`` is in packed
    units.
    """

    def __init__(
        self,
        grid: CellGrid,
        plan: CellPairPlan,
        skin: float,
        pack_fn: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, float]],
        viable: Optional[Callable[[CellPairPlan, CellList], bool]] = None,
    ):
        if skin <= 0:
            raise ValidationError("CellState skin must be > 0")
        self.grid = grid
        self.plan = plan
        self.skin = float(skin)
        self._pack_fn = pack_fn
        self._viable = viable
        self.version = 0
        self.builds = 0
        self.reuse_steps = 0
        self.last_rebuilt = False
        self.clist: Optional[CellList] = None
        self.coords: Optional[np.ndarray] = None
        self.cids: Optional[np.ndarray] = None
        self.cap = 0
        self.pairs: Optional[BandPairs] = None
        self.build_positions: Optional[np.ndarray] = None
        #: View builds: slot -> particle id (None on position builds,
        #: where ``clist.order`` is that map), home cells, slot vectors.
        self.ids: Optional[np.ndarray] = None
        self.home: Optional[np.ndarray] = None
        self.build_packed: Optional[np.ndarray] = None
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
            "reuse_steps": self.reuse_steps,
            "version": self.version,
        }

    def restore_meta(self, meta: Dict[str, float]) -> None:
        """Continue the cumulative counters of a checkpointed state.

        Restoration costs one rebuild (``build_positions`` starts empty),
        so a restored run's ``builds`` may exceed an uninterrupted run's
        by the number of restarts — the documented, honest cost of a
        restart.
        """
        self.builds = int(meta["builds"])
        self.reuse_steps = int(meta["reuse_steps"])
        self.version = int(meta["version"])

    # -- rebuild criterion -----------------------------------------------------

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """Whether reuse would no longer be bitwise-safe.

        Two triggers, both cheap O(N) passes:

        * the shared skin/2 displacement criterion (:func:`skin_exceeded`)
          — coverage: an unlisted pair could now be inside the cutoff;
        * any change of cell assignment — identity: the padded packing,
          bucket order and accumulation grouping of a fresh build would
          differ from the stored ones, so reuse would stop being
          bit-identical even though it would still be *covering*.
        """
        if self.build_positions is None or self.pairs is None:
            return True
        if skin_exceeded(positions, self.build_positions, self.grid.box, self.skin):
            return True
        coords = self.grid.coords_of_positions(positions)
        cids = self.grid.cell_id(coords)
        if not np.array_equal(cids, self.cids):
            return True
        # Cache the (identical) coords so the consumer's quantization
        # pass does not recompute them.
        self.coords = coords
        return False

    def ensure(
        self, positions: np.ndarray, band_fn: Optional[Callable] = None
    ) -> bool:
        """Rebuild if required; returns True when a rebuild happened.

        ``band_fn`` is passed on to :meth:`build`.
        """
        rebuild = self.needs_rebuild(positions)
        if rebuild:
            self.build(positions, band_fn)
        return self._settle(rebuild)

    def _settle(self, rebuilt: bool) -> bool:
        if not rebuilt:
            self.reuse_steps += 1
        self.last_rebuilt = rebuilt
        return rebuilt

    def build(
        self, positions: np.ndarray, band_fn: Optional[Callable] = None
    ) -> None:
        """(Re)build binning and band lists from the current positions.

        ``band_fn`` is the consumer's backend band search
        (:attr:`~repro.md.backends.ForceBackend.band_pairs`), resolved
        by the caller at build time; ``None`` runs
        :func:`band_slot_pairs`.  Either lists the same admissible pairs
        in the same order (see DESIGN.md §10).

        Exception-safe: ``pack_fn`` may refuse pathological inputs (the
        reference pack raises ``FloatingPointError`` on non-box-local
        positions), in which case the previously built state is left
        fully intact — the caller falls back to its fresh path.
        """
        clist = CellList(self.grid, positions)
        coords = self.grid.coords_of_positions(positions)
        self._build(clist, positions, band_fn)
        self.coords = coords
        self.cids = self.grid.cell_id(coords)
        self.build_positions = positions.copy()

    # -- node views ------------------------------------------------------------

    def ensure_view(
        self,
        counts: np.ndarray,
        ids: np.ndarray,
        packed: np.ndarray,
        home: np.ndarray,
        band_fn: Optional[Callable] = None,
    ) -> bool:
        """:meth:`ensure` for a given slot binning: ``counts`` per cell
        (slots ascending by cid), ``ids`` the particle id and ``packed``
        the vector of every slot, ``home`` the ascending cells whose
        plan rows are searched.

        The view form of :meth:`needs_rebuild` rebuilds on any change of
        the binning (counts, slot ids, home cells) or when a slot vector
        moved more than ``skin / 2`` since the build; stale halo slots do
        not move, so the skin argument covers them too.  It reads only
        the arguments, so any evaluator holding the state may apply it.
        """
        rebuild = (
            self.pairs is None
            or self.build_packed is None
            or not np.array_equal(counts, self.clist.counts)
            or not np.array_equal(ids, self.ids)
            or not np.array_equal(home, self.home)
        )
        if not rebuild:
            d = packed - self.build_packed
            disp2 = np.einsum("ij,ij->i", d, d).max(initial=0.0)
            rebuild = float(disp2) > (0.5 * self.skin) ** 2
        if rebuild:
            self._build(
                CellList.from_counts(self.grid, counts), packed, band_fn, home
            )
            self.ids = np.array(ids, dtype=np.int64)
            self.home = home
            self.build_packed = np.array(packed)
        return self._settle(rebuild)

    def _build(
        self,
        clist: CellList,
        pack_input: np.ndarray,
        band_fn: Optional[Callable],
        home: Optional[np.ndarray] = None,
    ) -> None:
        pairs = None
        if self._viable is None or self._viable(self.plan, clist, home):
            packed, offsets, band = self._pack_fn(pack_input)
            if band_fn is None:
                pairs = band_slot_pairs(
                    self.plan, clist, packed, offsets, band, home
                )
            else:
                hint = self.pairs.n_pairs if self.pairs is not None else 0
                pairs = BandPairs(
                    *band_fn(self.plan, clist, packed, offsets, band, hint, home)
                )
        self.clist = clist
        self.cap = int(clist.counts.max()) if clist.counts.size else 0
        self.pairs = pairs
        self.version += 1
        self.builds += 1
        self.artifacts.clear()


def engine_pack_fn(
    grid: CellGrid, plan: CellPairPlan, skin: float
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, float]]:
    """``pack_fn`` for the float64 reference path (box-local coordinates).

    Mirrors ``_forces_cells_padded``: packed vectors are box-local
    positions (angstrom), offsets are the half-shell offsets scaled by
    the cell edges, and the band is ``(cutoff + skin)^2`` with the same
    conservative 1e-3 float32 margin the fresh path uses at the cutoff.
    """
    off_len = (
        np.concatenate(
            [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
        )
        * plan.edges
    )
    listing = float(grid.cell_edge) + float(skin)
    band = listing * listing * (1.0 + 1e-3)

    def pack(positions: np.ndarray):
        cids = np.arange(plan.n_cells, dtype=np.int64)
        corner = plan.edges * plan.cell_coords_of(cids)
        local = positions - corner[grid.cell_id(grid.coords_of_positions(positions))]
        if np.abs(local).max(initial=0.0) > 4.0 * plan.edges.max():
            raise FloatingPointError("positions not box-local")
        return local, off_len, band

    return pack


def machine_pack_fn(
    fmt, cutoff: float, skin: float, grid: Optional[CellGrid] = None
) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray, float]]:
    """``pack_fn`` for the fixed-point machine path (cell fractions).

    Mirrors the machine's fresh padded-broadcast pass (the oracle in
    ``tests/oracles.py``): packed vectors are quantized
    in-cell fractions (normalized units, cutoff = 1), offsets are the
    integer half-shell offsets, and the band is ``(1 + skin')^2`` with
    the fresh path's 1e-3 float32 margin, ``skin' = skin / cutoff``.
    With ``grid=None`` the input already is the quantized slot
    fractions of a node view and passes through.
    """
    from repro.core.datapath import quantize_cell_fractions

    offs = np.concatenate(
        [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
    )
    skin_n = float(skin) / float(cutoff)
    band = (1.0 + skin_n) ** 2 * (1.0 + 1e-3)

    def pack(positions: np.ndarray):
        if grid is None:
            return positions, offs, band
        coords = grid.coords_of_positions(positions)
        frac = quantize_cell_fractions(positions, coords, cutoff, fmt)
        return frac, offs, band

    return pack
