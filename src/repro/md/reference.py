"""Double-precision reference force evaluation (the golden model).

Two implementations of the range-limited LJ force (paper Eqs. 1-2):

* :func:`compute_forces_cells` — cell-list/half-shell evaluation driven
  by the cached :class:`~repro.md.pairplan.CellPairPlan`: all candidate
  pairs for the step are enumerated in a few large batches, the LJ
  kernel runs fused over each batch, and forces scatter back through
  :func:`~repro.md.kernels.scatter_add`.  This is what production runs
  use and what the FASDA machine is compared against.
* :func:`compute_forces_bruteforce` — O(N^2) minimum-image evaluation for
  small systems; exists purely to cross-check the cell-list code in tests.

The original per-cell Python loop, an independently coded equivalence
oracle for the batched path and the pre-plan baseline of
``benchmarks/bench_hotpath.py``, is ``compute_forces_cells_loop`` in
``tests/oracles.py``.

All apply a plain truncation at the cutoff (no switching function), as
the paper's LJ-only custom force field does, and optionally shift the
potential so V(R_c) = 0 for energy bookkeeping.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from repro.md.cellstate import CellState, RowBands

from repro.md.backends import ForceBackend, resolve_backend
from repro.md.cells import CellGrid, CellList, HALF_SHELL_OFFSETS
from repro.md.kernels import lj_scalar_energy, pair_forces_energy, scatter_add
from repro.md.params import LJTable
from repro.md.pairplan import (
    ROWS_PER_CELL,
    CellPairPlan,
    candidates_per_cell,
    iter_pair_chunks,
    plan_for_grid,
)
from repro.md.system import ParticleSystem
from repro.util.errors import ValidationError


def _cutoff_shift(lj: LJTable, cutoff: float, shift: bool) -> float:
    """Per-pair energy shift so V(cutoff) == 0 (species 0-0 only).

    A full per-pair-species shift table would be straightforward, but the
    paper's workload is single-species; we raise if a shifted multi-
    species run is requested rather than silently mis-shifting.
    """
    if not shift:
        return 0.0
    if lj.n_species != 1:
        raise ValidationError("energy shift is only supported for single-species tables")
    inv2 = 1.0 / cutoff ** 2
    return float(lj.c12[0, 0] * inv2 ** 6 - lj.c6[0, 0] * inv2 ** 3)


def compute_forces_bruteforce(
    system: ParticleSystem, cutoff: float, shift: bool = False
) -> Tuple[np.ndarray, float]:
    """O(N^2) minimum-image LJ forces and potential energy.

    Only suitable for small N; used to validate the cell-list path.
    """
    pos = system.positions
    n = system.n
    forces = np.zeros_like(pos)
    ii, jj = np.triu_indices(n, k=1)
    dr = pos[ii] - pos[jj]
    dr -= system.box * np.rint(dr / system.box)
    r2 = np.sum(dr * dr, axis=1)
    mask = r2 < cutoff * cutoff
    ii, jj, dr, r2 = ii[mask], jj[mask], dr[mask], r2[mask]
    if len(r2) == 0:
        return forces, 0.0
    shift_e = _cutoff_shift(system.lj_table, cutoff, shift)
    f, energy = pair_forces_energy(
        dr, r2, system.species[ii], system.species[jj], system.lj_table, shift_e
    )
    scatter_add(forces, ii, f)
    scatter_add(forces, jj, -f)
    return forces, energy


#: Padded-broadcast fast-path limits: per-offset scratch is ``C * cap^2``
#: float32 elements (80 MB at the element cap), and padding waste — padded
#: candidate volume over true half-shell candidates — must stay bounded
#: or sparse/skewed occupancies would burn bandwidth on sentinel slots.
_PADDED_MAX_ELEMS = 20_000_000
_PADDED_MAX_WASTE = 8.0


@lru_cache(maxsize=2)
def _decode_tables(n_cells: int, cap: int):
    """Cached flat-index -> (cell, home slot, neighbor slot) decode tables.

    A flat survivor index into the ``(C, cap, cap)`` mask decodes as
    ``cell = f // cap^2``, ``i = (f // cap) % cap``, ``j = f % cap``;
    precomputing the tables turns three per-survivor integer divisions
    per offset into three cheap int32 gathers.  Keyed on ``(C, cap)``
    only, so consecutive steps of the same box reuse them.
    """
    cap2 = cap * cap
    f = np.arange(n_cells * cap2, dtype=np.int64)
    cell_of = (f // cap2).astype(np.int32)
    i_of = ((f // cap) % cap).astype(np.int32)
    j_of = (f % cap).astype(np.int32)
    return cell_of, i_of, j_of


def _padded_viable(
    plan: CellPairPlan, clist: CellList, home: Optional[np.ndarray] = None
) -> bool:
    """Whether the dense padded broadcast beats chunked gather-enumeration.

    The padded path does ``ROWS_PER_CELL * C * cap^2`` distance work no
    matter how full the buckets are; it wins exactly when occupancy is
    dense and even (the paper's 64-per-cell workload), and loses to the
    chunked enumerator on sparse or skewed boxes.  ``home`` restricts
    both sides to those home cells (a distributed node's own cells);
    ``None`` weighs the whole box.
    """
    if clist.counts.size == 0:
        return False
    cap = int(clist.counts.max())
    if cap < 2:
        return False
    n_home = plan.n_cells if home is None else len(home)
    vol = n_home * cap * cap
    if vol > _PADDED_MAX_ELEMS:
        return False
    cand = candidates_per_cell(plan, clist.counts)
    cand = int(cand.sum() if home is None else cand[home].sum())
    if cand == 0:
        return False
    return ROWS_PER_CELL * vol <= _PADDED_MAX_WASTE * 2 * cand


def _forces_cells_padded(
    pos: np.ndarray,
    spc: np.ndarray,
    lj: LJTable,
    plan: CellPairPlan,
    clist: CellList,
    cutoff2: float,
    shift_e: float,
) -> Tuple[np.ndarray, float]:
    """Dense padded-broadcast evaluation of the half-shell traversal.

    Per-pair fancy gathers are the bandwidth floor of the chunked path;
    this path never gathers per *candidate*.  Buckets are padded to the
    max occupancy ``cap`` and each of the 14 plan offsets becomes one
    ``(C, cap, cap)`` batched matmul over float32 *cell-local* coordinates
    (``r2 = |p_i|^2 + |p_j|^2 - 2 p_i.p_j``), a conservative-band cutoff
    test, and one ``flatnonzero`` compaction.  Only the surviving ~15%
    are rechecked in float64 with the exact same ``pos[i] - pos[j] -
    shift`` arithmetic as the chunked path, so accepted pairs and their
    ``dr`` are bit-identical; the band (1e-3 relative, ~1000x the f32
    error bound of cell-local coordinates) only ever lets *extra* pairs
    through to the recheck, never drops true ones.
    """
    order, start, counts = clist.order, clist.start, clist.counts
    C = plan.n_cells
    cap = int(counts.max())
    n = len(pos)
    cids = np.arange(C, dtype=np.int64)
    corner = plan.edges * plan.cell_coords_of(cids)

    # Bucket-sorted coordinates: slot s holds particle order[s].
    ps = pos[order]
    local = ps - corner[clist.sorted_cids]
    if np.abs(local).max(initial=0.0) > 4.0 * plan.edges.max():
        # Positions far outside the box break the f32 error bound the
        # band relies on; signal the caller to take the chunked path.
        raise FloatingPointError("positions not box-local")
    psx, psy, psz = ps[:, 0].copy(), ps[:, 1].copy(), ps[:, 2].copy()
    within = np.arange(n, dtype=np.int64) - start[clist.sorted_cids]
    P = np.zeros((C, cap, 3), dtype=np.float32)
    P[clist.sorted_cids, within] = local.astype(np.float32)
    padm = np.arange(cap)[None, :] >= counts[:, None]
    S = np.einsum("cix,cix->ci", P, P, dtype=np.float32)
    S[padm] = np.inf  # pad slots poison every r2 they appear in

    nbr_mat = plan.nbr.reshape(C, ROWS_PER_CELL)
    shift_mat = plan.shift.reshape(C, ROWS_PER_CELL, 3)
    off_len = np.concatenate(
        [np.zeros((1, 3)), np.asarray(HALF_SHELL_OFFSETS, dtype=np.float64)]
    ) * plan.edges
    band = np.float32(cutoff2 * (1.0 + 1e-3))

    # Flat-index decode tables: a single cached division pass over
    # C*cap^2 instead of three per offset over every survivor.  Cached
    # on the plan so every padded consumer shares one copy per geometry.
    cell_of, i_of, j_of = plan.padded_decode(cap)
    a_of = start[cell_of] + i_of

    iu = np.arange(cap)
    tri = iu[:, None] < iu[None, :]
    mask = np.empty((C, cap, cap), dtype=bool)
    multi = lj.n_species > 1
    sspc = spc[order] if multi else None

    fx = np.zeros(n)
    fy = np.zeros(n)
    fz = np.zeros(n)
    energy = 0.0
    G = np.empty((C, cap, cap), dtype=np.float32)
    H = np.empty((C, cap, cap), dtype=np.float32)
    for k in range(ROWS_PER_CELL):
        nb = nbr_mat[:, k]
        Q = P[nb] + off_len[k].astype(np.float32)
        Sq = np.einsum("cix,cix->ci", Q, Q, dtype=np.float32)
        Sq[padm[nb]] = np.inf
        np.matmul(P, Q.transpose(0, 2, 1), out=G)
        # r2 = S_i + Sq_j - 2 G_ij < band  <=>  G_ij > (S_i - band)/2 + Sq_j/2
        np.add(
            ((S - band) * np.float32(0.5))[:, :, None],
            (Sq * np.float32(0.5))[:, None, :],
            out=H,
        )
        np.greater(G, H, out=mask)
        if k == 0:
            mask &= tri  # home-home upper triangle
        flat = np.flatnonzero(mask.reshape(-1))
        if flat.size == 0:
            continue
        a = a_of[flat]
        c = cell_of[flat]
        b = start[nb][c] + j_of[flat]
        # Exact float64 recheck with the chunked path's arithmetic:
        # dr = pos[i] - pos[j] - shift, r2 = dx^2 + dy^2 + dz^2.  The
        # shift is zero except in boundary cells, so it is subtracted
        # only for survivors living there (subtracting 0 elsewhere would
        # be a bitwise no-op at three full passes' cost).
        dxa = psx[a]
        dxa -= psx[b]
        dya = psy[a]
        dya -= psy[b]
        dza = psz[a]
        dza -= psz[b]
        if k > 0:
            shifted_cells = np.any(shift_mat[:, k] != 0.0, axis=1)
            if shifted_cells.any():
                sel = np.flatnonzero(shifted_cells[c])
                if sel.size:
                    cs_sel = c[sel]
                    dxa[sel] -= shift_mat[:, k, 0][cs_sel]
                    dya[sel] -= shift_mat[:, k, 1][cs_sel]
                    dza[sel] -= shift_mat[:, k, 2][cs_sel]
        r2 = dxa * dxa
        tmp = dya * dya
        r2 += tmp
        np.multiply(dza, dza, out=tmp)
        r2 += tmp
        drop = r2 >= cutoff2  # band survivors beyond the true cutoff
        n_kept = len(r2) - int(np.count_nonzero(drop))
        if n_kept == 0:
            continue
        if n_kept != len(r2):
            r2[drop] = np.inf  # 1/inf = 0 zeroes their force and energy
        si = sspc[a] if multi else None
        sj = sspc[b] if multi else None
        scalar, evec = lj_scalar_energy(r2, si, sj, lj)
        energy += float(np.sum(evec)) - shift_e * n_kept
        fxa = scalar * dxa
        fx += np.bincount(a, weights=fxa, minlength=n)
        fx -= np.bincount(b, weights=fxa, minlength=n)
        np.multiply(scalar, dya, out=fxa)
        fy += np.bincount(a, weights=fxa, minlength=n)
        fy -= np.bincount(b, weights=fxa, minlength=n)
        np.multiply(scalar, dza, out=fxa)
        fz += np.bincount(a, weights=fxa, minlength=n)
        fz -= np.bincount(b, weights=fxa, minlength=n)

    forces = np.empty_like(pos)
    forces[order, 0] = fx
    forces[order, 1] = fy
    forces[order, 2] = fz
    return forces, energy


def _shift_rows(rb: "RowBands", plan: CellPairPlan) -> np.ndarray:
    """Per-entry image-shift row of a band layout: region ``k * n_cells
    + c`` reads plan row ``c * ROWS_PER_CELL + k``, or -1 where that row
    has no shift (the bulk)."""
    C = plan.n_cells
    row = (
        np.arange(C)[None, :] * ROWS_PER_CELL
        + np.arange(ROWS_PER_CELL)[:, None]
    ).reshape(-1)
    return np.repeat(np.where(plan.has_shift[row], row, -1), rb.rcap)


class _EngineArtifacts:
    """Per-build static gathers for :func:`_forces_cells_reuse`.

    Everything here depends only on the band lists and the (frozen)
    binning, so it is computed once per rebuild and cached on the
    :class:`~repro.md.cellstate.CellState`: per-offset ``(a, b)`` bank
    row slices, the shifted-entry selections with their pre-gathered
    image shifts, and (multi-species only) the per-pair species codes.
    """

    __slots__ = ("ab", "shifts", "species")

    def __init__(self, rb: "RowBands", plan: CellPairPlan, spc, multi: bool):
        bounds = rb.rstart[:: plan.n_cells]
        srow = _shift_rows(rb, plan)
        self.ab = []
        self.shifts = []
        self.species = []
        for k in range(ROWS_PER_CELL):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            a = rb.a[lo:hi]
            b = rb.b[lo:hi]
            self.ab.append((a, b))
            sel = np.flatnonzero(srow[lo:hi] >= 0)
            ent = None
            if sel.size:
                shift = plan.shift[srow[lo:hi][sel]]
                ent = (sel, shift[:, 0], shift[:, 1], shift[:, 2])
            self.shifts.append(ent)
            self.species.append((spc[a], spc[b]) if multi else None)


def _forces_cells_reuse(
    pos: np.ndarray,
    spc: np.ndarray,
    lj: LJTable,
    plan: CellPairPlan,
    cutoff2: float,
    shift_e: float,
    state: "CellState",
) -> Tuple[np.ndarray, float]:
    """Skin-banded re-evaluation over a persistent :class:`CellState`.

    Runs the exact float64 recheck of :func:`_forces_cells_padded` over
    the stored band lists instead of fresh candidate matmuls.  The band
    (cutoff + skin, conservative f32 margin) is a superset of anything
    the fresh padded search can admit while no particle has moved more
    than skin/2, extra band pairs fail the same ``r2 >= cutoff2`` test
    and contribute exact-zero weights, and float64 bincount accumulation
    absorbs interleaved exact zeros bit-for-bit — so **forces are
    bitwise identical** to the fresh path.  The per-offset energy
    ``np.sum`` runs over a different-length array (numpy's pairwise
    tree changes shape), so the **energy agrees to float64 round-off**
    rather than bitwise; trajectories depend only on forces and stay
    bit-identical.  The band lists name bank rows, which are particle
    indices, so coordinates are read and forces accumulated in place.
    """
    n = len(pos)
    psx, psy, psz = (np.ascontiguousarray(pos[:, d]) for d in range(3))
    multi = lj.n_species > 1
    art = state.artifacts.get("engine")
    if art is None:
        art = _EngineArtifacts(state.pairs, plan, spc, multi)
        state.artifacts["engine"] = art

    fx = np.zeros(n)
    fy = np.zeros(n)
    fz = np.zeros(n)
    energy = 0.0
    for k in range(ROWS_PER_CELL):
        a, b = art.ab[k]
        if a.size == 0:
            continue
        dxa = psx.take(a)
        dxa -= psx.take(b)
        dya = psy.take(a)
        dya -= psy.take(b)
        dza = psz.take(a)
        dza -= psz.take(b)
        ent = art.shifts[k]
        if ent is not None:
            sel, sx, sy, sz = ent
            dxa[sel] -= sx
            dya[sel] -= sy
            dza[sel] -= sz
        r2 = dxa * dxa
        tmp = dya * dya
        r2 += tmp
        np.multiply(dza, dza, out=tmp)
        r2 += tmp
        drop = r2 >= cutoff2
        n_kept = len(r2) - int(np.count_nonzero(drop))
        if n_kept == 0:
            continue
        if n_kept != len(r2):
            r2[drop] = np.inf  # 1/inf = 0 zeroes their force and energy
        si, sj = art.species[k] if multi else (None, None)
        scalar, evec = lj_scalar_energy(r2, si, sj, lj)
        energy += float(np.sum(evec)) - shift_e * n_kept
        fxa = scalar * dxa
        fx += np.bincount(a, weights=fxa, minlength=n)
        fx -= np.bincount(b, weights=fxa, minlength=n)
        np.multiply(scalar, dya, out=fxa)
        fy += np.bincount(a, weights=fxa, minlength=n)
        fy -= np.bincount(b, weights=fxa, minlength=n)
        np.multiply(scalar, dza, out=fxa)
        fz += np.bincount(a, weights=fxa, minlength=n)
        fz -= np.bincount(b, weights=fxa, minlength=n)
    return np.column_stack((fx, fy, fz)), energy


class _FlatArtifacts:
    """Per-build flat pair stream for the backend kernels.

    The SoA lowering of the band lists: the layout's bank-row ``(a,
    b)`` entries as one flat ``(i_idx, j_idx)`` stream and a per-pair
    int32 shift-row index (``-1`` for the unshifted bulk) into the
    plan's ``(n_rows, 3)`` shift table.  Everything depends only on the
    band lists, so it is computed once per rebuild and cached on the
    :class:`~repro.md.cellstate.CellState` under ``"flat"``.
    """

    __slots__ = ("a", "b", "srow", "stab")

    def __init__(self, rb: "RowBands", plan: CellPairPlan):
        self.a = rb.a[: rb.size]
        self.b = rb.b[: rb.size]
        self.srow = _shift_rows(rb, plan).astype(np.int32)
        self.stab = np.ascontiguousarray(plan.shift, dtype=np.float64)


def _forces_cells_flat(
    pos: np.ndarray,
    spc: np.ndarray,
    lj: LJTable,
    plan: CellPairPlan,
    cutoff2: float,
    shift_e: float,
    state: "CellState",
    backend: ForceBackend,
) -> Tuple[np.ndarray, float]:
    """Band-list evaluation through a backend's fused flat kernel.

    The compiled analogue of :func:`_forces_cells_reuse`: same band
    lists, same exact float64 ``r2 < cutoff2`` admission, but one fused
    filter + LJ + scatter pass over the flat pair stream instead of 14
    per-offset numpy passes.  Admitted pairs are identical to the
    reference; forces and energy agree to the documented round-off
    bound (:data:`~repro.md.backends.FORCE_ATOL` /
    :data:`~repro.md.backends.ENERGY_RTOL`) because the accumulation
    order differs.
    """
    n = len(pos)
    psx, psy, psz = (np.ascontiguousarray(pos[:, d]) for d in range(3))
    art = state.artifacts.get("flat")
    if art is None:
        art = _FlatArtifacts(state.pairs, plan)
        state.artifacts["flat"] = art
    fx = np.zeros(n)
    fy = np.zeros(n)
    fz = np.zeros(n)
    energy = backend.lj_flat(
        psx, psy, psz, art.a, art.b, art.srow, art.stab,
        np.ascontiguousarray(spc, dtype=np.int32),
        lj, cutoff2, shift_e, fx, fy, fz,
    )
    return np.column_stack((fx, fy, fz)), float(energy)


def _forces_cells_flat_chunks(
    pos: np.ndarray,
    spc: np.ndarray,
    lj: LJTable,
    plan: CellPairPlan,
    clist: CellList,
    cutoff2: float,
    shift_e: float,
    backend: ForceBackend,
) -> Tuple[np.ndarray, float]:
    """Stateless chunked evaluation through a backend's flat kernel.

    Fresh-binning path of the backends with a flat kernel: the chunked
    enumerator produces candidate ``(ii, jj)`` particle indices and the
    fused kernel replaces the gather + einsum + LJ + scatter numpy
    passes.  Same exact admission; same documented round-off bound as
    :func:`_forces_cells_flat`.
    """
    n = len(pos)
    psx = np.ascontiguousarray(pos[:, 0])
    psy = np.ascontiguousarray(pos[:, 1])
    psz = np.ascontiguousarray(pos[:, 2])
    spc32 = np.ascontiguousarray(spc, dtype=np.int32)
    stab = np.ascontiguousarray(plan.shift, dtype=np.float64)
    fx = np.zeros(n)
    fy = np.zeros(n)
    fz = np.zeros(n)
    energy = 0.0
    for chunk in iter_pair_chunks(plan, clist.counts, clist.start, clist.order):
        srow = np.where(plan.has_shift[chunk.row], chunk.row, -1).astype(
            np.int32
        )
        energy += backend.lj_flat(
            psx, psy, psz,
            np.ascontiguousarray(chunk.ii, dtype=np.int64),
            np.ascontiguousarray(chunk.jj, dtype=np.int64),
            srow, stab, spc32, lj, cutoff2, shift_e, fx, fy, fz,
        )
    forces = np.empty_like(pos)
    forces[:, 0] = fx
    forces[:, 1] = fy
    forces[:, 2] = fz
    return forces, float(energy)


def compute_forces_cells(
    system: ParticleSystem,
    grid: CellGrid,
    shift: bool = False,
    state: Optional["CellState"] = None,
    force_impl: Optional[str] = None,
) -> Tuple[np.ndarray, float]:
    """Cell-list + half-shell LJ forces and potential energy (batched).

    The cutoff equals ``grid.cell_edge``.  Dense boxes (the paper's
    64-per-cell workload) take the padded-broadcast fast path of
    :func:`_forces_cells_padded`; sparse or skewed occupancies fall back
    to the chunked pair-plan enumerator.  Both cut each candidate batch
    at the cutoff, run the fused LJ kernel once per batch, and scatter
    with bincount accumulation — Newton's third law applied exactly once
    per pair.  Matches the per-cell loop oracle (``tests/oracles.py``)
    to float64 round-off.

    With a persistent ``state`` (:class:`~repro.md.cellstate.CellState`
    built with :func:`~repro.md.cellstate.engine_pack_fn`), steps that
    pass the skin/2 + same-binning criterion skip binning and candidate
    search entirely (:func:`_forces_cells_reuse`): forces bitwise equal
    to the stateless call, energy equal to float64 round-off.  This is
    the :class:`~repro.md.engine.ReferenceEngine` path; ``state=None``
    is the stateless one-shot evaluation.  Sparse
    or skewed binnings where the padded path would not be viable get no
    band lists from the state's viability gate (no band search runs)
    and take the fresh path below; reuse resumes once a dense binning
    is built again.

    ``force_impl`` selects the force backend (see
    :mod:`repro.md.backends`): ``None`` uses the process-wide default
    (``"numpy"`` unless overridden), ``"numpy"`` takes the numpy
    paths above, and ``"cext"`` routes the same admission through its
    fused flat kernel — identical admitted pairs, forces/energy within
    the documented round-off bound.
    """
    if not np.allclose(grid.box, system.box):
        raise ValidationError(
            f"grid box {grid.box} does not match system box {system.box}"
        )
    cutoff2 = grid.cell_edge * grid.cell_edge
    shift_e = _cutoff_shift(system.lj_table, grid.cell_edge, shift)
    pos = system.positions
    spc = system.species
    lj = system.lj_table
    plan = plan_for_grid(grid)
    backend = resolve_backend(force_impl)

    if state is not None:
        try:
            state.ensure(pos, backend)
        except FloatingPointError:
            state = None  # non-box-local positions: fresh path below
    if state is not None and state.pairs is not None:
        if backend.lj_flat is not None:
            return _forces_cells_flat(
                pos, spc, lj, plan, cutoff2, shift_e, state, backend
            )
        return _forces_cells_reuse(
            pos, spc, lj, plan, cutoff2, shift_e, state
        )

    forces = np.zeros_like(pos)
    energy = 0.0
    clist = CellList(grid, pos)

    if backend.lj_flat is not None:
        return _forces_cells_flat_chunks(
            pos, spc, lj, plan, clist, cutoff2, shift_e, backend
        )

    if _padded_viable(plan, clist):
        try:
            return _forces_cells_padded(
                pos, spc, lj, plan, clist, cutoff2, shift_e
            )
        except FloatingPointError:
            pass  # non-box-local positions: chunked path below

    for chunk in iter_pair_chunks(plan, clist.counts, clist.start, clist.order):
        dr = pos[chunk.ii] - pos[chunk.jj]
        shifted = plan.has_shift[chunk.row]
        if shifted.any():
            dr[shifted] -= plan.shift[chunk.row[shifted]]
        r2 = np.einsum("ij,ij->i", dr, dr)
        mask = r2 < cutoff2
        if not mask.any():
            continue
        ii = chunk.ii[mask]
        jj = chunk.jj[mask]
        f, e = pair_forces_energy(
            dr[mask], r2[mask], spc[ii], spc[jj], lj, shift_e
        )
        scatter_add(forces, ii, f)
        scatter_add(forces, jj, -f)
        energy += e
    return forces, energy
