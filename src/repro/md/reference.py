"""Double-precision reference force evaluation (the golden model).

Two implementations of the range-limited LJ force (paper Eqs. 1-2):

* :func:`compute_forces_cells` — cell-list/half-shell evaluation over
  the skin-banded pair lists of a :class:`~repro.md.cellstate.CellState`
  (the engine's persistent one, or a throwaway one per stateless
  call): the exact cutoff test and the LJ kernel run once per
  half-shell offset, and forces scatter back with bincount
  accumulation.  This is what production runs use and what the FASDA
  machine is compared against.
* :func:`compute_forces_bruteforce` — O(N^2) minimum-image evaluation for
  small systems; exists purely to cross-check the cell-list code in tests.

The original per-cell Python loop, an independently coded equivalence
oracle for the batched path, is ``compute_forces_cells_loop`` in
``tests/oracles.py``.

All apply a plain truncation at the cutoff (no switching function), as
the paper's LJ-only custom force field does, and optionally shift the
potential so V(R_c) = 0 for energy bookkeeping.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.backends import ForceBackend, resolve_backend
from repro.md.cells import CellGrid
from repro.md.cellstate import CellState, RowBands, engine_pack_fn, engine_skin
from repro.md.kernels import lj_scalar_energy, pair_forces_energy, scatter_add
from repro.md.params import LJTable
from repro.md.pairplan import ROWS_PER_CELL, CellPairPlan, plan_for_grid
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


def _shift_rows(rb: RowBands, plan: CellPairPlan) -> np.ndarray:
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

    def __init__(self, rb: RowBands, plan: CellPairPlan, spc, multi: bool):
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
    state: CellState,
) -> Tuple[np.ndarray, float]:
    """Per-offset numpy pass over a :class:`CellState`'s band lists.

    Runs the exact float64 ``r2 < cutoff2`` recheck over the stored band
    lists, per half-shell offset in the flat ``(cell, slot_i, slot_j)``
    order of a fresh search.  The band (cutoff + skin, conservative f32
    margin) is a superset of every pair within the cutoff while no
    particle has moved more than skin/2, extra band pairs fail the same
    ``r2 >= cutoff2`` test and contribute exact-zero weights, and
    float64 bincount accumulation absorbs interleaved exact zeros
    bit-for-bit — so **forces are bitwise identical** whichever build
    the lists came from (a fresh stateless one, or one many steps
    old).  The per-offset energy
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
        # Widened once per offset: numpy's gathers and bincounts cast
        # int32 indices to intp on every call (a ~20% slower pass).
        a, b = a.astype(np.intp), b.astype(np.intp)
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

    The SoA lowering of the band lists: the layout's int32 bank-row
    ``(a, b)`` entries as one flat ``(i_idx, j_idx)`` stream (views of
    the layout, not copies) and a per-pair int32 shift-row index
    (``-1`` for the unshifted bulk) into the plan's ``(n_rows, 3)``
    shift table.  Everything depends only on the band lists, so it is
    computed once per rebuild and cached on the
    :class:`~repro.md.cellstate.CellState` under ``"flat"``.
    """

    __slots__ = ("a", "b", "srow", "stab")

    def __init__(self, rb: RowBands, plan: CellPairPlan):
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
    state: CellState,
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


def compute_forces_cells(
    system: ParticleSystem,
    grid: CellGrid,
    shift: bool = False,
    state: Optional[CellState] = None,
    force_impl: Optional[str] = None,
) -> Tuple[np.ndarray, float]:
    """Cell-list + half-shell LJ forces and potential energy (batched).

    The cutoff equals ``grid.cell_edge``.  Every call evaluates over
    the band lists of a :class:`~repro.md.cellstate.CellState` built
    with :func:`~repro.md.cellstate.engine_pack_fn`: the exact float64
    ``r2 < cutoff2`` admission, the fused LJ kernel once per offset and
    bincount accumulation — Newton's third law applied exactly once per
    pair, whatever the occupancy.  Matches the per-cell loop oracle
    (``tests/oracles.py``) to float64 round-off.

    With a persistent ``state``, steps that pass the skin/2 +
    same-binning criterion skip binning and band search entirely: forces
    bitwise equal to the stateless call, energy equal to float64
    round-off (:func:`_forces_cells_reuse`).  This is the
    :class:`~repro.md.engine.ReferenceEngine` path; ``state=None`` is
    the stateless one-shot evaluation, which builds a throwaway compact
    state with the engine's default skin and takes the same pass.

    Positions must lie in the closed box ``[0, box]``: a finite
    position outside it raises :class:`ValidationError` (the cell
    binning would file it under the wrong image).  Non-finite positions
    are left to the health guards.

    ``force_impl`` selects the force backend (see
    :mod:`repro.md.backends`): ``None`` uses the process-wide default
    (``"numpy"`` unless overridden), ``"numpy"`` takes the per-offset
    numpy pass, and ``"cext"`` routes the same admission through its
    fused flat kernel — identical admitted pairs, forces/energy within
    the documented round-off bound.
    """
    if not np.allclose(grid.box, system.box):
        raise ValidationError(
            f"grid box {grid.box} does not match system box {system.box}"
        )
    pos = system.positions
    outside = (pos < 0.0) | (pos > system.box)
    if outside.any():
        i = int(np.flatnonzero(outside.any(axis=1))[0])
        raise ValidationError(
            f"particle {i} at {pos[i]} lies outside the box {system.box}; "
            "wrap the positions first"
        )
    cutoff2 = grid.cell_edge * grid.cell_edge
    shift_e = _cutoff_shift(system.lj_table, grid.cell_edge, shift)
    spc = system.species
    lj = system.lj_table
    plan = plan_for_grid(grid)
    backend = resolve_backend(force_impl)
    if state is None:
        skin = engine_skin(grid.cell_edge)
        state = CellState(grid, plan, skin, engine_pack_fn(grid, plan, skin))
    state.ensure(pos, backend)
    if backend.lj_flat is not None:
        return _forces_cells_flat(
            pos, spc, lj, plan, cutoff2, shift_e, state, backend
        )
    return _forces_cells_reuse(pos, spc, lj, plan, cutoff2, shift_e, state)
