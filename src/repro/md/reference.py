"""Double-precision reference force evaluation (the golden model).

Two implementations of the range-limited LJ force (paper Eqs. 1-2):

* :func:`compute_forces_cells` — cell-list/half-shell evaluation over
  the skin-banded pair lists of a throwaway
  :class:`~repro.md.cellstate.CellState`, through the one float64
  stepping path: the priming pass of a one-segment
  :class:`~repro.md.batch.BatchedEngine`, whose backend kernel
  ``lj_flat_seg`` runs the exact cutoff test, the LJ kernel and the
  force scatter.  :class:`~repro.md.engine.ReferenceEngine` steps
  through the same path; this is what the FASDA machine is compared
  against.
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

from repro.md.cells import CellGrid
from repro.md.kernels import pair_forces_energy, scatter_add
from repro.md.params import LJTable
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


def compute_forces_cells(
    system: ParticleSystem,
    grid: CellGrid,
    shift: bool = False,
    force_impl: Optional[str] = None,
) -> Tuple[np.ndarray, float]:
    """Cell-list + half-shell LJ forces and potential energy.

    The cutoff equals ``grid.cell_edge``.  The stateless one-shot
    evaluation: the priming pass of a one-segment
    :class:`~repro.md.batch.BatchedEngine` on a copy of ``system`` —
    a compact skin-banded :class:`~repro.md.cellstate.CellState` with
    the engine's default skin, the exact float64 ``r2 < cutoff2``
    admission and the backend's ``lj_flat_seg`` pass, Newton's third
    law applied exactly once per pair, whatever the occupancy.  So its
    forces and energy are bitwise those of a
    :class:`~repro.md.engine.ReferenceEngine` priming on the same
    input, and match the per-cell loop oracle (``tests/oracles.py``) to
    float64 round-off.

    Positions must lie in the closed box ``[0, box]``: a finite
    position outside it raises :class:`ValidationError` (the cell
    binning would file it under the wrong image).  Non-finite positions
    are left to the health guards.

    ``force_impl`` selects the force backend (see
    :mod:`repro.md.backends`); ``None`` uses the process-wide default.
    """
    from repro.md.batch import BatchedEngine

    _check_in_box(system, grid)
    batch = BatchedEngine(shift=shift, force_impl=force_impl)
    handle = batch.add(system, grid)
    batch.prime()
    return batch.extract(handle).forces, batch.potentials()[handle]


def _check_in_box(system: ParticleSystem, grid: CellGrid) -> None:
    """:class:`ValidationError` unless ``grid`` matches the system's box
    and every finite position lies in the closed box ``[0, box]``."""
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
