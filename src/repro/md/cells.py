"""Cell-space partitioning and the half-shell neighbor method (paper 2.2).

The simulation box is divided into cubic cells of edge ``R_c`` (the
cutoff radius): the smallest size that keeps the neighborhood at 26 cells
and the largest that filters pairs efficiently (paper Fig. 3).  With
Newton's third law applied, a home cell only interacts with itself plus
13 of its 26 neighbors — the *half shell* — because the other 13 send
their particles to it (paper Fig. 2(c)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.util.errors import ValidationError

#: The 13 half-shell neighbor offsets: every (dx, dy, dz) in {-1,0,1}^3
#: that is lexicographically greater than (0, 0, 0).  Together with the
#: home cell they cover each unordered cell pair exactly once.
HALF_SHELL_OFFSETS: Tuple[Tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) > (0, 0, 0)
)

#: All 26 neighbor offsets (full shell), for methods that need them.
FULL_SHELL_OFFSETS: Tuple[Tuple[int, int, int], ...] = tuple(
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
)


@dataclass(frozen=True)
class CellGrid:
    """A periodic grid of cubic cells.

    Parameters
    ----------
    dims:
        ``(Dx, Dy, Dz)`` cell counts.  Each must be >= 3 so that the 26
        neighbor cells of any cell are distinct under periodic wrap;
        smaller grids would make a neighbor image coincide with another
        and double-count pairs.
    cell_edge:
        Cell edge length in angstrom (equal to the cutoff radius).
    """

    dims: Tuple[int, int, int]
    cell_edge: float

    def __post_init__(self) -> None:
        if len(self.dims) != 3 or any(int(d) != d or d < 3 for d in self.dims):
            raise ValidationError(
                f"cell grid dims must be 3 integers >= 3, got {self.dims}"
            )
        if not self.cell_edge > 0:
            raise ValidationError("cell_edge must be positive")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def n_cells(self) -> int:
        """Total number of cells."""
        dx, dy, dz = self.dims
        return dx * dy * dz

    @property
    def box(self) -> np.ndarray:
        """Simulation box edge lengths implied by the grid."""
        return np.asarray(self.dims, dtype=np.float64) * self.cell_edge

    def cell_id(self, coords: np.ndarray) -> np.ndarray:
        """Linear cell id from integer coordinates (paper Eq. 7).

        ``CID = Dy*Dz*x + Dz*y + z`` — x-major so that travel toward
        positive x/y/z shortens ring traversal (paper 3.1).
        """
        coords = np.asarray(coords, dtype=np.int64)
        _, dy, dz = self.dims
        return dy * dz * coords[..., 0] + dz * coords[..., 1] + coords[..., 2]

    def cell_coords(self, cid: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`cell_id`: linear id -> (x, y, z)."""
        cid = np.asarray(cid, dtype=np.int64)
        _, dy, dz = self.dims
        x = cid // (dy * dz)
        rem = cid - x * dy * dz
        return np.stack([x, rem // dz, rem % dz], axis=-1)

    def coords_of_positions(self, positions: np.ndarray) -> np.ndarray:
        """Integer cell coordinates containing each (wrapped) position."""
        coords = np.floor(positions / self.cell_edge).astype(np.int64)
        # Guard against positions exactly at the upper box face after a
        # floating-point wrap landing on box length (a column at a time:
        # numpy's 3-wide broadcast is its slow path).
        for x, d in enumerate(self.dims):
            np.minimum(coords[..., x], d - 1, out=coords[..., x])
        return coords

    def wrap_coords(self, coords: np.ndarray) -> np.ndarray:
        """Wrap possibly-out-of-range integer coordinates periodically."""
        return np.mod(coords, np.asarray(self.dims, dtype=np.int64))

    def neighbor_with_shift(
        self, coord: Tuple[int, int, int], offset: Tuple[int, int, int]
    ) -> Tuple[Tuple[int, int, int], np.ndarray]:
        """Neighbor cell of ``coord`` at ``offset`` plus its image shift.

        Returns the wrapped neighbor coordinate and the position shift
        (in angstrom) that must be *added* to particles stored in the
        wrapped cell to place them in the unwrapped image adjacent to
        ``coord``.
        """
        raw = np.asarray(coord, dtype=np.int64) + np.asarray(offset, dtype=np.int64)
        wrapped = self.wrap_coords(raw)
        shift = (raw - wrapped).astype(np.float64) * self.cell_edge
        return tuple(int(c) for c in wrapped), shift


class CellList:
    """Bucketed particle indices per cell, rebuilt every timestep.

    FPGA implementations of RL rebuild neighbor lists each timestep
    (paper 2.2), so there is no margin/skin; this container mirrors that:
    a single :func:`numpy.argsort` bucket pass, then per-cell index
    slices served as views.
    """

    def __init__(self, grid: CellGrid, positions: np.ndarray):
        self._bucket(grid, grid.cell_id(grid.coords_of_positions(positions)))

    @classmethod
    def from_cids(cls, grid: CellGrid, cids: np.ndarray) -> "CellList":
        """The binning of particles whose cell ids are ``cids``, for a
        caller that has them already."""
        self = cls.__new__(cls)
        self._bucket(grid, cids)
        return self

    def _bucket(self, grid: CellGrid, cids: np.ndarray) -> None:
        self.grid = grid
        # The same stable order; on 16-bit keys numpy sorts by radix.
        keys = cids.astype(np.uint16) if grid.n_cells <= 1 << 16 else cids
        order = np.argsort(keys, kind="stable")
        self.order = order
        self.sorted_cids = cids[order]
        # start[c] .. start[c+1] indexes `order` for cell c.
        counts = np.bincount(cids, minlength=grid.n_cells)
        self.counts = counts
        self.start = np.concatenate([[0], np.cumsum(counts)])

    @classmethod
    def from_rows(
        cls,
        grid: CellGrid,
        counts: np.ndarray,
        rows: np.ndarray,
        start: Optional[np.ndarray] = None,
        sorted_cids: Optional[np.ndarray] = None,
    ) -> "CellList":
        """A binning given in bucket order: cell ``c`` holds the
        ``counts[c]`` entries of ``rows`` from ``start[c]``, such as a
        distributed node's local and halo cells over its arena rows.
        ``start`` and ``sorted_cids`` (each entry's cell), when the
        caller has them, are taken as they are."""
        self = cls.__new__(cls)
        self.grid = grid
        self.counts = np.asarray(counts, dtype=np.int64)
        if start is None:
            start = np.concatenate([[0], np.cumsum(self.counts)])
        self.start = start
        self.order = np.asarray(rows, dtype=np.int64)
        if sorted_cids is None:
            sorted_cids = np.repeat(np.arange(grid.n_cells), self.counts)
        self.sorted_cids = sorted_cids
        return self

    def particles_in_cell(self, cid: int) -> np.ndarray:
        """Particle indices (a view into the bucket order) for cell ``cid``."""
        return self.order[self.start[cid] : self.start[cid + 1]]

    def occupancies(self) -> np.ndarray:
        """Per-cell particle counts, memoized per build.

        Returns the ``counts`` array computed by the constructor's single
        bucket pass — calling this any number of times per step costs
        nothing, so hot paths (traffic accounting, :class:`StepStats`)
        may all read it without coordinating.  The array is shared, not
        copied; callers that store it across steps must copy.
        """
        return self.counts

    def cells_nonempty(self) -> np.ndarray:
        """Ids of cells containing at least one particle (int64 array)."""
        return np.nonzero(self.counts)[0]
