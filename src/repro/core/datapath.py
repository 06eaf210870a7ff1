"""Functional model of the PE datapath: pair filter and force pipeline.

This reproduces the *numerics* of the hardware (paper Secs. 3.3-3.4,
Fig. 6) without simulating gates:

* positions arrive as fixed-point RCID + in-cell fraction coordinates in
  ``[1, 4)`` normalized units (cell edge = cutoff = 1);
* the **filter** computes the squared distance and admits pairs with
  ``r2 < R_c^2 = 1``; r2 is converted to float32 ("full utilization of
  the precision of both fixed-point raw positions and floating-point
  r2", paper Sec. 3.4);
* the **force pipeline** looks up per-element-pair coefficients, fetches
  interpolated ``r**-14`` / ``r**-8`` from the table set, and assembles
  the force vector, all in float32;
* an **energy path** (the 12/6 tables) tracks the LJ potential for the
  Fig. 19 energy-conservation comparison.

Everything is vectorized over pair arrays — one call models a batch of
pairs flowing through all of a PE's filters and its pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.arith.fixedpoint import FixedPointFormat
from repro.arith.interp import ForceTableSet
from repro.md.params import LJTable
from repro.util.errors import ValidationError


@dataclass
class FilterResult:
    """Outcome of a batch of pair-filter checks.

    Attributes
    ----------
    mask:
        Boolean array: pair admitted to the force pipeline.
    r2:
        float32 squared distances (normalized units) of *admitted* pairs.
    n_candidates / n_accepted:
        Counts for utilization accounting.
    """

    mask: np.ndarray
    r2: np.ndarray
    n_candidates: int
    n_accepted: int


class PairFilter:
    """The preliminary pair filter (paper Sec. 2.2 / Fig. 6 left).

    Parameters
    ----------
    r2_min:
        Exclusion threshold: pairs closer than this are non-physical
        (inside the table's excluded small-r region, paper Fig. 7) and
        rejected.  In a healthy simulation no pair ever lands there; the
        filter raises if one does, because silently dropping it would
        corrupt the physics.
    """

    def __init__(self, r2_min: float):
        if not 0.0 < r2_min < 1.0:
            raise ValidationError(f"r2_min must be in (0, 1), got {r2_min}")
        self.r2_min = float(r2_min)

    def check(self, dr: np.ndarray) -> FilterResult:
        """Filter displacement vectors ``dr`` (normalized, exact fixed-point
        differences).  Returns admitted mask and float32 r2 values."""
        dr = np.asarray(dr, dtype=np.float64)
        r2_exact = np.einsum("...k,...k->...", dr, dr)
        return self.admit_r2(r2_exact)

    def admit_r2(self, r2_exact: np.ndarray) -> FilterResult:
        """Filter precomputed exact float64 squared distances.

        The padded-broadcast fast path computes candidate ``r2`` without
        materializing every ``dr``; this entry point applies the exact
        same float32 conversion, cutoff test and small-r guard as
        :meth:`check`, so both paths admit bitwise-identical pair sets.
        """
        r2_f32 = np.asarray(r2_exact, dtype=np.float64).astype(np.float32)
        mask = r2_f32 < np.float32(1.0)
        below = mask & (r2_f32 < np.float32(self.r2_min))
        if np.any(below):
            raise ValidationError(
                f"{int(np.count_nonzero(below))} pair(s) inside the excluded "
                f"small-r region (r2 < {self.r2_min}); the simulation has "
                "collapsed or the dataset violates the minimum distance"
            )
        return FilterResult(
            mask=mask,
            r2=r2_f32[mask],
            n_candidates=int(mask.size),
            n_accepted=int(np.count_nonzero(mask)),
        )


class ForcePipeline:
    """The table-lookup force pipeline (paper Sec. 3.4, Fig. 6 right).

    Parameters
    ----------
    lj_table:
        Physical-unit LJ table; coefficients are pre-scaled to normalized
        space and folded with the force unit conversion, then rounded to
        float32 — the coefficient ROM image.
    cutoff:
        Cell edge / cutoff radius in angstrom (the normalization length).
    tables:
        Shared interpolation table set (one ROM image per machine).
    """

    def __init__(self, lj_table: LJTable, cutoff: float, tables: ForceTableSet):
        self.tables = tables
        norm = lj_table.scaled(cutoff)
        # Forces from normalized displacements are per-normalized-length;
        # fold the 1/cutoff back to physical kcal/mol/A in the ROM so the
        # pipeline emits physical forces directly.
        self._c14 = (norm.c14 / cutoff).astype(np.float32)
        self._c8 = (norm.c8 / cutoff).astype(np.float32)
        self._c12 = norm.c12.astype(np.float32)
        self._c6 = norm.c6.astype(np.float32)

    def compute(
        self,
        dr: np.ndarray,
        r2: np.ndarray,
        species_i: np.ndarray,
        species_j: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Force vectors (float32, kcal/mol/A) and pair energies (float32).

        Parameters
        ----------
        dr:
            ``(P, 3)`` admitted displacement vectors ``x_i - x_j`` in
            normalized units.
        r2:
            ``(P,)`` float32 squared distances from the filter.
        species_i / species_j:
            Element codes of the two particles (index the coefficient ROM).
        """
        r2 = np.asarray(r2, dtype=np.float32)
        dr32 = np.asarray(dr, dtype=np.float32)
        # One section/bin decode feeds all four coefficient ROMs, as in
        # hardware.  The upstream filter guarantees the domain.
        from repro.arith.interp import section_bin_indices

        ts = self.tables
        s, b = section_bin_indices(
            r2.astype(np.float64), ts.n_s, ts.n_b, checked=False
        )
        inv14 = ts[14].evaluate_f32_at(s, b, r2)
        inv8 = ts[8].evaluate_f32_at(s, b, r2)
        scalar = self._c14[species_i, species_j] * inv14 - self._c8[
            species_i, species_j
        ] * inv8
        forces = scalar[:, None] * dr32
        inv12 = ts[12].evaluate_f32_at(s, b, r2)
        inv6 = ts[6].evaluate_f32_at(s, b, r2)
        energies = (
            self._c12[species_i, species_j] * inv12
            - self._c6[species_i, species_j] * inv6
        )
        return forces, energies


class TabulatedRadialPipeline:
    """A force pipeline for *any* radial kernel — the generality claim.

    Paper Sec. 3.4: "a further benefit of this method is that it
    supports generality by enabling different force models to be
    implemented with trivial modification."  The modification is
    literally a different ROM image: this pipeline carries one force
    table ``S'(r2')`` and one energy table ``E'(r2')`` in normalized
    units (cell edge = cutoff = 1) and computes

        F_vec = scale_ij * S'(r2') * dr'      [kcal/mol/A]
        V     = scale_ij * E'(r2')            [kcal/mol]

    where ``scale_ij`` is the per-pair coefficient (e.g. ``q_i * q_j``
    for electrostatics, 1.0 for a pre-folded kernel).  The section/bin
    indexing, float32 MAC, and filter stage are identical to the LJ
    pipeline — same hardware, new contents.

    Use :meth:`from_physical` to build the normalized tables from a
    physical-unit kernel.
    """

    def __init__(self, force_table, energy_table):
        self.force_table = force_table
        self.energy_table = energy_table

    @classmethod
    def from_physical(
        cls,
        force_scalar_fn,
        energy_scalar_fn,
        cutoff: float,
        n_s: int = 14,
        n_b: int = 256,
    ) -> "TabulatedRadialPipeline":
        """Build from physical-unit radial kernels.

        Parameters
        ----------
        force_scalar_fn:
            ``S(r2_phys)`` with ``F_vec = scale * S * dr_phys``
            (kcal/mol/A per angstrom of displacement).
        energy_scalar_fn:
            ``E(r2_phys)`` with ``V = scale * E`` (kcal/mol).
        cutoff:
            Normalization length (cell edge) in angstrom.

        The normalized force table folds both the argument scaling
        (``r2 = cutoff^2 * r2'``) and the displacement scaling
        (``dr = cutoff * dr'``) so the pipeline emits physical forces
        from normalized inputs.
        """
        from repro.arith.interp import RadialTable  # local: avoid cycle

        c2 = cutoff * cutoff
        force_table = RadialTable(
            lambda r2n: force_scalar_fn(c2 * np.asarray(r2n)) * cutoff,
            n_s=n_s,
            n_b=n_b,
        )
        energy_table = RadialTable(
            lambda r2n: energy_scalar_fn(c2 * np.asarray(r2n)), n_s=n_s, n_b=n_b
        )
        return cls(force_table, energy_table)

    def compute(
        self,
        dr: np.ndarray,
        r2: np.ndarray,
        pair_scale: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Force vectors (float32) and pair energies (float32).

        Parameters
        ----------
        dr:
            ``(P, 3)`` admitted displacements in normalized units.
        r2:
            ``(P,)`` float32 squared distances from the filter.
        pair_scale:
            ``(P,)`` per-pair coefficients (float32-convertible).
        """
        r2 = np.asarray(r2, dtype=np.float32)
        dr32 = np.asarray(dr, dtype=np.float32)
        scale = np.asarray(pair_scale, dtype=np.float32)
        scalar = scale * self.force_table.evaluate_f32(r2)
        forces = scalar[:, None] * dr32
        energies = scale * self.energy_table.evaluate_f32(r2)
        return forces, energies


#: The largest float64 below 1.0, where an in-cell fraction is clamped.
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def quantize_cell_fractions(
    positions: np.ndarray,
    cell_coords: np.ndarray,
    cell_edge: float,
    fmt: FixedPointFormat,
) -> np.ndarray:
    """In-cell fixed-point fractions for each particle.

    ``frac = position / cell_edge - cell_coord``, quantized to the
    position format.  This is the Position Cache contents (PC stores
    "fixed-point positions representing position offsets in a cell",
    paper Sec. 3.1).
    """
    frac = positions / cell_edge - cell_coords
    # Numerical safety: clamp tiny negative / >=1 excursions from the
    # division before quantizing (a particle exactly on a face).  The
    # clamp is the one range pass: only a NaN gets past it, and
    # ``quantize_unit`` refuses that.
    np.clip(frac, 0.0, _BELOW_ONE, out=frac)
    return fmt.quantize_unit(frac)
