"""The double-precision reference MD engine (OpenMM numerical stand-in).

:class:`ReferenceEngine` wires the cell grid, the cell-list force kernel,
and velocity-Verlet into a timestep loop with energy bookkeeping — the
64-bit baseline the paper compares FASDA against in Fig. 19.  Like the
machine layers it has one stepping path: every force pass goes through
its persistent skin-banded :class:`~repro.md.cellstate.CellState`.  The
rebuild-every-step oracle it must match bitwise lives in
``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import List, Optional

import numpy as np

from repro.md.cells import CellGrid
from repro.md.cellstate import CellState, engine_pack_fn, engine_skin
from repro.md.integrator import VelocityVerlet
from repro.md.pairplan import plan_for_grid
from repro.md.reference import compute_forces_cells
from repro.md.system import ParticleSystem
from repro.util.errors import ValidationError


@dataclass
class EnergyRecord:
    """Per-step energy sample in kcal/mol."""

    step: int
    kinetic: float
    potential: float

    @property
    def total(self) -> float:
        """Total (conserved) energy."""
        return self.kinetic + self.potential


@dataclass
class ReferenceEngine:
    """Cell-list LJ MD in float64.

    Parameters
    ----------
    system:
        The particle system; mutated in place by :meth:`run`.
    grid:
        Cell grid whose edge equals the cutoff radius and whose box
        matches the system box.
    dt_fs:
        Timestep in femtoseconds.
    shift:
        Shift the LJ potential to zero at the cutoff (improves energy
        conservation of the truncated potential; off by default to match
        the paper's plain truncation).
    reuse_state:
        Retired: the engine always keeps its skin-banded
        :class:`~repro.md.cellstate.CellState` across steps, so force
        passes skip binning and candidate search until a particle moves
        more than skin/2 or changes cell.  Forces (and therefore
        trajectories) are bitwise identical to rebuilding the state
        every step; recorded potentials agree to float64 round-off on
        ``numpy`` (the per-offset energy sums run over band lists of
        different length) and bitwise on ``cext``.  ``True`` is still
        accepted and selects nothing; ``False`` raises.
    reuse_skin:
        Skin margin in angstrom of the cell state's band lists; defaults
        to :func:`~repro.md.cellstate.engine_skin` (``0.15 * cutoff``).
    force_impl:
        Force backend (see :mod:`repro.md.backends`): ``None`` uses the
        process-wide default, ``"numpy"`` the per-offset numpy path,
        ``"cext"`` the fused flat kernel (identical admitted pairs;
        forces/energy within the documented round-off bound; an
        unavailable ``cext`` falls back to ``"numpy"``).
    """

    system: ParticleSystem
    grid: CellGrid
    dt_fs: float = 2.0
    shift: bool = False
    reuse_state: InitVar[Optional[bool]] = None
    reuse_skin: Optional[float] = None
    force_impl: Optional[str] = None
    history: List[EnergyRecord] = field(default_factory=list)
    _integrator: VelocityVerlet = field(init=False)
    _primed: bool = field(init=False, default=False)
    _prime_recorded: bool = field(init=False, default=False)
    _last_potential: float = field(init=False, default=0.0)
    _cell_state: Optional[CellState] = field(init=False, default=None)

    def __post_init__(self, reuse_state: Optional[bool]) -> None:
        if reuse_state is not None and not reuse_state:
            raise ValidationError(
                "ReferenceEngine(reuse_state=False) is retired: the engine "
                "always steps through its persistent CellState"
            )
        if not np.allclose(self.grid.box, self.system.box):
            raise ValidationError("grid box must match system box")
        self._integrator = VelocityVerlet(self.dt_fs)

    def ensure_cell_state(self) -> CellState:
        """Create (once) and return the persistent :class:`CellState`.

        Creation does not build the band lists — that happens on the
        next force pass.  Exposed so checkpoint restore can reattach the
        reuse counters before the engine runs again.  Like the
        machine's, the state lists its band on every build, whatever the
        occupancy.
        """
        if self._cell_state is None:
            skin = self.reuse_skin
            if skin is None:
                skin = engine_skin(self.grid.cell_edge)
            plan = plan_for_grid(self.grid)
            self._cell_state = CellState(
                self.grid, plan, skin, engine_pack_fn(self.grid, plan, skin)
            )
        return self._cell_state

    def _force_fn(self, system: ParticleSystem):
        return compute_forces_cells(
            system,
            self.grid,
            shift=self.shift,
            state=self.ensure_cell_state(),
            force_impl=self.force_impl,
        )

    @property
    def state_builds(self) -> int:
        """Cumulative CellState rebuilds (0 before the first force pass)."""
        return self._cell_state.builds if self._cell_state is not None else 0

    def _prime(self) -> float:
        """Evaluate initial forces once; later calls reuse the record."""
        if not self._primed:
            self._last_potential = self._integrator.prime(self.system, self._force_fn)
            self._primed = True
        return self._last_potential

    def potential_energy(self) -> float:
        """Potential energy of the current configuration.

        On a not-yet-primed engine this doubles as the priming force
        pass — :meth:`run` then reuses the stored record instead of
        re-evaluating the same configuration (historically this cost a
        second identical ``_force_fn`` call).  On a primed engine it
        evaluates fresh (the caller may have perturbed the system) and
        leaves the integrator state untouched.
        """
        if not self._primed:
            return self._prime()
        _, potential = self._force_fn(self.system)
        return potential

    def run(
        self, n_steps: int, record_every: int = 1, start_step: int = 0
    ) -> List[EnergyRecord]:
        """Advance ``n_steps``, appending energy records.

        Returns the records appended by this call.
        """
        if n_steps < 0:
            raise ValidationError("n_steps must be >= 0")
        appended: List[EnergyRecord] = []
        if not self._prime_recorded:
            self._last_potential = self._prime()
            self._prime_recorded = True
            rec = EnergyRecord(start_step, self.system.kinetic_energy(), self._last_potential)
            self.history.append(rec)
            appended.append(rec)
        for i in range(1, n_steps + 1):
            self._last_potential = self._integrator.step(self.system, self._force_fn)
            if record_every and i % record_every == 0:
                rec = EnergyRecord(
                    start_step + i, self.system.kinetic_energy(), self._last_potential
                )
                self.history.append(rec)
                appended.append(rec)
        return appended
