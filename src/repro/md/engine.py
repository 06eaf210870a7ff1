"""The double-precision reference MD engine (OpenMM numerical stand-in).

:class:`ReferenceEngine` steps one system with velocity-Verlet and the
cell-list LJ force, with energy bookkeeping — the 64-bit baseline the
paper compares FASDA against in Fig. 19.  It is a thin front over a
one-segment :class:`~repro.md.batch.BatchedEngine`, so solo and batched
runs share one float64 stepping path: the batch owns the packed arrays,
the persistent skin-banded :class:`~repro.md.cellstate.CellState`, the
force pass (the backend's ``lj_flat_seg``) and the buffered integrator.
The front keeps what a solo caller expects: ``system`` is the live
state, copied into the batch at the start of each call and written
back in place at its end, so changes made between calls are picked up;
an energy history; priming on first use.  The rebuild-every-step
oracle it must match bitwise lives in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import List, Optional

import numpy as np

from repro.md.batch import BatchedEngine, _Segment
from repro.md.cells import CellGrid
from repro.md.reference import _check_in_box
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
        The particle system; mutated in place by :meth:`run`, and read
        afresh by every call, so changes made between calls (a
        thermostat's velocities, a perturbation) are picked up.
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
        more than skin/2 or changes cell.  Forces, trajectories and
        recorded potentials are bitwise identical to rebuilding the
        state every step, on every backend.  ``True`` is still accepted
        and selects nothing; ``False`` raises.
    reuse_skin:
        Skin margin in angstrom of the cell state's band lists; defaults
        to :func:`~repro.md.cellstate.engine_skin` (``0.15 * cutoff``).
    force_impl:
        Force backend (see :mod:`repro.md.backends`): ``None`` uses the
        process-wide default; an unavailable ``cext`` falls back to
        ``"numpy"``.  Both run the same admitted pairs; forces and
        energy agree across backends to the documented round-off bound.
    """

    system: ParticleSystem
    grid: CellGrid
    dt_fs: float = 2.0
    shift: bool = False
    reuse_state: InitVar[Optional[bool]] = None
    reuse_skin: Optional[float] = None
    force_impl: Optional[str] = None
    history: List[EnergyRecord] = field(default_factory=list)
    _batch: BatchedEngine = field(init=False, repr=False)
    _prime_recorded: bool = field(init=False, default=False)

    def __post_init__(self, reuse_state: Optional[bool]) -> None:
        if reuse_state is not None and not reuse_state:
            raise ValidationError(
                "ReferenceEngine(reuse_state=False) is retired: the engine "
                "always steps through its persistent CellState"
            )
        if not np.allclose(self.grid.box, self.system.box):
            raise ValidationError("grid box must match system box")
        self._batch = BatchedEngine(
            dt_fs=self.dt_fs,
            shift=self.shift,
            force_impl=self.force_impl,
            reuse_skin=self.reuse_skin,
        )

    def _segment(self) -> Optional[_Segment]:
        """The batch's one segment, once the system has been admitted."""
        segs = self._batch._segments
        return segs[0] if segs else None

    def _load(self) -> _Segment:
        """Copy ``system`` into the batch, admitting it on first use."""
        _check_in_box(self.system, self.grid)
        seg = self._segment()
        if seg is None:
            self._batch.add(self.system, self.grid)
            return self._segment()
        if self.system.n != seg.n:
            raise ValidationError(
                f"the engine steps {seg.n} particles; its system now holds "
                f"{self.system.n}"
            )
        if seg.pending is not None:
            seg.pending = self.system.copy()
        else:
            b = self._batch
            b._pos[:] = self.system.positions
            b._vel[:] = self.system.velocities
            b._frc[:] = self.system.forces
        return seg

    def _store(self) -> None:
        """Write the batch's rows back into ``system``, in place."""
        b = self._batch
        self.system.positions[:] = b._pos
        self.system.velocities[:] = b._vel
        self.system.forces[:] = b._frc

    def _potential(self) -> float:
        """Potential of the last priming or step pass."""
        return float(self._batch._energies[0])

    @property
    def state_builds(self) -> int:
        """Cumulative CellState rebuilds (0 before the first force pass)."""
        seg = self._segment()
        return seg.state.builds if seg is not None else 0

    def potential_energy(self) -> float:
        """Potential energy of the current configuration.

        On a not-yet-primed engine this doubles as the priming force
        pass — :meth:`run` then reuses the stored record instead of
        re-evaluating the same configuration.  On a primed engine it
        evaluates fresh (the caller may have perturbed the system) and
        leaves the integrator state untouched.
        """
        seg = self._load()
        if seg.primed:
            return float(self._batch.evaluate()[0])
        self._batch.prime()
        self._store()
        return self._potential()

    def _record(self, step: int) -> EnergyRecord:
        self._store()
        rec = EnergyRecord(step, self.system.kinetic_energy(), self._potential())
        self.history.append(rec)
        return rec

    def run(
        self, n_steps: int, record_every: int = 1, start_step: int = 0
    ) -> List[EnergyRecord]:
        """Advance ``n_steps``, appending energy records.

        Returns the records appended by this call.
        """
        if n_steps < 0:
            raise ValidationError("n_steps must be >= 0")
        self._load()
        batch = self._batch
        appended: List[EnergyRecord] = []
        if not self._prime_recorded:
            batch.prime()
            self._prime_recorded = True
            appended.append(self._record(start_step))
        done = 0
        while done < n_steps:
            todo = n_steps - done
            if record_every:
                todo = min(todo, record_every - done % record_every)
            batch.step(todo)
            done += todo
            if record_every and done % record_every == 0:
                appended.append(self._record(start_step + done))
        self._store()
        return appended
