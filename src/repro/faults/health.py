"""Numerical health guards and poisoned-job records for batched stepping.

PR 7 packed K independent tenants into one shared SoA row space; this
module bounds the blast radius of any single ill-conditioned tenant
(overlapping atoms, corrupt upload, too-large dt).  The design follows
the same discipline as the rest of the fault layer:

* **Guards are read-only.**  Every check compares values the step
  already produced (the drift displacement buffer, the fresh force
  columns, the per-segment energy vector) against thresholds; no state
  array is ever written, so a guarded trajectory is bitwise identical
  to an unguarded one — the same contract ``CellState`` reuse makes
  with the rebuild-every-step path.
* **Attribution is segment-wise.**  A global O(N) screen (three column
  sums, one ``isfinite``) runs every step; only when it trips does the
  per-segment ``reduceat`` attribution run, exactly the shape
  :meth:`~repro.md.batch.BatchedEngine._rebuild_mask` already uses.
  Healthy-path overhead stays in the low single percent (see
  DESIGN.md §12).
* **Chaos is keyed-RNG.**  :class:`JobChaosPlan` derives every
  poison decision from the keyed stream of ``(seed, salt, job_index)``
  (:func:`~repro.faults.keyed.keyed_rng`) like
  :class:`~repro.faults.plan.FaultInjector`, so a chaos soak replays
  bit-for-bit from its seed with no injector state to persist.

The typed error lives in :mod:`repro.util.errors`
(:class:`~repro.util.errors.JobPoisonedError`); the quarantine
machinery itself is :meth:`repro.md.batch.BatchedEngine` swap-out plus
the scheduler in :mod:`repro.harness.jobs`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.faults.keyed import keyed_rng
from repro.util.errors import JobPoisonedError, ValidationError

#: Poison reasons a guard can record (stable strings — they go into
#: journals and CI artifacts).
REASON_INPUT = "nonfinite_input"
REASON_DISPLACEMENT = "max_displacement"
REASON_FORCE = "nonfinite_force"
REASON_ENERGY = "nonfinite_energy"
REASON_DRIFT = "energy_drift"

#: Keyed-RNG domain separation salt for chaos poison decisions
#: (ASCII "POIS", mirroring the transport injector's salts).
_SALT_POISON = 0x504F_4953


@dataclass(frozen=True)
class GuardConfig:
    """Health-guard policy for one :class:`~repro.md.batch.BatchedEngine`.

    Parameters
    ----------
    max_step_displacement:
        Trip when any particle moves further than this (angstrom) in a
        single drift.  ``None`` defaults to ``0.25 * cell_edge`` at
        engine attach time — two orders of magnitude above a thermal
        2 fs step, far below anything that could corrupt binning.
        The same check catches non-finite positions: a NaN/Inf
        displacement never compares ``<=`` the threshold.
    energy_drift_tol:
        Optional watchdog: trip a *thermostat-free* segment whose total
        energy (kinetic + potential) drifted more than this fraction of
        its reference magnitude since priming.  ``None`` (default)
        disables the watchdog — it is the one guard that costs an extra
        per-row multiply, and thermostatted segments exchange energy by
        design so they are always exempt.
    check_input:
        Screen systems at admission: non-finite positions or velocities
        raise :class:`~repro.util.errors.JobPoisonedError` before the
        system ever touches the shared arrays.
    """

    max_step_displacement: Optional[float] = None
    energy_drift_tol: Optional[float] = None
    check_input: bool = True

    def resolved_max_disp(self, cell_edge: float) -> float:
        if self.max_step_displacement is not None:
            if self.max_step_displacement <= 0:
                raise ValidationError(
                    "max_step_displacement must be positive"
                )
            return float(self.max_step_displacement)
        return 0.25 * float(cell_edge)


@dataclass
class PoisonRecord:
    """One guard trip: which segment, when, why, and how badly.

    ``value``/``threshold`` hold the offending magnitude and the limit
    it crossed (squared-displacement trips are reported in angstrom,
    not angstrom²).  ``segment_steps`` is the number of steps the
    segment had completed when the trip was detected — the scheduler
    uses it for retry accounting.  ``system`` optionally carries the
    extracted (poisoned) final state for forensics; it never enters a
    journal.
    """

    handle: int
    step: int
    reason: str
    value: float
    threshold: float
    segment_steps: int = 0
    system: Optional[object] = None

    def asdict(self) -> Dict[str, Any]:
        """JSON-safe form (drops the forensic state array payload)."""
        return {
            "handle": int(self.handle),
            "step": int(self.step),
            "reason": self.reason,
            "value": float(self.value),
            "threshold": float(self.threshold),
            "segment_steps": int(self.segment_steps),
        }


def check_system_finite(positions: np.ndarray, velocities: np.ndarray,
                        handle: int = -1) -> None:
    """Admission screen: raise :class:`JobPoisonedError` on NaN/Inf state.

    One-time O(N) cost per admission, never on the step path.
    """
    for name, arr in (("positions", positions), ("velocities", velocities)):
        if not np.isfinite(arr).all():
            bad = int(np.count_nonzero(~np.isfinite(arr)))
            record = PoisonRecord(
                handle=handle, step=0, reason=REASON_INPUT,
                value=float(bad), threshold=0.0,
            )
            raise JobPoisonedError(
                f"input system carries {bad} non-finite {name} "
                "component(s); refusing admission to the shared batch",
                record=record,
            )


# ---------------------------------------------------------------------------
# Deterministic chaos: seeded poison injection for soak tests
# ---------------------------------------------------------------------------

#: Poison modes the chaos plan can inject, and what they exercise:
#: ``nan_velocity`` is caught by the admission screen, ``kick`` by the
#: max-displacement tripwire on the first chunk, ``overlap`` by the
#: finite-force/energy guard once the pair explodes.
CHAOS_MODES = ("nan_velocity", "kick", "overlap")


@dataclass(frozen=True)
class JobChaosPlan:
    """Keyed-RNG selection of which jobs to poison, and how.

    Every decision is a pure function of ``(seed, job_index)`` —
    re-running a soak with the same seed poisons the same jobs the same
    way, which is what lets the CI chaos leg assert exact quarantine
    counts and bitwise survivor parity.
    """

    seed: int = 0
    poison_rate: float = 0.0
    modes: Tuple[str, ...] = CHAOS_MODES

    def __post_init__(self):
        if not 0.0 <= self.poison_rate <= 1.0:
            raise ValidationError("poison_rate must be in [0, 1]")
        for m in self.modes:
            if m not in CHAOS_MODES:
                raise ValidationError(f"unknown chaos mode {m!r}")

    def decide(self, job_index: int) -> Optional[str]:
        """The poison mode for this job, or ``None`` (healthy)."""
        rng = keyed_rng(self.seed, _SALT_POISON, job_index)
        if rng.random() >= self.poison_rate:
            return None
        return self.modes[int(rng.integers(len(self.modes)))]

    def poison(self, system, job_index: int):
        """Return a poisoned *copy* of ``system`` per :meth:`decide`.

        Returns the untouched original when the decision is healthy.
        """
        mode = self.decide(job_index)
        if mode is None:
            return system
        rng = keyed_rng(self.seed, _SALT_POISON, job_index)
        rng.random()            # burn the decision draws so the
        rng.integers(1)         # corruption site is independent
        out = system.copy()
        j = int(rng.integers(out.n))
        if mode == "nan_velocity":
            out.velocities[j, 0] = np.nan
        elif mode == "kick":
            # Huge but finite: sails past any admission screen, trips
            # the displacement guard on the first drift.
            out.velocities[j] = 1.0e6
        elif mode == "overlap":
            # Two near-coincident atoms: r^-12 explodes into Inf force
            # and energy within the first force pass.
            k = int(rng.integers(out.n - 1))
            k = k if k < j else k + 1
            out.positions[k] = out.positions[j] + 1.0e-7
        return out


__all__ = [
    "CHAOS_MODES",
    "GuardConfig",
    "JobChaosPlan",
    "PoisonRecord",
    "REASON_DISPLACEMENT",
    "REASON_DRIFT",
    "REASON_ENERGY",
    "REASON_FORCE",
    "REASON_INPUT",
    "check_system_finite",
]
