"""Output checks of the four workloads.

Each check is a pure function of results the workload produced and of
an independent reference, and returns the list of what disagreed (empty
when the output is correct).  The workloads count every disagreement as
failed operations; the benchmark's tests feed each check a deliberately
perturbed result and expect it to be refused.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def check_machine_forces(
    forces32: np.ndarray,
    potential: float,
    ref_forces: np.ndarray,
    ref_potential: float,
    force_tol: float,
    energy_tol: float,
) -> List[str]:
    """Machine forces and potential against the float64 reference.

    The error measures are those of ``repro.harness.acceptance``: the
    largest force-component error over the largest reference component,
    and the relative potential-energy error.
    """
    problems = []
    if forces32.shape != ref_forces.shape:
        return [f"force bank shape {forces32.shape} != {ref_forces.shape}"]
    f = forces32.astype(np.float64)
    if not np.isfinite(f).all():
        problems.append("machine forces are not finite")
    scale = max(float(np.abs(ref_forces).max()), 1e-9)
    force_err = float(np.abs(f - ref_forces).max() / scale)
    if not force_err < force_tol:
        problems.append(f"force error {force_err:.3e} >= {force_tol:g}")
    energy_err = (
        abs(potential - ref_potential) / abs(ref_potential)
        if abs(ref_potential) > 1e-9 else abs(potential - ref_potential)
    )
    if not energy_err < energy_tol:
        problems.append(f"energy error {energy_err:.3e} >= {energy_tol:g}")
    return problems


def check_distributed_forces(
    bank: np.ndarray,
    packets: int,
    machine_forces: np.ndarray,
    machine_packets: int,
    rtol: float,
) -> List[str]:
    """A distributed force pass against the single machine's.

    Both banks are on the same positions: the largest component error
    over the largest machine component must stay below ``rtol``, and
    the distributed pass must send exactly the position packets the
    machine's traffic accounting implies.
    """
    if bank.shape != machine_forces.shape:
        return [f"force bank shape {bank.shape} != {machine_forces.shape}"]
    problems = []
    ref = machine_forces.astype(np.float64)
    scale = max(float(np.abs(ref).max()), 1e-9)
    err = float(np.abs(bank.astype(np.float64) - ref).max() / scale)
    if not err < rtol:
        problems.append(f"force error {err:.3e} >= {rtol:g}")
    if packets != machine_packets:
        problems.append(
            f"{packets} position packets != {machine_packets} accounted"
        )
    return problems


def state_digest(arrays: Sequence[np.ndarray]) -> bytes:
    """Exact byte image of a sequence of arrays (for bitwise comparison)."""
    return b"".join(
        np.ascontiguousarray(a).tobytes() + str(a.dtype).encode() for a in arrays
    )


def check_chaos_replay(
    final: Dict[str, object],
    replay: Dict[str, object],
) -> List[str]:
    """A faulted episode against its fault-free replay, bitwise.

    Both dicts carry ``positions``, ``velocities`` and ``forces`` arrays
    and ``grids``: the FPGA grid in force after each rescale boundary.
    The replay commits only the rescales the faulted run committed, so
    equal ``grids`` shows the schedule was replayed exactly and equal
    arrays show faults, recoveries and aborts left the physics intact.
    """
    problems = []
    for key in ("positions", "velocities", "forces"):
        a, b = final[key], replay[key]
        if a.shape != b.shape or not np.array_equal(a, b):
            problems.append(f"final {key} differ from the fault-free replay")
    if list(final["grids"]) != list(replay["grids"]):
        problems.append(
            f"partition sequence {final['grids']} != replay {replay['grids']}"
        )
    return problems


def check_rollbacks(
    aborts: Sequence[Tuple[Dict[str, object], Dict[str, object]]],
) -> List[str]:
    """Every aborted rescale left the machine exactly as it found it.

    ``aborts`` holds one ``(before, after)`` snapshot pair per aborted
    attempt; each snapshot maps names to arrays or plain values.
    """
    problems = []
    for i, (before, after) in enumerate(aborts):
        for key, value in before.items():
            other = after.get(key)
            if isinstance(value, np.ndarray):
                same = isinstance(other, np.ndarray) and np.array_equal(value, other)
            else:
                same = value == other
            if not same:
                problems.append(f"abort {i}: {key} not rolled back")
    return problems


def check_job_outcomes(
    statuses: Dict[int, str],
    expected: Dict[int, str],
) -> List[int]:
    """Jobs whose terminal state is not the expected one.

    Healthy jobs must finish ``done``; jobs the chaos plan poisoned must
    end ``quarantined``.  Returns the offending job ids.
    """
    return sorted(j for j, want in expected.items() if statuses.get(j) != want)


def check_job_results(
    results: Dict[int, Tuple[np.ndarray, np.ndarray]],
    solo: Dict[int, Tuple[np.ndarray, np.ndarray]],
) -> List[int]:
    """Sampled job results against solo runs, bitwise.

    Both maps go from job id to ``(positions, velocities)``.  Returns
    the ids whose result is missing or differs in any bit.
    """
    bad = []
    for job_id, (pos, vel) in solo.items():
        got: Optional[Tuple[np.ndarray, np.ndarray]] = results.get(job_id)
        if got is None or state_digest(got) != state_digest((pos, vel)):
            bad.append(job_id)
    return sorted(bad)
