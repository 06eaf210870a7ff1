"""Short-range (real-space) Ewald electrostatics — the other RL force.

Paper Sec. 2.1: "RL forces have two components: the short range term of
the electrostatic force obtained using the Particle Mesh Ewald (PME)
method, and the force deduced from the Lennard-Jones potential ... in
any case the RL force pipelines are nearly identical."  The paper's
evaluation enables only LJ, but the architecture is explicitly built to
host this term too, so the reproduction provides it.

The Ewald decomposition splits Coulomb interactions into a smooth
long-range part (solved on a mesh — out of scope here, as in the paper)
and a short-range real-space part that decays fast enough for a cutoff:

    V_ij = C q_i q_j erfc(beta * r) / r
    F_ij = C q_i q_j [ erfc(beta * r) / r^2
                       + 2 beta / sqrt(pi) * exp(-beta^2 r^2) / r ] r_hat

with ``beta`` the Ewald splitting parameter chosen so erfc(beta * R_c)
is below the error tolerance.  Like every radial force, it reduces to a
scalar function of r^2 times the displacement vector — exactly the form
the FASDA pipeline's indexed tables evaluate (see
:class:`repro.core.datapath.TabulatedRadialPipeline`).

``erfc`` comes from :mod:`scipy.special`, imported inside the three
functions that call it: scipy is needed only for the Ewald terms, and
its import alone costs a simulating process about 21 MB.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.md.kernels import scatter_add
from repro.util.errors import ValidationError

#: Coulomb constant in kcal/mol * A / e^2 (CHARMM/AMBER convention).
COULOMB_KCAL_MOL_A = 332.0637133


def choose_beta(cutoff: float, tolerance: float = 1e-5) -> float:
    """Smallest Ewald splitting parameter with erfc(beta*Rc) <= tolerance.

    Solved by bisection; the standard OpenMM/Amber heuristic.
    """
    from scipy.special import erfc

    if not 0 < tolerance < 1:
        raise ValidationError("tolerance must be in (0, 1)")
    if cutoff <= 0:
        raise ValidationError("cutoff must be positive")
    lo, hi = 0.0, 10.0 / cutoff
    while erfc(hi * cutoff) > tolerance:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if erfc(mid * cutoff) > tolerance:
            lo = mid
        else:
            hi = mid
    return hi


def ewald_real_scalar(r2: np.ndarray, beta: float) -> np.ndarray:
    """The radial force kernel S(r2) with F_vec = q_i q_j S(r2) * dr.

    ``S(r2) = C [ erfc(beta r)/r^3 + 2 beta/sqrt(pi) exp(-beta^2 r^2)/r^2 ]``
    (the extra 1/r converts the r_hat direction into the raw dr vector).
    """
    from scipy.special import erfc

    r2 = np.asarray(r2, dtype=np.float64)
    r = np.sqrt(r2)
    return COULOMB_KCAL_MOL_A * (
        erfc(beta * r) / (r2 * r)
        + (2.0 * beta / np.sqrt(np.pi)) * np.exp(-beta * beta * r2) / r2
    )


def ewald_real_energy_scalar(r2: np.ndarray, beta: float) -> np.ndarray:
    """Pair energy kernel: V = q_i q_j * E(r2), E = C erfc(beta r)/r."""
    from scipy.special import erfc

    r2 = np.asarray(r2, dtype=np.float64)
    r = np.sqrt(r2)
    return COULOMB_KCAL_MOL_A * erfc(beta * r) / r


def ewald_real_forces_bruteforce(
    positions: np.ndarray,
    charges: np.ndarray,
    box: np.ndarray,
    cutoff: float,
    beta: float,
) -> Tuple[np.ndarray, float]:
    """O(N^2) minimum-image real-space Ewald forces and energy.

    Reference implementation for validating the cell-list and tabulated
    paths; use only on small systems.
    """
    positions = np.asarray(positions, dtype=np.float64)
    charges = np.asarray(charges, dtype=np.float64)
    n = len(positions)
    if charges.shape != (n,):
        raise ValidationError("charges must be (N,)")
    forces = np.zeros_like(positions)
    ii, jj = np.triu_indices(n, k=1)
    dr = positions[ii] - positions[jj]
    dr -= box * np.rint(dr / box)
    r2 = np.sum(dr * dr, axis=1)
    mask = r2 < cutoff * cutoff
    ii, jj, dr, r2 = ii[mask], jj[mask], dr[mask], r2[mask]
    if len(r2) == 0:
        return forces, 0.0
    qq = charges[ii] * charges[jj]
    f = (qq * ewald_real_scalar(r2, beta))[:, None] * dr
    scatter_add(forces, ii, f)
    scatter_add(forces, jj, -f)
    energy = float(np.sum(qq * ewald_real_energy_scalar(r2, beta)))
    return forces, energy
