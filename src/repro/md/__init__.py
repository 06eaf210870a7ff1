"""Molecular-dynamics substrate: the numerical reference implementation.

This package is the reproduction's stand-in for OpenMM: a from-scratch,
double-precision, LJ-only range-limited MD engine with cell lists, the
half-shell method, periodic boundaries, and velocity-Verlet integration.
It serves three roles:

* the golden model that the FASDA machine's fixed-point/table-lookup
  datapath is validated against (paper Fig. 19);
* the workload generator for the paper's custom dataset (64 sodium atoms
  per cell, Sec. 5.1);
* a plain, readable statement of the algorithm the accelerator implements.
"""

from repro.md.cells import CellGrid, HALF_SHELL_OFFSETS
from repro.md.dataset import build_dataset
from repro.md.engine import ReferenceEngine
from repro.md.forcefield import (
    CompositeKernel,
    EwaldRealKernel,
    LennardJonesKernel,
    compute_forces_kernel,
)
from repro.md.integrator import VelocityVerlet
from repro.md.kernels import pair_forces_energy, scatter_add
from repro.md.pairplan import (
    CellPairPlan,
    candidates_per_cell,
    iter_pair_chunks,
    plan_for_dims,
    plan_for_grid,
)
from repro.md.params import Element, ELEMENTS, LJTable
from repro.md.reference import compute_forces_bruteforce, compute_forces_cells
from repro.md.minimize import minimize
from repro.md.system import ParticleSystem
from repro.md.thermostat import BerendsenThermostat, VelocityRescaleThermostat

__all__ = [
    "ParticleSystem",
    "CellGrid",
    "HALF_SHELL_OFFSETS",
    "Element",
    "ELEMENTS",
    "LJTable",
    "VelocityVerlet",
    "ReferenceEngine",
    "compute_forces_cells",
    "compute_forces_bruteforce",
    "compute_forces_kernel",
    "CellPairPlan",
    "plan_for_grid",
    "plan_for_dims",
    "iter_pair_chunks",
    "candidates_per_cell",
    "pair_forces_energy",
    "scatter_add",
    "LennardJonesKernel",
    "EwaldRealKernel",
    "CompositeKernel",
    "BerendsenThermostat",
    "VelocityRescaleThermostat",
    "minimize",
    "build_dataset",
]
