"""Tests for the acceptance-matrix harness."""

import numpy as np
import pytest

from repro.core.config import MachineConfig
from repro.core.distributed import DistributedMachine
from repro.harness.acceptance import (
    ENERGY_REL_TOLERANCE,
    FORCE_REL_TOLERANCE,
    AcceptanceCase,
    default_cases,
    format_acceptance,
    run_acceptance,
    run_case,
)
from repro.md import build_dataset
from repro.md.ewald import ewald_real_energy_scalar
from repro.md.forcefield import (
    CompositeKernel,
    EwaldRealKernel,
    LennardJonesKernel,
    PairKernel,
    compute_forces_kernel,
)
from repro.md.kernels import lj_scalar_energy


class TestCases:
    def test_default_matrix_covers_key_axes(self):
        cases = default_cases()
        names = {c.name for c in cases}
        assert "ionic" in names
        assert "multi-species" in names
        assert "narrow-positions" in names
        assert any(c.charged for c in cases)
        assert any(c.frac_bits != 23 for c in cases)


class TestRunCase:
    def test_paper_workload_passes(self):
        outcome = run_case(AcceptanceCase("paper"))
        assert outcome.passed
        assert outcome.force_rel_error < 2e-3

    def test_ionic_case_passes(self):
        outcome = run_case(
            AcceptanceCase(
                "salt", species=("Na", "Cl"), charged=True, min_distance=2.4
            )
        )
        assert outcome.passed

    def test_very_coarse_positions_fail(self):
        """The budget is a real gate: 4-bit positions must fail it."""
        outcome = run_case(AcceptanceCase("coarse", frac_bits=4))
        assert not outcome.passed


class TestFullMatrix:
    @pytest.fixture(scope="class")
    def report(self):
        return run_acceptance()

    def test_everything_passes(self, report):
        failing = [o.case.name for o in report.outcomes if not o.passed]
        assert report.all_passed, f"failing cases: {failing}"

    def test_report_format(self, report):
        txt = format_acceptance(report)
        assert "PASS" in txt
        assert "0 of 8 failed" in txt


class _PairEnergyMagnitude(PairKernel):
    """Sum over pairs of ``|LJ energy| + |Ewald energy|`` (no forces)."""

    def __init__(self, beta):
        self.beta = beta

    def evaluate(self, system, dr, r2, idx_i, idx_j):
        spc = system.species
        _, e = lj_scalar_energy(r2, spc[idx_i], spc[idx_j], system.lj_table)
        mag = float(np.abs(e).sum())
        if self.beta is not None:
            qq = system.charges[idx_i] * system.charges[idx_j]
            mag += float(np.abs(qq * ewald_real_energy_scalar(r2, self.beta)).sum())
        return np.zeros_like(dr), mag


#: Force passes of the distributed trajectory that are gated.
PASSES = (0, 10, 50)


class TestDistributedGate:
    """Every default case through the distributed machine, serial and on
    the thread pool, gated against the float64 reference at force passes
    0, 10 and 50 of one trajectory on its persistent node states.

    Forces use :data:`FORCE_REL_TOLERANCE` exactly as ``run_case``.  The
    energy error is relative to the summed pair-energy magnitudes, not
    to ``|E|``: along a trajectory pair energies cancel until ``|E|`` is
    a small fraction of them (the ``ionic`` box after 50 steps: 32 of an
    LJ term near 6000 kcal/mol), and relative to ``|E|`` even the single
    machine misses :data:`ENERGY_REL_TOLERANCE` there.
    """

    @pytest.mark.parametrize("parallel", [False, True])
    @pytest.mark.parametrize("case", default_cases(), ids=lambda c: c.name)
    def test_trajectory_within_budgets(self, case, parallel):
        system, grid = build_dataset(
            case.dims,
            particles_per_cell=case.particles_per_cell,
            species=case.species,
            charged=case.charged,
            min_distance=case.min_distance,
            seed=case.seed,
        )
        odd = any(d % 2 for d in case.dims)
        config = MachineConfig(
            case.dims,
            (3, 1, 1) if odd else (2, 2, 2),
            frac_bits=case.frac_bits,
            table_nb=case.table_nb,
            force_model="lj+coulomb" if case.charged else "lj",
        )
        machine = DistributedMachine(config, system=system, parallel=parallel)
        beta = machine.ewald_beta if case.charged else None
        kernels = [LennardJonesKernel()] + (
            [EwaldRealKernel(beta)] if case.charged else []
        )
        failing = []
        try:
            machine.run(0)
            for p in range(PASSES[-1] + 1):
                if p:
                    machine.step()
                if p not in PASSES:
                    continue
                f_ref, e_ref = compute_forces_kernel(
                    machine.system, grid, CompositeKernel(kernels)
                )
                _, e_mag = compute_forces_kernel(
                    machine.system, grid, _PairEnergyMagnitude(beta)
                )
                f_err = np.abs(machine.forces - f_ref).max() / np.abs(f_ref).max()
                e_err = abs(machine._last_potential - e_ref) / e_mag
                if f_err >= FORCE_REL_TOLERANCE or e_err >= ENERGY_REL_TOLERANCE:
                    failing.append((p, f_err, e_err))
        finally:
            machine.close()
        assert not failing, f"{case.name}: {failing}"
